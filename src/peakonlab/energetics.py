"""Energy functionals and conserved combinations of the perturbed wave.

Two functionals are conserved by the full flow until wave breaking,

    E(u) = int (u^2 + u_x^2) dx,     F(u) = int u (u^2 + u_x^2) dx,

and two kernel-weighted energies of the perturbation drive the linear
growth law,

    P(t) = int phi [v^2 + v_x^2/2] dx,   S(t) = int phi' [v^2 + v_x^2/2] dx.

All integrals are taken in the characteristic frame with the jacobian
weight, int f(X(s)) J(s) ds, on the state's own grid (no re-gridding), with
one-sided slope data at the endpoints.  The same discretization serves every
functional, but it is not exact on phi itself: on long runs the drift of the
conserved quantities is mostly that quadrature error on the flowing grid (zero
perturbation at n=512: E_u - E(phi) = -1.7e-5 at t=4, -4.0e-2 at t=8).

Closed forms for the unperturbed wave, used as oracle baselines (derived by
direct integration of m^2 cosh(2(pi-x)) and m^3 cosh(pi-x) cosh(2(pi-x))):

    E(phi) = m^2 sinh(2*pi)                      = 2 M,
    F(phi) = m^3 (sinh(3*pi)/3 + sinh(pi)).

Quadratic expansion links the full and perturbation energies:
E(u) = E(phi) + 4 v|peak + E(v), and eliminating v|peak from the matching
F(u) expansion yields the combination

    2P - M E(v) - [E(u) - E(phi)] E(v)/4 + E(v)^2/8 + F(v)

which is constant in time for the nonlinear flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import M, m, phi_open_interval, phi_prime_open_interval
from .quadrature import Grid, integrate_samples
from .state import CharacteristicState

#: E(phi) = m^2 sinh(2*pi), simplified via m^2 sinh(2*pi) = 2 coth(pi)
E_PHI = 2.0 * M

#: F(phi) = m^3 (sinh(3*pi)/3 + sinh(pi))
F_PHI = m ** 3 * (math.sinh(3.0 * math.pi) / 3.0 + math.sinh(math.pi))


@dataclass(frozen=True)
class EnergyReport:
    """Energies of one state: perturbation, full wave, and combinations."""

    t: float
    E_v: float
    F_v: float
    P: float
    S: float
    E_u: float
    F_u: float
    v_peak: float
    vbar_measured: float

    @property
    def combo_linear(self) -> float:
        """2P - M E(v): constant along the linearized flow."""
        return 2.0 * self.P - M * self.E_v

    @property
    def combo_nonlinear(self) -> float:
        """Quartic conserved combination of the nonlinear flow (inf once E(v)^2 overflows)."""
        try:
            square = self.E_v ** 2
        except OverflowError:  # float ** raises where float * gives inf
            square = math.inf
        return (2.0 * self.P - M * self.E_v
                - 0.25 * (self.E_u - E_PHI) * self.E_v
                + 0.125 * square + self.F_v)


def energies(state: CharacteristicState) -> EnergyReport:
    """Evaluate all energy functionals on one characteristic state."""
    s, X, V, U, J = Grid(state.s), state.X, state.V, state.U, state.J  # one grid for all
    ph = phi_open_interval(X)
    php = phi_prime_open_interval(X)  # one-sided at the fixed endpoints

    quad = (V * V + U * U) * J
    half = (V * V + 0.5 * U * U) * J
    E_v = integrate_samples(s, quad)
    F_v = integrate_samples(s, V * quad)
    P = integrate_samples(s, ph * half)
    S = integrate_samples(s, php * half)

    u = ph + V
    ux = php + U
    full = (u * u + ux * ux) * J
    E_u = integrate_samples(s, full)
    F_u = integrate_samples(s, u * full)
    vbar_measured = integrate_samples(s, V * J) / (2.0 * math.pi)

    return EnergyReport(t=state.t, E_v=E_v, F_v=F_v, P=P, S=S,
                        E_u=E_u, F_u=F_u, v_peak=state.v_peak, vbar_measured=vbar_measured)


def check_conserved(series) -> dict:
    """Maximal drifts of the conserved quantities over a run.

    Returns absolute and relative drifts (relative to the initial magnitude;
    infinite when the baseline is zero) for the linear and nonlinear
    combinations, both full-wave energies, and the mean.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one energy report")
    out = {}
    for key, values in [
        ("combo_linear", [r.combo_linear for r in series]),
        ("combo_nonlinear", [r.combo_nonlinear for r in series]),
        ("E_u", [r.E_u for r in series]),
        ("F_u", [r.F_u for r in series]),
        ("vbar", [r.vbar_measured for r in series]),
        ("v_peak", [r.v_peak for r in series]),
    ]:
        base = values[0]
        drift = float(np.max(np.abs(np.subtract(values, base))))  # a NaN sample gives NaN
        out[key] = {
            "abs": drift,
            "rel": drift / abs(base) if base != 0.0 else (0.0 if drift == 0.0 else math.inf),
        }
    return out
