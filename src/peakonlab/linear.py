"""Linearized evolution around the peaked wave, in the frame moving with it.

After subtracting the wave and using the convolution-reduction identity, the
linearized flow for the perturbation v is local:

    v_t = (c - phi) v_x + phi w - pi m^2 vbar sinh(x),   w(t,x) = int_0^x v,

with c = M and conserved peak value v(t,0) and mean vbar.  Along the
characteristics dX/dt = phi(X) - M the fields V = v(X), W = w(X), U = v_x(X)
obey linear ODEs, and everything integrates in closed form:

    X(t,s)  = log(A_num / A_den),
    A_den   = (e^{2pi} - e^s) + e^{-t}(e^s - 1),
    A_num   = (e^{2pi} - e^s) + e^{2pi-t}(e^s - 1),
    dX/ds   = (e^{2pi}-1)^2 e^{s-t} / (A_den A_num),
    W       = dX/ds * G,        G(t,s) = w0(s) - pi m^2 vbar (cosh s - 1)(1 - e^{-t}),
    V       = G_s + G Y,        Y = d/ds log dX/ds,
    U       = (G_ss + G_s Y + G Y_s) / (dX/ds).

Y has the compact logarithmic-derivative form Y = 1 - a_d - a_n with
a_d = e^s(e^{-t}-1)/A_den, a_n = e^s(e^{2pi-t}-1)/A_num, whence
Y_s = -a_d(1-a_d) - a_n(1-a_n).

The slopes at the two sides of the peak grow and decay exponentially:

    right:  e^t  v0'(0+) + (M v0(0) - pi m^2 vbar)(e^t - 1),
    left:   e^-t v0'(0-) + (M v0(0) - pi m^2 vbar)(1 - e^-t),

while the squared H^1 norm follows C_+ e^t + C_0 + C_- e^-t, with constants
fixed by the initial energies through the P/S system (see h1_forecast).

A fixed-step RK4 integrator for the same characteristic system provides the
independent cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energetics import energies
from .kernel import M, TWO_PI, m, phi_open_interval, phi_prime_open_interval
from .profiles import InitialCondition
from .state import CharacteristicState, cosine_grid, initial_state, march, save_steps

E_2PI = math.exp(TWO_PI)


class IntegrationError(RuntimeError):
    """Raised when the state stops being finite; carries the last valid time."""

    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time


def _char_internals(t, s):
    """X, dX/ds, Y = d/ds log dX/ds, and Y_s, all in closed form."""
    s = np.asarray(s, dtype=float)
    es1 = np.expm1(s)
    gap = -E_2PI * np.expm1(s - TWO_PI)  # e^{2pi} - e^s, accurate at s ~ 2pi
    a_den = gap + math.exp(-t) * es1
    a_num = gap + math.exp(TWO_PI - t) * es1
    X = np.log(a_num / a_den)
    Xs = (E_2PI - 1.0) ** 2 * np.exp(s - t) / (a_den * a_num)
    es = np.exp(s)
    ad = es * math.expm1(-t) / a_den
    an = es * math.expm1(TWO_PI - t) / a_num
    Y = 1.0 - ad - an
    Ys = -ad * (1.0 - ad) - an * (1.0 - an)
    return X, Xs, Y, Ys


def exact_characteristic(t: float, s):
    """Closed-form characteristic: position X, stretch dX/ds, and Y.

    Endpoint limits: X(t,0) = 0, X(t,2pi) = 2pi, dX/ds = e^{-t} at s = 0 and
    e^{t} at s = 2pi.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    X, Xs, Y, _ = _char_internals(t, s)
    scalar = np.ndim(s) == 0
    return (float(X[()]), float(Xs[()]), float(Y[()])) if scalar and X.ndim == 0 \
        else (X, Xs, Y)


def _bracket(t, s, ic: InitialCondition):
    """G and its first two s-derivatives.

    On the right half G is taken from the s = 2pi end: with
    w0 = 2pi vbar - int_s^{2pi} v0 and 2pi = pi m^2 (cosh 2pi - 1),

        G = pi m^2 vbar ((cosh 2pi - cosh s) + e^{-t}(cosh s - 1)) - int_s^{2pi} v0,

    so G(t,2pi) = 2pi vbar e^{-t} to rounding.  The direct form leaves an
    O(eps) remainder there that dX/ds ~ e^t and Y ~ e^t blow up at long times.
    """
    s = np.asarray(s, dtype=float)
    pmv = math.pi * m * m * ic.vbar
    fade = pmv * (-math.expm1(-t))
    cosh_s = np.cosh(s)
    head = ic.antiderivative(s) - fade * (cosh_s - 1.0)
    cosh_gap = 2.0 * np.sinh(0.5 * (TWO_PI + s)) * np.sinh(0.5 * (TWO_PI - s))
    tail = pmv * (cosh_gap + math.exp(-t) * (cosh_s - 1.0)) - ic.tail_integral(s)
    G = np.where(s > math.pi, tail, head)
    Gs = ic.value(s) - fade * np.sinh(s)
    Gss = ic.slope(s) - fade * cosh_s
    return G, Gs, Gss


def exact_w(t: float, s, ic: InitialCondition):
    """Closed-form W(t,s); W(t,0) = 0 and W(t,2pi) = 2*pi*vbar for all t."""
    _, Xs, _, _ = _char_internals(t, s)
    G, _, _ = _bracket(t, s, ic)
    out = Xs * G
    return float(out[()]) if np.ndim(s) == 0 else out


def exact_v(t: float, s, ic: InitialCondition):
    """Closed-form V(t,s); both endpoints stay at v0(0) for all t."""
    _, _, Y, _ = _char_internals(t, s)
    G, Gs, _ = _bracket(t, s, ic)
    out = Gs + G * Y
    return float(out[()]) if np.ndim(s) == 0 else out


def exact_u(t: float, s, ic: InitialCondition):
    """Closed-form slope U(t,s) = v_x along the characteristic."""
    _, Xs, Y, Ys = _char_internals(t, s)
    G, Gs, Gss = _bracket(t, s, ic)
    out = (Gss + Gs * Y + G * Ys) / Xs
    return float(out[()]) if np.ndim(s) == 0 else out


def exact_state(t: float, ic: InitialCondition, n_chars: int = 256) -> CharacteristicState:
    """Assemble a full closed-form state on the cosine-stretched grid."""
    s = cosine_grid(n_chars)
    X, Xs, Y, Ys = _char_internals(t, s)
    G, Gs, Gss = _bracket(t, s, ic)
    return CharacteristicState(
        t=t, s=s, X=X, V=Gs + G * Y, W=Xs * G,
        U=(Gss + Gs * Y + G * Ys) / Xs, J=Xs, vbar=ic.vbar)


def peak_slopes_exact(t: float, ic: InitialCondition):
    """One-sided slopes at the peak: (right of peak, left of peak)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    drive = M * ic.v0_at_0 - math.pi * m * m * ic.vbar
    right = math.exp(t) * ic.v0_slope_right + drive * math.expm1(t)
    left = math.exp(-t) * ic.v0_slope_left + drive * (-math.expm1(-t))
    return right, left


@dataclass
class LinearTrajectory:
    states: list


def _linear_rhs(Z: np.ndarray, pmv: float, stretch=0.0) -> np.ndarray:
    """Local terms of the characteristic system for stacked Z = (X, W, V, U, J).

    These are the whole linearized vector field; the nonlinear flow adds its
    convolution and quadratic terms to them and passes stretch = U, so that
    dJ/dt = (phi'(X) + stretch) J.
    """
    X, W, V, U, J = Z
    ph = phi_open_interval(X)
    php = phi_prime_open_interval(X)  # one-sided at the fixed endpoints
    coshX = np.cosh(X)
    sinhX = np.sinh(X)
    dZ = np.stack([
        ph - M,
        php * W + pmv * (1.0 - coshX),
        ph * W - pmv * sinhX,
        php * (W - U) + ph * V - pmv * coshX,
        (php + stretch) * J,
    ])
    dZ[0, 0] = dZ[0, -1] = 0.0  # the peak characteristics are exact fixed points
    return dZ


def integrate_linear(ic: InitialCondition, t_end: float, dt: float = 1e-3,
                     n_chars: int = 256, save_times=None) -> LinearTrajectory:
    """Fixed-step RK4 for the linearized characteristic system.

    All characteristics advance in lockstep; the system is diagonal over s
    once vbar is frozen, so the work per step is O(n_chars).  States are
    recorded at the requested save times (t_end by default), which must be
    whole numbers of steps.  The peak value V[0] and the mean W[-1]/(2*pi)
    are conserved by the flow; the integrator preserves both to rounding
    because the endpoints are fixed points of the discrete stages.
    """
    n_end, saves = save_steps(t_end, dt, save_times)
    start = initial_state(ic, n_chars)
    pmv = math.pi * m * m * ic.vbar
    rhs = lambda t, Z: (_linear_rhs(Z, pmv), None)  # autonomous, no side output
    saved, _, t, outcome = march(rhs, start.stack(), dt, n_end, saves)
    if outcome == "non-finite":
        raise IntegrationError(f"linear integration left the reals after t={t:g}",
                               last_valid_time=t)
    return LinearTrajectory(states=[start.unstack(Z, tk) for tk, Z in saved])


@dataclass(frozen=True)
class H1ForecastConstants:
    """Constant chain of the closed P/S system driving the H^1 growth law."""

    E0: float
    P0: float
    S0: float
    C1: float
    C2: float
    C3: float
    S_plus: float
    S_minus: float

    def P(self, t: float) -> float:
        return -M * self.S_plus * math.exp(t) + M * self.S_minus * math.exp(-t) + M * self.C3

    def S(self, t: float) -> float:
        return self.S_plus * math.exp(t) + self.S_minus * math.exp(-t)

    def energy(self, t: float) -> float:
        return (2.0 * self.P(t) + self.C1) / M


def h1_constants(ic: InitialCondition, n_chars: int = 2048) -> H1ForecastConstants:
    """Fix the growth-law constants from quadratures of the initial data.

    The kernel-weighted energies P(t) = int phi (v^2 + v_x^2/2) and
    S(t) = int phi' (v^2 + v_x^2/2) close into P' = -M S,
    S' = -P/M + C3, and the squared H^1 norm follows from M E = 2P + C1.
    """
    rep = energies(initial_state(ic, n_chars))
    E0, P0, S0 = rep.E_v, rep.P, rep.S
    v_at_peak = ic.v0_at_0
    C1 = M * E0 - 2.0 * P0
    C2 = (math.pi * m * m * M * ic.vbar + M * v_at_peak ** 2
          - 2.0 * math.pi * m * m * ic.vbar * v_at_peak)
    C3 = m * m * C1 / (2.0 * M) + C2
    S_plus = 0.5 * (S0 - P0 / M + C3)
    S_minus = 0.5 * (S0 + P0 / M - C3)
    return H1ForecastConstants(E0=E0, P0=P0, S0=S0, C1=C1, C2=C2, C3=C3,
                               S_plus=S_plus, S_minus=S_minus)


def h1_forecast(ic: InitialCondition, t: float, n_chars: int = 2048) -> float:
    """Predicted squared H^1 norm of the perturbation at time t."""
    return h1_constants(ic, n_chars).energy(t)
