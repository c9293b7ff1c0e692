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
fixed by the initial energies through the P/S system (see h1_constants).

A fixed-step RK4 integrator for the same characteristic system provides the
independent cross-check of the closed forms.  It steps with the compiled stage
kernel (``StageWorkspace.linear_step``, so it needs a C compiler); the NumPy
field :func:`_linear_rhs` under ``state.rk4`` is that step's bit-for-bit oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import StageWorkspace
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


def _check_time(t) -> None:
    if not 0 <= t < math.inf:  # NaN fails this too
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")


class ClosedForm:
    """The closed-form linear flow of one profile on the characteristics s, at any t.

    Everything that depends on s alone is computed here, once; a call adds the
    work of one t.  On the right half G is taken from the s = 2pi end: with
    w0 = 2pi vbar - int_s^{2pi} v0 and 2pi = pi m^2 (cosh 2pi - 1),

        G = pi m^2 vbar ((cosh 2pi - cosh s) + e^{-t}(cosh s - 1)) - int_s^{2pi} v0,

    so G(t,2pi) = 2pi vbar e^{-t} to rounding.  The direct form leaves an
    O(eps) remainder there that dX/ds ~ e^t and Y ~ e^t blow up at long times.
    """

    def __init__(self, ic: InitialCondition, s):
        s = self.s = np.asarray(s, dtype=float)
        self.vbar, self.pmv = ic.vbar, math.pi * m * m * ic.vbar
        self.es1, self.es = np.expm1(s), np.exp(s)
        self.gap = -E_2PI * np.expm1(s - TWO_PI)  # e^{2pi} - e^s, accurate at s ~ 2pi
        self.cosh, self.sinh = np.cosh(s), np.sinh(s)
        self.cosh_m1 = self.cosh - 1.0
        self.cosh_gap = 2.0 * np.sinh(0.5 * (TWO_PI + s)) * np.sinh(0.5 * (TWO_PI - s))
        self.right = s > math.pi
        self.w0, self.tail = ic.antiderivative(s), ic.tail_integral(s)
        self.v0, self.v0_s = ic.value(s), ic.slope(s)

    def __call__(self, t: float) -> tuple:
        """(X, dX/ds, Y, V, U, W) at time t, floats for a scalar s; G is the bracket above."""
        _check_time(t)
        decay = math.exp(-t)
        a_den = self.gap + decay * self.es1
        a_num = self.gap + math.exp(TWO_PI - t) * self.es1
        Xs = (E_2PI - 1.0) ** 2 * np.exp(self.s - t) / (a_den * a_num)
        ad = self.es * math.expm1(-t) / a_den
        an = self.es * math.expm1(TWO_PI - t) / a_num
        Y, Ys = 1.0 - ad - an, -ad * (1.0 - ad) - an * (1.0 - an)
        fade = self.pmv * (-math.expm1(-t))
        G = np.where(self.right, self.pmv * (self.cosh_gap + decay * self.cosh_m1) - self.tail,
                     self.w0 - fade * self.cosh_m1)
        Gs, Gss = self.v0 - fade * self.sinh, self.v0_s - fade * self.cosh
        fields = (np.log(a_num / a_den), Xs, Y, Gs + G * Y, (Gss + Gs * Y + G * Ys) / Xs, Xs * G)
        return tuple(map(float, fields)) if self.s.ndim == 0 else fields

    def state(self, t: float) -> CharacteristicState:
        X, Xs, _, V, U, W = self(t)
        return CharacteristicState(t=t, s=self.s, X=X, V=V, W=W, U=U, J=Xs, vbar=self.vbar)


def exact_characteristic(t: float, s):
    """Closed-form characteristic: position X, stretch dX/ds, and Y.

    Endpoint limits: X(t,0) = 0, X(t,2pi) = 2pi, dX/ds = e^{-t} at s = 0 and
    e^{t} at s = 2pi.
    """
    return ClosedForm(InitialCondition(), s)(t)[:3]


def exact_w(t: float, s, ic: InitialCondition):
    """Closed-form W(t,s); W(t,0) = 0 and W(t,2pi) = 2*pi*vbar for all t."""
    return ClosedForm(ic, s)(t)[5]


def exact_v(t: float, s, ic: InitialCondition):
    """Closed-form V(t,s); both endpoints stay at v0(0) for all t."""
    return ClosedForm(ic, s)(t)[3]


def exact_u(t: float, s, ic: InitialCondition):
    """Closed-form slope U(t,s) = v_x along the characteristic."""
    return ClosedForm(ic, s)(t)[4]


def exact_state(t: float, ic: InitialCondition, n_chars: int = 256) -> CharacteristicState:
    """Assemble a full closed-form state on the cosine-stretched grid."""
    return ClosedForm(ic, cosine_grid(n_chars)).state(t)


def peak_slopes_exact(t: float, ic: InitialCondition):
    """One-sided slopes at the peak: (right of peak, left of peak)."""
    _check_time(t)
    drive = M * ic.v0_at_0 - math.pi * m * m * ic.vbar
    right = math.exp(t) * ic.v0_slope_right + drive * math.expm1(t)
    left = math.exp(-t) * ic.v0_slope_left + drive * (-math.expm1(-t))
    return right, left


@dataclass
class LinearTrajectory:
    states: list


def _linear_rhs(Z: np.ndarray, pmv: float) -> np.ndarray:
    """The linearized vector field for stacked Z = (X, W, V, U, J), as a new array."""
    X, W, V, U, J = Z[0], Z[1], Z[2], Z[3], Z[4]  # indexing: iterating over Z is slower
    ph, php = phi_open_interval(X), phi_prime_open_interval(X)  # phi' one-sided at the ends
    coshX, sinhX, tmp, dZ = np.cosh(X), np.sinh(X), np.empty_like(X), np.empty_like(Z)
    dX, dW, dV, dU, dJ = dZ[0], dZ[1], dZ[2], dZ[3], dZ[4]
    np.subtract(ph, M, out=dX)
    np.add(np.multiply(php, W, out=dW),
           np.multiply(np.subtract(1.0, coshX, out=tmp), pmv, out=tmp), out=dW)
    np.subtract(np.multiply(ph, W, out=dV), np.multiply(sinhX, pmv, out=tmp), out=dV)
    np.add(np.multiply(np.subtract(W, U, out=dU), php, out=dU), np.multiply(ph, V, out=tmp), out=dU)
    dU -= np.multiply(coshX, pmv, out=tmp)
    np.multiply(php, J, out=dJ)
    dX[0] = dX[-1] = 0.0  # the peak characteristics are exact fixed points
    return dZ


def integrate_linear(ic: InitialCondition, t_end: float, dt: float = 1e-3,
                     n_chars: int = 256, save_times=None) -> LinearTrajectory:
    """Fixed-step RK4 for the linearized characteristic system.

    All characteristics advance in lockstep; the system is diagonal over s
    once vbar is frozen, so the work per step is O(n_chars).  States are
    recorded at the requested save times (t_end by default), which must be
    whole numbers of steps.  The peak value V[0] and the mean W[-1]/(2*pi)
    are conserved by the flow; the integrator preserves both to rounding
    because the endpoints are fixed points of the discrete stages.  Each step
    is ``StageWorkspace.linear_step`` on one workspace per run, one compiled
    call per stage, which gives the bits of ``state.rk4`` over :func:`_linear_rhs`.
    """
    n_end, saves = save_steps(t_end, dt, save_times)
    start = initial_state(ic, n_chars)
    step = StageWorkspace(start.s).linear_step(math.pi * m * m * ic.vbar, dt)
    saved, _, t, outcome = march(step, start.stack(), dt, n_end, saves)
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
