"""Full nonlinear perturbation dynamics along characteristics, with breaking.

In the frame moving with the peaked wave, a single-peak perturbation v obeys

    v_t = (c - phi) v_x + phi w - pi m^2 vbar sinh x + (v|peak - v) v_x - Q[v],

and along the characteristics dX/dt = phi(X) - M + V - V|peak the fields
(X, V, W, U, J) close into the ODE system

    dV/dt = phi(X) W - pi m^2 vbar sinh X - Q[v](X),
    dW/dt = phi'(X) W - pi m^2 vbar (cosh X - 1) + (V^2 - V|peak^2)/2
            - P[v](X) + P[v](0),
    dU/dt = phi'(X)(W - U) + phi(X) V - pi m^2 vbar cosh X - U^2/2 + V^2
            - P[v](X),
    dJ/dt = (phi'(X) + U) J,

with the nonlocal forcing convolved in the characteristic frame.  The mean
vbar stays constant (Q has zero circle mean); the peak value obeys
d v|peak / dt = -Q[v](0) and the endpoints s = 0, 2*pi are fixed points of
the discrete stages, so the boundary identities hold to rounding.

The slopes U+ = U[0] and U- = U[-1] on the two sides of the peak satisfy the
scalar equations that the stage's rows dU[0] and dU[-1] evaluate,

    dU+-/dt = +-U+- + M V|peak - pi m^2 vbar - (U+-)^2/2 + (V|peak)^2 - P[v](0),

whose right member is dominated by the Riccati supersolution
dUbar/dt = Ubar - Ubar^2/2 + F for any constant F bounding the forcing
bracket.  When U+ starts below the negative equilibrium root of
U - U^2/2 + F, the supersolution escapes to -infinity in finite time, which
upper-bounds the lifespan of the solution: the slope just right of the peak
steepens without bound while v itself stays small -- wave breaking.
Integration stops once max|U| crosses the blow-up threshold (or goes
non-finite); the reported stop time is the last completed step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import StageWorkspace
from .kernel import M, TWO_PI, m, phi
from .profiles import InitialCondition
from .state import CharacteristicState, initial_state, march, save_steps


@dataclass(frozen=True)
class StateDerivative:
    """Time derivative of a characteristic state."""

    dX: np.ndarray
    dV: np.ndarray
    dW: np.ndarray
    dU: np.ndarray
    dJ: np.ndarray


@dataclass
class NonlinearTrajectory:
    """Outcome of a nonlinear run: saved states, dense per-step peak diagnostics, and
    how the run ended.

    When breaking is detected, max_abs_slope is at least the threshold
    (infinite if the state left the reals inside one step).
    """

    states: list
    diag_t: np.ndarray
    diag_v_peak: np.ndarray
    diag_p0: np.ndarray
    diag_u_right: np.ndarray
    diag_u_left: np.ndarray
    vbar: float
    status: str  # "completed" | "blew_up"
    t_stop: float
    max_abs_slope: float


def _rhs(ws: StageWorkspace, Z: np.ndarray, pmv: float):
    """(dZ, P0) of the first stage of a step from the 5 stacked rows Z = (X, W, V, U, J) in the
    caller's workspace ws (another shape raises ValueError); dZ is a new array."""
    dZ, QP = ws.first_stage(Z, pmv)
    return dZ.copy(), QP.item(1, 0)


def nl_rhs(state: CharacteristicState) -> StateDerivative:
    """Time derivative of a state under the nonlinear flow.

    Zero perturbation reduces to the pure characteristic flow
    (dX = phi - M, dJ = phi' J); the peak value moves with dV[0] = -Q[v](0).
    """
    dZ, _ = _rhs(StageWorkspace(state.s), state.stack(), math.pi * m * m * state.vbar)
    return StateDerivative(dX=dZ[0], dV=dZ[2], dW=dZ[1], dU=dZ[3], dJ=dZ[4])


def integrate_nonlinear(ic: InitialCondition, t_end: float, dt: float = 5e-4,
                        n_chars: int = 512, slope_threshold: float = 1e6,
                        save_times=None):
    """Fixed-step RK4 for the nonlinear characteristic system.

    Each step is ``StageWorkspace.rk4_step``, one compiled call per stage, which gives the
    bits of ``state.rk4`` over :func:`_rhs`; the final record's P(0) comes from one more step.
    Advances until ``t_end`` or until breaking is detected (max|U| at or
    above ``slope_threshold``, or a non-finite state).  t_end and the save
    times must be whole numbers of steps.  Returns the trajectory (states at
    the requested save times that were reached, dense peak diagnostics every
    step, and the run's status, stop time and largest slope).
    """
    if not slope_threshold > 0:  # NaN fails this too
        raise ValueError("slope_threshold must be positive")
    n_steps, saves = save_steps(t_end, dt, save_times)
    start = initial_state(ic, n_chars)
    pmv = math.pi * m * m * ic.vbar
    ws = StageWorkspace(start.s)  # built once, used by every stage of this run
    step = ws.rk4_step(pmv, dt)  # autonomous; side output P0
    rows = []  # (t, V|peak, P(0), U+, U-) of every finite state reached
    slopes = [float(np.max(np.abs(start.U)))]  # max|U| of the same states, taken by stop
    saved, _, t_stop, outcome = march(
        step, start.stack(), dt, n_steps, saves,
        stop=lambda Z: slopes.append(float(np.abs(Z[3]).max())) or slopes[-1] >= slope_threshold,
        record=lambda t, Z, p0: rows.append((t, Z[2, 0], p0, Z[3, 0], Z[3, -1])))
    diag_t, v_peak, p0, u_right, u_left = np.array(rows).T
    return NonlinearTrajectory(
        states=[start.unstack(Z, t) for t, Z in saved], diag_t=diag_t, diag_v_peak=v_peak,
        diag_p0=p0, diag_u_right=u_right, diag_u_left=u_left, vbar=ic.vbar,
        status="completed" if outcome == "completed" else "blew_up", t_stop=t_stop,
        # a non-finite step means the slope was unbounded within it
        max_abs_slope=math.inf if outcome == "non-finite" else max(slopes))


def measured_forcing_bound(trajectory: NonlinearTrajectory) -> float:
    """Largest forcing bracket M V|peak - pi m^2 vbar + V|peak^2 - P[v](0) seen
    while the run still resolved the flow.

    When breaking was detected, the record taken at the stopping step is
    excluded: past the slope threshold the discrete state no longer means
    anything (the convolution of the overshooting slope can even flip sign),
    and the supersolution comparison only needs a bound valid while the
    solution exists.  Clamped at zero, which can only enlarge the
    supersolution and so keeps the bound valid.
    """
    v_peak, pmv = trajectory.diag_v_peak, math.pi * m * m * trajectory.vbar
    bracket = M * v_peak - pmv + v_peak ** 2 - trajectory.diag_p0
    if trajectory.status == "blew_up":
        bracket = bracket[trajectory.diag_t < trajectory.t_stop]
    if bracket.size == 0:
        return 0.0
    return max(0.0, float(np.max(bracket)))


def _riccati_roots(u0: float, forcing: float):
    if not 0 <= forcing < math.inf:  # NaN fails this too
        raise ValueError(f"forcing must be finite and nonnegative, got {forcing!r}")
    if not math.isfinite(u0):
        raise ValueError(f"u0 must be finite, got {u0!r}")
    root = math.sqrt(1.0 + 2.0 * forcing)
    return 1.0 + root, 1.0 - root  # r_plus, r_minus (negative equilibrium)


def riccati_bound(u0: float, forcing: float) -> float:
    """Finite escape time of dU/dt = U - U^2/2 + forcing from U(0) = u0.

    By separation of variables the solution reaches -infinity at

        T = (2 / (r+ - r-)) log((r+ - u0) / (r- - u0)),

    where r+- = 1 +- sqrt(1 + 2 forcing) are the equilibria; infinite when
    u0 >= r- (the negative root, which lies in (-forcing, 0)).
    """
    r_plus, r_minus = _riccati_roots(u0, forcing)
    if u0 >= r_minus:
        return math.inf
    delta = r_plus - r_minus
    return (2.0 / delta) * math.log((r_plus - u0) / (r_minus - u0))


def riccati_supersolution(u0: float, forcing: float, t):
    """Closed-form solution of dU/dt = U - U^2/2 + forcing, U(0) = u0.

    Valid for t below the escape time when u0 lies under the negative
    equilibrium.  Vectorized over t.
    """
    r_plus, r_minus = _riccati_roots(u0, forcing)
    t = np.asarray(t, dtype=float)
    ratio0 = (u0 - r_plus) / (u0 - r_minus)
    ratio = ratio0 * np.exp(-0.5 * (r_plus - r_minus) * t)
    out = (r_plus - r_minus * ratio) / (1.0 - ratio)
    return float(out[()]) if out.ndim == 0 else out


def reconstruct_u(state: CharacteristicState, x_grid):
    """Rebuild the full wave u = phi + v on positions in [0, 2*pi].

    The perturbation is interpolated from (X, V) by a monotone piecewise
    cubic, which cannot overshoot across the steepening front.  Also returns
    v|peak, the speed of the s = 0 corner on top of the background speed M.
    That corner is the crest (u_x = U+ - 1 right of it, U- + 1 left of it)
    only while U+ < 1 and U- > -1.
    """
    from scipy.interpolate import PchipInterpolator  # slow to import; no CLI path needs it
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid < -1e-12) or np.any(x_grid > TWO_PI + 1e-12):
        raise ValueError("x_grid must lie within [0, 2*pi]")
    v_interp = PchipInterpolator(state.X, state.V)
    u = phi(x_grid) + v_interp(np.clip(x_grid, state.X[0], state.X[-1]))
    return u, state.v_peak
