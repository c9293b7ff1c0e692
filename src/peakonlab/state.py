"""Solution state along characteristics.

The fundamental interval for characteristics is [0, 2*pi]: the peak sits on
the fixed curves s = 0 and s = 2*pi, and the interval between them is
invariant under the flow.  A state carries, per characteristic, the position
X, the perturbation value V, its antiderivative W = int_0^X v, the slope
U = v_x, and the jacobian J = dX/ds.  Endpoint entries hold one-sided data:
U[0] is the slope just right of the peak, U[-1] just left of it.

Boundary identities that every valid state satisfies: X[0] = 0,
X[-1] = 2*pi, W[0] = 0, W[-1] = 2*pi*vbar, V[0] = V[-1] (the peak value).

The linear and nonlinear integrators share the t = 0 state, the fixed-step
timeline (:func:`save_steps`) and :func:`march`, the one stepping loop; they
advance the fields stacked as rows (X, W, V, U, J).  march takes one step
callable, step(t, Z) -> (next Z, extra): the linear run's is
``StageWorkspace.linear_step``, the nonlinear run's ``StageWorkspace.rk4_step``,
each one compiled call per stage that gives the bits of :func:`rk4` over its
NumPy vector field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernel import TWO_PI
from .profiles import InitialCondition


def cosine_grid(n: int) -> np.ndarray:
    """n characteristic parameters on [0, 2*pi], clustered at both ends.

    s_k = pi (1 - cos(pi k/(n-1))).  The jacobian degenerates like e^{-t}
    at s = 0 and grows like e^{t} at s = 2*pi; end clustering keeps both the
    contracting and the stretching end resolved.
    """
    if n < 2:
        raise ValueError("need at least 2 characteristics")
    return math.pi * (1.0 - np.cos(np.linspace(0.0, math.pi, n)))


@dataclass
class CharacteristicState:
    """Arrays (s, X, V, W, U, J) at one instant, plus the conserved mean."""

    t: float
    s: np.ndarray
    X: np.ndarray
    V: np.ndarray
    W: np.ndarray
    U: np.ndarray
    J: np.ndarray
    vbar: float

    @property
    def v_peak(self) -> float:
        """Perturbation value at the peak (carried by the s = 0 endpoint)."""
        return float(self.V[0])

    def stack(self) -> np.ndarray:
        """The fields as the rows (X, W, V, U, J) the integrators advance."""
        return np.stack([self.X, self.W, self.V, self.U, self.J])

    def unstack(self, Z: np.ndarray, t: float) -> CharacteristicState:
        """This state's grid and mean at time t, with fields copied from rows of Z."""
        X, W, V, U, J = (row.copy() for row in Z)
        return replace(self, t=t, X=X, V=V, W=W, U=U, J=J)

    def validate(self, atol: float = 1e-8) -> None:
        arrays = (self.s, self.X, self.V, self.W, self.U, self.J)
        n = len(self.s)
        if any(len(a) != n for a in arrays):
            raise ValueError("state arrays must share one length")
        if not (all(np.isfinite(a).all() for a in arrays) and math.isfinite(self.vbar)):
            raise ValueError("state fields and vbar must be finite")
        if abs(self.X[0]) > atol or abs(self.X[-1] - TWO_PI) > atol:
            raise ValueError("characteristic endpoints must stay at 0 and 2*pi")
        if np.any(np.diff(self.X) <= 0):
            raise ValueError("X must be strictly increasing in s")
        if np.any(self.J <= 0):
            raise ValueError("jacobian must stay positive")
        if abs(self.W[0]) > atol:
            raise ValueError("W must vanish at the peak")
        if abs(self.W[-1] - TWO_PI * self.vbar) > atol:
            raise ValueError("W(2*pi) must equal 2*pi*vbar")
        if abs(self.V[0] - self.V[-1]) > atol:
            raise ValueError("peak value must match at both endpoints")


def initial_state(ic: InitialCondition, n_chars: int) -> CharacteristicState:
    """t = 0 state on the cosine-stretched grid: X = s, J = 1.

    W(2*pi) is seeded with 2*pi*vbar exactly: the closed-form antiderivative
    leaves an O(eps) remainder there (sin(2*pi k) != 0 in floating point),
    which the endpoint equation dW/dt = W + ... amplifies like e^t.
    """
    if n_chars < 16:
        raise ValueError("need at least 16 characteristics")
    s = cosine_grid(n_chars)
    return CharacteristicState(
        t=0.0,
        s=s,
        X=s.copy(),
        V=np.asarray(ic.value(s), dtype=float),
        W=np.append(ic.antiderivative(s[:-1]), TWO_PI * ic.vbar),
        U=np.asarray(ic.slope(s), dtype=float),
        J=np.ones_like(s),
        vbar=ic.vbar,
    )


def save_steps(t_end: float, dt: float, save_times=None):
    """Step counts (to t_end, to each save time) of a fixed-step run.

    Save times default to [t_end].  Every time must be a whole number of
    steps within [0, t_end], and two different times (0 among them) may not
    round to one step; the save steps come back sorted and unique.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")

    def steps(t):
        q = t / dt
        if not math.isfinite(q) or abs(q - round(q)) > 1e-6:
            raise ValueError(f"time {t!r} is not a whole number of steps dt={dt!r}")
        if t != 0 and round(q) == 0:
            raise ValueError(f"time {t!r} is not 0 but rounds to step 0 of dt={dt!r}")
        return int(round(q))

    n_end = steps(t_end)
    if n_end < 0:
        raise ValueError("t_end must be nonnegative")
    seen = {}  # step count -> the save time at it
    for t in [t_end] if save_times is None else save_times:
        k = steps(t)
        if seen.setdefault(k, t) != t:
            raise ValueError(f"save times {seen[k]!r} and {t!r} both round to step {k} of "
                             f"dt={dt!r}")
    saves = sorted(seen)
    if saves and (saves[0] < 0 or saves[-1] > n_end):
        raise ValueError("save times must lie within [0, t_end]")
    return n_end, saves


def rk4(rhs, dt: float):
    """The classical RK4 step of dt for dZ/dt = f(t, Z), as ``step(t, Z)`` -> (Z one step
    later, the first stage's extra).

    ``rhs(t, Z)`` returns (f(t, Z), extra), f a fresh float array (or Z itself): the stages
    are summed in place, in its memory, as (k1 + 2 k2) + 2 k3 + k4, then times dt/6, then
    plus Z.  Z is never written.
    """
    def step(t, Z):
        k1, extra = rhs(t, Z)
        k2, _ = rhs(t + 0.5 * dt, Z + 0.5 * dt * k1)
        k3, _ = rhs(t + 0.5 * dt, Z + 0.5 * dt * k2)
        k4, _ = rhs(t + dt, Z + dt * k3)
        np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)  # k1 + 2 k2 + 2 k3 + k4, in order
        np.add(np.add(k2, np.multiply(k3, 2.0, out=k3), out=k2), k4, out=k2)
        return np.add(Z, np.multiply(k2, dt / 6.0, out=k2), out=k2), extra

    return step


def march(step, Z: np.ndarray, dt: float, n_steps: int, saves=(), stop=None, record=None):
    """Fixed steps of dt by ``step(t, Z)`` -> (next state, extra), the one stepping loop.

    ``step`` is :func:`rk4` or a step that gives its bits (``StageWorkspace.rk4_step`` or
    ``linear_step``), so it writes no state it was given.  Keeps (k*dt, Z) after every step
    count k in ``saves`` (0 included), and passes every finite state reached, the last
    included, to ``record(t, Z, extra)`` with the extra of the step taken from it, for the
    last state of one more step.  Ends after ``n_steps`` ("completed"), after a step whose state
    satisfies ``stop(Z)`` ("stopped"), or at a step that leaves the reals ("non-finite";
    that state is dropped).  Returns (saved pairs, last finite Z, its t, outcome).
    """
    saved = [(0.0, Z)] if 0 in saves else []
    t, outcome = 0.0, "completed"
    # overflow in a step is reported through the outcome, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            Z_next, extra = step(t, Z)
            if record is not None:
                record(t, Z, extra)
            if not np.isfinite(Z_next).all():
                return saved, Z, t, "non-finite"
            Z, t = Z_next, (k + 1) * dt
            if k + 1 in saves:
                saved.append((t, Z))
            if stop is not None and stop(Z):
                outcome = "stopped"
                break
        if record is not None:
            record(t, Z, step(t, Z)[1])
    return saved, Z, t, outcome
