"""Periodic peaked-wave kernel on the 2*pi circle.

The kernel is the 2*pi-periodic solution of (1 - d^2/dx^2) phi = 2 delta_0,

    phi(x) = cosh(pi - |x|) / sinh(pi),   x in [-pi, pi],

a piecewise-C^1 wave profile with a single corner at x = 0.  Its peak and
trough heights

    M = phi(0) = coth(pi),   m = phi(+-pi) = csch(pi)

satisfy M^2 - m^2 = 1, and away from the corner (phi')^2 = phi^2 - m^2.
The peaked traveling wave moves with speed equal to its crest height, c = M,
and solves the stationary equation

    -M phi + phi^2/2 + (3/4) phi * phi^2 = m^2

(* is circle convolution), equivalently (3/4) phi*phi^2 + phi^2/2 = M phi + m^2.

All values come from the cosh/sinh closed form; nothing is tabulated.  The
one-sided slopes at the corner are phi'(0+) = -1 and phi'(0-) = +1; quadrature
code that needs a single value at the corner uses their average, 0, which is
the midpoint-of-jump convention under which trapezoid-type rules keep their
order for jump integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .quadrature import ordered_sum, panel_integrals

TWO_PI = 2.0 * math.pi

#: distance below which a target counts as sitting on a node
_JUMP_SNAP = 1e-12 * TWO_PI

#: crest height of the kernel, coth(pi); also the wave speed of the peaked wave
M = math.cosh(math.pi) / math.sinh(math.pi)

#: trough height of the kernel, csch(pi)
m = 1.0 / math.sinh(math.pi)

#: speed of the peaked traveling wave (the crest moves with the local flow)
WAVE_SPEED = M

Side = Literal["left", "right", "interior"]


@dataclass(frozen=True)
class GreenKernel:
    """Crest/trough constants of the periodic kernel.

    Invariants: M**2 - m**2 == 1 (hyperbolic identity), M = phi(0),
    m = phi(+-pi).
    """

    M: float
    m: float


KERNEL = GreenKernel(M=M, m=m)


def reduce_angle(x):
    """Reduce to the fundamental interval [-pi, pi].

    Uses x - 2*pi*rint(x / 2*pi), i.e. IEEE-style remainder with
    round-half-to-even, so the reduction is deterministic across platforms.
    """
    x = np.asarray(x, dtype=float)
    r = x - TWO_PI * np.rint(x / TWO_PI)
    return r if r.ndim else float(r)


def phi(x):
    """Kernel value; valid for any argument (reduces internally)."""
    r = np.abs(reduce_angle(x))
    out = m * np.cosh(math.pi - r)
    return out if isinstance(r, np.ndarray) else float(out)


def phi_prime(x, side: Side = "interior"):
    """Piecewise derivative of the kernel.

    ``side`` selects the one-sided limit when x is congruent to 0: 'right'
    gives -1, 'left' gives +1, 'interior' the jump midpoint 0.  Off the
    corner the three choices agree.
    """
    r = reduce_angle(x)
    scalar = not isinstance(r, np.ndarray) or r.ndim == 0
    r = np.atleast_1d(r)
    out = -np.sign(r) * m * np.sinh(math.pi - np.abs(r))
    at_peak = (r == 0.0)
    if side == "right":
        out = np.where(at_peak, -1.0, out)
    elif side == "left":
        out = np.where(at_peak, 1.0, out)
    return float(out[0]) if scalar else out


def phi_eval(x, side: Side = "interior"):
    """Return (phi(x), phi'(x)) with the requested corner convention."""
    return phi(x), phi_prime(x, side)


def phi_open_interval(y):
    """phi on the open parameterization (0, 2*pi): m*cosh(pi - y), no modulus."""
    return m * np.cosh(math.pi - np.asarray(y, dtype=float))


def phi_prime_open_interval(y):
    """phi' on (0, 2*pi); at the endpoints this is the correct one-sided limit."""
    return m * np.sinh(np.asarray(y, dtype=float) - math.pi)


def _quadratic_at(xs: np.ndarray, ys: np.ndarray, x: float) -> float:
    """Lagrange quadratic through three points, evaluated at x."""
    (x0, x1, x2), (y0, y1, y2) = xs, ys
    return (y0 * (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
            + y1 * (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
            + y2 * (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1)))


def _kernel_arrays(which: str, d: np.ndarray):
    """Kernel and its d-derivative on |d| <= 2*pi, corner handled by caller."""
    ad = np.abs(d)
    c = m * np.cosh(math.pi - ad)
    s = -np.sign(d) * m * np.sinh(math.pi - ad)
    if which == "phi":
        return c, s, (M, M), (-1.0, 1.0)  # jump data for d -> 0+, d -> 0-
    if which == "phi_prime":  # second derivative equals phi away from the corner
        return s, c, (-1.0, 1.0), (M, M)
    raise ValueError(f"unknown kernel {which!r}")


def convolve_samples(which: Literal["phi", "phi_prime"], frame, x: float) -> float:
    """Corner-split quadrature of int K(x - y(tau)) w(tau) dtau on samples.

    ``frame`` is (y, tau, w, wp, dpos): increasing positions y spanning
    [0, 2*pi], the integration variable tau at those nodes, the density w
    and its tau-derivative wp, and dy/dtau (ones when tau = y).  The panel
    holding the kernel corner y = x (mod 2*pi) is split there with one-sided
    kernel data; density data at the split comes from the quadratic through
    the three nearest nodes, so the rule keeps its fourth order.
    """
    y, tau, w, wp, dpos = frame
    n_last = len(y) - 1
    xr = float(np.mod(x, TWO_PI))
    d = xr - y
    K, Kd, K_jump, Kd_jump = _kernel_arrays(which, d)
    F = K * w
    Fp = -Kd * dpos * w + K * wp  # derivative in tau

    def piece(ts, fs, fps):
        dt = np.diff(ts)
        keep = dt > 0
        return ordered_sum(panel_integrals(dt[keep], fs[:-1][keep], fs[1:][keep],
                                           fps[:-1][keep], fps[1:][keep]))

    if xr == 0.0:
        # corner at both domain ends; interior formulas already give the
        # correct branch at y = 2*pi, only the y = 0 node needs the d->0- side
        F0 = K_jump[1] * w[0]
        Fp0 = -Kd_jump[1] * dpos[0] * w[0] + K_jump[1] * wp[0]
        fs = np.concatenate(([F0], F[1:]))
        fps = np.concatenate(([Fp0], Fp[1:]))
        return piece(tau, fs, fps)

    idx = int(np.searchsorted(y, xr))
    on_node = None
    for cand in (idx - 1, idx, idx + 1):
        if 0 <= cand <= n_last and abs(y[cand] - xr) < _JUMP_SNAP:
            on_node = cand
            break
    if on_node is not None:
        j = on_node
        F_lo = K_jump[0] * w[j]
        Fp_lo = -Kd_jump[0] * dpos[j] * w[j] + K_jump[0] * wp[j]
        F_hi = K_jump[1] * w[j]
        Fp_hi = -Kd_jump[1] * dpos[j] * w[j] + K_jump[1] * wp[j]
        lower = piece(tau[:j + 1],
                      np.concatenate((F[:j], [F_lo])),
                      np.concatenate((Fp[:j], [Fp_lo])))
        upper = piece(tau[j:],
                      np.concatenate(([F_hi], F[j + 1:])),
                      np.concatenate(([Fp_hi], Fp[j + 1:])))
        return lower + upper

    # split the panel containing the corner; density data at the split point
    # comes from the quadratic through the three nearest nodes
    k = idx - 1
    lo = min(max(k - 1, 0), n_last - 2)
    sl = slice(lo, lo + 3)
    w_x = _quadratic_at(y[sl], w[sl], xr)
    wp_x = _quadratic_at(y[sl], wp[sl], xr)
    dpos_x = _quadratic_at(y[sl], dpos[sl], xr)
    tau_x = _quadratic_at(y[sl], tau[sl], xr)
    F_lo = K_jump[0] * w_x
    Fp_lo = -Kd_jump[0] * dpos_x * w_x + K_jump[0] * wp_x
    F_hi = K_jump[1] * w_x
    Fp_hi = -Kd_jump[1] * dpos_x * w_x + K_jump[1] * wp_x
    lower = piece(np.concatenate((tau[:k + 1], [tau_x])),
                  np.concatenate((F[:k + 1], [F_lo])),
                  np.concatenate((Fp[:k + 1], [Fp_lo])))
    upper = piece(np.concatenate(([tau_x], tau[k + 1:])),
                  np.concatenate(([F_hi], F[k + 1:])),
                  np.concatenate(([Fp_hi], Fp[k + 1:])))
    return lower + upper


def circle_convolution(kernel: Literal["phi", "phi_prime"],
                       density: Callable[[np.ndarray], np.ndarray],
                       density_prime: Callable[[np.ndarray], np.ndarray],
                       x: float,
                       nodes: int) -> float:
    """Quadrature of int_0^{2pi} K(x - y) g(y) dy for an analytic density g.

    K is phi or its piecewise derivative.  g and g' are sampled on a uniform
    grid of ``nodes`` panels and integrated by :func:`convolve_samples`.
    ``density``/``density_prime`` must return the (0, 2*pi) branch values;
    at y = 0 and y = 2*pi that means the inward one-sided limits.
    """
    if nodes < 8:
        raise ValueError("nodes must be >= 8")
    y = np.linspace(0.0, TWO_PI, nodes + 1)
    frame = (y, y, np.asarray(density(y), dtype=float),
             np.asarray(density_prime(y), dtype=float), np.ones_like(y))
    return convolve_samples(kernel, frame, x)


def stationary_residual(x: float, quadrature_nodes: int = 4096) -> float:
    """Residual of the stationary peaked-wave equation at x.

    Evaluates |-M phi + phi^2/2 + (3/4)(phi * phi^2) - m^2| with the
    convolution done by :func:`circle_convolution`; tends to 0 as the node
    count grows.  x must not sit on the corner (x != 0 mod 2*pi).
    """
    if float(np.mod(x, TWO_PI)) == 0.0:
        raise ValueError("stationary equation holds piecewise away from the corner")
    if quadrature_nodes < 64:
        raise ValueError("quadrature_nodes must be >= 64")
    conv = circle_convolution(
        "phi",
        lambda y: phi_open_interval(y) ** 2,
        lambda y: 2.0 * phi_open_interval(y) * phi_prime_open_interval(y),
        x, quadrature_nodes)
    p = phi(x)
    return abs(-M * p + 0.5 * p * p + 0.75 * conv - m * m)
