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
from typing import Callable, Literal

import numpy as np

from .quadrature import cumulative_integral

TWO_PI = 2.0 * math.pi

#: distance below which a target counts as sitting on a node
_JUMP_SNAP = 1e-12 * TWO_PI

#: crest height of the kernel, coth(pi); also the wave speed of the peaked wave
M = math.cosh(math.pi) / math.sinh(math.pi)

#: trough height of the kernel, csch(pi)
m = 1.0 / math.sinh(math.pi)

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


def phi_prime(x):
    """Kernel derivative; valid for any argument, the jump midpoint 0 at the corner."""
    r = reduce_angle(x)
    out = -np.sign(r) * m * np.sinh(math.pi - np.abs(r))
    return out if isinstance(r, np.ndarray) else float(out)


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
    c = phi_open_interval(ad)
    s = np.sign(d) * phi_prime_open_interval(ad)
    if which == "phi":
        return c, s, (M, M), (-1.0, 1.0)  # jump data for d -> 0+, d -> 0-
    if which == "phi_prime":  # second derivative equals phi away from the corner
        return s, c, (-1.0, 1.0), (M, M)
    raise ValueError(f"unknown kernel {which!r}")


def convolve_samples(which: Literal["phi", "phi_prime"], frame, x: float) -> float:
    """Corner-split quadrature of int_0^{2pi} K(x - y) w(y) dy on samples.

    ``frame`` is (y, w, wp): increasing positions y spanning [0, 2*pi], the
    density w and its derivative wp.  The panel holding the kernel corner
    y = x (mod 2*pi) is split there with one-sided kernel data.  Density data
    at the split is the node's own when the corner sits on a node, else the
    quadratic through the three nearest nodes, so the rule keeps its fourth
    order.  Each side is one :func:`.quadrature.cumulative_integral`.
    """
    y, w, wp = frame
    n_last = len(y) - 1
    xr = float(np.mod(x, TWO_PI))
    K, Kd, K_jump, Kd_jump = _kernel_arrays(which, xr - y)
    F = K * w
    Fp = -Kd * w + K * wp

    # nodes [:lo] lie below the corner and nodes [hi:] above it; x = 0 is the
    # corner on node 0, whose lower piece is empty
    idx = int(np.searchsorted(y, xr))
    j = next((j for j in (idx - 1, idx, idx + 1)
              if 0 <= j <= n_last and abs(y[j] - xr) < _JUMP_SNAP), None)
    if j is not None:
        lo, hi, y_x, w_x, wp_x = j, j + 1, y[j], w[j], wp[j]
    else:
        lo = hi = idx
        first = min(max(idx - 2, 0), n_last - 2)
        sl = slice(first, first + 3)
        y_x = xr
        w_x, wp_x = (_quadratic_at(y[sl], row[sl], xr) for row in (w, wp))
    (F_lo, Fp_lo), (F_hi, Fp_hi) = ((Kj * w_x, -Kdj * w_x + Kj * wp_x)
                                    for Kj, Kdj in zip(K_jump, Kd_jump))
    lower = cumulative_integral(*(np.append(row[:lo], v)
                                  for row, v in zip((y, F, Fp), (y_x, F_lo, Fp_lo))))
    upper = cumulative_integral(*(np.insert(row[hi:], 0, v)
                                  for row, v in zip((y, F, Fp), (y_x, F_hi, Fp_hi))))
    return float(lower[-1] + upper[-1])


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
    frame = (y, np.asarray(density(y), dtype=float), np.asarray(density_prime(y), dtype=float))
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
