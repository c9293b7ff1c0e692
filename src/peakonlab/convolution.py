"""Nonlocal circle convolutions against the peaked kernel and its derivative.

The transport form of the wave equation couples the local flow to two
half-convolutions of the perturbation density

    q[v] = v^2 + (1/2) v_x^2,
    Q[v](x) = (1/2) int_T phi'(x - y) q[v](y) dy,
    P[v](x) = (1/2) int_T phi(x - y)  q[v](y) dy.

Q has zero circle mean (so the perturbation mean is conserved) and is the
x-derivative of P.  The O(n^2) oracle :func:`conv_q`/:func:`conv_p` takes
samples on position nodes covering [0, 2*pi] and integrates in position.
The integrator's O(n) path :func:`node_convolutions` works in the
characteristic parameter with weight J = dX/ds, which keeps steepening
fronts resolved where X compresses.

Quadrature is the derivative-corrected trapezoid of :mod:`.quadrature`;
the panel containing the kernel corner is split there with one-sided kernel
values (:func:`.kernel.convolve_samples`), so the piecewise-smooth
integrands are integrated piecewise.  Panel sums run left to right for
bit-reproducible results.

For the identity that eliminates the convolutions from the linearized flow,
see :func:`reduction_identity_gap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .kernel import TWO_PI, m
from .quadrature import as_grid, cumulative_integral, fd_derivative

_SHIFTS = np.array([[0.0], [-math.pi], [math.pi]])  # the hyperbolic arguments X + shift

@dataclass(frozen=True)
class DensitySample:
    """Perturbation samples on at least 3 increasing position nodes spanning [0, 2*pi].

    The first and last node coincide on the circle, which is how one-sided
    slope data at the peak is carried.
    """

    nodes: np.ndarray
    v: np.ndarray
    vx: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        v = np.asarray(self.v, dtype=float)
        vx = np.asarray(self.vx, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "vx", vx)
        if not (nodes.shape == v.shape == vx.shape) or nodes.ndim != 1:
            raise ValueError("nodes, v, vx must be 1-d arrays of one length")
        if len(nodes) < 3:
            raise ValueError("need at least 3 nodes")
        if abs(nodes[0]) > 1e-12 or abs(nodes[-1] - TWO_PI) > 1e-9:
            raise ValueError("nodes must span [0, 2*pi]")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")


def q_density(sample: DensitySample) -> np.ndarray:
    """Pointwise density v^2 + v_x^2/2; nonnegative by construction."""
    return sample.v ** 2 + 0.5 * sample.vx ** 2


def _half_convolution(which: str, sample: DensitySample, targets) -> np.ndarray:
    if targets is None:
        targets = sample.nodes
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if targets.size == 0:
        raise ValueError("targets must be nonempty")
    q = q_density(sample)
    frame = (sample.nodes, q, fd_derivative(sample.nodes, q))
    return np.array([0.5 * kernel.convolve_samples(which, frame, x) for x in targets])


def conv_q(sample: DensitySample, targets=None) -> np.ndarray:
    """Q[v] at the target positions (the sample's own nodes by default)."""
    return _half_convolution("phi_prime", sample, targets)


def conv_p(sample: DensitySample, targets=None) -> np.ndarray:
    """P[v] at the target positions (the sample's own nodes by default)."""
    return _half_convolution("phi", sample, targets)


def node_convolutions(s, X: np.ndarray, V: np.ndarray, U: np.ndarray, J: np.ndarray):
    """Q[v] and P[v] at every characteristic node in O(n), as new arrays.

    Splitting the kernel's cosh/sinh of (X_i - X_j) by addition formulas
    turns both convolutions into running Hermite integrals of cosh(X) g and
    sinh(X) g, g = q J, over the characteristic parameter s: two rows of one
    :func:`.quadrature.cumulative_integral`, read from below and from above
    every node.  On a position grid (X = s, J = 1) this is algebraically the
    panel-split rule of :func:`conv_q`/:func:`conv_p`, at O(n) instead of
    O(n^2).  The nonlinear integrator calls it every stage with s as its
    :class:`.quadrature.Grid`.  Its temporaries are buffers of that grid; the
    caller may read "hyperbolics", cosh (row 0) and sinh (row 1) of the rows
    (X, X - pi, pi + X), and "density", whose rows 0 and 1 are V^2 and U^2/2.
    """
    grid = as_grid(s)
    args, hyp = grid.buffer("hyperbolic_args", (3,)), grid.buffer("hyperbolics", (2, 3))
    np.add(X, _SHIFTS, out=args)  # X, X - pi, pi + X
    np.cosh(args, out=hyp[0])
    np.sinh(args, out=hyp[1])
    density = vv, half_uu, g, gp = grid.buffer("density", (4,))  # V^2, U^2/2, g = q J, g'
    np.multiply(V, V, out=vv)
    np.multiply(np.multiply(U, 0.5, out=half_uu), U, out=half_uu)
    np.multiply(np.add(vv, half_uu, out=g), J, out=g)
    fd_derivative(grid, g, out=gp)
    h, lo, hi = hyp.swapaxes(0, 1)  # (cosh, sinh) of X, X - pi, pi + X; [::-1] swaps them
    f, h_gp, df = parts = grid.buffer("integrand", (3, 2))
    np.multiply(h, density[2:, None], out=parts[:2])  # h g and h g'
    np.add(np.multiply(np.multiply(h[::-1], J, out=df), g, out=df), h_gp, out=df)
    run = grid.buffer("running", (2, 2))  # integrals from below and from above, cosh and sinh rows
    cumulative_integral(grid, f, df, out=run[0])
    (low_c, low_s), (high_c, high_s) = run[0], np.subtract(run[0, :, -1:], run[0], out=run[1])
    # rows Q, P: (sinh, cosh)(X - pi) low_c - (cosh, sinh)(X - pi) low_s
    # + (sinh, cosh)(pi + X) high_c - (cosh, sinh)(pi + X) high_s
    QP = np.multiply(lo[::-1], low_c)  # a new array: Q and P are returned
    QP -= np.multiply(lo, low_s, out=f)
    QP += np.multiply(hi[::-1], high_c, out=f)
    QP -= np.multiply(hi, high_s, out=f)
    QP *= 0.5 * m
    return QP[0], QP[1]


def reduction_identity_gap(profile, x: float, nodes: int = 4096) -> float:
    """Residual of the identity that removes convolutions from the linear flow.

    For a periodic profile v the combination

        [v(0) - v(x)] phi'(x) - (phi' * phi v)(x) - (1/2)(phi' * phi' v_x)(x)

    collapses to  phi(x) w0(x) - (1/2) m^2 sinh(x) * (2*pi vbar)  with
    w0(x) = int_0^x v.  Left side by kernel quadrature, right side in closed
    form from the profile; returns |left - right|, which tends to 0 with the
    node count.  x is reduced to [-pi, pi] (sinh is not periodic).
    """
    xr = float(kernel.reduce_angle(x))
    phiv = lambda y: kernel.phi_open_interval(y) * profile.value(y)
    phiv_p = lambda y: (kernel.phi_prime_open_interval(y) * profile.value(y)
                        + kernel.phi_open_interval(y) * profile.slope(y))
    phipvx = lambda y: kernel.phi_prime_open_interval(y) * profile.slope(y)
    phipvx_p = lambda y: (kernel.phi_open_interval(y) * profile.slope(y)
                          + kernel.phi_prime_open_interval(y) * profile.second_derivative(y))
    conv1 = kernel.circle_convolution("phi_prime", phiv, phiv_p, xr, nodes)
    conv2 = kernel.circle_convolution("phi_prime", phipvx, phipvx_p, xr, nodes)
    v0 = profile.value(0.0)
    vx_val = profile.value(np.mod(xr, TWO_PI))
    left = (v0 - vx_val) * kernel.phi_prime(xr) - conv1 - 0.5 * conv2

    w0 = profile.antiderivative(np.mod(xr, TWO_PI))
    if xr < 0.0:
        w0 -= TWO_PI * profile.vbar
    right = kernel.phi(xr) * w0 - 0.5 * m * m * math.sinh(xr) * TWO_PI * profile.vbar
    return abs(left - right)
