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


@dataclass(frozen=True)
class DensitySample:
    """Finite perturbation samples on at least 3 increasing position nodes spanning [0, 2*pi].

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
        if not np.isfinite((nodes, v, vx)).all():
            raise ValueError("nodes, v, vx must be finite")
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


class StageWorkspace:
    """Every row of a nonlinear RK4 stage on the nodes s (34 n floats), every view it reads
    and the :class:`.quadrature.Grid` of s, built by whoever runs the stages (once per run in
    ``integrate_nonlinear``).  :func:`node_convolutions` fills its table and density rows (the
    sums it calls keep their own scratch), and ``nonlinear._rhs`` writes the derivative ``dZ``."""

    def __init__(self, s):
        self.grid = as_grid(s)
        n = len(self.grid.x)
        self.shifts = np.repeat([[0.0], [-math.pi], [math.pi]], n, axis=1)  # one per element
        self.args, table = np.empty((3, n)), np.empty((2, 3, n))  # args: X, X - pi, pi + X
        self.cosh, self.sinh = table  # of the args
        self.h, self.lo, self.hi = table.swapaxes(0, 1)  # (cosh, sinh) of X, X - pi, pi + X
        self.h_swap, self.lo_swap, self.hi_swap = self.h[::-1], self.lo[::-1], self.hi[::-1]
        (self.coshX, self.sinhX), density = self.h, np.empty((4, n))
        self.vv, self.half_uu, self.g, self.gp = density  # V^2, U^2/2, g = (V^2 + U^2/2) J, g'
        self.g_gp, parts = density[2:, None], np.empty((3, 2, n))  # cosh and sinh rows of
        (self.f, self.h_gp, self.df), self.f_h_gp = parts, parts[:2]  # h g, h g', (h g)'
        run = np.empty((2, 2, n))  # running integrals of f from below and from above each node
        self.low, self.high, self.low_end = run[0], run[1], run[0, :, -1:]
        (self.low_c, self.low_s), (self.high_c, self.high_s) = run
        self.dZ, local = np.empty((5, n)), np.empty((3, n))  # dZ: the stage derivative
        self.dZ_rows, self.phis, (self.ph, self.php, self.tmp) = tuple(self.dZ), local[:2], local


def node_convolutions(s, X: np.ndarray, V: np.ndarray, U: np.ndarray, J: np.ndarray):
    """Q[v] and P[v] at every characteristic node in O(n), as new arrays.

    Splitting the kernel's cosh/sinh of (X_i - X_j) by addition formulas
    turns both convolutions into running Hermite integrals of cosh(X) g and
    sinh(X) g, g = q J, over the characteristic parameter s: two rows of one
    :func:`.quadrature.cumulative_integral`, read from below and from above
    every node.  On a position grid (X = s, J = 1) this is algebraically the
    panel-split rule of :func:`conv_q`/:func:`conv_p`, at O(n) instead of
    O(n^2).  ``s`` is a :class:`StageWorkspace`, whose rows receive the temporaries
    (``nonlinear._rhs`` then reads the table ``h``, ``lo``, ``hi`` = (cosh, sinh) of X,
    X - pi, pi + X and ``vv`` = V^2, ``half_uu`` = U^2/2), or the nodes or their
    :class:`.quadrature.Grid`, for which a new workspace is built and dropped.
    """
    ws = s if isinstance(s, StageWorkspace) else StageWorkspace(s)
    np.add(X, ws.shifts, out=ws.args)
    np.cosh(ws.args, out=ws.cosh)
    np.sinh(ws.args, out=ws.sinh)
    np.multiply(V, V, out=ws.vv)
    np.multiply(np.multiply(U, 0.5, out=ws.half_uu), U, out=ws.half_uu)
    np.multiply(np.add(ws.vv, ws.half_uu, out=ws.g), J, out=ws.g)
    fd_derivative(ws.grid, ws.g, out=ws.gp)
    np.multiply(ws.h, ws.g_gp, out=ws.f_h_gp)  # h g and h g', h = (cosh, sinh) X
    np.add(np.multiply(np.multiply(ws.h_swap, J, out=ws.df), ws.g, out=ws.df), ws.h_gp, out=ws.df)
    cumulative_integral(ws.grid, ws.f, ws.df, out=ws.low)
    np.subtract(ws.low_end, ws.low, out=ws.high)
    # rows Q, P: (sinh, cosh)(X - pi) low_c - (cosh, sinh)(X - pi) low_s
    # + (sinh, cosh)(pi + X) high_c - (cosh, sinh)(pi + X) high_s
    QP = np.multiply(ws.lo_swap, ws.low_c)  # a new array: Q and P are returned
    QP -= np.multiply(ws.lo, ws.low_s, out=ws.f)
    QP += np.multiply(ws.hi_swap, ws.high_c, out=ws.f)
    QP -= np.multiply(ws.hi, ws.high_s, out=ws.f)
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
