"""Derivative-corrected trapezoid quadrature on arbitrary increasing node sets.

Every integral in this package (energy functionals, kernel integrals,
identity checks) runs through the same panel rule

    int_a^b f  ~=  (b-a)/2 [f(a) + f(b)] + (b-a)^2/12 [f'(a) - f'(b)],

the two-point Hermite rule.  It is exact for cubics, so composite sums
converge at fourth order on any (possibly nonuniform) grid, while keeping the
locality of the trapezoid: one-sided function and derivative values at a
panel end are enough to integrate across corners and jumps exactly as
piecewise-smooth pieces.  When no derivative data is available it is
synthesized by three-point finite differences, which preserves the order.

Panel sums are accumulated left to right so repeated runs are bit-identical.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class Grid:
    """Finite increasing nodes with their panel weights and derivative stencil, each built once."""

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or len(x) == 0:
            raise ValueError("nodes must be a nonempty 1-d array")
        if not np.isfinite(x).all():  # before the differences: inf - inf would warn
            raise ValueError("nodes must be finite")
        self.x, self.dx = x, x[1:] - x[:-1]
        if len(x) > 1 and self.dx.min() <= 0:
            raise ValueError("nodes must be strictly increasing")
        self.panel = 0.5 * self.dx, self.dx * self.dx / 12.0  # weights of f, f' per panel

    @cached_property
    def stencil(self):
        """Weights (-w0, w1, w2) of f[k-1], f[k], f[k+1] at the interior nodes k, then
        the one-sided weights at the first and the last node; built on first use."""
        if len(self.dx) < 2:
            raise ValueError("need at least 3 nodes for a derivative estimate")
        h1, h2 = self.dx[:-1], self.dx[1:]
        h12 = h1 + h2
        interior = (h2 / (h1 * h12), (h2 - h1) / (h1 * h2), h1 / (h2 * h12))
        (h1, h2), (k1, k2) = self.dx[:2].tolist(), self.dx[-2:].tolist()
        h12, k12 = h1 + h2, k1 + k2
        first = (-(2 * h1 + h2) / (h1 * h12), h12 / (h1 * h2), -(h1 / (h2 * h12)))
        last = (k2 / (k1 * k12), -(k12 / (k1 * k2)), (2 * k2 + k1) / (k2 * k12))
        return interior, first, last


def as_grid(x) -> Grid:
    """x itself when it is a :class:`Grid`, else a new grid of the nodes x."""
    return x if isinstance(x, Grid) else Grid(x)


def fd_derivative(x, f: np.ndarray) -> np.ndarray:
    """Three-point finite-difference derivative of one row f on a nonuniform grid.

    Interior nodes use the centered unequal-spacing stencil; the first and last node
    use the one-sided three-point stencil, so values beyond the array never enter (the
    ends may sit on corners of the integrand).  ``x`` is the nodes or their :class:`Grid`.
    """
    grid = as_grid(x)
    (a, b, c), (a0, b0, c0), (a1, b1, c1) = grid.stencil
    d = np.empty_like(f)
    inner, tmp = d[1:-1], np.empty(f[2:].shape)
    np.multiply(f[1:-1], b, out=inner)
    inner -= np.multiply(f[:-2], a, out=tmp)
    inner += np.multiply(f[2:], c, out=tmp)
    d[0] = a0 * f[0] + b0 * f[1] + c0 * f[2]
    d[-1] = a1 * f[-3] + b1 * f[-2] + c1 * f[-1]
    return d


def panel_integrals(grid: Grid, f: np.ndarray, derivative: np.ndarray | None = None) -> np.ndarray:
    """Per-panel Hermite integrals of one row f; trapezoid without derivative."""
    half, dx2_12 = grid.panel
    out = np.add(f[:-1], f[1:])
    out *= half
    if derivative is not None:
        tmp = np.subtract(derivative[:-1], derivative[1:])
        out += np.multiply(tmp, dx2_12, out=tmp)
    return out


def integrate_samples(x, f: np.ndarray) -> float:
    """Integrate samples f over the increasing nodes x (or their :class:`Grid`).

    The derivative data come from :func:`fd_derivative`, which keeps the
    composite rule fourth order for smooth data and degrades gracefully to
    second order across interior corners.
    """
    grid = as_grid(x)
    f = np.asarray(f, dtype=float)
    if f.shape != grid.x.shape or len(f) < 2:
        raise ValueError("need samples at 2 or more nodes, one per node")
    return float(cumulative_integral(grid, f)[-1])


def cumulative_integral(x, f: np.ndarray, derivative: np.ndarray | None = None) -> np.ndarray:
    """Running integral of one row f from the first node to every node.

    ``x`` is the nodes or their :class:`Grid`.  The one panel sum in Python:
    :func:`integrate_samples` and the corner-split kernel rule read their
    integrals off it, and the nonlinear stage's C kernel repeats its operations.
    """
    grid = as_grid(x)
    f = np.asarray(f, dtype=float)
    if derivative is None and len(grid.x) >= 3:
        derivative = fd_derivative(grid, f)
    out = np.empty(f.shape)
    out[0] = 0.0
    np.add.accumulate(panel_integrals(grid, f, derivative), out=out[1:])
    return out
