"""Derivative-corrected trapezoid quadrature on arbitrary increasing node sets.

Every integral in this package (energy functionals, circle convolutions,
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

import numpy as np


def fd_derivative(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Three-point finite-difference derivative on a nonuniform grid.

    Interior nodes use the centered unequal-spacing stencil; the first and
    last node use the one-sided three-point stencil, so values beyond the
    array never enter (the ends may sit on corners of the integrand).
    """
    if len(x) < 3:
        raise ValueError("need at least 3 nodes for a derivative estimate")
    d = np.empty_like(f)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    d[1:-1] = (-h2 / (h1 * (h1 + h2)) * f[:-2]
               + (h2 - h1) / (h1 * h2) * f[1:-1]
               + h1 / (h2 * (h1 + h2)) * f[2:])
    h1, h2 = x[1] - x[0], x[2] - x[1]
    d[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * f[0]
            + (h1 + h2) / (h1 * h2) * f[1]
            - h1 / (h2 * (h1 + h2)) * f[2])
    h1, h2 = x[-2] - x[-3], x[-1] - x[-2]
    d[-1] = (h2 / (h1 * (h1 + h2)) * f[-3]
             - (h1 + h2) / (h1 * h2) * f[-2]
             + (2 * h2 + h1) / (h2 * (h1 + h2)) * f[-1])
    return d


def panel_integrals(dx: np.ndarray, fa: np.ndarray, fb: np.ndarray,
                    dfa: np.ndarray | None = None,
                    dfb: np.ndarray | None = None) -> np.ndarray:
    """Per-panel Hermite integrals; plain trapezoid when derivatives are None."""
    base = 0.5 * dx * (fa + fb)
    if dfa is None:
        return base
    return base + dx * dx / 12.0 * (dfa - dfb)


def integrate_samples(x: np.ndarray, f: np.ndarray,
                      derivative: np.ndarray | None = None) -> float:
    """Integrate samples f over the increasing nodes x by Hermite panels.

    A missing ``derivative`` array is replaced by :func:`fd_derivative`, which
    keeps the composite rule fourth order for smooth data and degrades
    gracefully to second order across interior corners.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.shape != f.shape or x.ndim != 1:
        raise ValueError("nodes and samples must be 1-d arrays of equal length")
    if len(x) < 2:
        raise ValueError("need at least 2 nodes")
    if np.any(np.diff(x) <= 0):
        raise ValueError("nodes must be strictly increasing")
    return float(cumulative_integral(x, f, derivative)[-1])


def cumulative_integral(x: np.ndarray, f: np.ndarray,
                        derivative: np.ndarray | None = None) -> np.ndarray:
    """Running integral from x[0] to every node, Hermite panels throughout.

    The one panel sum: :func:`integrate_samples`, the corner-split
    convolution rule and the O(n) convolutions read their integrals off it.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    dx = np.diff(x)
    if derivative is None and len(x) >= 3:
        derivative = fd_derivative(x, f)
    if derivative is not None:
        panels = panel_integrals(dx, f[:-1], f[1:], derivative[:-1], derivative[1:])
    else:
        panels = panel_integrals(dx, f[:-1], f[1:])
    out = np.empty(len(x))
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out
