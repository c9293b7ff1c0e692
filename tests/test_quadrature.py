"""Panel rule exactness and finite-difference derivative order."""

import math

import numpy as np
import pytest

from peakonlab.quadrature import (Grid, as_grid, cumulative_integral, fd_derivative,
                                  integrate_samples, panel_integrals)


def test_exact_for_cubics_with_derivatives():
    x = np.array([0.0, 0.3, 1.1, 2.0, 2.4, 4.0])
    f = x ** 3 - 2 * x ** 2 + x - 5
    fp = 3 * x ** 2 - 4 * x + 1
    exact = lambda t: t ** 4 / 4 - 2 * t ** 3 / 3 + t ** 2 / 2 - 5 * t
    assert cumulative_integral(x, f, fp)[-1] == pytest.approx(exact(4.0), abs=1e-12)


def test_fourth_order_on_smooth_data():
    errs = []
    for n in (16, 32, 64):
        x = np.linspace(0.0, 1.0, n + 1)
        val = integrate_samples(x, np.exp(x))
        errs.append(abs(val - (np.e - 1.0)))
    assert errs[0] / errs[1] > 10
    assert errs[1] / errs[2] > 10


def test_fd_derivative_second_order():
    for n, tol in ((50, 3e-3), (100, 8e-4)):
        x = np.linspace(0.0, 2.0, n)
        d = fd_derivative(x, np.sin(x))
        assert np.max(np.abs(d - np.cos(x))) < tol


def test_fd_derivative_nonuniform():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0, 1, 60))
    x[0], x[-1] = 0.0, 1.0
    d = fd_derivative(x, x ** 2)
    assert np.max(np.abs(d - 2 * x)) < 1e-12  # exact for quadratics


def test_cumulative_matches_total():
    x = np.linspace(0.0, 3.0, 120)
    f = np.cos(x)
    cum = cumulative_integral(x, f)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(integrate_samples(x, f), abs=1e-14)
    assert np.max(np.abs(cum - np.sin(x))) < 1e-8


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_samples(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        integrate_samples(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def _cosine_nodes(n):
    return np.pi * (1.0 - np.cos(np.linspace(0.0, np.pi, n)))


def test_grid_and_node_array_give_identical_bits():
    x = _cosine_nodes(97)
    f = np.exp(np.sin(3.0 * x)) * (1.0 + x)
    fp = np.cos(x) * x
    grid = Grid(x)
    assert np.array_equal(fd_derivative(grid, f), fd_derivative(x, f))
    for d in (None, fp):
        assert np.array_equal(cumulative_integral(grid, f, d), cumulative_integral(x, f, d))
    assert integrate_samples(grid, f) == integrate_samples(x, f)
    assert cumulative_integral(grid, f, fp)[-1] == cumulative_integral(x, f, fp)[-1]
    # two nodes: the plain trapezoid, no stencil needed
    assert np.array_equal(cumulative_integral(Grid(x[:2]), f[:2]), cumulative_integral(x[:2], f[:2]))


def test_cumulative_integral_sums_panels_left_to_right():
    # the running integral is np.cumsum of the panel integrals, bit for bit
    x = _cosine_nodes(129)
    grid = Grid(x)
    f = np.sinh(x) * np.cos(x)
    for d in (x * np.sin(x), None):
        full = fd_derivative(grid, f) if d is None else d
        got = cumulative_integral(grid, f, d)
        assert got[0] == 0.0
        assert np.array_equal(got[1:], np.cumsum(panel_integrals(grid, f, full)))


def test_node_arrays_get_a_new_grid_on_every_call():
    x = _cosine_nodes(33)
    f = np.sin(2.0 * x)
    grid = Grid(x)
    assert as_grid(grid) is grid and as_grid(x) is not as_grid(x)
    expected = fd_derivative(grid, f)
    assert np.array_equal(fd_derivative(x, f), expected)
    x[5] += 1e-3  # changed in place: the next call sees the new nodes
    assert np.array_equal(fd_derivative(x, f), fd_derivative(Grid(x.copy()), f))
    assert not np.array_equal(fd_derivative(x, f), expected)
    x[5] = x[4]
    with pytest.raises(ValueError, match="increasing"):
        fd_derivative(x, f)
    with pytest.raises(ValueError, match="increasing"):
        cumulative_integral(x, f)


def test_grid_validation():
    for bad in (np.array([]), np.zeros((2, 3)), np.array([0.0, 1.0, 1.0]),
                np.array([0.0, 2.0, 1.0])):
        with pytest.raises(ValueError):
            Grid(bad)
    # NaN compares false and inf - inf is NaN, so neither passes as increasing
    for bad in ([0.0, math.nan, 2.0], [0.0, math.inf, math.inf], [-math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            Grid(bad)
    with pytest.raises(ValueError, match="finite"):
        integrate_samples([0.0, math.nan, 1.0, 2.0], np.ones(4))
    with pytest.raises(ValueError, match="3 nodes"):
        fd_derivative(np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        integrate_samples(Grid(np.arange(4.0)), np.zeros(3))
    with pytest.raises(ValueError):
        integrate_samples(np.array([0.0]), np.zeros(1))
    # one node: an empty sum, as the corner-split rule's empty side needs
    assert np.array_equal(cumulative_integral(np.array([0.5]), np.array([2.0])), [0.0])
