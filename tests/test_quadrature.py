"""Panel rule exactness and finite-difference derivative order."""

import numpy as np
import pytest

from peakonlab.quadrature import cumulative_integral, fd_derivative, integrate_samples


def test_exact_for_cubics_with_derivatives():
    x = np.array([0.0, 0.3, 1.1, 2.0, 2.4, 4.0])
    f = x ** 3 - 2 * x ** 2 + x - 5
    fp = 3 * x ** 2 - 4 * x + 1
    exact = lambda t: t ** 4 / 4 - 2 * t ** 3 / 3 + t ** 2 / 2 - 5 * t
    assert integrate_samples(x, f, derivative=fp) == pytest.approx(exact(4.0), abs=1e-12)


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
