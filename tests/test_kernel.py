"""Kernel closed forms, corner conventions, and the stationary equation."""

import math

import numpy as np
import pytest

from peakonlab import kernel
from peakonlab.kernel import M, m


def test_constants_hyperbolic_identity():
    assert abs(M * M - m * m - 1.0) < 1e-12


def test_peak_and_trough_values():
    assert kernel.phi(0.0) == pytest.approx(1.0 / math.tanh(math.pi), abs=1e-15)
    assert kernel.phi_prime(0.0) == 0.0
    assert kernel.phi(math.pi) == pytest.approx(m, abs=1e-15)
    assert kernel.phi_prime(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert kernel.phi(-math.pi) == pytest.approx(m, abs=1e-15)


def test_derivative_squared_identity():
    # (phi')^2 = phi^2 - m^2 away from the corner
    rng = np.random.default_rng(7)
    x = rng.uniform(-math.pi, math.pi, 200)
    x = x[np.abs(x) > 1e-6]
    val, der = kernel.phi(x), kernel.phi_prime(x)
    assert np.max(np.abs(der ** 2 - (val ** 2 - m * m))) < 1e-14


def test_evenness_and_periodicity():
    rng = np.random.default_rng(11)
    x = rng.uniform(-math.pi, math.pi, 100)
    v1, d1 = kernel.phi(x), kernel.phi_prime(x)
    v2, d2 = kernel.phi(-x), kernel.phi_prime(-x)
    assert np.allclose(v1, v2, atol=1e-15)
    assert np.allclose(d1, -d2, atol=1e-15)
    v3, d3 = kernel.phi(x + 4 * math.pi), kernel.phi_prime(x + 4 * math.pi)
    assert np.allclose(v1, v3, atol=1e-12)
    assert np.allclose(d1, d3, atol=1e-12)


def test_monotone_decrease_on_half_period():
    x = np.linspace(1e-3, math.pi, 500)
    vals = kernel.phi(x)
    assert np.all(np.diff(vals) < 0)


def test_reduce_angle_half_even():
    assert kernel.reduce_angle(2 * math.pi) == 0.0
    assert kernel.reduce_angle(3 * math.pi) == pytest.approx(-math.pi)
    assert abs(kernel.reduce_angle(7 * math.pi + 0.1) - (-math.pi + 0.1)) < 1e-12


def test_stationary_residual_quadrature():
    for x in (math.pi, 0.5):
        assert kernel.stationary_residual(x, 4096) < 1e-8


def test_stationary_residual_converges():
    errs = [kernel.stationary_residual(0.8, n) for n in (64, 128, 256)]
    assert errs[1] < errs[0] / 3
    assert errs[2] < errs[1] / 3


def test_stationary_residual_closed_form_convolution():
    # replacing the quadrature with the explicitly integrated convolution
    # (m^2/3)[3 + 4 cosh(pi) cosh(pi-x) - cosh(2pi-2x)] cancels exactly
    for x in (0.5, 1.7, math.pi, 5.0):
        conv = m * m / 3.0 * (3.0 + 4.0 * math.cosh(math.pi) * math.cosh(math.pi - x)
                              - math.cosh(2.0 * math.pi - 2.0 * x))
        p = kernel.phi(x)
        resid = abs(-M * p + 0.5 * p * p + 0.75 * conv - m * m)
        assert resid < 5e-15


def test_stationary_residual_rejects_corner():
    with pytest.raises(ValueError):
        kernel.stationary_residual(0.0, 4096)
    with pytest.raises(ValueError):
        kernel.stationary_residual(math.pi, 32)


def test_convolution_with_unit_density():
    # int_T phi = 2: the kernel integrates to twice the delta mass
    val = kernel.circle_convolution(
        "phi", lambda y: np.ones_like(y), lambda y: np.zeros_like(y), 1.0, 4096)
    assert abs(val - 2.0) < 1e-10
    # and the derivative kernel has zero mean
    val = kernel.circle_convolution(
        "phi_prime", lambda y: np.ones_like(y), lambda y: np.zeros_like(y), 2.5, 4096)
    assert abs(val) < 1e-10
