"""Initial-condition closed forms against quadrature oracles."""

import math

import numpy as np
import pytest

from peakonlab.profiles import (BUMP_L2_SQ, BUMP_MEAN, BUMP_SLOPE_L2_SQ, InitialCondition,
                                bump, cosine, sine, steepest_budget_bump)
from peakonlab.quadrature import integrate_samples

TWO_PI = 2.0 * math.pi


def test_trig_evaluators():
    ic = InitialCondition(cosine_coeffs=(0.5, 0.0, -0.2), sine_coeffs=(1.0,))
    s = np.linspace(0.0, TWO_PI, 97)
    want = 0.5 * np.cos(s) - 0.2 * np.cos(3 * s) + np.sin(s)
    assert np.allclose(ic.value(s), want, atol=1e-15)
    want_p = -0.5 * np.sin(s) + 0.6 * np.sin(3 * s) + np.cos(s)
    assert np.allclose(ic.slope(s), want_p, atol=1e-15)
    want_pp = -0.5 * np.cos(s) + 1.8 * np.cos(3 * s) - np.sin(s)
    assert np.allclose(ic.second_derivative(s), want_pp, atol=1e-14)


def test_antiderivative_against_quadrature():
    ic = InitialCondition(cosine_coeffs=(0.3,), sine_coeffs=(0.0, 0.7),
                          bump_amplitude=0.4, constant=0.1)
    s_fine = np.linspace(0.0, TWO_PI, 4097)
    for s_stop in (0.7, 2.0, math.pi, 5.5, TWO_PI):
        grid = s_fine[s_fine <= s_stop]
        if grid[-1] != s_stop:
            grid = np.append(grid, s_stop)
        direct = integrate_samples(grid, np.asarray(ic.value(grid)))
        assert ic.antiderivative(s_stop) == pytest.approx(direct, abs=1e-9)


def test_tail_integral_complements_antiderivative():
    ic = InitialCondition(cosine_coeffs=(0.3,), sine_coeffs=(0.0, 0.7),
                          bump_amplitude=0.4, constant=0.1)
    s = np.linspace(0.0, TWO_PI, 97)
    total = ic.antiderivative(s) + ic.tail_integral(s)
    assert np.max(np.abs(total - TWO_PI * ic.vbar)) < 1e-13
    # exact at the far end, where sin(2*pi k) and 1 - cos(2*pi k) are not
    for prof in (ic, sine(), cosine(3), bump(-0.5)):
        assert prof.tail_integral(TWO_PI) == 0.0


def test_bump_shape_and_one_sided_slopes():
    ic = bump(2.0)
    assert ic.value(0.0) == 0.0
    assert ic.value(TWO_PI) == pytest.approx(0.0, abs=1e-15)
    assert ic.value(math.pi) == pytest.approx(2.0 * math.pi / 2.0, abs=1e-12)
    assert ic.v0_slope_right == pytest.approx(2.0)
    assert ic.v0_slope_left == pytest.approx(-2.0)
    # one-sided slopes at the peak differ by twice the amplitude
    assert ic.v0_slope_right - ic.v0_slope_left == pytest.approx(4.0)


def test_mean_closed_form_matches_quadrature():
    ic = InitialCondition(cosine_coeffs=(0.2,), sine_coeffs=(0.5, 0.1),
                          bump_amplitude=-1.3, constant=0.25)
    s = np.linspace(0.0, TWO_PI, 8193)
    quad_mean = integrate_samples(s, np.asarray(ic.value(s))) / TWO_PI
    assert ic.vbar == pytest.approx(quad_mean, abs=1e-10)
    assert ic.vbar == pytest.approx(0.25 - 1.3 * BUMP_MEAN, abs=1e-15)


def test_bump_norm_constants():
    s = np.linspace(0.0, TWO_PI, 8193)
    psi = bump(1.0)
    assert integrate_samples(s, np.asarray(psi.value(s)) ** 2) == pytest.approx(BUMP_L2_SQ, abs=1e-9)
    assert integrate_samples(s, np.asarray(psi.slope(s)) ** 2) == pytest.approx(BUMP_SLOPE_L2_SQ, abs=1e-9)


def test_h1_norm_of_sine():
    # ||sin||_{H1}^2 = int (sin^2 + cos^2) = 2*pi
    assert sine().h1_norm() == pytest.approx(math.sqrt(TWO_PI), abs=1e-10)


def test_peak_values():
    ic = InitialCondition(cosine_coeffs=(1.0, 0.5), sine_coeffs=(2.0,), constant=-0.3)
    assert ic.v0_at_0 == pytest.approx(1.2)
    assert ic.v0_slope_right == pytest.approx(2.0)
    assert sine().v0_at_0 == 0.0
    assert cosine().v0_at_0 == 1.0


def test_steepest_budget_bump_saturates_budget():
    delta = 0.01
    ic = steepest_budget_bump(delta)
    assert ic.bump_amplitude < 0.0
    total = ic.h1_norm() + abs(ic.v0_slope_right)
    assert total == pytest.approx(delta, rel=1e-6)
    # the most negative slope sits just right of the peak
    s = np.linspace(0.0, TWO_PI, 1001)
    assert np.min(ic.slope(s)) == pytest.approx(ic.v0_slope_right, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["cosine_coeffs", "sine_coeffs", "bump_amplitude", "constant"])
def test_non_finite_coefficients_are_refused(field, bad):
    value = (0.1, bad) if field.endswith("coeffs") else bad
    with pytest.raises(ValueError, match="finite"):
        InitialCondition(**{field: value})


@pytest.mark.parametrize("make", [sine, cosine])
def test_harmonic_index_must_be_at_least_one(make):
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            make(1.0, k)
    assert make(1.0, 2) == InitialCondition(**{f"{make.__name__}_coeffs": (0.0, 1.0)})


@pytest.mark.parametrize("budget", [0.0, -1.0, math.nan, math.inf])
def test_steepest_budget_bump_needs_a_finite_positive_budget(budget):
    # a negative budget would give a bump whose slope right of the peak is positive
    with pytest.raises(ValueError, match="budget"):
        steepest_budget_bump(budget)
