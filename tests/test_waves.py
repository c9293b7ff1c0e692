"""Traveling-wave classification and the explicit peaked family."""

import math

import numpy as np
import pytest

from peakonlab.kernel import M, m, phi
from peakonlab.waves import (ClassificationError, classify, first_order_residual,
                             peaked_member)


def test_classify_zero_constant_is_peaked():
    fam = classify(0.0, M)
    assert fam.family == "peaked"
    assert fam.critical_points == (0.0,)


def test_classify_positive_constant_is_cusped():
    # the bracket [-min(a/c^2, a^(1/3)), 0] holds from a tiny a, where
    # r ~ -a/c^2, to a huge one or a tiny c, where r ~ -a^(1/3) and a/c^2
    # may overflow
    for a, c in ((0.1, 1.0), (2000.0, 1.0), (1e6, 1.0), (1e12, 0.5), (1e-20, 1.0),
                 (1.0, 1e-170)):
        fam = classify(a, c)
        assert fam.family == "cusped"
        assert len(fam.critical_points) == 1
        r = fam.critical_points[0]
        assert r < 0.0
        assert abs(r * (c - r) ** 2 + a) <= 1e-14 * a


def test_classify_negative_constant_is_smooth_candidate():
    fam = classify(-0.01, 1.0)
    assert fam.family == "smooth_candidate"
    p1, p2, p3 = fam.critical_points
    assert p1 < p2 < 1.0 < p3
    # cubic-root oracle: same points from the polynomial companion matrix
    # phi (c - phi)^2 + a = phi^3 - 2 c phi^2 + c^2 phi + a
    roots = np.sort(np.roots([1.0, -2.0, 1.0, -0.01]))
    assert np.allclose(sorted(fam.critical_points), roots, atol=1e-9)


def test_classify_tiny_negative_constant_keeps_relative_accuracy():
    # p1 ~ -a/c^2 must keep its sign and relative accuracy, and p2, p3 ~
    # c -/+ sqrt(-a/c) must stay apart from the singular level
    c = 1.0
    for a in (-1e-16, -1e-19):
        fam = classify(a, c)
        assert fam.family == "smooth_candidate"
        p1, p2, p3 = fam.critical_points
        assert p1 > 0.0
        assert abs(p1 - (-a / c ** 2)) <= 1e-14 * (-a / c ** 2)
        gap = math.sqrt(-a / c)
        assert abs((c - p2) - gap) <= 1e-5 * gap
        assert abs((p3 - c) - gap) <= 1e-5 * gap


def test_classify_rejects_non_finite_parameters():
    for a, c in ((math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                 (-0.01, math.nan), (0.1, math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError):
            classify(a, c)


def test_classify_respects_sign_trichotomy_randomized():
    rng = np.random.default_rng(100)
    for _ in range(100):
        c = rng.uniform(0.2, 3.0)
        fold = 4.0 * c ** 3 / 27.0
        kind = rng.integers(0, 3)
        if kind == 0:
            fam = classify(0.0, c)
            assert fam.family == "peaked"
        elif kind == 1:
            a = rng.uniform(0.05, 3.0) * fold
            fam = classify(a, c)
            assert fam.family == "cusped" and len(fam.critical_points) == 1
        else:
            a = -rng.uniform(0.05, 0.95) * fold
            fam = classify(a, c)
            assert fam.family == "smooth_candidate"
            p1, p2, p3 = fam.critical_points
            assert p1 < p2 < c < p3
            # critical points really are roots
            for p in fam.critical_points:
                assert abs(p * (c - p) ** 2 + a) < 1e-9 * max(1.0, c ** 3)


def test_degenerate_fold_is_flagged_not_misclassified():
    c = 1.0
    with pytest.raises(ClassificationError):
        classify(-4.0 / 27.0, c)  # exactly on the fold: double root
    with pytest.raises(ClassificationError):
        classify(-1.0, c)  # beyond the fold: no smooth family
    with pytest.raises(ClassificationError):
        classify(-1e-40, c)  # p2 and p3 = c -/+ 1e-20 round onto the singular level
    with pytest.raises(ClassificationError, match="overflow"):
        classify(-1.0, 1e103)  # the fold 4c^3/27 overflows a float
    with pytest.raises(ClassificationError, match="overflow"):
        classify(1.0, 1e155)  # (c - p)^2 overflows inside the bisection
    with pytest.raises(ValueError):
        classify(0.1, -1.0)


def test_peaked_member_recovers_kernel_profile():
    profile, c, b = peaked_member(m)
    assert c == pytest.approx(M, abs=1e-15)
    assert b == pytest.approx(-m * m, abs=1e-18)
    x = np.linspace(-math.pi, math.pi, 101)
    assert np.max(np.abs(profile(x) - phi(x))) < 1e-12


def test_peaked_member_scaling_family():
    profile, c, b = peaked_member(2.0 * m)
    x = np.linspace(-math.pi, math.pi, 101)
    assert np.max(np.abs(profile(x) - 2.0 * phi(x))) < 1e-12
    assert c == pytest.approx(2.0 * M, rel=1e-15)
    with pytest.raises(ValueError):
        peaked_member(-1.0)


def test_first_order_residual_analytic_derivative():
    profile, c, b = peaked_member(m)
    assert first_order_residual(profile, 0.0, b, c, 1.0) < 1e-8


def test_first_order_residual_offset_is_exact():
    profile, c, b = peaked_member(0.7)
    wrong_b = b + 0.125
    res = first_order_residual(profile, 0.0, wrong_b, c, 2.0)
    assert res == pytest.approx(0.125, abs=1e-10)


def test_first_order_residual_rejects_singular_level():
    profile, c, b = peaked_member(m)
    with pytest.raises(ValueError):
        first_order_residual(profile, 0.0, b, c, 0.0)  # crest sits at phi = c


def test_second_order_form_away_from_peak():
    # (c - phi)^2 (phi'' - phi) = a with a = 0 for the peaked family
    profile, c, _ = peaked_member(m)
    h = 1e-4
    for x in (0.5, 1.5, 2.5, -2.0):
        ddp = (profile(x + h) - 2.0 * profile(x) + profile(x - h)) / (h * h)
        resid = (c - profile(x)) ** 2 * (ddp - profile(x))
        assert abs(resid) < 1e-3
