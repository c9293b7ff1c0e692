"""Energy functionals: closed-form baselines, expansions, and drift checks."""

import math

import mpmath
import numpy as np
import pytest

from peakonlab.energetics import E_PHI, F_PHI, EnergyReport, check_conserved, energies
from peakonlab.kernel import M
from peakonlab.linear import integrate_linear
from peakonlab.profiles import InitialCondition, sine
from peakonlab.quadrature import integrate_samples
from peakonlab.state import initial_state

TWO_PI = 2.0 * math.pi


def test_wave_energy_constants_against_high_precision_quadrature():
    # independent oracle: 50-digit quadrature of the defining integrals
    mpmath.mp.dps = 50
    mm = 1 / mpmath.sinh(mpmath.pi)

    def integrand_E(x):
        return (mm * mpmath.cosh(mpmath.pi - x)) ** 2 + (mm * mpmath.sinh(mpmath.pi - x)) ** 2

    def integrand_F(x):
        return mm * mpmath.cosh(mpmath.pi - x) * integrand_E(x)

    E_ref = mpmath.quad(integrand_E, [0, 2 * mpmath.pi])
    F_ref = mpmath.quad(integrand_F, [0, 2 * mpmath.pi])
    assert E_PHI == pytest.approx(float(E_ref), rel=1e-14)
    assert F_PHI == pytest.approx(float(F_ref), rel=1e-14)
    # and the simplification E(phi) = 2M
    assert E_PHI == pytest.approx(2.0 * M, rel=1e-15)


def test_zero_perturbation_reports_wave_energies():
    rep = energies(initial_state(InitialCondition(), 1024))
    assert rep.E_v == 0.0 and rep.F_v == 0.0 and rep.P == 0.0 and rep.S == 0.0
    assert rep.E_u == pytest.approx(E_PHI, abs=5e-9)
    assert rep.F_u == pytest.approx(F_PHI, abs=5e-9)
    assert rep.vbar_measured == pytest.approx(0.0, abs=1e-15)


def test_sine_perturbation_energies_closed_form():
    # E(sin) = 2*pi; P = int phi (1/2 + sin^2/2) = 1 + (1 - cos-coefficient)/2
    # with int phi cos(2x) = 2/5: P = 1.4 exactly
    rep = energies(initial_state(sine(), 2048))
    assert rep.E_v == pytest.approx(TWO_PI, rel=1e-10)
    assert rep.P == pytest.approx(1.4, rel=1e-9)
    assert rep.E_v >= 0.0 and rep.P > 0.0


def _report(E_v, P=0.3, E_u=E_PHI + 1.0, F_v=0.2) -> EnergyReport:
    return EnergyReport(t=0.0, E_v=E_v, F_v=F_v, P=P, S=0.0, E_u=E_u, F_u=0.0,
                        v_peak=0.0, vbar_measured=0.0)


def test_combo_nonlinear_is_inf_once_the_square_overflows():
    # a Python float ** raises OverflowError past about 1.3e154; the combination is inf
    assert _report(1e200).combo_nonlinear == math.inf


def test_combo_nonlinear_keeps_the_power_formula_bitwise():
    # E_v ** 2 and E_v * E_v can differ in the last bit; the summary prints the former
    rows = np.random.default_rng(11).standard_normal((200, 4)) * [1e3, 10.0, 10.0, 1e2]
    for E_v, P, E_u, F_v in rows.tolist():  # Python floats, as energies() reports them
        expected = 2.0 * P - M * E_v - 0.25 * (E_u - E_PHI) * E_v + 0.125 * E_v ** 2 + F_v
        assert _report(E_v, P, E_u, F_v).combo_nonlinear == expected


def test_full_energy_expansion_identity():
    # E(u) = E(phi) + 4 v|peak + E(v) for any state (here: t = 0 states)
    for ic in (sine(0.5), InitialCondition(cosine_coeffs=(0.4,), bump_amplitude=0.2)):
        rep = energies(initial_state(ic, 2048))
        gap = rep.E_u - E_PHI - 4.0 * rep.v_peak - rep.E_v
        assert abs(gap) < 1e-8


def test_expansion_identity_holds_along_evolution():
    ic = sine(0.3)
    traj = integrate_linear(ic, 1.0, dt=1e-3, n_chars=512, save_times=[0.5, 1.0])
    for st in traj.states:
        rep = energies(st)
        gap = rep.E_u - E_PHI - 4.0 * rep.v_peak - rep.E_v
        assert abs(gap) < 1e-7  # quadrature tolerance on the deformed grid


def test_check_conserved_constant_series():
    rep = energies(initial_state(sine(), 256))
    drifts = check_conserved([rep, rep, rep])
    assert all(v["abs"] == 0.0 for v in drifts.values())


def test_check_conserved_keeps_a_nan_sample():
    # a report past resolution (E_u = nan) makes every drift that reads it nan, not a
    # finite maximum over the other samples
    drifts = check_conserved([_report(1.0), _report(1.5), _report(2.0, E_u=math.nan)])
    for key in ("combo_nonlinear", "E_u"):
        assert math.isnan(drifts[key]["abs"]) and math.isnan(drifts[key]["rel"])
    assert drifts["combo_linear"]["abs"] == abs(_report(2.0).combo_linear - _report(1.0).combo_linear)
    assert drifts["F_u"] == {"abs": 0.0, "rel": 0.0}


def test_check_conserved_reports_relative_and_absolute():
    ic = sine()
    traj = integrate_linear(ic, 1.0, dt=1e-3, n_chars=512, save_times=[0.0, 0.5, 1.0])
    reports = [energies(st) for st in traj.states]
    drifts = check_conserved(reports)
    assert drifts["combo_linear"]["rel"] < 1e-6
    assert drifts["v_peak"]["abs"] < 1e-10
    assert drifts["vbar"]["abs"] < 1e-8
    with pytest.raises(ValueError):
        check_conserved([])


def test_energies_match_integrals_on_the_node_array():
    # energies builds one grid for its integrals; the values keep every bit
    st = initial_state(sine(0.3), 256)
    rep = energies(st)
    V, U, J = st.V, st.U, st.J
    assert rep.E_v == integrate_samples(st.s, (V * V + U * U) * J)
    assert rep.vbar_measured == integrate_samples(st.s, V * J) / (2.0 * math.pi)
