"""Nonlinear characteristic dynamics: reduction limits, conservation, breaking."""

import math

import numpy as np
import pytest

from peakonlab import linear, nonlinear
from peakonlab.convolution import DensitySample, conv_q, q_density
from peakonlab.energetics import check_conserved, energies
from peakonlab.kernel import M, m, phi, phi_prime_open_interval
from peakonlab.nonlinear import (integrate_nonlinear, nl_rhs, peak_slope_forecast,
                                 reconstruct_u, riccati_bound, riccati_supersolution)
from peakonlab.profiles import InitialCondition, sine, steepest_budget_bump
from peakonlab.quadrature import integrate_samples
from peakonlab.state import initial_state

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------------ nl_rhs

def test_rhs_zero_state_reduces_to_wave_flow():
    st = initial_state(InitialCondition(), 128)
    d = nl_rhs(st)
    assert np.all(d.dV == 0.0) and np.all(d.dW == 0.0) and np.all(d.dU == 0.0)
    expect_dX = phi(st.s) - M
    expect_dX[0] = expect_dX[-1] = 0.0
    assert np.max(np.abs(d.dX - expect_dX)) < 1e-14
    assert np.max(np.abs(d.dJ - phi_prime_open_interval(st.s) * st.J)) < 1e-14


def test_rhs_peak_boundary_block():
    # sin alone has a q symmetric about pi, so Q(0) = 0; the mixed profile
    # moves the peak value (dV[0] = -0.02)
    for ic in (sine(0.2), InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,))):
        st = initial_state(ic, 256)
        d = nl_rhs(st)
        assert d.dX[0] == 0.0 and d.dX[-1] == 0.0
        assert abs(d.dW[0]) < 1e-15
        # peak value moves with minus the slope-kernel convolution at the peak,
        # against the O(n^2) oracle within the property test's 1e-10 int q
        sample = DensitySample(nodes=st.s, v=st.V, vx=st.U)
        tol = 1e-10 * integrate_samples(st.s, q_density(sample))
        assert abs(d.dV[0] + conv_q(sample, 0.0)[0]) <= tol
        # both peak-side characteristics see the same peak motion
        assert d.dV[0] == pytest.approx(d.dV[-1], abs=1e-12)


def test_rhs_quadratic_remainder_against_linearization():
    # the (V, W, U) components of the nonlinear vector field differ from the
    # linearized one at second order in the amplitude
    from peakonlab.linear import _linear_rhs

    gaps = []
    for amp in (0.2, 0.1, 0.05):
        ic = sine(amp)
        st = initial_state(ic, 256)
        d = nl_rhs(st)
        Z = np.stack([st.X, st.W, st.V, st.U, st.J])
        lin = _linear_rhs(Z, math.pi * m * m * ic.vbar)
        gap = max(np.max(np.abs(d.dW - lin[1])), np.max(np.abs(d.dV - lin[2])),
                  np.max(np.abs(d.dU - lin[3])))
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.2)
    assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.2)


# ------------------------------------------------------------ integration

def test_zero_profile_integrates_along_exact_characteristics():
    traj, report = integrate_nonlinear(InitialCondition(), 1.0, dt=1e-3,
                                       n_chars=128, save_times=[1.0])
    assert report.status == "completed"
    st = traj.states[-1]
    X, Xs, _ = linear.exact_characteristic(1.0, st.s)
    assert np.max(np.abs(st.X - X)) < 1e-8
    assert np.max(np.abs(st.J - Xs)) < 1e-8
    assert np.all(st.V == 0.0)


def test_small_amplitude_deviation_scales_quadratically():
    devs = []
    eps_list = (1e-2, 5e-3, 2.5e-3)
    for eps in eps_list:
        traj, _ = integrate_nonlinear(sine(eps), 1.0, dt=1e-3, n_chars=128,
                                      save_times=[1.0])
        st = traj.states[-1]
        lin = eps * np.asarray(linear.exact_v(1.0, st.s, sine()))
        devs.append(np.max(np.abs(st.V - lin)))
    # measured constant dev/eps^2 ~ 0.37 on this grid; regression-test it
    assert devs[0] / eps_list[0] ** 2 == pytest.approx(0.375, rel=0.1)
    for a, b in zip(devs, devs[1:]):
        assert math.log2(a / b) == pytest.approx(2.0, abs=0.2)


def test_state_invariants_and_jacobian_consistency():
    traj, _ = integrate_nonlinear(sine(0.05), 1.5, dt=1e-3, n_chars=256,
                                  save_times=[0.75, 1.5])
    for st in traj.states:
        st.validate(atol=1e-9)
        # J matches centered differences of X in s at second order
        dX = np.gradient(st.X, st.s, edge_order=2)
        interior = slice(2, -2)
        rel = np.abs(dX[interior] - st.J[interior]) / st.J[interior]
        assert np.max(rel) < 5e-4


def test_mean_conserved_nonlinearly():
    ic = InitialCondition(sine_coeffs=(0.05,), bump_amplitude=0.02)
    traj, _ = integrate_nonlinear(ic, 1.0, dt=1e-3, n_chars=256,
                                  save_times=[0.0, 0.5, 1.0])
    reports = [energies(st) for st in traj.states]
    drift = check_conserved(reports)["vbar"]["abs"]
    assert drift < 1e-6
    for st in traj.states:
        assert abs(st.W[-1] / TWO_PI - ic.vbar) < 1e-10


def test_rk4_self_convergence_order():
    # steps large enough that the dt^4 error rises above the rounding floor
    ic = sine(0.5)
    sols = {}
    for dt in (4e-2, 2e-2, 1e-2):
        traj, _ = integrate_nonlinear(ic, 1.0, dt=dt, n_chars=64, save_times=[1.0])
        sols[dt] = traj.states[-1].V
    e1 = np.max(np.abs(sols[4e-2] - sols[2e-2]))
    e2 = np.max(np.abs(sols[2e-2] - sols[1e-2]))
    assert e1 / e2 == pytest.approx(16.0, rel=0.35)


def test_energy_conservation_small_amplitude():
    traj, _ = integrate_nonlinear(sine(0.01), 2.0, dt=5e-4, n_chars=512,
                                  save_times=[0.0, 0.5, 1.0, 1.5, 2.0])
    reports = [energies(st) for st in traj.states]
    drifts = check_conserved(reports)
    assert drifts["E_u"]["rel"] < 1e-5
    assert drifts["F_u"]["rel"] < 1e-5
    assert drifts["combo_nonlinear"]["rel"] < 1e-5


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=0.0, n_chars=64)
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=4)
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=64, slope_threshold=-1.0)
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=64, save_times=[5.0])
    # a run must not report "completed" short of t_end
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_nonlinear(sine(), 1.0, dt=0.3, n_chars=64)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_nonlinear(sine(), 1.0, dt=0.25, n_chars=64, save_times=[0.3])


# ------------------------------------------------------- peak slope forecast

def test_peak_slope_forecast_zero_state():
    traj, _ = integrate_nonlinear(InitialCondition(), 0.5, dt=1e-3, n_chars=64,
                                  save_times=[0.5])
    res_r, res_l = peak_slope_forecast(0.0, 0.0, traj)
    assert res_r == 0.0 and res_l == 0.0
    # dU/dt = U - U^2/2 escapes from U(0) = -1e3 within t ~ 2e-3
    assert peak_slope_forecast(-1e3, 0.0, traj) == (math.inf, math.inf)


def test_peak_slope_forecast_small_sine():
    ic = sine(0.05)
    traj, _ = integrate_nonlinear(ic, 1.0, dt=1e-3, n_chars=256, save_times=[1.0])
    res_r, res_l = peak_slope_forecast(ic.v0_slope_right, ic.v0_slope_left, traj)
    assert res_r < 5e-3
    assert res_l < 5e-3


def test_peak_slope_scalar_system_reduces_to_linear_laws():
    # with the quadratic terms dropped the scalar system is the linear one;
    # for small data the full forecast stays near the linear slope laws
    eps = 1e-3
    ic = sine(eps)
    traj, _ = integrate_nonlinear(ic, 2.0, dt=1e-3, n_chars=128, save_times=[2.0])
    right, left = linear.peak_slopes_exact(2.0, ic)
    assert traj.diag_u_right[-1] == pytest.approx(right, rel=5e-3)
    # the left slope decays to ~eps*e^-t, so the quadratic remainder is
    # visible relative to it; compare at the eps^2 scale instead
    assert traj.diag_u_left[-1] == pytest.approx(left, abs=10 * eps ** 2)


# ------------------------------------------------------------------ riccati

def test_riccati_equilibrium_is_immortal():
    for forcing in (0.0, 0.1, 0.5):
        u_eq = 1.0 - math.sqrt(1.0 + 2.0 * forcing)  # negative equilibrium root
        assert riccati_bound(u_eq, forcing) == math.inf
        assert riccati_bound(u_eq + 1e-3, forcing) == math.inf
        assert riccati_bound(u_eq - 1e-3, forcing) < math.inf


def test_riccati_blowup_time_closed_form_vs_rk4():
    u0, forcing = -3.0, 0.0
    T = riccati_bound(u0, forcing)
    assert T == pytest.approx(math.log(5.0 / 3.0), rel=1e-12)
    # RK4 escape-time oracle
    u, t, dt = u0, 0.0, 1e-6
    while u > -1e9:
        f = lambda x: x - 0.5 * x * x + forcing
        k1 = f(u); k2 = f(u + dt / 2 * k1); k3 = f(u + dt / 2 * k2); k4 = f(u + dt * k3)
        u += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    assert t == pytest.approx(T, abs=1e-3)


def test_riccati_supersolution_closed_form():
    u0, forcing = -0.8, 0.1
    # stay away from the escape, where finite differences cannot follow
    t = np.linspace(0.0, 0.6 * riccati_bound(u0, forcing), 400)
    u = riccati_supersolution(u0, forcing, t)
    assert u[0] == pytest.approx(u0, abs=1e-12)
    du = np.gradient(u, t, edge_order=2)
    resid = du - (u - 0.5 * u * u + forcing)
    assert np.max(np.abs(resid[1:-1])) < 2e-4
    with pytest.raises(ValueError):
        riccati_bound(-1.0, -0.2)


def test_doubled_root_start_blows_up_no_later_than_bound():
    forcing = 0.1
    u0 = 2.0 * (1.0 - math.sqrt(1.0 + 2.0 * forcing))
    T = riccati_bound(u0, forcing)
    assert math.isfinite(T)
    u = riccati_supersolution(u0, forcing, np.array([0.99 * T]))
    assert u[0] < -50.0  # deep into the escape by the bound time


# ------------------------------------------------------------------ breaking

@pytest.fixture(scope="module")
def breaking_run():
    ic = steepest_budget_bump(0.01)
    traj, report = integrate_nonlinear(ic, 20.0, dt=5e-4, n_chars=256,
                                       save_times=[0.0])
    return ic, traj, report


def test_breaking_detected(breaking_run):
    _, traj, report = breaking_run
    assert report.status == "blew_up"
    assert report.max_abs_slope >= 1e6
    assert report.t_stop < 20.0
    # the slope passed 1 well before the threshold stop
    crossed = traj.diag_t[np.abs(traj.diag_u_right) >= 1.0]
    assert len(crossed) > 0 and crossed[0] < report.t_stop


def test_breaking_bounded_by_riccati_comparison(breaking_run):
    _, traj, report = breaking_run
    forcing = nonlinear.measured_forcing_bound(traj, report)
    bound = riccati_bound(traj.diag_u_right[0], forcing)
    assert math.isfinite(bound)
    assert report.t_stop <= bound + 5e-4
    # pointwise comparison: the supersolution dominates the measured slope
    mask = traj.diag_t < bound
    super_u = riccati_supersolution(traj.diag_u_right[0], forcing, traj.diag_t[mask])
    assert np.max(traj.diag_u_right[mask] - super_u) <= 1e-8


def test_forcing_bound_excludes_post_threshold_record(breaking_run):
    _, traj, report = breaking_run
    # the raw bracket at the stopping step is meaningless (overshoot state);
    # the resolved-phase bound must stay at the small-perturbation scale
    bound = nonlinear.measured_forcing_bound(traj, report)
    assert bound < 1e-3


def test_nonfinite_stop_reports_unbounded_slope():
    # with the threshold out of reach the fixed-step scheme eventually
    # leaves the reals; the report still flags breaking, with infinite slope
    ic = steepest_budget_bump(0.2)
    traj, report = integrate_nonlinear(ic, 20.0, dt=5e-3, n_chars=32,
                                       slope_threshold=1e300, save_times=[0.0])
    assert report.status == "blew_up"
    assert report.max_abs_slope == math.inf
    assert report.t_stop < 20.0
    assert np.all(np.isfinite(traj.diag_u_right))


# -------------------------------------------------------------- reconstruct

def test_reconstruct_zero_perturbation_gives_wave():
    st = initial_state(InitialCondition(), 256)
    x = np.linspace(0.0, TWO_PI, 301)
    u, rate = reconstruct_u(st, x)
    assert np.max(np.abs(u - phi(x))) < 1e-12
    assert rate == 0.0


def test_reconstruct_peak_location_and_speed():
    # the crest stays on the s = 0 characteristic and the crest of the pure
    # wave moves with speed u(peak) = M
    traj, _ = integrate_nonlinear(sine(0.05), 1.0, dt=1e-3, n_chars=256,
                                  save_times=[1.0])
    st = traj.states[-1]
    x = np.linspace(0.0, TWO_PI, 2001)
    u, rate = reconstruct_u(st, x)
    peak_x = x[np.argmax(u)]
    assert min(peak_x, TWO_PI - peak_x) < 0.01
    assert rate == pytest.approx(st.v_peak)
    u0, rate0 = reconstruct_u(initial_state(InitialCondition(), 64),
                              np.array([0.0]))
    assert u0[0] + rate0 == pytest.approx(M)  # background speed plus zero drift
    with pytest.raises(ValueError):
        reconstruct_u(st, np.array([-1.0]))
