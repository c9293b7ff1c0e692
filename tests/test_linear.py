"""Closed-form linearized solutions against the ODE integrator and growth laws."""

import math

import numpy as np
import pytest


from peakonlab import linear, state
from peakonlab.convolution import StageWorkspace
from peakonlab.energetics import energies
from peakonlab.kernel import M, m
from peakonlab.linear import (IntegrationError, exact_characteristic, exact_state, exact_u,
                              exact_v, exact_w, h1_constants, integrate_linear,
                              peak_slopes_exact)
from peakonlab.profiles import InitialCondition, bump, cosine, sine
from peakonlab.state import cosine_grid

TWO_PI = 2.0 * math.pi

MIXED = InitialCondition(cosine_coeffs=(0.2, 0.1), sine_coeffs=(0.3,), bump_amplitude=0.15)


# ------------------------------------------------------- exact characteristic

def test_characteristic_endpoint_limits():
    for t in (0.25, 1.0, 3.0, 10.0):
        X, Xs, _ = exact_characteristic(t, np.array([0.0, TWO_PI]))
        assert X[0] == pytest.approx(0.0, abs=1e-12)
        assert X[1] == pytest.approx(TWO_PI, abs=1e-12)
        assert Xs[0] == pytest.approx(math.exp(-t), rel=1e-12)
        assert Xs[1] == pytest.approx(math.exp(t), rel=1e-12)


def test_characteristic_initial_time():
    s = cosine_grid(65)
    X, Xs, Y = exact_characteristic(0.0, s)
    assert np.allclose(X, s, atol=1e-13)
    assert np.allclose(Xs, 1.0, atol=1e-13)
    assert np.allclose(Y, 0.0, atol=1e-13)


def test_characteristic_stretch_positive_and_monotone():
    s = np.linspace(0.0, TWO_PI, 301)
    for t in (0.5, 2.0, 8.0):
        X, Xs, _ = exact_characteristic(t, s)
        assert np.all(Xs > 0)
        assert np.all(np.diff(X) > 0)


def test_stretch_matches_derivative_of_position():
    s = np.linspace(0.1, TWO_PI - 0.1, 41)
    h = 1e-6
    for t in (0.7, 2.5):
        _, Xs, _ = exact_characteristic(t, s)
        Xp, _, _ = exact_characteristic(t, s + h)
        Xm, _, _ = exact_characteristic(t, s - h)
        assert np.max(np.abs((Xp - Xm) / (2 * h) - Xs)) < 1e-7


def test_y_is_log_derivative_of_stretch():
    s = np.linspace(0.3, TWO_PI - 0.3, 31)
    h = 1e-6
    for t in (0.9, 3.1):
        _, Xs, Y = exact_characteristic(t, s)
        _, Xsp, _ = exact_characteristic(t, s + h)
        _, Xsm, _ = exact_characteristic(t, s - h)
        assert np.max(np.abs((np.log(Xsp) - np.log(Xsm)) / (2 * h) - Y)) < 1e-6


# ------------------------------------------------------------- exact fields

def test_w_endpoint_values():
    for ic in (sine(), cosine(), MIXED):
        for t in (0.5, 2.0, 7.0, 40.0):
            assert exact_w(t, 0.0, ic) == pytest.approx(0.0, abs=1e-12)
            assert exact_w(t, TWO_PI, ic) == pytest.approx(TWO_PI * ic.vbar, abs=1e-10)


def test_v_peak_value_conserved():
    for ic in (sine(), cosine(), MIXED):
        for t in (0.5, 4.0, 40.0):
            assert exact_v(t, 0.0, ic) == pytest.approx(ic.v0_at_0, abs=1e-10)
            assert exact_v(t, TWO_PI, ic) == pytest.approx(ic.v0_at_0, abs=1e-9)


def test_v_initial_time_is_profile():
    s = cosine_grid(129)
    for ic in (sine(), MIXED):
        assert np.max(np.abs(exact_v(0.0, s, ic) - ic.value(s))) < 1e-12


def test_exact_u_matches_peak_slope_laws():
    for ic in (sine(), cosine(), MIXED):
        for t in (0.5, 1.0, 3.0, 40.0):
            right, left = peak_slopes_exact(t, ic)
            assert exact_u(t, 0.0, ic) == pytest.approx(right, rel=1e-11)
            assert exact_u(t, TWO_PI, ic) == pytest.approx(left, rel=1e-9)


def test_exact_u_left_slope_decays_without_endpoint_rounding():
    # the left slope decays like e^{-t}; at t = 40 it is ~4e-18, so any
    # O(eps) remainder of sin(2*pi k) in the initial data would swamp it
    for ic in (sine(), sine(0.3, 3)):
        left = peak_slopes_exact(40.0, ic)[1]
        assert exact_u(40.0, TWO_PI, ic) == pytest.approx(left, rel=1e-12, abs=0)


def test_peak_slope_law_examples():
    # sine start: pure exponentials on the two sides
    for t in (1.0, 2.0, 3.0):
        right, left = peak_slopes_exact(t, sine())
        assert right == pytest.approx(math.exp(t), rel=1e-13)
        assert left == pytest.approx(math.exp(-t), rel=1e-13)
    # cosine start: driven growth M(e^t - 1)
    for t in (1.0, 2.0):
        right, left = peak_slopes_exact(t, cosine())
        assert right == pytest.approx(M * math.expm1(t), rel=1e-13)
        assert left == pytest.approx(M * (-math.expm1(-t)), rel=1e-13)
    # zero time returns the one-sided initial slopes
    ic = MIXED
    right, left = peak_slopes_exact(0.0, ic)
    assert right == ic.v0_slope_right
    assert left == ic.v0_slope_left


def test_exact_u_by_differencing_v():
    # U = (dV/ds) / (dX/ds) away from the ends
    ic = MIXED
    s = np.linspace(0.5, TWO_PI - 0.5, 21)
    h = 1e-6
    for t in (0.8, 2.0):
        _, Xs, _ = exact_characteristic(t, s)
        dv = (np.asarray(exact_v(t, s + h, ic)) - np.asarray(exact_v(t, s - h, ic))) / (2 * h)
        assert np.max(np.abs(dv / Xs - np.asarray(exact_u(t, s, ic)))) < 1e-6


# ------------------------------------------------------------ ODE cross-check

@pytest.mark.parametrize("ic", [sine(), cosine()], ids=["sin", "cos"])
def test_integrator_matches_closed_form(ic):
    traj = integrate_linear(ic, 1.0, dt=1e-3, n_chars=256, save_times=[1.0])
    st = traj.states[-1]
    assert np.max(np.abs(st.V - exact_v(1.0, st.s, ic))) < 1e-6
    assert np.max(np.abs(st.W - exact_w(1.0, st.s, ic))) < 1e-6
    X, _, _ = exact_characteristic(1.0, st.s)
    assert np.max(np.abs(st.X - X)) < 1e-6


def test_integrator_zero_profile_rides_characteristics():
    traj = integrate_linear(InitialCondition(), 1.5, dt=1e-3, n_chars=64, save_times=[1.5])
    st = traj.states[-1]
    X, Xs, _ = exact_characteristic(1.5, st.s)
    assert np.max(np.abs(st.X - X)) < 1e-8
    assert np.max(np.abs(st.J - Xs)) < 1e-8
    assert np.all(st.V == 0.0) and np.all(st.W == 0.0) and np.all(st.U == 0.0)


def test_integrator_conserves_peak_and_mean():
    # the cosine run is long enough for e^t to expose an inexact W(2*pi) seed
    runs = [(sine(), 2.0, 2e-3, 64, [0.5, 1.0, 2.0]),
            (MIXED, 2.0, 2e-3, 64, [0.5, 1.0, 2.0]),
            (cosine(), 30.0, 1e-2, 16, [30.0])]
    for ic, t_end, dt, n_chars, save_times in runs:
        traj = integrate_linear(ic, t_end, dt=dt, n_chars=n_chars, save_times=save_times)
        for st in traj.states:
            assert abs(st.V[0] - ic.v0_at_0) < 1e-8
            assert abs(st.W[-1] / TWO_PI - ic.vbar) < 1e-8
            assert np.all(st.J > 0)
            st.validate()


def test_integrator_slope_at_peak_tracks_law():
    traj = integrate_linear(cosine(), 3.0, dt=1e-3, n_chars=64,
                            save_times=[1.0, 2.0, 3.0])
    for st in traj.states:
        right, left = peak_slopes_exact(st.t, cosine())
        assert st.U[0] == pytest.approx(right, rel=1e-9)
        assert st.U[-1] == pytest.approx(left, rel=1e-9)


def test_exact_state_assembles_consistently():
    st = exact_state(1.2, MIXED, 128)
    st.validate(atol=1e-9)
    assert st.v_peak == pytest.approx(MIXED.v0_at_0, abs=1e-10)
    # the state's fields are the pointwise closed forms on its grid, bit for bit
    s = cosine_grid(128)
    for t in (0.0, 1.0, 1.2, 40.0):
        st = exact_state(t, MIXED, 128)
        pointwise = (*exact_characteristic(t, s)[:2], exact_v(t, s, MIXED),
                     exact_u(t, s, MIXED), exact_w(t, s, MIXED))
        for field, want in zip((st.X, st.J, st.V, st.U, st.W), pointwise):
            assert field.dtype == want.dtype and field.tobytes() == want.tobytes()
        scalars = (*exact_characteristic(t, s[5]), exact_v(t, s[5], MIXED),
                   exact_u(t, s[5], MIXED), exact_w(t, s[5], MIXED))
        assert all(type(x) is float for x in scalars)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("closed_form", [
    lambda t: exact_characteristic(t, 1.0),
    lambda t: exact_v(t, 1.0, sine()),
    lambda t: exact_u(t, np.array([0.0, 1.0]), sine()),
    lambda t: exact_w(t, 1.0, sine()),
    lambda t: exact_state(t, sine(), 32),
    lambda t: peak_slopes_exact(t, sine()),
], ids=["characteristic", "v", "u", "w", "state", "peak_slopes"])
def test_closed_forms_reject_negative_or_nan_time(closed_form, t):
    with pytest.raises(ValueError, match="nonnegative"):
        closed_form(t)


def test_save_time_validation():
    with pytest.raises(ValueError):
        integrate_linear(sine(), 1.0, dt=1e-2, n_chars=32, save_times=[2.0])
    with pytest.raises(ValueError):
        integrate_linear(sine(), 1.0, dt=-1e-2, n_chars=32)
    with pytest.raises(ValueError):
        integrate_linear(sine(), 1.0, dt=1e-2, n_chars=4)
    with pytest.raises(ValueError, match="t_end must be nonnegative"):
        integrate_linear(sine(), -1.0, dt=0.5)
    # times that are not whole steps are rejected, not snapped
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_linear(sine(), 1.0, dt=0.3, n_chars=32)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_linear(sine(), 1.0, dt=0.25, n_chars=32, save_times=[0.3, 1.0])


def test_save_times_are_not_merged_or_snapped_to_step_zero():
    # a time other than 0 within the whole-step tolerance of 0 steps, and two times within it
    # of one count, used to become t=0 and one save; both are refused
    for t_end, dt, save_times in ((1.0, 1e7, [0.5, 1.0]), (1e-10, 1e-3, None),
                                  (1.0, 1e-3, [-1e-10, 1.0])):
        with pytest.raises(ValueError, match="rounds to step 0"):
            state.save_steps(t_end, dt, save_times)
    with pytest.raises(ValueError, match="both round to step 1000"):
        state.save_steps(1.0000000001, 1e-3, [0.0, 1.0, 1.0000000001])
    with pytest.raises(ValueError, match="both round to step 1000"):
        integrate_linear(sine(), 1.0000000001, dt=1e-3, n_chars=32, save_times=[0.0, 1.0,
                                                                               1.0000000001])
    # one time given twice is one save, and a time within the tolerance of its count is kept
    assert state.save_steps(1.0, 0.25, [1.0, 0.5, 1.0, 0.0]) == (4, [0, 2, 4])
    assert state.save_steps(0.30000000000000004, 0.1) == (3, [3])


def test_one_compiled_call_per_linear_rk4_stage(monkeypatch):
    # four calls of the compiled stage per step, no stage after the last step and no
    # _linear_rhs
    calls, rhs_calls, init, rhs = [], [], StageWorkspace.__init__, linear._linear_rhs

    def counted_init(self, *args):
        init(self, *args)
        stage = self.rk4_stage
        self.rk4_stage = lambda *a: calls.append(1) or stage(*a)

    monkeypatch.setattr(StageWorkspace, "__init__", counted_init)
    monkeypatch.setattr(linear, "_linear_rhs", lambda *a: rhs_calls.append(1) or rhs(*a))
    integrate_linear(sine(), 0.05, dt=1e-2, n_chars=32, save_times=[0.0, 0.02, 0.05])
    assert len(calls) == 4 * 5 and not rhs_calls


def test_compiled_linear_step_matches_the_numpy_rk4_step_bitwise():
    # warped states at n = 16 to 4096, and one whose slope U ~ 1e308 overflows the step
    big = exact_state(1.3, MIXED, 257)
    overflowing = big.stack()
    overflowing[3] *= 1e308 / np.max(np.abs(overflowing[3]))
    cases = [(st.s, st.stack(), st.vbar) for st in
             (exact_state(t, MIXED, n) for t, n in ((1.9, 16), (0.7, 129), (1.3, 512),
                                                   (2.5, 1024), (1.3, 4096)))]
    cases.append((big.s, overflowing, big.vbar))
    for s, Z, vbar in cases:
        ws, pmv = StageWorkspace(s), math.pi * m * m * vbar
        rhs = lambda t, Z: (linear._linear_rhs(Z, pmv), None)
        for dt in (1e-2, 5e-4):
            kept = Z.copy()
            with np.errstate(all="ignore"):
                got, extra = ws.linear_step(pmv, dt)(0.0, Z)
                want, _ = state.rk4(rhs, dt)(0.0, Z)
            assert np.array_equal(got, want, equal_nan=True) and extra is None
            assert np.array_equal(Z, kept)
    assert not np.isfinite(got).all()  # the overflow case
    with pytest.raises(ValueError):
        ws.linear_step(pmv, dt)(0.0, Z[:4])


def test_integrate_linear_matches_a_march_over_the_numpy_step(monkeypatch):
    # a completed run and one that leaves the reals, each against the same run whose march
    # steps by state.rk4 over _linear_rhs
    def runs():
        completed = integrate_linear(MIXED, 0.05, dt=1e-2, n_chars=64,
                                     save_times=[0.0, 0.02, 0.05])
        with pytest.raises(IntegrationError) as exc:
            integrate_linear(cosine(), 800.0, dt=0.5, n_chars=16)
        return completed, exc.value

    compiled, compiled_error = runs()
    monkeypatch.setattr(StageWorkspace, "linear_step", lambda ws, pmv, dt: state.rk4(
        lambda t, Z: (linear._linear_rhs(Z, pmv), None), dt))
    numpy_run, numpy_error = runs()
    assert len(compiled.states) == len(numpy_run.states) == 3
    for a, b in zip(compiled.states, numpy_run.states):
        assert a.t == b.t and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in "XVWUJ")
    assert str(compiled_error) == str(numpy_error)
    assert compiled_error.last_valid_time == numpy_error.last_valid_time == 708.0


def test_non_finite_state_raises_integration_error():
    # steps of 0.5 are far outside RK4's stability region for the e^t end;
    # the state overflows near t = 708 (e^708 ~ 1.8e307)
    dt = 0.5
    with pytest.raises(IntegrationError) as exc:
        integrate_linear(cosine(), 800.0, dt=dt, n_chars=16)
    t_last = exc.value.last_valid_time
    assert 700.0 < t_last < 710.0
    assert t_last / dt == round(t_last / dt)


# ------------------------------------------------------------- growth laws

def test_h1_forecast_consistent_at_zero():
    for ic in (sine(), MIXED):
        consts = h1_constants(ic, 512)
        assert consts.energy(0.0) == pytest.approx(consts.E0, rel=1e-12)


def test_h1_forecast_matches_measured_energy():
    ic = cosine()
    consts = h1_constants(ic, 1024)
    traj = integrate_linear(ic, 2.0, dt=1e-3, n_chars=1024,
                            save_times=[0.5, 1.0, 1.5, 2.0])
    for st in traj.states:
        measured = energies(st).E_v
        assert measured == pytest.approx(consts.energy(st.t), rel=1e-3)


def test_linear_combination_constant_along_run():
    ic = MIXED
    traj = integrate_linear(ic, 2.0, dt=1e-3, n_chars=1024,
                            save_times=[0.0, 0.5, 1.0, 1.5, 2.0])
    combos = [energies(st).combo_linear for st in traj.states]
    drift = max(abs(c - combos[0]) for c in combos)
    assert drift / abs(combos[0]) < 1e-6


def test_p_s_system_dynamics():
    # dP/dt ~ -M S and S(t) fits S+ e^t + S- e^-t with the forecast constants
    ic = MIXED
    consts = h1_constants(ic, 1024)
    dt_s = 0.05
    times = [0.8 - dt_s, 0.8, 0.8 + dt_s]
    traj = integrate_linear(ic, 1.0, dt=1e-3, n_chars=1024, save_times=times)
    reps = [energies(st) for st in traj.states]
    dP = (reps[2].P - reps[0].P) / (2 * dt_s)
    assert dP == pytest.approx(-M * reps[1].S, rel=3e-3)
    for rep, t in zip(reps, times):
        assert rep.S == pytest.approx(consts.S(t), rel=1e-3)
        assert rep.P == pytest.approx(consts.P(t), rel=1e-3)


def test_growing_energy_mode_never_has_negative_coefficient():
    # E(t) = -2 S+ e^t + 2 S- e^-t + C0 is a squared norm, so positivity at
    # t -> +-inf forces S+ <= 0 <= S-: the growing coefficient can vanish
    # but never flip sign, and exponential H^1 growth is generic.  (In
    # particular no bump tuning of a nontrivial profile reaches S+ = 0;
    # the boundary is attained only by data without a growing mode.)
    rng = np.random.default_rng(17)
    for _ in range(25):
        ic = InitialCondition(
            cosine_coeffs=tuple(rng.uniform(-1, 1, 3)),
            sine_coeffs=tuple(rng.uniform(-1, 1, 3)),
            bump_amplitude=rng.uniform(-1, 1),
            constant=rng.uniform(-0.5, 0.5))
        consts = h1_constants(ic, 512)
        assert consts.S_plus <= 1e-10
        assert consts.S_minus >= -1e-10


def test_least_growing_bump_tuning_matches_forecast():
    # the bump amplitude maximizing S+ (least-growing member of the family)
    # still has S+ < 0; the measured energy follows the forecast there too
    from scipy.optimize import minimize_scalar

    def neg_s_plus(beta: float) -> float:
        ic = InitialCondition(cosine_coeffs=(1.0,), bump_amplitude=beta)
        return -h1_constants(ic, 512).S_plus

    res = minimize_scalar(neg_s_plus, bounds=(-2.0, 2.0), method="bounded")
    beta0 = res.x
    ic = InitialCondition(cosine_coeffs=(1.0,), bump_amplitude=beta0)
    consts = h1_constants(ic, 512)
    assert consts.S_plus < 0.0
    traj = integrate_linear(ic, 2.0, dt=1e-3, n_chars=512,
                            save_times=[0.0, 1.0, 2.0])
    for st in traj.states:
        assert energies(st).E_v == pytest.approx(consts.energy(st.t), rel=1e-3)


def test_l_infinity_boundedness_profile():
    # the sup of |V| over a long horizon stays essentially level
    s = cosine_grid(1500)
    for ic in (sine(), cosine()):
        early = max(np.max(np.abs(exact_v(t, s, ic))) for t in np.linspace(0.0, 10.0, 101))
        late = max(np.max(np.abs(exact_v(t, s, ic))) for t in np.linspace(10.0, 20.0, 101))
        assert late < early * 1.01
