"""Nonlinear characteristic dynamics: reduction limits, conservation, breaking."""

import gc
import math
import weakref

import numpy as np
import pytest

from peakonlab import linear, nonlinear, state
from peakonlab.convolution import (DensitySample, StageWorkspace, conv_q, node_convolutions,
                                   q_density)
from peakonlab.energetics import check_conserved, energies
from peakonlab.kernel import M, m, phi, phi_open_interval, phi_prime_open_interval
from peakonlab.nonlinear import (integrate_nonlinear, nl_rhs, reconstruct_u, riccati_bound,
                                 riccati_supersolution)
from peakonlab.profiles import InitialCondition, bump, sine, steepest_budget_bump
from peakonlab.quadrature import Grid, cumulative_integral, fd_derivative, integrate_samples
from peakonlab.state import cosine_grid, initial_state

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


def test_rhs_local_terms_match_the_linearized_field_bitwise():
    # with V = U = 0 every nonlinear term vanishes, so the stage's own copy of the
    # local terms must give the linearized field bit for bit
    from peakonlab.linear import _linear_rhs

    ic = InitialCondition(cosine_coeffs=(0.3, 0.1), sine_coeffs=(0.2,), constant=0.1)
    pmv = math.pi * m * m * ic.vbar
    assert pmv != 0.0
    for t in (0.0, 0.7, 3.0):
        st = linear.exact_state(t, ic, 129)
        Z = np.stack([st.X, st.W, np.zeros_like(st.V), np.zeros_like(st.U), st.J])
        assert np.array_equal(nonlinear._rhs(StageWorkspace(st.s), Z, pmv)[0], _linear_rhs(Z, pmv))


# ------------------------------------------------------------ integration

def test_zero_profile_integrates_along_exact_characteristics():
    traj = integrate_nonlinear(InitialCondition(), 1.0, dt=1e-3,
                               n_chars=128, save_times=[1.0])
    assert traj.status == "completed"
    st = traj.states[-1]
    X, Xs, _ = linear.exact_characteristic(1.0, st.s)
    assert np.max(np.abs(st.X - X)) < 1e-8
    assert np.max(np.abs(st.J - Xs)) < 1e-8
    assert np.all(st.V == 0.0)


def test_small_amplitude_deviation_scales_quadratically():
    devs = []
    eps_list = (1e-2, 5e-3, 2.5e-3)
    for eps in eps_list:
        traj = integrate_nonlinear(sine(eps), 1.0, dt=1e-3, n_chars=128,
                                   save_times=[1.0])
        st = traj.states[-1]
        lin = eps * np.asarray(linear.exact_v(1.0, st.s, sine()))
        devs.append(np.max(np.abs(st.V - lin)))
    # measured constant dev/eps^2 ~ 0.37 on this grid; regression-test it
    assert devs[0] / eps_list[0] ** 2 == pytest.approx(0.375, rel=0.1)
    for a, b in zip(devs, devs[1:]):
        assert math.log2(a / b) == pytest.approx(2.0, abs=0.2)


def test_state_invariants_and_jacobian_consistency():
    traj = integrate_nonlinear(sine(0.05), 1.5, dt=1e-3, n_chars=256,
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
    traj = integrate_nonlinear(ic, 1.0, dt=1e-3, n_chars=256,
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
        traj = integrate_nonlinear(ic, 1.0, dt=dt, n_chars=64, save_times=[1.0])
        sols[dt] = traj.states[-1].V
    e1 = np.max(np.abs(sols[4e-2] - sols[2e-2]))
    e2 = np.max(np.abs(sols[2e-2] - sols[1e-2]))
    assert e1 / e2 == pytest.approx(16.0, rel=0.35)


def test_one_compiled_call_per_rk4_stage(monkeypatch):
    # four calls of the compiled stage per step, plus the final record's one more step, and
    # no _rhs, for a completed and a stopped run
    calls, rhs_calls, init, rhs = [], [], StageWorkspace.__init__, nonlinear._rhs

    def counted_init(self, *args):
        init(self, *args)
        stage = self.rk4_stage
        self.rk4_stage = lambda *a: calls.append(1) or stage(*a)

    monkeypatch.setattr(StageWorkspace, "__init__", counted_init)
    monkeypatch.setattr(nonlinear, "_rhs", lambda *a: rhs_calls.append(1) or rhs(*a))
    run = integrate_nonlinear(sine(0.01), 0.05, dt=1e-2, n_chars=32)
    assert run.status == "completed" and len(calls) == 4 * (5 + 1) and not rhs_calls
    calls.clear(), rhs_calls.clear()
    run = integrate_nonlinear(bump(-0.5), 6.0, dt=1e-2, n_chars=32)
    steps = round(run.t_stop / 1e-2)
    assert run.status == "blew_up" and 0 < steps < 600
    assert len(calls) == 4 * (steps + 1) and not rhs_calls


def test_compiled_step_matches_the_numpy_rk4_step_bitwise():
    # state.rk4 over the NumPy _reference_stage, on the warped states at n = 16, 129, 512 and
    # 4096, one with a nonzero mean, which pins the order of the pmv terms, and one whose
    # slope U ~ 1e200 overflows every stage
    ic = InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,))
    mean = InitialCondition((0.3, 0.1), (0.2,), constant=0.1)
    big = linear.exact_state(1.3, ic, 257)
    overflowing = big.stack()
    overflowing[3] *= 1e200 / np.max(np.abs(overflowing[3]))
    cases = [(st.s, st.stack(), st.vbar) for st in _warped_states()]
    cases += [(st.s, st.stack(), st.vbar) for st in (linear.exact_state(1.3, ic, 4096),
                                                      linear.exact_state(1.9, ic, 16),
                                                      linear.exact_state(0.7, mean, 129))]
    assert cases[-1][2] != 0.0
    cases.append((big.s, overflowing, big.vbar))
    for s, Z, vbar in cases:
        ws, pmv = StageWorkspace(s), math.pi * m * m * vbar
        rhs = _reference_rhs(s, pmv)
        for dt in (1e-2, 5e-4):
            kept = Z.copy()
            with np.errstate(all="ignore"):
                got, p0 = ws.rk4_step(pmv, dt)(0.0, Z)
                want, want_p0 = state.rk4(rhs, dt)(0.0, Z)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(p0, want_p0, equal_nan=True)
            assert np.array_equal(Z, kept)
    assert not np.isfinite(got).all()  # the overflow case
    with pytest.raises(ValueError):
        ws.rk4_step(pmv, dt)(0.0, Z[:4])


def test_integrate_nonlinear_matches_a_march_over_the_numpy_step(monkeypatch):
    # completed, stopped and non-finite runs, each against the same run whose march steps
    # by state.rk4 over the NumPy _reference_stage
    dt = 1e-2
    runs = [(sine(0.01), 0.5, 64, 1e6, [0.0, 0.2, 0.5]),
            (bump(-0.5), 6.0, 32, 1e6, [0.0, 0.5, 1.4]),
            (bump(-0.5), 6.0, 32, 1e300, [0.0, 0.5, 1.4])]
    run = lambda ic, t_end, n, threshold, saves: integrate_nonlinear(
        ic, t_end, dt=dt, n_chars=n, slope_threshold=threshold, save_times=saves)
    compiled = [run(*args) for args in runs]
    for args, got in zip(runs, compiled):
        s = cosine_grid(args[2])
        monkeypatch.setattr(StageWorkspace, "rk4_step",
                            lambda ws, pmv, dt: state.rk4(_reference_rhs(s, pmv), dt))
        want = run(*args)
        assert len(got.states) == len(want.states) > 1
        for a, b in zip(got.states, want.states):
            assert a.t == b.t and all(np.array_equal(getattr(a, f), getattr(b, f))
                                      for f in "XVWUJ")
        for f in ("diag_t", "diag_v_peak", "diag_p0", "diag_u_right", "diag_u_left"):
            assert np.array_equal(getattr(got, f), getattr(want, f), equal_nan=True)
        assert (got.t_stop, got.status, got.max_abs_slope) == (want.t_stop, want.status,
                                                                want.max_abs_slope)
    assert [run.status for run in compiled] == ["completed", "blew_up", "blew_up"]
    assert compiled[2].max_abs_slope == math.inf > compiled[1].max_abs_slope


def _reference_stage(s, Z, pmv):
    """The nonlinear stage with a new array per operation: Q, P and dZ."""
    X, W, V, U, J = Z
    g = (V * V + 0.5 * U * U) * J
    ch, sh, gp = np.cosh(X), np.sinh(X), fd_derivative(s, g)
    low_c = cumulative_integral(s, ch * g, sh * J * g + ch * gp)
    low_s = cumulative_integral(s, sh * g, ch * J * g + sh * gp)
    high_c, high_s = low_c[-1] - low_c, low_s[-1] - low_s
    sh_lo, ch_lo = np.sinh(math.pi - X), np.cosh(math.pi - X)
    sh_hi, ch_hi = np.sinh(math.pi + X), np.cosh(math.pi + X)
    Q = 0.5 * m * (-sh_lo * low_c - ch_lo * low_s + sh_hi * high_c - ch_hi * high_s)
    P = 0.5 * m * (ch_lo * low_c + sh_lo * low_s + ch_hi * high_c - sh_hi * high_s)
    ph, php, v0, p0 = phi_open_interval(X), phi_prime_open_interval(X), V[0], P[0]
    coshX, sinhX = np.cosh(X), np.sinh(X)
    dZ = np.stack([
        ph - M + V - v0,
        php * W + pmv * (1.0 - coshX) + 0.5 * (V * V - v0 * v0) - P + p0,
        ph * W - pmv * sinhX - Q,
        php * (W - U) + ph * V - pmv * coshX - 0.5 * U * U + V * V - P,
        (php + U) * J])
    dZ[0, 0] = dZ[0, -1] = 0.0
    return Q, P, dZ


def _reference_rhs(s, pmv):
    """state.rk4's rhs for the stage of :func:`_reference_stage`: (dZ, P(0))."""
    def rhs(t, Z):
        with np.errstate(all="ignore"):  # a stopping run's last stages overflow
            _, P, dZ = _reference_stage(s, Z, pmv)
        return dZ, P[0]
    return rhs


def _warped_states():
    """Two states on one cosine grid and one on the benchmark's 512-node grid,
    with X warped away from s and J != 1."""
    ic = InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,))
    return (linear.exact_state(0.7, ic, 129), linear.exact_state(1.9, ic, 129),
            linear.exact_state(1.3, ic, 512))


def test_stage_matches_the_unbuffered_formulas_bitwise():
    # the warped states, one at n=4096, one at n=16 whose coarse panels pin the order of
    # the kernel's g' sums, one with a nonzero mean, which pins the order of the pmv terms,
    # and one whose slope U ~ 1e200 overflows the stage
    ic = InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,))
    mean = InitialCondition(cosine_coeffs=(0.3, 0.1), sine_coeffs=(0.2,), constant=0.1)
    big = linear.exact_state(1.3, ic, 257)
    overflowing = big.stack()
    overflowing[3] *= 1e200 / np.max(np.abs(overflowing[3]))
    cases = [(st.s, st.stack(), st.vbar) for st in _warped_states()]
    cases += [(st.s, st.stack(), st.vbar) for st in (linear.exact_state(1.3, ic, 4096),
                                                      linear.exact_state(1.9, ic, 16),
                                                      linear.exact_state(0.7, mean, 129))]
    assert cases[-1][2] != 0.0
    cases.append((big.s, overflowing, big.vbar))
    for s, Z, vbar in cases:
        pmv = math.pi * m * m * vbar
        with np.errstate(all="ignore"):
            Q, P, dZ = _reference_stage(s, Z, pmv)
        same = lambda a, b: np.array_equal(a, b, equal_nan=True)
        assert all(map(same, node_convolutions(s, Z[0], Z[2], Z[3], Z[4]), (Q, P)))
        got, p0 = nonlinear._rhs(StageWorkspace(s), Z, pmv)
        assert same(got, dZ) and same(p0, P[0])
    assert not np.isfinite(dZ).all() and np.isfinite(dZ).any()  # the overflow case


def test_stage_results_on_one_workspace_are_new_arrays():
    # a run passes one workspace to every stage; results are new arrays that
    # later stages on other data leave alone
    st1, st2, _ = _warped_states()
    ws, pmv = StageWorkspace(st1.s), math.pi * m * m * st1.vbar
    first, p_first = nonlinear._rhs(ws, st1.stack(), pmv)
    kept = first.copy()
    second, _ = nonlinear._rhs(ws, st2.stack(), pmv)
    third, p_third = nonlinear._rhs(ws, st1.stack(), pmv)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, kept) and np.array_equal(third, kept) and p_first == p_third
    d1 = nl_rhs(st1)
    kept = d1.dU.copy()
    nl_rhs(st2)
    assert np.array_equal(d1.dU, kept) and np.array_equal(nl_rhs(st1).dU, kept)


def test_a_stage_needs_all_five_rows():
    # the kernel reads five rows of n from Z, so any other shape is refused before the call
    st, _, _ = _warped_states()
    ws, Z = StageWorkspace(st.s), st.stack()
    for bad in (Z[:1], Z[:2], np.vstack([Z, Z[:1]])):
        with pytest.raises(ValueError):
            nonlinear._rhs(ws, bad, 0.1)


def test_node_convolutions_results_survive_a_second_call():
    st1, st2, _ = _warped_states()
    Q1, P1 = node_convolutions(st1.s, st1.X, st1.V, st1.U, st1.J)
    kept = Q1.copy(), P1.copy()
    Q2, P2 = node_convolutions(st1.s, st2.X, st2.V, st2.U, st2.J)
    assert not np.array_equal(Q1, Q2) and not np.array_equal(P1, P2)
    assert np.array_equal(Q1, kept[0]) and np.array_equal(P1, kept[1])


def _track(monkeypatch, cls):
    """Weak references to every instance of cls built from now on."""
    made, init = [], cls.__init__

    def tracked(self, *args):
        made.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", tracked)
    return made


def _all_dead(refs):
    gc.collect()
    return all(ref() is None for ref in refs)


def test_integrate_nonlinear_builds_one_workspace_that_dies_with_the_run(monkeypatch):
    workspaces, grids = _track(monkeypatch, StageWorkspace), _track(monkeypatch, Grid)
    for ic, t_end, status in ((sine(0.01), 0.05, "completed"), (bump(-0.5), 6.0, "blew_up")):
        workspaces.clear()
        run = integrate_nonlinear(ic, t_end, dt=1e-2, n_chars=32, save_times=[0.0])
        assert run.status == status and len(workspaces) == 1 and grids
        assert _all_dead(workspaces) and _all_dead(grids)
    energies(initial_state(sine(0.01), 32))  # runs no stage, so builds no workspace
    assert len(workspaces) == 1


def test_no_grid_or_workspace_outlives_a_node_array_call(monkeypatch):
    workspaces, grids = _track(monkeypatch, StageWorkspace), _track(monkeypatch, Grid)
    st, _, _ = _warped_states()
    for call in (lambda: nl_rhs(st),
                 lambda: node_convolutions(st.s, st.X, st.V, st.U, st.J),
                 lambda: node_convolutions(Grid(st.s), st.X, st.V, st.U, st.J)):
        workspaces.clear()
        grids.clear()
        result = call()
        assert len(workspaces) == 1 and len(grids) == 1
        assert _all_dead(workspaces) and _all_dead(grids) and result is not None


def test_stages_on_alternating_workspaces_match_fresh_ones_bitwise():
    # two workspaces of different n used in turn, and nl_rhs on the same
    # states, give the results of a fresh workspace for every stage
    ic = InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,))
    states = [linear.exact_state(t, ic, n) for t in (0.7, 1.9) for n in (129, 128)]
    pmv = math.pi * m * m * ic.vbar
    fresh = [nonlinear._rhs(StageWorkspace(st.s), st.stack(), pmv) for st in states]
    kept = {len(st.s): StageWorkspace(st.s) for st in states}
    for _ in range(2):
        for st, (dZ, p0) in zip(states, fresh):
            got, got_p0 = nonlinear._rhs(kept[len(st.s)], st.stack(), pmv)
            assert np.array_equal(got, dZ) and got_p0 == p0
            d = nl_rhs(st)
            assert np.array_equal(np.stack([d.dX, d.dW, d.dV, d.dU, d.dJ]), dZ)
            assert all(map(np.array_equal, node_convolutions(st.s, st.X, st.V, st.U, st.J),
                           node_convolutions(kept[len(st.s)], st.X, st.V, st.U, st.J)))


def test_steps_and_stages_sharing_a_workspace_match_fresh_workspaces_bitwise():
    # a workspace's nonlinear and linear steps, its lone stages (_rhs) and node_convolutions
    # all write its one scratch; interleaved, each result is that of a fresh workspace
    ic = InitialCondition(cosine_coeffs=(0.3, 0.1), sine_coeffs=(0.2,), constant=0.1)
    st1, st2 = linear.exact_state(0.7, ic, 129), linear.exact_state(1.9, ic, 129)
    pmv = math.pi * m * m * st1.vbar
    calls = [lambda ws: ws.rk4_step(pmv, 1e-2)(0.0, st1.stack()),
             lambda ws: nonlinear._rhs(ws, st2.stack(), pmv),
             lambda ws: ws.linear_step(pmv, 1e-2)(0.0, st2.stack()),
             lambda ws: node_convolutions(ws, st1.X, st1.V, st1.U, st1.J),
             lambda ws: ws.linear_step(pmv, 5e-4)(0.0, st1.stack()),
             lambda ws: ws.rk4_step(pmv, 5e-4)(0.0, st2.stack())]
    fresh = [call(StageWorkspace(st1.s)) for call in calls]
    shared = StageWorkspace(st1.s)
    steps = shared.rk4_step(pmv, 1e-2), shared.linear_step(pmv, 1e-2)  # built before the others
    for _ in range(2):
        for call, want in zip(calls, fresh):
            got = call(shared)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert np.array_equal(steps[0](0.0, st1.stack())[0], fresh[0][0])
            assert np.array_equal(steps[1](0.0, st2.stack())[0], fresh[2][0])


def test_the_step_of_a_dropped_workspace_matches_a_kept_ones_bitwise():
    # a step keeps alive all the memory its compiled calls read, so freeing its workspace
    # and handing that memory to new arrays leaves its results alone
    st = linear.exact_state(1.9, InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,)),
                            16)
    Z, pmv, n = st.stack(), math.pi * m * m * st.vbar, len(st.s)
    kept = StageWorkspace(st.s)
    for make in ("rk4_step", "linear_step"):
        want = getattr(kept, make)(pmv, 1e-3)(0.0, Z)
        step = getattr(StageWorkspace(st.s), make)(pmv, 1e-3)
        gc.collect()
        churn = [np.full(k * n - j, 7.0) for k in (1, 3, 4) for j in (0, 1, 2) for _ in range(4)]
        got = step(0.0, Z)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_max_abs_slope_is_the_largest_slope_of_every_state():
    # one completed and one stopped run, saved at every step
    dt = 1e-2
    for ic, t_end, status in ((sine(0.3), 0.2, "completed"), (bump(-0.5), 6.0, "blew_up")):
        times = [k * dt for k in range(round(t_end / dt) + 1)]
        traj = integrate_nonlinear(ic, t_end, dt=dt, n_chars=32, save_times=times)
        assert traj.status == status and traj.t_stop == traj.states[-1].t
        assert traj.max_abs_slope == max(float(np.max(np.abs(s.U))) for s in traj.states)
        assert len(traj.states) == len(traj.diag_t)


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=0.0, n_chars=64)
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=4)
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=64, slope_threshold=-1.0)
    with pytest.raises(ValueError, match="slope_threshold"):  # NaN would never stop a run
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=64, slope_threshold=math.nan)
    with pytest.raises(ValueError):
        integrate_nonlinear(sine(), 1.0, dt=1e-3, n_chars=64, save_times=[5.0])
    # a run must not report "completed" short of t_end
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_nonlinear(sine(), 1.0, dt=0.3, n_chars=64)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate_nonlinear(sine(), 1.0, dt=0.25, n_chars=64, save_times=[0.3])


# ---------------------------------------------------------- peak slope laws

def test_peak_records_are_the_stage_rows_and_obey_the_scalar_slope_laws():
    # every record row is its state's (t, V|peak, P(0), U+, U-), and the stage's
    # dU[0], dU[-1] are dU+-/dt = +-U+- + M V|peak - pi m^2 vbar - U+-^2/2 + V|peak^2 - P(0)
    dt = 1e-2
    for ic, t_end, n in ((sine(0.05), 1.0, 64),
                         (InitialCondition(cosine_coeffs=(0.0, 0.1), sine_coeffs=(0.2,),
                                           constant=0.05), 1.0, 64),
                         (bump(-0.5), 6.0, 32)):
        traj = integrate_nonlinear(ic, t_end, dt=dt, n_chars=n,
                                   save_times=[k * dt for k in range(round(t_end / dt) + 1)])
        pmv, ws = math.pi * m * m * ic.vbar, StageWorkspace(traj.states[0].s)
        with np.errstate(over="ignore", invalid="ignore"):  # the stop state can overflow P
            stages = [nonlinear._rhs(ws, st.stack(), pmv) for st in traj.states]
        record = np.column_stack([traj.diag_t, traj.diag_v_peak, traj.diag_p0,
                                  traj.diag_u_right, traj.diag_u_left])
        assert np.array_equal(record, [(st.t, st.V[0], p0, st.U[0], st.U[-1])
                                       for st, (_, p0) in zip(traj.states, stages)], equal_nan=True)
        assert np.isfinite(record[:-1]).all()
        v0, p0, u = record[:, 1:2], record[:, 2:3], record[:, 3:]
        law = np.array([1.0, -1.0]) * u + M * v0 - pmv - 0.5 * u * u + v0 * v0 - p0
        dU = np.array([(dZ[3, 0], dZ[3, -1]) for dZ, _ in stages])
        assert np.all((np.abs(dU - law) <= 1e-12 * np.maximum(1.0, np.abs(law)))
                      | (np.isnan(dU) & np.isnan(law)))
    # the stop state of the breaking run overflows the convolution: P(0) is nan
    assert traj.status == "blew_up" and np.isnan(traj.diag_p0[-1])


def test_peak_slope_scalar_system_reduces_to_linear_laws():
    # with the quadratic terms dropped the scalar system is the linear one;
    # for small data the run's peak slopes stay near the linear slope laws
    eps = 1e-3
    ic = sine(eps)
    traj = integrate_nonlinear(ic, 2.0, dt=1e-3, n_chars=128, save_times=[2.0])
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
    with pytest.raises(ValueError):
        riccati_supersolution(0.0, -0.1, 1.0)
    for u0, forcing in ((-5.0, math.nan), (-5.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            riccati_bound(u0, forcing)
        with pytest.raises(ValueError):
            riccati_supersolution(u0, forcing, 1.0)


def test_doubled_root_start_blows_up_no_later_than_bound():
    forcing = 0.1
    u0 = 2.0 * (1.0 - math.sqrt(1.0 + 2.0 * forcing))
    T = riccati_bound(u0, forcing)
    assert math.isfinite(T)
    u = riccati_supersolution(u0, forcing, np.array([0.99 * T]))
    assert u[0] < -50.0  # deep into the escape by the bound time


# ------------------------------------------------------------------ breaking

def test_breaking_detected(breaking_run):
    _, traj, _ = breaking_run
    assert traj.status == "blew_up"
    assert traj.max_abs_slope >= 1e6
    assert traj.t_stop < 20.0
    # the slope passed 1 well before the threshold stop
    crossed = traj.diag_t[np.abs(traj.diag_u_right) >= 1.0]
    assert len(crossed) > 0 and crossed[0] < traj.t_stop


def test_breaking_bounded_by_riccati_comparison(breaking_run):
    _, traj, _ = breaking_run
    forcing = nonlinear.measured_forcing_bound(traj)
    bound = riccati_bound(traj.diag_u_right[0], forcing)
    assert math.isfinite(bound)
    assert traj.t_stop <= bound + 5e-4
    # pointwise comparison: the supersolution dominates the measured slope
    mask = traj.diag_t < bound
    super_u = riccati_supersolution(traj.diag_u_right[0], forcing, traj.diag_t[mask])
    assert np.max(traj.diag_u_right[mask] - super_u) <= 1e-8


def test_forcing_bound_excludes_post_threshold_record(breaking_run):
    _, traj, _ = breaking_run
    # the raw bracket at the stopping step is meaningless (overshoot state);
    # the resolved-phase bound must stay at the small-perturbation scale
    bound = nonlinear.measured_forcing_bound(traj)
    assert bound < 1e-3


def test_nonfinite_stop_reports_unbounded_slope():
    # with the threshold out of reach the fixed-step scheme eventually
    # leaves the reals; the run still reports breaking, with infinite slope
    ic = steepest_budget_bump(0.2)
    traj = integrate_nonlinear(ic, 20.0, dt=5e-3, n_chars=32,
                               slope_threshold=1e300, save_times=[0.0])
    assert traj.status == "blew_up"
    assert traj.max_abs_slope == math.inf
    assert traj.t_stop < 20.0
    assert np.all(np.isfinite(traj.diag_u_right))
    # this one leaves the reals in its first step, so no record bounds the forcing
    traj = integrate_nonlinear(bump(-1e160), 1.0, dt=1e-2, n_chars=32)
    assert (traj.status, traj.t_stop, traj.max_abs_slope) == ("blew_up", 0.0, math.inf)
    assert nonlinear.measured_forcing_bound(traj) == 0.0


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
    traj = integrate_nonlinear(sine(0.05), 1.0, dt=1e-3, n_chars=256,
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
