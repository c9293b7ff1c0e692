"""Characteristic-state construction and invariant validation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from peakonlab.linear import integrate_linear
from peakonlab.nonlinear import integrate_nonlinear
from peakonlab.profiles import InitialCondition, bump, cosine, sine
from peakonlab.state import CharacteristicState, cosine_grid, initial_state, march, rk4

TWO_PI = 2.0 * math.pi


def test_cosine_grid_endpoints_and_clustering():
    s = cosine_grid(129)
    assert s[0] == 0.0
    assert s[-1] == pytest.approx(TWO_PI, abs=1e-15)
    assert np.all(np.diff(s) > 0)
    ds = np.diff(s)
    assert ds[0] < ds[len(ds) // 2] / 50
    assert ds[-1] < ds[len(ds) // 2] / 50


def test_initial_state_satisfies_invariants():
    st = initial_state(sine(0.3), 64)
    st.validate()
    assert st.v_peak == 0.0
    assert np.all(st.J == 1.0)
    assert np.allclose(st.X, st.s)


def test_initial_state_with_bump_carries_one_sided_slopes():
    st = initial_state(bump(1.5), 64)
    st.validate()
    assert st.U[0] == pytest.approx(1.5)
    assert st.U[-1] == pytest.approx(-1.5)
    assert st.W[-1] == pytest.approx(TWO_PI * st.vbar, abs=1e-12)


@pytest.mark.parametrize("bad_value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["s", "X", "V", "W", "U", "J", "vbar"])
def test_validate_rejects_non_finite_fields(field, bad_value):
    # an interior entry, where no endpoint identity would catch it
    st = initial_state(sine(), 32)
    st.validate()
    if field == "vbar":
        st.vbar = bad_value
    else:
        getattr(st, field)[7] = bad_value
    with pytest.raises(ValueError, match="finite"):
        st.validate()


def test_validate_rejects_broken_states():
    st = initial_state(sine(), 32)
    bad = CharacteristicState(t=0.0, s=st.s, X=st.X[::-1].copy(), V=st.V, W=st.W,
                              U=st.U, J=st.J, vbar=st.vbar)
    with pytest.raises(ValueError):
        bad.validate()
    bad = CharacteristicState(t=0.0, s=st.s, X=st.X, V=st.V, W=st.W + 1.0,
                              U=st.U, J=st.J, vbar=st.vbar)
    with pytest.raises(ValueError):
        bad.validate()
    bad = CharacteristicState(t=0.0, s=st.s, X=st.X, V=st.V, W=st.W,
                              U=st.U, J=st.J * 0.0, vbar=st.vbar)
    with pytest.raises(ValueError):
        bad.validate()
    X, W, V = st.X.copy(), st.W.copy(), st.V.copy()
    X[[7, 8]] = X[[8, 7]]  # a reversed X would trip the endpoint check first
    W[-1] += 1.0
    V[-1] += 1.0
    for fields, message in (({"V": st.V[:-1]}, "state arrays must share one length"),
                            ({"X": X}, "X must be strictly increasing in s"),
                            ({"W": W}, r"W\(2\*pi\) must equal 2\*pi\*vbar"),
                            ({"V": V}, "peak value must match at both endpoints")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(st, **fields).validate()


def test_grid_size_guard():
    with pytest.raises(ValueError):
        cosine_grid(1)


def test_march_matches_rk4_growth_factor():
    # for dZ/dt = Z one RK4 step multiplies by the degree-4 Taylor polynomial of e^h
    h, k = 0.1, 12
    saved, Z, t, outcome = march(rk4(lambda t, Z: (Z, None), h), np.array([1.0]), h, k)
    assert outcome == "completed" and t == k * h and saved == []
    assert Z[0] == pytest.approx((1 + h + h ** 2 / 2 + h ** 3 / 6 + h ** 4 / 24) ** k,
                                 rel=1e-14, abs=0)


def test_march_saves_and_records():
    dt, k = 0.1, 7
    seen = []
    saved, Z, t, _ = march(rk4(lambda t, Z: (Z, t), dt), np.array([1.0]), dt, k, saves={0, k},
                           record=lambda t, Z, extra: seen.append((t, extra, Z[0])))
    assert [ts for ts, _ in saved] == [0.0, k * dt]
    assert saved[0][1][0] == 1.0 and saved[1][1] is Z
    assert len(seen) == k + 1
    assert [ts for ts, _, _ in seen] == [i * dt for i in range(k + 1)]
    assert all(extra == ts for ts, extra, _ in seen)  # first-stage side output
    assert seen[-1][2] == Z[0]


def test_march_stops_after_first_crossing_step():
    dt = 0.1
    _, Z, t, outcome = march(rk4(lambda t, Z: (np.ones_like(Z), None), dt), np.array([0.0]),
                             dt, 20, stop=lambda Z: Z[0] >= 0.35)
    assert outcome == "stopped"
    assert t == 4 * dt and Z[0] == pytest.approx(0.4)


def test_march_reports_non_finite_step_without_warning():
    dt = 0.1
    calls, seen = [], []

    def rhs(t, Z):
        calls.append(t)
        # during step 3 the derivative overflows: inf, and 1e308 doubled by RK4
        return (np.array([np.inf, 1e308]) if t > 2.2 * dt else -Z), None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, Z, t, outcome = march(rk4(rhs, dt), np.array([1.0, 1.0]), dt, 10,
                                 record=lambda t, Z, _: seen.append(t))
    assert outcome == "non-finite"
    assert t == 2 * dt
    assert np.all(np.isfinite(Z)) and Z[0] == pytest.approx(math.exp(-2 * dt), rel=1e-6)
    assert seen == [0.0, dt, 2 * dt]
    assert len(calls) == 12  # three steps of four stages, no extra evaluation


def _reference_rk4(rhs, Z, dt, n_steps):
    """Classical RK4 written out with a new array per operation."""
    for k in range(n_steps):
        t = k * dt
        k1, _ = rhs(t, Z)
        k2, _ = rhs(t + 0.5 * dt, Z + 0.5 * dt * k1)
        k3, _ = rhs(t + 0.5 * dt, Z + 0.5 * dt * k2)
        k4, _ = rhs(t + dt, Z + dt * k3)
        Z = Z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Z


def test_march_sums_stages_in_place_to_the_same_bits():
    rng = np.random.default_rng(7)
    A, Z0 = rng.normal(size=(3, 3)), rng.normal(size=(3, 4))
    rhs = lambda t, Z: (np.sin(A @ Z) * Z + math.cos(t) * Z * Z - 0.3 * Z, None)
    _, Z, _, outcome = march(rk4(rhs, 0.05), Z0, 0.05, 20)
    assert outcome == "completed"
    assert np.array_equal(Z, _reference_rk4(rhs, Z0, 0.05, 20))


def test_march_never_writes_a_state_it_kept():
    seen = []
    saved, Z, _, _ = march(rk4(lambda t, Z: (np.sin(Z) - 0.5 * Z, t), 0.1),
                           np.linspace(0.1, 1.0, 6), 0.1, 8, saves=range(9),
                           record=lambda t, Z, _: seen.append((Z, Z.copy())))
    assert len(seen) == len(saved) == 9 and saved[-1][1] is Z
    assert all(np.array_equal(kept, copy) for kept, copy in seen)
    assert all(Zk is kept for (_, Zk), (kept, _) in zip(saved, seen))


def test_march_looks_up_each_save_step_in_constant_time():
    # a scan of the sorted save list makes about n^2/2 comparisons when every step is saved
    comparisons = 0

    class Step(int):
        __hash__ = int.__hash__

        def __eq__(self, other):
            nonlocal comparisons
            comparisons += 1
            return int(self) == other

    n = 2000
    saved, _, t, outcome = march(lambda t, Z: (Z, None), np.array([1.0]), 0.5, n,
                                 saves=[Step(k) for k in range(n + 1)])
    assert outcome == "completed" and t == n * 0.5
    assert [ts for ts, _ in saved] == [k * 0.5 for k in range(n + 1)]
    assert comparisons <= 4 * n


_AMPLITUDE = hst.floats(-0.5, 0.5)
_PROFILES = hst.one_of(
    hst.builds(sine, _AMPLITUDE, hst.integers(1, 3)),
    hst.builds(cosine, _AMPLITUDE, hst.integers(1, 3)),
    hst.builds(bump, _AMPLITUDE),
    hst.builds(lambda c: InitialCondition(constant=c), _AMPLITUDE),
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(ic=_PROFILES, n_chars=hst.integers(16, 64), steps=hst.integers(1, 20),
       dt=hst.sampled_from([1e-3, 1e-2, 5e-2]))
def test_integrated_states_keep_invariants(ic, n_chars, steps, dt):
    t_end = steps * dt
    linear_run = integrate_linear(ic, t_end, dt=dt, n_chars=n_chars)
    nonlinear_run = integrate_nonlinear(ic, t_end, dt=dt, n_chars=n_chars)
    assert nonlinear_run.status == "completed"
    for st in (linear_run.states[-1], nonlinear_run.states[-1]):
        assert st.t == steps * dt
        st.validate()
