"""Characteristic-state construction and invariant validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from peakonlab.linear import integrate_linear
from peakonlab.nonlinear import integrate_nonlinear
from peakonlab.profiles import InitialCondition, bump, cosine, sine
from peakonlab.state import CharacteristicState, cosine_grid, initial_state

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


def test_grid_size_guard():
    with pytest.raises(ValueError):
        cosine_grid(1)


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
    nonlinear_run, report = integrate_nonlinear(ic, t_end, dt=dt, n_chars=n_chars)
    assert report.status == "completed"
    for st in (linear_run.states[-1], nonlinear_run.states[-1]):
        assert st.t == steps * dt
        st.validate()
