"""Fixtures shared by several test modules."""

import time

import pytest

from peakonlab.nonlinear import integrate_nonlinear
from peakonlab.profiles import steepest_budget_bump


@pytest.fixture(scope="session")
def breaking_run():
    """Criterion 10's breaking run, (ic, trajectory, wall seconds), built once:
    the steepest bump of H1 + |slope| budget 0.01 at n=512, dt=5e-4, to t=20."""
    start = time.perf_counter()
    ic = steepest_budget_bump(0.01)
    traj = integrate_nonlinear(ic, 20.0, dt=5e-4, n_chars=512, save_times=[0.0])
    return ic, traj, time.perf_counter() - start
