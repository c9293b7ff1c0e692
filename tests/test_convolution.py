"""Nonlocal operators: the O(n^2) oracle, the O(n) path and its compiled kernel, and the
reduction identity."""

import ctypes
import hashlib
import math
import os
import re
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from peakonlab import convolution as cv
from peakonlab.convolution import DensitySample, conv_p, conv_q, node_convolutions, q_density
from peakonlab.kernel import M, m, phi_open_interval, phi_prime_open_interval
from peakonlab.nonlinear import _rhs
from peakonlab.profiles import InitialCondition, cosine, sine
from peakonlab.quadrature import integrate_samples
from peakonlab.state import cosine_grid

TWO_PI = 2.0 * math.pi


def uniform_sample(n, v_fn, vx_fn):
    s = np.linspace(0.0, TWO_PI, n + 1)
    return DensitySample(nodes=s, v=v_fn(s), vx=vx_fn(s))


def random_trig_profile(rng, degree=5, scale=1.0):
    return InitialCondition(
        cosine_coeffs=tuple(rng.uniform(-scale, scale) / k for k in range(1, degree + 1)),
        sine_coeffs=tuple(rng.uniform(-scale, scale) / k for k in range(1, degree + 1)))


# ---------------------------------------------------------------- q-density

def test_q_density_zero_and_trig():
    sample = uniform_sample(64, np.zeros_like, np.zeros_like)
    assert np.all(q_density(sample) == 0.0)
    sample = uniform_sample(64, np.sin, np.cos)
    expected = np.sin(sample.nodes) ** 2 + 0.5 * np.cos(sample.nodes) ** 2
    assert np.allclose(q_density(sample), expected, atol=1e-15)
    assert np.all(q_density(sample) >= 0.0)


def test_q_density_of_kernel_closed_form():
    # for the wave profile, q = phi^2 + (phi^2 - m^2)/2 = (3 phi^2 - m^2)/2
    sample = uniform_sample(64, phi_open_interval, phi_prime_open_interval)
    expected = (3.0 * phi_open_interval(sample.nodes) ** 2 - m * m) / 2.0
    assert np.allclose(q_density(sample), expected, atol=1e-14)


@pytest.mark.parametrize("which", ["nodes", "v", "vx"])
def test_sample_rejects_non_finite_entries(which):
    s = np.linspace(0.0, TWO_PI, 17)
    fields = {"nodes": s, "v": np.sin(s), "vx": np.cos(s)}
    fields[which] = fields[which].copy()
    fields[which][5] = math.nan
    with pytest.raises(ValueError, match="finite"):
        DensitySample(**fields)
    fields[which][5] = -math.inf
    with pytest.raises(ValueError, match="finite"):
        DensitySample(**fields)


def test_sample_validation():
    s = np.linspace(0.0, TWO_PI, 17)
    with pytest.raises(ValueError):
        DensitySample(nodes=s, v=np.zeros(17), vx=np.zeros(16))
    with pytest.raises(ValueError):
        DensitySample(nodes=s + 0.1, v=np.zeros(17), vx=np.zeros(17))
    with pytest.raises(ValueError):
        DensitySample(nodes=[0.0, TWO_PI], v=np.zeros(2), vx=np.zeros(2))
    with pytest.raises(ValueError, match="nodes must be strictly increasing"):
        DensitySample(nodes=[0.0, 2.0, 1.0, TWO_PI], v=np.zeros(4), vx=np.zeros(4))
    with pytest.raises(ValueError):
        conv_q(DensitySample(nodes=s, v=np.zeros(17), vx=np.zeros(17)), [])


# ------------------------------------------------------------------- conv_q

def test_conv_q_zero_density():
    sample = uniform_sample(128, np.zeros_like, np.zeros_like)
    assert np.all(conv_q(sample, [0.0, 1.0, 4.0]) == 0.0)


def test_conv_q_of_wave_profile_closed_form():
    # differentiate the stationary equation: Q[phi] = (M - phi) phi'
    sample = uniform_sample(4096, phi_open_interval, phi_prime_open_interval)
    targets = np.array([0.3, 1.0, math.pi, 5.0, 6.0])
    got = conv_q(sample, targets)
    want = (M - phi_open_interval(targets)) * phi_prime_open_interval(targets)
    assert np.max(np.abs(got - want)) < 1e-6


def test_conv_p_of_wave_profile_closed_form():
    # P[phi] = M phi - phi^2/2 + m^2/2 (same derivation, undifferentiated)
    sample = uniform_sample(4096, phi_open_interval, phi_prime_open_interval)
    targets = np.array([0.0, 0.7, math.pi, 4.4])
    got = conv_p(sample, targets)
    want = M * phi_open_interval(np.where(targets == 0, 1e-30, targets)) \
        - 0.5 * phi_open_interval(np.where(targets == 0, 1e-30, targets)) ** 2 + 0.5 * m * m
    want[targets == 0] = M * M - 0.5 * M * M + 0.5 * m * m
    assert np.max(np.abs(got - want)) < 1e-6


def test_conv_q_zero_mean_random_profiles():
    rng = np.random.default_rng(42)
    n = 512
    s = np.linspace(0.0, TWO_PI, n + 1)
    for _ in range(20):
        prof = random_trig_profile(rng)
        sample = DensitySample(nodes=s, v=prof.value(s), vx=prof.slope(s))
        vals = conv_q(sample, s)
        mean = integrate_samples(s, vals)
        assert abs(mean) < 1e-7


def test_conv_p_positive_for_nonzero_sample():
    sample = uniform_sample(256, np.sin, np.cos)
    vals = conv_p(sample, np.linspace(0.0, TWO_PI, 17))
    assert np.all(vals > 0.0)


def test_conv_p_derivative_is_conv_q():
    # central differences of P match Q at second order
    sample = uniform_sample(2048, np.sin, np.cos)
    x = np.array([0.9, 2.2, 4.8])
    h = 1e-4
    dp = (conv_p(sample, x + h) - conv_p(sample, x - h)) / (2 * h)
    q = conv_q(sample, x)
    assert np.max(np.abs(dp - q)) < 1e-6


def test_conv_lipschitz_modulus():
    # discrete modulus of continuity bounded by C*h for a bounded density
    sample = uniform_sample(1024, np.sin, np.cos)
    x = np.linspace(0.0, TWO_PI, 257)
    q = conv_q(sample, x)
    p = conv_p(sample, x)
    h = x[1] - x[0]
    # |Q| <= (1/2) max|phi'| * int q and q here integrates to ~ 3*pi/2
    bound = 8.0 * h
    assert np.max(np.abs(np.diff(q))) < bound
    assert np.max(np.abs(np.diff(p))) < bound


def test_node_convolutions_match_general_path():
    s = np.linspace(0.0, TWO_PI, 513)
    V, U = np.sin(s), np.cos(s)
    J = np.ones_like(s)
    Qf, Pf = node_convolutions(s, s, V, U, J)
    sample = DensitySample(nodes=s, v=V, vx=U)
    Qg = conv_q(sample, s)
    Pg = conv_p(sample, s)
    # same rule algebraically; the O(n) path regroups sums through
    # cosh/sinh(pi + X) factors, which amplifies rounding to ~1e-11
    assert np.max(np.abs(Qf - Qg)) < 1e-10
    assert np.max(np.abs(Pf - Pg)) < 1e-10


_UNIT = hst.floats(-1.0, 1.0)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=hst.integers(16, 200), grid=hst.sampled_from(("uniform", "cosine")),
       constant=_UNIT, cos_c=hst.lists(_UNIT, max_size=3), sin_c=hst.lists(_UNIT, max_size=3),
       bump=hst.floats(-0.5, 0.5))
def test_node_convolutions_match_oracle_on_random_profiles(n, grid, constant, cos_c, sin_c, bump):
    # the O(n) path against the O(n^2) corner-split oracle, relative to int q
    s = np.linspace(0.0, TWO_PI, n) if grid == "uniform" else cosine_grid(n)
    ic = InitialCondition(cosine_coeffs=cos_c, sine_coeffs=sin_c,
                          bump_amplitude=bump, constant=constant)
    sample = DensitySample(nodes=s, v=ic.value(s), vx=ic.slope(s))
    Qf, Pf = node_convolutions(s, s, sample.v, sample.vx, 1)
    tol = 1e-10 * integrate_samples(s, q_density(sample))
    assert np.max(np.abs(Qf - conv_q(sample))) <= tol
    assert np.max(np.abs(Pf - conv_p(sample))) <= tol


def test_node_convolutions_warped_grid_against_fine_reference():
    sig = np.linspace(0.0, TWO_PI, 1025)
    X = sig - 0.3 * np.sin(sig)
    J = 1.0 - 0.3 * np.cos(sig)
    Qf, Pf = node_convolutions(sig, X, np.sin(X), np.cos(X), J)
    plain = uniform_sample(4096, np.sin, np.cos)
    idx = [0, 100, 512, 800, 1024]
    assert np.max(np.abs(Qf[idx] - conv_q(plain, X[idx]))) < 1e-6
    assert np.max(np.abs(Pf[idx] - conv_p(plain, X[idx]))) < 1e-6


def test_periodic_seam_consistency():
    # values at both endpoint nodes describe the same circle point
    s = np.linspace(0.0, TWO_PI, 257)
    Q, P = node_convolutions(s, s, np.sin(s), np.cos(s), np.ones_like(s))
    assert abs(Q[0] - Q[-1]) < 1e-12
    assert abs(P[0] - P[-1]) < 1e-12


# --------------------------------------------------- reduction identity

def test_reduction_identity_smooth_profiles():
    for prof in (sine(), cosine()):
        for x in (1.0, math.pi, -2.0, 0.5):
            assert cv.reduction_identity_gap(prof, x, 4096) < 1e-7


def test_reduction_identity_constant_profile():
    prof = InitialCondition(constant=1.0)
    for x in (0.25, 2.0, -1.3):
        assert cv.reduction_identity_gap(prof, x, 4096) < 1e-7


def test_reduction_identity_converges_with_nodes():
    prof = random_trig_profile(np.random.default_rng(5), degree=4)
    gaps = [cv.reduction_identity_gap(prof, 1.3, n) for n in (32, 64, 128)]
    assert gaps[1] <= gaps[0] / 3.0
    assert gaps[2] <= gaps[1] / 3.0


# ------------------------------------------------- the compiled stage kernel

def test_stage_workspace_declares_the_layout_of_the_kernel_struct():
    # _fields_ copies the stage struct of _stage.c by hand, and a mismatch raises nothing:
    # the kernel would read or write the wrong memory
    source = Path(cv.__file__).with_name("_stage.c").read_text()
    body = re.search(r"typedef struct \{(.*?)\} stage;", source, re.S).group(1)
    declared = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        base = re.match(r"\s*(?:const\s+)?(\w+)", decl)  # the type, then its declarators
        for d in decl[base.end():].split(","):
            name, size = re.fullmatch(r"\s*\**(\w+)(\[\d+\])?\s*", d).groups()
            declared.append((name, base[1] + ("*" if "*" in d else size or "")))
    kind = lambda t: (kind(t._type_) + "*" if issubclass(t, ctypes._Pointer) else
                      f"{kind(t._type_)}[{t._length_}]" if issubclass(t, ctypes.Array) else
                      {ctypes.c_long: "long", ctypes.c_double: "double", ctypes.c_int: "int"}[t])
    assert declared == [(name, kind(t)) for name, t in cv.StageWorkspace._fields_]
    assert len(declared) == 28 and ("h", "double[3]") in declared


def test_kernel_inputs_are_checked_before_the_foreign_call():
    s = cosine_grid(65)
    X, V, U, J = s - 0.1 * np.sin(s), 0.3 * np.sin(s), 0.3 * np.cos(s), 1.0 - 0.1 * np.cos(s)
    ws = cv.StageWorkspace(s)
    Q, P = node_convolutions(ws, X, V, U, J)
    # a length other than n raises, as NumPy's broadcast did, and never reads past the end
    for bad in (V[:-1], np.append(V, 0.0), np.stack([V, V])):
        with pytest.raises(ValueError):
            node_convolutions(ws, X, bad, U, J)
        with pytest.raises(ValueError):
            node_convolutions(ws, X, V, U, bad)
    Z = np.stack([X, np.zeros_like(s), V, U, J])
    for bad in (Z[:4], Z[:, :-1], np.hstack([Z, Z[:, :1]])):
        with pytest.raises(ValueError):
            _rhs(ws, bad, 0.1)
    # other layouts and dtypes are converted: the same bits as float64 rows
    strided, as_list = np.repeat(V, 2)[::2], U.tolist()
    assert not strided.flags.c_contiguous
    for got in (node_convolutions(ws, X, strided, as_list, J),
                node_convolutions(ws, X, V, U, np.asfortranarray(np.stack([J, J]))[0])):
        assert np.array_equal(got, (Q, P))
    got = node_convolutions(ws, X, V.astype(np.float32), U, 1)
    want = node_convolutions(ws, X, V.astype(np.float32).astype(float), U, np.ones_like(s))
    assert np.array_equal(got, want)
    dZ, p0 = _rhs(ws, Z, 0.1)
    assert np.array_equal(_rhs(ws, np.asfortranarray(Z), 0.1)[0], dZ)
    assert np.array_equal(_rhs(ws, Z.astype(np.float32), 0.1)[0],
                          _rhs(ws, Z.astype(np.float32).astype(float), 0.1)[0])
    with pytest.raises(ValueError, match="at least 3 nodes"):
        cv.StageWorkspace(s[[0, -1]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            cv.StageWorkspace(np.concatenate([s[:3], [bad], s[4:]]))


def _counting_compiler(monkeypatch):
    """The compiler runs of _load_stage from now on, counted."""
    runs, run = [], subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw: runs.append(cmd) or run(cmd, **kw))
    return runs


def test_the_stage_kernel_is_built_once_per_source_and_flags(monkeypatch, tmp_path):
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    runs = _counting_compiler(monkeypatch)
    stale = tmp_path / "_stage-0000000000000000.so"  # the build of an older source
    stale.write_bytes(b"")
    cv._load_stage(tmp_path, cc)
    assert len(runs) == 1 and runs[0][:len(cc)] == cc and "-ffp-contract=off" in runs[0]
    built = list(tmp_path.iterdir())  # the new library alone: no temporary file, no old build
    # named by the sha256 of the source and flags, on each Python's import branch of it
    source = Path(cv.__file__).with_name("_stage.c").read_bytes()
    key = hashlib.sha256(source + " ".join(cv._STAGE_FLAGS).encode()).hexdigest()
    assert [p.name for p in built] == [f"_stage-{key[:16]}.so"]
    assert built[0].stat().st_mode & 0o555 == 0o555  # loadable by every user
    cv._load_stage(tmp_path, cc)  # a second load in this process
    assert len(runs) == 1
    # a fresh process finds the build, so a compiler that cannot run is never asked, and
    # it deletes nothing
    monkeypatch.undo()
    stale.write_bytes(b"")
    script = ("import sys; from peakonlab import convolution as cv; "
              "cv._load_stage(sys.argv[1], ['peakonlab-no-such-compiler'])")
    env = {**os.environ, "PYTHONPATH": str(Path(cv.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert sorted(tmp_path.iterdir()) == sorted([*built, stale])


def test_a_failed_build_names_the_command_and_its_stderr(tmp_path):
    with pytest.raises(cv.StageBuildError, match="peakonlab-no-such-compiler"):
        cv._load_stage(tmp_path / "a", ["peakonlab-no-such-compiler"])
    failing = [sys.executable, "-c", "import sys; sys.exit('cc: unknown option')"]
    with pytest.raises(cv.StageBuildError, match="cc: unknown option") as err:
        cv._load_stage(tmp_path / "b", failing)
    assert "-ffp-contract=off" in str(err.value)
    assert not list((tmp_path / "b").iterdir())  # nothing half written is left
