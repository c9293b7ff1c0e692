"""Command-line harness: config parsing, outputs, determinism, exit codes."""

import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from peakonlab import cli, linear, nonlinear
from peakonlab.cli import (ConfigError, ScenarioConfig, main, parse_config_file,
                           parse_ic_spec, read_state_csv, run_scenario)
from peakonlab.kernel import M
from peakonlab.profiles import InitialCondition
from peakonlab.state import CharacteristicState

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- ic grammar

def test_parse_ic_spec_basic():
    assert parse_ic_spec("sin") == (0.0, (), (1.0,))
    assert parse_ic_spec("cos") == (0.0, (1.0,), ())
    assert parse_ic_spec("0.5*sin2") == (0.0, (), (0.0, 0.5))
    const, cos_c, sin_c = parse_ic_spec("0.5*sin + 0.25*cos3 + 0.1")
    assert const == pytest.approx(0.1)
    assert cos_c == (0.0, 0.0, 0.25)
    assert sin_c == (0.5,)
    assert parse_ic_spec("") == (0.0, (), ())
    assert parse_ic_spec("-2e-3*sin") == (0.0, (), (-2e-3,))
    # a '+' inside an exponent does not split terms
    assert parse_ic_spec("1e+3*sin") == (0.0, (), (1e3,))
    assert parse_ic_spec("2.5e-1*cos2+1E+0") == (1.0, (0.0, 0.25), ())


_COEF = hst.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(constant=_COEF, cos_c=hst.lists(_COEF, max_size=3), sin_c=hst.lists(_COEF, max_size=3))
def test_parse_ic_spec_round_trips_repr(constant, cos_c, sin_c):
    # repr writes exponents as e+NN / e-NN; every written double reads back exactly
    terms = ([repr(constant)] + [f"{c!r}*cos{k}" for k, c in enumerate(cos_c, start=1)]
             + [f"{c!r}*sin{k}" for k, c in enumerate(sin_c, start=1)])
    assert parse_ic_spec("+".join(terms)) == (constant, tuple(cos_c), tuple(sin_c))


def test_parse_ic_spec_errors():
    with pytest.raises(ConfigError):
        parse_ic_spec("tan")
    with pytest.raises(ConfigError):
        parse_ic_spec("sin0")
    with pytest.raises(ConfigError):
        parse_ic_spec("sin++cos")
    for spec in ("1e400*sin", "inf", "-inf", "nan", "1e308*cos+1e308*cos", "1e308+1e308"):
        with pytest.raises(ConfigError, match="finite"):
            parse_ic_spec(spec)
    # a space inside a term is not deleted, so digits are never joined across it;
    # numbers are ASCII, without underscores, in constants, coefficients and indices
    for spec in ("1 2", "sin 1 0", "0.5*sin 3", "１２*sin", "0.5*sin２", "sin١", "1e５*cos",
                 "1_0", "１２", "١٢"):
        with pytest.raises(ConfigError, match=re.escape(f"cannot parse term {spec!r}")):
            parse_ic_spec(spec)


def test_parse_ic_spec_bad_coefficient_names_term():
    for spec, term in (("1.2.3*sin", "1.2.3*sin"), ("0.5*cos+.*sin2", ".*sin2")):
        with pytest.raises(ConfigError, match=re.escape(f"ic: cannot parse term {term!r}")):
            parse_ic_spec(spec)


# --------------------------------------------------------------- config file

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmode = linear-exact\nic = 0.5*sin\n"
                   "t = 0,1,2\ndt = 0.002\nnchars = 64\nout = somewhere\n")
    updates = parse_config_file(str(cfg))
    assert updates["ic_spec"] == "0.5*sin"
    assert updates["t_samples"] == (0.0, 1.0, 2.0)
    assert updates["dt"] == 0.002
    assert updates["n_chars"] == 64


def test_config_file_errors_carry_line_numbers(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = linear-exact\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        parse_config_file(str(cfg))
    cfg.write_text("dt == 0.1\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(str(cfg))
    cfg.write_text("ic = sin\nt = 0,1,\n")
    with pytest.raises(ConfigError, match="bad.cfg:2: bad value for 't'"):
        parse_config_file(str(cfg))
    cfg.write_text("ic = sin\nnchars 32\n")
    with pytest.raises(ConfigError, match="bad.cfg:2: expected key=value"):
        parse_config_file(str(cfg))
    # a key given twice is refused, not last-wins
    for text, line in (("dt = 1e-3\nic = sin\ndt = 2e-2\n",
                        "bad.cfg:3: key 'dt' already set on line 1"),
                       ("mode = linear-exact\nmode = nonlinear\n",
                        "bad.cfg:2: key 'mode' already set on line 1")):
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=line):
            parse_config_file(str(cfg))


@pytest.mark.parametrize("make", [
    lambda path: None,  # missing
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"ic = sin\n# \xff\n"),  # not UTF-8
], ids=["missing", "directory", "not-utf-8"])
def test_unreadable_config_file_reported(tmp_path, capsys, make):
    cfg = tmp_path / "run.cfg"
    make(cfg)
    out = tmp_path / "out"
    assert main(["linear-exact", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg}: ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["state_00.csv", "summary.txt"])
def test_unwritable_output_file_reported(tmp_path, capsys, name):
    # a directory where the run writes a file: an error, which may leave the files
    # already written
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["linear-exact", "--t", "0", "--nchars", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / name) in err


def test_config_file_mode_must_match_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = classify\nic = sin\nt = 1\nnchars = 32\n")
    out = tmp_path / "out"
    args = cli.build_parser().parse_args(["linear-exact", "--config", str(cfg)])
    with pytest.raises(ConfigError, match="run.cfg"):
        cli.config_from_args(args)
    assert main(["linear-exact", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    # a matching mode is accepted
    cfg.write_text("mode = linear-exact\nic = sin\nt = 1\nnchars = 32\n")
    assert main(["linear-exact", "--config", str(cfg), "--out", str(out)]) == 0
    assert "mode=linear-exact" in (out / "summary.txt").read_text()


def test_cli_overrides_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ic = sin\nt = 1\nnchars = 32\n")
    out = tmp_path / "out"
    code = main(["linear-exact", "--config", str(cfg), "--nchars", "48",
                 "--out", str(out)])
    assert code == 0
    text = (out / "summary.txt").read_text()
    assert "nchars=48" in text


def test_scenario_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(mode="bogus").validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(t_samples=()).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(t_samples=(1.0, 0.5)).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(dt=-1.0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(n_chars=4).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(mode="classify", c=-2.0).validate()
    with pytest.raises(ConfigError, match="t: sample times must be nonnegative"):
        ScenarioConfig(t_samples=(-1.0, 0.0)).validate()
    with pytest.raises(ConfigError, match="threshold must be positive"):
        ScenarioConfig(slope_threshold=0.0).validate()


# ------------------------------------------------------------------ outputs

def test_linear_exact_outputs_and_roundtrip(tmp_path):
    out = tmp_path / "lab"
    config = ScenarioConfig(mode="linear-exact", ic_spec="sin",
                            t_samples=(0.0, 1.0), n_chars=64, out_dir=str(out))
    assert run_scenario(config) == 0
    data = read_state_csv(out / "state_01.csv")
    n = 64
    assert len(data["X"]) == 2 * n
    # shifted block first: X covers [-2pi, 2pi]
    assert data["X"][0] == pytest.approx(-TWO_PI)
    assert data["X"][-1] == pytest.approx(TWO_PI)
    # shifted and fundamental blocks carry identical field values
    assert np.array_equal(data["V"][:n], data["V"][n:])
    # round-trip: doubles survive the 17-digit format exactly
    from peakonlab.linear import exact_state
    st = exact_state(1.0, config.initial_condition(), 64)
    assert np.array_equal(data["V"][n:], st.V)
    assert np.array_equal(data["U"][n:], st.U)
    assert np.array_equal(data["X"][n:], st.X)
    assert np.array_equal(data["X"][:n], st.X - TWO_PI)
    text = (out / "summary.txt").read_text()
    assert "t1_peak_slope_right=" in text
    assert "drift_combo_linear_rel=" in text


def test_byte_identical_reruns(tmp_path):
    for d in ("a", "b"):
        config = ScenarioConfig(mode="linear-ode", ic_spec="0.3*sin+0.1*cos2",
                                t_samples=(0.5, 1.0), dt=5e-3, n_chars=48,
                                out_dir=str(tmp_path / d))
        assert run_scenario(config) == 0
    for name in ("state_00.csv", "state_01.csv", "summary.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def _tree_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_reused_output_directory_rerun_or_refused(tmp_path, capsys):
    # a rerun into its own directory rewrites the same bytes; a run that would
    # leave an earlier run's state CSVs beside its summary is refused before
    # anything is written
    args = ["linear-exact", "--ic", "sin", "--t", "0,1,2", "--nchars", "16", "--out", str(tmp_path)]
    assert main(args) == 0
    before = _tree_bytes(tmp_path)
    assert main(args) == 0
    assert _tree_bytes(tmp_path) == before and len(before) == 4
    capsys.readouterr()
    for args, first_stale in ((["linear-exact", "--ic", "cos", "--t", "0", "--nchars", "16"],
                               "state_01.csv"),
                              (["classify", "--a", "0", "--c", str(M)], "state_00.csv")):
        assert main(args + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err and first_stale in err
        assert _tree_bytes(tmp_path) == before


def test_nonlinear_zero_profile_matches_linear_exact(tmp_path):
    shared = dict(ic_spec="", t_samples=(0.5, 1.0), dt=1e-3, n_chars=32)
    run_scenario(ScenarioConfig(mode="linear-exact", out_dir=str(tmp_path / "le"), **shared))
    run_scenario(ScenarioConfig(mode="nonlinear", out_dir=str(tmp_path / "nl"), **shared))
    for name in ("state_00.csv", "state_01.csv"):
        a = read_state_csv(tmp_path / "le" / name)
        b = read_state_csv(tmp_path / "nl" / name)
        assert np.max(np.abs(a["X"] - b["X"])) < 1e-8
        assert np.max(np.abs(a["V"] - b["V"])) < 1e-8
        assert np.max(np.abs(a["W"] - b["W"])) < 1e-8


def test_nonlinear_breaking_exit_code(tmp_path):
    from peakonlab.profiles import steepest_budget_bump
    beta = steepest_budget_bump(0.01).bump_amplitude
    code = main(["nonlinear", "--ic", "", "--bump", str(beta), "--t", "8",
                 "--dt", "0.001", "--nchars", "64", "--threshold", "100",
                 "--out", str(tmp_path / "blow")])
    assert code == 2
    text = (tmp_path / "blow" / "summary.txt").read_text()
    assert "blowup_status=blew_up" in text
    assert "blowup_riccati_bound=" in text


def test_breaking_stop_state_at_a_sample_reports_nan_without_warnings(tmp_path):
    # the stop step is the sample t=1.41, a state past resolution: its report and every
    # drift that reads it print nan, and no RuntimeWarning (an error under pytest) escapes
    config = ScenarioConfig(mode="nonlinear", ic_spec="", bump=-0.5, t_samples=(0.0, 1.4, 1.41),
                            dt=1e-2, n_chars=32, out_dir=str(tmp_path / "stop"))
    assert run_scenario(config) == 2
    assert len(list((tmp_path / "stop").glob("state_*.csv"))) == 3
    summary = dict(
        line.split("=", 1) for line in (tmp_path / "stop" / "summary.txt").read_text().splitlines())
    assert summary["t2_E_u"] == "nan" and summary["drift_E_u_abs"] == "nan"


def test_energies_mode_emits_forecast_table(tmp_path):
    out = tmp_path / "en"
    code = main(["energies", "--ic", "cos", "--t", "0,0.5,1", "--dt", "0.002",
                 "--nchars", "128", "--out", str(out)])
    assert code == 0
    text = (out / "summary.txt").read_text()
    assert "h1_S_plus=" in text
    rel_errs = [float(line.split("=")[1]) for line in text.splitlines()
                if "_E_rel_err=" in line]
    assert rel_errs and max(rel_errs) < 1e-3


def test_classify_mode(tmp_path, capsys):
    code = main(["classify", "--a", "0", "--c", str(M), "--out", str(tmp_path / "cl")])
    assert code == 0
    assert "peaked" in capsys.readouterr().out
    assert "family=peaked" in (tmp_path / "cl" / "summary.txt").read_text()
    code = main(["classify", "--a", "-1", "--c", "1.0", "--out", str(tmp_path / "cl2")])
    assert code == 1  # beyond the fold: reported, never silent


def test_classify_never_loads_the_stage_kernel(tmp_path, monkeypatch):
    # so it needs no C compiler; every trajectory mode loads it, if only to write its CSVs
    from peakonlab import convolution

    class Loaded(Exception):
        pass

    def load():
        raise Loaded

    monkeypatch.setattr(convolution, "_stage_library", load)
    run = ["--ic", "0.1*sin", "--t", "0,0.1", "--dt", "1e-2", "--nchars", "32"]
    assert main(["classify", "--a", "0", "--c", str(M), "--out", str(tmp_path / "cl")]) == 0
    for mode in ("linear-exact", "linear-ode", "energies", "nonlinear"):
        with pytest.raises(Loaded):
            main([mode, *run, "--out", str(tmp_path / mode)])
        assert not (tmp_path / mode).exists()


@pytest.mark.parametrize("mode", ["nonlinear", "linear-ode", "energies", "linear-exact"])
def test_a_failed_kernel_build_is_reported_as_an_error(tmp_path, monkeypatch, capsys, mode):
    from peakonlab import convolution

    monkeypatch.setattr(convolution, "_stage_library",
                        lambda: convolution._load_stage(tmp_path / "cache", ["/nonexistent/cc"]))
    out = tmp_path / mode
    code = main([mode, "--ic", "0.1*sin", "--t", "0,0.1", "--dt", "1e-2",
                 "--nchars", "32", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: building the stage kernel failed: ")
    assert not out.exists()


def test_error_exit_code_on_bad_ic(tmp_path):
    code = main(["linear-exact", "--ic", "sin**", "--t", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_error_exit_code_on_partial_step(tmp_path):
    for mode in ("linear-ode", "nonlinear", "energies"):
        code = main([mode, "--ic", "0.01*sin", "--t", "1", "--dt", "0.3",
                     "--nchars", "32", "--out", str(tmp_path / mode)])
        assert code == 1
        assert not (tmp_path / mode).exists()  # rejected before anything is written


@pytest.mark.parametrize("args, why", [
    (["nonlinear", "--ic", "0.01*sin", "--t", "0.5,1", "--dt", "1e7"], "rounds to step 0"),
    (["linear-ode", "--ic", "sin", "--t", "0,1,1.0000000001", "--dt", "1e-3"], "both round"),
], ids=["under-one-step", "two-times-one-step"])
def test_times_that_would_be_snapped_are_an_error(tmp_path, capsys, args, why):
    # these ran once as t=0 "completed" and as two CSVs for three times
    code = main(args + ["--nchars", "16", "--out", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and why in err
    assert not (tmp_path / "s").exists()


def test_non_finite_linear_run_reported_as_error(tmp_path, capsys):
    # steps of 0.5 overflow the e^t end near t = 708; that is an error, not a crash
    code = main(["linear-ode", "--ic", "cos", "--t", "800", "--dt", "0.5",
                 "--nchars", "16", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "t=708" in err
    assert not (tmp_path / "d").exists()


def test_non_finite_closed_form_reported_as_error(tmp_path, capsys):
    # e^t overflows the closed form between t = 354 and 355; the first such sample
    # is an error naming its time, and nothing is written, not even the finite ones
    code = main(["linear-exact", "--ic", "sin", "--t", "0,1,2,800", "--nchars", "16",
                 "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "t=800" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("args", [
    ["linear-exact", "--t", "0,1,354"],
    ["linear-ode", "--t", "354", "--dt", "0.5"],
])
def test_non_finite_energies_reported_as_error(tmp_path, capsys, args):
    # the state at t = 354 is finite, but (V^2 + U^2) J overflows in its energies;
    # that is an error naming the time, with no warning and nothing written
    code = main(args + ["--ic", "100*cos", "--nchars", "16", "--out", str(tmp_path / "f")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: energies not finite at t=354\n"
    assert not (tmp_path / "f").exists()


_T0_OVERFLOW = "error: ic: t=0 energies not finite for '1e100*cos', bump 0\n"


@pytest.mark.parametrize("args, expected", [
    (["linear-exact", "--ic", "1e100*cos", "--t", "0"], _T0_OVERFLOW),
    (["nonlinear", "--ic", "1e100*cos", "--t", "0"], _T0_OVERFLOW),
    (["energies", "--ic", "1e100*cos", "--t", "0"], _T0_OVERFLOW),
    (["linear-exact", "--ic", "1e70*sin", "--t", "0,60"], "error: energies not finite at t=60\n"),
], ids=["linear-exact", "nonlinear", "energies", "linear-exact-t60"])
def test_overflowing_combination_reported_as_error(tmp_path, capsys, args, expected):
    # every report field is finite, but E(v)^2 in combo_nonlinear overflows; that is
    # an error naming the time, with no traceback and no directory
    code = main(args + ["--nchars", "16", "--out", str(tmp_path / "g")])
    assert code == 1
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "g").exists()


def test_usage_errors_exit_1_not_breaking_code(tmp_path):
    # exit code 2 is reserved for detected wave breaking
    out = str(tmp_path / "u")
    assert main(["nonlinear", "--dt", "abc", "--out", out]) == 1
    assert main(["nonlinear", "--no-such-flag", "--out", out]) == 1
    assert main(["no-such-mode"]) == 1
    for times in ("0,,1", ",0.5", "0,1,"):  # an empty sample time is not skipped
        assert main(["linear-exact", "--t", times, "--out", out]) == 1
    assert not (tmp_path / "u").exists()
    with pytest.raises(SystemExit) as exc:
        main(["nonlinear", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("args", [
    ["linear-exact", "--t", "nan"],
    ["linear-exact", "--t", "0,inf"],
    ["linear-exact", "--ic", "nan"],
    ["linear-exact", "--ic", "1e400*sin"],
    ["linear-exact", "--bump", "nan"],
    ["linear-ode", "--t", "0,1", "--dt", "inf"],
    ["nonlinear", "--ic", "0.01*sin", "--t", "0.01", "--dt", "1e-3", "--threshold", "nan"],
    ["classify", "--a", "nan", "--c", "1"],
    ["classify", "--a", "0", "--c", "inf"],
    ["classify", "--a", "-1", "--c", "1e103"],
    ["classify", "--a", "1", "--c", "1e155"],
    ["nonlinear", "--ic", "1e200*sin", "--t", "0,0.01", "--dt", "1e-3"],
    ["linear-exact", "--ic", "1e300*sin", "--t", "0,1"],
])
def test_non_finite_numbers_exit_1(tmp_path, args):
    out = tmp_path / "nf"
    assert main(args + ["--nchars", "16", "--out", str(out)]) == 1
    assert not out.exists()  # rejected before anything is written


def test_write_state_csv_byte_format(tmp_path):
    # -0.0 in X must print as 0 in the fundamental block (-0.0 + 0.0 = 0.0)
    st = CharacteristicState(
        t=0.0, s=np.array([0.0, 0.7, 1.9, 4.1, TWO_PI]),
        X=np.array([-0.0, 0.5, 2.0, 4.0, TWO_PI]),
        V=np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324]),
        U=np.array([1e308, -1e308, 0.1, 2.5e-310, 1.0 / 3.0]),
        W=np.array([0.0, 1e-17, -7.25, 123456789.12345679, np.nan]), J=np.ones(5), vbar=0.0)
    path = tmp_path / "state.csv"
    cli.write_state_csv(path, st)
    expected = "s,X,V,U,W\n" + "".join(
        ",".join(format(float(x), ".17g") for x in
                 (st.s[i] + shift, st.X[i] + shift, st.V[i], st.U[i], st.W[i])) + "\n"
        for shift in (-TWO_PI, 0.0) for i in range(len(st.s)))
    assert path.read_bytes() == expected.encode()
    assert path.read_text().splitlines()[6].startswith("0,0,-0,1e+308,")


def _savetxt_bytes(st) -> bytes:
    """The oracle: np.savetxt of the stacked rows, both periodic blocks."""
    rows = np.concatenate([np.column_stack((st.s + shift, st.X + shift, st.V, st.U, st.W))
                           for shift in (-TWO_PI, 0.0)])
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt="%.17g", delimiter=",", header="s,X,V,U,W", comments="")
    return buf.getvalue().encode()


def _state_of(columns) -> CharacteristicState:
    s, X, V, U, W = (np.array(c, dtype=float) for c in columns)
    for c in (s, X):  # s and X take + shift, which warns on a signaling NaN
        c[np.isnan(c)] = math.nan
    return CharacteristicState(t=0.0, s=s, X=X, V=V, U=U, W=W, J=np.ones(33), vbar=0.0)


_SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, 1.0 / 3.0, -TWO_PI]
_DOUBLE = hst.one_of(hst.sampled_from(_SPECIAL), hst.floats(width=64))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(hst.integers(min_value=1, max_value=300).flatmap(
    lambda n: hst.tuples(*[arrays(np.float64, n, elements=_DOUBLE)] * 5)))
@example(tuple(np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308])
               for _ in range(5)))
def test_write_state_csv_matches_savetxt(tmp_path_factory, columns):
    path, st = tmp_path_factory.mktemp("csv") / "state.csv", _state_of(columns)
    cli.write_state_csv(path, st)
    assert path.read_bytes() == _savetxt_bytes(st)


def test_write_state_csv_matches_savetxt_n4096(tmp_path):
    rng = np.random.default_rng(7)
    columns = []
    for _ in range(5):
        col = rng.integers(0, 2 ** 64, 4096, dtype=np.uint64).view(np.float64)  # any bits
        col[rng.integers(0, 4096, 64)] = rng.choice(_SPECIAL, 64)
        columns.append(col)
    path, st = tmp_path / "state.csv", _state_of(columns)
    cli.write_state_csv(path, st)
    assert path.read_bytes() == _savetxt_bytes(st)


def _grid_state(s) -> CharacteristicState:
    rng = np.random.default_rng(len(s))
    X, V, U, W = rng.standard_normal((4, len(s)))
    return CharacteristicState(t=0.0, s=s, X=X, V=V, U=U, W=W, J=np.ones(33), vbar=0.0)


def test_write_state_csv_follows_the_grid(tmp_path):
    # no grid's s cells may leak into another's file
    path = tmp_path / "state.csv"

    def write_and_check(st):
        cli.write_state_csv(path, st)
        assert path.read_bytes() == _savetxt_bytes(st)

    a = np.sort(np.random.default_rng(3).uniform(0.0, TWO_PI, 4096))
    a_ulp = a.copy()
    a_ulp[100] = np.nextafter(a_ulp[100], np.inf)
    for s in (a, np.linspace(0.0, TWO_PI, 512), a, a_ulp):
        write_and_check(_grid_state(s))
    moving = _grid_state(a.copy())
    write_and_check(moving)
    moving.s[7] += 1e-3  # the same array changed in place between two calls
    write_and_check(moving)
    special = np.linspace(0.0, TWO_PI, 64)
    special[[0, 5]] = -0.0, math.nan
    write_and_check(_grid_state(special))
    write_and_check(_grid_state(special.copy()))


def _dyadic_ties(rng) -> list:
    """Doubles N / 2**j (N odd) of exactly 18 significant digits: each lies half-way
    between two 17-digit decimals."""
    ties = []
    for j in range(3, 26):
        lo, hi = math.ceil(10.0 ** (17 - j) * 2 ** j), min(2 ** 53, int(10.0 ** (18 - j) * 2 ** j))
        for N in rng.integers(lo, hi, 20).tolist() if lo < hi else ():
            x = (N | 1) / 2 ** j
            if len(Decimal(x).as_tuple().digits) == 18:
                ties.append(x)
    return ties


def test_write_state_csv_formats_every_double_as_python(tmp_path):
    # the compiled "%.17g" against Python's on random bit patterns and every edge of its
    # exact path (1e-16 <= |x| < 1e17) and of glibc's beyond it
    rng = np.random.default_rng(31)
    nan_bits = [0x7FF8000000000001, 0xFFF8000000000001, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]
    powers = np.array([float(f"1e{k}") for k in range(-20, 21)])
    edges = np.concatenate([
        [0.0, -0.0, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 1e-14],  # below 10^-14, but its 17 digits carry to 1e-14
        np.array(nan_bits, dtype=np.uint64).view(np.float64),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), _dyadic_ties(rng)])
    edges = np.concatenate([edges, -edges])
    assert Decimal(1e-14) < Decimal("1e-14") and "%.17g" % 1e-14 == "1e-14"
    n = 40_000
    bits = rng.integers(0, 2 ** 64, (5, n), dtype=np.uint64).view(np.float64)
    bits[:, :len(edges)] = edges
    st = _state_of(bits)
    path = tmp_path / "state.csv"
    cli.write_state_csv(path, st)
    rows = np.concatenate([np.column_stack((st.s + shift, st.X + shift, st.V, st.U, st.W))
                           for shift in (-TWO_PI, 0.0)])
    expected = "s,X,V,U,W\n" + "%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(rows) % tuple(
        rows.ravel().tolist())
    assert path.read_bytes() == expected.encode()


def test_write_state_csv_inputs_are_checked_before_the_foreign_call(tmp_path, monkeypatch):
    from peakonlab import convolution

    rng = np.random.default_rng(5)
    s, X, V, U, W = rng.standard_normal((5, 33))
    path = tmp_path / "state.csv"

    def state(s=s, X=X, V=V, U=U, W=W):
        return CharacteristicState(t=0.0, s=s, X=X, V=V, U=U, W=W, J=np.ones(33), vbar=0.0)

    cli.write_state_csv(path, state())
    want = path.read_bytes()
    # columns of another length raise, and the kernel never reads past the end of one
    with monkeypatch.context() as patch:
        patch.setattr(convolution, "_stage_library", lambda: pytest.fail("foreign call"))
        for bad in (V[:-1], np.append(V, 0.0), np.stack([V, V]), 0.5):
            with pytest.raises(ValueError):
                cli.write_state_csv(path, state(V=bad))
            with pytest.raises(ValueError):
                cli.write_state_csv(path, state(s=bad))
        with pytest.raises(ValueError):  # equal, but not 1-d
            cli.write_state_csv(path, state(*(np.stack([c, c]) for c in (s, X, V, U, W))))
    # other layouts and dtypes are converted: the bytes of their float64 copies
    strided, fortran = np.repeat(V, 2)[::2], np.asfortranarray(np.stack([W, W]))[0]
    assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
    cli.write_state_csv(path, state(V=strided, W=fortran))
    assert path.read_bytes() == want
    for cast in (np.float32, np.int64):
        cols = [c.astype(cast) for c in (s, X, V, U, W)]
        cli.write_state_csv(path, state(*cols))
        cli.write_state_csv(tmp_path / "copy.csv", state(*(c.astype(float) for c in cols)))
        assert path.read_bytes() == (tmp_path / "copy.csv").read_bytes()
    empty = np.array([])
    cli.write_state_csv(path, state(empty, empty, empty, empty, empty))
    assert path.read_bytes() == b"s,X,V,U,W\n"


@pytest.mark.parametrize("mode", ["linear-exact", "linear-ode", "nonlinear"])
def test_run_scenario_csvs_match_savetxt_of_library_states(tmp_path, mode):
    config = ScenarioConfig(mode=mode, ic_spec="0.01*sin+0.005*cos2", t_samples=(0.0, 0.05, 0.1),
                            dt=0.01, n_chars=32, out_dir=str(tmp_path / mode))
    assert run_scenario(config) == 0
    ic = config.initial_condition()
    if mode == "linear-exact":
        states = [linear.exact_state(t, ic, 32) for t in config.t_samples]
    elif mode == "linear-ode":
        states = linear.integrate_linear(ic, 0.1, dt=0.01, n_chars=32,
                                         save_times=config.t_samples).states
    else:
        states = nonlinear.integrate_nonlinear(ic, 0.1, dt=0.01, n_chars=32,
                                               save_times=config.t_samples).states
    assert len(states) == 3
    for i, st in enumerate(states):
        written = (tmp_path / mode / f"state_{i:02d}.csv").read_bytes()
        assert written == _savetxt_bytes(st)


def _linear_exact_traced_peak(out_dir, n_samples):
    config = ScenarioConfig(mode="linear-exact", ic_spec="sin+0.5*cos3",
                            t_samples=tuple(0.1 * i for i in range(n_samples)),
                            n_chars=1024, out_dir=str(out_dir))
    tracemalloc.start()
    try:
        assert run_scenario(config) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_linear_exact_memory_does_not_grow_with_samples(tmp_path):
    # a linear-exact run holds one sample at a time, so its peak barely grows with their number
    few = _linear_exact_traced_peak(tmp_path / "few", 4)
    many = _linear_exact_traced_peak(tmp_path / "many", 32)
    assert many - few < 256 * 1024


def test_linear_exact_evaluates_the_profile_once_per_run(tmp_path, monkeypatch):
    # one antiderivative for the t = 0 energies, then one for the run's closed form,
    # which both passes (check, then write) share, however many samples the run has
    calls = []
    antiderivative = InitialCondition.antiderivative

    def counted(self, s):
        calls.append(1)
        return antiderivative(self, s)

    monkeypatch.setattr(InitialCondition, "antiderivative", counted)
    config = ScenarioConfig(mode="linear-exact", ic_spec="sin+0.5*cos3",
                            t_samples=tuple(0.25 * i for i in range(20)), n_chars=64,
                            out_dir=str(tmp_path / "once"))
    assert run_scenario(config) == 0
    assert len(list((tmp_path / "once").glob("state_*.csv"))) == 20
    assert len(calls) == 2


def test_linear_exact_writes_outside_any_errstate(tmp_path, monkeypatch):
    # the closed form is built under np.errstate(all="ignore"); the writer must not run in it
    seen = []
    write = cli.write_state_csv

    def recording_write(path, state):
        seen.append(np.geterr()["over"])
        write(path, state)

    monkeypatch.setattr(cli, "write_state_csv", recording_write)
    config = ScenarioConfig(mode="linear-exact", ic_spec="sin", t_samples=(0.0, 1.0, 2.0),
                            n_chars=32, out_dir=str(tmp_path / "e"))
    assert run_scenario(config) == 0
    assert seen == ["warn"] * 3


def test_unwritable_output_dir_reported(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = ScenarioConfig(mode="classify", out_dir=str(blocker / "out"))
    with pytest.raises(ConfigError):
        run_scenario(config)


def test_python_m_peakonlab_exit_codes(tmp_path):
    # __main__ hands main's code to the process: 2 on breaking, 1 on a usage error
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for args, code in ((["nonlinear", "--ic", "", "--bump", "-0.5", "--t", "0,6", "--dt", "1e-2",
                         "--nchars", "32", "--out", str(tmp_path / "brk")], 2),
                       (["nonlinear", "--dt", "abc", "--out", str(tmp_path / "bad")], 1)):
        proc = subprocess.run([sys.executable, "-m", "peakonlab", *args], capture_output=True,
                              env=env, timeout=120)
        assert proc.returncode == code


def test_cli_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # only the wave reconstruction needs it, which no CLI path runs, and a
    # classify run loads no scipy module at all
    out = str(tmp_path / "cl")
    codes = ("import sys, peakonlab.cli; print('scipy.interpolate' in sys.modules)",
             "import sys, peakonlab.cli as c; c.main(['classify', '--a', '-0.01', '--c', '1', "
             f"'--out', {out!r}]); print(any(k.startswith('scipy') for k in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for code in codes:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=60)
        assert proc.stdout.splitlines()[-1] == "False"
