"""Command-line harness: config parsing, outputs, determinism, exit codes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from peakonlab import cli
from peakonlab.cli import (ConfigError, ScenarioConfig, main, parse_config_file,
                           parse_ic_spec, read_state_csv, run_scenario)
from peakonlab.kernel import M
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


def test_non_finite_linear_run_reported_as_error(tmp_path, capsys):
    # steps of 0.5 overflow the e^t end near t = 708; that is an error, not a crash
    code = main(["linear-ode", "--ic", "cos", "--t", "800", "--dt", "0.5",
                 "--nchars", "16", "--out", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert "t=708" in err


def test_usage_errors_exit_1_not_breaking_code(tmp_path):
    # exit code 2 is reserved for detected wave breaking
    out = str(tmp_path / "u")
    assert main(["nonlinear", "--dt", "abc", "--out", out]) == 1
    assert main(["nonlinear", "--no-such-flag", "--out", out]) == 1
    assert main(["no-such-mode"]) == 1
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


def test_unwritable_output_dir_reported():
    config = ScenarioConfig(mode="classify", out_dir="/proc/definitely/not/writable")
    with pytest.raises(ConfigError):
        run_scenario(config)
