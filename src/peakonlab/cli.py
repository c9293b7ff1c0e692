"""Command-line front end: configure a scenario, run it, emit CSV + summary.

Modes
-----
linear-exact   closed-form linearized solution sampled at each requested time
linear-ode     RK4 integration of the linearized characteristic system
nonlinear      RK4 integration of the full nonlinear system, with breaking
               detection (exit code 2 when breaking is detected -- still a
               successful run)
energies       linear-ode run reported as an energy/growth-law table
classify       traveling-wave family for parameters (a, c)

Configuration is a flat key=value text file plus command-line overrides
(command line wins).  Keys mirror the flags: mode, ic, bump, t, dt, nchars,
threshold, out, a, c; a mode line must name the command it is given to.
The initial condition grammar is '+'-joined terms "[coef*]sin[k]",
"[coef*]cos[k]", or a bare number for a constant offset, e.g.
ic = 0.5*sin + 0.25*cos3 + 0.1; spaces may stand only around '+' and '*'.
Every number must be finite (no nan, inf or overflowing literal), in flags,
config lines and ic coefficients alike.

Each trajectory mode writes one CSV per requested time with columns
(s, X, V, U, W), the fundamental data duplicated at a -2*pi shift so plots
cover [-2*pi, 2*pi], and a summary.txt of key=value lines (peak slopes,
energies, conserved-combination drifts, breaking report).  Numbers carry 17
significant digits, lines end in LF, and repeated runs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import convolution, energetics, linear, nonlinear, waves
from .kernel import M, TWO_PI
from .profiles import InitialCondition
from .state import cosine_grid, initial_state

MODES = ("linear-exact", "linear-ode", "nonlinear", "energies", "classify")


class ConfigError(ValueError):
    """Invalid scenario configuration; message names the key or line."""


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str = "linear-exact"
    ic_spec: str = "sin"
    bump: float = 0.0
    t_samples: tuple = (0.0, 1.0, 2.0, 4.0)
    dt: float = 1e-3
    n_chars: int = 256
    slope_threshold: float = 1e6
    out_dir: str = "peakonlab-out"
    a: float = 0.0
    c: float = M

    def initial_condition(self) -> InitialCondition:
        constant, cos_c, sin_c = parse_ic_spec(self.ic_spec)
        return InitialCondition(cosine_coeffs=cos_c, sine_coeffs=sin_c,
                                bump_amplitude=self.bump, constant=constant)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for key, (field, _, _) in _KEYS.items():
            values = np.ravel(getattr(self, field))
            if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, field)!r}")
        if self.mode != "classify":
            if not self.t_samples:
                raise ConfigError("t: need at least one sample time")
            if any(t < 0 for t in self.t_samples):
                raise ConfigError("t: sample times must be nonnegative")
            if list(self.t_samples) != sorted(set(self.t_samples)):
                raise ConfigError("t: sample times must be strictly increasing")
            if self.dt <= 0:
                raise ConfigError("dt must be positive")
            if self.n_chars < 16:
                raise ConfigError("nchars must be at least 16")
            if self.slope_threshold <= 0:
                raise ConfigError("threshold must be positive")
            parse_ic_spec(self.ic_spec)
        else:
            if self.c <= 0:
                raise ConfigError("c must be positive")


_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # ASCII digits only
_TERM = re.compile(rf"(?:({_NUMBER})\*)?(sin|cos)([0-9]+)?")
_CONSTANT = re.compile(rf"{_NUMBER}|[+-]?(?i:inf|infinity|nan)")  # inf, nan: refused as not finite
_TERM_SEP = re.compile(r"(?<![eE])\+")  # a '+' after e/E is an exponent sign


def parse_ic_spec(spec: str):
    """Parse the initial-condition grammar into (constant, cos, sin) coefficients."""
    constant = 0.0
    cos_c: list = []
    sin_c: list = []

    def put(coeffs, k, value):
        while len(coeffs) < k:
            coeffs.append(0.0)
        coeffs[k - 1] += value

    spec = spec.strip()
    if spec in ("", "0", "zero"):
        return 0.0, (), ()
    for raw in _TERM_SEP.split(spec):
        raw = re.sub(r"\s*\*\s*", "*", raw.strip())  # any other space fails to parse
        if not raw:
            raise ConfigError(f"ic: empty term in {spec!r}")
        mobj = _TERM.fullmatch(raw)
        if mobj:
            coef = float(mobj.group(1)) if mobj.group(1) else 1.0
            k = int(mobj.group(3)) if mobj.group(3) else 1
            if k < 1:
                raise ConfigError(f"ic: harmonic index must be >= 1 in {raw!r}")
            put(cos_c if mobj.group(2) == "cos" else sin_c, k, coef)
            continue
        if not _CONSTANT.fullmatch(raw):
            raise ConfigError(f"ic: cannot parse term {raw!r}")
        constant += float(raw)
    if not all(map(math.isfinite, (constant, *cos_c, *sin_c))):
        raise ConfigError(f"ic: coefficients must be finite in {spec!r}")
    return constant, tuple(cos_c), tuple(sin_c)


def _sample_times(value: str) -> tuple:
    return tuple(float(x) for x in value.split(","))


#: scenario key -> (ScenarioConfig field, value parser, flag help); the
#: config file reads every key, and each key with a help text is a --flag
_KEYS = {
    "mode": ("mode", str, None),  # the subcommand on the command line
    "ic": ("ic_spec", str, "initial condition, e.g. '0.5*sin+0.25*cos3'"),
    "bump": ("bump", float, "amplitude of the peak-corner bump"),
    "t": ("t_samples", _sample_times, "comma-separated sample times"),
    "dt": ("dt", float, "integrator step"),
    "nchars": ("n_chars", int, "number of characteristics"),
    "threshold": ("slope_threshold", float, "blow-up slope threshold"),
    "out": ("out_dir", str, "output directory"),
    "a": ("a", float, "phase-plane integration constant"),
    "c": ("c", float, "wave speed (> 0)"),
}
_CLASSIFY_ONLY = ("a", "c")


def parse_config_file(path: str) -> dict:
    """Read flat key=value lines, each key at most once; '#' starts a comment; errors carry
    the line."""
    updates, seen = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        field, parse, _ = _KEYS[key]
        try:
            updates[field] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return updates


def _fmt(x) -> str:
    return format(float(x), ".17g")


_CSV_ROW_BYTES = 5 * 24 + 5  # "%.17g" takes at most 24 bytes, as in -1.2345678901234567e-308


def write_state_csv(path: Path, state) -> None:
    """One CSV per time sample, fundamental data extended periodically.

    The block shifted by -2*pi comes first, then the fundamental block, so
    the X column sweeps [-2*pi, 2*pi] for direct plotting.  The + 0.0 of the
    fundamental block prints a -0.0 position as 0.  The stage kernel formats
    both blocks in one call (``state_csv`` in ``_stage.c``), each number as
    Python's "%.17g"; the file holds the bytes
    np.savetxt(fmt="%.17g", delimiter=",") writes.
    """
    cols = np.stack((state.s, state.X, state.V, state.U, state.W), dtype=float)  # unequal: raises
    if cols.ndim != 2:
        raise ValueError(f"state columns must be 1-d, got shape {cols.shape[1:]}")
    n = cols.shape[1]
    buf = np.empty(2 * n * _CSV_ROW_BYTES, dtype=np.uint8)
    size = convolution._stage_library().state_csv(cols.ctypes.data, n, -TWO_PI, buf.ctypes.data)
    with open(path, "wb") as fh:
        fh.write(b"s,X,V,U,W\n")
        fh.write(buf[:size])


def read_state_csv(path):
    """Re-read a state CSV into named arrays (round-trips the written doubles)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in ("s", "X", "V", "U", "W")}


def _summary_lines_for_state(i: int, state, report) -> list:
    tag = f"t{i}"
    return [
        f"{tag}_time={_fmt(state.t)}",
        f"{tag}_peak_slope_right={_fmt(state.U[0])}",
        f"{tag}_peak_slope_left={_fmt(state.U[-1])}",
        f"{tag}_v_peak={_fmt(state.v_peak)}",
        f"{tag}_max_abs_V={_fmt(np.max(np.abs(state.V)))}",
        f"{tag}_E_v={_fmt(report.E_v)}",
        f"{tag}_F_v={_fmt(report.F_v)}",
        f"{tag}_P={_fmt(report.P)}",
        f"{tag}_S={_fmt(report.S)}",
        f"{tag}_E_u={_fmt(report.E_u)}",
        f"{tag}_F_u={_fmt(report.F_u)}",
        f"{tag}_vbar={_fmt(report.vbar_measured)}",
        f"{tag}_combo_linear={_fmt(report.combo_linear)}",
        f"{tag}_combo_nonlinear={_fmt(report.combo_nonlinear)}",
    ]


def _drift_lines(reports) -> list:
    drifts = energetics.check_conserved(reports)
    keys = [(key, kind) for key in ("combo_linear", "combo_nonlinear", "E_u", "F_u")
            for kind in ("abs", "rel")] + [("vbar", "abs"), ("v_peak", "abs")]
    return [f"drift_{key}_{kind}={_fmt(drifts[key][kind])}" for key, kind in keys]


def _report_values(report) -> tuple:
    """A report's fields and both combinations: the numbers that must be finite."""
    return (*astuple(report), report.combo_linear, report.combo_nonlinear)


def _output_dir(path: str, csv_names) -> Path:
    """The output directory, created if need be.  A state CSV already in it that this run
    will not write is an error, so a summary never sits beside another run's states."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        stale = sorted(p.name for p in out.iterdir()
                       if re.fullmatch(r"state_[0-9]+\.csv", p.name) and p.name not in csv_names)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc}") from None
    if stale:
        raise ConfigError(f"output directory {out} holds {stale[0]}, which this run would not write")
    return out


def _closed_form_states(closed_form, times):
    """Each sample's closed-form state from the run's one evaluator."""
    for t in times:
        with np.errstate(all="ignore"):
            state = closed_form.state(t)
        yield state  # outside the errstate, so the caller keeps its own


def run_scenario(config: ScenarioConfig) -> int:
    """Execute one scenario; returns the process exit code (0, or 2 on breaking).

    Every sample is checked and reported in one pass before anything is written,
    and closed-form states are rebuilt to be written, so a run holds one at a time;
    the run's one closed-form evaluator does the work that does not depend on t.
    The report pass runs with NumPy's floating-point warnings off: a non-finite
    number is refused by name (t=0 energies, a linear sample) or printed as nan or
    inf (a breaking run's stop state), never reported by a warning.  The output
    directory is created only once the run has produced its result, so a rejected
    or failed run leaves nothing behind.
    """
    config.validate()
    lines = [f"mode={config.mode}"]

    if config.mode == "classify":
        fam = waves.classify(config.a, config.c)
        pts = ";".join(_fmt(p) for p in fam.critical_points)
        lines += [f"a={_fmt(fam.a)}", f"c={_fmt(fam.c)}",
                  f"family={fam.family}", f"critical_points={pts}"]
        out = _output_dir(config.out_dir, ())
        (out / "summary.txt").write_text("\n".join(lines) + "\n", newline="\n")
        print(f"a={_fmt(config.a)} c={_fmt(config.c)} -> {fam.family}")
        return 0

    ic = config.initial_condition()
    exit_code = 0
    with np.errstate(all="ignore"):  # the report pass: no number warns, each is checked
        start = energetics.energies(initial_state(ic, config.n_chars))
        if not all(map(math.isfinite, _report_values(start))):
            raise ConfigError(f"ic: t=0 energies not finite for {config.ic_spec!r}, "
                              f"bump {config.bump:g}")
        lines += [
            f"ic={config.ic_spec}",
            f"bump={_fmt(config.bump)}",
            f"nchars={config.n_chars}",
            f"dt={_fmt(config.dt)}",
            "t_samples=" + ",".join(_fmt(t) for t in config.t_samples),
        ]

        if config.mode == "linear-exact":
            closed_form = linear.ClosedForm(ic, cosine_grid(config.n_chars))
            states = functools.partial(_closed_form_states, closed_form, config.t_samples)
        elif config.mode in ("linear-ode", "energies"):
            traj = linear.integrate_linear(ic, config.t_samples[-1], dt=config.dt,
                                           n_chars=config.n_chars,
                                           save_times=config.t_samples)
        elif config.mode == "nonlinear":
            traj = nonlinear.integrate_nonlinear(
                ic, config.t_samples[-1], dt=config.dt, n_chars=config.n_chars,
                slope_threshold=config.slope_threshold, save_times=config.t_samples)
            lines.append(f"blowup_status={traj.status}")
            lines.append(f"blowup_t_stop={_fmt(traj.t_stop)}")
            lines.append(f"blowup_max_abs_slope={_fmt(traj.max_abs_slope)}")
            if traj.status == "blew_up":
                forcing = nonlinear.measured_forcing_bound(traj)
                bound = nonlinear.riccati_bound(traj.diag_u_right[0], forcing)
                lines.append(f"blowup_measured_forcing={_fmt(forcing)}")
                lines.append(f"blowup_riccati_bound={_fmt(bound)}")
                exit_code = 2
        if config.mode != "linear-exact":
            states = functools.partial(iter, traj.states)

        reports, state_lines = [], []
        for i, (last, state) in enumerate(zip((0.0, *config.t_samples), states())):
            report = energetics.energies(state)
            if config.mode != "nonlinear":  # a breaking run's stop state may be past resolution
                for what, xs in (("closed-form state", state.stack()),
                                 ("energies", _report_values(report))):
                    if not np.isfinite(xs).all():
                        raise linear.IntegrationError(f"{what} not finite at t={state.t:g}", last)
            reports.append(report)
            state_lines += _summary_lines_for_state(i, state, report)

        csv_names = [f"state_{i:02d}.csv" for i in range(len(reports))]
        lines += [f"csv_{i:02d}={name}" for i, name in enumerate(csv_names)] + state_lines
        if reports:
            lines += _drift_lines(reports)
        if config.mode == "energies":
            consts = linear.h1_constants(ic, config.n_chars)
            lines += [f"h1_{name}={_fmt(getattr(consts, name))}"
                      for name in ("C1", "C2", "C3", "S_plus", "S_minus")]
            for i, report in enumerate(reports):
                pred = consts.energy(report.t)
                rel = abs(report.E_v - pred) / abs(pred) if pred else 0.0
                lines += [f"t{i}_E_pred={_fmt(pred)}", f"t{i}_E_rel_err={_fmt(rel)}"]

    convolution._stage_library()  # the CSV writer's: a failed build leaves nothing either
    out = _output_dir(config.out_dir, csv_names)  # only now: a failed run leaves nothing
    for name, state in zip(csv_names, states()):
        write_state_csv(out / name, state)
    (out / "summary.txt").write_text("\n".join(lines) + "\n", newline="\n")
    print(f"{config.mode}: wrote {len(csv_names)} sample(s) to {out}")
    if exit_code == 2:
        print("wave breaking detected; see summary.txt")
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakonlab",
        description="perturbations of the peaked periodic wave: exact linear "
                    "solutions, characteristic integrators, breaking detection")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="flat key=value scenario file")
        for key, (_, parse, help_text) in _KEYS.items():
            if help_text and (mode == "classify" or key not in _CLASSIFY_ONLY):
                p.add_argument(f"--{key}", type=parse, help=help_text)
    return parser


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario of parsed flags: defaults, then the --config file, then flags set."""
    config = ScenarioConfig(mode=args.mode)
    if args.config:
        updates = parse_config_file(args.config)
        if updates.get("mode", args.mode) != args.mode:
            raise ConfigError(f"{args.config}: mode {updates['mode']!r} does not match "
                              f"the command {args.mode!r}")
        config = replace(config, **updates)
    flags = {field: getattr(args, key, None) for key, (field, _, _) in _KEYS.items()}
    return replace(config, **{f: v for f, v in flags.items() if v is not None})


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return 1  # usage error; exit code 2 means wave breaking
    try:
        config = config_from_args(args)
        return run_scenario(config)
    except (ConfigError, waves.ClassificationError, linear.IntegrationError, ValueError,
            OSError, convolution.StageBuildError) as exc:  # OSError: writing the outputs
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
