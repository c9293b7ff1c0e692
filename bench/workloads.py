"""The four CLI scenarios and the oracle checks run on every output.

Each workload turns a seed into CLI arguments.  Seed 0 is the acceptance
configuration; any other seed scales the initial-condition coefficients by
factors drawn near 1, inside ranges where every check still holds.  The
``smoke`` variants keep the same modes and checks at 32 characteristics and
short horizons, so the harness can be exercised in seconds.

Checks compare the written CSVs and summary.txt against the package's own
oracles: the closed-form linear solution ``linear.exact_v``, the conserved
quantities, the H^1 growth forecast and the Riccati escape-time bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LINEAR_EXACT_TIMES = ",".join(format(0.25 * k, "g") for k in range(20))  # 0 .. 4.75
CRITERION_10_BUMP = -0.0023701623259191375  # steepest_budget_bump(0.01)


def _scaled(rng: random.Random, seed: int, value: float, spread: float) -> float:
    return value if seed == 0 else value * (1.0 + rng.uniform(-spread, spread))


def _term(coef: float, name: str) -> str:
    return name if coef == 1.0 else f"{coef!r}*{name}"


def nonlinear_sine_args(seed: int, smoke: bool) -> list:
    amp = _scaled(random.Random(seed), seed, 0.01, 0.05)
    grid = (["--t", "0,0.01,0.02", "--dt", "1e-3", "--nchars", "32"] if smoke else
            ["--t", "0,0.5,1,1.5,2", "--dt", "5e-4", "--nchars", "512"])
    return ["nonlinear", "--ic", _term(amp, "sin")] + grid


def nonlinear_breaking_args(seed: int, smoke: bool) -> list:
    beta = _scaled(random.Random(seed), seed, CRITERION_10_BUMP, 0.02)
    grid = (["--dt", "1e-2", "--nchars", "32"] if smoke else
            ["--dt", "5e-4", "--nchars", "512"])
    return ["nonlinear", "--ic", "", "--bump", repr(beta), "--t", "0,20"] + grid


def linear_exact_args(seed: int, smoke: bool) -> list:
    rng = random.Random(seed)
    a = _scaled(rng, seed, 1.0, 0.1)
    b = _scaled(rng, seed, 0.5, 0.1)
    grid = (["--t", "0,0.25", "--nchars", "32"] if smoke else
            ["--t", LINEAR_EXACT_TIMES, "--nchars", "4096"])
    return ["linear-exact", "--ic", f"{_term(a, 'sin')}+{_term(b, 'cos3')}"] + grid


def linear_energies_args(seed: int, smoke: bool) -> list:
    amp = _scaled(random.Random(seed), seed, 1.0, 0.1)
    grid = (["--t", "0,0.05,0.1", "--dt", "1e-3", "--nchars", "32"] if smoke else
            ["--t", "0,0.5,1,1.5,2", "--dt", "1e-3", "--nchars", "1024"])
    return ["energies", "--ic", _term(amp, "sin")] + grid


def read_summary(out: Path) -> dict:
    return dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())


def state_csvs(out: Path) -> list:
    return sorted(out.glob("state_*.csv"))


def _fundamental(csv: Path) -> np.ndarray:
    """(s, X, V, U, W) rows of the unshifted block, the second half of the file."""
    rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    return rows[len(rows) // 2:]


def _v_errors(out: Path, summary: dict, ic, exact_v) -> list:
    """(max |V - exact_v|, max |V|) for every CSV, at the time summary.txt gives it."""
    errors = []
    for i, csv in enumerate(state_csvs(out)):
        s, _, V, _, _ = _fundamental(csv).T
        t = float(summary[f"t{i}_time"])
        errors.append((float(np.max(np.abs(V - exact_v(t, s, ic)))), float(np.max(np.abs(V)))))
    return errors


def check_nonlinear_sine(code, out, summary, config, pkg) -> list:
    drift = {k: float(summary[f"drift_{k}"]) for k in
             ("E_u_rel", "F_u_rel", "combo_nonlinear_rel", "vbar_abs")}
    return [
        ("exit_0", code == 0, f"exit {code}"),
        ("completed", summary.get("blowup_status") == "completed", summary.get("blowup_status")),
    ] + [(f"drift_{k}<1e-5", v < 1e-5, f"{v:.3g}") for k, v in drift.items()]


def check_nonlinear_breaking(code, out, summary, config, pkg) -> list:
    t_stop = float(summary["blowup_t_stop"])
    slope = float(summary["blowup_max_abs_slope"])
    bound = float(summary.get("blowup_riccati_bound", "nan"))
    return [
        ("exit_2", code == 2, f"exit {code}"),
        ("blew_up", summary.get("blowup_status") == "blew_up", summary.get("blowup_status")),
        ("slope>=threshold", slope >= config.slope_threshold, f"{slope:.3g}"),
        ("t_stop<=riccati+dt", t_stop <= bound + config.dt, f"{t_stop} vs {bound}"),
    ]


def check_linear_exact(code, out, summary, config, pkg) -> list:
    ic = config.initial_condition()
    errors = _v_errors(out, summary, ic, pkg.linear.exact_v)
    checks = [("exit_0", code == 0, f"exit {code}"),
              ("csv_count", len(errors) == len(config.t_samples), f"{len(errors)} csv")]
    return checks + [(f"V~exact_v@t{i}", err <= 1e-12 * vmax, f"{err:.3g}")
                     for i, (err, vmax) in enumerate(errors)]


def check_linear_energies(code, out, summary, config, pkg) -> list:
    ic = config.initial_condition()
    errors = _v_errors(out, summary, ic, pkg.linear.exact_v)
    rel_errs = [float(v) for k, v in summary.items() if k.endswith("_E_rel_err")]
    combo = float(summary["drift_combo_linear_rel"])
    checks = [("exit_0", code == 0, f"exit {code}"),
              ("csv_count", len(errors) == len(config.t_samples), f"{len(errors)} csv"),
              ("E_rel_err_count", len(rel_errs) == len(config.t_samples), f"{len(rel_errs)}"),
              ("drift_combo_linear_rel<1e-6", combo < 1e-6, f"{combo:.3g}")]
    checks += [(f"V~exact_v@t{i}", err < 1e-6, f"{err:.3g}") for i, (err, _) in enumerate(errors)]
    return checks + [(f"E_rel_err@t{i}<1e-3", e < 1e-3, f"{e:.3g}") for i, e in enumerate(rel_errs)]


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable  # (seed, smoke) -> CLI argument list
    check: Callable  # (exit code, out dir, summary, config, package) -> [(name, ok, detail)]


WORKLOADS = {w.name: w for w in (
    Workload("nonlinear-sine", nonlinear_sine_args, check_nonlinear_sine),
    Workload("nonlinear-breaking", nonlinear_breaking_args, check_nonlinear_breaking),
    Workload("linear-exact-io", linear_exact_args, check_linear_exact),
    Workload("linear-ode-energies", linear_energies_args, check_linear_energies),
)}
