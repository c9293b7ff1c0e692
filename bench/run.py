"""Benchmark of the peakonlab command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Every scenario run is a fresh Python process
(bench/scenario.py) that imports ``peakonlab.cli`` from ``src/`` and calls
``cli.run_scenario``; the runs form a closed loop of one client, started one
after another until S seconds have passed (at least two, so that reruns can
be compared byte for byte).  Every run's CSVs and summary.txt go through the
oracle checks in workloads.py.

``--trace 0`` reports the end-to-end metrics as medians over the runs.
``--trace 1`` alternates plain and traced runs for S seconds, reports the
per-layer numbers from the traced runs' boundary spans (tracer.py) and the
tracing overhead, then runs the layer sweep (sweep.py).  Metric names and
units come from BENCHMARK.json at the repository root; the last stdout line
is the JSON result, and bench/_work/<workload>/result.json keeps the
environment, every run's numbers and every check.

Workloads and what each one should move:

* nonlinear-sine -- criterion 8 (0.01*sin to t=2, dt=5e-4, 512 characteristics,
  4,000 RK4 steps).  Bound by the cost of issuing NumPy calls per RHS stage:
  self time of convolution.*, quadrature.fd_derivative and
  nonlinear.integrate_nonlinear moves run_s and sim_t_per_s here.
* nonlinear-breaking -- criterion 10 (steepest_budget_bump(0.01) to t=20,
  stops near t=6.75 after 13,507 steps, exit 2).  Long horizon, almost no
  output: nonlinear.rk4_steps moves run_s; runs the breaking path.  Not
  listed in BENCHMARK.json: one run takes 10-17 s, so a run of the benchmark
  holds too few of them for a steady median on a 2-CPU machine whose speed
  drifts; it stays runnable with --workload.
* linear-exact-io -- 20 closed-form samples at 4096 characteristics.  CLI
  IO, the thread pool and set-up; no integrator.  cli.write_state_csv self
  time moves run_s here, and stepper work should leave it unchanged.
* linear-ode-energies -- criterion 7 (sin to t=2, dt=1e-3, 1024 characteristics,
  2,000 linear RK4 steps, energies and the H^1 forecast).
  linear.integrate_linear self time, energetics.energies and
  linear.h1_constants move run_s here.

Import cost (mostly scipy.interpolate, pulled in by nonlinear) moves setup_s
on every workload.  Layers are the modules under src/peakonlab; profiles and
state are reached only through the traced functions, and no workload runs
waves (the classify mode), which costs microseconds: it is named here and
not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from sweep import BATCHES, roadmap_lines, run_sweep
from tracer import TRACED, SpanSet
from workloads import WORKLOADS, read_summary, state_csvs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_RUNS = 2
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
ROADMAP_NODE_CONV_SHARE = 0.58  # cProfile share of node_convolutions in a step
ROADMAP_FD_SHARE = 0.12

CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PEAKON_LAB_THREADS"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def launch(cli_args, out: Path, spans: Path | None = None, setup_only=False) -> dict:
    """Start one scenario process, wait for it, and return its report."""
    cmd = [sys.executable, str(HERE / "scenario.py"), "--src", str(SRC), "--out", str(out)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--", *cli_args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                          timeout=CHILD_TIMEOUT_S)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"scenario process exited {proc.returncode} without a report:\n"
                         f"{proc.stderr[-2000:]}") from None
    report["returncode"] = proc.returncode
    return report


def tree_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class Bench:
    def __init__(self, pkg, workload, seed: int, smoke: bool, work: Path):
        self.pkg = pkg
        self.workload = workload
        self.cli_args = workload.args(seed, smoke)
        self.config = pkg.cli.config_from_args(pkg.cli.build_parser().parse_args(self.cli_args))
        self.work = work
        self.runs: list = []
        self.checks: list = []

    def setup_probe(self) -> float:
        return launch(self.cli_args, self.work / "probe", setup_only=True)["setup_s"]

    def scenario(self, traced: bool) -> dict:
        """One scenario process, checked against the oracles and the first run."""
        k = len(self.runs)
        out = self.work / f"run{k:02d}"
        spans = self.work / f"spans{k:02d}.npz" if traced else None
        run = launch(self.cli_args, out, spans)
        run.update(traced=traced, spans=spans)
        try:
            summary = read_summary(out)
            checks = self.workload.check(run["returncode"], out, summary, self.config, self.pkg)
            csvs = state_csvs(out)
            run["states"] = len(csvs)
            run["csv_bytes"] = sum(p.stat().st_size for p in csvs)
            run["sim_t"] = (float(summary["blowup_t_stop"]) if self.config.mode == "nonlinear"
                            else self.config.t_samples[-1])
            run["energy_drift_rel"] = float(summary["drift_E_u_rel"])
            run["digest"] = tree_digest(out)
        except (OSError, KeyError, ValueError) as exc:
            checks = [("outputs_readable", False, repr(exc))]
        if k > 0:
            same = run.get("digest") == self.runs[0].get("digest")
            checks.append(("byte_identical_to_run00", same, "" if same else "outputs differ"))
            shutil.rmtree(out, ignore_errors=True)
        run["checks"] = [list(c) for c in checks]
        self.checks += [(k, *c) for c in checks]
        self.runs.append(run)
        return run

    def timed(self, key: str, traced: bool) -> list:
        return [r[key] for r in self.runs if r["traced"] == traced]

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok, _ in self.checks)


def repeat_within(seconds: float, min_times: int, step) -> None:
    """Call step() min_times, then again while the next call should end in time."""
    deadline = time.perf_counter() + seconds
    done, last = 0, 0.0
    while done < min_times or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        step()
        last = time.perf_counter() - start
        done += 1


def end_to_end(bench: Bench, seconds: float, min_setup: int) -> dict:
    repeat_within(seconds, MIN_RUNS, lambda: bench.scenario(traced=False))
    setups = bench.timed("setup_s", False)
    while len(setups) < min_setup:
        setups.append(bench.setup_probe())
    measured = [r for r in bench.runs if "sim_t" in r]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(bench.timed("run_s", False)), len(bench.runs)),
        "sim_t_per_s": (statistics.median(r["sim_t"] / r["run_s"] for r in measured), len(measured)),
        "states_per_s": (statistics.median(r["states"] / r["run_s"] for r in measured), len(measured)),
        "peak_rss_mb": (statistics.median(bench.timed("peak_rss_mb", False)), len(bench.runs)),
    }


def layer_metrics(spans_path: Path, run: dict) -> dict:
    spans = SpanSet(spans_path)
    stats = spans.stats()
    out = {}
    for name in TRACED:
        for key in ("calls", "total_s", "self_s"):
            out[f"{name}.{key}"] = stats[name][key]
    stages, conv_s = spans.under("convolution.node_convolutions", "nonlinear.integrate_nonlinear")
    _, fd_s = spans.under("quadrature.fd_derivative", "nonlinear.integrate_nonlinear")
    linear_phi, _ = spans.under("kernel.phi_open_interval", "linear.integrate_linear")
    nl_s = stats["nonlinear.integrate_nonlinear"]["total_s"]
    csv_s = stats["cli.write_state_csv"]["total_s"]
    # one node_convolutions call per RHS stage, one phi_open_interval per linear stage
    out["nonlinear.rk4_steps"] = stages // 4
    out["nonlinear.stage_us"] = nl_s / stages * 1e6 if stages else 0.0
    out["nonlinear.node_convolutions_share"] = conv_s / nl_s if nl_s else 0.0
    out["nonlinear.fd_derivative_share"] = fd_s / nl_s if nl_s else 0.0
    out["linear.rk4_steps"] = linear_phi // 4
    out["cli.csv_bytes"] = run["csv_bytes"]
    out["cli.csv_mb_per_s"] = run["csv_bytes"] / 1e6 / csv_s if csv_s else 0.0
    return out


def per_layer(bench: Bench, seconds: float, smoke: bool) -> dict:
    def pair():
        bench.scenario(traced=False)
        bench.scenario(traced=True)

    repeat_within(seconds, 1, pair)
    traced_runs = [r for r in bench.runs if r["traced"] and "csv_bytes" in r]
    per_run = [layer_metrics(r["spans"], r) for r in traced_runs]
    for r in traced_runs:
        r["spans"].unlink()
    # median_low keeps counts whole: every value is one traced run's
    out = {name: (statistics.median_low(m[name] for m in per_run), len(per_run))
           for name in per_run[0]} if per_run else {}
    plain = statistics.median(bench.timed("run_s", False))
    traced = statistics.median(bench.timed("run_s", True))
    out["trace.overhead_ratio"] = (traced / plain - 1.0, len(bench.runs))
    drifts = [r["energy_drift_rel"] for r in bench.runs if "energy_drift_rel" in r]
    out["energy_drift_rel"] = (statistics.median(drifts), len(drifts)) if drifts else None
    out["failure_ratio"] = (bench.failed / len(bench.checks), len(bench.checks))

    share = out.get("nonlinear.node_convolutions_share", (0.0, 0))[0]
    fd_share = out.get("nonlinear.fd_derivative_share", (0.0, 0))[0]
    if share:
        print(f"node_convolutions share of integrate_nonlinear: {share:.3f} "
              f"(ROADMAP, cProfile: {ROADMAP_NODE_CONV_SHARE:.2f}); "
              f"fd_derivative: {fd_share:.3f} (ROADMAP {ROADMAP_FD_SHARE:.2f})")
    batches = 1 if smoke else BATCHES
    sweep = run_sweep(bench.pkg, bench.work, batches)
    out.update({name: (us, batches) for name, us in sweep.items()})
    for line in roadmap_lines(sweep):
        print(line)
    return out


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "PEAKON_LAB_THREADS_set": "PEAKON_LAB_THREADS" in os.environ,
        "PEAKON_LAB_THREADS_in_runs": "unset",
    }


def import_package():
    if not (SRC / "peakonlab" / "cli.py").is_file():
        raise BenchError(f"peakonlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import peakonlab
    import peakonlab.cli

    if SRC.resolve() not in Path(peakonlab.__file__).resolve().parents:
        raise BenchError(f"peakonlab imported from {peakonlab.__file__}, not {SRC}")
    return peakonlab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="32 characteristics and short horizons, for a quick harness check")
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pkg = import_package()
        work = WORK / (f"{args.workload}-smoke" if args.smoke else args.workload)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        env = environment(args)
        bench = Bench(pkg, WORKLOADS[args.workload], args.seed, args.smoke, work)
        launch(bench.cli_args, work / "probe", setup_only=True)  # warm caches, untimed
        if args.trace:
            values, wanted = per_layer(bench, args.seconds, args.smoke), spec["per_layer"]
        else:
            min_setup = MIN_RUNS if args.smoke else MIN_SETUP_SAMPLES
            values, wanted = end_to_end(bench, args.seconds, min_setup), spec["end_to_end"]
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        value, count = values[m["name"]]
        print(f"{m['name']} = {value:.6g} {m['unit']} (median of {count})")
    for k, name, ok, detail in bench.checks:
        if not ok:
            print(f"check failed: run{k:02d} {name}: {detail}", file=sys.stderr)
    result = {"correct": bench.failed == 0, "attempted": len(bench.checks),
              "failed": bench.failed, "metrics": metrics}
    record = {"env": env, "args": bench.cli_args, "result": result,
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in bench.runs]}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
