"""Run the benchmark on two commits in alternating pairs and write a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_1.json

Each DIR is a checkout of one commit (``git clone`` or ``git archive``), so
each side runs the benchmark and the sources of its own tree.  A pair runs

    python3 bench/run.py --workload W --trace T

once in each checkout (with bench/run.py's default seed and duration), and
consecutive pairs swap which side goes first.  Every workload of the
change's BENCHMARK.json gets ``PAIRS[0]`` pairs with ``--trace 0``
(end-to-end metrics) and then ``PAIRS[1]`` pairs with ``--trace 1``
(per-layer metrics and the layer sweep).

The output keeps every run's result and env record, and a summary per
workload, trace setting and metric: each side's median and quartiles, the
relative change of the median, and in how many pairs the change was better
(ties count for neither side).  Metric directions and bounds come from the
change's BENCHMARK.json.  Each end-to-end row also gets a ``verdict``, the
first of these that holds:

* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound, read as a fraction of the parent's median;
* ``unresolved``: the parent's quartile spread, relative to its median,
  exceeds the bound, and not every change run beats every parent run;
* ``gain``: the change wins at least 9 of every 10 pairs and its median is
  better than the parent's by more than the parent's q3 - q1;
* ``no worse``.

Each workload and trace setting also gets an ``outputs`` entry from the
sha256 digests of the runs' output trees (bench/_work/<workload>/result.json):
``identical`` when every parent and change run has the same digest,
``differ`` otherwise, and ``unknown`` when a run has no digest.  The record's
``src_lines`` gives each side's ``wc -l src/peakonlab/*.py src/peakonlab/*.c`` total,
so compiled kernels count against the line budget with the modules.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 1800
PAIRS = {0: 10, 1: 3}  # pairs per workload with --trace 0 and with --trace 1


def run_bench(tree: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env: "):
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    runs = json.loads((tree / "bench" / "_work" / workload / "result.json").read_text())["runs"]
    return {"started": started, "env": json.loads(lines[-2][len("env: "):]),
            "result": json.loads(lines[-1]),
            "digests": list(dict.fromkeys(run.get("digest") for run in runs))}


def src_lines(tree: Path) -> int:
    """The total ``wc -l src/peakonlab/*.py src/peakonlab/*.c`` prints for a checkout: its
    newline count."""
    return sum(path.read_bytes().count(b"\n") for pattern in ("*.py", "*.c")
               for path in tree.glob(f"src/peakonlab/{pattern}"))


def outputs(group: list) -> str:
    """Whether every run of both sides wrote the same output tree (module docstring)."""
    digests = [d for p in group for side in ("parent", "change")
               for d in p["runs"][side].get("digests", [None])]
    if None in digests:
        return "unknown"
    return "identical" if len(set(digests)) == 1 else "differ"


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, parent: list, change: list, bound: float) -> str:
    """The verdict on a summary row of an end-to-end metric (module docstring)."""
    sign = -1.0 if row["better"] == "lower" else 1.0
    median, spread = row["parent"]["median"], row["parent"]["q3"] - row["parent"]["q1"]
    gain = sign * (row["change"]["median"] - median)
    separated = max(change) < min(parent) if sign < 0 else min(change) > max(parent)
    if gain < -bound * abs(median):
        return "worse"
    if spread > bound * abs(median) and not separated:
        return "unresolved"
    if row["change_wins"] >= 0.9 * row["pairs"] and gain > spread:
        return "gain"
    return "no worse"


def summarize(pairs: list, better: dict, bounds: dict | None = None) -> dict:
    """{workload: {"trace<T>": {metric: summary, "outputs": ...}}} over the recorded
    pairs; the metrics with a bound (the end-to-end ones) also get a verdict."""
    groups: dict = {}
    for pair in pairs:
        groups.setdefault((pair["workload"], pair["trace"]), []).append(pair)
    out: dict = {}
    for (workload, trace), group in groups.items():
        rows = {}
        for name in group[0]["runs"]["change"]["result"]["metrics"]:
            sides = {side: [p["runs"][side]["result"]["metrics"][name]["value"] for p in group]
                     for side in ("parent", "change")}
            sign = -1.0 if better.get(name) == "lower" else 1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
            rows[name] = {
                "unit": group[0]["runs"]["change"]["result"]["metrics"][name]["unit"],
                "better": better.get(name), "parent": parent, "change": change,
                "median_change_rel": (change["median"] / parent["median"] - 1.0
                                      if parent["median"] else None),
                "change_wins": wins, "pairs": len(group),
            }
            if bounds and name in bounds:
                rows[name]["verdict"] = verdict(rows[name], sides["parent"], sides["change"],
                                                bounds[name])
        out.setdefault(workload, {})[f"trace{trace}"] = {**rows, "outputs": outputs(group)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {side: subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                                    text=True).stdout.strip() or None
               for side, tree in trees.items()}
    record = {"command": [Path(sys.argv[0]).name, *(argv if argv is not None else sys.argv[1:])],
              "commits": commits, "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
              "pairs": []}
    for trace, count in PAIRS.items():
        for workload in (w["name"] for w in spec["workloads"]):
            for k in range(count):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                runs = {side: run_bench(trees[side], workload, trace) for side in order}
                record["pairs"].append({"workload": workload, "trace": trace, "pair": k,
                                        "order": list(order), "runs": runs})
                shown = {side: runs[side]["result"]["correct"] for side in order}
                print(f"{workload} trace={trace} pair {k}: order {order}, correct {shown}",
                      flush=True)
                record["summary"] = summarize(record["pairs"], better, bounds)
                args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
