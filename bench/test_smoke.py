"""Smoke test of the benchmark harness at 32 characteristics and short horizons.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the correctness gate runs and passes, and that it fails on a corrupted
output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric_and_passes_the_gate(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert result["attempted"] > 0
    assert (result["failed"], result["correct"]) == (0, True), proc.stderr


def test_gate_rejects_a_corrupted_csv(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import peakonlab
    from peakonlab import cli
    from workloads import read_summary

    workload = WORKLOADS["linear-exact-io"]
    args = workload.args(0, True) + ["--out", str(tmp_path)]
    assert cli.main(args) == 0
    config = cli.config_from_args(cli.build_parser().parse_args(args))

    def failures():
        checks = workload.check(0, tmp_path, read_summary(tmp_path), config, peakonlab)
        return [name for name, ok, _ in checks if not ok]

    assert failures() == []
    csv = tmp_path / "state_01.csv"
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    rows[-5, 2] += 1e-9  # V of one fundamental-block row
    np.savetxt(csv, rows, delimiter=",", header="s,X,V,U,W", comments="", fmt="%.17g")
    assert failures() == ["V~exact_v@t1"]
