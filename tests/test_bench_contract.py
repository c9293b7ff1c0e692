"""The names and call shapes the benchmark under bench/ uses still work in peakonlab.

A refactor that deletes or renames one of them, or changes the arguments the
layer sweep passes, would otherwise break only the benchmark.  bench/ is
imported read-only: no bytecode is written there.
"""

import importlib
import sys
from pathlib import Path

import pytest

import peakonlab.cli  # the sweep calls peakonlab.cli.write_state_csv

BENCH = Path(__file__).resolve().parents[1] / "bench"
ENTRY_POINTS = ("cli.build_parser", "cli.config_from_args", "linear.exact_v")


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def _bench_names():
    traced, swept = _bench_module("tracer").TRACED, _bench_module("sweep").FUNCTIONS
    return sorted(set(traced) | set(swept) | set(ENTRY_POINTS))


@pytest.mark.parametrize("qualname", _bench_names())
def test_benchmark_name_resolves(qualname):
    module_name, func_name = qualname.split(".")
    module = importlib.import_module(f"peakonlab.{module_name}")
    assert callable(getattr(module, func_name, None)), qualname


def test_layer_sweep_runs(tmp_path):
    sweep = _bench_module("sweep")
    result = sweep.run_sweep(peakonlab, tmp_path, batches=1)
    assert set(result) == {f"{fn}.us_n{n}" for fn in sweep.FUNCTIONS for n in sweep.SIZES}
    assert all(us > 0 for us in result.values()) and list(tmp_path.iterdir()) == []
