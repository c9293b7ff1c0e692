"""The names the benchmark under bench/ calls still resolve in peakonlab.

A refactor that deletes or renames one of them would otherwise break only
the benchmark.  bench/ is imported read-only: no bytecode is written there.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
ENTRY_POINTS = ("cli.build_parser", "cli.config_from_args", "linear.exact_v")


def _bench_names():
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from sweep import FUNCTIONS
        from tracer import TRACED
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return sorted(set(TRACED) | set(FUNCTIONS) | set(ENTRY_POINTS))


@pytest.mark.parametrize("qualname", _bench_names())
def test_benchmark_name_resolves(qualname):
    module_name, func_name = qualname.split(".")
    module = importlib.import_module(f"peakonlab.{module_name}")
    assert callable(getattr(module, func_name, None)), qualname
