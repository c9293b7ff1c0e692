"""The pair summary of scripts/bench_pairs.py: directions, wins and quartiles."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def _pair(k, parent, change):
    def run(values):
        return {"result": {"metrics": {name: {"value": v, "unit": "s"}
                                       for name, v in values.items()}}}
    return {"workload": "w", "trace": 0, "pair": k, "order": ["parent", "change"],
            "runs": {"parent": run(parent), "change": run(change)}}


def test_summary_counts_wins_in_each_metric_direction():
    pairs = [_pair(0, {"run_s": 2.0, "rate": 1.0}, {"run_s": 1.0, "rate": 2.0}),
             _pair(1, {"run_s": 2.0, "rate": 1.0}, {"run_s": 2.0, "rate": 0.5}),
             _pair(2, {"run_s": 4.0, "rate": 1.0}, {"run_s": 3.0, "rate": 3.0})]
    rows = _summarize()(pairs, {"run_s": "lower", "rate": "higher"})["w"]["trace0"]
    assert rows["run_s"]["change_wins"] == 2  # the tie counts for neither side
    assert rows["rate"]["change_wins"] == 2
    assert rows["run_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 3.0}
    assert rows["run_s"]["median_change_rel"] == pytest.approx(0.0)
    assert rows["rate"]["pairs"] == 3
