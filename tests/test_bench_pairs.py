"""The pair summary of scripts/bench_pairs.py: directions, wins and quartiles."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarize():
    return _script().summarize


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


def _verdict(parent, change, better="lower", bound=0.25):
    pairs = [_pair(k, {"run_s": p}, {"run_s": c}) for k, (p, c) in enumerate(zip(parent, change))]
    rows = _script().summarize(pairs, {"run_s": better}, {"run_s": bound})["w"]["trace0"]
    return rows["run_s"]["verdict"]


PARENT = [2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.1, 1.9, 2.0]  # median 2.0, q3 - q1 0.1


def test_verdict_gain_needs_nine_wins_and_a_median_beyond_the_parent_spread():
    faster = [p - 0.3 for p in PARENT]
    assert _verdict(PARENT, faster) == "gain"
    assert _verdict([-x for x in PARENT], [-x for x in faster], "higher") == "gain"
    eight = faster[:8] + PARENT[8:]  # 8/10 wins
    assert _verdict(PARENT, eight) == "no worse"
    close = [p - 0.04 for p in PARENT]  # 10/10 wins, median inside the spread
    assert _verdict(PARENT, close) == "no worse"


def test_verdict_worse_beyond_the_bound_of_the_parent_median():
    assert _verdict(PARENT, [p * 1.3 for p in PARENT]) == "worse"
    assert _verdict(PARENT, [p * 1.2 for p in PARENT]) == "no worse"
    assert _verdict(PARENT, [p * 0.7 for p in PARENT], "higher") == "worse"


def test_verdict_unresolved_when_the_parent_spreads_beyond_the_bound():
    wide = [1.0, 3.0, 1.2, 2.8, 1.1, 2.9, 1.0, 3.0, 2.0, 2.0]  # q3 - q1 > 0.25 * median
    assert _verdict(wide, [p - 0.01 for p in wide]) == "unresolved"
    assert _verdict(wide, [0.1] * 10) == "gain"  # every change run beats every parent run


def test_verdict_no_worse_for_a_flat_change():
    assert _verdict(PARENT, PARENT[::-1]) == "no worse"


def _outputs(parent_digests, change_digests):
    pairs = [_pair(k, {"run_s": 1.0}, {"run_s": 1.0}) for k in range(len(parent_digests))]
    for pair, parent, change in zip(pairs, parent_digests, change_digests):
        for side, digests in (("parent", parent), ("change", change)):
            if digests is not None:
                pair["runs"][side]["digests"] = digests
    return _summarize()(pairs, {"run_s": "lower"})["w"]["trace0"]["outputs"]


def test_outputs_identical_only_when_every_run_of_both_sides_has_one_digest():
    assert _outputs([["a"], ["a"]], [["a"], ["a"]]) == "identical"
    assert _outputs([["a"], ["a"]], [["a"], ["b"]]) == "differ"
    assert _outputs([["a", "b"]], [["a"]]) == "differ"  # the parent's own runs differ
    assert _outputs([["a"], ["a"]], [["a"], [None]]) == "unknown"  # a run without a digest
    assert _outputs([["a"]], [None]) == "unknown"  # a pair recorded without digests


def test_src_lines_is_the_wc_total_of_the_package_modules(tmp_path):
    package = tmp_path / "src" / "peakonlab"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n\n")
    (package / "b.py").write_text("z = 3\nlast line without newline")
    (package / "k.c").write_text("int f(void)\n{\n    return 0;\n}\n")
    (package / "notes.txt").write_text("not a module\n")
    (package / "k.so").write_bytes(b"\x7fELF\n\n")
    (package / "sub" / "c.py").write_text("not in the glob\n")
    (package / "sub" / "d.c").write_text("not in the glob\n")
    assert _script().src_lines(tmp_path) == 8
    if shutil.which("wc"):
        sources = sorted(str(p) for pattern in ("*.py", "*.c") for p in package.glob(pattern))
        wc = subprocess.run(["wc", "-l", *sources], capture_output=True, text=True, check=True)
        assert int(wc.stdout.split()[-2]) == 8
