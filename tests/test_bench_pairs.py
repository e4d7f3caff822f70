"""tools/bench_pairs.py: its summary of alternating benchmark runs, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(workload, parent, change, metric="wall_s"):
    runs = []
    for pair, (a, b) in enumerate(zip(parent, change), start=1):
        for side, value in (("parent", a), ("change", b)):
            result = {"correct": True, "attempted": 3, "failed": 0,
                      "metrics": {metric: {"value": value, "unit": "s"}}}
            runs.append({"side": side, "pair": pair, "workload": workload, "seed": pair,
                         "trace": 0, "result": result})
    return runs


def test_a_gain_won_in_nine_of_ten_pairs_beyond_the_parents_quartiles_is_claimable():
    parent = [4.0, 4.2, 3.8, 4.1, 3.9, 4.0, 4.3, 3.7, 4.0, 4.1]
    change = [3.0, 3.1, 2.9, 3.2, 3.0, 4.1, 3.3, 2.8, 3.0, 3.1]  # loses pair 6
    s = bench_pairs.summarise(_runs("kernels-reference", parent, change), END_TO_END)
    wall = s["kernels-reference"]["wall_s"]
    assert wall["parent"]["median"] == 4.0
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((3.925, 4.1))
    assert wall["parent"]["spread"] == pytest.approx((4.3 - 3.7) / 4.0)
    assert wall["change"]["median"] == 3.05
    assert wall["pairs"] == 10 and wall["pairs_won"] == 9
    assert wall["relative_change"] == pytest.approx(-0.2375)
    assert wall["median_pair_ratio"] == pytest.approx((2.8 / 3.7 + 2.9 / 3.8) / 2)  # pairs 8, 3
    assert wall["within_bound"] and wall["beyond_parent_iqr"] and wall["claimable_gain"]
    assert s["kernels-reference"]["attempted"] == {"parent": 30, "change": 30}
    assert "setup_s" not in s["kernels-reference"]  # no run reported it


def test_ties_win_no_pair_and_a_rise_past_the_bound_is_flagged():
    parent = [2.0] * 10
    s = bench_pairs.summarise(_runs("fpsolve-fine", parent, [2.0] * 10), END_TO_END)
    assert s["fpsolve-fine"]["wall_s"]["pairs_won"] == 0
    assert not s["fpsolve-fine"]["wall_s"]["claimable_gain"]
    s = bench_pairs.summarise(_runs("fpsolve-fine", parent, [2.6] * 10), END_TO_END)
    wall = s["fpsolve-fine"]["wall_s"]
    assert not wall["within_bound"]  # +30% against a bound of 0.25
    assert wall["beyond_parent_iqr"] and not wall["claimable_gain"]


def test_incorrect_runs_are_counted_but_not_summarised():
    runs = _runs("table1-reference", [4.0, 4.1, 4.2], [3.0, 3.1, 9.9], metric="peak_rss_mb")
    runs[-1]["result"].update(correct=False, failed=1)
    s = bench_pairs.summarise(runs, END_TO_END)["table1-reference"]
    assert s["failed"] == {"parent": 0, "change": 1}
    assert s["peak_rss_mb"]["pairs"] == 2  # the failed pair is left out
    assert s["peak_rss_mb"]["change"]["n"] == 2


def test_both_checkouts_hold_bytecode_before_the_first_pair(tmp_path):
    checkouts = [tmp_path / side for side in bench_pairs.SIDES]
    for checkout in checkouts:
        for folder in ("src", "perfbench"):
            (checkout / folder).mkdir(parents=True)
            (checkout / folder / "tiny.py").write_text("X = 1\n")
    bench_pairs.compile_bytecode(checkouts)
    for checkout in checkouts:
        for folder in ("src", "perfbench"):
            assert list((checkout / folder / "__pycache__").glob("tiny.*.pyc"))
