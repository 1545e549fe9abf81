"""The claim rule of `tools/bench_pairs.py`, on synthetic numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [0.50, 0.48, 0.52, 0.49, 0.51, 0.50, 0.47, 0.53, 0.50, 0.49]   # IQR 0.02


def test_a_clear_gain_meets_the_claim():
    change = [p * 0.8 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.claim_holds(PARENT, change, "lower")


def test_nine_wins_are_enough_and_eight_are_not():
    nine = [p * 0.8 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    eight = [p * 0.8 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert bench_pairs.claim_holds(PARENT, nine, "lower")
    assert not bench_pairs.claim_holds(PARENT, eight, "lower")


def test_a_gap_inside_the_parent_iqr_fails_even_when_every_pair_wins():
    change = [p - 0.005 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert not bench_pairs.claim_holds(PARENT, change, "lower")


def test_higher_is_better_metrics_flip_the_direction():
    rates = [1 / p for p in PARENT]
    assert bench_pairs.claim_holds(rates, [r * 1.25 for r in rates], "higher")
    assert not bench_pairs.claim_holds(rates, [r * 0.8 for r in rates], "higher")
    assert not bench_pairs.claim_holds(PARENT, [p * 1.25 for p in PARENT], "lower")


def test_no_pairs_is_no_claim():
    assert not bench_pairs.claim_holds([], [], "lower")


@pytest.mark.parametrize("better, parent, change, worse", [
    ("lower", 1.0, 1.2, False), ("lower", 1.0, 1.3, True),
    ("higher", 10.0, 8.0, False), ("higher", 10.0, 7.0, True),
])
def test_bound_is_a_relative_loss_of_the_median(better, parent, change, worse):
    assert bench_pairs.worse_than_bound([parent] * 3, [change] * 3, better, 0.25) is worse


def test_summary_flags_a_metric_worse_than_its_bound(tmp_path, capsys):
    def results(path, walls, rss):
        runs = [{"workload": "cdc", "trace": 0, "attempted": 10, "failed": 0,
                 "metrics": {"wall_s": w, "peak_rss_mb": r}} for w, r in zip(walls, rss)]
        path.write_text(json.dumps({"meta": {}, "runs": runs}))
        return path

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    parent = results(tmp_path / "p.json", PARENT, [20.0] * 10)
    fast = results(tmp_path / "fast.json", [p * 0.8 for p in PARENT], [20.2] * 10)
    assert bench_pairs.summarize(parent, fast, "cdc", spec) == 0
    fat = results(tmp_path / "fat.json", [p * 0.8 for p in PARENT], [23.0] * 10)
    assert bench_pairs.summarize(parent, fat, "cdc", spec) == 1
    out = capsys.readouterr().out
    assert "10/10" in out and "WORSE" in out
