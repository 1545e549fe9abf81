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


WIDE = [1.0, 0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1]   # IQR/median 0.35


@pytest.mark.parametrize("better, parent, change, expected", [
    ("lower", WIDE, WIDE, True),                            # wide parent, no clear win
    ("lower", WIDE, [w * 0.9 for w in WIDE], True),
    ("lower", WIDE, [0.55] * 10, False),                    # every change run beats every parent run
    ("lower", PARENT, PARENT, False),                       # narrow parent
    ("higher", WIDE, [1.5] * 10, False),
    ("higher", WIDE, [1.4] * 10, True),                     # ties the best parent run
    ("lower", [0.0] * 4, [0.0] * 4, False),
])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(better, parent, change,
                                                                 expected):
    assert bench_pairs.unresolved(parent, change, better, 0.25) is expected


def test_summary_prints_unresolved_in_place_of_ok(tmp_path, capsys):
    def results(path, walls):
        runs = [{"workload": "cdc", "trace": 0, "attempted": 10, "failed": 0,
                 "metrics": {"wall_s": w}} for w in walls]
        path.write_text(json.dumps({"meta": {}, "runs": runs}))
        return path

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    parent = results(tmp_path / "p.json", WIDE)
    for walls, word in ((WIDE, "unresolved"), ([0.5] * 10, "ok"),
                        ([w * 1.5 for w in WIDE], "WORSE")):
        status = bench_pairs.summarize(parent, results(tmp_path / "c.json", walls), "cdc", spec)
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if line.lstrip().startswith("wall_s")]
        assert row.split()[-1] == word
        # `unresolved` leaves the exit status as `ok` does.
        assert status == (word == "WORSE")


def test_summary_shows_attempted_counts_and_warns_when_they_differ(tmp_path, capsys):
    # peak_rss_mb grows with the cases a run keeps, so it is shown with the
    # median `attempted` of each side, and a gap over 10% is flagged.
    def results(path, attempted):
        runs = [{"workload": "cdc", "trace": 0, "attempted": n, "failed": 0,
                 "metrics": {"wall_s": 1.0, "peak_rss_mb": 20.0}} for n in attempted]
        path.write_text(json.dumps({"meta": {}, "runs": runs}))
        return path

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    parent = results(tmp_path / "p.json", [600, 590, 610])
    for attempted, warns in (([600, 660, 650], False), ([600, 670, 680], True),
                             ([550, 560, 540], False), ([530, 500, 520], True)):
        change = results(tmp_path / "c.json", attempted)
        assert bench_pairs.summarize(parent, change, "cdc", spec) == 0
        lines = capsys.readouterr().out.splitlines()
        (row,) = [line for line in lines if line.lstrip().startswith("peak_rss_mb")]
        assert row.endswith(f"attempted 600/{sorted(attempted)[1]}")
        assert not any(line.lstrip().startswith("wall_s") and "attempted" in line
                       for line in lines)
        assert any("warning" in line for line in lines) is warns, attempted
    assert bench_pairs.attempted_warning(0, 5) is None


def fake_side(walls: dict):
    """A `run_side` that appends one synthetic run per call, its wall time
    taken from `walls[(checkout name, workload)]` in turn."""
    calls = []

    def run_side(checkout, out, workload, seconds):
        calls.append((checkout.name, workload))
        data = json.loads(out.read_text()) if out.exists() else {"meta": {}, "runs": []}
        wall = walls[checkout.name, workload].pop(0)
        data["runs"].append({"workload": workload, "trace": 0, "attempted": 10, "failed": 0,
                             "metrics": {"wall_s": wall}})
        out.write_text(json.dumps(data))
    return run_side, calls


def test_a_workload_list_runs_every_workload_in_each_pair(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    walls = {("parent", "cdc"): [1.0, 1.0], ("change", "cdc"): [0.8, 0.8],
             ("parent", "selftest"): [2.0, 2.0], ("change", "selftest"): [2.0, 2.0]}
    run_side, calls = fake_side(walls)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    status = bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--workload", "cdc,selftest",
        "--pairs", "2", "--parent-out", str(tmp_path / "p.json"),
        "--change-out", str(tmp_path / "c.json")])
    assert status == 0
    # Both sides of a workload back to back; the first side alternates per pair.
    assert calls == [("parent", "cdc"), ("change", "cdc"),
                     ("parent", "selftest"), ("change", "selftest"),
                     ("change", "cdc"), ("parent", "cdc"),
                     ("change", "selftest"), ("parent", "selftest")]
    out = capsys.readouterr().out
    assert "cdc: 2 pairs" in out and "selftest: 2 pairs" in out


def test_a_workload_list_ors_the_bound_checks(tmp_path, monkeypatch):
    def results(path, runs):
        path.write_text(json.dumps({"meta": {}, "runs": [
            {"workload": w, "trace": 0, "attempted": 10, "failed": 0,
             "metrics": {"wall_s": v}} for w, v in runs]}))

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    results(tmp_path / "p.json", [("cdc", 1.0), ("selftest", 1.0)])
    results(tmp_path / "ok.json", [("cdc", 0.9), ("selftest", 1.1)])
    results(tmp_path / "slow.json", [("cdc", 0.9), ("selftest", 1.5)])
    argv = ["--summarize", "--workload", "cdc,selftest", "--parent-out", str(tmp_path / "p.json")]
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main(argv + ["--change-out", str(tmp_path / "ok.json")]) == 0
    assert bench_pairs.main(argv + ["--change-out", str(tmp_path / "slow.json")]) == 1
    # A workload with no runs fails the check too.
    assert bench_pairs.main(["--summarize", "--workload", "cdc,algebroid-mix",
                             "--parent-out", str(tmp_path / "p.json"),
                             "--change-out", str(tmp_path / "ok.json")]) == 1


def test_warns_when_only_one_checkout_has_bytecode(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        (side / "src" / "tancat").mkdir(parents=True)
    assert bench_pairs.bytecode_warning(parent, change) is None
    (change / "src" / "tancat" / "__pycache__").mkdir()
    warning = bench_pairs.bytecode_warning(parent, change)
    assert warning and str(change) in warning and str(parent) not in warning
    (parent / "src" / "tancat" / "__pycache__").mkdir()
    assert bench_pairs.bytecode_warning(parent, change) is None


def module_of(checkout: Path, name: str, lines: int) -> None:
    """A module of `lines` statements `x = 1`: 4 tokens each, plus ENDMARKER."""
    package = checkout / "src" / "tancat"
    package.mkdir(parents=True, exist_ok=True)
    (package / name).write_text("# a comment is not a token\n" + "x = 1\n" * lines)


@pytest.mark.parametrize("before, after, step", [(1023, 1024, 4096), (2048, 2047, 8192)])
def test_warns_when_a_module_crosses_a_token_step(tmp_path, before, after, step):
    parent, change = tmp_path / "parent", tmp_path / "change"
    module_of(parent, "poly.py", before)
    module_of(change, "poly.py", after)
    module_of(parent, "other.py", 10)
    module_of(change, "other.py", 1000)
    counts = 4 * before + 1, 4 * after + 1
    assert bench_pairs.token_count(parent / "src/tancat/poly.py") == counts[0]
    (warning,) = bench_pairs.token_step_warnings(parent, change)
    assert "src/tancat/poly.py" in warning and f"{step}-token" in warning
    assert f"{counts[0]} tokens in {parent} and {counts[1]} in {change}" in warning
    module_of(change, "poly.py", before)
    assert bench_pairs.token_step_warnings(parent, change) == []


def test_a_module_only_one_checkout_has_counts_as_zero_tokens(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    module_of(parent, "poly.py", 10)
    module_of(change, "poly.py", 10)
    module_of(change, "big.py", 1100)
    (warning,) = bench_pairs.token_step_warnings(parent, change)
    assert "src/tancat/big.py has 0 tokens" in warning
    # `main` prints it before any pair runs.
    run_side, calls = fake_side({("parent", "cdc"): [1.0], ("change", "cdc"): [1.0]})
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    bench_pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "cdc",
                      "--pairs", "1", "--parent-out", str(tmp_path / "p.json"),
                      "--change-out", str(tmp_path / "c.json")])
    assert warning in capsys.readouterr().err


def test_summary_refuses_files_with_different_run_counts(tmp_path, capsys):
    # An interrupted run leaves one parent run without its change run; the
    # k-th runs of the two files would then be shifted pairs.
    def results(path, walls):
        path.write_text(json.dumps({"meta": {}, "runs": [
            {"workload": "cdc", "trace": 0, "attempted": 10, "failed": 0,
             "metrics": {"wall_s": w}} for w in walls]}))
        return path

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    parent = results(tmp_path / "p.json", PARENT + [0.5])
    change = results(tmp_path / "c.json", PARENT)
    assert bench_pairs.summarize(parent, change, "cdc", spec) == 1
    out = capsys.readouterr().out
    assert f"cdc: 11 runs in {parent} but 10 in {change}" in out
    assert "pairs (parent" not in out
    assert bench_pairs.summarize(change, parent, "cdc", spec) == 1
    assert f"cdc: 10 runs in {change} but 11 in {parent}" in capsys.readouterr().out


def test_a_run_refuses_to_start_on_a_file_holding_runs_of_its_workload(tmp_path, monkeypatch,
                                                                       capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(), change.mkdir()
    run_side, calls = fake_side({("parent", "cdc"): [1.0], ("change", "cdc"): [1.0]})
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    held = tmp_path / "c.json"
    held.write_text(json.dumps({"meta": {}, "runs": [
        {"workload": "selftest", "trace": 0, "attempted": 10, "failed": 0,
         "metrics": {"wall_s": 1.0}}]}))
    argv = ["--parent", str(parent), "--change", str(change), "--pairs", "1",
            "--parent-out", str(tmp_path / "p.json"), "--change-out", str(held)]
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv + ["--workload", "cdc,selftest"])
    assert exit_info.value.code == 2
    assert f"{held} already holds selftest runs" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "p.json").exists()
    # Runs of another workload in the file do not stop a run.
    assert bench_pairs.main(argv + ["--workload", "cdc"]) == 0
    assert calls == [("parent", "cdc"), ("change", "cdc")]
