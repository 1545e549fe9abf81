"""Alternating parent/change pairs of the benchmark, and the claim rule.

Runs `perfbench/run.py` in two checkouts, one after the other, N times,
adds each side's runs to its own results file (`--out`), then prints per
workload and end-to-end metric the medians and quartiles of both sides, the
pairs the change won, whether the claim rule holds, and whether the change is
worse than the metric's bound in `BENCHMARK.json` (read, never written):

  python3 tools/bench_pairs.py --parent ../parent --change . \\
      --workload cdc --pairs 10 --seconds 30 \\
      --parent-out BENCH_parent.json --change-out BENCH_change.json

  python3 tools/bench_pairs.py --summarize --workload cdc \\
      --parent-out BENCH_parent.json --change-out BENCH_change.json

The claim rule: the change wins at least 9 of every 10 pairs, and its median
is better than the parent's by more than the parent's interquartile range.
The k-th run of a workload in one file is paired with the k-th in the other,
so start from empty results files.  The side that runs first alternates
from pair to pair.  Compare checkouts in the same bytecode state: a stale
`__pycache__` changes what an import costs.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better than the parent."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def claim_holds(parent: list[float], change: list[float], better: str) -> bool:
    """At least 9 of 10 pairs won, and a median gap above the parent's IQR."""
    n = min(len(parent), len(change))
    if n == 0:
        return False
    parent, change = parent[:n], change[:n]
    q1, median_parent, q3 = quartiles(parent)
    gap = median_parent - statistics.median(change)
    if better != "lower":
        gap = -gap
    return wins(parent, change, better) >= math.ceil(WIN_SHARE * n) and gap > q3 - q1


def worse_than_bound(parent: list[float], change: list[float], better: str,
                     bound: float) -> bool:
    """The change's median is worse than the parent's by more than `bound`, relatively."""
    a, b = statistics.median(parent), statistics.median(change)
    if a == 0:
        return False
    loss = (b - a) / a if better == "lower" else (a - b) / a
    return loss > bound


def runs_of(path: Path, workload: str) -> list[dict]:
    if not path.exists():
        return []
    return [r for r in json.loads(path.read_text())["runs"]
            if r["workload"] == workload and r["trace"] == 0]


def summarize(parent_path: Path, change_path: Path, workload: str, spec: dict) -> int:
    """Print the table; 1 if some metric is worse than its bound, else 0."""
    parent, change = runs_of(parent_path, workload), runs_of(change_path, workload)
    n = min(len(parent), len(change))
    if n == 0:
        print(f"{workload}: no paired runs in {parent_path} and {change_path}")
        return 1
    parent, change = parent[:n], change[:n]
    print(f"{workload}: {n} pairs (parent {parent_path}, change {change_path})")
    print(f"  {'metric':14s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s}"
          f" {'ratio':>7s} {'wins':>6s}  claim  bound")
    status = 0
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        a = [r["metrics"][name] for r in parent]
        b = [r["metrics"][name] for r in change]
        pq, cq = quartiles(a), quartiles(b)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        over = worse_than_bound(a, b, better, bound)
        status |= over
        print(f"  {name:14s} {'/'.join(f'{v:.4g}' for v in pq):>30s}"
              f" {'/'.join(f'{v:.4g}' for v in cq):>30s} {ratio:7.3f}"
              f" {wins(a, b, better):3d}/{n:<2d}  {'yes' if claim_holds(a, b, better) else 'no ':5s}"
              f"  {'WORSE' if over else 'ok'}")
    failed = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
              for side in (parent, change)]
    print(f"  failed share: parent {failed[0]:.4f}, change {failed[1]:.4f}")
    return status | (failed[1] > failed[0])


def run_side(checkout: Path, out: Path, workload: str, seconds: float) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    wall = next((line.split()[1] for line in proc.stdout.splitlines()
                 if line.startswith("wall_s")), "?")
    print(f"    {checkout}: wall_s {wall}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--parent-out", type=Path, required=True)
    parser.add_argument("--change-out", type=Path, required=True)
    parser.add_argument("--summarize", action="store_true",
                        help="only print the table for the runs already recorded")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_out, change_out = args.parent_out.resolve(), args.change_out.resolve()
    if not args.summarize:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required unless --summarize")
        sides = [(args.parent.resolve(), parent_out), (args.change.resolve(), change_out)]
        for i in range(args.pairs):
            print(f"  pair {i + 1}/{args.pairs}", flush=True)
            for checkout, out in sides if i % 2 == 0 else sides[::-1]:
                run_side(checkout, out, args.workload, args.seconds)
    return summarize(parent_out, change_out, args.workload, spec)


if __name__ == "__main__":
    sys.exit(main())
