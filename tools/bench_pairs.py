"""Alternating parent/change pairs of the benchmark, and the claim rule.

Runs `perfbench/run.py` in two checkouts, one after the other, N times,
adds each side's runs to its own results file (`--out`), then prints per
workload and end-to-end metric the medians and quartiles of both sides, the
pairs the change won, whether the claim rule holds, and whether the change is
worse than the metric's bound in `BENCHMARK.json` (read, never written):

  python3 tools/bench_pairs.py --parent ../parent --change . \\
      --workload cdc --pairs 10 --seconds 30 \\
      --parent-out BENCH_parent.json --change-out BENCH_change.json

  python3 tools/bench_pairs.py --summarize --workload cdc,selftest \\
      --parent-out BENCH_parent.json --change-out BENCH_change.json

`--workload` takes a comma-separated list: each pair runs every workload in
turn, both sides of one workload back to back, and the tool prints one table
per workload; the exit status is 1 if any workload fails a bound check.
A metric not worse than its bound reads `unresolved` instead of `ok` when
the parent's own runs spread wider than the bound (interquartile range over
median) and not every change run beats every parent run: such runs cannot
tell a loss within the bound from none.  `unresolved` does not change the
exit status.

The claim rule: the change wins at least 9 of every 10 pairs, and its median
is better than the parent's by more than the parent's interquartile range.
The k-th run of a workload in one file is paired with the k-th in the other,
so a run refuses to start when a results file already holds runs of a
requested workload, and the summary fails a workload whose two files hold
different numbers of runs.  The side that runs first alternates
from pair to pair.  Compare checkouts in the same bytecode state: a stale
`__pycache__` changes what an import costs, so the tool warns when only one
checkout has `src/tancat/__pycache__`.  It also warns when a module of
`src/tancat` sits on different sides of a 4,096 or 8,192 token step in the
two checkouts: CPython's parser doubles its token array there, so the
module's compile, and with it `peak_rss_mb`, costs differently.  The
`peak_rss_mb` row shows each side's median `attempted` count, and the tool
warns when the two differ by more than 10%: a run keeps every case latency,
so its peak memory grows with the cases it runs, and a faster change runs
more of them in the same seconds.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9
TOKEN_STEPS = (4096, 8192)
ATTEMPTED_SPREAD = 0.1


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


def unresolved(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """The parent's interquartile range, relative to its median, exceeds
    `bound`, and not every change run is better than every parent run."""
    q1, median, q3 = quartiles(parent)
    if median == 0 or (q3 - q1) / abs(median) <= bound:
        return False
    if better == "lower":
        return max(change) >= min(parent)
    return min(change) <= max(parent)


def runs_of(path: Path, workload: str) -> list[dict]:
    if not path.exists():
        return []
    return [r for r in json.loads(path.read_text())["runs"]
            if r["workload"] == workload and r["trace"] == 0]


def summarize(parent_path: Path, change_path: Path, workload: str, spec: dict) -> int:
    """Print the table; 1 if the two files hold no runs or different numbers
    of runs of `workload`, or if some metric is worse than its bound, else 0."""
    parent, change = runs_of(parent_path, workload), runs_of(change_path, workload)
    n = len(parent)
    if len(change) != n:
        print(f"{workload}: {n} runs in {parent_path} but {len(change)} in {change_path}, "
              "so the k-th runs of the two files are not pairs")
        return 1
    if n == 0:
        print(f"{workload}: no paired runs in {parent_path} and {change_path}")
        return 1
    print(f"{workload}: {n} pairs (parent {parent_path}, change {change_path})")
    print(f"  {'metric':14s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s}"
          f" {'ratio':>7s} {'wins':>6s}  claim  bound")
    status = 0
    attempted = [statistics.median(r["attempted"] for r in side) for side in (parent, change)]
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        a = [r["metrics"][name] for r in parent]
        b = [r["metrics"][name] for r in change]
        pq, cq = quartiles(a), quartiles(b)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        over = worse_than_bound(a, b, better, bound)
        status |= over
        verdict = "WORSE" if over else "unresolved" if unresolved(a, b, better, bound) else "ok"
        counts = f"  attempted {attempted[0]:g}/{attempted[1]:g}" if name == "peak_rss_mb" else ""
        print(f"  {name:14s} {'/'.join(f'{v:.4g}' for v in pq):>30s}"
              f" {'/'.join(f'{v:.4g}' for v in cq):>30s} {ratio:7.3f}"
              f" {wins(a, b, better):3d}/{n:<2d}  {'yes' if claim_holds(a, b, better) else 'no ':5s}"
              f"  {verdict}{counts}")
    warning = attempted_warning(*attempted)
    if warning:
        print(warning)
    failed = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
              for side in (parent, change)]
    print(f"  failed share: parent {failed[0]:.4f}, change {failed[1]:.4f}")
    return status | (failed[1] > failed[0])


def attempted_warning(a: float, b: float) -> str | None:
    """A warning when the median `attempted` counts a (parent) and b
    (change) differ by more than ATTEMPTED_SPREAD of a."""
    if not a or abs(b - a) <= ATTEMPTED_SPREAD * a:
        return None
    return (f"  warning: the change attempted {b:g} cases per run (median) against the "
            f"parent's {a:g}; peak_rss_mb grows with the cases a run keeps, so the two "
            "sides' memory is not measured at equal work")


def run_side(checkout: Path, out: Path, workload: str, seconds: float) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    wall = next((line.split()[1] for line in proc.stdout.splitlines()
                 if line.startswith("wall_s")), "?")
    print(f"    {checkout}: wall_s {wall}", flush=True)


def bytecode_warning(parent: Path, change: Path) -> str | None:
    """A warning when exactly one checkout has compiled bytecode of the package."""
    cached = [side for side in (parent, change) if (side / "src/tancat/__pycache__").is_dir()]
    if len(cached) != 1:
        return None
    return (f"warning: only {cached[0]} has src/tancat/__pycache__; the checkouts "
            "are in different bytecode states, so imports cost differently")


def token_count(path: Path) -> int:
    """Tokens of a module, without comments, NL and ENCODING; 0 if it is absent."""
    if not path.exists():
        return 0
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as f:
        return sum(tok.type not in skipped for tok in tokenize.tokenize(f.readline))


def token_step_warnings(parent: Path, change: Path) -> list[str]:
    """One warning per module of the package whose token counts in the two
    checkouts lie on different sides of a step in TOKEN_STEPS."""
    names = sorted({path.name for side in (parent, change)
                    for path in (side / "src/tancat").glob("*.py")})
    warnings = []
    for name in names:
        before, after = (token_count(side / "src/tancat" / name) for side in (parent, change))
        steps = [step for step in TOKEN_STEPS if (before < step) != (after < step)]
        if steps:
            warnings.append(
                f"warning: src/tancat/{name} has {before} tokens in {parent} and {after} "
                f"in {change}, across the parser's {steps[0]}-token step, so compiling "
                "it costs memory differently")
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload, or a comma-separated list of workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--parent-out", type=Path, required=True)
    parser.add_argument("--change-out", type=Path, required=True)
    parser.add_argument("--summarize", action="store_true",
                        help="only print the table for the runs already recorded")
    args = parser.parse_args(argv)
    workloads = [name for name in args.workload.split(",") if name]
    if not workloads:
        parser.error("--workload names no workload")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_out, change_out = args.parent_out.resolve(), args.change_out.resolve()
    if not args.summarize:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required unless --summarize")
        held = [f"{out} already holds {workload} runs" for out in (parent_out, change_out)
                for workload in workloads if runs_of(out, workload)]
        if held:
            parser.error("; ".join(held) + "; start from empty results files")
        sides = [(args.parent.resolve(), parent_out), (args.change.resolve(), change_out)]
        warnings = token_step_warnings(sides[0][0], sides[1][0])
        warnings += filter(None, [bytecode_warning(sides[0][0], sides[1][0])])
        for warning in warnings:
            print(warning, file=sys.stderr, flush=True)
        for i in range(args.pairs):
            print(f"  pair {i + 1}/{args.pairs}", flush=True)
            for workload in workloads:
                for checkout, out in sides if i % 2 == 0 else sides[::-1]:
                    run_side(checkout, out, workload, args.seconds)
    status = 0
    for workload in workloads:
        status |= summarize(parent_out, change_out, workload, spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
