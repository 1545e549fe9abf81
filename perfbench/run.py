"""Layered benchmark of tancat: end-to-end metrics, or per-layer metrics traced.

Run from the root of a checkout:

  python3 perfbench/run.py --workload cdc --seed 7 --seconds 30 --trace 0
  python3 perfbench/run.py --workload cdc --seed 7 --seconds 30 --trace 1
  python3 perfbench/run.py --compare OLD.json NEW.json

Workloads (see workloads.py): `selftest`, `cdc`, `algebroid-mix`.  Each is a
closed loop, one client in one process, cases one after another.  Passes
repeat until `--seconds` of passes have run (at least two).  Every case is checked
against a known answer; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 prints the end-to-end metrics (timings are medians over passes):
  setup_s      median fresh-process import of the workload's tancat modules,
               plus the median time to generate a pass's inputs
  wall_s       wall time of one pass
  cases_per_s  cases decided per second (a case is a map, an algebroid or
               one selftest run)
  case_p50_ms, case_p90_ms
               latency per case over every case of the run
  peak_rss_mb  peak resident memory of the process that runs the passes
  error_frac   (printed above the JSON line) share of cases that raised,
               exited non-zero, missed the known answer or, in selftest,
               printed other bytes than the previous pass
--trace 1 alternates traced (tracer.py) and untraced passes over the same
cases, checks that their verdicts are identical, writes the spans of the
first traced pass under `.bench_out/` and prints the per-layer metrics and
`trace.overhead_s`.

`--out FILE` adds the run to a results file; `--compare OLD NEW` prints, per
workload and metric, the ratio of OLD's median to NEW's, with its base.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
EXTRA_PROBES = 2
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cases_per_s": "1/s", "case_p50_ms": "ms",
    "case_p90_ms": "ms", "peak_rss_mb": "MB",
}

PROBE = ("import importlib, sys, time\n"
         "t = time.perf_counter()\n"
         "for m in sys.argv[1:]:\n"
         "    importlib.import_module(m)\n"
         "print(time.perf_counter() - t)\n")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_tancat():
    if not (SRC / "tancat" / "__init__.py").is_file():
        raise BenchError(f"no tancat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tancat
    if Path(tancat.__file__).resolve().parent != SRC / "tancat":
        raise BenchError(f"imported tancat from {tancat.__file__}, not {SRC}")
    return tancat


def metadata(tancat) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "commit": commit,
            "kernel_backend": getattr(tancat, "kernel_backend", None),
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus"}


def import_seconds(modules) -> float:
    proc = subprocess.run([sys.executable, "-c", PROBE, *modules], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    if proc.returncode:
        raise BenchError(f"importing {modules} failed:\n{proc.stderr}")
    return float(proc.stdout)


def percentile(values, q: int) -> tuple[float, bool]:
    """The q-th percentile, and whether at least ten samples lie beyond it."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], False
    value = statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]
    return value, sum(v > value for v in ordered) >= 10


def run_pass(workload, cases, latencies, results, traced=False, tracer=None) -> float:
    """Run the cases one after another; returns the summed case time."""
    wall = 0.0
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = i
        t0 = time.perf_counter()
        try:
            result = workload.run_case(case, traced=traced)
        except Exception:
            result = workloads.CaseResult(errors=[traceback.format_exc()])
        elapsed = time.perf_counter() - t0
        latencies.append(elapsed)
        wall += elapsed
        results.append(result)
    return wall


def measure(workload, seed: int, seconds: float, size: int) -> dict:
    """Passes until `seconds` of passes have run; import probes before each."""
    import_seconds(workload.imports)                   # warm the bytecode cache
    imports = [import_seconds(workload.imports) for _ in range(EXTRA_PROBES)]
    gen_times, walls, latencies, results, per_pass, child_rss = [], [], [], [], [], []
    first_output = None
    failed = 0
    while len(walls) < MIN_PASSES or sum(gen_times) + sum(walls) < seconds:
        imports += [import_seconds(workload.imports)
                    for _ in range(workload.probes_per_pass)]
        t0 = time.perf_counter()
        cases = workload.generate(seed, len(walls), size)
        gen_times.append(time.perf_counter() - t0)
        results.clear()
        walls.append(run_pass(workload, cases, latencies, results))
        per_pass.append(len(cases))
        for r in results:
            if workload.repeats_inputs:
                if first_output is None:
                    first_output = r.signature
                elif r.signature != first_output:
                    r.errors.append("output differs from the first pass")
            if r.child_rss_kb is not None:
                child_rss.append(r.child_rss_kb)
            failed += bool(r.errors)
            for e in r.errors:
                print(f"# error: {e}", file=sys.stderr)
    rss_kb = (statistics.median(child_rss) if child_rss
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    p50, p50_ok = percentile(latencies, 50)
    p90, p90_ok = percentile(latencies, 90)
    few = ", fewer than 10 samples above it"
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(gen_times),
        "wall_s": statistics.median(walls),
        "cases_per_s": statistics.median(n / w for n, w in zip(per_pass, walls)),
        "case_p50_ms": p50 * 1000,
        "case_p90_ms": p90 * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = {
        "setup_s": f"median of {len(imports)} fresh imports of "
                   f"{', '.join(workload.imports)} + median input generation",
        "wall_s": f"median of {len(walls)} passes",
        "cases_per_s": f"median of {len(walls)} passes",
        "case_p50_ms": f"n={len(latencies)}" + ("" if p50_ok else few),
        "case_p90_ms": f"n={len(latencies)}" + ("" if p90_ok else few),
        "peak_rss_mb": "median over selftest processes" if child_rss else "this process",
    }
    return {
        "metrics": metrics,
        "notes": notes,
        "attempted": len(latencies),
        "failed": failed,
        "base": {"case": workload.case_unit, "cases_per_pass": per_pass[0],
                 "passes": len(walls),
                 "verdicts_per_pass": sum(r.verdicts for r in results)},
    }


def measure_traced(workload, seed: int, seconds: float, size: int, name: str) -> dict:
    """Traced and untraced passes over the same cases, alternating, traced first.

    The per-layer metrics come from the first traced pass, made in a fresh
    state; trace.overhead_s is the median traced minus the median untraced
    pass time.  Every pass must give the same verdicts.
    """
    cases = workload.generate(seed, 0, size)
    walls = {True: [], False: []}
    first, verdicts, tracer, failed = None, 0, None, 0
    while len(walls[True]) < MIN_PASSES or sum(walls[True]) + sum(walls[False]) < seconds:
        for traced in (True, False):
            pass_tracer = tracing.Tracer() if traced else None
            results = []
            if traced:
                pass_tracer.install()
            try:
                walls[traced].append(run_pass(workload, cases, [], results,
                                              traced=traced, tracer=pass_tracer))
            finally:
                if traced:
                    pass_tracer.uninstall()
            tracer = tracer or pass_tracer
            signatures = [r.signature for r in results]
            if first is None:
                first, verdicts = signatures, sum(r.verdicts for r in results)
            if signatures != first:
                raise BenchError("traced and untraced verdicts differ on "
                                 f"{sum(a != b for a, b in zip(first, signatures))} cases")
            failed += sum(bool(r.errors) for r in results)
            for r in results:
                for e in r.errors:
                    print(f"# error: {e}", file=sys.stderr)
    metrics = tracer.metrics()
    silent = [label for label in workload.expected_calls
              if not (metrics[f"{label}_s"] if label.startswith("selftest.")
                      else metrics[f"{label}.calls"])]
    if silent:
        raise BenchError(f"traced run recorded no calls at {silent} on {name}")
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    SCRATCH.mkdir(exist_ok=True)
    spans_path = SCRATCH / f"spans-{name}-seed{seed}.tsv.gz"
    n_spans = tracer.write_spans(spans_path)
    units = {key: tracing.unit(key) for key in metrics}
    print(f"# {n_spans} spans written to {spans_path.relative_to(ROOT)}")
    notes = {f"{label}.{ratio}": f"of {metrics[f'{label}.calls']} calls"
             for label, ratio in tracing.RATIOS.items()}
    notes["trace.overhead_s"] = (
        f"median of {len(walls[True])} traced passes {statistics.median(walls[True]):.3f} s"
        f" - untraced {statistics.median(walls[False]):.3f} s, same {len(cases)} cases")
    return {"metrics": metrics, "units": units, "notes": notes,
            "attempted": len(cases) * 2 * len(walls[True]),
            "failed": failed,
            "base": {"case": workload.case_unit, "cases_per_pass": len(cases),
                     "passes": 2 * len(walls[True]), "verdicts_per_pass": verdicts}}


def record(path: Path, meta: dict, workload: str, seed: int, trace: int, out: dict):
    data = json.loads(path.read_text()) if path.exists() else {"meta": meta, "runs": []}
    data["runs"].append({"workload": workload, "seed": seed, "trace": trace,
                         "commit": meta["commit"], "metrics": out["metrics"],
                         "attempted": out["attempted"], "failed": out["failed"],
                         "base": out["base"]})
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def medians(path: Path) -> dict:
    data = json.loads(Path(path).read_text())
    grouped: dict = {}
    for run in data["runs"]:
        entry = grouped.setdefault(run["workload"], {"base": run["base"], "values": {}})
        for key, value in run["metrics"].items():
            entry["values"].setdefault(key, []).append(value)
    return {w: {"base": e["base"],
                "median": {k: statistics.median(v) for k, v in e["values"].items()},
                "runs": {k: len(v) for k, v in e["values"].items()}}
            for w, e in grouped.items()}


def compare(old_path: str, new_path: str) -> int:
    old, new = medians(Path(old_path)), medians(Path(new_path))
    print(f"ratio = OLD median / NEW median  (OLD {old_path}, NEW {new_path})")
    for workload in sorted(set(old) & set(new)):
        base_old, base_new = old[workload]["base"], new[workload]["base"]
        print(f"\n{workload}: per pass {base_old['cases_per_pass']} -> "
              f"{base_new['cases_per_pass']} {base_old['case']}s, "
              f"{base_old['verdicts_per_pass']} -> {base_new['verdicts_per_pass']} verdicts")
        for key in sorted(set(old[workload]["median"]) & set(new[workload]["median"])):
            a, b = old[workload]["median"][key], new[workload]["median"][key]
            ratio = f"{a / b:8.3f}" if b else "     n/a"
            print(f"  {key:44s} {ratio}   {a:.6g} -> {b:.6g}  "
                  f"(runs {old[workload]['runs'][key]} / {new[workload]['runs'][key]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pass-size", type=int,
                        help="cases per pass (AC3 maps for selftest)")
    parser.add_argument("--out", type=Path, help="add this run to a results file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        tancat = load_tancat()
        SCRATCH.mkdir(exist_ok=True)
        workload = workloads.make(args.workload, ROOT, child_env(), SCRATCH)
        size = args.pass_size or workload.default_pass_size
        meta = metadata(tancat)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in meta.items()))
        if args.trace:
            out = measure_traced(workload, args.seed, args.seconds, size, args.workload)
        else:
            out = measure(workload, args.seed, args.seconds, size)
            out["units"] = END_TO_END
    except (BenchError, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    base = out["base"]
    print(f"# {base['passes']} passes of {base['cases_per_pass']} {base['case']}s, "
          f"{base['verdicts_per_pass']} verdicts per pass")
    for key, value in out["metrics"].items():
        note = out.get("notes", {}).get(key, "")
        print(f"{key:44s} {value:14.6f} {out['units'][key]:6s} {note}")
    error_frac = out["failed"] / out["attempted"]
    print(f"{'error_frac':44s} {error_frac:14.6f} {'ratio':6s} "
          f"{out['failed']} of {out['attempted']} cases")
    if args.out:
        record(args.out, meta, args.workload, args.seed, args.trace, out)
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": out["units"][k]}
                    for k, v in out["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
