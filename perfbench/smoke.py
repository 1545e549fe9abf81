"""Smoke test of the benchmark itself; run from the root of a checkout:

  python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts that no
case failed (error_frac == 0) and that every metric BENCHMARK.json declares
is printed with its unit.  Then checks that tracing fails loudly on a
missing boundary, on an alias it cannot rebind and on an expected boundary
that records no calls, and that the benchmark exits non-zero without a
result in a directory holding no tancat sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = {"selftest": 5, "cdc": 8, "algebroid-mix": 8}


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_workload(name: str, spec: dict) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--pass-size", str(TINY[name])])
        assert proc.returncode == 0, f"{name} trace={trace}:\n{proc.stderr}"
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, result
        error_frac = [line.split() for line in lines if line.startswith("error_frac")]
        assert error_frac and float(error_frac[0][1]) == 0, lines
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"{name} trace={trace}: {set(got) ^ set(want)}"
        print(f"ok  {name} trace={trace}: {len(got)} metrics, "
              f"{result['attempted']} cases, error_frac 0")


def check_tracer_fails_loudly() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    from tancat import nerve, poly

    saved = poly.differential
    del poly.differential
    try:
        tracer.Tracer().install()
        raise AssertionError("a missing boundary went unnoticed")
    except tracer.TraceError as exc:
        print(f"ok  missing boundary: {exc}")
    finally:
        poly.differential = saved
    t = tracer.Tracer()
    nerve.hidden_alias = {"compose": poly.compose_maps}
    try:
        t.install()
        raise AssertionError("an alias the tracer cannot rebind went unnoticed")
    except tracer.TraceError as exc:
        print(f"ok  unbound alias: {exc}")
    finally:
        t.uninstall()
        del nerve.hidden_alias
    import run
    import workloads
    cdc = workloads.make("cdc", ROOT, run.child_env(), ROOT / ".bench_out")
    cdc.expected_calls += ("nerve.check_cartesian_p",)
    try:
        run.measure_traced(cdc, 1, 0, 2, "cdc")
        raise AssertionError("a boundary with no calls went unnoticed")
    except run.BenchError as exc:
        print(f"ok  silent boundary: {exc}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "cdc", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok  no sources: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
    check_tracer_fails_loudly()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
