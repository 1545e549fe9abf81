"""The traced benchmark can still wrap every boundary it names.

`perfbench/tracer.py` wraps tancat functions by module global and refuses
to run when one is missing or reachable through an alias it cannot rebind,
so a rename or deletion in `src/` breaks the benchmark.  This test finds
that in Tier-1.  It installs the tracer in a fresh interpreter: test modules
import tancat functions by name, and the tracer's alias check would reject
those references in this process.  It also runs the traced benchmark on a
short pass of each workload (`selftest`, `cdc`, `algebroid-mix`), which
fails when a boundary the workload expects records no calls or when the
traced and untraced passes disagree on a verdict.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_boundary():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer; t = tracer.Tracer(); t.install(); t.uninstall()"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["selftest", "cdc", "algebroid-mix"])
def test_traced_run_records_every_expected_boundary(workload):
    # A traced run exits non-zero when a boundary its workload expects
    # records no calls, e.g. after a kernel change routes around it.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1", "--pass-size", "8"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
