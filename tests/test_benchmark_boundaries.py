"""The traced benchmark can still wrap every boundary it names.

`perfbench/tracer.py` wraps tancat functions by module global and refuses
to run when one is missing or reachable through an alias it cannot rebind,
so a rename or deletion in `src/` breaks the benchmark.  This test finds
that in Tier-1.  It installs the tracer in a fresh interpreter: test modules
import tancat functions by name, and the tracer's alias check would reject
those references in this process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_boundary():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer; t = tracer.Tracer(); t.install(); t.uninstall()"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
