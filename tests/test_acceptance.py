"""Acceptance criteria, one test per criterion, at their stated budgets.

Each test prints a `AC<n>: PASS/FAIL (elapsed)` line; tolerances are exact
(all identities are rational-arithmetic identities).  Runtime budgets are
the ones stated with the criteria.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tancat import selftest as ST

SEED = ST.DEFAULT_SEED


def run_criterion(name, builder, budget_seconds):
    start = time.perf_counter()
    report = builder()
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s, budget {budget_seconds}s)")
    failures = [f"{v.name}: {v.witness}" for v in report.verdicts if not v.passed]
    assert report.passed, failures
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"
    return report


def test_ac1_generator_ground_truth():
    report = run_criterion("AC1", ST.criterion_1_generators, 1.0)
    assert len(report.verdicts) == 5


def test_ac2_equational_suite():
    report = run_criterion("AC2", ST.criterion_2_equations, 1.0)
    assert len(report.verdicts) == 12


def test_ac3_cdc_axioms():
    run_criterion("AC3", lambda: ST.criterion_3_cdc(SEED, cases=200), 10.0)


def test_ac4_tangent_model():
    run_criterion("AC4", lambda: ST.criterion_4_tangent(SEED + 1), 15.0)


def test_ac5_euler_vector_fields():
    run_criterion("AC5", ST.criterion_5_euler, 15.0)


def test_ac6_equivalence_theorems():
    run_criterion("AC6", lambda: ST.criterion_6_equivalences(SEED + 2), 20.0)


def test_ac7_section_bracket():
    run_criterion("AC7", lambda: ST.criterion_7_sections(SEED + 3), 20.0)


def test_ac8_nerve_functoriality():
    run_criterion("AC8", lambda: ST.criterion_8_nerve(SEED + 4), 20.0)


def test_ac8_memory_growth_is_bounded():
    # Peak memory of AC8 over the post-import value, in a fresh interpreter:
    # about 2.7 MB; a cache that keeps fresh polynomials per space (the span
    # legs kept with one new Polynomial per coordinate) takes it to 5.1 MB.
    # The peak is the kernel's VmHWM of the interpreter's own memory:
    # ru_maxrss would start from the peak of this test process, which
    # survives the exec.
    root = Path(__file__).resolve().parents[1]
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status for the peak resident memory")
    code = ("import re\n"
            "def peak():\n"
            "    status = open('/proc/self/status').read()\n"
            "    return int(re.search(r'VmHWM:\\s*(\\d+)', status).group(1))\n"
            "from tancat import selftest\n"
            "before = peak()\n"
            f"selftest.criterion_8_nerve({SEED + 4})\n"
            "print(peak() - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, text=True,
                          capture_output=True, check=False,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    growth_mb = int(proc.stdout) / 1024
    print(f"AC8: peak memory growth {growth_mb:.2f} MB, bound 4.5 MB")
    assert growth_mb <= 4.5


def test_ac9_prolongation_tangent_structure():
    run_criterion("AC9", lambda: ST.criterion_9_lie_tangent(SEED + 5), 30.0)


def test_ac10_selftest_under_60s_exit_zero():
    root = Path(__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tancat.cli", "selftest"],
        cwd=root, text=True, capture_output=True, check=False)
    elapsed = time.perf_counter() - start
    print(f"AC10: selftest exit={proc.returncode} ({elapsed:.1f}s, budget 60s)")
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 60.0
