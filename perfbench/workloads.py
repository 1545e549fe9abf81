"""The benchmark's workloads: seeded inputs, one case at a time, known answers.

Each workload generates the inputs of pass `index` from the run's seed, so the
same seed gives the same inputs, and checks every case against a known
answer.  A case returns a `CaseResult`; any error message marks it failed.

  selftest       one case per pass: a fresh `python -m tancat.cli --json
                 selftest --seed 2024` process (the traced run calls
                 `run_selftest` in process instead).  It always runs the
                 suite at its default seed, the command users and CI run: the
                 suite's cost moves by a quarter from one seed to another, so
                 a seeded suite would bury any change in input variance.  The
                 other workloads take their inputs from the benchmark seed.
  cdc            CD.1-CD.7 on one seeded random map per case
  algebroid-mix  structure equations and involution axioms on a seeded
                 stream of valid and broken algebroids
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

SELFTEST_VERDICTS = 72
SELFTEST_SEED = 2024


@dataclass
class CaseResult:
    errors: list[str] = field(default_factory=list)
    signature: str = ""          # the verdicts, to compare traced and untraced runs
    verdicts: int = 0
    child_rss_kb: int | None = None


def _report_signature(*reports) -> str:
    return json.dumps([r.as_dict() for r in reports], sort_keys=True)


def _passed(report, prefix: str) -> bool:
    """The verdict whose name is `prefix` or starts with `prefix + ' '`."""
    found = [v.passed for v in report.verdicts
             if v.name == prefix or v.name.startswith(prefix + " ")]
    if len(found) != 1:
        raise LookupError(f"expected one verdict {prefix!r} in {report.title!r}, "
                          f"found {len(found)}")
    return found[0]


class Workload:
    case_unit = ""
    default_pass_size = 0
    imports: tuple[str, ...] = ()
    # Inputs are identical in every pass, so outputs must be byte-identical.
    repeats_inputs = False
    # Fresh-process import probes before each pass, for setup_s.
    probes_per_pass = 1
    # Boundaries the traced run must see called at least once.
    expected_calls: tuple[str, ...] = ()

    def generate(self, seed: int, index: int, size: int) -> list:
        raise NotImplementedError

    def run_case(self, case, traced: bool = False) -> CaseResult:
        raise NotImplementedError


class Selftest(Workload):
    case_unit = "selftest run"
    default_pass_size = 200          # maps in AC3, the CLI default
    imports = ("tancat.cli",)
    repeats_inputs = True
    # Few, long passes: without more probes the median import time follows
    # the host's speed at three or four instants.
    probes_per_pass = 3
    expected_calls = (
        "poly.Polynomial.mul", "poly.Polynomial.add", "poly.Polynomial.substitute",
        "poly.compose_maps", "poly.differential",
        "weil.compose_morphisms", "weil.tensor_morphisms",
        "wterm.eval_weil", "wterm.eval_model", "wterm.terms_equal",
        "tangent.weil_prolong", "tangent.structure_nat",
        "flatspace.Prolongation", "flatspace.tensor_action", "flatspace.split_left",
        "flatspace.join_at", "flatspace.whiskered_generator",
        "algebroid.involution_from_bracket", "algebroid.check_structure_equations",
        "algebroid.check_involution_axioms", "algebroid.section_bracket",
        "nerve.check_functoriality", "nerve.lie_tangent", "nerve.check_lie_table",
        "bundle.euler_vector_field", "bundle.check_universality",
    ) + tuple(f"selftest.AC{n}" for n in range(1, 10))

    def __init__(self, root: Path, env: dict, scratch: Path):
        self.root, self.env, self.scratch = root, env, scratch

    def generate(self, seed, index, size):
        return [(SELFTEST_SEED, size)]

    def run_case(self, case, traced=False):
        seed, size = case
        if traced:
            from tancat import selftest
            return self._check(selftest.run_selftest(seed=seed, cases=size).to_json(),
                               0, None)
        cmd = [sys.executable, "-m", "tancat.cli", "--json", "selftest",
               "--seed", str(seed), "--cases", str(size)]
        err_path = self.scratch / "selftest.stderr"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                # wait4 reaps the child and reports its own peak memory.
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        result = self._check(out.decode().rstrip("\n"), proc.returncode, usage.ru_maxrss)
        if proc.returncode:
            result.errors.append(err_path.read_text(errors="replace")[-2000:])
        return result

    @staticmethod
    def _check(text: str, code: int, rss_kb: int | None) -> CaseResult:
        result = CaseResult(signature=text, child_rss_kb=rss_kb)
        if code != 0:
            result.errors.append(f"selftest exited with code {code}")
        try:
            verdicts = json.loads(text)["verdicts"]
        except (ValueError, KeyError, TypeError) as exc:
            result.errors.append(f"selftest printed no report: {exc}")
            return result
        result.verdicts = len(verdicts)
        if len(verdicts) != SELFTEST_VERDICTS:
            result.errors.append(f"{len(verdicts)} verdicts, expected {SELFTEST_VERDICTS}")
        failing = [v["name"] for v in verdicts if not v["passed"]]
        if failing:
            result.errors.append(f"failing verdicts: {failing}")
        return result


class Cdc(Workload):
    case_unit = "map"
    default_pass_size = 300
    imports = ("tancat.poly",)
    expected_calls = ("poly.Polynomial.mul", "poly.Polynomial.add",
                      "poly.Polynomial.substitute", "poly.compose_maps",
                      "poly.differential")

    def generate(self, seed, index, size):
        from tancat import poly
        rng = random.Random(f"cdc:{seed}:{index}")
        # The distribution of AC3: source and target dimension 1-3, degree <= 3.
        return [(poly.random_map(rng, rng.randint(1, 3), rng.randint(1, 3), 3),
                 rng.randrange(2 ** 31)) for _ in range(size)]

    def run_case(self, case, traced=False):
        from tancat import poly
        f, companion_seed = case
        report = poly.check_cdc_axioms([f], seed=companion_seed)
        result = CaseResult(signature=_report_signature(report),
                            verdicts=len(report.verdicts))
        failing = [v.name for v in report.verdicts if not v.passed]
        if failing:
            result.errors.append(f"CD.1-CD.7 are theorems, yet {failing} failed on {f}")
        return result


# The paired checkers: structure-equation verdict, involution-axiom verdict.
PAIRS = (("alternating", "(i)"), ("Leibniz", "(iv)"), ("Bianchi", "(v)"))
KINDS = ("valid", "leibniz-broken", "alternating-broken", "lie-constants")


class AlgebroidMix(Workload):
    case_unit = "algebroid"
    default_pass_size = 100
    imports = ("tancat.selftest",)
    expected_calls = (
        "poly.Polynomial.mul", "poly.Polynomial.add", "poly.Polynomial.substitute",
        "poly.compose_maps",
        "tangent.weil_prolong", "tangent.structure_nat",
        "flatspace.Prolongation", "flatspace.whiskered_generator",
        "algebroid.involution_from_bracket", "algebroid.check_structure_equations",
        "algebroid.check_involution_axioms", "nerve.lie_tangent",
    )

    def generate(self, seed, index, size):
        from tancat import selftest as ST
        rng = random.Random(f"algebroid-mix:{seed}:{index}")
        k = max(1, size // len(KINDS))
        valid = ST.valid_instances(rng, k)
        leibniz = [ST.leibniz_family(rng, break_leibniz=True) for _ in range(k)]
        alternating = [ST.mutate_alternating(A) for A in ST.valid_instances(rng, k)]
        lie = [ST.random_lie_constants(rng) for _ in range(k)]
        # Interleaved, so every stretch of the stream holds all four kinds.
        return [(kind, A) for group in zip(valid, leibniz, alternating, lie)
                for kind, A in zip(KINDS, group)]

    def run_case(self, case, traced=False):
        from tancat import algebroid as AL
        from tancat import nerve as NV
        kind, A = case
        eq = AL.check_structure_equations(A)
        ax = AL.check_involution_axioms(A, AL.involution_from_bracket(A))
        reports = [eq, ax]
        errors = []
        for eq_name, ax_name in PAIRS:
            if _passed(eq, eq_name) != _passed(ax, ax_name):
                errors.append(f"{eq_name}={_passed(eq, eq_name)} but "
                              f"axiom {ax_name}={_passed(ax, ax_name)} on {kind} {A}")
        if kind == "valid":
            if not (eq.passed and ax.passed):
                errors.append(f"valid instance {A} fails a check")
            prime = NV.lie_tangent(A)
            eq2 = AL.check_structure_equations(prime)
            ax2 = AL.check_involution_axioms(prime, AL.involution_from_bracket(prime))
            reports += [eq2, ax2]
            if not (eq2.passed and ax2.passed):
                errors.append(f"L'({A}) fails a check")
        elif kind == "leibniz-broken" and _passed(eq, "Leibniz"):
            errors.append(f"broken Leibniz passes on {A}")
        elif kind == "alternating-broken" and _passed(eq, "alternating"):
            errors.append(f"broken alternation passes on {A}")
        if A.base_dim == 0:
            errors += _oracle_errors(A, eq)
        return CaseResult(errors, _report_signature(*reports),
                          sum(len(r.verdicts) for r in reports))


def _oracle_errors(A, eq) -> list[str]:
    """Compare the structure checker with the integer oracle (base Q^0)."""
    c = []
    for row in A.bracket:
        c.append([])
        for cell in row:
            values = [Fraction(entry.eval([])) for entry in cell]
            if any(v.denominator != 1 for v in values):
                return [f"non-integer structure constant in {A}"]
            c[-1].append([int(v) for v in values])
    errors = []
    alternating = oracle.alternating(c)
    if _passed(eq, "alternating") != alternating:
        errors.append(f"oracle alternating={alternating} disagrees on {A}")
    if alternating and _passed(eq, "Bianchi") != oracle.jacobi(c):
        errors.append(f"oracle Jacobi={oracle.jacobi(c)} disagrees with Bianchi on {A}")
    return errors


def make(name: str, root: Path, env: dict, scratch: Path) -> Workload:
    if name == "selftest":
        return Selftest(root, env, scratch)
    if name == "cdc":
        return Cdc()
    if name == "algebroid-mix":
        return AlgebroidMix()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("selftest", "cdc", "algebroid-mix")
