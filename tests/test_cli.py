"""CLI contract: exit codes, determinism, golden outputs."""

import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os
import shlex
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import cli, selftest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "docs" / "examples"
DATA = Path(__file__).resolve().parent / "data"
GOLDEN_SELFTEST = DATA / "selftest_seed2024.json"


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tancat.cli", *args],
        cwd=ROOT, text=True, capture_output=True, check=False, env=env)


def test_wone_eval():
    proc = run_cli("wone", "eval", "c . l")
    assert proc.returncode == 0
    assert "x -> xy" in proc.stdout


def test_wone_equal_pass_and_exit_zero():
    proc = run_cli("wone", "equal", "c . l", "l")
    assert proc.returncode == 0
    assert "[PASS]" in proc.stdout


def test_wone_equal_failure_exits_one():
    proc = run_cli("wone", "equal", "(p * id{W}) . l", "id{W}")
    assert proc.returncode == 1
    assert "[FAIL]" in proc.stdout


def test_boundary_mismatch_exits_two():
    proc = run_cli("wone", "equal", "p", "0")
    assert proc.returncode == 2
    assert "boundary" in proc.stderr


def test_bad_spec_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "algebroid", "base_dim": 1}')
    proc = run_cli("algebroid", "check", str(bad))
    assert proc.returncode == 2
    assert "missing" in proc.stderr


def test_superscript_digits_exit_two(tmp_path):
    # str.isdigit accepts superscripts, which int() rejects with a bare ValueError.
    bad = tmp_path / "map.json"
    bad.write_text('{"kind": "map", "src_dim": 1, "tgt_dim": 1, "components": ["x1^²"]}')
    for args, message in [
        (("cdc", "check", str(bad)), "expected an exponent"),
        (("nerve", "object", str(EXAMPLES / "so3.json"), "-V", "W²"), "bad algebra factor"),
        (("wone", "eval", "proj{²,2}"), "expected a number"),
    ]:
        proc = run_cli(*args)
        assert proc.returncode == 2 and message in proc.stderr, proc.stderr


def test_algebroid_check_so3():
    proc = run_cli("algebroid", "check", str(EXAMPLES / "so3.json"))
    assert proc.returncode == 0
    for name in ("alternating", "Leibniz", "Bianchi"):
        assert f"[PASS] {name}" in proc.stdout


def test_algebroid_bracket():
    proc = run_cli("algebroid", "bracket", str(EXAMPLES / "tangent1.json"),
                   str(EXAMPLES / "section_x.json"), str(EXAMPLES / "section_y.json"))
    assert proc.returncode == 0
    assert "(-1)" in proc.stdout


def test_cdc_check_file_and_random():
    proc = run_cli("cdc", "check", str(EXAMPLES / "map.json"),
                   "--random", "3", "--seed", "5")
    assert proc.returncode == 0


def test_cdc_check_refuses_a_map_into_q0(tmp_path):
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps({"kind": "map", "src_dim": 1, "tgt_dim": 0,
                                "components": []}))
    assert_input_error(run_cli("cdc", "check", str(spec)), "map#0 maps to Q^0")


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # The report (about 318 KB) is larger than a pipe buffer, so the write
    # meets the closed pipe, as it does under `| head -5`.
    proc = subprocess.Popen(
        [sys.executable, "-m", "tancat.cli", "--json", "cdc", "check",
         str(EXAMPLES / "map.json"), "--random", "500"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline().strip() == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in stderr


def test_tangent_check():
    proc = run_cli("tangent", "check", "-n", "2")
    assert proc.returncode == 0


def test_nerve_object_json():
    proc = run_cli("--json", "nerve", "object", str(EXAMPLES / "action.json"),
                   "-V", "W*W")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dimension"] == 4
    assert [b["label"] for b in payload["blocks"]] == ["1", "x", "y", "xy"]


def test_nerve_functoriality():
    proc = run_cli("nerve", "functoriality", str(EXAMPLES / "action.json"),
                   "--pairs", "5", "--seed", "3")
    assert proc.returncode == 0


def test_lie_tangent_writes_derived_algebroid(tmp_path):
    out = tmp_path / "derived.json"
    proc = run_cli("lie-tangent", str(EXAMPLES / "tangent1.json"),
                   "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "algebroid"
    assert payload["base_dim"] == 2 and payload["rank"] == 2
    # L'(TM on Q^1) is the tangent algebroid on Q^2.
    assert payload["anchor"] == [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("target", ["", "missing/derived.json"])
def test_lie_tangent_out_that_cannot_be_written_exits_two(tmp_path, target):
    """A directory, or a path in a missing directory, is an input error."""
    out = tmp_path / target
    before = sorted(tmp_path.rglob("*"))
    proc = run_cli("lie-tangent", str(EXAMPLES / "tangent1.json"), "--out", str(out))
    assert_input_error(proc, f"cannot write --out {out}")
    assert sorted(tmp_path.rglob("*")) == before


def test_selftest_json_deterministic():
    args = ("--json", "selftest", "--seed", "11", "--cases", "20")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reports


def test_run_selftest_in_process_matches_golden():
    """The serial path, as the traced benchmark and the tests call it."""
    assert selftest.run_selftest(seed=2024).to_json() + "\n" == GOLDEN_SELFTEST.read_text()


def test_selftest_on_one_cpu_runs_serially_with_the_same_bytes(monkeypatch):
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    args = ["--json", "selftest", "--seed", "11", "--cases", "20"]
    cpus = len(os.sched_getaffinity(0))
    parallel = run_in_process(args)
    assert pools == ([min(cpus, 9)] if cpus > 1 else [])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = run_in_process(args)
    assert len(pools) == (cpus > 1)         # no pool on one CPU
    assert serial[0] == 0
    assert serial == parallel


def test_failing_criterion_fails_the_cli_and_leaves_no_worker(monkeypatch):
    def broken(seed):
        raise RuntimeError("criterion 8 broke")

    # The first job in the table fails while the others still run.
    monkeypatch.setattr(selftest, "criterion_8_nerve", broken)
    with pytest.raises(RuntimeError, match="criterion 8 broke"):
        cli.main(["--json", "selftest", "--seed", "11", "--cases", "20"])
    assert multiprocessing.active_children() == []


def test_failing_criterion_exits_nonzero():
    script = ("import sys\n"
              "from tancat import cli, selftest\n"
              "def broken():\n"
              "    raise RuntimeError('criterion 5 broke')\n"
              "selftest.criterion_5_euler = broken\n"
              "sys.exit(cli.main(['--json', 'selftest', '--cases', '20']))\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, check=False, timeout=60)
    assert proc.returncode != 0
    assert "criterion 5 broke" in proc.stderr
    assert proc.stdout == ""


def test_selftest_mutation_harness():
    proc = run_cli("selftest", "--mutate", "bianchi")
    assert proc.returncode == 0
    assert "fail together" in proc.stdout


def test_selftest_json_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "tancat.cli", "--json", "selftest", "--seed", "2024"],
        cwd=ROOT, capture_output=True, check=False)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_SELFTEST.read_bytes()


# Golden reports captured before the packed Weil action and the shared
# substitution table: the kernel may change, the bytes may not.
@pytest.mark.parametrize("args, golden", [
    (("--seed", "7"), "selftest_seed7.json"),
    (("--seed", "11"), "selftest_seed11.json"),
    (("--mutate", "bianchi"), "selftest_mutate_bianchi.json"),
    (("--mutate", "alternating"), "selftest_mutate_alternating.json"),
    (("--mutate", "leibniz"), "selftest_mutate_leibniz.json"),
])
def test_selftest_json_matches_more_goldens(args, golden):
    proc = subprocess.run(
        [sys.executable, "-m", "tancat.cli", "--json", "selftest", *args],
        cwd=ROOT, capture_output=True, check=False)
    assert proc.returncode == 0
    assert proc.stdout == (DATA / golden).read_bytes()


def assert_input_error(proc, message):
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ("selftest", "--cases", "0"),
    ("tangent", "check", "-n", "-1"),
    ("nerve", "functoriality", str(EXAMPLES / "action.json"), "--pairs", "0"),
])
def test_counts_below_one_rejected(args):
    assert_input_error(run_cli(*args), "must be at least 1")


@pytest.mark.parametrize("args, message", [
    (("cdc", "check", str(EXAMPLES / "map.json"), "--random", "-3"),
     "--random must be at least 0, got -3"),
    (("cdc", "check", str(EXAMPLES / "map.json"), "--random", "10001"),
     "--random must be at most 10000 (the limit MAX_COUNT), got 10001"),
    (("cdc", "check", str(EXAMPLES / "map.json"), "--random", "100000000"),
     "the limit MAX_COUNT"),
    (("nerve", "functoriality", str(EXAMPLES / "action.json"), "--pairs", "100000000"),
     "--pairs must be at most 10000 (the limit MAX_COUNT)"),
    (("selftest", "--cases", "10001"),
     "--cases must be at most 10000 (the limit MAX_COUNT), got 10001"),
    (("tangent", "check", "-n", "17"),
     "-n must be at most 16 (the limit MAX_TANGENT_DIM), got 17"),
    (("tangent", "check", "-n", "60"), "the limit MAX_TANGENT_DIM"),
])
def test_counts_out_of_range_rejected(args, message):
    assert_input_error(run_cli(*args), message)


@pytest.mark.parametrize("component, message", [
    ("1/0*x1", "division by zero"),
    ("x1^99999999", "32767"),
])
def test_bad_polynomial_input_exits_two(tmp_path, component, message):
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps({"kind": "map", "src_dim": 2, "tgt_dim": 1,
                                "components": [component]}))
    assert_input_error(run_cli("cdc", "check", str(spec)), message)


def test_degree_128_map_is_accepted(tmp_path):
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps({"kind": "map", "src_dim": 2, "tgt_dim": 1,
                                "components": ["x1^64*x2^64"]}))
    proc = run_cli("cdc", "check", str(spec))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command, document, field", [
    (("cdc", "check"), {"kind": "map", "src_dim": 2, "tgt_dim": 1,
                        "components": ["x1^64*x2^65"]}, "map.components[0]"),
    # The power is rejected before it is computed.
    (("cdc", "check"), {"kind": "map", "src_dim": 1, "tgt_dim": 1,
                        "components": ["x1 + (1 + x1)^32767"]}, "map.components[0]"),
    (("algebroid", "check"), {"kind": "algebroid", "base_dim": 1, "rank": 1,
                              "anchor": [["1"]], "bracket": [[["x1^129"]]]},
     "algebroid.bracket[0][0][0]"),
])
def test_degree_above_128_exits_two(tmp_path, command, document, field):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document))
    proc = run_cli(*command, str(spec))
    assert_input_error(proc, field)
    assert "exceeds the limit of 128" in proc.stderr


def test_section_above_the_degree_limit_exits_two(tmp_path):
    # X·∂Y would reach x1^39999, past the exponent limit of 32767; the degree
    # limit rejects the section before any check runs.
    section = tmp_path / "x.json"
    section.write_text(json.dumps({"kind": "section", "components": ["x1^20000"]}))
    proc = run_cli("algebroid", "bracket", str(EXAMPLES / "tangent1.json"),
                   str(section), str(section))
    assert_input_error(proc, "section.components[0] invalid: total degree 20000 "
                             "exceeds the limit of 128")


@pytest.mark.parametrize("kind", ["map", "bundle"])
def test_bracket_refuses_a_file_that_is_not_a_section(tmp_path, kind):
    # Only the components are read, so a map or bundle file with a section's
    # components would otherwise be bracketed as if it were one.
    document = tmp_path / "x.json"
    document.write_text(json.dumps({"kind": kind, "src_dim": 0, "tgt_dim": 3,
                                    "components": ["1", "0", "0"]}))
    proc = run_cli("algebroid", "bracket", str(EXAMPLES / "so3.json"),
                   str(document), str(document))
    assert_input_error(proc, f"expected kind 'section', found {kind!r}")


@pytest.mark.parametrize("command, document, message", [
    (("cdc", "check"), {"kind": "map", "src_dim": 1, "tgt_dim": 1, "components": [5]},
     "map.components[0] must be a polynomial string, got 5"),
    (("cdc", "check"), {"kind": "map", "src_dim": 1, "tgt_dim": 1, "components": "x1"},
     'map.components must be a list, got "x1"'),
    (("algebroid", "check"), {"kind": "algebroid", "base_dim": 1, "rank": 1,
                              "anchor": [[None]], "bracket": [[["0"]]]},
     "algebroid.anchor[0][0] must be a polynomial string, got null"),
])
def test_wrong_json_types_exit_two(tmp_path, command, document, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document))
    assert_input_error(run_cli(*command, str(spec)), message)


@pytest.mark.parametrize("algebra", ["W*W*W*W*W*W*W*W", "W255"])
def test_weil_algebra_of_dimension_256_is_accepted(algebra):
    proc = run_cli("nerve", "object", str(EXAMPLES / "so3.json"), "-V", algebra)
    assert proc.returncode == 0, proc.stderr
    assert "dimension 765" in proc.stdout        # 0 + (256 - 1)·3


@pytest.mark.parametrize("args", [
    ("nerve", "object", str(EXAMPLES / "so3.json"), "-V", "W*W*W*W*W*W*W*W*W"),
    ("nerve", "object", str(EXAMPLES / "so3.json"), "-V", "W256"),
    ("wone", "eval", "id{W256}"),
    ("wone", "eval", "!{W*W*W*W*W*W*W*W*W}"),
])
def test_weil_algebra_above_the_dimension_limit_exits_two(args):
    assert_input_error(run_cli(*args), "MAX_ALGEBRA_DIM = 256")


def algebroid_document(base_dim: int, rank: int) -> dict:
    """The zero algebroid: zero anchor and zero bracket."""
    return {"kind": "algebroid", "base_dim": base_dim, "rank": rank,
            "anchor": [["0"] * rank] * base_dim,
            "bracket": [[["0"] * rank] * rank] * rank}


def test_nerve_object_at_the_flat_dimension_limit_is_accepted(tmp_path):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps(algebroid_document(4, 4)))
    proc = run_cli("nerve", "object", str(spec), "-V", "W*W*W*W*W*W*W*W")
    assert proc.returncode == 0, proc.stderr
    assert "dimension 1024" in proc.stdout       # 4 + (256 - 1)·4


@pytest.mark.parametrize("base_dim, rank, algebra, flat", [
    (5, 4, "W*W*W*W*W*W*W*W", 1025),
    # The largest rank a file may have (MAX_ALGEBROID_DIM).
    (1, 16, "W*W*W*W*W*W*W*W", 4081),
])
def test_nerve_object_above_the_flat_dimension_limit_exits_two(tmp_path, base_dim,
                                                                rank, algebra, flat):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps(algebroid_document(base_dim, rank)))
    assert_input_error(run_cli("nerve", "object", str(spec), "-V", algebra),
                       f"A.{algebra} has {flat} flat coordinates, above the limit "
                       f"MAX_FLAT_DIM = 1024")


ALGEBROID_COMMANDS = [
    ("algebroid", "check", "FILE"),
    ("algebroid", "bracket", "FILE", "FILE", "FILE"),
    ("nerve", "object", "FILE", "-V", "W"),
    ("nerve", "functoriality", "FILE"),
    ("lie-tangent", "FILE"),
]


@pytest.mark.parametrize("command", ALGEBROID_COMMANDS, ids=lambda command: "-".join(
    a for a in command[:2] if a != "FILE"))
@pytest.mark.parametrize("field, value", [
    # 216,000 bracket entries: the limit is checked before they are parsed.
    ("rank", 60),
    ("base_dim", 17),
])
def test_algebroid_above_the_dimension_limit_exits_two(tmp_path, command, field, value):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(algebroid_document(**{"base_dim": 1, "rank": 1,
                                                      field: value})))
    args = [str(spec) if a == "FILE" else a for a in command]
    assert_input_error(run_cli(*args), f"algebroid.{field} is {value}, above the limit "
                                       "MAX_ALGEBROID_DIM = 16")


@pytest.mark.parametrize("command", ALGEBROID_COMMANDS, ids=lambda command: "-".join(
    a for a in command[:2] if a != "FILE"))
def test_algebroid_of_rank_0_exits_two(tmp_path, command):
    # It used to pass all 9 verdicts of `algebroid check` and of `lie-tangent`:
    # each ranges over an empty fiber.
    spec = tmp_path / "rank0.json"
    spec.write_text(json.dumps(algebroid_document(1, 0)))
    args = [str(spec) if a == "FILE" else a for a in command]
    assert_input_error(run_cli(*args), "algebroid.rank is 0; it must be at least 1")


def test_algebroid_at_the_dimension_limit_is_accepted(tmp_path):
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps(algebroid_document(16, 16)))
    proc = run_cli("nerve", "object", str(spec), "-V", "W")
    assert proc.returncode == 0, proc.stderr
    assert "dimension 32" in proc.stdout


@pytest.mark.parametrize("field, value", [
    # A 70-byte file: `cdc check` ran for minutes on it before the limit.
    ("src_dim", 4000),
    ("tgt_dim", 257),
])
def test_map_above_the_dimension_limit_exits_two(tmp_path, field, value):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"kind": "map", "src_dim": 1, "tgt_dim": 1,
                                "components": ["x1"], field: value}))
    assert_input_error(run_cli("cdc", "check", str(spec)),
                       f"map.{field} is {value}, above the limit MAX_MAP_DIM = 256")


def test_cdc_check_at_the_map_dimension_limit_is_within_budget(tmp_path):
    # Two or three terms in every component, 256 components out of Q^256:
    # about 1.2 s on 2 vCPUs.
    n = 256
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({"kind": "map", "src_dim": n, "tgt_dim": n, "components": [
        f"x{i + 1}*x{(i + 1) % n + 1} - 2*x{i + 1}^3" for i in range(n)]}))
    start = time.perf_counter()
    proc = run_cli("cdc", "check", str(spec))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 20, f"cdc check at MAX_MAP_DIM took {elapsed:.1f}s, budget 20s"


@pytest.mark.parametrize("seed, args", [
    ("abc", ("cdc", "check", "--random", "1")),
    ("\u00b2", ("wone", "eval", "p")),
])
def test_malformed_seed_variable_exits_two(seed, args):
    proc = run_cli(*args, env={**os.environ, "TANCAT_SEED": seed})
    assert_input_error(proc, f"TANCAT_SEED must be an integer, got {seed!r}")


def test_seed_variable_sets_the_default_seed():
    by_env = run_cli("--json", "cdc", "check", "--random", "3",
                     env={**os.environ, "TANCAT_SEED": "7"})
    by_flag = run_cli("--json", "cdc", "check", "--random", "3", "--seed", "7")
    assert by_env.returncode == by_flag.returncode == 0
    assert by_env.stdout == by_flag.stdout


def test_projection_out_of_w255_is_accepted():
    proc = run_cli("wone", "eval", "proj{1,255}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("proj{1,255} : W255 -> W\n")


@pytest.mark.parametrize("n", [256, 40000])
def test_projection_above_the_dimension_limit_exits_two_at_once(n):
    # proj{1,10000} took 56 s before the limit, as the relation check on the
    # images is quadratic in n; the limit is checked before they are built.
    start = time.perf_counter()
    code, out, err = run_in_process(("wone", "eval", f"proj{{1,{n}}}"))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
    assert f"W{n} has dimension above the limit MAX_ALGEBRA_DIM = 256" in err


def test_tensor_term_above_the_dimension_limit_exits_two():
    assert_input_error(run_cli("wone", "eval", "id{W255} * id{W255} * id{W}"),
                       "MAX_TERM_DIM = 65536")


# `wone` prints a morphism by its generator images.  The golden transcript was
# captured before morphisms were stored as matrices: the printed images are
# read off the matrix columns now, and the bytes may not change.
WONE_TERMS = ("c . l", "+ . <id{W}, id{W}>", "(l * id{W}) . l", "!{W*W}", "id{W2*W}",
              "(id{W} * c) . (l * id{W})")
WONE_CASES = [(*mode, "wone", "eval", term)
              for term in WONE_TERMS for mode in ((), ("--json",))]
WONE_CASES += [(*mode, "wone", "equal", "(p * id{W}) . l", "id{W}")
               for mode in ((), ("--json",))]


def run_in_process(args) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `tancat ARGS` run by `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:           # argparse rejects its arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def wone_transcript() -> str:
    """Each case as `$ tancat ARGS`, its stdout and its exit code."""
    parts = []
    for args in WONE_CASES:
        code, out, _ = run_in_process(args)
        parts.append(f"$ tancat {shlex.join(args)}\n{out}[exit {code}]\n")
    return "".join(parts)


def test_wone_output_matches_golden():
    assert wone_transcript().encode() == (DATA / "wone_golden.txt").read_bytes()


# `nerve functoriality` (functor checks and the p-pullback certificate) and
# `lie-tangent` (L'(A) through the shift layout) on the example algebroids,
# at the default seed; the golden holds the output of the code that built the
# pullback inverse and the L'(A) layout from hand-written offset tables.
NERVE_FILES = ("docs/examples/so3.json", "docs/examples/action.json",
               "docs/examples/tangent1.json")
NERVE_CASES = [(command, path) for path in NERVE_FILES
               for command in (("--json", "nerve", "functoriality"), ("--json", "lie-tangent"))]


def test_nerve_output_matches_golden(monkeypatch):
    monkeypatch.delenv("TANCAT_SEED", raising=False)
    monkeypatch.chdir(ROOT)
    parts = []
    for command, path in NERVE_CASES:
        code, out, _ = run_in_process((*command, path))
        parts.append(f"$ tancat {shlex.join((*command, path))}\n{out}[exit {code}]\n")
    assert "".join(parts).encode() == (DATA / "nerve_golden.txt").read_bytes()


# -- fuzzing the CLI in process --------------------------------------------------

_POLYS = st.one_of(
    st.text(alphabet="x12+-*/^() ", max_size=8),
    st.builds("{}*x{}^{}".format, st.integers(-3, 3), st.integers(1, 3), st.integers(0, 3)))
_NATS = st.one_of(st.integers(-1, 2), st.sampled_from([None, "1", 1.5, True]))


def _nested(depth: int):
    entries = _POLYS if depth == 0 else _nested(depth - 1)
    return st.one_of(st.lists(entries, max_size=2), entries, st.none())


@st.composite
def _shaped_documents(draw):
    """A map or algebroid whose arrays have the declared shapes."""
    d, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    poly = st.one_of(st.sampled_from(["0", "1", "-1"]), st.builds(
        "{}*x{}^{}".format, st.integers(-2, 2), st.integers(1, d), st.integers(0, 2)))

    def grid(*shape):
        return [grid(*shape[1:]) for _ in range(shape[0])] if shape else draw(poly)
    if draw(st.booleans()):
        return {"kind": "map", "src_dim": d, "tgt_dim": r, "components": grid(r)}
    return {"kind": "algebroid", "base_dim": d, "rank": r,
            "anchor": grid(d, r), "bracket": grid(r, r, r)}


_DOCUMENTS = st.one_of(
    _shaped_documents().map(json.dumps),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["map", "algebroid", "section", "bundle",
                                  "connection", "nonsense"])},
        optional={"src_dim": _NATS, "tgt_dim": _NATS, "base_dim": _NATS, "rank": _NATS,
                  "components": _nested(1), "anchor": _nested(2),
                  "bracket": _nested(3)}).map(json.dumps),
    st.text(alphabet='{}[]":,01 kind', max_size=12))
# Counts inside the documented ranges stay small; those outside exit before any work.
_COUNTS = st.one_of(st.integers(-3, 2), st.integers(10_001, 10**12),
                    st.sampled_from(["x", "1.5", ""])).map(str)
_TERMS = st.one_of(st.text(alphabet="pl0c+!id{}W2N*.<>, ", max_size=16),
                   st.sampled_from(WONE_TERMS + ("p", "0", "<p, p>", "id{W*W}")))
_ALGEBRAS = st.text(alphabet="WN*25", max_size=6)


@st.composite
def _invocations(draw):
    """Arguments of one `tancat` call; FILE stands for a fuzzed JSON document."""
    count = draw(_COUNTS)
    return draw(st.sampled_from([
        ("wone", "eval", draw(_TERMS)),
        ("--json", "wone", "equal", draw(_TERMS), draw(_TERMS)),
        ("cdc", "check", "FILE", "--random", count),
        ("algebroid", "check", "FILE"),
        ("algebroid", "bracket", "FILE", "FILE", "FILE"),
        ("nerve", "object", "FILE", "-V", draw(_ALGEBRAS)),
        ("nerve", "functoriality", "FILE", "--pairs", count),
        ("lie-tangent", "FILE"),
        ("tangent", "check", "-n", count),
        ("selftest", "--cases", draw(st.sampled_from(["0", "-1", "10001", "x"]))),
    ]))


@given(_invocations(), _DOCUMENTS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzzed_invocations_exit_cleanly(args, document):
    """Any input exits 0, 1 or 2, and an error is a message, not a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(document)
        code, _, err = run_in_process(str(path) if a == "FILE" else a for a in args)
    assert code in (0, 1, 2), (args, document)
    assert "Traceback" not in err, err
