"""CLI contract: exit codes, determinism, golden outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_selftest_json_deterministic():
    args = ("--json", "selftest", "--seed", "11", "--cases", "20")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reports


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
