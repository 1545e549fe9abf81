"""Spec-file loading: every kind, plus schema-error behavior."""

import json
from pathlib import Path

import pytest

from tancat import bundle as BD
from tancat import specfiles
from tancat.algebroid import check_structure_equations
from tancat.poly import PolyMap
from tancat.specfiles import SpecFileError

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def test_load_algebroid_examples():
    so3 = specfiles.load(EXAMPLES / "so3.json", expect_kind="algebroid")
    assert so3.base_dim == 0 and so3.rank == 3
    assert check_structure_equations(so3).passed
    action = specfiles.load(EXAMPLES / "action.json")
    assert action.base_dim == 1 and action.rank == 1


def test_load_bundle_and_connection():
    bundle = specfiles.load(EXAMPLES / "bundle.json", expect_kind="bundle")
    assert bundle == BD.TrivialBundle(1, 2)
    assert BD.check_universality(bundle).passed
    conn = specfiles.load(EXAMPLES / "connection.json")
    assert BD.check_connection(conn).passed


def test_load_section_and_map():
    doc = specfiles.load_document(EXAMPLES / "section_x.json")
    section = specfiles.load_section(doc, base_dim=1)
    assert section.eval([3]) == [3]
    poly_map = specfiles.load(EXAMPLES / "map.json", expect_kind="map")
    assert poly_map.src_dim == 2 and poly_map.tgt_dim == 1


def test_missing_field(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "algebroid", "base_dim": 1}))
    with pytest.raises(SpecFileError, match="rank"):
        specfiles.load(path)


def test_bad_json_reports_position(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"kind": "map",')
    with pytest.raises(SpecFileError, match="line"):
        specfiles.load(path)


def test_wrong_kind(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "bundle", "base_dim": 1, "rank": 1}))
    with pytest.raises(SpecFileError, match="expected kind"):
        specfiles.load(path, expect_kind="algebroid")


def test_bad_polynomial(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({
        "kind": "map", "src_dim": 1, "tgt_dim": 1, "components": ["x1 + ^"]}))
    with pytest.raises(SpecFileError, match="invalid"):
        specfiles.load(path)


def test_inconsistent_dimensions(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({
        "kind": "map", "src_dim": 1, "tgt_dim": 2, "components": ["x1"]}))
    with pytest.raises(SpecFileError, match="components"):
        specfiles.load(path)


@pytest.mark.parametrize("document, message", [
    ({"kind": "algebroid", "base_dim": 0, "rank": 1, "anchor": [],
      "bracket": [[[True]]]}, r"algebroid.bracket\[0\]\[0\]\[0\] .* got true"),
    ({"kind": "algebroid", "base_dim": 0, "rank": 1, "anchor": [],
      "bracket": [["0"]]}, r"algebroid.bracket\[0\]\[0\] must be a list"),
    ({"kind": "algebroid", "base_dim": True, "rank": 1, "anchor": [[]],
      "bracket": [[["0"]]]}, "natural number"),
    ({"kind": "connection", "bundle": {"kind": "bundle", "base_dim": 1, "rank": 1},
      "kappa": ["x1", ["x4"]], "nabla": ["x1", "x2", "x3", "0"]},
     r"connection.kappa\[1\] must be a polynomial string"),
    ({"kind": "connection", "bundle": {"kind": "bundle", "base_dim": 1, "rank": 1},
      "kappa": ["x1", "x4"], "nabla": {"x": 1}}, "connection.nabla must be a list"),
])
def test_wrong_json_types_name_the_field(tmp_path, document, message):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(document))
    with pytest.raises(SpecFileError, match=message):
        specfiles.load(path)


def test_section_entries_must_be_strings():
    with pytest.raises(SpecFileError, match=r"section.components\[0\] .* got null"):
        specfiles.load_section({"kind": "section", "components": [None]}, base_dim=1)


@pytest.mark.parametrize("field, value", [("src_dim", 257), ("tgt_dim", 257),
                                          ("src_dim", 4000)])
def test_map_dimensions_are_bounded_before_parsing(tmp_path, field, value):
    # The component is not a string, so reaching the parser would fail otherwise.
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "map", "src_dim": 1, "tgt_dim": 1,
                                "components": [True], field: value}))
    with pytest.raises(SpecFileError, match=f"map.{field} is {value}, above the limit "
                                            f"MAX_MAP_DIM = {specfiles.MAX_MAP_DIM}"):
        specfiles.load(path)


def test_map_at_the_dimension_limit_loads(tmp_path):
    n = specfiles.MAX_MAP_DIM
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"kind": "map", "src_dim": n, "tgt_dim": n,
                                "components": [f"x{i + 1}" for i in range(n)]}))
    assert specfiles.load(path) == PolyMap.identity(n)
