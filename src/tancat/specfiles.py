"""JSON input files for the CLI.

Five kinds, dispatched on the top-level "kind" field:

  algebroid:  {"kind": "algebroid", "base_dim": d, "rank": r,
               "anchor": [[poly]*r]*d, "bracket": [[[poly]*r]*r]*r}
              anchor rows are indexed by base coordinates; bracket[a][b][g]
              is the e_g coefficient of <e_a, e_b>.
  bundle:     {"kind": "bundle", "base_dim": d, "rank": k}
  connection: {"kind": "connection", "bundle": {...}, "kappa": [poly],
               "nabla": [poly]}
  section:    {"kind": "section", "components": [poly]*r}
  map:        {"kind": "map", "src_dim": n, "tgt_dim": m, "components": [poly]*m}

Polynomials are strings in the `3/2*x1^2*x2 - x3` syntax.  Every polynomial
field is checked for its JSON type before anything is parsed: a number,
null, boolean, list or object where a string belongs, or a string where a
list belongs, raises SpecFileError naming the field.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import algebroid as algebroid_mod
from . import bundle as bundle_mod
from .poly import PolyError, PolyMap, parse_poly


class SpecFileError(ValueError):
    pass


def _require(data: dict, field: str, kind: str):
    if field not in data:
        raise SpecFileError(f"{kind} file is missing the {field!r} field")
    return data[field]


def _nat(data: dict, field: str, kind: str) -> int:
    value = _require(data, field, kind)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SpecFileError(f"{kind}.{field} must be a natural number, got {value!r}")
    return value


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _poly_array(value, depth: int, field: str):
    """`value` as a JSON array nested `depth` deep with polynomial strings inside."""
    if depth == 0:
        if not isinstance(value, str):
            raise SpecFileError(f"{field} must be a polynomial string, got {_show(value)}")
    elif not isinstance(value, list):
        raise SpecFileError(f"{field} must be a list, got {_show(value)}")
    else:
        for i, entry in enumerate(value):
            _poly_array(entry, depth - 1, f"{field}[{i}]")
    return value


def _polys(data: dict, field: str, kind: str, depth: int = 1):
    return _poly_array(_require(data, field, kind), depth, f"{kind}.{field}")


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecFileError(f"{path}: expected an object with a 'kind' field")
    return data


def load_algebroid(data: dict) -> algebroid_mod.AlgebroidData:
    d = _nat(data, "base_dim", "algebroid")
    r = _nat(data, "rank", "algebroid")
    anchor = _polys(data, "anchor", "algebroid", depth=2)
    bracket = _polys(data, "bracket", "algebroid", depth=3)
    try:
        return algebroid_mod.make_algebroid(d, r, anchor, bracket)
    except (ValueError, PolyError) as exc:
        raise SpecFileError(f"algebroid data invalid: {exc}")


def load_bundle(data: dict) -> bundle_mod.TrivialBundle:
    d = _nat(data, "base_dim", "bundle")
    k = _nat(data, "rank", "bundle")
    return bundle_mod.TrivialBundle(d, k)


def load_connection(data: dict) -> bundle_mod.Connection:
    bundle = load_bundle(_require(data, "bundle", "connection"))
    t = bundle.total_dim
    kappa = _polys(data, "kappa", "connection")
    nabla = _polys(data, "nabla", "connection")
    try:
        kappa_map = PolyMap(2 * t, t, [parse_poly(s, 2 * t) for s in kappa])
        nabla_map = PolyMap(t + bundle.base_dim, 2 * t,
                            [parse_poly(s, t + bundle.base_dim) for s in nabla])
        return bundle_mod.Connection(bundle, kappa_map, nabla_map)
    except (ValueError, PolyError) as exc:
        raise SpecFileError(f"connection data invalid: {exc}")


def load_section(data: dict, base_dim: int) -> PolyMap:
    comps = _polys(data, "components", "section")
    try:
        return PolyMap(base_dim, len(comps), [parse_poly(s, base_dim) for s in comps])
    except (ValueError, PolyError) as exc:
        raise SpecFileError(f"section data invalid: {exc}")


def load_map(data: dict) -> PolyMap:
    n = _nat(data, "src_dim", "map")
    m = _nat(data, "tgt_dim", "map")
    comps = _polys(data, "components", "map")
    if len(comps) != m:
        raise SpecFileError(f"map needs {m} components, found {len(comps)}")
    try:
        return PolyMap(n, m, [parse_poly(s, n) for s in comps])
    except (ValueError, PolyError) as exc:
        raise SpecFileError(f"map data invalid: {exc}")


LOADERS = {
    "algebroid": load_algebroid,
    "bundle": load_bundle,
    "connection": load_connection,
    "map": load_map,
}


def load(path: str | Path, expect_kind: str | None = None):
    data = load_document(path)
    kind = data["kind"]
    if expect_kind is not None and kind != expect_kind:
        raise SpecFileError(f"{path}: expected kind {expect_kind!r}, found {kind!r}")
    if kind == "section":
        raise SpecFileError("sections need a base dimension; load via load_section")
    loader = LOADERS.get(kind)
    if loader is None:
        raise SpecFileError(f"{path}: unknown kind {kind!r}")
    return loader(data)
