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
field is checked for its JSON type: a number, null, boolean, list or object
where a string belongs, or a string where a list belongs, raises
SpecFileError naming the field.  Every polynomial has total degree at most
MAX_DEGREE, and so has every product and power written inside it; the parser
rejects a larger one before computing it, with a SpecFileError naming the
field and the limit.  An algebroid's base_dim and rank are each at most
MAX_ALGEBROID_DIM, and a map's src_dim and tgt_dim at most MAX_MAP_DIM, both
checked before any polynomial is parsed.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import algebroid as algebroid_mod
from . import bundle as bundle_mod
from .poly import PolyError, PolyMap, parse_poly

# Checks cost grows steeply with degree: `cdc check` on x1^e*x2^e takes about
# 0.4 s at total degree 64, 1.8 s at 128 and 27 s at 256.
MAX_DEGREE = 128
# An algebroid of base dimension d and rank r has d·r anchor and r³ bracket
# strings, each parsed in d variables: at d = r = 16 (4,352 strings) parsing
# takes about 0.3 s for two-term entries, at 24 it takes 0.9 s, and a rank-60
# file (216,000 strings) took 3.3 s.  Both dimensions are checked before any
# polynomial is parsed.
MAX_ALGEBROID_DIM = 16
# `cdc check` on a map from Q^n checks CD.6 and CD.7 on maps out of Q^(4n),
# so its cost grows faster than n.  On 2 vCPUs the whole command on a map
# with the one component x1 takes 0.23 s at n = 128, 0.34 s at 256, 1.0 s at
# 512 and 6.2 s (45 MB) at 1,000; with n components of two or three terms
# each it takes 2.1 s (37 MB) at 256 and 9.2 s (88 MB) at 512.  Both
# dimensions are checked before any polynomial is parsed.
MAX_MAP_DIM = 256


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


def _poly_array(value, depth: int, field: str, n_vars: int):
    """The polynomials of a JSON array nested `depth` deep, in n_vars variables."""
    if depth == 0:
        if not isinstance(value, str):
            raise SpecFileError(f"{field} must be a polynomial string, got {_show(value)}")
        try:
            return parse_poly(value, n_vars, max_degree=MAX_DEGREE)
        except PolyError as exc:
            raise SpecFileError(f"{field} invalid: {exc}")
    if not isinstance(value, list):
        raise SpecFileError(f"{field} must be a list, got {_show(value)}")
    return [_poly_array(entry, depth - 1, f"{field}[{i}]", n_vars)
            for i, entry in enumerate(value)]


def _polys(data: dict, field: str, kind: str, n_vars: int,
           depth: int = 1) -> list:
    return _poly_array(_require(data, field, kind), depth, f"{kind}.{field}", n_vars)


def load_document(path: str | Path, expect_kind: str | None = None) -> dict:
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
    if expect_kind is not None and data["kind"] != expect_kind:
        raise SpecFileError(f"{path}: expected kind {expect_kind!r}, found {data['kind']!r}")
    return data


def _bounded_dims(data: dict, kind: str, fields: tuple[str, str], limit: int,
                  name: str) -> tuple[int, int]:
    dims = tuple(_nat(data, field, kind) for field in fields)
    for field, value in zip(fields, dims):
        if value > limit:
            raise SpecFileError(f"{kind}.{field} is {value}, above the limit "
                                f"{name} = {limit}")
    return dims


def algebroid_dims(data: dict) -> tuple[int, int]:
    """(base_dim, rank) of an algebroid document, read before its polynomials.

    Each is at most MAX_ALGEBROID_DIM.
    """
    return _bounded_dims(data, "algebroid", ("base_dim", "rank"), MAX_ALGEBROID_DIM,
                         "MAX_ALGEBROID_DIM")


def load_algebroid(data: dict) -> algebroid_mod.AlgebroidData:
    d, r = algebroid_dims(data)
    anchor = _polys(data, "anchor", "algebroid", d, depth=2)
    bracket = _polys(data, "bracket", "algebroid", d, depth=3)
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
    kappa = _polys(data, "kappa", "connection", 2 * t)
    nabla = _polys(data, "nabla", "connection", t + bundle.base_dim)
    try:
        kappa_map = PolyMap(2 * t, t, kappa)
        nabla_map = PolyMap(t + bundle.base_dim, 2 * t, nabla)
        return bundle_mod.Connection(bundle, kappa_map, nabla_map)
    except (ValueError, PolyError) as exc:
        raise SpecFileError(f"connection data invalid: {exc}")


def load_section(data: dict, base_dim: int) -> PolyMap:
    comps = _polys(data, "components", "section", base_dim)
    return PolyMap(base_dim, len(comps), comps)


def load_map(data: dict) -> PolyMap:
    n, m = _bounded_dims(data, "map", ("src_dim", "tgt_dim"), MAX_MAP_DIM, "MAX_MAP_DIM")
    comps = _polys(data, "components", "map", n)
    if len(comps) != m:
        raise SpecFileError(f"map needs {m} components, found {len(comps)}")
    return PolyMap(n, m, comps)


LOADERS = {
    "algebroid": load_algebroid,
    "bundle": load_bundle,
    "connection": load_connection,
    "map": load_map,
}


def load(path: str | Path, expect_kind: str | None = None):
    data = load_document(path, expect_kind)
    kind = data["kind"]
    if kind == "section":
        raise SpecFileError("sections need a base dimension; load via load_section")
    loader = LOADERS.get(kind)
    if loader is None:
        raise SpecFileError(f"{path}: unknown kind {kind!r}")
    return loader(data)
