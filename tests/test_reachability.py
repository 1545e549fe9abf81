"""Every definition in `tancat` is reached from a command or a criterion.

The walk starts at `cli.main` and `selftest.run_selftest` and follows name
references with the stdlib `ast` module over `src/tancat`.  Its nodes are
the top-level functions, classes and assigned names of each module and the
methods of each class.  A node reaches:

- a top-level node of any module through a bare name, an attribute
  (`AL.check_structure_equations`) or a string that is exactly its name
  (`selftest` looks its criteria up in `globals()`);
- a method through an attribute of that name, once its class is reached;
  a reached class reaches its dunder methods, which Python calls for it.

Matching by name over-approximates: a local variable that shares a
definition's name keeps that definition reached.  Code that runs at import
and is no definition (`if __name__ == "__main__"`) is a root as well, and
so is a module dunder (`__version__`), which tools read.

The test fails on an unreached definition that is not in `UNREACHED`, and
on an entry of `UNREACHED` that is reached or gone, so the list stays exact.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tancat"
ROOTS = ("cli.main", "selftest.run_selftest")

# Definitions no command reaches, each kept for the reason given.
UNREACHED = {
    "algebroid.check_morphism":
        "the nerve-on-morphisms checker will be paired with it",
    "bundle.check_connection":
        "the connection-independence verdict will read connection files "
        "through it",
    "bundle._horizontal_lift_maps": "only `check_connection` uses it",
    "tangent.check_product_preservation":
        "a paper checker (T^V preserves products) whose verdict waits for "
        "a benchmark change",
    "tangent.interleaving_iso": "only `check_product_preservation` uses it",
    "poly.PolyMap.cross": "only `check_product_preservation` uses it",
    "weil.make_weil": "a test convenience",
    "poly.is_linear": "a test convenience",
    "poly.Polynomial.monomials":
        "the oracles read terms through it without the packed keys",
    "poly._unpack": "only `Polynomial.monomials` uses it",
}


def _references(nodes) -> set[str]:
    """Names, attributes and identifier strings used anywhere in `nodes`."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def _graph():
    """Per node: its references; per method: its class; and the roots."""
    uses: dict[str, set[str]] = {}
    owner: dict[str, str] = {}
    roots = set(ROOTS)
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                uses[f"{module}.{stmt.name}"] = _references([stmt])
            elif isinstance(stmt, ast.ClassDef):
                cls = f"{module}.{stmt.name}"
                body = [s for s in stmt.body if not isinstance(s, ast.FunctionDef)]
                uses[cls] = _references(body + stmt.bases + stmt.decorator_list)
                for method in stmt.body:
                    if isinstance(method, ast.FunctionDef):
                        uses[f"{cls}.{method.name}"] = _references([method])
                        owner[f"{cls}.{method.name}"] = cls
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    name = f"{module}.{target.id}"
                    uses[name] = _references([stmt.value])
                    if target.id.startswith("__"):
                        roots.add(name)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) and not (
                    isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
                roots.add(f"{module}:{stmt.lineno}")
                uses[f"{module}:{stmt.lineno}"] = _references([stmt])
    return uses, owner, roots


def reached() -> tuple[set[str], set[str]]:
    """The definitions reached from the roots, and all definitions."""
    uses, owner, roots = _graph()
    defined = {name for name in uses if ":" not in name}
    by_name: dict[str, list[str]] = {}
    for name in defined:
        by_name.setdefault(name.rsplit(".", 1)[1], []).append(name)
    seen: set[str] = set()
    referenced: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        referenced |= uses[name]
        for ref in uses[name]:
            todo += [d for d in by_name.get(ref, []) if d not in owner or owner[d] in seen]
        # A class reaches the methods already referenced and its dunders.
        todo += [m for m, cls in owner.items() if cls == name and (
            m.rsplit(".", 1)[1] in referenced or m.rsplit(".", 1)[1].startswith("__"))]
    return seen & defined, defined


def test_every_unreached_definition_is_listed():
    seen, defined = reached()
    unlisted = sorted(defined - seen - set(UNREACHED))
    assert not unlisted, f"unreached and not in UNREACHED: {unlisted}"


def test_every_listed_definition_exists_and_is_unreached():
    seen, defined = reached()
    stale = sorted(name for name in UNREACHED if name in seen or name not in defined)
    assert not stale, f"UNREACHED entries that are reached or gone: {stale}"
