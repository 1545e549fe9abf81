"""Check reports and the value classes: what importing them costs, how the
values compare, and exact identities compared before they are subtracted
(`CheckReport.equal`)."""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from tancat import algebroid as AL
from tancat import bundle as BD
from tancat import flatspace as FS
from tancat import nerve as NV
from tancat import poly as poly_module
from tancat import selftest as ST
from tancat import weil, wterm
from tancat.poly import PolyMap, Polynomial, check_cdc_axioms, parse_poly, random_map
from tancat.report import CheckReport, Verdict

ROOT = Path(__file__).resolve().parents[1]


def test_importing_the_kernel_loads_no_dataclasses_json_or_inspect():
    # The baseline is what the interpreter has loaded before the import
    # (`site` may preload modules such as random and typing): only the
    # modules that `import tancat.poly` adds are checked.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import tancat.poly\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                          capture_output=True, check=False,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    added = set(proc.stdout.split())
    assert {"tancat.poly", "tancat.report"} <= added
    assert not added & {"dataclasses", "json", "inspect"}, sorted(added)


@pytest.mark.parametrize("module", ["tancat.cli", "tancat.selftest"])
def test_importing_the_commands_loads_no_dataclasses_inspect_or_typing(module):
    # The value classes are written by hand, so the structural layer and the
    # CLI start without `dataclasses` and the `inspect`, `ast`, `dis` and
    # `tokenize` it pulls in.  `site` preloads `typing` here, so `typing` is
    # checked in a run without `site` (`-S`).
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    for flags, banned in (([], {"dataclasses", "inspect"}),
                          (["-S"], {"dataclasses", "inspect", "typing"})):
        proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=ROOT, text=True,
                              capture_output=True, check=False,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0, proc.stderr[-2000:]
        added = set(proc.stdout.split())
        assert {module, "tancat.wterm", "tancat.algebroid"} <= added
        assert not added & banned, (flags, sorted(added & banned))


def _value_instances():
    """(class name, first instance, an equal one built apart, a field name)
    for each value class of the structural layer."""
    gen = lambda: wterm.Gen("proj", i=1, n=2)
    ident = lambda: wterm.parse_term("id{W}")
    bundle = lambda: BD.TrivialBundle(1, 2)
    return [
        ("WeilAlgebra", weil.WeilAlgebra((1, 1)), weil.make_weil([1, 1]), "widths"),
        ("TransverseSquare", weil.transverse_square("vertical-lift"),
         weil.transverse_square("vertical-lift"), "provenance"),
        ("Gen", gen(), gen(), "kind"),
        ("Compose", wterm.Compose(ident(), ident()), wterm.parse_term("id{W} . id{W}"),
         "outer"),
        ("Tensor", wterm.Tensor(ident(), ident()), wterm.parse_term("id{W} * id{W}"),
         "left"),
        ("Pair", wterm.Pair(ident(), ident()), wterm.parse_term("<id{W}, id{W}>"), "right"),
        ("AnchoredShape", ST.action_algebroid("x1").shape,
         ST.action_algebroid("x1").shape, "rho"),
        ("Block", FS.Block((1, 0), 2, 3), FS.Block((1, 0), 2, 3), "offset"),
        ("AlgebroidData", ST.so3(), ST.so3(), "bracket"),
        ("Lift", bundle().lift, bundle().lift, "lam"),
        ("TrivialBundle", bundle(), bundle(), "rank"),
        ("ScalarAction", BD.scaling_action(bundle()), BD.scaling_action(bundle()), "action"),
        ("Connection", BD.trivial_connection(bundle()), BD.trivial_connection(bundle()),
         "kappa"),
    ]


def test_value_classes_compare_by_fields_within_one_class_and_refuse_assignment():
    values = _value_instances()
    assert len(values) == 13          # with the abstract WTerm, 14 classes
    for name, a, b, field in values:
        assert type(a).__name__ == name and type(b) is type(a)
        assert a is not b and a == b and not a != b and hash(a) == hash(b), name
        for target, value in ((field, getattr(a, field)), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(a, target, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == getattr(b, field)
        others = [other for other_name, other, _, _ in values if other_name != name]
        assert all(a != other for other in others), name
    # Term nodes of different classes over the same children are unequal.
    ident = wterm.parse_term("id{W}")
    nodes = [wterm.Compose(ident, ident), wterm.Tensor(ident, ident), wterm.Pair(ident, ident)]
    assert all(isinstance(t, wterm.WTerm) for t in nodes)
    assert [(s, t) for s in nodes for t in nodes if s == t] == [(t, t) for t in nodes]
    assert len({*nodes, *(wterm.parse_term(wterm.print_term(t)) for t in nodes)}) == 3
    assert FS.Block((1,), 2, 3) != ((1,), 2, 3)
    assert weil.WeilAlgebra((1, 2)) != weil.WeilAlgebra((2, 1))
    assert wterm.Gen("proj", i=1, n=2) != wterm.Gen("proj", i=2, n=2)
    assert ST.so3() != ST.heisenberg()
    # Each construction check still runs when a value is built.
    with pytest.raises(weil.WeilError):
        weil.WeilAlgebra((1, 0))
    with pytest.raises(wterm.WTermError):
        wterm.Compose(wterm.parse_term("p"), wterm.parse_term("p"))
    with pytest.raises(ValueError):
        FS.AnchoredShape(1, 1, ())
    with pytest.raises(ValueError):
        BD.Lift(2, PolyMap.identity(2))
    with pytest.raises(ValueError):
        BD.ScalarAction(2, PolyMap.identity(2))
    with pytest.raises(ValueError):
        BD.Connection(BD.TrivialBundle(1, 1), PolyMap.identity(2), PolyMap.identity(3))
    p = weil.generator("p")
    with pytest.raises(weil.WeilError):
        weil.TransverseSquare(weil.generator("zero"), weil.generator("zero"), p,
                              weil.compose_morphisms(p, weil.generator("plus")), "bad")
    # The shape of an algebroid is built once and kept.
    A = ST.so3()
    assert A.shape is A.shape
    # Printed forms are unchanged.
    assert (str(weil.WW), repr(weil.WW), str(weil.NAT), str(weil.make_weil([2, 1]))) == \
        ("W*W", "W*W", "N", "W2*W")
    for text in ("+ . <0 . !{W}, id{W}>", "(c . l) * id{W2*W}", "proj{1,2} . id{W2}",
                 "<p, p>", "l * (c . c)"):
        assert wterm.print_term(wterm.parse_term(text)) == text
    assert str(ST.so3()) == "algebroid(d=0, r=3)"


def test_verdicts_are_immutable_and_reports_serialize_as_before():
    v = Verdict("x", True)
    assert v.witness is None and v.as_dict() == {"name": "x", "passed": True}
    try:
        v.passed = False
    except AttributeError:
        pass
    else:
        raise AssertionError("a verdict accepted an assignment")
    report = CheckReport("t")
    report.add("b", False, "w")
    report.add("a", True, "dropped")
    assert report.verdicts == [Verdict("b", False, "w"), Verdict("a", True)]
    assert report.sort().to_json() == (
        '{\n  "passed": false,\n  "title": "t",\n  "verdicts": [\n'
        '    {\n      "name": "a",\n      "passed": true\n    },\n'
        '    {\n      "name": "b",\n      "passed": false,\n      "witness": "w"\n    }\n'
        '  ]\n}')
    assert report == CheckReport("t", [Verdict("a", True), Verdict("b", False, "w")])
    assert report != CheckReport("u", list(report.verdicts))


def spy_on_subtraction(monkeypatch) -> list:
    calls = []
    sub = PolyMap.__sub__

    def counted(self, other):
        calls.append(1)
        return sub(self, other)
    monkeypatch.setattr(PolyMap, "__sub__", counted)
    return calls


def test_a_passing_identity_builds_no_difference_and_no_context(monkeypatch):
    calls = spy_on_subtraction(monkeypatch)
    contexts = []
    f = PolyMap.from_strings(2, ["x1^2 - 1/2*x2", "x1*x2"])
    report = CheckReport("spy")
    report.equal("same map", f, PolyMap.from_strings(2, ["-1/2*x2 + x1^2", "x2*x1"]),
                 lambda: contexts.append(1) or "context")
    assert report.passed and calls == [] and contexts == []
    # Whole checkers on valid input: CD.1-CD.7, the involution axioms and
    # nerve functoriality pass without one subtraction of maps.
    sample = [random_map(random.Random(5), 2, 2, 2) for _ in range(3)]
    assert check_cdc_axioms(sample, seed=5).passed
    A = ST.so3()
    assert AL.check_involution_axioms(A, AL.involution_from_bracket(A)).passed
    rng = random.Random(8)
    pairs = [wterm.random_equal_pair(rng, depth=2, rewrites=2) for _ in range(10)]
    pairs.append((wterm.parse_term("c . c"), wterm.parse_term("id{W*W}")))
    assert NV.check_functoriality(A, pairs).passed
    assert calls == []
    # A failing identity builds the difference once, for its witness.
    report.equal("other map", f, PolyMap.from_strings(2, ["x1^2", "x1*x2"]),
                 lambda: contexts.append(1) or "context")
    assert not report.passed and len(calls) == 1 and contexts == [1]


maps = st.builds(
    lambda rows: PolyMap.from_strings(2, rows),
    st.lists(st.sampled_from(["0", "x1", "x2", "x1 - x1", "1/2*x1*x2", "x1^2 + 3",
                              "x2 - 2/3", "-x1^2 - 3"]), min_size=2, max_size=2))


@given(maps, maps, st.sampled_from(["", "f=x1", None]))
@settings(max_examples=80, deadline=None)
def test_equal_records_what_checking_the_difference_records(lhs, rhs, context):
    old, new = CheckReport("old"), CheckReport("new")
    ctx = (lambda: "lazy context") if context is None else context
    old.check("identity", lhs - rhs, ctx)
    new.equal("identity", lhs, rhs, ctx)
    assert new.verdicts == old.verdicts
    for a, b in zip(lhs.components, rhs.components):
        old.check("component", a - b, ctx)
        new.equal("component", a, b, ctx)
    assert new.verdicts == old.verdicts


def test_a_failing_identity_keeps_its_witness_text():
    lhs = PolyMap.from_strings(2, ["x1^2 + x2", "x1"])
    rhs = PolyMap.from_strings(2, ["x2", "x1 - 1/2"])
    report = CheckReport("witness")
    report.equal("square", lhs, rhs, lambda: "f=x1^2")
    report.equal("plain", lhs.components[0], rhs.components[0])
    assert [v.witness for v in report.verdicts] == [
        "f=x1^2: nonzero difference (x1^2, 1/2): Q^2 -> Q^2", "nonzero difference x1^2"]


def test_sides_stored_differently_fall_back_to_the_difference():
    # A 0 coefficient kept in a term dict (which the kernel never does) makes
    # `==` fail; the verdict then rests on the difference, as it did before.
    x1 = parse_poly("x1", 1)
    stored_zero = poly_module._make(1, {1: 1, 2: 0}, False)
    assert stored_zero != x1
    old, new = CheckReport("old"), CheckReport("new")
    old.check("x1", stored_zero - x1)
    new.equal("x1", stored_zero, x1)
    assert new.verdicts == old.verdicts and not new.passed
    new.equal("zero", Polynomial.zero(1), Polynomial.zero(1))
    assert new.verdicts[-1] == Verdict("zero", True)
