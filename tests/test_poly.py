"""Polynomials, the differential combinator, and the CDC axiom checker.

The derivative has an independent oracle here: a term-by-term power rule
applied directly to the coefficient dictionaries, sharing no code with
Polynomial.partial.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import poly as poly_module
from tancat.poly import (PolyError, PolyMap, Polynomial, check_cdc_axioms,
                         compose_maps, differential, is_linear, parse_poly,
                         random_map)
from tancat.report import CheckReport


def naive_partial(poly: Polynomial, index: int) -> Polynomial:
    """Independent power-rule derivative working on raw dictionaries."""
    out = {}
    for mono, coeff in poly.monomials():
        e = mono[index - 1]
        if e == 0:
            continue
        lowered = list(mono)
        lowered[index - 1] -= 1
        out[tuple(lowered)] = coeff * e
    return Polynomial(poly.n_vars, out)


def naive_differential(f: PolyMap) -> PolyMap:
    """D[f](x, v) assembled from the naive derivative."""
    n = f.src_dim
    xs = [Polynomial.var(2 * n, i + 1) for i in range(n)]
    comps = []
    for c in f.components:
        acc = Polynomial.zero(2 * n)
        for j in range(n):
            acc = acc + naive_partial(c, j + 1).substitute(xs) \
                * Polynomial.var(2 * n, n + j + 1)
        comps.append(acc)
    return PolyMap(2 * n, f.tgt_dim, comps)


# -- parsing and printing -------------------------------------------------------


def test_parse_examples():
    p = parse_poly("3/2*x1^2*x2 - x3")
    assert p.n_vars == 3
    assert p.eval([2, 1, 5]) == Fraction(1)
    assert str(p) == "3/2*x1^2*x2 - x3"


def test_parse_errors_have_positions():
    with pytest.raises(PolyError, match="position"):
        parse_poly("x1 + ^2")
    with pytest.raises(PolyError):
        parse_poly("x0", 2)


@pytest.mark.parametrize("text", ["x²", "x1^²", "²", "x1 + ³/2", "3/²"])
def test_non_decimal_digits_are_parse_errors(text):
    # str.isdigit accepts superscripts, which int() rejects with a bare ValueError.
    with pytest.raises(PolyError, match="position"):
        parse_poly(text, 2)
    with pytest.raises(PolyError, match="position"):
        parse_poly(text)


@pytest.mark.parametrize("text", [
    "0", "5", "-x1", "x1 - x1", "2*x1*x2 + x2^3 - 7/3",
    "x1^2 - 2*x1 + 1", "1/2*x2 - 1/2*x2",
])
def test_print_parse_round_trip(text):
    p = parse_poly(text, 2)
    assert parse_poly(str(p), 2) == p


@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 3), st.integers(0, 3)),
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_round_trip_random(terms):
    p = Polynomial.zero(2)
    for c, e1, e2 in terms:
        p = p + Polynomial(2, {(e1, e2): Fraction(c)}) if c else p
    assert parse_poly(str(p), 2) == p


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=50, deadline=None)
def test_ring_laws(a, b, c):
    x = Polynomial.var(1, 1)
    p = x * a + Polynomial.const(1, b)
    q = x * c - x * x
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


# -- maps and composition --------------------------------------------------------


def test_compose_substitution():
    g = PolyMap.from_strings(1, ["x1^2"])
    f = PolyMap.from_strings(1, ["x1 + 1"])
    assert compose_maps(g, f) == PolyMap.from_strings(1, ["x1^2 + 2*x1 + 1"])


def test_projection_law():
    f = PolyMap.from_strings(2, ["x1*x2"])
    g = PolyMap.from_strings(2, ["x1 + x2"])
    pair = PolyMap.pairing([f, g])
    pi0 = PolyMap.projection(2, 0, 1)
    assert compose_maps(pi0, pair) == f


def test_left_additivity():
    rng = random.Random(0)
    f = random_map(rng, 2, 2, 2)
    g = random_map(rng, 2, 1, 2)
    h = random_map(rng, 2, 1, 2)
    assert compose_maps(g + h, f) == compose_maps(g, f) + compose_maps(h, f)


def test_composition_mismatch():
    with pytest.raises(PolyError, match="cannot compose"):
        compose_maps(PolyMap.identity(2), PolyMap.identity(3))


# -- the differential combinator --------------------------------------------------


def test_differential_examples():
    f = PolyMap.from_strings(1, ["x1^2"])
    assert differential(f) == PolyMap.from_strings(2, ["2*x1*x2"])
    assert differential(PolyMap.identity(2)) == PolyMap.projection(4, 2, 2)
    pi = PolyMap.projection(2, 0, 1)
    assert differential(pi) == PolyMap.projection(4, 2, 1)


def test_differential_matches_naive_oracle():
    rng = random.Random(3)
    for _ in range(40):
        f = random_map(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        assert differential(f) == naive_differential(f)


def test_is_linear():
    assert is_linear(PolyMap.from_strings(1, ["3*x1"]))
    assert is_linear(PolyMap.from_strings(2, ["x1 + x2"]))
    assert not is_linear(PolyMap.from_strings(1, ["x1^2"]))
    assert not is_linear(PolyMap.from_strings(1, ["x1 + 1"]))


def test_linear_maps_closed_under_composition_pairing_addition():
    rng = random.Random(4)
    for _ in range(20):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        f = PolyMap.from_strings(2, [f"{a}*x1 + {b}*x2", "x1"])
        g = PolyMap.from_strings(2, ["x2", f"{b}*x1"])
        assert is_linear(compose_maps(f, g))
        assert is_linear(PolyMap.pairing([f, g]))
        assert is_linear(f + g)


def test_cdc_axioms_on_seeded_sample():
    rng = random.Random(5)
    sample = [random_map(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
              for _ in range(10)]
    report = check_cdc_axioms(sample, seed=6)
    assert report.passed, [v.name for v in report.verdicts if not v.passed]


def test_cdc_axioms_refuse_an_empty_sample():
    with pytest.raises(PolyError, match="no maps to check"):
        check_cdc_axioms([])


def test_cdc_axioms_refuse_a_map_into_q0():
    # Every verdict on a map into Q^0 compares maps with no components.
    f = PolyMap(2, 0, [])
    with pytest.raises(PolyError, match="map#1 maps to Q\\^0"):
        check_cdc_axioms([PolyMap.identity(2), f])


def test_cd6_example_x_cubed():
    f = PolyMap.from_strings(1, ["x1^3"])
    df = differential(f)
    ddf = differential(df)
    # D[D[f]]((a,0),(0,d)) = 3a²d = D[f](a,d)
    assert ddf.eval([2, 0, 0, 5]) == [Fraction(60)]
    assert df.eval([2, 5]) == [Fraction(60)]


def test_cd7_symmetry_xy():
    f = PolyMap.from_strings(2, ["x1*x2"])
    ddf = differential(differential(f))
    a, b, c, d = [1, 2], [3, 4], [5, 6], [7, 8]
    assert ddf.eval(a + b + c + d) == ddf.eval(a + c + b + d)


def test_check_formats_a_callable_context_only_on_failure():
    calls = []

    def context():
        calls.append(1)
        return "f=x1"

    lazy = CheckReport("lazy")
    lazy.check("zero difference", Polynomial.zero(1), context)
    lazy.check("true condition", True, context)
    assert calls == []
    lazy.check("nonzero difference", parse_poly("x1"), context)
    lazy.check("false condition", False, context)
    assert len(calls) == 2
    eager = CheckReport("eager")
    eager.check("zero difference", Polynomial.zero(1), "f=x1")
    eager.check("true condition", True, "f=x1")
    eager.check("nonzero difference", parse_poly("x1"), "f=x1")
    eager.check("false condition", False, "f=x1")
    assert [v.as_dict() for v in lazy.verdicts] == [v.as_dict() for v in eager.verdicts]
    assert [v.witness for v in lazy.verdicts] == [
        None, None, "f=x1: nonzero difference x1", "f=x1"]


def test_cdc_witness_is_formatted_on_failure(monkeypatch):
    # A differential off by a constant breaks CD.1-CD.7; every witness keeps
    # its eagerly formatted text: the map, then the difference.
    f = PolyMap.from_strings(2, ["x1^2*x2 - x2"])
    broken = lambda g: differential(g) + PolyMap.constant(2 * g.src_dim, [1] * g.tgt_dim)  # noqa: E731
    monkeypatch.setattr(poly_module, "differential", broken)
    report = check_cdc_axioms([f], seed=3)
    failing = [v for v in report.verdicts if not v.passed]
    assert len(failing) > 3
    for v in failing:
        assert v.witness.startswith((f"f={f}", "zero map", "identity map",
                                     "first projection")), v.witness
        assert ": nonzero difference " in v.witness


def test_linear_map_from_rows():
    f = PolyMap.linear(3, [{0: 2, 2: Fraction(1, 2)}, {}, {1: Fraction(4, 2), 0: 0}])
    assert f == PolyMap.from_strings(3, ["2*x1 + 1/2*x3", "0", "2*x2"])
    # Coefficients are canonical: 4/2 is stored as the int 2.
    assert [type(c) for _, c in f.components[2].monomials()] == [int]
    with pytest.raises(PolyError, match="x4 out of range"):
        PolyMap.linear(3, [{3: 1}])
