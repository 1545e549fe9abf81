"""The sparse polynomial kernel: ring laws, exponent limits, canonical
coefficients, and composition with coordinate selections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat.poly import (MAX_EXPONENT, PolyError, PolyMap, Polynomial,
                         compose_maps, differential, parse_poly, tangent_n)

N_VARS = 3

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polynomials(n_vars: int = N_VARS, max_exp: int = 3):
    monomials = st.tuples(*[st.integers(0, max_exp)] * n_vars)
    return st.dictionaries(monomials, coefficients, max_size=6).map(
        lambda terms: Polynomial(n_vars, terms))


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=80, deadline=None)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert (a - a).is_zero()
    assert a - b == a + (-b)


@given(polynomials(n_vars=2), st.lists(polynomials(), min_size=2, max_size=2),
       st.lists(coefficients, min_size=N_VARS, max_size=N_VARS))
@settings(max_examples=60, deadline=None)
def test_substitute_commutes_with_eval(p, args, x):
    assert p.substitute(args).eval(x) == p.eval([a.eval(x) for a in args])


def test_exponent_limit_accepted():
    top = Polynomial(2, {(MAX_EXPONENT, 0): 1})
    assert MAX_EXPONENT == 32767
    assert top.degree() == 32767
    assert parse_poly("x1^32767", 2) == top
    assert Polynomial(2, {(16384, 0): 1}) * Polynomial(2, {(16383, 0): 1}) == top
    # The neighbouring field is untouched by a product at the limit.
    assert list((top * Polynomial.var(2, 2)).monomials()) == [((32767, 1), 1)]


def test_exponent_overflow_raises():
    x1 = Polynomial.var(2, 1)
    top = Polynomial(2, {(MAX_EXPONENT, 0): 1})
    with pytest.raises(PolyError, match="32767"):
        top * x1
    with pytest.raises(PolyError, match="32767"):
        (top + Polynomial.var(2, 2)) * (x1 + 1)
    with pytest.raises(PolyError, match="32767"):
        Polynomial(2, {(16384, 0): 1}) ** 2
    with pytest.raises(PolyError, match="32767"):
        x1 ** 32768
    with pytest.raises(PolyError, match="32767"):
        (x1 * x1).substitute([Polynomial(1, {(20000,): 1}), Polynomial.zero(1)])
    with pytest.raises(PolyError, match="32767"):
        Polynomial(1, {(32768,): 1})


@given(st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT),
       st.integers(0, MAX_EXPONENT))
@settings(max_examples=100, deadline=None)
def test_products_never_wrap(e1, e2, other):
    a = Polynomial(2, {(e1, other): 1})
    b = Polynomial(2, {(e2, 0): 1})
    if e1 + e2 > MAX_EXPONENT:
        with pytest.raises(PolyError, match="32767"):
            a * b
    else:
        assert list((a * b).monomials()) == [((e1 + e2, other), 1)]


def test_parse_rejects_huge_exponent_and_zero_denominator():
    with pytest.raises(PolyError, match="32767"):
        parse_poly("x1^99999999")
    with pytest.raises(PolyError, match="division by zero"):
        parse_poly("1/0*x1")


def test_canonical_coefficients():
    p = Polynomial.const(2, Fraction(4, 2))
    q = Polynomial.const(2, 2)
    assert p == q and hash(p) == hash(q) and str(p) == str(q) == "2"
    half = Polynomial.const(2, Fraction(1, 2))
    x = Polynomial.var(2, 1)
    # Fractions that sum, multiply or differentiate to integers print as integers.
    assert str(half * x + half * x) == "x1"
    assert str((half * x) * 4) == "2*x1"
    assert str((half * x * x).partial(1)) == "x1"
    coeffs = dict((half * x * 2 + half).monomials())
    assert type(coeffs[1, 0]) is int and type(coeffs[0, 0]) is Fraction


def test_variable_index_out_of_range():
    p = Polynomial.var(2, 1)
    for index in (0, 3):
        with pytest.raises(PolyError, match="out of range"):
            p.partial(index)
    with pytest.raises(PolyError, match="cannot shift"):
        p.shift_vars(1, 2)


def canonical(f: PolyMap) -> bool:
    return all(type(c) is int or c.denominator != 1
               for p in f.components for _, c in p.monomials())


def expand(p: Polynomial, args: list[Polynomial], n_vars: int) -> Polynomial:
    """p with args[i] for x_{i+1}, term by term through ring operations.

    `substitute` and `compose_maps` share one routine, so neither can serve
    as the other's reference.
    """
    total = Polynomial.zero(n_vars)
    for mono, coeff in p.monomials():
        term = Polynomial.const(n_vars, coeff)
        for arg, e in zip(args, mono):
            term = term * arg ** e
        total = total + term
    return total


SELECT_SRC = 3
# Component i of the selection copies x_j for a pick j, or is 0 for pick 0;
# picks may repeat (merging variables) and permute.
selections = st.lists(st.integers(0, SELECT_SRC), min_size=N_VARS, max_size=N_VARS).map(
    lambda picks: PolyMap(SELECT_SRC, N_VARS, [
        Polynomial.var(SELECT_SRC, j) if j else Polynomial.zero(SELECT_SRC)
        for j in picks]))


@given(st.lists(polynomials(), min_size=1, max_size=3), selections)
@settings(max_examples=150, deadline=None)
def test_selection_composition_matches_substitution(comps, f):
    g = PolyMap(N_VARS, len(comps), comps)
    fast = compose_maps(g, f)
    slow = PolyMap(f.src_dim, g.tgt_dim,
                   [expand(c, list(f.components), f.src_dim) for c in comps])
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert str(fast) == str(slow)
    assert canonical(fast)


def test_selection_merges_and_cancels():
    g = PolyMap.from_strings(3, ["1/2*x1*x2 + 1/2*x1^2 - x3", "x1*x2 - x2^2", "x3 + 1/3"])
    f = PolyMap(2, 3, [Polynomial.var(2, 1), Polynomial.var(2, 1), Polynomial.zero(2)])
    h = compose_maps(g, f)
    assert h == PolyMap.from_strings(2, ["x1^2", "0", "1/3"])
    assert canonical(h)
    assert dict(h.components[0].monomials()) == {(2, 0): 1}
    # Exponents move between fields without changing, up to the limit.
    top = PolyMap.from_strings(2, ["x1^32767"])
    swap = PolyMap.from_strings(2, ["x2", "x1"])
    assert compose_maps(top, swap) == PolyMap.from_strings(2, ["x2^32767"])


def test_selection_merge_overflow_raises():
    g = PolyMap.from_strings(2, ["x1^20000*x2^20000"])
    with pytest.raises(PolyError, match="32767"):
        compose_maps(g, PolyMap.from_strings(1, ["x1", "x1"]))
    # Three fields summing past 65535 must raise, not carry into x2.
    g3 = PolyMap.from_strings(3, ["x1^30000*x2^30000*x3^30000"])
    with pytest.raises(PolyError, match="32767"):
        compose_maps(g3, PolyMap.from_strings(2, ["x1", "x1", "x1"]))


def test_mixed_substitution_overflow_raises():
    # x1 is kept in place, x2 renamed to x1 and x3 expanded, in one map.
    f = PolyMap.from_strings(3, ["x1", "x1", "x2 + x3"])
    images, kept, expanded, _ = f.selection_images()
    assert kept and expanded and images[1] == images[0]
    # The renamed field lands on the kept field, which is at the limit.
    with pytest.raises(PolyError, match="32767"):
        compose_maps(PolyMap.from_strings(3, ["x1^32767*x2*x3"]), f)
    assert compose_maps(PolyMap.from_strings(3, ["x1^32766*x2*x3"]), f) == \
        PolyMap.from_strings(3, ["x1^32767*x2 + x1^32767*x3"])
    # The renamed key x2 is added onto an expanded term x2^32767.
    g = PolyMap(2, 2, [Polynomial.var(2, 2), parse_poly("x2^32767 + x1", 2)])
    with pytest.raises(PolyError, match="32767"):
        compose_maps(PolyMap.from_strings(2, ["x1*x2"]), g)
    assert compose_maps(PolyMap.from_strings(2, ["x2"]), g) == PolyMap(2, 1, [g.components[1]])


@given(st.lists(st.one_of(polynomials(), st.integers(0, N_VARS)), min_size=1, max_size=4),
       st.lists(polynomials(n_vars=2), min_size=N_VARS, max_size=N_VARS))
@settings(max_examples=100, deadline=None)
def test_composition_with_bare_variable_components(parts, inner):
    # An integer part j stands for the component x_j of g, 0 for the zero polynomial.
    comps = [p if isinstance(p, Polynomial) else
             Polynomial.var(N_VARS, p) if p else Polynomial.zero(N_VARS) for p in parts]
    g = PolyMap(N_VARS, len(comps), comps)
    f = PolyMap(2, N_VARS, inner)
    expected = PolyMap(2, g.tgt_dim, [expand(c, inner, 2) for c in comps])
    assert compose_maps(g, f) == expected
    assert str(compose_maps(g, f)) == str(expected)


def stores_no_zero(*results) -> bool:
    """No term of any polynomial or map component has coefficient 0."""
    polys = [q for r in results
             for q in (r.components if isinstance(r, PolyMap) else (r,))]
    return all(c != 0 for q in polys for _, c in q.monomials())


@given(polynomials(), polynomials(), st.lists(polynomials(), min_size=N_VARS, max_size=N_VARS),
       st.integers(0, 3), st.integers(1, N_VARS), st.integers(0, 2),
       st.lists(st.dictionaries(st.integers(0, N_VARS - 1), coefficients, max_size=3),
                max_size=3))
@settings(max_examples=100, deadline=None)
def test_kernel_results_store_no_zero_coefficient(a, b, args, k, i, offset, rows):
    # `CheckReport.equal` passes two sides on `==` alone; that agrees with a
    # zero difference only while no term dict keeps a 0 coefficient.
    f = PolyMap(N_VARS, N_VARS, args)
    results = [a + b, a - b, a - a, a + (-a), a * b, a * 0, a * Fraction(1, 2) * 2, a ** k,
               a.partial(i), a.substitute(args), a.shift_vars(offset, N_VARS + offset),
               compose_maps(f, f), differential(f), tangent_n(f, 2),
               PolyMap.linear(N_VARS, rows), PolyMap.linear(N_VARS, [{0: 0, 1: Fraction(0)}]),
               parse_poly("x1 - x1"), parse_poly("2*x1*x2 - x2*x1*2 + 0*x3", 3)]
    assert stores_no_zero(*results)
    for lhs, rhs in [(a + b, b + a), (a - b, a + (-b)), (a * b, b * a), (a, b),
                     (a - a, Polynomial.zero(N_VARS)), (a.substitute(args), b),
                     (compose_maps(f, f), f), (differential(f), differential(f)),
                     (parse_poly("x1 - x1", N_VARS), Polynomial.zero(N_VARS))]:
        assert (lhs == rhs) is (lhs - rhs).is_zero()
