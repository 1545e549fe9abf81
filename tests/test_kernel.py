"""The sparse polynomial kernel: ring laws, exponent limits, canonical coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat.poly import MAX_EXPONENT, PolyError, Polynomial, parse_poly

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
