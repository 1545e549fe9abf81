"""The category of Weil N-rigs: arithmetic, generators, transverse squares."""

import random

import pytest

from tancat import weil
from tancat.weil import (NAT, W, WW, WeilAlgebra, WeilElement, WeilError,
                         WeilMorphism, compose_morphisms, element_mul,
                         fibered_pair, generator, identity_morphism, make_weil,
                         mu_morphism, parse_algebra,
                         tensor_morphisms, transverse_square)


def test_make_weil_examples():
    assert make_weil([2]).dim == 3
    assert make_weil([2]).basis() == [(0,), (1,), (2,)]
    assert make_weil([1, 1]).dim == 4
    assert make_weil([1, 1]).basis() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert make_weil([]).dim == 1
    with pytest.raises(WeilError):
        make_weil([0])


def test_algebra_notation():
    assert parse_algebra("N") == NAT
    assert parse_algebra("W") == W
    assert parse_algebra("W2*W") == WeilAlgebra((2, 1))
    assert str(WeilAlgebra((2, 1))) == "W2*W"
    with pytest.raises(WeilError):
        parse_algebra("V3")
    # str.isdigit accepts superscripts, which int() rejects with a bare ValueError.
    for text in ("W²", "W2*W₂"):
        with pytest.raises(WeilError, match="bad algebra factor"):
            parse_algebra(text)


def test_parse_algebra_bounds_the_dimension():
    assert parse_algebra("W255").dim == weil.MAX_ALGEBRA_DIM
    assert parse_algebra("*".join(["W"] * 8)).dim == weil.MAX_ALGEBRA_DIM
    for text in ("W256", "*".join(["W"] * 9), "W3*W63*W", "W" + "9" * 40):
        with pytest.raises(WeilError, match="MAX_ALGEBRA_DIM = 256"):
            parse_algebra(text)


def test_element_multiplication():
    ww = WW
    x = WeilElement.variable(ww, 0, 1)
    y = WeilElement.variable(ww, 1, 1)
    assert element_mul(x, y) == WeilElement(ww, {(1, 1): 1})
    w2 = make_weil([2])
    x1 = WeilElement.variable(w2, 0, 1)
    x2 = WeilElement.variable(w2, 0, 2)
    assert element_mul(x1, x2).coeffs == {}
    xw = WeilElement.variable(W, 0, 1)
    assert element_mul(xw, xw).coeffs == {}


def test_element_mismatch_and_negative():
    with pytest.raises(WeilError, match="mismatch"):
        element_mul(WeilElement.unit(W), WeilElement.unit(WW))
    with pytest.raises(WeilError, match="negative"):
        WeilElement(W, {(0,): -1})


def test_generator_actions_on_elements():
    p = generator("p")
    elem = WeilElement(W, {(0,): 3, (1,): 4})
    assert p.apply(elem) == WeilElement.unit(NAT, 3)
    plus = generator("plus")
    w2 = make_weil([2])
    a = WeilElement(w2, {(0,): 1, (1,): 2, (2,): 5})
    assert plus.apply(a) == WeilElement(W, {(0,): 1, (1,): 7})
    flip = generator("flip")
    full = WeilElement(WW, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    assert flip.apply(full) == WeilElement(WW, {(0, 0): 1, (1, 0): 3,
                                                (0, 1): 2, (1, 1): 4})
    ell = generator("ell")
    assert ell.apply(elem) == WeilElement(WW, {(0, 0): 3, (1, 1): 4})


def test_morphism_relation_validation():
    # x -> x + y is not a rig morphism into W⊗W: (x+y)² = 2xy ≠ 0.
    img = WeilElement(WW, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(WeilError, match="relation"):
        WeilMorphism(W, WW, [img])
    # x -> y + xy is fine.
    WeilMorphism(W, WW, [WeilElement(WW, {(0, 1): 1, (1, 1): 1})])


def test_composition_examples():
    p, zero = generator("p"), generator("zero")
    assert compose_morphisms(p, zero) == identity_morphism(NAT)
    ell = generator("ell")
    p_tensor_id = tensor_morphisms(p, identity_morphism(W))
    collapsed = compose_morphisms(p_tensor_id, ell)
    assert collapsed == compose_morphisms(zero, p)
    # + ∘ <0∘!, id> = id.
    bang = generator("bang", algebra=W)
    left_unit = compose_morphisms(
        generator("plus"),
        fibered_pair(compose_morphisms(zero, bang), identity_morphism(W)))
    assert left_unit == identity_morphism(W)


def test_category_laws_random():
    rng = random.Random(0)
    gens = [generator("p"), generator("zero"), generator("plus"),
            generator("ell"), generator("flip"),
            generator("proj", i=1, n=2), generator("proj", i=2, n=2)]
    pool = list(gens)
    for f in gens:
        for g in gens:
            if f.target == g.source:
                pool.append(compose_morphisms(g, f))
    for _ in range(150):
        f = rng.choice(pool)
        g = rng.choice(pool)
        h = rng.choice(pool)
        if f.target == g.source and g.target == h.source:
            assert compose_morphisms(h, compose_morphisms(g, f)) == \
                compose_morphisms(compose_morphisms(h, g), f)
        assert compose_morphisms(f, identity_morphism(f.source)) == f
        assert compose_morphisms(identity_morphism(f.target), f) == f
        # Tensor functoriality where shapes allow.
        if f.target == g.source:
            gf = compose_morphisms(g, f)
            assert tensor_morphisms(gf, gf) == compose_morphisms(
                tensor_morphisms(g, g), tensor_morphisms(f, f))


def test_tensor_strict_associativity():
    f = generator("ell")
    g = generator("plus")
    h = generator("p")
    assert tensor_morphisms(tensor_morphisms(f, g), h) == \
        tensor_morphisms(f, tensor_morphisms(g, h))


def test_terminality():
    for V in (NAT, W, WW, make_weil([3]), make_weil([2, 1])):
        bang = generator("bang", algebra=V)
        p = generator("p")
        if V == W:
            assert bang == p  # they must literally coincide as morphisms
        # Any composite into N equals bang.
        assert compose_morphisms(generator("zero"), bang).target == W
    # Composites landing in N collapse to bang, whatever the route.
    rng = random.Random(9)
    routes = [
        compose_morphisms(generator("p"),
                          compose_morphisms(generator("plus"),
                                            fibered_pair(generator("proj", i=1, n=2),
                                                         generator("proj", i=2, n=2)))),
        compose_morphisms(generator("p"), generator("proj", i=2, n=2)),
        compose_morphisms(compose_morphisms(generator("p"), generator("plus")),
                          identity_morphism(make_weil([2]))),
    ]
    for route in routes:
        assert route == generator("bang", algebra=route.source)


def test_flip_identities():
    c = generator("flip")
    ell = generator("ell")
    assert compose_morphisms(c, c) == identity_morphism(WW)
    assert compose_morphisms(c, ell) == ell
    idw = identity_morphism(W)
    cw = tensor_morphisms(c, idw)
    wc = tensor_morphisms(idw, c)
    lhs = compose_morphisms(cw, compose_morphisms(wc, cw))
    rhs = compose_morphisms(wc, compose_morphisms(cw, wc))
    assert lhs == rhs


def test_plus_commutativity_via_projections():
    plus = generator("plus")
    swap = fibered_pair(generator("proj", i=2, n=2), generator("proj", i=1, n=2))
    assert compose_morphisms(plus, swap) == plus


def test_matrix_representation():
    ell = generator("ell")
    # Columns indexed by (1, x); rows by (1, y, x, xy).
    assert ell.matrix() == [[1, 0, 0, 0], [0, 0, 0, 1]]


# -- transverse squares ----------------------------------------------------------


def test_fibered_sum_square_is_a_pullback_elementwise():
    """W_{n+m} really is the pullback of W_n -> N <- W_m on elements."""
    sq = transverse_square("fibered-sum", n=1, m=2)
    apex = sq.apex
    assert apex == make_weil([3])
    # Pairs of elements with equal units correspond to apex elements.
    a = WeilElement(make_weil([1]), {(0,): 2, (1,): 3})
    b = WeilElement(make_weil([2]), {(0,): 2, (1,): 4, (2,): 5})
    merged = WeilElement(apex, {(0,): 2, (1,): 3, (2,): 4, (3,): 5})
    assert sq.left_leg.apply(merged) == a
    assert sq.right_leg.apply(merged) == b


def test_vertical_lift_square():
    sq = transverse_square("vertical-lift")
    assert sq.apex == W
    mu = mu_morphism()
    # mu sends x1 to the second variable and x2 to the product.
    assert mu.image_of(0, 1) == WeilElement(WW, {(0, 1): 1})
    assert mu.image_of(0, 2) == WeilElement(WW, {(1, 1): 1})
    # Elementwise pullback property: mu(v) = (0⊗id)(w) forces the W shape.
    w2 = make_weil([2])
    v = WeilElement(w2, {(0,): 1, (1,): 6})
    w = WeilElement(W, {(0,): 1, (1,): 6})
    assert mu.apply(v) == tensor_morphisms(generator("zero"),
                                           identity_morphism(W)).apply(w)


def test_identity_square_and_whiskering():
    sq = transverse_square("identity", algebra=W)
    assert sq.apex == W
    whiskered = transverse_square("vertical-lift", whisker_left=W)
    assert whiskered.apex == WW
    assert whiskered.left_base.source == W.tensor(make_weil([2]))
    with pytest.raises(WeilError):
        transverse_square("nonsense")


def test_square_commutativity_enforced():
    p = generator("p")
    zero = generator("zero")
    with pytest.raises(WeilError, match="commute"):
        weil.TransverseSquare(identity_morphism(W), identity_morphism(W),
                              compose_morphisms(zero, p), identity_morphism(W),
                              "bogus")


# -- rig laws under the nilpotency reduction -------------------------------------


from hypothesis import given, settings
from hypothesis import strategies as st


def _element(algebra, coeff_list):
    basis = algebra.basis()
    return WeilElement(algebra, {m: c for m, c in zip(basis, coeff_list) if c})


@st.composite
def _elements(draw, algebra):
    coeffs = draw(st.lists(st.integers(0, 5), min_size=algebra.dim,
                           max_size=algebra.dim))
    return _element(algebra, coeffs)


@given(_elements(WW), _elements(WW), _elements(WW))
@settings(max_examples=60, deadline=None)
def test_element_rig_laws(a, b, c):
    assert element_mul(a, b) == element_mul(b, a)
    assert a + b == b + a
    assert element_mul(a, b + c) == element_mul(a, b) + element_mul(a, c)
    assert element_mul(element_mul(a, b), c) == element_mul(a, element_mul(b, c))
    one = WeilElement.unit(WW)
    assert element_mul(a, one) == a


@given(_elements(WeilAlgebra((2, 1))), _elements(WeilAlgebra((2, 1))))
@settings(max_examples=40, deadline=None)
def test_morphism_application_is_additive_multiplicative(a, b):
    # Push along +⊗p: W2⊗W -> W; rig morphisms preserve + and ·.
    phi = tensor_morphisms(generator("plus"), generator("p"))
    assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)
    assert phi.apply(element_mul(a, b)) == element_mul(phi.apply(a), phi.apply(b))
