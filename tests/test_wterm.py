"""The term language: parsing, boundaries, semantics, c-free completeness."""

import itertools
import random

import pytest

from tancat import weil, wterm
from tancat.weil import NAT, W, WW, WeilAlgebra, WeilElement, WeilMorphism
from tancat.wterm import (Compose, Gen, Pair, Tensor, WTermError, eval_weil,
                          parse_term, print_term, random_equal_pair,
                          terms_equal)


def test_parse_boundaries():
    t = parse_term("c . l")
    assert t.source == W and t.target == WW
    t = parse_term("(p * id{W}) . l")
    assert t.source == W and t.target == W
    t = parse_term("+ . <0 . !{W}, id{W}>")
    assert t.source == W and t.target == W


def test_parse_errors_report_positions():
    with pytest.raises(WTermError, match="position"):
        parse_term("c . p")
    with pytest.raises(WTermError, match="position"):
        parse_term("l . ")
    with pytest.raises(WTermError):
        parse_term("proj{3,2}")
    with pytest.raises(WTermError, match="W*W"):
        parse_term("<l, p>")   # pairing needs W_n targets


def test_print_parse_identity():
    cases = [
        "c . l", "(p * id{W}) . l", "+ . <0 . !{W}, id{W}>", "id{N}",
        "(c * id{W}) . (id{W} * c) . (c * id{W})", "<proj{2,2}, proj{1,2}>",
        "p * p * p", "<p . proj{1,2}, +>",
        "(+ * c) . (<proj{1,2}, proj{2,2}> * id{W*W})",
    ]
    for text in cases:
        t = parse_term(text)
        assert parse_term(print_term(t)) == t


def test_print_parse_identity_random():
    rng = random.Random(11)
    for _ in range(200):
        t = wterm.random_term(rng, depth=3)
        assert parse_term(print_term(t)) == t


def test_eval_examples():
    assert eval_weil(parse_term("c . l")) == eval_weil(parse_term("l"))
    m = eval_weil(parse_term("(p * id{W}) . l"))
    assert m.image_of(0, 1) == WeilElement.zero(W)
    assert eval_weil(parse_term("id{N}")) == weil.identity_morphism(NAT)


def test_equation_suite():
    pairs = [
        ("(l * id{W}) . l", "(id{W} * l) . l"),
        ("c . c", "id{W*W}"),
        ("p . 0", "id{N}"),
        ("c . l", "l"),
    ]
    for lhs, rhs in pairs:
        assert terms_equal(parse_term(lhs), parse_term(rhs))
    assert not terms_equal(parse_term("(p * id{W}) . l"), parse_term("id{W}"))


def test_terms_equal_boundary_mismatch():
    with pytest.raises(WTermError, match="boundary"):
        terms_equal(parse_term("p"), parse_term("0"))


def test_eval_weil_functorial_on_random_terms():
    rng = random.Random(13)
    for _ in range(80):
        t = wterm.random_term(rng, depth=2)
        s = wterm.random_term(rng, depth=2)
        try:
            comp = Compose(t, s)
        except ValueError:
            continue
        assert eval_weil(comp) == weil.compose_morphisms(eval_weil(t), eval_weil(s))
        tens = Tensor(t, s)
        assert eval_weil(tens) == weil.tensor_morphisms(eval_weil(t), eval_weil(s))


def test_random_equal_pairs():
    rng = random.Random(17)
    for _ in range(150):
        t1, t2 = random_equal_pair(rng, depth=2)
        assert terms_equal(t1, t2)


# -- c-free completeness for width-1 boundaries ----------------------------------


def scalar_term(c: int, i: int, n: int) -> wterm.WTerm:
    """A c-free term W_n -> W with x_i -> c·x and the rest to zero."""
    proj = Gen("proj", i=i, n=n) if n > 1 else Gen("id", algebra=W)
    if c == 0:
        zero = Gen("zero")
        bang = Gen("bang", algebra=WeilAlgebra((n,)))
        return Compose(zero, bang)
    term = proj
    for _ in range(c - 1):
        term = Compose(Gen("plus"), Pair(term, proj))
    return term


def row_term(coeffs: list[int], n: int) -> wterm.WTerm:
    """A c-free term W_n -> W with x_i -> coeffs[i]·x."""
    term = None
    for i, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        part = scalar_term(c, i, n)
        term = part if term is None else Compose(Gen("plus"), Pair(term, part))
    if term is None:
        return Compose(Gen("zero"), Gen("bang", algebra=WeilAlgebra((n,))))
    return term


def matrix_term(matrix: list[list[int]], n: int) -> wterm.WTerm:
    """A c-free term W_n -> W_m realizing an arbitrary N-matrix."""
    m = len(matrix)
    term = None
    for row in matrix:
        part = row_term(row, n)
        term = part if term is None else Pair(term, part)
    if term is None:
        return Compose(Gen("bang", algebra=WeilAlgebra((n,))),
                       Gen("id", algebra=WeilAlgebra((n,))))
    return term


def term_is_c_free(t: wterm.WTerm) -> bool:
    if isinstance(t, Gen):
        return t.kind != "flip"
    if isinstance(t, (Compose,)):
        return term_is_c_free(t.outer) and term_is_c_free(t.inner)
    if isinstance(t, (Tensor, Pair)):
        return term_is_c_free(t.left) and term_is_c_free(t.right)
    return True


def all_morphisms_wn_wm(n: int, m: int, max_coeff: int):
    """Brute-force enumeration: every rig morphism W_n -> W_m is an N-matrix
    (images are degree-1 since all products vanish in W_m)."""
    target = WeilAlgebra((m,))
    entries = itertools.product(range(max_coeff + 1), repeat=n * m)
    for flat in entries:
        matrix = [[flat[j * n + i] for i in range(n)] for j in range(m)]
        images = []
        for i in range(n):
            images.append(WeilElement(
                target, {(j + 1,): matrix[j][i] for j in range(m)
                         if matrix[j][i]}))
        yield matrix, WeilMorphism(WeilAlgebra((n,)), target, images)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)])
def test_c_free_completeness_for_width_one_targets(n, m):
    """Every W_n -> W_m (dim ≤ 4, coefficients ≤ 2) has a c-free Pair-term."""
    count = 0
    for matrix, morphism in all_morphisms_wn_wm(n, m, max_coeff=2):
        term = matrix_term(matrix, n)
        assert term_is_c_free(term)
        assert term.source == WeilAlgebra((n,))
        assert eval_weil(term) == morphism, matrix
        count += 1
    assert count == 3 ** (n * m)


def test_c_free_reaches_random_generator_terms():
    """Random {p,0,+,l}-terms with source W_n are trivially reached (they are
    themselves c-free); their denotations must round-trip through the
    matrix construction when the target has width one."""
    rng = random.Random(23)
    found = 0
    for _ in range(200):
        t = wterm.random_term(rng, depth=2)
        if not term_is_c_free(t):
            continue
        src, tgt = t.source, t.target
        if src.n_factors != 1 or tgt.n_factors > 1:
            continue
        morphism = eval_weil(t)
        n = src.widths[0]
        m = tgt.widths[0] if tgt.widths else 0
        matrix = [[morphism.image_of(0, i + 1).coeffs.get((j + 1,), 0)
                   for i in range(n)] for j in range(m)]
        rebuilt = matrix_term(matrix, n)
        assert eval_weil(rebuilt) == morphism
        found += 1
    assert found >= 20


def test_mixed_target_morphisms_used_by_the_nerve_are_c_free():
    """The whiskered structure maps the nerve consumes all have c-free terms."""
    for text in ("l", "(id{W} * l) . l", "(l * id{W}) . l",
                 "0 * id{W}", "id{W} * 0", "(id{W} * p)", "p * id{W}",
                 "(id{W} * +)", "+ * id{W}"):
        t = parse_term(text)
        assert term_is_c_free(t)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.text(alphabet="pl0c+!id{}W2N*.<>, x", max_size=40))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes(text):
    """Arbitrary input either parses or raises WTermError, nothing else."""
    try:
        t = parse_term(text)
    except WTermError:
        return
    assert parse_term(print_term(t)) == t


def test_models_without_fiber_products_raise_unsupported_limit():
    """A model may lack the fibered-sum pairing; eval_model must surface the
    explicit unsupported-limit error on Pair nodes and work otherwise."""
    from tancat import algebroid
    from tancat.nerve import NerveModel
    from tancat.wterm import eval_model

    class UnsupportedLimit(ValueError):
        """The error this model raises for the fiber product it lacks."""

    class PairlessModel(NerveModel):
        def pair(self, left_term, left_mor, right_term, right_mor):
            raise UnsupportedLimit("this model has no fibered sums")

    model = PairlessModel(algebroid.tangent_algebroid(1))
    assert eval_model(parse_term("c . l"), model) is not None
    with pytest.raises(UnsupportedLimit):
        eval_model(parse_term("<p, p>"), model)
