"""The Weil nerve: objects, generator maps, functoriality, L'."""

import itertools
import random

import pytest

from tancat import algebroid as AL
from tancat import nerve as NV
from tancat import tangent, weil, wterm
from tancat.flatspace import (PROLONGATION_CACHE_SIZE, Prolongation, prolongation,
                              whiskered_generator)
from tancat.poly import PolyMap, Polynomial, compose_maps
from tancat.selftest import leibniz_family
from tancat.weil import NAT, W, WW, WeilAlgebra


def so3():
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for p in itertools.permutations(range(3)):
        sign = 1
        q = list(p)
        for i in range(3):
            for j in range(i + 1, 3):
                if q[i] > q[j]:
                    sign = -sign
        eps[p[0]][p[1]][p[2]] = sign
    return AL.make_algebroid(0, 3, [], eps)


def action():
    return AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])


# -- objects -----------------------------------------------------------------------


def test_nerve_objects():
    A = action()
    assert NV.nerve_object(A, NAT).dim == 1
    w2 = WeilAlgebra((2,))
    space = NV.nerve_object(A, w2)
    assert space.dim == 3                      # A ×_M A: (x, u1, u2)
    assert NV.nerve_object(A, WW).dim == 4     # L(A)
    assert NV.nerve_object(A, WeilAlgebra((1, 1, 1))).dim == 8
    # dimension formula d + (dim V - 1) r in general
    B = so3()
    for V in (WW, WeilAlgebra((2, 1)), WeilAlgebra((1, 2))):
        assert NV.nerve_object(B, V).dim == B.base_dim + (V.dim - 1) * B.rank


def test_tangent_algebroid_prolongation_is_second_tangent_bundle():
    TA = AL.tangent_algebroid(1)
    space = NV.nerve_object(TA, WW)
    assert space.dim == 4
    # The labeled reordering identifies L(TM) with T²M: (x;u,v,w) -> (x,v,u,w).
    assert space.weil_layout_iso() == PolyMap.from_strings(
        4, ["x1", "x3", "x2", "x4"])


# -- generator maps -----------------------------------------------------------------


def test_generator_examples_unwhiskered():
    A = action()
    lam_hat = wterm.eval_model(wterm.parse_term("l"), NV.NerveModel(A))
    assert lam_hat == PolyMap.from_strings(2, ["x1", "0", "0", "x2"])
    sigma = AL.involution_from_bracket(A)
    assert wterm.eval_model(wterm.parse_term("c"), NV.NerveModel(A)) == sigma
    # p: A.W -> A.N is the base projection (x, u) -> x.
    assert wterm.eval_model(wterm.parse_term("p"), NV.NerveModel(A)) == \
        PolyMap.from_strings(2, ["x1"])


def test_whiskered_generators_match_weil_action_on_tangent_algebroid():
    TA = AL.tangent_algebroid(1)
    shape = TA.shape
    sigma = AL.involution_from_bracket(TA)
    cases = [("p", NAT, W), ("zero", W, NAT), ("plus", NAT, W),
             ("ell", W, NAT), ("flip", NAT, W), ("flip", W, NAT)]
    for kind, left, right in cases:
        got = whiskered_generator(shape, kind, left, right, sigma=sigma)
        gen = weil.generator(kind)
        phi = weil.tensor_morphisms(
            weil.tensor_morphisms(weil.identity_morphism(left), gen),
            weil.identity_morphism(right))
        want = tangent.structure_nat(phi, 1)
        src = Prolongation(shape, WeilAlgebra(
            left.widths + gen.source.widths + right.widths))
        tgt = Prolongation(shape, WeilAlgebra(
            left.widths + gen.target.widths + right.widths))
        assert compose_maps(tgt.weil_layout_iso(), got) == \
            compose_maps(want, src.weil_layout_iso()), (kind, left, right)


def test_bang_and_id_maps():
    A = so3()
    ident = wterm.eval_model(wterm.parse_term("id{W*W}"), NV.NerveModel(A))
    assert ident == PolyMap.identity(NV.nerve_object(A, WW).dim)
    bang = wterm.eval_model(wterm.parse_term("!{W} * id{W}"), NV.NerveModel(A))
    # A.(!⊗W): A.(W⊗W) -> A.W drops the first factor's blocks.
    space = NV.nerve_object(A, WW)
    assert bang.src_dim == space.dim and bang.tgt_dim == NV.nerve_object(A, W).dim


# -- evaluation and functoriality -----------------------------------------------------


def test_nerve_eval_lift_symmetry():
    for A in (so3(), action(), AL.tangent_algebroid(2)):
        lhs = wterm.eval_model(wterm.parse_term("c . l"), NV.NerveModel(A))
        rhs = wterm.eval_model(wterm.parse_term("l"), NV.NerveModel(A))
        assert lhs == rhs


def test_nerve_eval_identity():
    A = so3()
    t = wterm.parse_term("id{W2*W}")
    assert wterm.eval_model(t, NV.NerveModel(A)) == PolyMap.identity(
        NV.nerve_object(A, WeilAlgebra((2, 1))).dim)


def test_nerve_matches_tangent_model_on_tangent_algebroid():
    TA = AL.tangent_algebroid(1)
    model = NV.NerveModel(TA)
    rng = random.Random(3)
    for _ in range(40):
        t = wterm.random_term(rng, depth=2)
        nerve_map = wterm.eval_model(t, model)
        action_map = tangent.structure_nat(wterm.eval_weil(t), 1)
        src_iso = NV.nerve_object(TA, t.source).weil_layout_iso()
        tgt_iso = NV.nerve_object(TA, t.target).weil_layout_iso()
        assert compose_maps(tgt_iso, nerve_map) == \
            compose_maps(action_map, src_iso), wterm.print_term(t)


def test_eval_model_memo_matches_plain_evaluation():
    rng = random.Random(11)
    models = [NV.NerveModel(so3()), NV.NerveModel(action()),
              NV.NerveModel(AL.tangent_algebroid(2))]
    for model in models:
        for _ in range(8):
            t1, t2 = wterm.random_equal_pair(rng, depth=2, rewrites=2)
            memo: dict = {}
            for t in (t1, t2, t1):
                assert wterm.eval_model(t, model, memo) == wterm.eval_model(t, model)
                assert t in memo


def test_generator_maps_are_kept_per_model():
    A = so3()
    first, second = NV.NerveModel(A), NV.NerveModel(A)
    texts = ["p", "0", "+", "l", "c", "id{W}", "!{W2}", "proj{2,2}"]
    gens = [wterm.parse_term(text) for text in texts]
    built = [first.generator_map(g) for g in gens]
    # A second request, even for an equal term parsed again, is the kept map.
    for text, value in zip(texts, built):
        assert first.generator_map(wterm.parse_term(text)) is value
    assert len(first._generators) == len(texts)
    # Another model over the same algebroid builds its own, equal maps.
    assert not second._generators
    for g, value in zip(gens, built):
        other = second.generator_map(g)
        assert other == value
        assert other is not value
    assert len(second._generators) == len(texts)
    assert all(first.generator_map(g) is value for g, value in zip(gens, built))


def test_prolongation_cache_shares_one_space():
    for A in (so3(), action()):
        for V in (NAT, W, WW, WeilAlgebra((2, 1)), WeilAlgebra((1, 1, 1))):
            # A.shape builds a new (equal) shape on every access.
            shared = prolongation(A.shape, V)
            assert shared is prolongation(A.shape, V)
            fresh = Prolongation(A.shape, V)
            assert isinstance(shared.blocks, tuple)
            assert shared.blocks == fresh.blocks and shared.dim == fresh.dim
            assert shared.rho_leg == fresh.rho_leg
            assert shared.embedding == fresh.embedding
            if V.n_factors:
                assert shared.proj0 == fresh.proj0
                assert shared.proj1 == fresh.proj1
    assert prolongation.cache_info().maxsize == PROLONGATION_CACHE_SIZE


def test_functoriality_on_seeded_pairs():
    rng = random.Random(4)
    pairs = [wterm.random_equal_pair(rng, depth=2) for _ in range(25)]
    for A in (so3(), action()):
        report = NV.check_functoriality(A, pairs)
        assert report.passed, [v.witness for v in report.verdicts if not v.passed]


def test_functoriality_yang_baxter_and_coassociativity_pairs():
    yb = (wterm.parse_term("(c * id{W}) . (id{W} * c) . (c * id{W})"),
          wterm.parse_term("(id{W} * c) . (c * id{W}) . (id{W} * c)"))
    coassoc = (wterm.parse_term("(l * id{W}) . l"),
               wterm.parse_term("(id{W} * l) . l"))
    trivial = (wterm.parse_term("p . 0"), wterm.parse_term("id{N}"))
    for A in (so3(), action(), AL.tangent_algebroid(1)):
        report = NV.check_functoriality(A, [yb, coassoc, trivial])
        assert report.passed


def test_compose_functoriality():
    report = NV.check_compose_functoriality(action(), random.Random(5), cases=8)
    assert report.passed


class SkewedTensorModel(NV.NerveModel):
    """A nerve whose tensor adds 1 to its first output coordinate, if any."""

    def tensor(self, left_term, left_mor, right_term, right_mor):
        out = super().tensor(left_term, left_mor, right_term, right_mor)
        comps = list(out.components)
        if comps:
            comps[0] = comps[0] + 1
        return PolyMap(out.src_dim, out.tgt_dim, comps)


@pytest.mark.parametrize("make", [action, so3, lambda: AL.tangent_algebroid(2)])
def test_compose_functoriality_fails_on_a_skewed_tensor(monkeypatch, make):
    monkeypatch.setattr(NV, "NerveModel", SkewedTensorModel)
    report = NV.check_compose_functoriality(make(), random.Random(5), cases=8)
    assert not report.passed
    failing = [v for v in report.verdicts if not v.passed]
    assert all("nonzero difference" in v.witness for v in failing)


# -- p-cartesianness ----------------------------------------------------------------


def test_cartesian_p_passes():
    for A in (AL.tangent_algebroid(1), so3(), action()):
        report = NV.check_cartesian_p(A)
        assert report.passed, [v.name for v in report.verdicts if not v.passed]


def _read_head_from(monkeypatch, label):
    """Make A.(W⊗p⊗V) read block `label`ν of A.(W⊗W⊗V) in place of its
    head block (1,0)ν, in every check that looks the leg up in `nerve`."""
    real = NV.whiskered_generator

    def skewed(shape, kind, left, right, sigma=None, **kwargs):
        mor = real(shape, kind, left, right, sigma, **kwargs)
        if (kind, left) != ("p", W):
            return mor
        big = prolongation(shape, WW.tensor(right))
        mid = prolongation(shape, W.tensor(right))
        labels = [(b.label[0], 0) + b.label[1:] for b in mid.blocks]
        assert big.select(labels) == mor
        labels[labels.index((1, 0) + right.unit_monomial)] = label + right.unit_monomial
        return big.select(labels)

    monkeypatch.setattr(NV, "whiskered_generator", skewed)


ROUND_TRIPS = {f"{name} at V={V}" for V in (NAT, W, WW)
               for name in ("inverse ∘ comparison = id",
                            "comparison ∘ inverse = id on the pullback")}


def test_engineered_gluing_breaks_the_comparison(monkeypatch):
    """A.(W⊗p⊗V) glued to the block (0,1)ν that α already reads, in place of
    its head block (1,0)ν: the comparison (p, α) reads that block twice, and
    on so(3), whose anchor is 0, nothing reads the head, so the comparison
    has a kernel and no inverse exists.  Every naturality square still
    commutes, so only the two round trips of the certificate can catch it,
    and they must fail at every V."""
    _read_head_from(monkeypatch, (0, 1))
    report = NV.check_cartesian_p(so3())
    assert {v.name for v in report.verdicts if not v.passed} == ROUND_TRIPS


def test_cartesian_p_fails_when_a_leg_reads_a_tangent_copy(monkeypatch):
    """A.(W⊗p⊗V) made to read the tangent copy (1,1)ν of its head block
    instead of (1,0)ν: on so(3) every naturality square still commutes (the
    base is a point), so only the two round trips of the certificate can
    catch it, and they must fail at every V."""
    _read_head_from(monkeypatch, (1, 1))
    report = NV.check_cartesian_p(so3())
    assert {v.name for v in report.verdicts if not v.passed} == ROUND_TRIPS


# -- the prolongation tangent structure ------------------------------------------------


def test_lie_tangent_of_tangent_algebroid():
    for d in (1, 2):
        prime = NV.lie_tangent(AL.tangent_algebroid(d))
        expect = AL.tangent_algebroid(2 * d)
        assert prime.rho == expect.rho
        assert prime.bracket == expect.bracket


def test_lie_tangent_so3():
    prime = NV.lie_tangent(so3())
    assert prime.base_dim == 3 and prime.rank == 6
    assert AL.check_structure_equations(prime).passed
    sigma = AL.involution_from_bracket(prime)
    assert AL.check_involution_axioms(prime, sigma).passed


def test_lie_tangent_rejects_invalid():
    bad = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    bad[0][1][0] = 1
    bad[1][0][0] = -1
    bad[0][2][1] = 1
    bad[2][0][1] = -1
    bad[1][2][0] = 1
    bad[2][1][0] = -1
    A = AL.make_algebroid(0, 3, [], bad)
    with pytest.raises(ValueError, match="Bianchi"):
        NV.lie_tangent(A)


def test_lie_table():
    for A in (so3(), action(), AL.tangent_algebroid(1)):
        report = NV.check_lie_table(A)
        assert report.passed, [v.name for v in report.verdicts if not v.passed]


def shift_failures(A, prime, n_terms: int) -> int:
    """Seeded depth-1 terms t whose square ι_V ∘ N(L'A)(t) = N(A)(t ⊗ id{W}) ∘ ι_U
    fails, for the nerve of `prime` standing in for L'(A)."""
    rng = random.Random(1)
    model_prime, model = NV.NerveModel(prime), NV.NerveModel(A)
    failures = 0
    for _ in range(n_terms):
        t = wterm.random_term(rng, depth=1)
        lhs = compose_maps(NV.shift_iso(A, t.target), wterm.eval_model(t, model_prime))
        shifted = wterm.Tensor(t, wterm.identity_term(W))
        rhs = compose_maps(wterm.eval_model(shifted, model), NV.shift_iso(A, t.source))
        failures += lhs != rhs
    return failures


def leibniz():
    return leibniz_family(random.Random(4))


@pytest.mark.parametrize("make", [so3, action, leibniz])
def test_shift_iso_is_natural(make):
    """The nerve of L'(A) is the nerve of A shifted by W on the right."""
    A = make()
    assert shift_failures(A, NV.lie_tangent(A), 20) == 0


@pytest.mark.parametrize("make", [so3, leibniz])
def test_shift_naturality_fails_on_a_flipped_bracket_pair(make):
    """Negating ⟨e_0, e_1⟩ = −⟨e_1, e_0⟩ of L'(A) keeps it alternating but
    breaks the square on the terms whose nerve image reads the bracket."""
    A = make()
    prime = NV.lie_tangent(A)
    bracket = [list(row) for row in prime.bracket]
    for a, b in ((0, 1), (1, 0)):
        assert any(not p.is_zero() for p in bracket[a][b])
        bracket[a][b] = tuple(-p for p in bracket[a][b])
    flipped = AL.AlgebroidData(prime.base_dim, prime.rank, prime.rho,
                               tuple(tuple(row) for row in bracket))
    assert shift_failures(A, flipped, 40) > 0


@pytest.mark.parametrize("make", [so3, action, leibniz])
def test_shift_iso_and_its_inverse_are_inverse_permutations(make):
    A = make()
    for U in (NAT, W, WW, WeilAlgebra((2, 1))):
        iso, inverse = NV.shift_iso(A, U), NV.shift_iso_inverse(A, U)
        assert iso.src_dim == iso.tgt_dim == A.base_dim + (2 * U.dim - 1) * A.rank
        assert compose_maps(iso, inverse) == PolyMap.identity(iso.src_dim)
        assert compose_maps(inverse, iso) == PolyMap.identity(iso.src_dim)


def test_section_vector_field_bijection():
    """A section X of π gives the involution-algebroid morphism
    ((id, T.X∘ϱ), X): A -> L'(A), and X round-trips from it."""
    A = action()
    prime = NV.lie_tangent(A)
    X = PolyMap.from_strings(1, ["x1^2"])
    d, r = A.base_dim, A.rank
    # Base map A -> base of L'(A) = A: (x, u) stays (x, u) ... the morphism
    # goes from the algebroid A to L'(A): base map M -> A is (id, X).
    base_map = PolyMap.pairing([PolyMap.identity(d), X])
    # Fiber matrix: u -> (u, ∂X[ρ(x)u]) ∈ fiber (u', w') of L'(A).
    x = [Polynomial.var(d, i + 1) for i in range(d)]
    fiber = [[Polynomial.const(d, 1) if a == b else Polynomial.const(d, 0)
              for b in range(r)] for a in range(r)]
    rho_cols = [A.shape.anchor_fiber(x, [Polynomial.const(d, 1 if t == a else 0)
                                         for t in range(r)]) for a in range(r)]
    for comp_idx in range(r):
        row = []
        for a in range(r):
            acc = Polynomial.zero(d)
            for j in range(d):
                acc = acc + X.components[comp_idx].partial(j + 1) * rho_cols[a][j]
            row.append(acc)
        fiber.append(row)
    report = AL.check_morphism(A, prime, fiber, base_map)
    assert report.passed, [v.name for v in report.verdicts if not v.passed]
    # Round trip: the section is the base map's fiber component.
    assert PolyMap(d, r, list(base_map.components[d:])) == X


def test_anchor_naturality_of_the_nerve_on_all_algebroids():
    """The right leg ϱ^V: A.V -> T^V(M) intertwines nerve evaluation with
    the Weil action on the base — the defining square of a span morphism —
    so the tangent module independently cross-checks every nerve map."""
    from tancat.selftest import leibniz_family
    rng = random.Random(6)
    cases = [so3(), action(), AL.tangent_algebroid(2),
             leibniz_family(random.Random(2))]
    for A in cases:
        model = NV.NerveModel(A)
        for _ in range(15):
            t = wterm.random_term(rng, depth=2)
            nerve_map = wterm.eval_model(t, model)
            action_map = tangent.structure_nat(wterm.eval_weil(t), A.base_dim)
            src_leg = NV.nerve_object(A, t.source).rho_leg
            tgt_leg = NV.nerve_object(A, t.target).rho_leg
            assert compose_maps(tgt_leg, nerve_map) == \
                compose_maps(action_map, src_leg), \
                (str(A), wterm.print_term(t))
