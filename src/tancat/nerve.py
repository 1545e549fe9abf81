"""The Weil nerve: an involution algebroid as a model of the term language.

A NerveModel interprets each Weil algebra V as the flat prolongation A.V and
each term constructor structurally: generators act by the span formulas
(p ↦ π, 0 ↦ ξ, + ↦ fiberwise addition, ℓ ↦ λ̂, c ↦ σ), tensor by span
composition, pairing by fibered-sum tupling.  `check_functoriality` is the
executable content of the nerve theorem: terms with equal W1 denotations get
exactly equal PolyMaps.

`lie_tangent` builds the prolongation tangent structure: the algebroid
L'(A) on base A with rank 2r, anchor π₁ and involution σ×c, with the
structure-map table verified coordinatewise.
"""

from __future__ import annotations

import random

from . import weil, wterm
from .algebroid import (L2_ALGEBRA, AlgebroidData, bracket_from_involution,
                        check_structure_equations, involution_from_bracket,
                        lift_prolongation_bundle, make_algebroid,
                        prolongation_space)
from .flatspace import (AnchoredShape, Prolongation, head_generator,
                        pair_action, prolongation, tensor_action,
                        whiskered_generator)
from .poly import PolyMap, Polynomial, compose_maps
from .report import CheckReport
from .tangent import structure_nat, weil_prolong
from .weil import NAT, W, WW, WeilAlgebra


class NerveModel:
    """The tangent functor V ↦ A.V determined by an involution algebroid.

    A model keeps the map of each generator it has interpreted, keyed by
    the `Gen` term: one entry per distinct generator, for as long as the
    model lives (a model is made per check).
    """

    def __init__(self, A: AlgebroidData):
        self.A = A
        self.sigma = involution_from_bracket(A)
        self.shape = A.shape
        self._generators: dict[wterm.Gen, PolyMap] = {}

    def object_of(self, algebra: WeilAlgebra) -> Prolongation:
        return prolongation(self.shape, algebra)

    def generator_map(self, term: wterm.Gen) -> PolyMap:
        value = self._generators.get(term)
        if value is None:
            value = self._generators[term] = self._build_generator(term)
        return value

    def _build_generator(self, term: wterm.Gen) -> PolyMap:
        kind = term.kind
        if kind == "id":
            return PolyMap.identity(self.object_of(term.algebra).dim)
        if kind == "bang":
            space = self.object_of(term.algebra)
            return space.pi_leg
        if kind == "proj":
            return head_generator(self.shape, "proj", NAT, i=term.i, n=term.n)
        if kind == "flip":
            return head_generator(self.shape, "flip", NAT, sigma=self.sigma)
        return head_generator(self.shape, kind, NAT)

    def compose(self, outer: PolyMap, inner: PolyMap) -> PolyMap:
        return compose_maps(outer, inner)

    def tensor(self, left_term: wterm.WTerm, left_mor: PolyMap,
               right_term: wterm.WTerm, right_mor: PolyMap) -> PolyMap:
        return tensor_action(self.shape, wterm.eval_weil(left_term), left_mor,
                             right_term.source, right_term.target, right_mor)

    def pair(self, left_term: wterm.WTerm, left_mor: PolyMap,
             right_term: wterm.WTerm, right_mor: PolyMap) -> PolyMap:
        n = left_term.target.widths[0] if left_term.target.widths else 0
        m = right_term.target.widths[0] if right_term.target.widths else 0
        return pair_action(self.shape, left_mor, right_mor, n, m)


def nerve_object(A: AlgebroidData, V: WeilAlgebra) -> Prolongation:
    """The flat prolongation A.V (dimension d + (dim V - 1)·r)."""
    return prolongation(A.shape, V)


def nerve_eval(A: AlgebroidData, t: wterm.WTerm) -> PolyMap:
    """Evaluate a term in the nerve model of A."""
    return wterm.eval_model(t, NerveModel(A))


def check_functoriality(A: AlgebroidData,
                        pairs: list[tuple[wterm.WTerm, wterm.WTerm]]) -> CheckReport:
    """Equal W1 denotations must give exactly equal nerve images."""
    report = CheckReport(f"nerve functoriality for {A}")
    model = NerveModel(A)
    for idx, (t1, t2) in enumerate(pairs):
        if not wterm.terms_equal(t1, t2):
            report.add(f"pair#{idx} denotations agree", False,
                       f"{wterm.print_term(t1)} vs {wterm.print_term(t2)}")
            continue
        # Both sides of a pair share most subterms; the memo lives for one pair.
        memo: dict = {}
        m1 = wterm.eval_model(t1, model, memo)
        m2 = wterm.eval_model(t2, model, memo)
        # Equal maps pass without building their difference, which only a
        # witness needs.
        if m1 == m2:
            report.add(f"pair#{idx} nerve images equal", True)
        else:
            report.check(f"pair#{idx} nerve images equal", m1 - m2,
                         lambda: f"{wterm.print_term(t1)} vs {wterm.print_term(t2)}")
    return report


def check_compose_functoriality(A: AlgebroidData, rng: random.Random,
                                cases: int = 10) -> CheckReport:
    """The interchange law (t∘t')⊗(s∘s') = (t⊗s)∘(t'⊗s') on random depth-1 terms.

    Both sides denote the same W1 morphism, but the nerve reaches them by
    different routes: the left side is one tensor of two composites, the
    right side the composite of two tensors, so each goes through its own
    `tensor_action` calls.
    """
    report = CheckReport("nerve composition functoriality")
    model = NerveModel(A)
    done = 0
    while done < cases:
        t, t2, s, s2 = (wterm.random_term(rng, depth=1) for _ in range(4))
        try:
            whole = wterm.Tensor(wterm.Compose(t, t2), wterm.Compose(s, s2))
            parts = wterm.Compose(wterm.Tensor(t, s), wterm.Tensor(t2, s2))
        except ValueError:
            continue
        # Both sides contain t, t', s and s': one memo serves the case.
        memo: dict = {}
        difference = (wterm.eval_model(whole, model, memo)
                      - wterm.eval_model(parts, model, memo))
        report.check(f"case#{done} {wterm.print_term(whole)} = "
                     f"{wterm.print_term(parts)}", difference)
        done += 1
    return report


# -- p-cartesianness -------------------------------------------------------------


def check_cartesian_p(A: AlgebroidData) -> CheckReport:
    """The α-naturality squares for p at V ∈ {N, W, W⊗W} are pullbacks.

    The comparison A.(W⊗W⊗V) -> A.(W⊗V) ×_{T(A.V)} T(A.(W⊗V)) is certified
    by an explicitly constructed inverse (a block selection), with both round
    trips verified as exact polynomial identities.  Redundant naturality
    assertions for 0, +, ℓ, c at V = N are included.
    """
    report = CheckReport(f"p-cartesian naturality for {A}")
    shape = A.shape
    for V in (NAT, W, WW):
        big = prolongation(shape, WW.tensor(V))        # A.(W⊗W⊗V)
        mid = prolongation(shape, W.tensor(V))         # A.(W⊗V)
        alpha_mid = big.proj1                          # A.WWV -> T(A.WV)
        alpha_v = mid.proj1                            # A.WV  -> T(A.V)
        p_wv = whiskered_generator(shape, "p", W, V)   # A.(W⊗p⊗V): A.WWV -> A.WV
        p_v = whiskered_generator(shape, "p", NAT, V)  # A.(p⊗V):  A.WV  -> A.V
        t_p_v = weil_prolong(W, p_v)
        # Naturality square.
        report.check(f"square commutes at V={V}",
                     compose_maps(alpha_v, p_wv) - compose_maps(t_p_v, alpha_mid))
        # Comparison into the pullback.
        comparison = PolyMap.pairing([p_wv, alpha_mid])
        total = mid.dim + 2 * mid.dim
        s_proj = PolyMap.projection(total, 0, mid.dim)
        t_proj = PolyMap.projection(total, mid.dim, 2 * mid.dim)
        # Candidate inverse: select each A.WWV block out of (s, t).
        comps: list[Polynomial] = []
        for block in big.blocks:
            h1, h2, nu = block.label[0], block.label[1], block.label[2:]
            if h2 == 0:
                # These blocks survive into s = A.(W⊗p⊗V)(z).
                src = mid.block((h1,) + nu)
                base = src.offset
                comps.extend(Polynomial.var(total, base + i + 1)
                             for i in range(block.size))
            else:
                # Blocks with h2 = 1 live inside t = α(z): copy h1 of T(A.WV).
                src = mid.block((h2,) + nu)
                base = mid.dim * h1 + src.offset + mid.dim
                comps.extend(Polynomial.var(total, base + i + 1)
                             for i in range(block.size))
        inverse = PolyMap(total, big.dim, comps)
        report.check(f"inverse ∘ comparison = id at V={V}",
                     compose_maps(inverse, comparison) - PolyMap.identity(big.dim))
        # Parameterize the pullback: s free, t's unselected blocks free; the
        # constraint α_V(s) = T(A.(p⊗V))(t) pins t's selected blocks.
        free_t = [b for b in mid.blocks if b.label[0] != 0]
        free_size = sum(b.size for b in free_t)
        n_params = mid.dim + 2 * free_size
        sp = [Polynomial.var(n_params, i + 1) for i in range(mid.dim)]
        alpha_s = compose_maps(alpha_v, PolyMap(n_params, mid.dim, sp))
        t_comps: list[Polynomial] = [None] * (2 * mid.dim)  # type: ignore[list-item]
        # Selected blocks of t (labels with head 0, in both halves) copy α(s).
        small = prolongation(shape, V)
        for half in (0, 1):
            for bl in small.blocks:
                tgt = mid.block((0,) + bl.label)
                for i in range(tgt.size):
                    t_comps[half * mid.dim + tgt.offset + i] = \
                        alpha_s.components[half * small.dim + bl.offset + i]
        cursor = mid.dim
        for half in (0, 1):
            for bl in free_t:
                for i in range(bl.size):
                    t_comps[half * mid.dim + bl.offset + i] = \
                        Polynomial.var(n_params, cursor + i + 1)
                cursor += bl.size
        iota = PolyMap(n_params, total, sp + t_comps)
        # Constraint satisfied by construction; verify the second round trip.
        section = compose_maps(comparison, compose_maps(inverse, iota))
        report.check(f"comparison ∘ inverse = id on the pullback at V={V}",
                     section - iota)
    # Redundant naturality assertions at V = N for the other generators.
    model = NerveModel(A)
    for text, kind in (("0", "zero"), ("+", "plus"), ("l", "ell"), ("c", "flip")):
        term = wterm.parse_term(text)
        gen = wterm.eval_weil(term)
        whiskered = whiskered_generator(shape, kind, W, NAT, sigma=model.sigma)
        lhs = compose_maps(prolongation(shape, W.tensor(gen.target)).proj1, whiskered)
        rhs = compose_maps(
            weil_prolong(W, wterm.eval_model(term, model)),
            prolongation(shape, W.tensor(gen.source)).proj1)
        report.check(f"naturality of α against {text} at V=N", lhs - rhs)
    return report


# -- the prolongation tangent structure -------------------------------------------


def _lie_anchor(A: AlgebroidData):
    """ρ' for L'(A): base (x, v), fiber (u, w); xdot = ρ(x)u, vdot = w."""
    d, r = A.base_dim, A.rank
    base = d + r
    rows = []
    for i in range(d):
        row = [A.rho[i][a].shift_vars(0, base) for a in range(r)]
        row += [Polynomial.zero(base)] * r
        rows.append(tuple(row))
    for j in range(r):
        row = [Polynomial.zero(base)] * r
        row += [Polynomial.const(base, 1 if t == j else 0) for t in range(r)]
        rows.append(tuple(row))
    return tuple(rows)


def _lie_layout_sources(A: AlgebroidData) -> list[int]:
    """The L(L'(A))-flat coordinate behind each L²(A)-flat coordinate.

    L'(A) has base (x, v_c) and fiber (u_a, u_ac); its first prolongation has
    blocks (x'; u', v', w') of sizes (d+r; 2r, 2r, 2r), matching the seven
    r-blocks of A.(W⊗W⊗W) as x→x, v_c→c, u_a→a, u_ac→ac, v_b→b, v_bc→bc,
    w_ab→ab, w_abc→abc.
    """
    d, r = A.base_dim, A.rank
    # Source layout (L(L'(A)) flat): x(d), v_c(r) | u_a, u_ac | v_b, v_bc | w_ab, w_abc
    offsets = {
        (0, 0, 0): 0, (0, 0, 1): d, (1, 0, 0): d + r, (1, 0, 1): d + 2 * r,
        (0, 1, 0): d + 3 * r, (0, 1, 1): d + 4 * r, (1, 1, 0): d + 5 * r,
        (1, 1, 1): d + 6 * r,
    }
    big = prolongation(A.shape, L2_ALGEBRA)
    return [offsets[block.label] + i for block in big.blocks for i in range(block.size)]


def lie_layout_iso(A: AlgebroidData) -> PolyMap:
    """L(L'(A))-flat -> L²(A)-flat, the canonical block identification."""
    sources = _lie_layout_sources(A)
    return PolyMap.selection(len(sources), sources)


def lie_tangent(A: AlgebroidData) -> AlgebroidData:
    """The prolongation tangent structure: L'(A) as an algebroid on base A.

    Requires A to pass the structure equations; the structure-map table
    (π' = p∘π₁, ξ' = (ξ∘π, 0), λ' = λ×ℓ, ϱ' = π₁) is verified coordinatewise
    and any mismatch raises.
    """
    eqs = check_structure_equations(A)
    if not eqs.passed:
        failing = ", ".join(v.name for v in eqs.verdicts if not v.passed)
        raise ValueError(f"lie_tangent needs a valid algebroid; failing: {failing}")
    sigma_prime_l2 = _sigma_prime(A)
    table = _check_lie_table(A, sigma_prime_l2)
    if not table.passed:
        failing = "; ".join(v.name for v in table.verdicts if not v.passed)
        raise ValueError(f"structure-map table failed: {failing}")

    d, r = A.base_dim, A.rank
    prime = make_algebroid(d + r, 2 * r, _lie_anchor(A),
                           [[[Polynomial.zero(d + r)] * (2 * r)] * (2 * r)] * (2 * r))
    iso = lie_layout_iso(A)
    iso_inv = lie_layout_iso_inverse(A)
    sigma_prime = compose_maps(iso_inv, compose_maps(sigma_prime_l2, iso))
    c_prime = bracket_from_involution(prime, sigma_prime)
    return AlgebroidData(d + r, 2 * r, _lie_anchor(A), c_prime)


def lie_layout_iso_inverse(A: AlgebroidData) -> PolyMap:
    """L²(A)-flat -> L(L'(A))-flat: the inverse permutation of `lie_layout_iso`."""
    sources = _lie_layout_sources(A)
    inverse = [0] * len(sources)
    for k, j in enumerate(sources):
        inverse[j] = k
    return PolyMap.selection(len(sources), inverse)


def _sigma_prime(A: AlgebroidData) -> PolyMap:
    """σ' = σ×c on L²(A) flat coordinates."""
    return whiskered_generator(A.shape, "flip", NAT, W, sigma=involution_from_bracket(A))


def check_lie_table(A: AlgebroidData) -> CheckReport:
    """Verify the prolongation-structure table coordinatewise."""
    return _check_lie_table(A, _sigma_prime(A))


def _check_lie_table(A: AlgebroidData, sigma_prime: PolyMap) -> CheckReport:
    """`check_lie_table` with σ' = σ×c already built."""
    report = CheckReport("prolongation tangent structure table")
    shape = A.shape
    d, r = A.base_dim, A.rank
    space = prolongation_space(A, "L")
    n = space.dim

    # π' = p∘π₁: the nerve map A.(p⊗W) equals base-of-proj1.
    pi_prime = whiskered_generator(shape, "p", NAT, W)
    p_pi1 = PolyMap(n, d + r,
                    list(space.proj1.components[:d])
                    + list(space.proj1.components[d:d + r]))
    report.check("π' = p∘π₁", pi_prime - p_pi1)

    # ξ' = (ξ∘π, 0): A.(0⊗W) sends (x, v) to (x; 0, v, 0).
    xi_prime = whiskered_generator(shape, "zero", NAT, W)
    m = d + r
    x = [Polynomial.var(m, i + 1) for i in range(d)]
    v = [Polynomial.var(m, d + a + 1) for a in range(r)]
    zero = [Polynomial.zero(m)] * r
    report.check("ξ' = (ξ∘π, 0)",
                 xi_prime - PolyMap(m, n, x + zero + v + zero))

    # λ' = λ×ℓ: legs T.π₀∘λ' = λ∘π₀ and T.π₁∘λ' = ℓ∘π₁.
    lam_prime = lift_prolongation_bundle(A)
    t_proj0 = weil_prolong(W, space.proj0)
    t_proj1 = weil_prolong(W, space.proj1)
    lam_a = A.bundle.lift.lam
    ell_a = structure_nat(weil.generator("ell"), d + r)
    report.check("T.π₀∘λ' = λ∘π₀",
                 compose_maps(t_proj0, lam_prime)
                 - compose_maps(lam_a, space.proj0))
    report.check("T.π₁∘λ' = ℓ∘π₁",
                 compose_maps(t_proj1, lam_prime)
                 - compose_maps(ell_a, space.proj1))

    # ϱ' = π₁ is proj1 by construction; record the anchor-matrix reading.
    prime_rho = _lie_anchor(A)
    xv = [Polynomial.var(n, i + 1) for i in range(d)]
    vv = [Polynomial.var(n, d + r + a + 1) for a in range(r)]
    uu = [Polynomial.var(n, d + a + 1) for a in range(r)]
    ww = [Polynomial.var(n, d + 2 * r + a + 1) for a in range(r)]
    shape_p = AnchoredShape(d + r, 2 * r, prime_rho)
    fibers = shape_p.anchor_fiber(xv + vv, uu + ww)
    report.check("ϱ' = π₁ (anchor matrix reading)",
                 PolyMap(n, 2 * (d + r), xv + vv + fibers) - space.proj1)

    # σ' = σ×c is an involution on L²(A).
    report.check("σ'∘σ' = id",
                 compose_maps(sigma_prime, sigma_prime)
                 - PolyMap.identity(sigma_prime.src_dim))
    return report
