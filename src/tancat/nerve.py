"""The Weil nerve: an involution algebroid as a model of the term language.

A NerveModel interprets each Weil algebra V as the flat prolongation A.V and
each term constructor structurally: a generator other than c acts by its
Weil matrix on the labelled blocks (`weil_push` of its denotation, which
gives p ↦ π, 0 ↦ ξ, + ↦ fiberwise addition, ℓ ↦ λ̂), c acts by σ, tensor
by span composition, pairing by fibered-sum tupling.  `check_functoriality`
is the executable content of the nerve theorem: terms with equal W1
denotations get exactly equal PolyMaps.

`lie_tangent` builds the prolongation tangent structure: the algebroid
L'(A) on base A with rank 2r, anchor π₁ and involution σ×c, with the
structure-map table verified coordinatewise.

Flat coordinates are read only through `Prolongation` block labels and the
span legs.  The p-pullback certificate assembles its inverse with `join_at`
and pins the slots that `indices_of` names.  L'(A).U is the shifted nerve
A.(U⊗W) through `shift_iso`, the permutation that puts blocks (μ, 0) and
(μ, 1) of A.(U⊗W) at block μ of L'(A).U.
"""

from __future__ import annotations

import random

from . import wterm
from .algebroid import (AlgebroidData, block_vars, bracket_from_involution,
                        check_structure_equations, involution_from_bracket,
                        lift_prolongation_bundle)
from .flatspace import (AnchoredShape, Prolongation, join_at, pair_action,
                        prolongation, tensor_action, weil_push, whiskered_generator)
from .poly import PolyMap, Polynomial, compose_maps
from .report import CheckReport
from .tangent import generator_nat, weil_prolong
from .weil import NAT, W, WW, WeilAlgebra, fibered_sum


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

    def generator_map(self, term: wterm.Gen) -> PolyMap:
        value = self._generators.get(term)
        if value is None:
            value = self._generators[term] = self._build_generator(term)
        return value

    def _build_generator(self, term: wterm.Gen) -> PolyMap:
        if term.kind == "flip":
            return self.sigma
        return weil_push(self.shape, wterm.eval_weil(term))

    def compose(self, outer: PolyMap, inner: PolyMap) -> PolyMap:
        return compose_maps(outer, inner)

    def tensor(self, left_term: wterm.WTerm, left_mor: PolyMap,
               right_term: wterm.WTerm, right_mor: PolyMap) -> PolyMap:
        return tensor_action(self.shape, wterm.eval_weil(left_term), left_mor,
                             right_term.source, right_term.target, right_mor)

    def pair(self, left_term: wterm.WTerm, left_mor: PolyMap,
             right_term: wterm.WTerm, right_mor: PolyMap) -> PolyMap:
        return pair_action(self.shape, left_mor, right_mor,
                           fibered_sum(left_term.target, right_term.target))


def nerve_object(A: AlgebroidData, V: WeilAlgebra) -> Prolongation:
    """The flat prolongation A.V (dimension d + (dim V - 1)·r)."""
    return prolongation(A.shape, V)


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
        report.equal(f"pair#{idx} nerve images equal",
                     wterm.eval_model(t1, model, memo), wterm.eval_model(t2, model, memo),
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
        report.equal(f"case#{done} {wterm.print_term(whole)} = {wterm.print_term(parts)}",
                     wterm.eval_model(whole, model, memo), wterm.eval_model(parts, model, memo))
        done += 1
    return report


# -- p-cartesianness -------------------------------------------------------------


def check_cartesian_p(A: AlgebroidData) -> CheckReport:
    """The α-naturality squares for p at V ∈ {N, W, W⊗W} are pullbacks.

    The comparison A.(W⊗W⊗V) -> A.(W⊗V) ×_{T(A.V)} T(A.(W⊗V)) is certified
    by an explicitly constructed inverse, the span assembly (`join_at`) of
    the head of s with t, with both round trips verified as exact polynomial
    identities on a parametrisation of the pullback.  Redundant naturality
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
        report.equal(f"square commutes at V={V}",
                     compose_maps(alpha_v, p_wv), compose_maps(t_p_v, alpha_mid))
        # Comparison into the pullback of s ∈ A.(W⊗V) and t ∈ T(A.(W⊗V)).
        comparison = PolyMap.pairing([p_wv, alpha_mid])
        total = 3 * mid.dim
        s = PolyMap.projection(total, 0, mid.dim)
        t = PolyMap.projection(total, mid.dim, 2 * mid.dim)
        # Candidate inverse: the span assembly of the head of s with t.
        inverse = join_at(shape, W, W.tensor(V), compose_maps(mid.proj0, s), t)
        report.equal(f"inverse ∘ comparison = id at V={V}",
                     compose_maps(inverse, comparison), PolyMap.identity(big.dim))
        # Parameterize the pullback: s free; in both copies of t the slots
        # that T(A.(p⊗V)) reads are pinned to α_V(s), the others are free.
        small = prolongation(shape, V)
        # reads[j]: the A.V coordinate that A.(p⊗V) copies A.(W⊗V)'s j to.
        reads = {j: i for i, j in enumerate(
            j for b in small.blocks for j in mid.indices_of((0,) + b.label))}
        n_params = mid.dim + 2 * (mid.dim - small.dim)
        s_params = PolyMap.projection(n_params, 0, mid.dim)
        alpha_s = compose_maps(alpha_v, s_params).components
        free = iter(PolyMap.identity(n_params).components[mid.dim:])
        t_params = [alpha_s[half * small.dim + reads[j]] if j in reads else next(free)
                    for half in (0, 1) for j in range(mid.dim)]
        iota = PolyMap(n_params, total, list(s_params.components) + t_params)
        # Constraint satisfied by construction; verify the second round trip.
        section = compose_maps(comparison, compose_maps(inverse, iota))
        report.equal(f"comparison ∘ inverse = id on the pullback at V={V}",
                     section, iota)
    # Redundant naturality assertions at V = N for the other generators.
    model = NerveModel(A)
    for text in ("0", "+", "l", "c"):
        term = wterm.parse_term(text)
        gen = wterm.eval_weil(term)
        whiskered = whiskered_generator(shape, term.kind, W, NAT, sigma=model.sigma)
        lhs = compose_maps(prolongation(shape, W.tensor(gen.target)).proj1, whiskered)
        rhs = compose_maps(
            weil_prolong(W, wterm.eval_model(term, model)),
            prolongation(shape, W.tensor(gen.source)).proj1)
        report.equal(f"naturality of α against {text} at V=N", lhs, rhs)
    return report


# -- the prolongation tangent structure -------------------------------------------


def _lie_frame(A: AlgebroidData) -> AlgebroidData:
    """L'(A) with a zero bracket: base (x, v), fiber (u, w) and the anchor
    ρ' with xdot = ρ(x)u, vdot = w.  `lie_tangent` reads the bracket off σ'
    through it, and its shape carries ρ' into the table check."""
    d, r = A.base_dim, A.rank
    base = d + r
    zero = Polynomial.zero(base)
    rows = [tuple(A.rho[i][a].shift_vars(0, base) for a in range(r)) + (zero,) * r
            for i in range(d)]
    rows += [(zero,) * r + tuple(Polynomial.const(base, 1 if t == j else 0) for t in range(r))
             for j in range(r)]
    return AlgebroidData(base, 2 * r, tuple(rows), (((zero,) * (2 * r),) * (2 * r),) * (2 * r))


def _shift_labels(A: AlgebroidData, U: WeilAlgebra) -> list[tuple[int, ...]]:
    """The A.(U⊗W) blocks behind L'(A).U, in its coordinate order.

    Block μ of L'(A).U is block (μ, 0) of A.(U⊗W) followed by (μ, 1): the
    unit block (x, v_c) is x then c, a fiber block (u_μ, u_μc) is μ then μc.
    """
    return [b.label + (e,) for b in prolongation(A.shape, U).blocks for e in (0, 1)]


def shift_iso(A: AlgebroidData, U: WeilAlgebra) -> PolyMap:
    """ι_U: L'(A).U-flat -> A.(U⊗W)-flat, the inverse permutation of
    `shift_iso_inverse`."""
    big = prolongation(A.shape, U.tensor(W))
    sources = [0] * big.dim
    for k, j in enumerate(j for label in _shift_labels(A, U) for j in big.indices_of(label)):
        sources[j] = k
    return PolyMap.selection(big.dim, sources)


def shift_iso_inverse(A: AlgebroidData, U: WeilAlgebra) -> PolyMap:
    """A.(U⊗W)-flat -> L'(A).U-flat, the selection of `_shift_labels`."""
    return prolongation(A.shape, U.tensor(W)).select(_shift_labels(A, U))


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
    frame = _lie_frame(A)
    table = _check_lie_table(A, sigma_prime_l2, frame.shape)
    if not table.passed:
        raise ValueError(f"structure-map table failed: {table.failing()}")

    sigma_prime = compose_maps(shift_iso_inverse(A, WW),
                               compose_maps(sigma_prime_l2, shift_iso(A, WW)))
    c_prime = bracket_from_involution(frame, sigma_prime)
    return AlgebroidData(frame.base_dim, frame.rank, frame.rho, c_prime)


def _sigma_prime(A: AlgebroidData) -> PolyMap:
    """σ' = σ×c on L²(A) flat coordinates."""
    return whiskered_generator(A.shape, "flip", NAT, W, sigma=involution_from_bracket(A))


def check_lie_table(A: AlgebroidData) -> CheckReport:
    """Verify the prolongation-structure table coordinatewise."""
    return _check_lie_table(A, _sigma_prime(A), _lie_frame(A).shape)


def _check_lie_table(A: AlgebroidData, sigma_prime: PolyMap,
                     shape_prime: AnchoredShape) -> CheckReport:
    """`check_lie_table` with σ' = σ×c and the shape of L'(A) already built."""
    report = CheckReport("prolongation tangent structure table")
    shape = A.shape
    d, r = A.base_dim, A.rank
    space = prolongation(shape, WW)
    n = space.dim

    # π' = p∘π₁: the nerve map A.(p⊗W) equals base-of-proj1.
    pi_prime = whiskered_generator(shape, "p", NAT, W)
    p_pi1 = PolyMap(n, d + r, space.proj1.components[:d + r])
    report.equal("π' = p∘π₁", pi_prime, p_pi1)

    # ξ' = (ξ∘π, 0): A.(0⊗W) sends (x, v) to (x; 0, v, 0).
    xi_prime = whiskered_generator(shape, "zero", NAT, W)
    zero = [None] * r
    report.equal("ξ' = (ξ∘π, 0)", xi_prime,
                 PolyMap.selection(d + r, [*range(d)] + zero + [*range(d, d + r)] + zero))

    # λ' = λ×ℓ: legs T.π₀∘λ' = λ∘π₀ and T.π₁∘λ' = ℓ∘π₁.
    lam_prime = lift_prolongation_bundle(A)
    t_proj0 = weil_prolong(W, space.proj0)
    t_proj1 = weil_prolong(W, space.proj1)
    lam_a = A.bundle.lift.lam
    ell_a = generator_nat("ell", d + r)
    report.equal("T.π₀∘λ' = λ∘π₀",
                 compose_maps(t_proj0, lam_prime),
                 compose_maps(lam_a, space.proj0))
    report.equal("T.π₁∘λ' = ℓ∘π₁",
                 compose_maps(t_proj1, lam_prime),
                 compose_maps(ell_a, space.proj1))

    # ϱ' = π₁ is proj1 by construction; record the anchor-matrix reading.
    xv, uu, vv, ww = block_vars(A, WW)
    fibers = shape_prime.anchor_fiber(xv + vv, uu + ww)
    report.equal("ϱ' = π₁ (anchor matrix reading)",
                 PolyMap(n, 2 * (d + r), xv + vv + fibers), space.proj1)

    # σ' = σ×c is an involution on L²(A).
    report.equal("σ'∘σ' = id",
                 compose_maps(sigma_prime, sigma_prime),
                 PolyMap.identity(sigma_prime.src_dim))
    return report
