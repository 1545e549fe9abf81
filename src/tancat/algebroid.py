"""Involution algebroids on trivial bundles.

An algebroid is data (d, r, ρ, C): base Q^d, fiber Q^r, anchor matrix ρ(x)
(d×r, polynomial entries), bracket tensor C with ⟨e_α, e_β⟩ = Σ_γ
C[α][β][γ](x)·e_γ.  Nothing is assumed at construction; the checkers decide
the structure equations (alternating / Leibniz / Bianchi) and the involution
axioms (i)–(v), and the equivalence between the two viewpoints is exercised
in the test suite.

Flat coordinates: the first prolongation L(A) is (x; u, v, w) with embedding
(x, u; x, v, ρ(x)u, w) into A ×_ϱ,Tπ TA.  Coordinates are the block
variables of the flat spaces (`block_vars`): (x, u) of A = A.W, (x, u, v) of
A₂ = A.W2 and (x; u, v, w) of L(A) = A.(W⊗W); on the base Q^d they are the
identity's components.  Hat coordinates (the A₃ presentation through a
connection) are (π₀, p∘π₁, κ∘π₁); with the trivial connection they coincide
with the flat ones, and the canonical involution is
σ̂(x; u, v, w) = (x; v, u, w + C(x)(u, v)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from . import bundle as bundle_mod
from .flatspace import AnchoredShape, join_at, prolongation, whiskered_generator
from .frozen import Frozen
from .poly import PolyMap, Polynomial, compose_maps, parse_poly
from .report import CheckReport
from .tangent import generator_nat, weil_prolong
from .weil import NAT, W, W2, WW, WeilAlgebra

L2_ALGEBRA = WeilAlgebra((1, 1, 1))


def _as_poly(entry, n_vars: int) -> Polynomial:
    """A Polynomial, a polynomial string or an exact rational constant."""
    if isinstance(entry, Polynomial):
        if entry.n_vars != n_vars:
            raise ValueError(f"polynomial in {entry.n_vars} vars, expected {n_vars}")
        return entry
    if isinstance(entry, str):
        return parse_poly(entry, n_vars)
    if isinstance(entry, (int, Fraction)) and not isinstance(entry, bool):
        return Polynomial.const(n_vars, entry)
    raise ValueError(f"entry {entry!r} is not a polynomial, a string or a rational")


class AlgebroidData(Frozen):
    """The fields (base_dim, rank, rho, bracket): d, r, the d × r anchor
    matrix ρ and the bracket tensor C[α][β][γ], polynomials in the base
    variables (`make_algebroid` builds and checks them)."""

    _fields = ("base_dim", "rank", "rho", "bracket")

    @cached_property
    def shape(self) -> AnchoredShape:
        """The anchored shape, built and validated on first use and kept."""
        return AnchoredShape(self.base_dim, self.rank, self.rho)

    @property
    def bundle(self) -> bundle_mod.TrivialBundle:
        return bundle_mod.TrivialBundle(self.base_dim, self.rank)

    def anchor_map(self) -> PolyMap:
        """ϱ: A -> TM, (x, u) -> (x, ρ(x)·u): the right leg of A = A.W."""
        return prolongation(self.shape, W).rho_leg

    @cached_property
    def bracket_fiber_map(self) -> PolyMap:
        """(x, u, v) -> C(x)(u, v) on Q^(d+2r), built on first use and kept."""
        d, r = self.base_dim, self.rank
        n = d + 2 * r
        xs = PolyMap.identity(n).components
        x, u, v = list(xs[:d]), xs[d:d + r], xs[d + r:]
        comps = []
        for gamma in range(r):
            acc = Polynomial.zero(n)
            for a, b in product(range(r), repeat=2):
                entry = self.bracket[a][b][gamma]
                if not entry.is_zero():
                    acc = acc + entry.substitute(x, out_vars=n) * u[a] * v[b]
            comps.append(acc)
        return PolyMap(n, r, comps)

    def bracket_fiber(self, x: list[Polynomial], u: list[Polynomial],
                      v: list[Polynomial]) -> list[Polynomial]:
        """C(x)(u, v) as polynomials in the ambient space of x, u, v: one
        composite with `bracket_fiber_map`, so x is classed once."""
        n = x[0].n_vars if x else (u[0].n_vars if u else 0)
        c_map = self.bracket_fiber_map
        if c_map.is_zero():
            return [Polynomial.zero(n)] * self.rank
        return list(compose_maps(c_map, PolyMap(n, c_map.src_dim, x + u + v)).components)

    def __str__(self) -> str:
        return f"algebroid(d={self.base_dim}, r={self.rank})"


def make_algebroid(d: int, r: int, rho, bracket) -> AlgebroidData:
    """Validate shapes; entries may be Polynomials, strings, or constants."""
    if len(rho) != d or any(len(row) != r for row in rho):
        raise ValueError(f"anchor must be a {d}x{r} matrix")
    if len(bracket) != r or any(len(row) != r for row in bracket) or \
            any(len(cell) != r for row in bracket for cell in row):
        raise ValueError(f"bracket must be an {r}x{r}x{r} tensor")
    rho_p = tuple(tuple(_as_poly(e, d) for e in row) for row in rho)
    c_p = tuple(tuple(tuple(_as_poly(e, d) for e in cell) for cell in row)
                for row in bracket)
    return AlgebroidData(d, r, rho_p, c_p)


def tangent_algebroid(d: int) -> AlgebroidData:
    """The canonical example: ρ = id, C = 0 on Q^d."""
    rho = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    zero = [[[0] * d for _ in range(d)] for _ in range(d)]
    return make_algebroid(d, d, rho, zero)


def block_vars(A: AlgebroidData, V: WeilAlgebra) -> list[list[Polynomial]]:
    """The variables of each block of A.V, in block order: (x, u) on A.W,
    (x, u, v) on A₂ = A.W2 and (x; u, v, w) on L(A) = A.(W⊗W)."""
    space = prolongation(A.shape, V)
    xs = PolyMap.identity(space.dim).components
    return [[xs[j] for j in space.indices_of(b.label)] for b in space.blocks]


# -- hat/bar transport through a connection ------------------------------------


def hat_map(A: AlgebroidData, conn: bundle_mod.Connection | None = None) -> PolyMap:
    """L(A) -> A₃ in hat coordinates: (π₀, p∘π₁, κ∘π₁) fiberwise."""
    conn = conn or bundle_mod.trivial_connection(A.bundle)
    space = prolongation(A.shape, WW)
    d, r = A.base_dim, A.rank
    pi1 = space.proj1                       # -> TA full coordinates
    kappa_fib = PolyMap(2 * (d + r), r, list(conn.kappa.components[d:]))
    x = space.base_vars()
    comps = x + list(space.proj0.components[d:])          # u
    comps += [c for c in pi1.components[d:d + r]]         # v = p∘π₁ fiber
    comps += list(compose_maps(kappa_fib, pi1).components)
    return PolyMap(space.dim, space.dim, comps)


def bar_map(A: AlgebroidData, conn: bundle_mod.Connection | None = None) -> PolyMap:
    """A₃ -> L(A), inverse of hat: ν̂(π₀,π₂) + ∇̂(π₀,π₁) in flat form."""
    conn = conn or bundle_mod.trivial_connection(A.bundle)
    d, r = A.base_dim, A.rank
    n = d + 3 * r
    x, u, v, w = block_vars(A, WW)
    # Correction: the κ-fiber of (x, v, ρ(x)u, 0).
    kappa_fib = PolyMap(2 * (d + r), r, list(conn.kappa.components[d:]))
    rho_u = A.shape.anchor_fiber(x, u)
    zero = [Polynomial.zero(n)] * r
    correction = compose_maps(kappa_fib, PolyMap(n, 2 * (d + r), x + v + rho_u + zero))
    comps = x + u + v + [wc - corr for wc, corr in zip(w, correction.components)]
    return PolyMap(n, n, comps)


def sigma_hat(A: AlgebroidData) -> PolyMap:
    """σ̂(x; u, v, w) = (x; v, u, w + C(x)(u, v)) on hat coordinates."""
    n = A.base_dim + 3 * A.rank
    x, u, v, w = block_vars(A, WW)
    # (x; u, v) are the leading coordinates of L(A), so C(x)(u, v) is the
    # bracket fiber map read in n variables.
    cw = [c.shift_vars(0, n) for c in A.bracket_fiber_map.components]
    return PolyMap(n, n, x + v + u + [a + b for a, b in zip(w, cw)])


def involution_from_bracket(A: AlgebroidData,
                            conn: bundle_mod.Connection | None = None) -> PolyMap:
    """The canonical involution on flat L(A): bar ∘ σ̂ ∘ hat.

    Without a connection this is σ̂ itself.  Through the trivial connection
    hat and bar are the identity of flat L(A): its κ reads the w block off
    π₁(x; u, v, w) = (x, v, ρ(x)u, w), and its correction κ(x, v, ρ(x)u, 0)
    is 0.  An explicit connection, the trivial one included, goes through
    the full transport.
    """
    if conn is None:
        return sigma_hat(A)
    return compose_maps(bar_map(A, conn),
                        compose_maps(sigma_hat(A), hat_map(A, conn)))


def bracket_from_involution(A: AlgebroidData, sigma: PolyMap,
                            conn: bundle_mod.Connection | None = None):
    """Recover the bracket tensor: ⟨-,-⟩ = κ̂∘σ∘∇̂ −_π κ̂∘∇̂.

    Requires σ to preserve the base coordinate (checked; ValueError with the
    witness otherwise).  Returns the C[α][β][γ] tensor.  Without a
    connection, hat and bar are the identity (see `involution_from_bracket`),
    so ∇̂ is (x; u, v, 0), κ̂∘∇̂ is 0 and C is σ's w block at (x; u, v, 0): one
    selection.  An explicit connection goes through the full transport.
    """
    d, r = A.base_dim, A.rank
    space = prolongation(A.shape, WW)
    base_out = PolyMap(space.dim, d, list(sigma.components[:d]))
    if base_out != PolyMap.projection(space.dim, 0, d):
        raise ValueError(f"σ is not base-preserving: base image {base_out}")
    n = d + 2 * r
    # (x; u, v) -> (x; u, v, 0)
    at_w_zero = PolyMap.selection(n, [*range(n)] + [None] * r)
    if conn is None:
        c_map = compose_maps(PolyMap(space.dim, r, list(sigma.components[n:])), at_w_zero)
    else:
        bar = bar_map(A, conn)
        hat = hat_map(A, conn)
        nabla_hat = compose_maps(bar, at_w_zero)
        def kappa_hat_fiber(m: PolyMap) -> list[Polynomial]:
            return list(compose_maps(hat, m).components[n:])
        with_sigma = kappa_hat_fiber(compose_maps(sigma, nabla_hat))
        without = kappa_hat_fiber(nabla_hat)
        c_map = PolyMap(n, r, [a - b for a, b in zip(with_sigma, without)])
    # Extract coefficients: compose with the unit fiber vectors (x; e_a, e_b),
    # a rename of c_map's keys (see `_selection_images`).
    x = list(PolyMap.identity(d).components)
    units = [[Polynomial.const(d, 1 if t == a else 0) for t in range(r)]
             for a in range(r)]
    return tuple(
        tuple(compose_maps(c_map, PolyMap(d, n, x + units[a] + units[b])).components
              for b in range(r))
        for a in range(r))


# -- structure equations ---------------------------------------------------------


def _total(terms: list[Polynomial], n_vars: int) -> Polynomial:
    """The sum of `terms`; the first term starts it, so nothing adds a zero."""
    if not terms:
        return Polynomial.zero(n_vars)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def check_structure_equations(A: AlgebroidData) -> CheckReport:
    """Alternating, Leibniz, and Bianchi, as exact polynomial identities.

    Both differential equations are written with the anchor field
    X_a(p) = Σ_j ρ[j][a]·∂_j p.  Leibniz is X_a(ρ[i][b]) − X_b(ρ[i][a]) =
    Σ_g ρ[i][g]·C[a][b][g]; Bianchi is K(α,β,γ,ν) + K(β,γ,α,ν) + K(γ,α,β,ν) = 0
    with the cyclic term K(p1,p2,p3,ν) = X_{p1}(C[p2][p3][ν]) +
    Σ_μ C[p2][p3][μ]·C[p1][μ][ν].  Each X_a(ρ[i][b]), each cyclic term and
    each Bianchi sum is computed once per call, and every sum runs over
    nonzero factors only.  Each verdict stops at its first failing cell in
    the loop order of the plain triple loop and names that cell as its
    witness.  When the alternating verdict passed, K is antisymmetric in
    (p2, p3), so the Bianchi sum is alternating in (α,β,γ): it is 0 when an
    index repeats, and a permutation fails exactly when its sorted triple
    does, which the loop meets first.  So only sorted triples are summed,
    3·C(r,3) cyclic terms per ν.  Otherwise the three rotations of (α,β,γ)
    share their terms and their sum.
    """
    report = CheckReport(f"structure equations for {A}")
    d, r = A.base_dim, A.rank
    C = A.bracket
    rho = A.rho

    alternating, witness = True, None
    for a, b, g in product(range(r), repeat=3):
        diff = C[a][b][g] + C[b][a][g]
        if not diff.is_zero():
            alternating, witness = False, \
                f"C[{a}][{b}][{g}] + C[{b}][{a}][{g}] = {diff}"
            break
    report.add("alternating", alternating, witness)

    # The nonzero anchor entries of each fiber direction a: (j + 1, ρ[j][a]).
    anchor = [[(j + 1, rho[j][a]) for j in range(d) if not rho[j][a].is_zero()]
              for a in range(r)]

    def field_terms(a: int, p: Polynomial) -> list[Polynomial]:
        """The nonzero summands ρ[j][a]·∂_j p of X_a(p)."""
        terms = []
        for j, coeff in anchor[a]:
            dp = p.partial(j)
            if not dp.is_zero():
                terms.append(coeff * dp)
        return terms

    fields: dict[tuple[int, int, int], Polynomial] = {}

    def field_of_anchor(a: int, i: int, b: int) -> Polynomial:
        """X_a(ρ[i][b]), memoised for this call."""
        value = fields.get((a, i, b))
        if value is None:
            value = fields[a, i, b] = _total(field_terms(a, rho[i][b]), d)
        return value

    ok, witness = True, None
    for i, a, b in product(range(d), range(r), range(r)):
        bracket_terms = [rho[i][g] * C[a][b][g] for g in range(r)
                         if not (rho[i][g].is_zero() or C[a][b][g].is_zero())]
        diff = field_of_anchor(a, i, b) - _total(
            [field_of_anchor(b, i, a)] + bracket_terms, d)
        if not diff.is_zero():
            ok, witness = False, \
                f"Leibniz fails at i={i}, α={a}, β={b}: difference {diff}"
            break
    report.add("Leibniz", ok, witness)

    cyclic: dict[tuple[int, int, int, int], Polynomial] = {}

    def cyclic_term(p1: int, p2: int, p3: int, nu: int) -> Polynomial:
        """K(p1,p2,p3,ν), memoised for this call."""
        key = (p1, p2, p3, nu)
        value = cyclic.get(key)
        if value is None:
            inner = C[p2][p3]
            terms = field_terms(p1, inner[nu])
            terms += [inner[mu] * C[p1][mu][nu] for mu in range(r)
                      if not (inner[mu].is_zero() or C[p1][mu][nu].is_zero())]
            value = cyclic[key] = _total(terms, d)
        return value

    # Each sum is kept under the lexicographically least rotation of (α,β,γ).
    sums: dict[tuple[int, int, int, int], Polynomial] = {}

    def bianchi_sum(a: int, b: int, g: int, nu: int) -> Polynomial:
        key = min((a, b, g), (b, g, a), (g, a, b)) + (nu,)
        value = sums.get(key)
        if value is None:
            p1, p2, p3, _ = key
            value = sums[key] = _total([k for k in (cyclic_term(p1, p2, p3, nu),
                                                    cyclic_term(p2, p3, p1, nu),
                                                    cyclic_term(p3, p1, p2, nu))
                                        if not k.is_zero()], d)
        return value

    triples = combinations(range(r), 3) if alternating else product(range(r), repeat=3)
    ok, witness = True, None
    for nu, (a, b, g) in product(range(r), triples):
        total = bianchi_sum(a, b, g, nu)
        if not total.is_zero():
            ok, witness = False, \
                f"Bianchi fails at ν={nu}, (α,β,γ)=({a},{b},{g}): {total}"
            break
    report.add("Bianchi", ok, witness)
    return report


# -- involution axioms -----------------------------------------------------------


def lambda_hat(A: AlgebroidData) -> PolyMap:
    """The generalized lift λ̂ = (ξ∘π, λ): A -> L(A), (x, u) -> (x; 0, 0, u)."""
    return whiskered_generator(A.shape, "ell", NAT, NAT)


def lift_pullback_bundle(A: AlgebroidData) -> PolyMap:
    """(0 × c∘T.λ): L(A) -> T.L(A), the lift over π₀."""
    space = prolongation(A.shape, WW)
    x, u, v, w = ([*space.indices_of(b.label)] for b in space.blocks)
    zero, zd = [None] * A.rank, [None] * A.base_dim
    return PolyMap.selection(space.dim, x + u + zero + zero + zd + zero + v + w)


def lift_prolongation_bundle(A: AlgebroidData) -> PolyMap:
    """(λ × ℓ): L(A) -> T.L(A), the lift over p∘π₁."""
    space = prolongation(A.shape, WW)
    x, u, v, w = ([*space.indices_of(b.label)] for b in space.blocks)
    zero, zd = [None] * A.rank, [None] * A.base_dim
    return PolyMap.selection(space.dim, x + zero + v + zero + zd + u + zero + w)


def check_involution_axioms(A: AlgebroidData, sigma: PolyMap) -> CheckReport:
    """The five involution-algebroid axioms on flat L(A)/L²(A) coordinates.

    Each axiom is one private helper returning its two sides, so a caller
    that needs one verdict computes only that one.
    """
    report = CheckReport(f"involution axioms for {A}")
    report.equal("(i) involution σ∘σ = id", *_axiom_involution(A, sigma))
    t_sigma = weil_prolong(W, sigma)
    report.equal("(ii) double linearity T.σ∘(0×c∘T.λ) = (λ×ℓ)∘σ",
                 *_axiom_double_linearity(A, sigma, t_sigma))
    report.equal("(iii) symmetry of lift σ∘λ̂ = λ̂", *_axiom_lift_symmetry(A, sigma))
    report.equal("(iv) target T.ϱ∘π₁∘σ = c∘T.ϱ∘π₁", *_axiom_target(A, sigma))
    report.equal("(v) Yang-Baxter on L²(A)", *_axiom_yang_baxter(A, sigma, t_sigma))
    return report


def _axiom_involution(A: AlgebroidData, sigma: PolyMap) -> tuple[PolyMap, PolyMap]:
    """(i): (σ∘σ, id)."""
    return compose_maps(sigma, sigma), PolyMap.identity(prolongation(A.shape, WW).dim)


def _axiom_double_linearity(A: AlgebroidData, sigma: PolyMap,
                            t_sigma: PolyMap) -> tuple[PolyMap, PolyMap]:
    """(ii), given T.σ: (T.σ∘(0×c∘T.λ), (λ×ℓ)∘σ)."""
    return (compose_maps(t_sigma, lift_pullback_bundle(A)),
            compose_maps(lift_prolongation_bundle(A), sigma))


def _axiom_lift_symmetry(A: AlgebroidData, sigma: PolyMap) -> tuple[PolyMap, PolyMap]:
    """(iii): (σ∘λ̂, λ̂)."""
    lam_hat = lambda_hat(A)
    return compose_maps(sigma, lam_hat), lam_hat


def _axiom_target(A: AlgebroidData, sigma: PolyMap) -> tuple[PolyMap, PolyMap]:
    """(iv): (T.ϱ∘π₁∘σ, c∘T.ϱ∘π₁)."""
    t_rho = weil_prolong(W, A.anchor_map())
    pi1 = prolongation(A.shape, WW).proj1
    flip_m = generator_nat("flip", A.base_dim)
    return (compose_maps(t_rho, compose_maps(pi1, sigma)),
            compose_maps(flip_m, compose_maps(t_rho, pi1)))


def _axiom_yang_baxter(A: AlgebroidData, sigma: PolyMap,
                       t_sigma: PolyMap) -> tuple[PolyMap, PolyMap]:
    """(v), given T.σ: Yang-Baxter for σ×c and 1×T.σ on L²(A).

    With σ₁ = 1×T.σ and σ₂ = σ×c, the two sides σ₂∘σ₁∘σ₂ and σ₁∘σ₂∘σ₁ share
    the product σ₁∘σ₂, built once: three compositions instead of four.
    """
    sigma2 = whiskered_generator(A.shape, "flip", NAT, W, sigma=sigma)   # σ×c
    # 1×T.σ, joined from the legs of L²(A) with the T.σ the caller has already
    # built: cheaper than the whiskered flip, which would prolong σ again.
    l2 = prolongation(A.shape, L2_ALGEBRA)
    sigma1 = join_at(A.shape, W, WW, l2.proj0, compose_maps(t_sigma, l2.proj1))
    both = compose_maps(sigma1, sigma2)
    return compose_maps(sigma2, both), compose_maps(both, sigma1)


def check_lambda_hat_coassociativity(A: AlgebroidData) -> CheckReport:
    """(λ̂×ℓ)∘λ̂ = (id×T.λ̂)∘λ̂ for the anchored bundle underlying A."""
    report = CheckReport("coassociativity of the generalized lift")
    lam_hat = lambda_hat(A)
    left = whiskered_generator(A.shape, "ell", NAT, W)    # λ̂×ℓ : L -> L²
    right = whiskered_generator(A.shape, "ell", W, NAT)   # id×T.λ̂ : L -> L²
    report.equal("(λ̂×ℓ)∘λ̂ = (id×T.λ̂)∘λ̂",
                 compose_maps(left, lam_hat), compose_maps(right, lam_hat))
    return report


# -- sections and the section bracket --------------------------------------------


def _section_to_l(A: AlgebroidData, X: PolyMap, Y: PolyMap) -> PolyMap:
    """(id, T.Y∘ϱ)∘X : M -> L(A) in flat coordinates."""
    d, r = A.base_dim, A.rank
    x = list(PolyMap.identity(d).components)
    xf = list(X.components)
    rho_x = A.shape.anchor_fiber(x, xf)
    dy = []
    for comp in Y.components:
        acc = Polynomial.zero(d)
        for j in range(d):
            acc = acc + comp.partial(j + 1) * rho_x[j]
        dy.append(acc)
    return PolyMap(d, d + 3 * r, x + xf + list(Y.components) + dy)


def section_bracket(A: AlgebroidData, X: PolyMap, Y: PolyMap) -> PolyMap:
    """[X, Y] via the involution: the universality equation solved exactly.

    X, Y are fiber parts of sections (PolyMaps Q^d -> Q^r).  The bracket is
    the unique section with λ̂∘[X,Y] = σ∘(id,T.Y∘ϱ)∘X −_{p∘π₁} (id,T.X∘ϱ)∘Y
    (up to the ξ'-translate); exactness of the subtraction is asserted.
    """
    return _section_bracket(A, involution_from_bracket(A), X, Y)


def _section_bracket(A: AlgebroidData, sigma: PolyMap, X: PolyMap, Y: PolyMap) -> PolyMap:
    """`section_bracket` with the involution σ of A already built."""
    d, r = A.base_dim, A.rank
    if X.src_dim != d or X.tgt_dim != r or Y.src_dim != d or Y.tgt_dim != r:
        raise ValueError("sections are fiber maps Q^d -> Q^r")
    lead = compose_maps(sigma, _section_to_l(A, X, Y))
    trail = _section_to_l(A, Y, X)
    # Both lie over the same p∘π₁ leg (x, v); subtract the (u, w) fibers.
    if lead.components[d + r:d + 2 * r] != trail.components[d + r:d + 2 * r]:
        raise ValueError("universality equation is inconsistent in the v slot")
    u_diff = [a - b for a, b in
              zip(lead.components[d:d + r], trail.components[d:d + r])]
    if any(not comp.is_zero() for comp in u_diff):
        raise ValueError("universality equation is inconsistent in the u slot")
    return PolyMap(d, r, [a - b for a, b in
                          zip(lead.components[d + 2 * r:], trail.components[d + 2 * r:])])


def section_bracket_coordinates(A: AlgebroidData, X: PolyMap, Y: PolyMap) -> PolyMap:
    """The coordinate formula ρX·∂Y − ρY·∂X + C(X,Y), used as an oracle."""
    d, r = A.base_dim, A.rank
    x = list(PolyMap.identity(d).components)
    rho_x = A.shape.anchor_fiber(x, list(X.components))
    rho_y = A.shape.anchor_fiber(x, list(Y.components))
    comps = []
    c_term = A.bracket_fiber(x, list(X.components), list(Y.components))
    for g in range(r):
        acc = c_term[g]
        for j in range(d):
            acc = acc + Y.components[g].partial(j + 1) * rho_x[j]
            acc = acc - X.components[g].partial(j + 1) * rho_y[j]
        comps.append(acc)
    return PolyMap(d, r, comps)


def scalar_action_on_section(f: Polynomial, X: PolyMap) -> PolyMap:
    return PolyMap(X.src_dim, X.tgt_dim, [f * c for c in X.components])


def anchor_derivation(A: AlgebroidData, X: PolyMap, f: Polynomial) -> Polynomial:
    """[X, f] = p̂∘T.f∘ϱ∘X = directional derivative of f along ρ·X."""
    d = A.base_dim
    x = list(PolyMap.identity(d).components)
    rho_x = A.shape.anchor_fiber(x, list(X.components))
    acc = Polynomial.zero(d)
    for j in range(d):
        acc = acc + f.partial(j + 1) * rho_x[j]
    return acc


def check_section_laws(A: AlgebroidData, sections: list[PolyMap],
                       scalars: list[Polynomial]) -> CheckReport:
    """Antisymmetry, Jacobi, and the Leibniz law on the given sections.

    σ is built once, and every bracket below uses it.
    """
    report = CheckReport(f"section bracket laws for {A}")
    sigma = involution_from_bracket(A)

    def bracket(X: PolyMap, Y: PolyMap) -> PolyMap:
        return _section_bracket(A, sigma, X, Y)

    for i, X in enumerate(sections):
        for j, Y in enumerate(sections):
            anti = bracket(X, Y) + bracket(Y, X)
            report.check(f"antisymmetry [{i},{j}]", anti,
                         f"X={X}, Y={Y}")
    for i, X in enumerate(sections):
        for j, Y in enumerate(sections):
            for k, Z in enumerate(sections):
                jac = bracket(X, bracket(Y, Z)) \
                    - bracket(bracket(X, Y), Z) \
                    - bracket(Y, bracket(X, Z))
                report.check(f"Jacobi [{i},[{j},{k}]]", jac)
    for i, X in enumerate(sections):
        for j, Y in enumerate(sections):
            for s, f in enumerate(scalars):
                lhs = bracket(X, scalar_action_on_section(f, Y))
                rhs = scalar_action_on_section(f, bracket(X, Y)) \
                    + scalar_action_on_section(anchor_derivation(A, X, f), Y)
                report.equal(f"Leibniz [{i}, f{s}·{j}]", lhs, rhs)
    return report


# -- morphisms -------------------------------------------------------------------


def check_morphism(A: AlgebroidData, B: AlgebroidData, fiber, base_map: PolyMap,
                   conn: bundle_mod.Connection | None = None,
                   conn_b: bundle_mod.Connection | None = None) -> CheckReport:
    """Involution-algebroid morphism criterion through connections.

    `fiber` is the r_B × r_A matrix of the fiberwise-linear map (entries over
    the source base), `base_map` the map Q^{d_A} -> Q^{d_B}.  Checks anchor
    preservation first, then ∇[f](x,y) + ⟨fx, fy⟩ = ∇[f](y,x) + f⟨x,y⟩ with
    ∇[f] = κ^B∘T.f∘∇^A.
    """
    report = CheckReport("algebroid morphism condition")
    dA, rA = A.base_dim, A.rank
    dB, rB = B.base_dim, B.rank
    fiber_p = [[_as_poly(e, dA) for e in row] for row in fiber]
    if len(fiber_p) != rB or any(len(row) != rA for row in fiber_p):
        raise ValueError(f"fiber matrix must be {rB}x{rA}")
    if base_map.src_dim != dA or base_map.tgt_dim != dB:
        raise ValueError(f"base map must be Q^{dA} -> Q^{dB}")
    conn = conn or bundle_mod.trivial_connection(A.bundle)
    conn_b = conn_b or bundle_mod.trivial_connection(B.bundle)

    n = dA + rA
    x, u = block_vars(A, W)

    def f_fiber(xs, us):
        amb = xs[0].n_vars if xs else us[0].n_vars
        out = []
        for row in fiber_p:
            acc = Polynomial.zero(amb)
            for entry, ua in zip(row, us):
                acc = acc + entry.substitute(xs, out_vars=amb) * ua
            out.append(acc)
        return out

    full_f = PolyMap(n, dB + rB,
                     [c.substitute(x, out_vars=n) for c in base_map.components]
                     + f_fiber(x, u))

    # Anchor preservation: T.φ∘ϱ^A = ϱ^B∘f.
    t_phi = weil_prolong(W, base_map)
    lhs = compose_maps(t_phi, A.anchor_map())
    rhs = compose_maps(B.anchor_map(), full_f)
    report.equal("anchor preservation", lhs, rhs)

    # Bracket condition in the two-section space (x; u, v).
    m = dA + 2 * rA
    xs, us, vs = block_vars(A, W2)

    t_f = weil_prolong(W, full_f)
    kappa_b_fib = PolyMap(2 * (dB + rB), rB, list(conn_b.kappa.components[dB:]))

    def nabla_f(y_fib, z_fib):
        """∇[f](ϱ·y, z) = κ^B-fiber of T.f(∇^A(z, ϱ y))."""
        rho_y = A.shape.anchor_fiber(xs, y_fib)
        lifted = compose_maps(conn.nabla, PolyMap(m, dA + rA + dA, xs + z_fib + rho_y))
        return compose_maps(kappa_b_fib, compose_maps(t_f, lifted))

    fx = f_fiber(xs, us)
    fy = f_fiber(xs, vs)
    phi_xs = [c.substitute(xs, out_vars=m) for c in base_map.components]
    bracket_b = B.bracket_fiber(phi_xs, fx, fy)
    bracket_a = A.bracket_fiber(xs, us, vs)
    f_bracket_a = f_fiber(xs, bracket_a)
    lhs_comps = [p + q for p, q in zip(nabla_f(us, vs).components, bracket_b)]
    rhs_comps = [p + q for p, q in zip(nabla_f(vs, us).components, f_bracket_a)]
    report.equal("bracket condition ∇[f](x,y) + ⟨fx,fy⟩ = ∇[f](y,x) + f⟨x,y⟩",
                 PolyMap(m, rB, lhs_comps), PolyMap(m, rB, rhs_comps))
    return report
