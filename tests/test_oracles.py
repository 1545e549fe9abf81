"""Independent oracles for the structural kernels.

- `check_structure_equations` against the plain triple loop it replaced
  (`reference_structure_equations` below), first failing witnesses
  included, also on alternating brackets of rank 4-6 whose Bianchi sums
  fail on unsorted triples too;
- `weil_prolong` against sympy: truncated substitution of Weil-algebra
  points, with one symbol per generator;
- `structure_nat` against the Kronecker product of the morphism's matrix
  with the identity, and that matrix against the one rebuilt from generator
  images; `compose_morphisms` and `tensor_morphisms` against dense loops;
- `differential` against sympy's Jacobian applied to the direction;
- `section_bracket` (the σ route) and `section_bracket_coordinates` against
  ρX·∂Y − ρY·∂X + C(X, Y) written in sympy from `A.rho` and `A.bracket`;
- `weil_prolong` (a fold of the packed T_n) against the jet products it
  replaced, and the shared substitution table of `compose_maps` and
  `Polynomial.substitute` against per-component, per-monomial expansion;
- `PolyMap.selection` against the same map built from `Polynomial.var`, and
  identity or prefix renames (which share term dicts) against per-monomial
  expansion;
- the splits `flatspace.split_left` keeps on a space against freshly built
  ones, and `join_at` through its kept plan against the block walk;
- the one involution axiom AC6 computes per instance against the verdict of
  all five, Yang-Baxter through one shared product against four
  compositions, and the L'(A) layout `shift_iso(A, W⊗W)` and
  `shift_iso_inverse` against the maps built one `Polynomial.var` at a time
  from a table of block offsets;
- `involution_from_bracket` and `bracket_from_involution` without a
  connection against the full transport through an explicit trivial or
  nontrivial connection, on canonical and on bent involutions;
- renames through 0, 1 and the variables against the generic substitution;
- `compose_maps` through near-selections, whose arguments are zero, kept,
  renamed or expanded (seeded maps, and σ, σ×c and 1×T.σ as the involution
  axioms compose them), against sympy;
- `flatspace.tensor_action` (φ's columns applied to the moved blocks)
  against the route through `structure_nat(φ, n)` and `compose_maps`;
- `flatspace.whiskered_generator` (the Weil push of id ⊗ θ ⊗ id) against
  the per-kind span formulas and head-by-head whiskers it replaced, for p,
  0, +, ℓ and two projections whiskered by N, W, W2 and W⊗W on eight
  algebroids; the push of a c-free term's denotation against its nerve
  image; and the push of c against σ, which it equals exactly when C = 0;
- the flip (the block swap with T^L(σ) on the spine blocks) against the
  head formula whiskered head by head that it replaced, with L and R in
  N, W, W2 and W⊗W, for σ̂ and a base-fixing σ not of bracket form, on the
  same eight algebroids (256 cases); three mutants (T^L dropped, σ's copy
  also on a mixed block, the swap left out) must each fail it where
  C ≠ 0, and a missing or misshapen σ is refused;
- the fixed coordinate maps that `PolyMap.selection` builds against the
  per-variable lists they replaced: ξ, λ, the trivial connection's κ and ∇
  and the two lifts of ∇'s linearity axioms for 0 ≤ d, k ≤ 3, and the lifts
  (0×c∘T.λ) and (λ×ℓ) of L(A) on the same eight algebroids; one shifted
  index in any of them must fail the comparison;
- `Polynomial.eval` and `Polynomial.__str__` against formulas over
  exponent tuples;
- `differential` against the tangent block of `tangent_n(f, 1)` and against
  the per-variable formula it replaced, and `random_polynomial` and
  `random_map` against the generator that summed one polynomial per term
  (same maps, same generator state afterwards, same PolyError);
- `random_polynomial`, which draws from `getrandbits`, against the same
  draws made through `rng.randrange`, over up to 8 variables, degree 6 and
  single-value (0 included) and all-negative coefficient ranges;
- CD.2 as `check_cdc_axioms` checks it, on the generic point and
  directions, against the form it replaced, on three random maps a, h, k
  per map (`reference_cd2`): both pass on 300 maps drawn as AC3 draws them;
  a differential with a term quadratic in the direction added fails the
  additive verdict, and one with a constant or x₁ added the zero-direction
  verdict, in the generic form on every map and in the random form wherever
  the drawn companions do not hide the term (the constant: every map);
- the W1 vocabulary that the terms now read off `weil` against the tables
  they kept: `Gen`'s boundary table (`reference_gen_boundary`), the
  generator images written out per kind, and `print_term`'s symbol branches
  (`reference_symbol`), for every kind, `!{V}` and `id{V}` with V in N, W,
  W2 and W*W, and `proj{i,n}` for n ≤ 3; and `weil.fibered_sum` against the
  W_{n+m} formula that pairing terms, `fibered_pair` and the nerve each
  wrote, as the target of every pairing of p, id{W} and <id{W}, id{W}>.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tancat import algebroid as AL
from tancat import bundle as BD
from tancat import flatspace as FS
from tancat import nerve as NV
from tancat import selftest as ST
from tancat import weil, wterm
from tancat.poly import (MAX_EXPONENT, VARIABLE_CACHE_SIZE, PolyError, PolyMap,
                         Polynomial, _selection_images, _substitute, check_cdc_axioms,
                         compose_maps, differential, random_map, random_polynomial,
                         tangent_n)
from tancat.report import CheckReport
from tancat.tangent import W2, structure_nat, weil_prolong
from tancat.weil import W, WW, WeilAlgebra


# -- structure equations: the triple loop ---------------------------------------


def reference_structure_equations(A: AL.AlgebroidData) -> CheckReport:
    """Alternating, Leibniz and Bianchi by the plain triple loop."""
    report = CheckReport(f"structure equations for {A}")
    d, r = A.base_dim, A.rank
    C = A.bracket
    rho = A.rho

    # Each law returns the witness of its first failing cell in loop order.
    def alternating():
        for a in range(r):
            for b in range(r):
                for g in range(r):
                    diff = C[a][b][g] + C[b][a][g]
                    if not diff.is_zero():
                        return f"C[{a}][{b}][{g}] + C[{b}][{a}][{g}] = {diff}"
        return None

    def leibniz():
        for i in range(d):
            for a in range(r):
                for b in range(r):
                    lhs = Polynomial.zero(d)
                    for j in range(d):
                        lhs = lhs + rho[j][a] * rho[i][b].partial(j + 1)
                    rhs = Polynomial.zero(d)
                    for g in range(r):
                        rhs = rhs + rho[i][g] * C[a][b][g]
                    for j in range(d):
                        rhs = rhs + rho[j][b] * rho[i][a].partial(j + 1)
                    diff = lhs - rhs
                    if not diff.is_zero():
                        return f"Leibniz fails at i={i}, α={a}, β={b}: difference {diff}"
        return None

    def bianchi():
        for nu in range(r):
            for a in range(r):
                for b in range(r):
                    for g in range(r):
                        total = reference_bianchi_total(A, nu, a, b, g)
                        if not total.is_zero():
                            return f"Bianchi fails at ν={nu}, (α,β,γ)=({a},{b},{g}): {total}"
        return None

    for name, law in (("alternating", alternating), ("Leibniz", leibniz), ("Bianchi", bianchi)):
        witness = law()
        report.add(name, witness is None, witness)
    return report


def reference_bianchi_total(A: AL.AlgebroidData, nu: int, a: int, b: int, g: int) -> Polynomial:
    """The cyclic Bianchi sum at ν and (α,β,γ), term by term."""
    d, r, C, rho = A.base_dim, A.rank, A.bracket, A.rho
    total = Polynomial.zero(d)
    for (p1, p2, p3) in ((a, b, g), (b, g, a), (g, a, b)):
        for i in range(d):
            total = total + rho[i][p1] * C[p2][p3][nu].partial(i + 1)
        for mu in range(r):
            total = total + C[p2][p3][mu] * C[p1][mu][nu]
    return total


def random_polynomial_algebroid(rng: random.Random) -> AL.AlgebroidData:
    """Random anchor and bracket entries: usually fails every equation."""
    d, r = rng.randint(1, 2), rng.randint(1, 3)
    entry = lambda: random_polynomial(rng, d, 2, n_terms=rng.randint(0, 2))  # noqa: E731
    rho = [[entry() for _ in range(r)] for _ in range(d)]
    c = [[[entry() for _ in range(r)] for _ in range(r)] for _ in range(r)]
    if rng.random() < 0.5:
        # Alternating, so Leibniz and Bianchi decide the verdict.
        for a in range(r):
            c[a][a] = [Polynomial.zero(d)] * r
            for b in range(a):
                c[a][b] = [-p for p in c[b][a]]
    return AL.make_algebroid(d, r, rho, c)


def alternating_wide_algebroid(rng: random.Random) -> AL.AlgebroidData:
    """Alternating C of rank 4-6 that generically breaks Bianchi, with a
    constant or a polynomial anchor: the checker reads such sums off sorted
    triples, and the triple loop meets the failures on unsorted ones."""
    d, r = rng.randint(1, 2), rng.randint(4, 6)
    if rng.random() < 0.5:
        rho = [[rng.randint(-1, 1) for _ in range(r)] for _ in range(d)]
    else:
        rho = [[random_polynomial(rng, d, 2, n_terms=rng.randint(0, 2)) for _ in range(r)]
               for _ in range(d)]
    c = [[[Polynomial.zero(d)] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            c[a][b] = [random_polynomial(rng, d, 1, n_terms=rng.randint(0, 1))
                       for _ in range(r)]
            c[b][a] = [-p for p in c[a][b]]
    return AL.make_algebroid(d, r, rho, c)


def structure_instance(kind: str, rng: random.Random) -> AL.AlgebroidData:
    if kind == "valid":
        return rng.choice(ST.valid_instances(rng, 9))
    if kind == "leibniz-broken":
        return ST.leibniz_family(rng, break_leibniz=True)
    if kind == "alternating-broken":
        return ST.mutate_alternating(rng.choice(ST.valid_instances(rng, 9)))
    if kind == "random-constants":
        return ST.random_lie_constants(rng, r=rng.randint(2, 4))
    if kind == "bianchi-broken":
        return ST.mutate_bianchi(rng.choice([ST.so3(), ST.heisenberg(), ST.scaled_so3(3)]))
    if kind == "random-polynomial":
        return random_polynomial_algebroid(rng)
    if kind == "alternating-wide":
        return alternating_wide_algebroid(rng)
    return NV.lie_tangent(rng.choice(ST.valid_instances(rng, 9)))


STRUCTURE_KINDS = ("valid", "leibniz-broken", "alternating-broken", "random-constants",
                   "bianchi-broken", "random-polynomial", "alternating-wide", "lie-tangent")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(STRUCTURE_KINDS), seed=st.integers(0, 2 ** 32))
def test_structure_equations_match_the_triple_loop(kind, seed):
    A = structure_instance(kind, random.Random(seed))
    assert AL.check_structure_equations(A).as_dict() == \
        reference_structure_equations(A).as_dict()


def test_structure_oracle_sees_every_failure_kind():
    """The instance kinds above do exercise failing witnesses of each law."""
    rng = random.Random(3)
    failed = set()
    for kind in STRUCTURE_KINDS:
        for _ in range(6):
            A = structure_instance(kind, rng)
            report = AL.check_structure_equations(A)
            assert report.as_dict() == reference_structure_equations(A).as_dict()
            failed |= {v.name for v in report.verdicts if not v.passed}
    assert failed == {"alternating", "Leibniz", "Bianchi"}


def test_bianchi_witnesses_on_unsorted_triples_match_the_triple_loop():
    """With alternating C the checker sums sorted triples only; the triple
    loop, which also visits the unsorted ones, fails first on the same
    sorted triple, also where unsorted triples fail too."""
    rng = random.Random(11)
    unsorted = 0
    for _ in range(12):
        A = alternating_wide_algebroid(rng)
        report = AL.check_structure_equations(A)
        assert report.as_dict() == reference_structure_equations(A).as_dict()
        bianchi = next(v for v in report.verdicts if v.name == "Bianchi")
        if not bianchi.passed:
            nu = int(bianchi.witness.split("ν=")[1].split(",")[0])
            triple = bianchi.witness.split("(α,β,γ)=(")[1].split(")")[0]
            a, b, g = map(int, triple.split(","))
            assert a < b < g
            unsorted += not reference_bianchi_total(A, nu, g, b, a).is_zero()
    assert unsorted >= 3


# -- weil_prolong: truncated substitution in sympy --------------------------------


PROLONG_ALGEBRAS = (W, W2, W.tensor(W), W.tensor(W2), W.tensor(W).tensor(W))


def as_sympy(sp, p, values):
    """p with x_{i+1} replaced by values[i], expanded."""
    expr = sp.Integer(0)
    for exps, coeff in p.monomials():
        term = sp.Rational(coeff.numerator, coeff.denominator) \
            if isinstance(coeff, Fraction) else sp.Integer(coeff)
        for value, e in zip(values, exps):
            term *= value ** e
        expr += term
    return sp.expand(expr)


def sympy_prolong(sp, V: WeilAlgebra, f):
    """T^V f by sympy: substitute x_i = Σ_m x_{m,i}·ε^m and truncate.

    One symbol per generator y_j of each factor; a monomial that puts two
    generators of one factor together (y_j·y_k, or y_j²) is dropped.  Returns
    {(block, output coordinate): expression in the flat coordinates} and the
    flat coordinate symbols.
    """
    n = f.src_dim
    basis = list(itertools.product(*(range(w + 1) for w in V.widths)))
    gens = [[sp.Symbol(f"y{k}_{j}") for j in range(1, w + 1)]
            for k, w in enumerate(V.widths)]
    flat = [sp.Symbol(f"z{j}") for j in range(len(basis) * n)]

    def eps(mono):
        out = sp.Integer(1)
        for k, j in enumerate(mono):
            if j:
                out *= gens[k][j - 1]
        return out

    points = [sum(flat[pos * n + i] * eps(mono) for pos, mono in enumerate(basis))
              for i in range(n)]
    all_gens = [g for factor in gens for g in factor]
    out = {}
    for out_i, comp in enumerate(f.components):
        expr = as_sympy(sp, comp, points)
        blocks = {pos: sp.Integer(0) for pos in range(len(basis))}
        terms = sp.Poly(expr, *all_gens).terms() if all_gens else [((), expr)]
        for powers, coeff in terms:
            mono, at = [], 0
            for factor in gens:
                used = powers[at:at + len(factor)]
                at += len(factor)
                if sum(used) > 1:
                    mono = None
                    break
                mono.append(used.index(1) + 1 if sum(used) else 0)
            if mono is not None:
                blocks[basis.index(tuple(mono))] += coeff
        for pos, value in blocks.items():
            out[pos, out_i] = sp.expand(value)
    return out, flat


@pytest.mark.parametrize("V", PROLONG_ALGEBRAS, ids=str)
def test_weil_prolong_matches_sympy_truncation(V):
    sp = pytest.importorskip("sympy")
    rng = random.Random(f"prolong:{V}")
    for _ in range(4):
        f = random_map(rng, rng.randint(1, 2), rng.randint(1, 2), 3)
        if rng.random() < 0.5:
            # Fraction coefficients, so monomials start from a scaled power.
            c = Fraction(rng.randint(1, 5), rng.randint(2, 5))
            f = PolyMap(f.src_dim, f.tgt_dim, [p * c for p in f.components])
        expected, flat = sympy_prolong(sp, V, f)
        got = weil_prolong(V, f)
        assert got.tgt_dim == len(expected)
        for (pos, out_i), value in expected.items():
            assert as_sympy(sp, got.components[pos * f.tgt_dim + out_i], flat) == value, \
                (str(V), str(f), pos, out_i)


# -- structure_nat: the Kronecker product with the identity -----------------------


def kronecker_identity(matrix, n):
    """matrix ⊗ I_n as the rows of a dense matrix."""
    return [[c if i == k else 0 for c in row for k in range(n)]
            for row in matrix for i in range(n)]


def sample_morphisms(rng: random.Random):
    idw = weil.identity_morphism(W)
    gens = [weil.generator(k) for k in ("p", "zero", "plus", "ell", "flip")]
    out = gens + [weil.tensor_morphisms(g, idw) for g in gens]
    out += [weil.tensor_morphisms(idw, g) for g in gens]
    out.append(weil.mu_morphism())
    # y ↦ y1 + y2 ↦ 2y: a coefficient other than 1.
    out.append(weil.compose_morphisms(gens[2], weil.fibered_pair(idw, idw)))
    out += [wterm.eval_weil(wterm.random_term(rng, depth=2)) for _ in range(12)]
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_nat_is_the_kronecker_product(n):
    for phi in sample_morphisms(random.Random(n)):
        # phi.matrix() has one column per source monomial.
        rows = [list(row) for row in zip(*phi.matrix())]
        matrix, offset = structure_nat(phi, n).linear_part()
        assert matrix == kronecker_identity(rows, n), str(phi)
        assert not any(offset)


# -- Weil morphisms: matrices against generator images and dense loops ------------
#
# `structure_nat` reads the same columns as `matrix()`, so the Kronecker
# oracle above cannot catch a wrong matrix.  These tests rebuild matrices from
# generator images (products of Weil elements) and from dense loops.


def dense_product(g_matrix, f_matrix):
    """The columns of G·F by the plain triple loop."""
    rows = len(g_matrix[0])
    return [[sum(g_matrix[r][k] * f_col[r] for r in range(len(g_matrix)))
             for k in range(rows)] for f_col in f_matrix]


def dense_kronecker(f_matrix, g_matrix):
    """The columns of F ⊗ G, the first factor most significant."""
    out = []
    for f_col in f_matrix:
        for g_col in g_matrix:
            col = [0] * (len(f_col) * len(g_col))
            for i, a in enumerate(f_col):
                for k, b in enumerate(g_col):
                    col[i * len(g_col) + k] = a * b
            out.append(col)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_matrix_is_rebuilt_from_generator_images(seed):
    rng = random.Random(f"images:{seed}")
    for _ in range(40):
        phi = wterm.eval_weil(wterm.random_term(rng, depth=2))
        images = [phi.image_of(i, j) for i, j in phi.source.generators()]
        rebuilt = weil.WeilMorphism(phi.source, phi.target, images)
        assert rebuilt == phi and hash(rebuilt) == hash(phi), str(phi)
        assert rebuilt.columns == phi.columns


@pytest.mark.parametrize("seed", range(3))
def test_compose_and_tensor_match_dense_loops(seed):
    rng = random.Random(f"matrices:{seed}")
    pool = sample_morphisms(rng)
    composed = 0
    for g, f in itertools.product(pool, repeat=2):
        if f.target == g.source:
            gf = weil.compose_morphisms(g, f)
            assert (gf.source, gf.target) == (f.source, g.target)
            assert gf.matrix() == dense_product(g.matrix(), f.matrix()), f"{g} after {f}"
            composed += 1
    assert composed >= 50
    for _ in range(60):
        f, g = rng.choice(pool), rng.choice(pool)
        fg = weil.tensor_morphisms(f, g)
        assert (fg.source, fg.target) == (f.source.tensor(g.source),
                                          f.target.tensor(g.target))
        assert fg.matrix() == dense_kronecker(f.matrix(), g.matrix()), f"{f} ⊗ {g}"


# -- differential: the Jacobian in sympy ------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_differential_is_the_sympy_jacobian(seed):
    sp = pytest.importorskip("sympy")
    rng = random.Random(f"differential:{seed}")
    for _ in range(5):
        n = rng.randint(1, 3)
        f = random_map(rng, n, rng.randint(1, 3), 3)
        if rng.random() < 0.5:
            c = Fraction(rng.randint(1, 5), rng.randint(2, 5))
            f = PolyMap(f.src_dim, f.tgt_dim, [p * c for p in f.components])
        xs = sp.symbols(f"x1:{n + 1}")
        vs = sp.symbols(f"v1:{n + 1}")
        jacobian = sp.Matrix([as_sympy(sp, c, xs) for c in f.components]).jacobian(xs)
        expected = [sp.expand(e) for e in jacobian * sp.Matrix(vs)]
        got = differential(f)
        assert got.src_dim == 2 * n and got.tgt_dim == f.tgt_dim
        assert [as_sympy(sp, c, xs + vs) for c in got.components] == expected, str(f)


# -- the section bracket: the coordinate formula in sympy ---------------------------


def sympy_section_bracket(sp, A: AL.AlgebroidData, X: PolyMap, Y: PolyMap):
    """[X, Y]^γ = Σ_j (ρX)^j ∂_j Y^γ − (ρY)^j ∂_j X^γ + Σ_αβ C^γ_αβ X^α Y^β."""
    d, r = A.base_dim, A.rank
    xs = sp.symbols(f"x1:{d + 1}") if d else ()
    rho = [[as_sympy(sp, A.rho[j][a], xs) for a in range(r)] for j in range(d)]
    xv = [as_sympy(sp, c, xs) for c in X.components]
    yv = [as_sympy(sp, c, xs) for c in Y.components]
    rho_x = [sum(rho[j][a] * xv[a] for a in range(r)) for j in range(d)]
    rho_y = [sum(rho[j][a] * yv[a] for a in range(r)) for j in range(d)]
    out = []
    for g in range(r):
        e = sum(as_sympy(sp, A.bracket[a][b][g], xs) * xv[a] * yv[b]
                for a in range(r) for b in range(r))
        e += sum(rho_x[j] * sp.diff(yv[g], xs[j]) - rho_y[j] * sp.diff(xv[g], xs[j])
                 for j in range(d))
        out.append(sp.expand(e))
    return out, xs


BRACKET_ALGEBROIDS = [
    ("so3", ST.so3), ("tangent d=2", lambda: AL.tangent_algebroid(2)),
    ("action x1", lambda: ST.action_algebroid("x1")), ("heisenberg", ST.heisenberg),
] + [(f"leibniz_family {k}", lambda k=k: ST.leibniz_family(random.Random(k)))
     for k in range(3)]


@pytest.mark.parametrize("name, make", BRACKET_ALGEBROIDS,
                         ids=[name for name, _ in BRACKET_ALGEBROIDS])
def test_section_bracket_matches_the_sympy_formula(name, make):
    sp = pytest.importorskip("sympy")
    A = make()
    rng = random.Random(f"bracket:{name}")
    for _ in range(4):
        X = random_map(rng, A.base_dim, A.rank, 2)
        Y = random_map(rng, A.base_dim, A.rank, 2)
        expected, xs = sympy_section_bracket(sp, A, X, Y)
        for route in (AL.section_bracket, AL.section_bracket_coordinates):
            got = route(A, X, Y)
            assert [as_sympy(sp, c, xs) for c in got.components] == expected, \
                (route.__name__, str(X), str(Y))


# -- the packed Weil action and the substitution table: the code they replaced ----


class ReferenceJet:
    """An element of V ⊗ Q[x_1..x_k]: per-monomial polynomial coefficients.

    The jet arithmetic `weil_prolong` ran on before it became a fold of the
    packed T_n: each jet product is a grid of Polynomial products.
    """

    def __init__(self, V: WeilAlgebra, parts: dict):
        self.V = V
        self.parts = {m: p for m, p in parts.items() if not p.is_zero()}

    def mul(self, other: "ReferenceJet") -> "ReferenceJet":
        out: dict = {}
        for ma, pa in self.parts.items():
            for mb, pb in other.parts.items():
                mono = weil.mono_mul(self.V, ma, mb)
                if mono is None:
                    continue
                prod = pa * pb
                out[mono] = out[mono] + prod if mono in out else prod
        return ReferenceJet(self.V, out)

    def power(self, k: int) -> "ReferenceJet":
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if not k:
                return result
            base = base.mul(base)


def reference_weil_prolong(V: WeilAlgebra, f: PolyMap) -> PolyMap:
    """T^V f by substituting V-valued points X_i = Σ_m x_{(m, i)}·m into f."""
    n, m = f.src_dim, f.tgt_dim
    basis = V.basis()
    total = n * len(basis)
    points = [ReferenceJet(V, {mono: Polynomial.var(total, pos * n + i + 1)
                               for pos, mono in enumerate(basis)})
              for i in range(n)]
    components = [Polynomial.zero(total)] * (m * len(basis))
    mono_pos = {mono: pos for pos, mono in enumerate(basis)}
    for out_i, comp in enumerate(f.components):
        value: dict = {}
        for mono, coeff in comp.monomials():
            term = ReferenceJet(V, {V.unit_monomial: Polynomial.const(total, coeff)})
            for i, e in enumerate(mono):
                if e:
                    term = term.mul(points[i].power(e))
            for v_mono, p in term.parts.items():
                value[v_mono] = value[v_mono] + p if v_mono in value else p
        for v_mono, poly in value.items():
            components[mono_pos[v_mono] * m + out_i] = poly
    return PolyMap(total, m * len(basis), components)


def reference_substitute(p: Polynomial, args: list, n_vars: int) -> Polynomial:
    """p with args[i] for x_{i+1}, one component and one monomial at a time."""
    total = Polynomial.zero(n_vars)
    for mono, coeff in p.monomials():
        term = Polynomial.const(n_vars, coeff)
        for arg, e in zip(args, mono):
            if e:
                term = term * arg ** e
        total = total + term
    return total


table_coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def shared_maps(draw, src: int, tgt: int, max_exp: int = 3):
    """Maps whose components are 0, a bare variable, or a sum over one shared
    pool of monomials, with Fraction coefficients."""
    pool = draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * src),
                         min_size=1, max_size=5, unique=True))
    comps = []
    for _ in range(tgt):
        kind = draw(st.sampled_from(["zero", "var", "poly", "poly"]))
        if kind == "zero":
            comps.append(Polynomial.zero(src))
        elif kind == "var":
            comps.append(Polynomial.var(src, draw(st.integers(1, src))))
        else:
            terms = draw(st.dictionaries(st.sampled_from(pool), table_coefficients,
                                         min_size=1, max_size=4))
            comps.append(Polynomial(src, terms))
    return PolyMap(src, tgt, comps)


def canonical(f: PolyMap) -> bool:
    """Coefficients are ints when integral, also after doubling (which turns
    1/2 into 1 and so shows a polynomial that forgot it holds a Fraction)."""
    return all(type(c) is int or c.denominator != 1
               for g in (f, f + f) for p in g.components for _, c in p.monomials())


def assert_same_map(got: PolyMap, expected: PolyMap) -> None:
    assert got == expected
    assert str(got) == str(expected)
    assert canonical(got)


TABLE_ALGEBRAS = (WeilAlgebra(()), W, W2, WeilAlgebra((3,)),
                  WeilAlgebra((1, 2, 1)), WeilAlgebra((1, 1, 1, 1)))


@pytest.mark.parametrize("V", TABLE_ALGEBRAS, ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_weil_prolong_matches_the_jet_product(V, data):
    src = data.draw(st.integers(1, 3 if V.dim <= 4 else 2))
    f = data.draw(shared_maps(src, data.draw(st.integers(1, 2)),
                              max_exp=3 if V.dim <= 4 else 2))
    assert_same_map(weil_prolong(V, f), reference_weil_prolong(V, f))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_substitution_table_matches_per_component_expansion(data):
    mid = data.draw(st.integers(1, 3))
    src = data.draw(st.integers(1, 3))
    g = data.draw(shared_maps(mid, data.draw(st.integers(1, 4))))
    # Inner maps range from pure selections to sums with Fraction coefficients.
    f = data.draw(shared_maps(src, mid, max_exp=2))
    args = list(f.components)
    expected = PolyMap(src, g.tgt_dim, [reference_substitute(c, args, src)
                                        for c in g.components])
    assert_same_map(compose_maps(g, f), expected)
    assert_same_map(PolyMap(src, g.tgt_dim, [c.substitute(args) for c in g.components]),
                    expected)


def test_substitution_at_the_exponent_limit():
    top = Polynomial(2, {(MAX_EXPONENT, MAX_EXPONENT): 1, (MAX_EXPONENT, 0): 5})
    args = [Polynomial(2, {(1, 0): 2}), Polynomial(2, {(0, 1): 3})]
    expected = Polynomial(2, {(MAX_EXPONENT, MAX_EXPONENT): 2 ** MAX_EXPONENT * 3 ** MAX_EXPONENT,
                              (MAX_EXPONENT, 0): 5 * 2 ** MAX_EXPONENT})
    assert top.substitute(args) == expected
    assert compose_maps(PolyMap(2, 1, [top]), PolyMap(2, 2, args)).components[0] == expected
    # A long prefix chain: one variable per field, every one of them used.
    n = 48
    wide = Polynomial(n, {(MAX_EXPONENT,) * n: 1})
    doubled = [Polynomial(n, {tuple(int(j == i) for j in range(n)): 2}) for i in range(n)]
    assert dict(wide.substitute(doubled).monomials()) == {
        (MAX_EXPONENT,) * n: 2 ** (MAX_EXPONENT * n)}


@pytest.mark.parametrize("outer, inner", [
    ("x1^32767", ["2*x1^2"]),
    ("x1^20000*x2^20000", ["2*x1", "3*x1"]),
    # A selection: keys are renamed, and the renamed fields add past the limit.
    ("x1^20000*x2^20000 + x2", ["x1", "x1"]),
])
def test_substitution_overflow_raises(outer, inner):
    g = PolyMap.from_strings(len(inner), [outer])
    f = PolyMap.from_strings(1, inner)
    with pytest.raises(PolyError, match="32767"):
        g.components[0].substitute(list(f.components))
    with pytest.raises(PolyError, match="32767"):
        compose_maps(g, f)


# -- coordinate selections --------------------------------------------------------


def var_selection(src: int, sources) -> PolyMap:
    """The selection built one `Polynomial.var` (or zero) at a time."""
    return PolyMap(src, len(sources), [Polynomial.zero(src) if j is None
                                       else Polynomial.var(src, j + 1) for j in sources])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_selection_matches_the_var_built_map(data):
    src = data.draw(st.integers(1, 5))
    # Entries may repeat a variable or be None (a zero component).
    sources = data.draw(st.lists(st.one_of(st.none(), st.integers(0, src - 1)),
                                 min_size=1, max_size=6))
    sel = PolyMap.selection(src, sources)
    expected = var_selection(src, sources)
    assert_same_map(sel, expected)
    assert (sel.src_dim, sel.tgt_dim) == (expected.src_dim, expected.tgt_dim)
    assert sel.selection_images() == _selection_images(expected.components)
    # Composing through the selection renames keys as the var-built map does.
    g = data.draw(shared_maps(len(sources), data.draw(st.integers(1, 3))))
    assert_same_map(compose_maps(g, sel), compose_maps(g, expected))
    assert_same_map(compose_maps(g, sel), PolyMap(src, g.tgt_dim, [
        reference_substitute(c, list(expected.components), src) for c in g.components]))


def test_selections_share_variables_across_dimensions():
    # Dimensions out of order, past the cache size, so the shared term
    # dicts grow, are reused by smaller dimensions and dimensions are evicted.
    dims = [3, 70, 5, 130, 1, 0, 129] + list(range(200, 200 + VARIABLE_CACHE_SIZE)) + [70, 3]
    for n in dims:
        sources = list(range(n)) + [None] + list(range(n - 1, -1, -1))
        sel = PolyMap.selection(n, sources)
        assert_same_map(sel, var_selection(n, sources))
        assert sel.selection_images() == _selection_images(sel.components)
    again = PolyMap.selection(70, [69, 0])
    assert again.components[0] is PolyMap.selection(70, [69]).components[0]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_identity_and_prefix_renames_match_the_generic_rename(data):
    m = data.draw(st.integers(0, 3))
    n = m + data.draw(st.integers(0, 3))
    g = data.draw(shared_maps(m, data.draw(st.integers(1, 3)))) if m else \
        PolyMap(0, 1, [Polynomial.const(0, data.draw(table_coefficients))])
    before = [dict(c.monomials()) for c in g.components]
    prefix = PolyMap.projection(n, 0, m)
    got = compose_maps(g, prefix)
    args = list(prefix.components)
    assert_same_map(got, PolyMap(n, g.tgt_dim, [reference_substitute(c, args, n)
                                                for c in g.components]))
    if m:
        assert_same_map(PolyMap(n, g.tgt_dim, [c.substitute(args) for c in g.components]), got)
    # The rename keeps every key, so the results share their term dicts, and
    # arithmetic on them leaves those dicts alone.
    assert all(a._terms is b._terms for a, b in zip(got.components, g.components))
    for c in got.components:
        -(c + c) * 3 - c
    assert [dict(c.monomials()) for c in g.components] == before


def test_selection_rejects_an_index_out_of_range():
    for sources in ([3], [-1], [0, None, 5]):
        with pytest.raises(PolyError, match="out of range"):
            PolyMap.selection(3, sources)
    assert PolyMap.identity(3) == var_selection(3, [0, 1, 2])
    assert PolyMap.projection(5, 1, 3) == var_selection(5, [1, 2, 3])
    for bad in (lambda: PolyMap.identity(-1), lambda: PolyMap.projection(3, 0, -1),
                lambda: PolyMap.projection(3, 2, 2)):
        with pytest.raises(PolyError):
            bad()


# -- the Weil push of tensor_action -----------------------------------------------


def tensor_action_through_structure_nat(shape, left_phi, left_map, right_source,
                                        right_target, right_map) -> PolyMap:
    """f ⊠ g with φ applied as the map structure_nat(φ, n) = M ⊗ I_n."""
    src_space = FS.prolongation(shape, left_phi.source.tensor(right_source))
    to_left, to_right, S1, _ = FS.split_left(src_space, left_phi.source.n_factors)
    n = FS.prolongation(shape, right_target).dim
    pushed = compose_maps(structure_nat(left_phi, n),
                          compose_maps(weil_prolong(S1, right_map), to_right))
    return FS.join_at(shape, left_phi.target, right_target,
                      compose_maps(left_map, to_left), pushed)


TENSOR_ALGEBROIDS = [("so3", ST.so3), ("tangent d=2", lambda: AL.tangent_algebroid(2)),
                     ("action x1", lambda: ST.action_algebroid("x1")),
                     ("heisenberg", ST.heisenberg)]

# Left factors whose matrices have an empty row (0 . p), a row of two
# entries (+), a coefficient 2 (+ . <id, id>) and the flip.
FIXED_LEFT = ["0 . p", "+", "+ . <id{W}, id{W}>", "c", "l", "!{W2}"]


@pytest.mark.parametrize("name, make", TENSOR_ALGEBROIDS, ids=[n for n, _ in TENSOR_ALGEBROIDS])
def test_tensor_action_matches_the_structure_nat_route(name, make):
    A = make()
    model = NV.NerveModel(A)
    rng = random.Random(f"tensor:{name}")
    lefts = [wterm.parse_term(text) for text in FIXED_LEFT]
    lefts += [wterm.random_term(rng, depth=1) for _ in range(10)]
    coefficients, row_sizes = set(), set()
    for left in lefts:
        right = wterm.random_term(rng, depth=1)
        phi = wterm.eval_weil(left)
        left_map = wterm.eval_model(left, model)
        right_map = wterm.eval_model(right, model)
        args = (A.shape, phi, left_map, right.source, right.target, right_map)
        assert_same_map(FS.tensor_action(*args), tensor_action_through_structure_nat(*args))
        coefficients.update(c for column in phi.columns for _, c in column)
        row_sizes.update(sum(k == row for column in phi.columns for k, _ in column)
                         for row in range(phi.target.dim))
    assert {1, 2} <= coefficients and {0, 1, 2} <= row_sizes


# -- the Weil push of the nerve generators -----------------------------------------


def reference_relabel(src, tgt, assignment) -> PolyMap:
    """Target block `label` copies source block assignment[label]; the rest 0."""
    sources = []
    for block in tgt.blocks:
        source = assignment.get(block.label)
        sources.extend([None] * block.size if source is None else src.indices_of(source))
    return PolyMap.selection(src.dim, sources)


def reference_head_generator(shape, kind, tail, i=None, n=None) -> PolyMap:
    """A.(θ⊗tail) by the per-kind span formulas the Weil push replaced."""
    def space(widths):
        return FS.prolongation(shape, WeilAlgebra(widths).tensor(tail))

    if kind == "p":
        src, tgt = space((1,)), FS.prolongation(shape, tail)
        return src.select([(0,) + b.label for b in tgt.blocks])
    if kind == "zero":
        src, tgt = FS.prolongation(shape, tail), space((1,))
        return reference_relabel(src, tgt, {(0,) + b.label: b.label for b in src.blocks})
    if kind == "proj":
        src, tgt = space((n,)), space((1,))
        return src.select([(i if b.label[0] else 0,) + b.label[1:] for b in tgt.blocks])
    if kind == "plus":
        src, tgt = space((2,)), space((1,))
        comps = []
        for block in tgt.blocks:
            rest = block.label[1:]
            if block.label[0] == 0:
                comps.extend(src.vars_of((0,) + rest))
            else:
                comps.extend(a + b for a, b in zip(src.vars_of((1,) + rest),
                                                   src.vars_of((2,) + rest)))
        return PolyMap(src.dim, tgt.dim, comps)
    assert kind == "ell"
    src, tgt = space((1,)), space((1, 1))
    assignment = {b.label: (b.label[0],) + b.label[2:] for b in tgt.blocks
                  if b.label[0] == b.label[1]}
    return reference_relabel(src, tgt, assignment)


REFERENCE_WIDTHS = {"p": ((1,), ()), "zero": ((), (1,)), "plus": ((2,), (1,)),
                    "ell": ((1,), (1, 1))}


def reference_whiskered_generator(shape, kind, left, right, i=None, n=None) -> PolyMap:
    """A.(left⊗θ⊗right): the head formula, whiskered by `left` one factor at a
    time as id_{W_n} ⊠ g, joined from `proj0` and T_n g ∘ `proj1`."""
    if left.n_factors == 0:
        return reference_head_generator(shape, kind, right, i, n)
    src_mid, tgt_mid = REFERENCE_WIDTHS[kind] if kind != "proj" else ((n,), (1,))
    head, tail = WeilAlgebra(left.widths[:1]), WeilAlgebra(left.widths[1:])
    inner = reference_whiskered_generator(shape, kind, tail, right, i, n)
    src = FS.prolongation(shape, left.tensor(WeilAlgebra(src_mid)).tensor(right))
    tgt_inner = tail.tensor(WeilAlgebra(tgt_mid)).tensor(right)
    return FS.join_at(shape, head, tgt_inner, src.proj0,
                      compose_maps(weil_prolong(head, inner), src.proj1))


def levi_civita(a: int, b: int, c: int) -> int:
    return (a - b) * (b - c) * (c - a) // 2


def so3_on_q3() -> AL.AlgebroidData:
    """so(3) acting on Q³ by rotations: d = r = 3 and an x-dependent anchor."""
    rho = [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]]
    bracket = [[[-levi_civita(a, b, c) for c in range(3)] for b in range(3)]
               for a in range(3)]
    return AL.make_algebroid(3, 3, rho, bracket)


PUSH_ALGEBROIDS = [("so3", ST.so3), ("heisenberg", ST.heisenberg),
                   ("tangent d=1", lambda: AL.tangent_algebroid(1)),
                   ("tangent d=2", lambda: AL.tangent_algebroid(2)),
                   ("action x1", lambda: ST.action_algebroid("x1")),
                   ("leibniz 4", lambda: ST.leibniz_family(random.Random(4))),
                   ("leibniz 9", lambda: ST.leibniz_family(random.Random(9))),
                   ("so3 on Q3", so3_on_q3)]
PUSH_IDS = [name for name, _ in PUSH_ALGEBROIDS]
WHISKERS = (weil.NAT, W, W2, WW)
PUSH_KINDS = [("p", {}), ("zero", {}), ("plus", {}), ("ell", {}),
              ("proj", {"i": 1, "n": 2}), ("proj", {"i": 2, "n": 3})]


def test_so3_on_q3_is_a_valid_algebroid():
    assert AL.check_structure_equations(so3_on_q3()).passed


@pytest.mark.parametrize("name, make", PUSH_ALGEBROIDS, ids=PUSH_IDS)
def test_whiskered_generators_match_the_span_formulas(name, make):
    shape = make().shape
    for (kind, args), left, right in itertools.product(PUSH_KINDS, WHISKERS, WHISKERS):
        assert_same_map(FS.whiskered_generator(shape, kind, left, right, **args),
                        reference_whiskered_generator(shape, kind, left, right, **args))


def has_flip(t: wterm.WTerm) -> bool:
    if isinstance(t, wterm.Gen):
        return t.kind == "flip"
    if isinstance(t, wterm.Compose):
        return has_flip(t.outer) or has_flip(t.inner)
    return has_flip(t.left) or has_flip(t.right)


@pytest.mark.parametrize("name, make", PUSH_ALGEBROIDS, ids=PUSH_IDS)
def test_the_push_of_a_flip_free_term_is_its_nerve_image(name, make):
    A = make()
    model = NV.NerveModel(A)
    rng = random.Random(f"push:{name}")
    # + . <id, id> is x -> 2x: a coefficient 2 in M.
    terms = [wterm.parse_term("+ . <id{W}, id{W}>")]
    while len(terms) < 13:
        t = wterm.random_term(rng, depth=2)
        if not has_flip(t):
            terms.append(t)
    for t in terms:
        assert_same_map(FS.weil_push(A.shape, wterm.eval_weil(t)),
                        wterm.eval_model(t, model))


@pytest.mark.parametrize("name, make", PUSH_ALGEBROIDS, ids=PUSH_IDS)
def test_the_push_of_the_flip_is_sigma_only_without_a_bracket(name, make):
    # c carries the bracket through σ: its push, the plain swap, is σ
    # exactly on the algebroids with C = 0.
    A = make()
    flip = wterm.parse_term("c")
    bracket_free = all(e.is_zero() for row in A.bracket for cell in row for e in cell)
    assert (FS.weil_push(A.shape, wterm.eval_weil(flip))
            == wterm.eval_model(flip, NV.NerveModel(A))) is bracket_free
    assert bracket_free is (name in ("tangent d=1", "tangent d=2", "action x1"))


# -- the flip: the block swap with T^L(σ) on its spine ------------------------------


def reference_flip_head(shape, tail, sigma) -> PolyMap:
    """A.(c⊗tail): σ on the spine blocks, the swap on the mixed ones."""
    if sigma is None:
        raise ValueError("the flip needs the algebroid involution σ")
    space = FS.prolongation(shape, WW.tensor(tail))
    l_space = FS.prolongation(shape, WW)
    if sigma.src_dim != l_space.dim or sigma.tgt_dim != l_space.dim:
        raise ValueError("σ must act on the flat first prolongation")
    spine_out = iter(compose_maps(sigma, space.select(
        [b.label for b in space.blocks if b.label[2:] == tail.unit_monomial])).components)
    comps = []
    for block in space.blocks:
        h1, h2, rest = block.label[0], block.label[1], block.label[2:]
        if rest == tail.unit_monomial:
            comps.extend(next(spine_out) for _ in range(block.size))
        else:
            comps.extend(space.vars_of((h2, h1) + rest))
    return PolyMap(space.dim, space.dim, comps)


def reference_flip(shape, left, right, sigma) -> PolyMap:
    """A.(left⊗c⊗right): the head formula, whiskered by `left` one factor at
    a time as id_{W_n} ⊠ g, joined from `proj0` and T_n g ∘ `proj1`."""
    if left.n_factors == 0:
        return reference_flip_head(shape, right, sigma)
    inner = reference_flip(shape, WeilAlgebra(left.widths[1:]), right, sigma)
    space = FS.prolongation(shape, left.tensor(WW).tensor(right))
    head = WeilAlgebra((space.head_width,))
    return FS.join_at(shape, head, space.inner.V, space.proj0,
                      compose_maps(weil_prolong(head, inner), space.proj1))


def bent_sigma(A: AL.AlgebroidData) -> PolyMap:
    """σ̂ with x1·w1 (2·w1 when d = 0) added to u1 and u1·v1² to w1 on
    A.(W⊗W) = (x; u, v, w): it fixes the base but is not of bracket form."""
    sigma = AL.involution_from_bracket(A)
    d, r = A.base_dim, A.rank
    xs = PolyMap.identity(sigma.src_dim).components
    u1, v1, w1 = xs[d], xs[d + r], xs[d + 2 * r]
    comps = list(sigma.components)
    comps[d] = comps[d] + (xs[0] * w1 if d else w1 * 2)
    comps[d + 2 * r] = comps[d + 2 * r] + u1 * v1 * v1
    return PolyMap(sigma.src_dim, sigma.tgt_dim, comps)


def flip_cases(A: AL.AlgebroidData):
    """The 32 flip cases of one algebroid: σ̂ and `bent_sigma`, each with L
    and R in N, W, W2 and W⊗W."""
    for sigma in (AL.involution_from_bracket(A), bent_sigma(A)):
        for left, right in itertools.product(WHISKERS, WHISKERS):
            yield left, right, sigma


@pytest.mark.parametrize("name, make", PUSH_ALGEBROIDS, ids=PUSH_IDS)
def test_the_flip_matches_the_head_formula_whiskered_head_by_head(name, make):
    A = make()
    cases = list(flip_cases(A))
    assert len(cases) == 32
    for left, right, sigma in cases:
        got = FS.whiskered_generator(A.shape, "flip", left, right, sigma=sigma)
        assert_same_map(got, reference_flip(A.shape, left, right, sigma))
        if left == right == weil.NAT:
            # The nerve interprets c by σ itself.
            assert_same_map(got, sigma)


def with_blocks(space, f: PolyMap, sources: dict) -> PolyMap:
    """f with block `label` of its output replaced by the entries sources[label]."""
    comps = list(f.components)
    for label, entries in sources.items():
        at = space.block(label).offset
        comps[at:at + len(entries)] = entries
    return PolyMap(f.src_dim, f.tgt_dim, comps)


def swapped(space, label, k):
    return space.vars_of(label[:k] + (label[k + 1], label[k]) + label[k + 2:])


def entries(space, f: PolyMap, label) -> list:
    block = space.block(label)
    return f.components[block.offset:block.offset + block.size]


def spine(space, left, right):
    """The spine labels (μ, β, 1_R) of A.(L⊗W⊗W⊗R): every β for μ = 1,
    the fiber blocks β otherwise."""
    for mu in left.basis():
        for beta in WW.basis():
            if mu == left.unit_monomial or beta != WW.unit_monomial:
                yield mu + beta + right.unit_monomial


def mutant_unit_copy_only(space, f, left, right):
    """T^L dropped: the copies μ ≠ 1 of the spine take the swap."""
    k = left.n_factors
    return with_blocks(space, f, {label: swapped(space, label, k)
                                  for label in spine(space, left, right)
                                  if label[:k] != left.unit_monomial})


def mutant_mixed_copy(space, f, left, right):
    """σ's copy μ also written on the blocks (μ, β, ν) with ν the last
    monomial of R."""
    nu = right.basis()[-1]
    if nu == right.unit_monomial:
        return f
    n = len(right.unit_monomial)
    return with_blocks(space, f, {label[:-n] + nu: entries(space, f, label)
                                  for label in spine(space, left, right)
                                  if label[-n - 2:-n] != (0, 0)})


def mutant_no_swap(space, f, left, right):
    """The swap left out: the blocks off the spine are copied in place."""
    on_spine = set(spine(space, left, right))
    return with_blocks(space, f, {b.label: space.vars_of(b.label)
                                  for b in space.blocks if b.label not in on_spine})


FLIP_MUTANTS = [mutant_unit_copy_only, mutant_mixed_copy, mutant_no_swap]


@pytest.mark.parametrize("mutant", FLIP_MUTANTS, ids=lambda m: m.__name__)
def test_each_flip_mutant_fails_the_reference_where_the_bracket_is_nonzero(mutant):
    caught = []
    for name, make in PUSH_ALGEBROIDS:
        A = make()
        if all(e.is_zero() for row in A.bracket for cell in row for e in cell):
            continue
        for left, right, sigma in flip_cases(A):
            space = FS.prolongation(A.shape, left.tensor(WW).tensor(right))
            got = mutant(space, FS.whiskered_generator(A.shape, "flip", left, right,
                                                      sigma=sigma), left, right)
            if got != reference_flip(A.shape, left, right, sigma):
                caught.append((name, str(left), str(right)))
    assert caught


def test_the_flip_refuses_a_missing_or_misshapen_sigma():
    A = ST.so3()
    dim = FS.prolongation(A.shape, WW).dim
    with pytest.raises(ValueError, match="needs the algebroid involution"):
        FS.whiskered_generator(A.shape, "flip", weil.NAT, W)
    with pytest.raises(ValueError, match="flat first prolongation"):
        FS.whiskered_generator(A.shape, "flip", W, weil.NAT,
                               sigma=PolyMap.identity(dim + 1))
    with pytest.raises(ValueError, match="flat first prolongation"):
        FS.whiskered_generator(A.shape, "flip", weil.NAT, weil.NAT,
                               sigma=PolyMap(dim, dim - 1, PolyMap.identity(dim).components[1:]))


# -- fixed coordinate maps: selections against per-variable lists -------------------


def var(n: int, i: int) -> Polynomial:
    return Polynomial.var(n, i + 1)


def reference_xi(bundle: BD.TrivialBundle) -> PolyMap:
    n = bundle.base_dim
    comps = [var(n, i) for i in range(n)]
    comps += [Polynomial.zero(n)] * bundle.rank
    return PolyMap(n, bundle.total_dim, comps)


def reference_lift(bundle: BD.TrivialBundle) -> PolyMap:
    """(m, e) -> (m, 0, 0, e)."""
    t = bundle.total_dim
    comps = [var(t, i) for i in range(bundle.base_dim)]
    comps += [Polynomial.zero(t)] * (bundle.rank + bundle.base_dim)
    comps += [var(t, bundle.base_dim + j) for j in range(bundle.rank)]
    return PolyMap(t, 2 * t, comps)


def reference_trivial_connection(bundle: BD.TrivialBundle) -> tuple[PolyMap, PolyMap]:
    """κ(m, e, mdot, edot) = (m, edot) and ∇((m,e), (m,mdot)) = (m, e, mdot, 0)."""
    d, k, t = bundle.base_dim, bundle.rank, bundle.total_dim
    comps = [var(2 * t, i) for i in range(d)]
    comps += [var(2 * t, t + d + j) for j in range(k)]
    kappa = PolyMap(2 * t, t, comps)
    n = t + d
    comps = [var(n, i) for i in range(t)]
    comps += [var(n, t + i) for i in range(d)]
    comps += [Polynomial.zero(n)] * k
    return kappa, PolyMap(n, 2 * t, comps)


def reference_horizontal_lift_maps(bundle: BD.TrivialBundle) -> tuple[PolyMap, PolyMap]:
    """(λ ×_M 0.TM) and (0.E ×_M ℓ.M) on (m, e, mdot)."""
    d, k = bundle.base_dim, bundle.rank
    n = d + k + d
    zero = Polynomial.zero(n)
    m = [var(n, i) for i in range(d)]
    e = [var(n, d + j) for j in range(k)]
    mdot = [var(n, d + k + i) for i in range(d)]
    lift1 = PolyMap(n, 2 * n, m + [zero] * k + mdot + [zero] * d + e + [zero] * d)
    lift2 = PolyMap(n, 2 * n, m + e + [zero] * d + [zero] * (d + k) + mdot)
    return lift1, lift2


def reference_lift_pullback_bundle(A: AL.AlgebroidData) -> PolyMap:
    """(0 × c∘T.λ): (x; u, v, w) -> (x; u, 0, 0; 0; 0, v, w)."""
    d, r = A.base_dim, A.rank
    n = d + 3 * r
    zero = [Polynomial.zero(n)] * r
    x, u, v, w = AL.block_vars(A, WW)
    zd = [Polynomial.zero(n)] * d
    return PolyMap(n, 2 * n, x + u + zero + zero + zd + zero + v + w)


def reference_lift_prolongation_bundle(A: AL.AlgebroidData) -> PolyMap:
    """(λ × ℓ): (x; u, v, w) -> (x; 0, v, 0; 0; u, 0, w)."""
    d, r = A.base_dim, A.rank
    n = d + 3 * r
    zero = [Polynomial.zero(n)] * r
    x, u, v, w = AL.block_vars(A, WW)
    zd = [Polynomial.zero(n)] * d
    return PolyMap(n, 2 * n, x + zero + v + zero + zd + u + zero + w)


def shifted_index(f: PolyMap) -> PolyMap | None:
    """The selection f with its last variable component x_j moved to x_(j-1)
    (x_2 for x_1); None when f has no variable component or one variable."""
    xs = PolyMap.identity(f.src_dim).components
    picks = [at for at, c in enumerate(f.components) if c in xs]
    if not picks or f.src_dim < 2:
        return None
    comps = list(f.components)
    j = xs.index(comps[picks[-1]])
    comps[picks[-1]] = xs[j - 1 if j else 1]
    return PolyMap(f.src_dim, f.tgt_dim, comps)


BUNDLE_DIMS = list(itertools.product(range(4), repeat=2))


def bundle_maps(bundle: BD.TrivialBundle) -> dict:
    """Each fixed map of a trivial bundle, with its per-variable reference."""
    conn = BD.trivial_connection(bundle)
    kappa, nabla = reference_trivial_connection(bundle)
    lift1, lift2 = BD._horizontal_lift_maps(bundle)
    ref1, ref2 = reference_horizontal_lift_maps(bundle)
    return {"ξ": (bundle.xi, reference_xi(bundle)),
            "λ": (bundle.lift.lam, reference_lift(bundle)),
            "κ": (conn.kappa, kappa), "∇": (conn.nabla, nabla),
            "λ×0": (lift1, ref1), "0×ℓ": (lift2, ref2)}


@pytest.mark.parametrize("d, k", BUNDLE_DIMS)
def test_bundle_selections_match_the_per_variable_maps(d, k):
    for got, expected in bundle_maps(BD.TrivialBundle(d, k)).values():
        assert_same_map(got, expected)


def test_an_index_shift_in_a_bundle_map_fails_the_reference():
    caught = {}
    for d, k in BUNDLE_DIMS:
        for name, (got, expected) in bundle_maps(BD.TrivialBundle(d, k)).items():
            mutant = shifted_index(got)
            if mutant is not None:
                assert mutant != expected, (name, d, k)
                caught[name] = caught.get(name, 0) + 1
    # A mutant exists where the source has two variables: Q^d for ξ, Q^(d+k)
    # for λ, Q^(2(d+k)) for κ and Q^(2d+k) for ∇ and the two lifts.
    assert caught == {"ξ": 8, "λ": 13, "κ": 15, "∇": 14, "λ×0": 14, "0×ℓ": 14}


@pytest.mark.parametrize("name, make", PUSH_ALGEBROIDS, ids=PUSH_IDS)
def test_the_lifts_of_the_prolongation_match_the_block_variable_lists(name, make):
    A = make()
    for got, expected in [(AL.lift_pullback_bundle(A), reference_lift_pullback_bundle(A)),
                          (AL.lift_prolongation_bundle(A),
                           reference_lift_prolongation_bundle(A))]:
        assert_same_map(got, expected)
        assert shifted_index(got) != expected


# -- kept splits and join plans ---------------------------------------------------


def reference_join_at(shape, S1, S2, left_map, right_map) -> PolyMap:
    """`join_at` by walking the blocks of A.(S1⊗S2) on every call."""
    space = FS.prolongation(shape, S1.tensor(S2))
    left_space, right_space = FS.prolongation(shape, S1), FS.prolongation(shape, S2)
    comps = []
    for block in space.blocks:
        mu, nu = block.label[:S1.n_factors], block.label[S1.n_factors:]
        if nu == S2.unit_monomial:
            b = left_space.block(mu)
            comps.extend(left_map.components[b.offset:b.offset + b.size])
        else:
            copy = S1.monomial_index(mu) * right_space.dim
            b = right_space.block(nu)
            comps.extend(right_map.components[copy + b.offset:copy + b.offset + b.size])
    return PolyMap(left_map.src_dim, space.dim, comps)


SPLIT_ALGEBROIDS = [ST.so3, lambda: AL.tangent_algebroid(2),
                    lambda: ST.action_algebroid("x1"), ST.heisenberg,
                    lambda: AL.tangent_algebroid(0), lambda: ST.abelian(1)]


@given(make=st.sampled_from(SPLIT_ALGEBROIDS),
       widths=st.lists(st.integers(1, 2), max_size=3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_kept_splits_match_fresh_ones(make, widths, data):
    A = make()
    space = FS.prolongation(A.shape, WeilAlgebra(tuple(widths)))
    ks = data.draw(st.permutations(range(len(widths) + 1)))
    for k in ks:
        split = FS.split_left(space, k)
        assert FS.split_left(space, k) is split
        assert len(space._splits) <= len(widths) + 1
    # Use the kept legs, then compare them with legs built from scratch.
    for k in ks:
        to_left, to_right, S1, S2 = FS.split_left(space, k)
        compose_maps(to_left, PolyMap.identity(space.dim))
        compose_maps(weil_prolong(S1, PolyMap.identity(to_right.tgt_dim // S1.dim)), to_right)
        fresh = FS._split_left(space, k)
        assert_same_map(to_left, fresh[0])
        assert_same_map(to_right, fresh[1])
        assert (S1, S2) == fresh[2:] == (WeilAlgebra(tuple(widths[:k])),
                                         WeilAlgebra(tuple(widths[k:])))
    assert len(space._splits) == len(widths) + 1
    # Joining the legs of a split gives the identity, through the kept plan
    # as through the block walk it replaced.
    for k in ks:
        to_left, to_right, S1, S2 = FS.split_left(space, k)
        joined = FS.join_at(A.shape, S1, S2, to_left, to_right)
        assert_same_map(joined, reference_join_at(A.shape, S1, S2, to_left, to_right))
        assert joined == PolyMap.identity(space.dim)
        assert FS._join_plan(space, S1, S2) == space._joins[k]
    assert len(space._joins) == len(widths) + 1
    if widths:
        assert space.proj1 is FS.split_left(space, 1)[1]
    for k in (-1, len(widths) + 1):
        with pytest.raises(ValueError, match="no factor boundary"):
            FS.split_left(space, k)
    assert len(space._splits) == len(widths) + 1


# -- one involution axiom per paired verdict --------------------------------------


def test_paired_axiom_matches_the_full_axiom_report():
    cases = ST.equivalence_instances(ST.DEFAULT_SEED + 2)
    cases += [(name, [ST.mutant(name)]) for name in ("alternating", "leibniz", "bianchi")]
    for mutation, instances in cases:
        _, prefix, _ = ST._PAIRED_CHECKERS[mutation]
        seen = set()
        for A in instances:
            full = AL.check_involution_axioms(A, AL.involution_from_bracket(A))
            expected = next(v.passed for v in full.verdicts if v.name.startswith(prefix))
            assert ST._paired_verdicts(A, mutation)[1] == expected
            seen.add(expected)
        if len(instances) > 1:
            assert seen == {True, False}, mutation
        else:
            assert seen == {False}, mutation
    # The helpers assemble the public report in its order.
    outcomes = set()
    for A in [ST.so3()] + [ST.mutant(name) for name in ("alternating", "leibniz", "bianchi")]:
        sigma = AL.involution_from_bracket(A)
        t_sigma = weil_prolong(W, sigma)
        sides = [AL._axiom_involution(A, sigma), AL._axiom_double_linearity(A, sigma, t_sigma),
                 AL._axiom_lift_symmetry(A, sigma), AL._axiom_target(A, sigma),
                 AL._axiom_yang_baxter(A, sigma, t_sigma)]
        report = AL.check_involution_axioms(A, sigma)
        assert [v.name.split()[0] for v in report.verdicts] == \
            ["(i)", "(ii)", "(iii)", "(iv)", "(v)"]
        assert [v.passed for v in report.verdicts] == [(lhs - rhs).is_zero() for lhs, rhs in sides]
        assert [v.passed for v in report.verdicts] == [lhs == rhs for lhs, rhs in sides]
        outcomes.add(tuple(v.passed for v in report.verdicts))
    assert len(outcomes) == 4


def test_shared_product_yang_baxter_matches_the_four_compositions():
    """(v) as the sides σ₂∘(σ₁∘σ₂) and (σ₁∘σ₂)∘σ₁ against σ₂∘σ₁∘σ₂ and σ₁∘σ₂∘σ₁
    composed in four steps, with σ₁ = 1×T.σ built by `whiskered_generator`."""
    outcomes = set()
    for _, instances in ST.equivalence_instances(ST.DEFAULT_SEED + 2):
        for A in instances:
            sigma = AL.involution_from_bracket(A)
            sigma1 = FS.whiskered_generator(A.shape, "flip", W, weil.NAT, sigma=sigma)
            sigma2 = FS.whiskered_generator(A.shape, "flip", weil.NAT, W, sigma=sigma)
            left = compose_maps(sigma2, compose_maps(sigma1, sigma2))
            right = compose_maps(sigma1, compose_maps(sigma2, sigma1))
            lhs, rhs = AL._axiom_yang_baxter(A, sigma, weil_prolong(W, sigma))
            assert_same_map(lhs, left)
            assert_same_map(rhs, right)
            assert_same_map(lhs - rhs, left - right)
            outcomes.add((lhs - rhs).is_zero())
    assert outcomes == {True, False}


# -- σ and C without the identity transport ---------------------------------------


def transport_instances() -> list[AL.AlgebroidData]:
    """Valid, broken and prolonged algebroids, with constant and polynomial data."""
    rng = random.Random(17)
    return ST.valid_instances(rng, 12) + [
        ST.leibniz_family(rng, break_leibniz=True), ST.mutate_alternating(ST.so3()),
        ST.mutate_bianchi(ST.heisenberg()), random_polynomial_algebroid(rng),
        alternating_wide_algebroid(rng), NV.lie_tangent(ST.so3()),
        NV.lie_tangent(ST.action_algebroid("x1"))]


def line_connection() -> BD.Connection:
    """The nontrivial connection on the line bundle over Q of `test_algebroid.py`."""
    kappa = PolyMap.from_strings(4, ["x1", "x4 + 2*x1*x3*x2"])
    nabla = PolyMap.from_strings(3, ["x1", "x2", "x3", "0 - 2*x1*x3*x2"])
    return BD.Connection(BD.TrivialBundle(1, 1), kappa, nabla)


def assert_same_tensor(got, expected) -> None:
    assert got == expected
    assert [[[str(p) for p in cell] for cell in row] for row in got] == \
        [[[str(p) for p in cell] for cell in row] for row in expected]


def test_hat_and_bar_without_a_connection_are_the_identity():
    for A in transport_instances():
        identity = PolyMap.identity(FS.prolongation(A.shape, WW).dim)
        assert AL.hat_map(A) == identity
        assert AL.bar_map(A) == identity


def test_involution_without_a_connection_is_the_trivial_transport():
    for A in transport_instances():
        sigma = AL.involution_from_bracket(A)
        assert_same_map(sigma, AL.involution_from_bracket(A, BD.trivial_connection(A.bundle)))
        assert_same_map(sigma, AL.sigma_hat(A))


@pytest.mark.parametrize("anchor, bracket", [
    ("x1", "0"), ("x1 + 2", "0"), ("1", "0"), ("x1^2 + 3", "0"), ("2*x1^3 - x1", "0"),
    # Not alternating: σ still goes through the connection unchanged.
    ("x1", "x1 + 1"), ("1/2", "3*x1^2")])
def test_involution_through_a_nontrivial_connection(anchor, bracket):
    conn = line_connection()
    assert BD.check_connection(conn).passed
    A = AL.make_algebroid(1, 1, [[anchor]], [[[bracket]]])
    assert AL.hat_map(A, conn) != PolyMap.identity(4)
    assert_same_map(AL.involution_from_bracket(A), AL.involution_from_bracket(A, conn))


def bent_involutions(A: AL.AlgebroidData) -> list[PolyMap]:
    """Base-preserving maps of flat L(A) that are not bilinear involutions:
    the plain transposition of u and v, and one with terms of degree 0, 1
    and 3 in the fibers of its w block."""
    d, r = A.base_dim, A.rank
    n = d + 3 * r
    x, u, v, w = (list(PolyMap.selection(n, range(start, start + size)).components)
                  for start, size in ((0, d), (d, r), (d + r, r), (d + 2 * r, r)))
    transposition = PolyMap(n, n, x + v + u + w)
    extra = u[0] * u[0] * v[-1] + w[0] * Fraction(1, 2) + 3
    if d:
        extra = extra + x[0] * v[0] - x[-1] * x[-1]
    bent = PolyMap(n, n, x + v + [u[0] + v[0] * v[0]] + u[1:] + [w[0] + extra] + w[1:])
    return [transposition, bent]


def test_bracket_recovery_without_a_connection_is_the_trivial_transport():
    seen_broken = False
    for A in transport_instances():
        trivial = BD.trivial_connection(A.bundle)
        sigma = AL.involution_from_bracket(A)
        # The canonical σ gives back A's tensor, alternating or not.
        assert_same_tensor(AL.bracket_from_involution(A, sigma), A.bracket)
        seen_broken |= not AL.check_structure_equations(A).passed
        for s in [sigma] + bent_involutions(A):
            assert_same_tensor(AL.bracket_from_involution(A, s),
                               AL.bracket_from_involution(A, s, trivial))
    assert seen_broken
    # A nontrivial connection recovers the same tensor from the canonical σ.
    for bracket in ("0", "x1 + 1"):
        A = AL.make_algebroid(1, 1, [["x1"]], [[[bracket]]])
        assert_same_tensor(AL.bracket_from_involution(A, AL.involution_from_bracket(A)),
                           AL.bracket_from_involution(A, AL.involution_from_bracket(A),
                                                      line_connection()))


def test_an_explicit_connection_goes_through_the_transport(monkeypatch):
    """Without a connection neither function builds hat or bar; with one,
    the trivial one included, both do: that path is the shortcut's oracle."""
    calls = []
    for name in ("hat_map", "bar_map"):
        def traced(A, conn=None, _inner=getattr(AL, name), _name=name):
            calls.append((_name, conn is not None))
            return _inner(A, conn)
        monkeypatch.setattr(AL, name, traced)
    A = ST.so3()
    sigma = AL.involution_from_bracket(A)
    AL.bracket_from_involution(A, sigma)
    assert calls == []
    trivial = BD.trivial_connection(A.bundle)
    AL.involution_from_bracket(A, trivial)
    AL.bracket_from_involution(A, sigma, trivial)
    assert sorted(calls) == [("bar_map", True)] * 2 + [("hat_map", True)] * 2


def test_a_bent_involution_reads_the_connection():
    """On the line bundle with ρ = x1, the bent σ(x; u, v, w) = (x; v, u + v²,
    w + u²v + w/2 + 3 + xv − x²) gives C = σ_w(x; 1, 1, 0) = −x² + x + 4
    without a connection.  Through the line connection, hat adds 2x²uv to w
    and bar takes it off: ∇̂(x; 1, 1) = (x; 1, 1, −2x²), σ sends it to
    (x; 1, 2, −4x² + x + 4), and κ̂ adds 2x²·1·2, so C = x + 4."""
    A = AL.make_algebroid(1, 1, [["x1"]], [[["x1 + 1"]]])
    _, bent = bent_involutions(A)
    assert str(AL.bracket_from_involution(A, bent)[0][0][0]) == "-x1^2 + x1 + 4"
    assert str(AL.bracket_from_involution(A, bent, line_connection())[0][0][0]) == "x1 + 4"


# -- renames through 0, 1 and the variables -----------------------------------------


@st.composite
def unit_arguments(draw, n_vars: int, count: int) -> list[Polynomial]:
    """`count` arguments, each 0, 1 or a variable x_j of Q^n_vars."""
    choices = [Polynomial.zero(n_vars), Polynomial.const(n_vars, 1)]
    choices += [Polynomial.var(n_vars, j + 1) for j in range(n_vars)]
    return draw(st.lists(st.sampled_from(choices), min_size=count, max_size=count))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_renames_through_zero_one_and_variables_match_the_generic_path(data):
    mid = data.draw(st.integers(1, 4))
    # src 0: every argument is 0 or 1, and the result is a constant.
    src = data.draw(st.integers(0, 3))
    g = data.draw(shared_maps(mid, data.draw(st.integers(1, 4))))
    args = data.draw(unit_arguments(src, mid))
    classes = _selection_images(args)
    images, _, expanded, _ = classes
    one = Polynomial.const(src, 1)
    assert not expanded
    assert [key == 0 for key in images] == [a == one for a in args]
    got = PolyMap(src, g.tgt_dim, _substitute(g.components, args, src, classes))
    assert_same_map(got, PolyMap(src, g.tgt_dim, _substitute(g.components, args, src, None)))
    assert_same_map(got, PolyMap(src, g.tgt_dim, [reference_substitute(c, args, src)
                                                  for c in g.components]))
    assert_same_map(compose_maps(g, PolyMap(src, mid, args)), got)


@pytest.mark.parametrize("outer, inner, expected", [
    ("x1 + 1", ["1"], "2"),
    ("x1 - 1", ["1"], "0"),
    ("1/2*x1 + 1/2", ["1"], "1"),
    ("x1*x2 + x1 - x2^3", ["1", "x1"], "-x1^3 + x1 + 1"),
    ("x1^2*x2 + x2 - 2*x1*x2", ["1", "x1"], "0"),
    ("x1*x3 + x2*x3 + 2/3*x3", ["1", "1", "x1"], "8/3*x1"),
])
def test_renames_to_one_merge_and_cancel(outer, inner, expected):
    g = PolyMap.from_strings(len(inner), [outer])
    f = PolyMap.from_strings(1, inner)
    assert f.selection_images() is not None
    assert_same_map(compose_maps(g, f), PolyMap.from_strings(1, [expected]))
    assert str(g.components[0].substitute(list(f.components))) == expected


# -- near-selections: the four argument classes against sympy --------------------


ARGUMENT_CLASSES = ("zero", "kept", "renamed", "expanded")


def mixed_inner_map(rng: random.Random) -> tuple[PolyMap, list[str]]:
    """A seeded map Q^src -> Q^mid whose components are each 0, kept in place
    (x_{i+1} at position i), renamed (another variable or 1) or expanded (a
    polynomial with Fraction coefficients); every class occurs."""
    mid = rng.randint(4, 6)
    src = mid + rng.randint(0, 2)
    kinds = list(ARGUMENT_CLASSES) + [rng.choice(ARGUMENT_CLASSES) for _ in range(mid - 4)]
    rng.shuffle(kinds)
    comps = []
    for i, kind in enumerate(kinds):
        if kind == "zero":
            comps.append(Polynomial.zero(src))
        elif kind == "kept":
            comps.append(Polynomial.var(src, i + 1))
        elif kind == "renamed":
            j = rng.choice([j for j in range(src + 1) if j != i + 1])
            comps.append(Polynomial.var(src, j) if j else Polynomial.const(src, 1))
        else:
            p = random_polynomial(rng, src, 2) + Polynomial.var(src, rng.randint(1, src))
            comps.append(p * Fraction(rng.randint(1, 4), rng.randint(2, 3)) + 1)
    return PolyMap(src, mid, comps), kinds


def sympy_compose(sp, g: PolyMap, f: PolyMap, xs) -> list:
    """g(f(x)) expanded in sympy, one component at a time."""
    inner = [as_sympy(sp, c, xs) for c in f.components]
    return [sp.expand(as_sympy(sp, c, inner)) for c in g.components]


def assert_matches_sympy(sp, g: PolyMap, f: PolyMap) -> None:
    got = compose_maps(g, f)
    xs = sp.symbols(f"x1:{f.src_dim + 1}")
    assert [as_sympy(sp, c, xs) for c in got.components] == sympy_compose(sp, g, f, xs)
    assert canonical(got)
    for c in got.components:
        assert c._frac == any(type(v) is not int for v in c._terms.values())


def test_near_selections_with_all_four_classes_match_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random("near-selections")
    for _ in range(30):
        f, kinds = mixed_inner_map(rng)
        images, kept, expanded, merges = f.selection_images()
        assert [key is None for key in images] == [k == "zero" for k in kinds]
        assert [key == -1 for key in images] == [k == "expanded" for k in kinds]
        assert kept and expanded and merges
        # Outer maps with Fraction coefficients, bare variables and shared
        # monomials, so terms differ only in kept or renamed variables.
        g = random_map(rng, f.tgt_dim, 4, 3)
        g = PolyMap(g.src_dim, 6, [c * Fraction(1, rng.randint(1, 3)) for c in g.components]
                    + [Polynomial.var(g.src_dim, rng.randint(1, g.src_dim)),
                       g.components[0] * g.components[1]])
        assert_matches_sympy(sp, g, f)


@pytest.mark.parametrize("make", [ST.so3, lambda: ST.leibniz_family(random.Random(4)),
                                  lambda: NV.lie_tangent(ST.leibniz_family(random.Random(4)))],
                         ids=["so3", "leibniz_family", "L' of leibniz_family"])
def test_involution_compositions_match_sympy(make):
    """σ, σ×c and 1×T.σ are near-selections: compose them as the involution
    axioms do and compare each composite with its sympy expansion."""
    sp = pytest.importorskip("sympy")
    A = make()
    sigma = AL.involution_from_bracket(A)
    sigma1 = FS.whiskered_generator(A.shape, "flip", W, weil.NAT, sigma=sigma)
    sigma2 = FS.whiskered_generator(A.shape, "flip", weil.NAT, W, sigma=sigma)
    for f in (sigma, sigma1, sigma2):
        assert f.selection_images()[2], "some component is expanded"
    both = compose_maps(sigma1, sigma2)
    for g, f in ((sigma, sigma), (sigma1, sigma2), (sigma2, both), (both, sigma1)):
        assert_matches_sympy(sp, g, f)


def reference_lie_layout_iso(A: AL.AlgebroidData) -> PolyMap:
    """The block identification L(L'(A)) -> L²(A), one `Polynomial.var` per entry."""
    d, r = A.base_dim, A.rank
    big = FS.prolongation(A.shape, AL.L2_ALGEBRA)
    n = d + 7 * r
    offsets = {"x": 0, "c": d, "a": d + r, "ac": d + 2 * r, "b": d + 3 * r,
               "bc": d + 4 * r, "ab": d + 5 * r, "abc": d + 6 * r}
    names = {(0, 0, 0): "x", (1, 0, 0): "a", (0, 1, 0): "b", (0, 0, 1): "c",
             (0, 1, 1): "bc", (1, 1, 0): "ab", (1, 0, 1): "ac", (1, 1, 1): "abc"}
    comps = []
    for block in big.blocks:
        off = offsets[names[block.label]]
        comps.extend(Polynomial.var(n, off + i + 1) for i in range(block.size))
    return PolyMap(n, n, comps)


def reference_inverse(iso: PolyMap) -> PolyMap:
    n = iso.src_dim
    perm = [None] * n
    for out_i, comp in enumerate(iso.components):
        (mono, _), = comp.monomials()
        perm[mono.index(1)] = out_i
    return PolyMap(n, n, [Polynomial.var(n, perm[i] + 1) for i in range(n)])


@pytest.mark.parametrize("make", [ST.so3, lambda: ST.action_algebroid("x1"),
                                  lambda: ST.leibniz_family(random.Random(3))],
                         ids=["so3", "action x1", "leibniz_family"])
def test_lie_layout_iso_is_the_block_permutation(make):
    A = make()
    iso, inverse = NV.shift_iso(A, WW), NV.shift_iso_inverse(A, WW)
    assert_same_map(iso, reference_lie_layout_iso(A))
    assert_same_map(inverse, reference_inverse(reference_lie_layout_iso(A)))
    assert compose_maps(iso, inverse) == PolyMap.identity(iso.src_dim)


# -- evaluation and printing against exponent tuples -------------------------------


def reference_eval(p: Polynomial, values) -> Fraction:
    total = Fraction(0)
    for mono, coeff in p.monomials():
        term = Fraction(coeff)
        for v, e in zip(values, mono):
            term *= Fraction(v) ** e
        total += term
    return total


def reference_str(p: Polynomial) -> str:
    """The printer over full exponent tuples: graded, then larger exponents
    of earlier variables first."""
    if p.is_zero():
        return "0"
    terms = sorted(p.monomials(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))
    parts = []
    for mono, coeff in terms:
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e]
        mag = abs(coeff)
        chunk = str(mag) if not factors else ("*".join(factors) if mag == 1
                                               else f"{mag}*{'*'.join(factors)}")
        parts.append(("- " if coeff < 0 else "+ ") + chunk)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


@st.composite
def sparse_polynomials(draw, max_vars: int = 70):
    """Few terms over many variables, with int and Fraction coefficients."""
    n = draw(st.integers(0, max_vars))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []:
            mono[i] += draw(st.integers(1, 3))
        terms[tuple(mono)] = draw(st.one_of(st.integers(-5, 5), table_coefficients))
    return Polynomial(n, terms)


@given(p=sparse_polynomials(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_eval_matches_the_exponent_tuple_formula(p, data):
    values = data.draw(st.lists(st.one_of(st.integers(-4, 4), table_coefficients),
                                min_size=p.n_vars, max_size=p.n_vars))
    got = p.eval(values)
    assert type(got) is Fraction and got == reference_eval(p, values)
    assert PolyMap(p.n_vars, 2, [p, -p]).eval(iter(values)) == [got, -got]


def test_eval_converts_the_values_it_uses():
    p = Polynomial(3, {(2, 0, 0): 1, (0, 0, 1): Fraction(1, 2)})
    assert p.eval([0.5, "not a number", "2/3"]) == Fraction(1, 4) + Fraction(1, 3)
    with pytest.raises(PolyError, match="need 3 values"):
        p.eval([1, 2])


@given(p=sparse_polynomials())
@settings(max_examples=300, deadline=None)
def test_printer_matches_the_exponent_tuple_printer(p):
    assert str(p) == reference_str(p)


# -- differential and the seeded generators: their earlier formulas -------------


@st.composite
def small_maps(draw):
    """Maps of dimension 0-3 and total degree at most 3, with Fraction
    coefficients; a component with no terms (or only zero ones) is 0."""
    src, tgt = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    comps = []
    for _ in range(tgt):
        terms = {}
        for _ in range(draw(st.integers(0, 4))):
            mono = [0] * src
            for i in draw(st.lists(st.integers(0, src - 1), max_size=3)) if src else []:
                mono[i] += 1
            terms[tuple(mono)] = draw(table_coefficients)
        comps.append(Polynomial(src, terms))
    return PolyMap(src, tgt, comps)


def reference_differential(f: PolyMap) -> PolyMap:
    """D[f]_c = Σ_j (∂_j c)(x_1..x_n) · v_j, one substitution per partial."""
    n, two_n = f.src_dim, 2 * f.src_dim
    xs = [Polynomial.var(two_n, i + 1) for i in range(n)]
    comps = []
    for c in f.components:
        acc = Polynomial.zero(two_n)
        for j in range(n):
            acc = acc + c.partial(j + 1).substitute(xs) * Polynomial.var(two_n, n + j + 1)
        comps.append(acc)
    return PolyMap(two_n, f.tgt_dim, comps)


@given(f=small_maps())
@settings(max_examples=200, deadline=None)
def test_differential_is_the_tangent_block_of_tangent_n(f):
    block = tangent_n(f, 1).components[f.tgt_dim:]
    assert_same_map(differential(f), PolyMap(2 * f.src_dim, f.tgt_dim, list(block)))


@given(f=small_maps())
@settings(max_examples=200, deadline=None)
def test_differential_matches_the_per_variable_formula(f):
    assert_same_map(differential(f), reference_differential(f))


def reference_random_polynomial(rng, n_vars, degree, coeff_range=(-3, 3), n_terms=4):
    """The generator as first written: one polynomial per term, summed."""
    p = Polynomial.zero(n_vars)
    for _ in range(n_terms):
        mono = [0] * n_vars
        for _ in range(rng.randint(0, degree)):
            if n_vars:
                mono[rng.randrange(n_vars)] += 1
        c = rng.randint(*coeff_range)
        if c:
            p = p + Polynomial(n_vars, {tuple(mono): c})
    return p


COEFF_RANGES = [(-3, 3), (-1, 1), (0, 0), (1, 2), (-5, -5)]


@given(seed=st.integers(0, 2 ** 32), n_vars=st.integers(0, 3), degree=st.integers(0, 4),
       coeff_range=st.sampled_from(COEFF_RANGES), n_terms=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_random_polynomial_matches_the_reference_generator(seed, n_vars, degree,
                                                           coeff_range, n_terms):
    rng, ref = random.Random(seed), random.Random(seed)
    got = random_polynomial(rng, n_vars, degree, coeff_range, n_terms)
    expected = reference_random_polynomial(ref, n_vars, degree, coeff_range, n_terms)
    assert got == expected and str(got) == str(expected)
    assert rng.getstate() == ref.getstate()


@given(seed=st.integers(0, 2 ** 32), src=st.integers(0, 3), tgt=st.integers(0, 3),
       degree=st.integers(0, 3), coeff_range=st.sampled_from(COEFF_RANGES))
@settings(max_examples=150, deadline=None)
def test_random_map_matches_the_reference_generator(seed, src, tgt, degree, coeff_range):
    rng, ref = random.Random(seed), random.Random(seed)
    got = random_map(rng, src, tgt, degree, coeff_range)
    expected = PolyMap(src, tgt, [reference_random_polynomial(ref, src, degree, coeff_range)
                                  for _ in range(tgt)])
    assert_same_map(got, expected)
    assert rng.getstate() == ref.getstate()


def randrange_terms(rng, n_vars, degree, coeff_range, n_terms):
    """The draws of `random_polynomial` made through `rng.randrange`, as
    {exponent tuple: coefficient}; a term past MAX_EXPONENT raises PolyError
    when `Polynomial` packs it."""
    low, high = coeff_range
    terms = {}
    for _ in range(n_terms):
        mono = [0] * n_vars
        for _ in range(rng.randrange(degree + 1)):
            if n_vars:
                mono[rng.randrange(n_vars)] += 1
        c = rng.randrange(low, high + 1)
        if c:
            Polynomial(n_vars, {tuple(mono): c})
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + c
    return {mono: c for mono, c in terms.items() if c}


DRAW_RANGES = st.tuples(st.integers(-9, 9), st.integers(0, 9)).map(
    lambda lw: (lw[0], lw[0] + lw[1]))


@given(seed=st.integers(0, 2 ** 64), n_vars=st.integers(0, 8), degree=st.integers(0, 6),
       coeff_range=st.one_of(DRAW_RANGES, st.sampled_from([(0, 0), (-4, -4), (-7, -1)])),
       n_terms=st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_random_polynomial_draws_what_randrange_draws(seed, n_vars, degree, coeff_range,
                                                      n_terms):
    rng, ref = random.Random(seed), random.Random(seed)
    got = random_polynomial(rng, n_vars, degree, coeff_range, n_terms)
    assert dict(got.monomials()) == randrange_terms(ref, n_vars, degree, coeff_range, n_terms)
    assert rng.getstate() == ref.getstate()


@given(seed=st.integers(0, 2 ** 32), n_vars=st.integers(1, 2),
       degree=st.sampled_from([MAX_EXPONENT + 1, 2 * MAX_EXPONENT]))
@settings(max_examples=12, deadline=None)
def test_random_polynomial_past_the_exponent_limit_raises_as_randrange_does(seed, n_vars,
                                                                            degree):
    rng, ref = random.Random(seed), random.Random(seed)
    args = (n_vars, degree, (-1, 1), 2)
    got = draw_or_raise(lambda r, *a: dict(random_polynomial(r, *a).monomials()), rng, *args)
    assert got == draw_or_raise(randrange_terms, ref, *args)
    assert rng.getstate() == ref.getstate()


def draw_or_raise(generate, rng, *args):
    try:
        return generate(rng, *args)
    except PolyError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_random_polynomial_raises_where_the_reference_does(seed):
    # Half the terms have more than MAX_EXPONENT degree units on x1, and a
    # third of the coefficients are 0, which skips the term without an error.
    args = (1, 2 * MAX_EXPONENT, (-1, 1), 3)
    rng, ref = random.Random(seed), random.Random(seed)
    got = draw_or_raise(random_polynomial, rng, *args)
    assert got == draw_or_raise(reference_random_polynomial, ref, *args)
    assert rng.getstate() == ref.getstate()


class ScriptedRandom(random.Random):
    """Answers `getrandbits` from a script, checking each answer fits its bits.

    Both generators draw below n through getrandbits(n.bit_length()) until
    the bits are less than n, so a scripted value v < n is one draw:
    `randrange(n)` is v, and `randrange(a, b)` is a + v.
    """

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def getrandbits(self, k):
        value = self.script.pop(0)
        assert 0 <= value < 1 << k
        return value


@pytest.mark.parametrize("n_vars, exponent", [(1, MAX_EXPONENT + 1), (1, 2 ** 16),
                                              (2, 2 ** 16), (2, 2 ** 16 + 5)])
def test_random_polynomial_rejects_an_exponent_that_carries(n_vars, exponent):
    # One term whose degree units all land on x1: at 2^16 a packed field
    # wraps to 0 and carries into the next one.  The last draw, 4, is the
    # coefficient -3 + 4 = 1.
    script = [exponent] + [0] * exponent + [4]
    for generate in (random_polynomial, reference_random_polynomial):
        rng = ScriptedRandom(script)
        with pytest.raises(PolyError, match="exceeds the limit"):
            generate(rng, n_vars, exponent, (-3, 3), 1)
        assert rng.script == []
    rng = ScriptedRandom([MAX_EXPONENT] + [0] * MAX_EXPONENT + [4])
    assert random_polynomial(rng, n_vars, MAX_EXPONENT, (-3, 3), 1) == \
        Polynomial(n_vars, {(MAX_EXPONENT,) + (0,) * (n_vars - 1): 1})
    assert rng.script == []


# -- CD.2: the random companions the generic check replaced ----------------------


def cd2_companions(sample: list[PolyMap], seed: int) -> list[tuple[PolyMap, ...]]:
    """The random degree-2 maps a, h, k: Q^n -> Q^n drawn for each map."""
    rng = random.Random(seed)
    return [tuple(random_map(rng, f.src_dim, f.src_dim, 2) for _ in range(3)) for f in sample]


def reference_cd2(sample: list[PolyMap], seed: int, derive=differential) -> CheckReport:
    """CD.2 on the companions a, h, k of each map: D[f]∘⟨a, h+k⟩ =
    D[f]∘⟨a, h⟩ + D[f]∘⟨a, k⟩ and D[f]∘⟨a, 0⟩ = 0, with `derive` for D."""
    report = CheckReport("CD.2 on random companions")
    for idx, (f, (a, h, k)) in enumerate(zip(sample, cd2_companions(sample, seed))):
        n = f.src_dim
        df = derive(f)
        report.equal(f"CD.2 additive direction [map#{idx}]",
                     compose_maps(df, PolyMap.pairing([a, h + k])),
                     compose_maps(df, PolyMap.pairing([a, h]))
                     + compose_maps(df, PolyMap.pairing([a, k])))
        report.check(f"CD.2 zero direction [map#{idx}]",
                     compose_maps(df, PolyMap.pairing([a, PolyMap.zero(n, n)])))
    return report


def ac3_maps(count: int = 300, seed: int = 24) -> list[PolyMap]:
    """Maps drawn as AC3 draws them: dimensions 1-3, degree 3."""
    rng = random.Random(seed)
    return [random_map(rng, rng.randint(1, 3), rng.randint(1, 3), 3) for _ in range(count)]


def cd2_verdicts(report: CheckReport) -> dict[str, bool]:
    return {v.name: v.passed for v in report.verdicts if v.name.startswith("CD.2")}


def direction_square(n: int, tgt: int) -> PolyMap:
    """e(x, v) = v₁² in every component, plus v₁v₂ where n ≥ 2."""
    text = f"x{n + 1}^2" + (f" + x{n + 1}*x{n + 2}" if n >= 2 else "")
    return PolyMap.from_strings(2 * n, [text] * tgt)


def constant_one(n: int, tgt: int) -> PolyMap:
    return PolyMap.constant(2 * n, [1] * tgt)


def first_point_coordinate(n: int, tgt: int) -> PolyMap:
    """e(x, v) = x₁: zero at the origin, but not along the zero direction."""
    return PolyMap.selection(2 * n, [0] * tgt)


def test_generic_cd2_and_random_companions_pass_on_ac3_maps():
    sample = ac3_maps()
    assert {f.src_dim for f in sample} == {1, 2, 3}
    generic = cd2_verdicts(check_cdc_axioms(sample, seed=25))
    reference = cd2_verdicts(reference_cd2(sample, seed=25))
    assert len(generic) == len(reference) == 2 * len(sample)
    assert all(generic.values()) and all(reference.values())


@pytest.mark.parametrize("term, verdict, most_hidden", [
    (direction_square, "CD.2 additive direction", 3),
    (constant_one, "CD.2 zero direction", 0),
    (first_point_coordinate, "CD.2 zero direction", 3),
])
def test_a_term_added_to_the_differential_fails_cd2(monkeypatch, term, verdict, most_hidden):
    sample = ac3_maps()

    def broken(g: PolyMap) -> PolyMap:
        return differential(g) + term(g.src_dim, g.tgt_dim)

    reference = cd2_verdicts(reference_cd2(sample, 25, broken))
    monkeypatch.setattr("tancat.poly.differential", broken)
    generic = cd2_verdicts(check_cdc_axioms(sample, seed=25))
    names = [f"{verdict} [map#{idx}]" for idx in range(len(sample))]
    assert not any(generic[name] for name in names)
    # The random form sees the term e only at the drawn companions, and both
    # sides of CD.2 are linear in D, so it passes D + e exactly where it
    # passes e alone: where the companions hide e (h = 0 on one map of this
    # sample hides v₁²).  The generic form has no such blind spot.
    hidden = cd2_verdicts(reference_cd2(sample, 25, lambda g: term(g.src_dim, g.tgt_dim)))
    assert [reference[name] for name in names] == [hidden[name] for name in names]
    assert sum(hidden[name] for name in names) <= most_hidden


# -- the W1 vocabulary: the tables the terms kept before reading `weil` ----------


def reference_gen_boundary(kind: str, algebra=None, i=None, n=None) -> tuple:
    """(source, target) of a generator, from the table `Gen` kept."""
    boundaries = {
        "p": (W, weil.NAT),
        "zero": (weil.NAT, W),
        "plus": (W2, W),
        "ell": (W, WW),
        "flip": (WW, WW),
    }
    if kind in boundaries:
        return boundaries[kind]
    if kind == "bang":
        return algebra, weil.NAT
    if kind == "id":
        return algebra, algebra
    if kind == "proj":
        return WeilAlgebra((n,)), W
    raise ValueError(kind)


def reference_symbol(gen: wterm.Gen) -> str:
    """A generator as `print_term` wrote it by its own branches."""
    if gen.kind == "bang":
        return f"!{{{gen.algebra}}}"
    if gen.kind == "id":
        return f"id{{{gen.algebra}}}"
    if gen.kind == "proj":
        return f"proj{{{gen.i},{gen.n}}}"
    return {"p": "p", "zero": "0", "plus": "+", "ell": "l", "flip": "c"}[gen.kind]


def reference_gen_images(kind: str, algebra=None, i=None, n=None) -> list:
    """The images of a generator's source variables, written out per kind."""
    x, y = (weil.WeilElement.variable(WW, f, 1) for f in (0, 1))
    on_w = weil.WeilElement.variable(W, 0, 1)
    if kind in ("p", "bang"):
        source = W if kind == "p" else algebra
        return [weil.WeilElement.zero(weil.NAT)] * len(source.generators())
    if kind == "id":
        return [weil.WeilElement.variable(algebra, f, j) for f, j in algebra.generators()]
    if kind == "proj":
        return [on_w if j == i else weil.WeilElement.zero(W) for j in range(1, n + 1)]
    return {"zero": [], "plus": [on_w, on_w], "ell": [x * y], "flip": [y, x]}[kind]


def vocabulary_generators() -> list[tuple]:
    """(kind, algebra, i, n) for each kind: `!{V}` and `id{V}` for V in N, W,
    W2 and W*W, and `proj{i,n}` for n ≤ 3."""
    gens = [(kind, None, None, None) for kind in ("p", "zero", "plus", "ell", "flip")]
    gens += [(kind, V, None, None) for kind in ("bang", "id")
             for V in (weil.NAT, W, W2, WW)]
    gens += [("proj", None, i, n) for n in (1, 2, 3) for i in range(1, n + 1)]
    return gens


@pytest.mark.parametrize("kind, algebra, i, n", vocabulary_generators())
def test_generators_match_the_boundary_table_and_their_images(kind, algebra, i, n):
    gen = wterm.Gen(kind, algebra, i, n)
    source, target = reference_gen_boundary(kind, algebra, i, n)
    assert (gen.source, gen.target) == (source, target)
    expected = weil.WeilMorphism(source, target, reference_gen_images(kind, algebra, i, n))
    assert wterm.eval_weil(gen) == expected
    assert wterm.eval_weil(gen).matrix() == expected.matrix()


@pytest.mark.parametrize("kind, algebra, i, n", vocabulary_generators())
def test_every_symbol_round_trips_through_the_parser_and_the_printer(kind, algebra, i, n):
    gen = wterm.Gen(kind, algebra, i, n)
    text = reference_symbol(gen)
    assert wterm.print_term(gen) == text
    parsed = wterm.parse_term(text)
    assert parsed == gen and wterm.eval_weil(parsed) == wterm.eval_weil(gen)


def test_the_symbol_table_names_every_kind_once():
    kinds = {kind for kind, *_ in vocabulary_generators()}
    assert sorted(wterm.SYMBOLS.values()) == sorted(kinds - {"proj"})
    for symbol, kind in wterm.SYMBOLS.items():
        algebra = W if kind in wterm.ANNOTATED else None
        assert reference_symbol(wterm.Gen(kind, algebra)).startswith(symbol)


def reference_fibered_sum(V: WeilAlgebra, U: WeilAlgebra) -> WeilAlgebra:
    """W_{n+m} by the formula `Pair`, `fibered_pair` and the nerve each wrote."""
    n = V.widths[0] if V.widths else 0
    m = U.widths[0] if U.widths else 0
    return WeilAlgebra((n + m,)) if n + m else weil.NAT


@pytest.mark.parametrize("V, U, expected", [
    (weil.NAT, weil.NAT, weil.NAT),
    (W, weil.NAT, W),
    (weil.NAT, W, W),
    (W2, W, WeilAlgebra((3,))),
])
def test_fibered_sum_adds_the_widths(V, U, expected):
    assert weil.fibered_sum(V, U) == reference_fibered_sum(V, U) == expected


@pytest.mark.parametrize("V, U", [(WW, W), (W, WW), (weil.NAT, WW)])
def test_fibered_sum_refuses_a_target_of_two_factors(V, U):
    with pytest.raises(weil.WeilError, match=r"pairing needs targets of the form W_n, got W\*W"):
        weil.fibered_sum(V, U)


def test_pairings_into_two_factors_are_refused_with_one_message():
    ell = weil.generator("ell")
    with pytest.raises(weil.WeilError, match=r"got W\*W"):
        weil.fibered_pair(ell, ell)
    with pytest.raises(wterm.WTermError) as info:
        wterm.parse_term("<l, p>")
    assert str(info.value) == "pairing needs targets of the form W_n, got W*W"


def test_fibered_sum_is_the_target_of_every_pairing():
    """Out of W: p, id and <id, id> (targets N, W and W2), paired both ways,
    as W1 morphisms, as terms and in the nerve."""
    texts = ("p", "id{W}", "<id{W}, id{W}>")
    model = NV.NerveModel(AL.tangent_algebroid(1))
    for left, right in itertools.product(texts, repeat=2):
        f, g = wterm.parse_term(left), wterm.parse_term(right)
        target = weil.fibered_sum(f.target, g.target)
        assert target == reference_fibered_sum(f.target, g.target)
        assert weil.fibered_pair(wterm.eval_weil(f), wterm.eval_weil(g)).target == target
        pair = wterm.Pair(f, g)
        assert pair.target == wterm.eval_weil(pair).target == target
        image = wterm.eval_model(pair, model)
        assert image.tgt_dim == NV.nerve_object(model.A, target).dim
