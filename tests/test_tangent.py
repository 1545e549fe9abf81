"""The tangent model: prolongation, structure naturals, axioms.

Independent oracle: T^V computed by iterating the differential combinator
(T f = (f∘base, D[f]) in block coordinates), factor by factor — a different
path from the one-pass nilpotent substitution in `weil_prolong`.
"""

import random

from tancat import tangent, weil
from tancat.poly import PolyMap, compose_maps, differential, random_map
from tancat.report import CheckReport
from tancat.tangent import (check_naturality, check_product_preservation,
                            check_square_preservation, check_tangent_axioms,
                            generator_nat, structure_nat, weil_prolong)
from tancat.weil import NAT, W, WW, WeilAlgebra


def iterate_tangent_once(f: PolyMap) -> PolyMap:
    """T f = (f(x), Df(x, v)) on block coordinates (x; v)."""
    n, m = f.src_dim, f.tgt_dim
    base = compose_maps(f, PolyMap.projection(2 * n, 0, n))
    fiber = differential(f)
    return PolyMap.pairing([base, fiber])


def iterate_tangent_width(n_width: int, f: PolyMap) -> PolyMap:
    """T_k f = (f(x), Df(x, v_1), ..., Df(x, v_k)) on (x; v_1; ...; v_k)."""
    n = f.src_dim
    total = (n_width + 1) * n
    x = PolyMap.projection(total, 0, n)
    parts = [compose_maps(f, x)]
    df = differential(f)
    for i in range(1, n_width + 1):
        v = PolyMap.projection(total, i * n, n)
        parts.append(compose_maps(df, PolyMap.pairing([x, v])))
    return PolyMap.pairing(parts)


def oracle_prolong(V: WeilAlgebra, f: PolyMap) -> PolyMap:
    """T^V f by iterating the per-factor tangent, outermost factor last."""
    out = f
    for width in reversed(V.widths):
        out = iterate_tangent_width(width, out)
    return out


def test_prolong_examples_frozen():
    f = PolyMap.from_strings(1, ["x1^2"])
    assert weil_prolong(W, f) == PolyMap.from_strings(2, ["x1^2", "2*x1*x2"])
    assert weil_prolong(WW, f) == PolyMap.from_strings(
        4, ["x1^2", "2*x1*x2", "2*x1*x3", "2*x1*x4 + 2*x2*x3"])
    assert weil_prolong(NAT, f) == f


def test_prolong_matches_iterated_differential_oracle():
    rng = random.Random(0)
    algebras = [W, WeilAlgebra((2,)), WW, WeilAlgebra((2, 1)),
                WeilAlgebra((1, 1, 1))]
    for _ in range(30):
        V = rng.choice(algebras)
        f = random_map(rng, rng.randint(1, 2), rng.randint(1, 2), 3)
        assert weil_prolong(V, f) == oracle_prolong(V, f)


def test_structure_nat_table():
    assert generator_nat("ell", 1) == PolyMap.from_strings(2, ["x1", "0", "0", "x2"])
    assert generator_nat("flip", 1) == PolyMap.from_strings(
        4, ["x1", "x3", "x2", "x4"])
    assert generator_nat("p", 1) == PolyMap.from_strings(2, ["x1"])
    assert generator_nat("plus", 1) == PolyMap.from_strings(3, ["x1", "x2 + x3"])
    assert generator_nat("zero", 1) == PolyMap.from_strings(1, ["x1", "0"])


def test_mu_comparison_map():
    mu = structure_nat(weil.mu_morphism(), 1)
    assert mu == PolyMap.from_strings(3, ["x1", "x2", "0", "x3"])


def test_mu_equals_its_defining_composite():
    """μ = T.+ ∘ (0∘π₀, ℓ∘π₁) assembled in the model at n = 1."""
    n = 1
    t2 = 3 * n                                   # T₂(Q^n) flat (m, u, v)
    pi0 = PolyMap.pairing([PolyMap.projection(t2, 0, n),
                           PolyMap.projection(t2, n, n)])
    pi1 = PolyMap.pairing([PolyMap.projection(t2, 0, n),
                           PolyMap.projection(t2, 2 * n, n)])
    a = compose_maps(generator_nat("zero", 2 * n), pi0)     # 0∘π₀ into T²
    b = compose_maps(generator_nat("ell", n), pi1)          # ℓ∘π₁ into T²
    # Pair into T(T₂): base (m, u_a, u_b), tangent (shared mdot, du_a, du_b).
    assert a.components[2] == b.components[2]               # shared T.p part
    into_tt2 = PolyMap.pairing([
        PolyMap(t2, 1, [a.components[0]]),
        PolyMap(t2, 1, [a.components[1]]),
        PolyMap(t2, 1, [b.components[1]]),
        PolyMap(t2, 1, [a.components[2]]),
        PolyMap(t2, 1, [a.components[3]]),
        PolyMap(t2, 1, [b.components[3]]),
    ])
    t_plus = weil_prolong(W, generator_nat("plus", n))
    assert compose_maps(t_plus, into_tt2) == structure_nat(weil.mu_morphism(), n)


def test_functoriality_sample():
    rng = random.Random(1)
    checked = 0
    for _ in range(50):
        mid = rng.randint(1, 2)
        f = random_map(rng, rng.randint(1, 2), mid, 2)
        g = random_map(rng, mid, rng.randint(1, 2), 2)
        V = rng.choice([W, WW, WeilAlgebra((2,))])
        assert weil_prolong(V, compose_maps(g, f)) == \
            compose_maps(weil_prolong(V, g), weil_prolong(V, f))
        assert weil_prolong(V, PolyMap.identity(f.src_dim)) == \
            PolyMap.identity(V.dim * f.src_dim)
        checked += 1
    assert checked == 50


def test_strictness():
    rng = random.Random(2)
    for _ in range(10):
        U = rng.choice([W, WeilAlgebra((2,))])
        V = rng.choice([W, WW])
        f = random_map(rng, 2, 1, 2)
        assert weil_prolong(U.tensor(V), f) == \
            weil_prolong(U, weil_prolong(V, f))


def test_axioms_at_small_objects():
    for n in (1, 2):
        report = check_tangent_axioms(n)
        assert report.passed, [v.name for v in report.verdicts if not v.passed]


def test_naturality_examples():
    f = PolyMap.from_strings(1, ["x1^2"])
    assert check_naturality(weil.generator("plus"), f).passed
    assert check_naturality(weil.generator("p"), f).passed
    assert check_naturality(weil.generator("ell"),
                            PolyMap.from_strings(1, ["x1^3"])).passed
    rng = random.Random(3)
    for phi in (weil.generator("flip"), weil.mu_morphism()):
        assert check_naturality(phi, random_map(rng, 2, 2, 2)).passed


def test_transverse_square_preservation_at_random_object():
    rng = random.Random(4)
    squares = [
        weil.transverse_square("fibered-sum", n=1, m=1),
        weil.transverse_square("fibered-sum", n=2, m=1),
        weil.transverse_square("vertical-lift"),
        weil.transverse_square("vertical-lift", whisker_left=W),
        weil.transverse_square("identity", algebra=WW),
    ]
    for sq in squares:
        n = rng.randint(1, 2)
        report = check_square_preservation(sq, n)
        assert report.passed, (sq.provenance,
                               [v.name for v in report.verdicts if not v.passed])


def test_product_preservation():
    rng = random.Random(5)
    for V in (W, WW):
        f = random_map(rng, 1, 2, 2)
        g = random_map(rng, 2, 1, 2)
        assert check_product_preservation(V, f, g).passed


def test_universality_comparison_invertible():
    report = check_tangent_axioms(1, universality_depth=2)
    names = [v.name for v in report.verdicts if "universality" in v.name]
    assert len(names) == 12  # four verdicts per depth 0..2
    assert report.passed


def test_a_comparison_into_q0_is_not_injective():
    report = CheckReport("into Q^0")
    tangent.certify_linear_pullback(PolyMap.zero(2, 0), PolyMap.zero(0, 0), report, "Q^2 -> Q^0")
    assert [(v.name, v.passed) for v in report.verdicts] == [
        ("Q^2 -> Q^0: image satisfies the constraints", True),
        ("Q^2 -> Q^0: comparison is injective", False),
    ]
    assert report.verdicts[1].witness == "kernel vector [Fraction(1, 1), Fraction(0, 1)]"
