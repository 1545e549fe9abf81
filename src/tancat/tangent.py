"""The tangent structure on the polynomial model.

`weil_prolong(V, f)` is the action of a Weil algebra on a polynomial map.
The tangent functor generates it: T_{W_n} f (x; v_1..v_n) = (f(x);
Df(x)·v_1, ..., Df(x)·v_n), the tangent structure of a Cartesian
differential category (Cockett & Cruttwell, "Differential structure,
tangent structure, and SDG", 2014), and T^V for V = W_{n_1} ⊗ ... ⊗ W_{n_k}
is the fold T_{n_1} ∘ ... ∘ T_{n_k}.  `poly.tangent_n` builds each T_n in
one pass over f's packed keys.  Flat coordinates of T^V(Q^n) are one block
of n coordinates per basis monomial of V, in the canonical basis order (unit
block first), which makes the action strict: T^{U⊗V} = T^U ∘ T^V on the
nose.

`structure_nat(phi, n)` is the linear coordinate relabeling T^V(Q^n) ->
T^U(Q^n) induced by a rig morphism phi: V -> U, the Kronecker product
M ⊗ I_n of phi's matrix M with the identity, built once with
`PolyMap.linear`; the tangent-category structure maps are its values on the
five generators, `generator_nat(kind, n)`.  Terms are evaluated in this model as
`structure_nat(wterm.eval_weil(t), n)`.  `flatspace.tensor_action` applies
the same matrix to blocks of coordinates directly, without this map.
"""

from __future__ import annotations

from . import linalg, weil
from .poly import PolyMap, compose_maps, tangent_n
from .report import CheckReport
from .weil import W, W2, WW, WeilAlgebra, WeilMorphism


def weil_prolong(V: WeilAlgebra, f: PolyMap) -> PolyMap:
    """T^V f, the fold of T_{n_k}, ..., T_{n_1} over V = W_{n_1} ⊗ ... ⊗ W_{n_k}."""
    for width in reversed(V.widths):
        f = tangent_n(f, width)
    return f


def structure_nat(phi: WeilMorphism, n: int) -> PolyMap:
    """phi.n : T^V(Q^n) -> T^U(Q^n), the Kronecker product M ⊗ I_n of phi's matrix."""
    # rows[k]: the coefficients of target coordinate k in the source coordinates.
    rows: list[dict[int, int]] = [{} for _ in range(n * phi.target.dim)]
    for j, column in enumerate(phi.columns):
        for k, c in column:
            for i in range(n):
                rows[k * n + i][j * n + i] = c
    return PolyMap.linear(n * phi.source.dim, rows)


def generator_nat(kind: str, n: int, **kwargs) -> PolyMap:
    """Component at Q^n of the transformation induced by a generator.

    This is the one helper for a generator's structure map (p, 0, +, ℓ, c
    and the projections); callers do not wrap it per generator.
    """
    return structure_nat(weil.generator(kind, **kwargs), n)


def interleaving_iso(V: WeilAlgebra, n1: int, n2: int) -> PolyMap:
    """T^V(Q^n1) x T^V(Q^n2) -> T^V(Q^(n1+n2)), the block interleaving."""
    D = V.dim
    return PolyMap.selection((n1 + n2) * D, [
        pos * n1 + i if i < n1 else n1 * D + pos * n2 + i - n1
        for pos in range(D) for i in range(n1 + n2)])


# -- exact pullback certification ---------------------------------------------


def certify_linear_pullback(comparison: PolyMap, constraints: PolyMap,
                            report: CheckReport, name: str) -> None:
    """Certify that an affine-linear `comparison` is an isomorphism onto the
    affine subspace {z : constraints(z) = 0}.

    Adds three verdicts: image lies in the subspace, the comparison is
    injective (trivial kernel), and an explicitly constructed retraction
    inverts it on the subspace.
    """
    inside = compose_maps(constraints, comparison)
    report.check(f"{name}: image satisfies the constraints", inside)

    matrix, offset = comparison.linear_part()
    if any(offset):
        # Affine offsets are handled by translating; all current uses are linear.
        report.add(f"{name}: comparison is linear", False,
                   f"unexpected affine offset {offset}")
        return
    kernel = linalg.nullspace(matrix)
    report.add(f"{name}: comparison is injective", not kernel,
               None if not kernel else f"kernel vector {kernel[0]}")
    if kernel:
        return

    cons_matrix, cons_offset = constraints.linear_part()
    if any(cons_offset):
        report.add(f"{name}: constraints are linear", False,
                   f"unexpected affine offset {cons_offset}")
        return
    sub_dim = comparison.tgt_dim - linalg.rank(cons_matrix)
    if sub_dim != comparison.src_dim:
        report.add(f"{name}: dimensions match", False,
                   f"subspace dimension {sub_dim} vs source {comparison.src_dim}")
        return

    left = linalg.left_inverse(matrix)
    if left is None:
        report.add(f"{name}: retraction exists", False, "no left inverse")
        return
    retraction = PolyMap.linear(comparison.tgt_dim,
                                [{j: c for j, c in enumerate(row) if c} for row in left])
    report.equal(f"{name}: retraction inverts on the source",
                 compose_maps(retraction, comparison), PolyMap.identity(comparison.src_dim))
    # On the subspace the other round trip must be the identity: check on a
    # basis of the subspace, exactly.
    basis = linalg.nullspace(cons_matrix)
    section = compose_maps(comparison, retraction)
    ok = True
    witness = None
    for vec in basis:
        image = section.eval(vec)
        if image != vec:
            ok = False
            witness = f"subspace vector {vec} maps to {image}"
            break
    report.add(f"{name}: retraction inverts on the subspace", ok, witness)


# -- tangent axiom checks ------------------------------------------------------


def check_tangent_axioms(n: int, sample: list[PolyMap] | None = None,
                         universality_depth: int = 1) -> CheckReport:
    """TC.1-TC.3 at the object Q^n, as exact PolyMap identities.

    TC.3(iv) universality is certified constructively (see
    `certify_linear_pullback`), at the object and at `universality_depth`
    further tangent prolongations.
    """
    report = CheckReport(f"tangent axioms at Q^{n}")
    idw = weil.identity_morphism(W)
    p, z, plus, ell, c = (weil.generator(k) for k in ("p", "zero", "plus", "ell", "flip"))
    proj1 = weil.generator("proj", i=1, n=2)
    proj2 = weil.generator("proj", i=2, n=2)

    def nat(phi: WeilMorphism) -> PolyMap:
        return structure_nat(phi, n)

    eq = report.equal

    # TC.1: additive bundle structure on p.
    eq("TC.1 p∘0 = id", compose_maps(nat(p), nat(z)), PolyMap.identity(n))
    eq("TC.1 p∘+ = p∘proj1", compose_maps(nat(p), nat(plus)),
       compose_maps(nat(p), nat(proj1)))
    zero_section = weil.compose_morphisms(z, p)           # W -> W through N
    unit_left = weil.compose_morphisms(plus, weil.fibered_pair(zero_section, idw))
    eq("TC.1 left unit", nat(unit_left), PolyMap.identity(n * W.dim))
    eq("TC.1 commutativity", nat(weil.compose_morphisms(plus, weil.fibered_pair(proj2, proj1))),
       nat(plus))
    w3 = WeilAlgebra((3,))
    pr = [weil.generator("proj", i=i, n=3) for i in (1, 2, 3)]
    add12 = weil.compose_morphisms(plus, weil.fibered_pair(pr[0], pr[1]))
    add23 = weil.compose_morphisms(plus, weil.fibered_pair(pr[1], pr[2]))
    assoc_l = weil.compose_morphisms(plus, weil.fibered_pair(add12, pr[2]))
    assoc_r = weil.compose_morphisms(plus, weil.fibered_pair(pr[0], add23))
    eq("TC.1 associativity", nat(assoc_l), nat(assoc_r))

    # TC.2: symmetry axioms.
    eq("TC.2 involution c∘c = id", compose_maps(nat(c), nat(c)),
       PolyMap.identity(n * WW.dim))
    cW = weil.tensor_morphisms(c, idw)
    Wc = weil.tensor_morphisms(idw, c)
    yb_l = compose_maps(nat(cW), compose_maps(nat(Wc), nat(cW)))
    yb_r = compose_maps(nat(Wc), compose_maps(nat(cW), nat(Wc)))
    eq("TC.2 Yang-Baxter", yb_l, yb_r)
    eq("TC.2 naturality p.T∘c = T.p",
       compose_maps(nat(weil.tensor_morphisms(p, idw)), nat(c)),
       nat(weil.tensor_morphisms(idw, p)))
    eq("TC.2 naturality c∘T.0 = 0.T",
       compose_maps(nat(c), nat(weil.tensor_morphisms(idw, z))),
       nat(weil.tensor_morphisms(z, idw)))
    # c∘T.+ = +.T∘(interchange of T(T2) and T2(T) coordinates)
    t_plus = weil.tensor_morphisms(idw, plus)             # W⊗W2 -> W⊗W
    plus_t = weil.tensor_morphisms(plus, idw)             # W2⊗W -> W⊗W
    interchange = _interchange_w_w2()
    eq("TC.2 naturality c∘T.+ = +.T∘interchange",
       compose_maps(nat(c), nat(t_plus)),
       compose_maps(nat(plus_t), nat(interchange)))

    # TC.3: lift axioms.
    ell_zero = weil.compose_morphisms(ell, z)
    eq("TC.3 ℓ∘0 = T.0∘0", nat(ell_zero),
       nat(weil.compose_morphisms(weil.tensor_morphisms(idw, z), z)))
    lift_pair = _lift_pair_w2()                          # W2 -> W⊗W2, y_i -> x·y_i
    eq("TC.3 ℓ∘+ = T.+∘(ℓ×ℓ)", nat(weil.compose_morphisms(ell, plus)),
       compose_maps(nat(t_plus), nat(lift_pair)))
    eq("TC.3 p.T∘ℓ = 0∘p",
       compose_maps(nat(weil.tensor_morphisms(p, idw)), nat(ell)),
       nat(weil.compose_morphisms(z, p)))
    eq("TC.3 T.p∘ℓ = 0∘p",
       compose_maps(nat(weil.tensor_morphisms(idw, p)), nat(ell)),
       nat(weil.compose_morphisms(z, p)))
    eq("TC.3 coassociativity",
       compose_maps(nat(weil.tensor_morphisms(ell, idw)), nat(ell)),
       compose_maps(nat(weil.tensor_morphisms(idw, ell)), nat(ell)))
    eq("TC.3 c∘ℓ = ℓ", compose_maps(nat(c), nat(ell)), nat(ell))

    # TC.3(iv): universality of the lift, constructively.
    space = n
    for depth in range(universality_depth + 1):
        V = WeilAlgebra((1,) * depth)
        obj = n * V.dim
        mu = structure_nat(weil.mu_morphism(), obj)
        tp = structure_nat(weil.tensor_morphisms(idw, p), obj)
        base_proj = PolyMap.projection(obj * W2.dim, 0, obj)
        comparison = PolyMap.pairing([mu, base_proj])
        zero_of_base = structure_nat(z, obj)
        # Constraint: T.p(zeta) - 0(m) = 0 on T²(Q^obj) x Q^obj.
        zeta = PolyMap.projection(obj * WW.dim + obj, 0, obj * WW.dim)
        mm = PolyMap.projection(obj * WW.dim + obj, obj * WW.dim, obj)
        constraints = compose_maps(tp, zeta) - compose_maps(zero_of_base, mm)
        certify_linear_pullback(comparison, constraints, report,
                                f"TC.3(iv) universality at T^{depth}(Q^{n})")

    # The additive bundle laws and naturality against arbitrary maps.
    if sample:
        for idx, f in enumerate(sample):
            rep = check_naturality(p, f)
            report.merge(rep, prefix=f"sample#{idx} ")
    return report


def _interchange_w_w2() -> WeilMorphism:
    """The symmetry W⊗W2 ≅ W2⊗W as a Weil morphism."""
    src = W.tensor(W2)
    tgt = W2.tensor(W)
    images = [
        weil.WeilElement(tgt, {(0, 1): 1}),   # x -> x (the W factor, now second)
        weil.WeilElement(tgt, {(1, 0): 1}),   # y1 -> y1 (W2 factor, now first)
        weil.WeilElement(tgt, {(2, 0): 1}),   # y2 -> y2
    ]
    return WeilMorphism(src, tgt, images)


def _lift_pair_w2() -> WeilMorphism:
    """(ℓ×ℓ) as the morphism W2 -> W⊗W2, y_i -> x·y_i."""
    src = W2
    tgt = W.tensor(W2)
    return WeilMorphism(src, tgt, [
        weil.WeilElement(tgt, {(1, 1): 1}),
        weil.WeilElement(tgt, {(1, 2): 1}),
    ])


def check_naturality(phi: WeilMorphism, f: PolyMap) -> CheckReport:
    """phi.m ∘ T^V f = T^U f ∘ phi.n, plus strictness of the action on f."""
    report = CheckReport(f"naturality of {phi.source}->{phi.target} against {f}")
    V, U = phi.source, phi.target
    lhs = compose_maps(structure_nat(phi, f.tgt_dim), weil_prolong(V, f))
    rhs = compose_maps(weil_prolong(U, f), structure_nat(phi, f.src_dim))
    report.equal("naturality square", lhs, rhs, lambda: f"phi={phi}")
    report.equal(
        "strictness T^{U⊗V}f = T^U(T^V f)",
        weil_prolong(U.tensor(V), f), weil_prolong(U, weil_prolong(V, f)),
        lambda: f"U={U}, V={V}")
    return report


def check_square_preservation(square: weil.TransverseSquare, n: int) -> CheckReport:
    """The action at Q^n sends a transverse square to an exact pullback."""
    report = CheckReport(f"transverse square {square.provenance} at Q^{n}")
    left = structure_nat(square.left_leg, n)
    right = structure_nat(square.right_leg, n)
    lbase = structure_nat(square.left_base, n)
    rbase = structure_nat(square.right_base, n)
    report.equal("image square commutes",
                 compose_maps(lbase, left), compose_maps(rbase, right))
    comparison = PolyMap.pairing([left, right])
    total = left.tgt_dim + right.tgt_dim
    cl = PolyMap.projection(total, 0, left.tgt_dim)
    cr = PolyMap.projection(total, left.tgt_dim, right.tgt_dim)
    constraints = compose_maps(lbase, cl) - compose_maps(rbase, cr)
    certify_linear_pullback(comparison, constraints, report, "pullback")
    return report


def check_product_preservation(V: WeilAlgebra, f: PolyMap, g: PolyMap) -> CheckReport:
    """T^V(f x g) equals T^V f x T^V g through the explicit interleaving."""
    report = CheckReport(f"product preservation of T^{V}")
    src_iso = interleaving_iso(V, f.src_dim, g.src_dim)
    tgt_iso = interleaving_iso(V, f.tgt_dim, g.tgt_dim)
    lhs = compose_maps(weil_prolong(V, f.cross(g)), src_iso)
    rhs = compose_maps(tgt_iso, weil_prolong(V, f).cross(weil_prolong(V, g)))
    report.equal("interleaved equality", lhs, rhs)
    return report

