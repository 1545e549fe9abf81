"""Involution algebroids: structure equations, involutions, sections.

Independent oracles: the brute-force Jacobi cyclic sum over index triples
(for constant brackets) and the coordinate bracket formula for sections.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tancat import algebroid as AL
from tancat import bundle as BD
from tancat.flatspace import prolongation
from tancat.poly import PolyMap, Polynomial, compose_maps, parse_poly, random_map
from tancat.weil import WW


def levi_civita():
    eps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for p in itertools.permutations(range(3)):
        sign = 1
        q = list(p)
        for i in range(3):
            for j in range(i + 1, 3):
                if q[i] > q[j]:
                    sign = -sign
        eps[p[0]][p[1]][p[2]] = sign
    return eps


def so3():
    return AL.make_algebroid(0, 3, [], levi_civita())


def brute_force_jacobi(constants) -> bool:
    """Cyclic-sum oracle over all index triples, for constant brackets."""
    r = len(constants)

    def bracket(u, v):
        out = [Fraction(0)] * r
        for a in range(r):
            for b in range(r):
                for g in range(r):
                    c = constants[a][b][g]
                    if c:
                        out[g] += Fraction(c) * u[a] * v[b]
        return out

    basis = [[Fraction(1 if t == i else 0) for t in range(r)] for i in range(r)]
    for i, j, k in itertools.product(range(r), repeat=3):
        x, y, z = basis[i], basis[j], basis[k]
        total = [Fraction(0)] * r
        for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
            inner = bracket(b, c)
            for g, val in enumerate(bracket(a, inner)):
                total[g] += val
        if any(total):
            return False
    return True


def bad_lie():
    """[e1,e2]=e1, [e1,e3]=e2, [e2,e3]=e1 antisymmetrized: Jacobi fails."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][0] = 1
    c[1][0][0] = -1
    c[0][2][1] = 1
    c[2][0][1] = -1
    c[1][2][0] = 1
    c[2][1][0] = -1
    return c


# -- construction and structure equations -----------------------------------------


def test_make_algebroid_shapes():
    with pytest.raises(ValueError, match="anchor"):
        AL.make_algebroid(2, 1, [["x1"]], [[["0"]]])
    with pytest.raises(ValueError, match="bracket"):
        AL.make_algebroid(1, 2, [["x1", "0"]], [[["0"]]])
    for entry in (None, True, ["x1"], {"x1": 1}, 0.5):
        with pytest.raises(ValueError, match="not a polynomial"):
            AL.make_algebroid(1, 1, [[entry]], [[["0"]]])
    assert AL.make_algebroid(0, 1, [], [[[Fraction(1, 2)]]]).bracket[0][0][0] == \
        AL.make_algebroid(0, 1, [], [[["1/2"]]]).bracket[0][0][0]


def test_tangent_algebroid_passes():
    report = AL.check_structure_equations(AL.tangent_algebroid(2))
    assert report.passed


def test_so3_jacobi_agrees_with_brute_force():
    assert brute_force_jacobi(levi_civita())
    report = AL.check_structure_equations(so3())
    assert report.passed
    assert not brute_force_jacobi(bad_lie())
    report = AL.check_structure_equations(AL.make_algebroid(0, 3, [], bad_lie()))
    verdicts = {v.name: v.passed for v in report.verdicts}
    assert verdicts == {"alternating": True, "Leibniz": True, "Bianchi": False}


def test_action_algebroid_leibniz():
    # rho = x, C = 0: Leibniz reads x·1 = 0 + x·1.
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    assert AL.check_structure_equations(act).passed


def _constant_bracket(r: int, entries: dict) -> list:
    c = [[[0] * r for _ in range(r)] for _ in range(r)]
    for (a, b, g), value in entries.items():
        c[a][b][g] = value
    return c


@pytest.mark.parametrize("d, r, rho, entries, name, witness", [
    # One unpaired entry fails the cells (0,1,0) and (1,0,0).
    (0, 2, [], {(0, 1, 0): 1}, "alternating", "C[0][1][0] + C[1][0][0] = 1"),
    # A constant anchor with two equal rows fails Leibniz in both rows.
    (2, 2, [[1, 0], [1, 0]], {(0, 1, 0): 1, (1, 0, 0): -1},
     "Leibniz", "Leibniz fails at i=0, α=0, β=1: difference -1"),
    # Every permutation of (0,1,2) fails Bianchi at ν = 0.
    (0, 3, [], {(0, 1, 2): 1, (1, 0, 2): -1, (1, 2, 0): 1, (2, 1, 0): -1,
                (0, 2, 2): 1, (2, 0, 2): -1},
     "Bianchi", "Bianchi fails at ν=0, (α,β,γ)=(0,1,2): -1"),
], ids=["alternating", "Leibniz", "Bianchi"])
def test_structure_equations_name_the_first_failing_cell(d, r, rho, entries, name, witness):
    """Each verdict stops at its first failing cell in loop order, so with two
    failing rows the witness names the first, not the last."""
    A = AL.make_algebroid(d, r, rho, _constant_bracket(r, entries))
    failing = {v.name: v.witness for v in AL.check_structure_equations(A).verdicts
               if not v.passed}
    assert failing == {name: witness}


# -- prolongation spaces ------------------------------------------------------------


def test_prolongation_dimensions():
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    assert prolongation(act.shape, WW).dim == 1 + 3 * 1
    assert prolongation(act.shape, AL.L2_ALGEBRA).dim == 1 + 7 * 1
    TA = AL.tangent_algebroid(1)
    assert prolongation(TA.shape, WW).dim == 4   # L(TM) ≅ T²M


def test_shape_is_built_once_per_algebroid():
    A = AL.make_algebroid(1, 2, [["x1", "1"]], [[["0"] * 2] * 2] * 2)
    assert A.shape is A.shape


def test_malformed_anchor_raises_on_first_use_of_the_shape():
    one = Polynomial.const(1, 1)
    zero = [[[Polynomial.zero(1)]]]
    for rho in ((), ((one, one),), ((Polynomial.const(2, 1),),)):
        A = AL.AlgebroidData(1, 1, rho, zero)
        for _ in range(2):
            with pytest.raises(ValueError):
                A.shape


def test_embedding_constraint_holds_identically():
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    space = prolongation(act.shape, WW)
    emb = space.embedding                    # (x,u; x,v,ρ(x)u,w)
    assert emb == PolyMap.from_strings(
        4, ["x1", "x2", "x1", "x3", "x1*x2", "x4"])


# -- involutions ---------------------------------------------------------------------


def test_canonical_involution_formulas():
    # C = 0: σ is the transposition (π₁, π₀, π₂) in hat coordinates.
    ab = AL.make_algebroid(0, 2, [], [[["0", "0"]] * 2] * 2)
    sigma = AL.involution_from_bracket(ab)
    assert sigma == PolyMap.from_strings(
        6, ["x3", "x4", "x1", "x2", "x5", "x6"])
    # Tangent algebroid: σ = canonical flip on T²M.
    TA = AL.tangent_algebroid(1)
    sigma = AL.involution_from_bracket(TA)
    assert sigma == PolyMap.from_strings(4, ["x1", "x3", "x2", "x4"])
    # so(3): σ(u, v, w) = (v, u, w + u×v).
    sigma3 = AL.involution_from_bracket(so3())
    u = [1, 0, 0]
    v = [0, 1, 0]
    w = [0, 0, 0]
    image = sigma3.eval(u + v + w)
    assert image[:3] == [0, 1, 0] and image[3:6] == [1, 0, 0]
    assert image[6:] == [0, 0, 1]  # e1 × e2 = e3


def test_involution_axioms_on_examples():
    for A in (AL.tangent_algebroid(1), AL.tangent_algebroid(2), so3(),
              AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])):
        sigma = AL.involution_from_bracket(A)
        report = AL.check_involution_axioms(A, sigma)
        assert report.passed, [v.name for v in report.verdicts if not v.passed]


def test_bad_bracket_fails_only_yang_baxter():
    A = AL.make_algebroid(0, 3, [], bad_lie())
    report = AL.check_involution_axioms(A, AL.involution_from_bracket(A))
    verdicts = {v.name[:4]: v.passed for v in report.verdicts}
    assert verdicts["(i) "] and verdicts["(ii)"] and verdicts["(iii"] \
        and verdicts["(iv)"]
    assert not verdicts["(v) "]


def test_non_alternating_fails_axiom_i():
    c = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    A = AL.make_algebroid(0, 2, [], c)
    report = AL.check_involution_axioms(A, AL.involution_from_bracket(A))
    first = next(v for v in report.verdicts if v.name.startswith("(i)"))
    assert not first.passed


def test_bracket_involution_round_trips():
    rng = random.Random(0)
    for A in (so3(), AL.tangent_algebroid(2),
              AL.make_algebroid(1, 2, [["1", "x1"]],
                                [[["0", "0"], ["x1", "1"]],
                                 [["-x1", "-1"], ["0", "0"]]])):
        sigma = AL.involution_from_bracket(A)
        recovered = AL.bracket_from_involution(A, sigma)
        assert recovered == A.bracket


def test_bracket_from_transposition_is_zero():
    ab = AL.make_algebroid(0, 2, [], [[["0", "0"]] * 2] * 2)
    transposition = PolyMap.from_strings(6, ["x3", "x4", "x1", "x2", "x5", "x6"])
    recovered = AL.bracket_from_involution(ab, transposition)
    assert all(e.is_zero() for row in recovered for cell in row for e in cell)


def test_bracket_from_involution_rejects_base_movers():
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    bad = PolyMap.from_strings(4, ["x1 + x2", "x3", "x2", "x4"])
    with pytest.raises(ValueError, match="base"):
        AL.bracket_from_involution(act, bad)


def test_hat_bar_inverse_with_connection():
    bun = BD.TrivialBundle(1, 1)
    kappa = PolyMap.from_strings(4, ["x1", "x4 + x1*x3*x2"])
    nabla = PolyMap.from_strings(3, ["x1", "x2", "x3", "0 - x1*x3*x2"])
    conn = BD.Connection(bun, kappa, nabla)
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    hat = AL.hat_map(act, conn)
    bar = AL.bar_map(act, conn)
    assert compose_maps(hat, bar) == PolyMap.identity(4)
    assert compose_maps(bar, hat) == PolyMap.identity(4)


def test_involution_independent_of_connection():
    """The composite bar∘σ̂∘hat is connection-independent (the thesis's
    claim that the construction does not depend on the chosen connection)."""
    bun = BD.TrivialBundle(1, 1)
    kappa = PolyMap.from_strings(4, ["x1", "x4 + 2*x1*x3*x2"])
    nabla = PolyMap.from_strings(3, ["x1", "x2", "x3", "0 - 2*x1*x3*x2"])
    conn = BD.Connection(bun, kappa, nabla)
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    assert AL.involution_from_bracket(act) == AL.involution_from_bracket(act, conn)


# -- sections ----------------------------------------------------------------------


def test_section_bracket_examples():
    TA1 = AL.tangent_algebroid(1)
    X = PolyMap.from_strings(1, ["x1"])
    Y = PolyMap.from_strings(1, ["1"])
    assert AL.section_bracket(TA1, X, Y) == PolyMap.from_strings(1, ["-1"])
    e1 = PolyMap.from_strings(0, ["1", "0", "0"])
    e2 = PolyMap.from_strings(0, ["0", "1", "0"])
    e3 = PolyMap.from_strings(0, ["0", "0", "1"])
    assert AL.section_bracket(so3(), e1, e2) == e3
    assert AL.section_bracket(TA1, X, X).is_zero()


def test_section_bracket_matches_coordinate_formula():
    rng = random.Random(1)
    cases = [so3(), AL.tangent_algebroid(2),
             AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])]
    for A in cases:
        for _ in range(10):
            X = random_map(rng, A.base_dim, A.rank, 2)
            Y = random_map(rng, A.base_dim, A.rank, 2)
            assert AL.section_bracket(A, X, Y) == \
                AL.section_bracket_coordinates(A, X, Y)


def test_section_laws():
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    secs = [PolyMap.from_strings(1, ["x1^2"]), PolyMap.from_strings(1, ["1 + x1"])]
    scalars = [parse_poly("x1", 1)]
    assert AL.check_section_laws(act, secs, scalars).passed


def test_anchor_derivation():
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    X = PolyMap.from_strings(1, ["1"])
    f = parse_poly("x1^2", 1)
    assert AL.anchor_derivation(act, X, f) == parse_poly("2*x1^2", 1)


# -- morphisms ----------------------------------------------------------------------


def test_identity_morphism_passes():
    report = AL.check_morphism(so3(), so3(),
                               [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               PolyMap(0, 0, []))
    assert report.passed


def test_anchor_morphism_to_tangent_algebroid():
    act = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    report = AL.check_morphism(act, AL.tangent_algebroid(1),
                               [["x1"]], PolyMap.identity(1))
    assert report.passed


def test_bracket_scaling_fails():
    report = AL.check_morphism(so3(), so3(),
                               [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                               PolyMap(0, 0, []))
    assert not report.passed
    failing = next(v for v in report.verdicts if not v.passed)
    assert "bracket" in failing.name


def test_lambda_hat_coassociativity_any_anchored_bundle():
    rng = random.Random(2)
    for _ in range(5):
        d, r = rng.randint(1, 2), rng.randint(1, 2)
        rho = [[str(random_map(rng, d, 1, 1).components[0]) for _ in range(r)]
               for _ in range(d)]
        zero = [[["0"] * r for _ in range(r)] for _ in range(r)]
        A = AL.make_algebroid(d, r, rho, zero)
        assert AL.check_lambda_hat_coassociativity(A).passed


# -- whiskered involutions in hat coordinates -----------------------------------


def _hat_sigma2(A):
    """σ×c in hat coordinates: (y, x, xy+⟨x,y⟩, z, yz, xz, xyz)."""
    d, r = A.base_dim, A.rank
    n = d + 7 * r
    x = [Polynomial.var(n, i + 1) for i in range(d)]
    blk = lambda k: [Polynomial.var(n, d + k * r + a + 1) for a in range(r)]
    u_x, u_y, u_z, u_yz, u_xy, u_xz, u_xyz = (blk(k) for k in range(7))
    c = A.bracket_fiber(x, u_x, u_y)
    new = {"a": u_y, "b": u_x, "ab": [p + q for p, q in zip(u_xy, c)],
           "c": u_z, "ac": u_yz, "bc": u_xz, "abc": u_xyz}
    comps = x + sum((new[k] for k in ("a", "b", "c", "bc", "ab", "ac", "abc")), [])
    return PolyMap(n, n, comps)


def _ternary(A, x, v, u1, u2):
    """The ternary bracket through the trivial connection: the derivative
    Σ_j v_j·∂_j C(x)(u1, u2) of the bracket tensor along v."""
    n = u1[0].n_vars
    out = []
    for g in range(A.rank):
        acc = Polynomial.zero(n)
        for a, b, j in itertools.product(range(A.rank), range(A.rank), range(A.base_dim)):
            dc = A.bracket[a][b][g].partial(j + 1)
            if not dc.is_zero():
                acc = acc + dc.substitute(x, out_vars=n) * v[j] * u1[a] * u2[b]
        out.append(acc)
    return out


def _hat_sigma1(A):
    """1×T.σ in hat coordinates, with the ternary-bracket correction."""
    d, r = A.base_dim, A.rank
    n = d + 7 * r
    x = [Polynomial.var(n, i + 1) for i in range(d)]
    blk = lambda k: [Polynomial.var(n, d + k * r + a + 1) for a in range(r)]
    u_x, u_y, u_z, u_yz, u_xy, u_xz, u_xyz = (blk(k) for k in range(7))
    c_yz = A.bracket_fiber(x, u_y, u_z)
    c_y_xz = A.bracket_fiber(x, u_y, u_xz)
    c_xy_z = A.bracket_fiber(x, u_xy, u_z)
    rho_ux = A.shape.anchor_fiber(x, u_x)
    tern = _ternary(A, x, rho_ux, u_y, u_z)
    last = [a + b + c + t for a, b, c, t in zip(u_xyz, c_y_xz, c_xy_z, tern)]
    new = {"a": u_x, "b": u_z, "ab": u_xz, "c": u_y, "ac": u_xy,
           "bc": [p + q for p, q in zip(u_yz, c_yz)], "abc": last}
    comps = x + sum((new[k] for k in ("a", "b", "c", "bc", "ab", "ac", "abc")), [])
    return PolyMap(n, n, comps)


def test_whiskered_involutions_match_connection_coordinate_formulas():
    """The span-built σ×c and 1×T.σ coincide with their closed hat-coordinate
    forms (the trivial connection makes hat = flat), so the ternary bracket
    really is the correction term in T.σ."""
    from tancat.flatspace import whiskered_generator
    from tancat.weil import NAT, W
    cases = [so3(), AL.tangent_algebroid(1),
             AL.make_algebroid(1, 1, [["x1"]], [[["0"]]]),
             AL.make_algebroid(1, 2, [["1", "x1"]],
                               [[["0", "0"], ["1", "x1"]],
                                [["-1", "-x1"], ["0", "0"]]])]
    for A in cases:
        sigma = AL.involution_from_bracket(A)
        s2 = whiskered_generator(A.shape, "flip", NAT, W, sigma=sigma)
        s1 = whiskered_generator(A.shape, "flip", W, NAT, sigma=sigma)
        assert s2 == _hat_sigma2(A)
        assert s1 == _hat_sigma1(A)


def test_bracket_recovery_is_connection_independent():
    """bracket_from_involution returns the same tensor through any valid
    connection (the construction is independent of the choice)."""
    from tancat import bundle as BD2
    A = AL.make_algebroid(1, 1, [["x1"]], [[["0"]]])
    sigma = AL.involution_from_bracket(A)
    kappa = PolyMap.from_strings(4, ["x1", "x4 + 3*x1*x3*x2"])
    nabla = PolyMap.from_strings(3, ["x1", "x2", "x3", "0 - 3*x1*x3*x2"])
    conn = BD2.Connection(BD2.TrivialBundle(1, 1), kappa, nabla)
    assert BD2.check_connection(conn).passed
    assert AL.bracket_from_involution(A, sigma) == \
        AL.bracket_from_involution(A, sigma, conn)
    # And the recovered tensor is the original one.
    assert AL.bracket_from_involution(A, sigma, conn) == A.bracket
