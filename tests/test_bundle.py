"""Lifts, Euler vector fields, universality, connections."""

import pytest

from tancat import bundle as BD
from tancat.poly import PolyMap, compose_maps
from tancat.tangent import generator_nat


def test_euler_of_scaling_action_is_canonical_lift():
    for d in range(0, 4):
        for k in range(1, 4):
            bun = BD.TrivialBundle(d, k)
            lift = BD.euler_vector_field(BD.scaling_action(bun))
            assert lift.lam == bun.lift.lam


def test_euler_of_trivial_action_is_zero_lift():
    action = BD.ScalarAction(2, PolyMap.from_strings(3, ["x2", "x3"]))
    lift = BD.euler_vector_field(action)
    assert lift.lam == PolyMap.from_strings(2, ["x1", "x2", "0", "0"])
    assert BD.check_lift(lift).passed


def test_euler_of_square_action_degenerate_but_coassociative():
    action = BD.ScalarAction(1, PolyMap.from_strings(2, ["x1^2*x2"]))
    lift = BD.euler_vector_field(action)
    assert lift.lam == PolyMap.from_strings(1, ["0", "0"])
    assert BD.check_lift(lift).passed
    report = BD.check_universality(BD.TrivialBundle(0, 1), lift=lift)
    assert not report.passed
    failing = [v.name for v in report.verdicts if not v.passed]
    assert any("injective" in name for name in failing)


def test_invalid_action_rejected_with_witness():
    # a(t, e) = t + e is not multiplicative.
    action = BD.ScalarAction(1, PolyMap.from_strings(2, ["x1 + x2"]))
    with pytest.raises(BD.ActionLawError) as exc:
        BD.euler_vector_field(action)
    assert "unit law" in str(exc.value) or "multiplicativity" in str(exc.value)


def test_check_lift_failure_witness():
    bad = BD.Lift(1, PolyMap.from_strings(1, ["x1", "x1^2"]))
    report = BD.check_lift(bad)
    assert not report.passed
    witness = next(v.witness for v in report.verdicts if not v.passed)
    assert "nonzero difference" in witness
    # The lazily formatted context reads as the eager one did.
    assert witness == ("λ=(x1, x1^2): Q^1 -> Q^2: nonzero difference "
                       "(0, x1^2, x1^2, 2*x1^3 - x1^2): Q^1 -> Q^4")


def test_free_lift_passes():
    # ℓ on TM is the free lift: check at M = Q^1, E = TM = Q^2.
    lift = BD.Lift(2, generator_nat("ell", 1))
    assert BD.check_lift(lift).passed


def test_universality_canonical():
    for d, k in ((1, 1), (2, 1), (1, 2)):
        report = BD.check_universality(BD.TrivialBundle(d, k))
        assert report.passed, [v.name for v in report.verdicts if not v.passed]


def rebuilt_fork(comparison, left, right, report, name, depths=1):
    """`_certify_fork` with T^depth rebuilt from the given maps at every depth."""
    for depth in range(depths + 1):
        comp, l, r = comparison, left, right
        for _ in range(depth):
            comp, l, r = (BD.weil_prolong(BD.W, m) for m in (comp, l, r))
        label = name if depth == 0 else f"T^{depth} {name}"
        BD.certify_linear_pullback(comp, l - r, report, label)


def test_universality_prolongs_each_fork_once_per_depth(monkeypatch):
    calls = []
    prolong = BD.weil_prolong
    monkeypatch.setattr(BD, "weil_prolong", lambda V, f: calls.append(f) or prolong(V, f))
    # The canonical lifts pass; the zero lift on E = Q^1 fails non-singularity.
    cases = [(BD.TrivialBundle(d, k), None) for d, k in ((1, 1), (2, 1), (1, 2))]
    cases.append((BD.TrivialBundle(0, 1), BD.Lift(1, PolyMap.from_strings(1, ["0", "0"]))))

    def run():
        calls.clear()
        reports = [BD.check_universality(b, lift=lift) for b, lift in cases[:3]]
        counted = len(calls)
        return reports + [BD.check_universality(*cases[3])], counted

    # Per bundle: T of comparison, left and right at depths 1 and 2 of three
    # forks, and 5 for the data.
    reports, counted = run()
    assert counted == 3 * (3 * 3 * 2 + 5) == 69
    monkeypatch.setattr(BD, "_certify_fork", rebuilt_fork)
    rebuilt, counted = run()
    assert counted == 96
    assert reports == rebuilt
    assert [r.passed for r in reports] == [True, True, True, False]


def test_mu_retraction_shape():
    # μ(m,e,e') = (m,e,0,e') with retraction (m,e,mdot,edot) -> (m,e,edot).
    bun = BD.TrivialBundle(1, 1)
    lam = bun.lift.lam
    x_part = PolyMap.from_strings(3, ["x1", "x2"])
    y_part = PolyMap.from_strings(3, ["x1", "x3"])
    mu = BD.add_over_tq(bun, compose_maps(generator_nat("zero", 2), x_part),
                        compose_maps(lam, y_part))
    assert mu == PolyMap.from_strings(3, ["x1", "x2", "0", "x3"])


def test_trivial_connection_all_laws():
    for d, k in ((1, 1), (2, 1), (1, 2), (0, 2)):
        conn = BD.trivial_connection(BD.TrivialBundle(d, k))
        report = BD.check_connection(conn)
        assert report.passed, [v.name for v in report.verdicts if not v.passed]


def test_nonlinear_kappa_fails_linearity():
    bun = BD.TrivialBundle(1, 1)
    conn = BD.trivial_connection(bun)
    kappa = PolyMap.from_strings(4, ["x1", "x4 + x3^2"])
    report = BD.check_connection(BD.Connection(bun, kappa, conn.nabla))
    failing = [v.name for v in report.verdicts if not v.passed]
    assert any("linearity" in name for name in failing)


def test_christoffel_connection_passes():
    bun = BD.TrivialBundle(1, 1)
    kappa = PolyMap.from_strings(4, ["x1", "x4 + x1*x3*x2"])
    nabla = PolyMap.from_strings(3, ["x1", "x2", "x3", "0 - x1*x3*x2"])
    report = BD.check_connection(BD.Connection(bun, kappa, nabla))
    assert report.passed, [v.name for v in report.verdicts if not v.passed]


def test_lift_morphism_commutes_with_idempotent():
    # For the canonical bundle, e = ξ∘q and generated linear bundle maps
    # (base-preserving, fiberwise linear with base-dependent coefficients)
    # commute with it.
    import random
    from tancat.poly import Polynomial, random_polynomial

    bun = BD.TrivialBundle(1, 2)
    e = bun.lift.idempotent()
    assert e == compose_maps(bun.xi, bun.q)
    rng = random.Random(8)
    for _ in range(10):
        coeffs = [[random_polynomial(rng, 1, 2) for _ in range(2)]
                  for _ in range(2)]
        base = Polynomial.var(3, 1)
        comps = [base]
        for row in coeffs:
            acc = Polynomial.zero(3)
            for j, c in enumerate(row):
                acc = acc + c.substitute([base]) * Polynomial.var(3, 2 + j)
            comps.append(acc)
        f = PolyMap(3, 3, comps)
        assert compose_maps(f, e) == compose_maps(e, f)
