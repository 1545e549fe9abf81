"""Lifts, trivial differential bundles, Euler vector fields, connections.

Everything lives over the polynomial model: a trivial bundle with base Q^d
and fiber Q^k has total space E = Q^(d+k) with coordinates (m, e), tangent
space TE = Q^(2(d+k)) with coordinates (m, e, mdot, edot), projection q
(drop the fiber), zero section ξ (pad with zeros), and canonical lift
λ(m, e) = (m, 0, 0, e).  These maps, the trivial connection's κ and ∇, the
two lifts of ∇'s linearity axioms and the coordinate maps the universality
and connection checks compose with only move coordinates or write zeros, so
each is one `PolyMap.selection`.

Universality statements (non-singularity fork, the μ and ν equalizers) are
certified constructively by exact linear algebra: an explicit retraction is
built and both round trips are verified symbolically.
"""

from __future__ import annotations

from .frozen import Frozen
from .poly import PolyMap, compose_maps
from .report import CheckReport
from .tangent import certify_linear_pullback, generator_nat, weil_prolong
from .weil import W


class Lift(Frozen):
    """A candidate coalgebra map λ: E -> TE (coassociativity is a check)."""

    __slots__ = _fields = ("total_dim", "lam")

    def __init__(self, total_dim: int, lam: PolyMap):
        if lam.src_dim != total_dim or lam.tgt_dim != 2 * total_dim:
            raise ValueError("lift must map E -> TE on flat coordinates")
        Frozen.__init__(self, total_dim, lam)

    def idempotent(self) -> PolyMap:
        """e = p∘λ : E -> E."""
        return compose_maps(generator_nat("p", self.total_dim), self.lam)


class TrivialBundle(Frozen):
    """Base Q^base_dim, fiber Q^rank."""

    __slots__ = _fields = ("base_dim", "rank")

    @property
    def total_dim(self) -> int:
        return self.base_dim + self.rank

    @property
    def q(self) -> PolyMap:
        return PolyMap.projection(self.total_dim, 0, self.base_dim)

    @property
    def xi(self) -> PolyMap:
        d = self.base_dim
        return PolyMap.selection(d, [*range(d)] + [None] * self.rank)

    @property
    def lift(self) -> Lift:
        """Canonical lift (m, e) -> (m, 0, 0, e)."""
        d, t = self.base_dim, self.total_dim
        return Lift(t, PolyMap.selection(t, [*range(d)] + [None] * t + [*range(d, t)]))


def add_over(block_split: int, u: PolyMap, w: PolyMap) -> PolyMap:
    """Add two maps into a bundle whose first `block_split` components are the
    shared projection; the remaining components add.  The shared part must
    agree exactly."""
    if u.components[:block_split] != w.components[:block_split]:
        raise ValueError("summands live in different fibers")
    comps = list(u.components[:block_split])
    comps += [a + b for a, b in zip(u.components[block_split:], w.components[block_split:])]
    return PolyMap(u.src_dim, u.tgt_dim, comps)


def add_over_tq(bundle: TrivialBundle, u: PolyMap, w: PolyMap) -> PolyMap:
    """u +_{T.q} w in TE: shared (m, mdot), added (e, edot)."""
    d, k, t = bundle.base_dim, bundle.rank, bundle.total_dim
    tq = compose_maps(weil_prolong(W, bundle.q), u)
    tq2 = compose_maps(weil_prolong(W, bundle.q), w)
    if tq != tq2:
        raise ValueError("summands live in different T.q fibers")
    comps = []
    for i in range(2 * t):
        in_fiber = (d <= i < t) or (t + d <= i)
        comps.append(u.components[i] + w.components[i] if in_fiber else u.components[i])
    return PolyMap(u.src_dim, 2 * t, comps)


# -- scalar actions and the Euler vector field --------------------------------


class ScalarAction(Frozen):
    """A polynomial action a(t, e) of the multiplicative monoid on Q^total."""

    __slots__ = _fields = ("total_dim", "action")

    def __init__(self, total_dim: int, action: PolyMap):
        if action.src_dim != 1 + total_dim or action.tgt_dim != total_dim:
            raise ValueError("action must map (t, e) -> e'")
        Frozen.__init__(self, total_dim, action)


def scaling_action(bundle: TrivialBundle) -> ScalarAction:
    """The standard action: scale the fiber, fix the base."""
    d, k = bundle.base_dim, bundle.rank
    n = 1 + d + k
    xs = PolyMap.identity(n).components
    comps = list(xs[1:1 + d]) + [xs[0] * e for e in xs[1 + d:]]
    return ScalarAction(d + k, PolyMap(n, d + k, comps))


def check_scalar_action(a: ScalarAction) -> CheckReport:
    """a(1, e) = e and a(s·t, e) = a(s, a(t, e)), exactly."""
    report = CheckReport("multiplicative monoid action laws")
    n = a.total_dim
    at_one = PolyMap.pairing([PolyMap.constant(n, [1]), PolyMap.identity(n)])
    report.equal("unit law a(1,e) = e",
                 compose_maps(a.action, at_one), PolyMap.identity(n))
    # Both sides as maps of (s, t, e).
    big = 2 + n
    s = PolyMap.projection(big, 0, 1)
    e = PolyMap.projection(big, 2, n)
    xs = PolyMap.identity(big).components
    st = PolyMap(big, 1, [xs[0] * xs[1]])
    lhs = compose_maps(a.action, PolyMap.pairing([st, e]))
    inner = compose_maps(a.action, PolyMap.projection(big, 1, 1 + n))
    rhs = compose_maps(a.action, PolyMap.pairing([s, inner]))
    report.equal("multiplicativity a(st,e) = a(s,a(t,e))", lhs, rhs)
    return report


class ActionLawError(ValueError):
    def __init__(self, report: CheckReport):
        self.report = report
        witnesses = "; ".join(
            f"{v.name} ({v.witness})" if v.witness else v.name
            for v in report.verdicts if not v.passed)
        super().__init__(f"scalar action laws fail: {witnesses}")


def euler_vector_field(a: ScalarAction) -> Lift:
    """λ(e) = (a(0,e), ∂_t a(t,e)|_{t=0}) — the lift extracted from the action.

    Rejects actions that fail the monoid laws, with the witness identity.
    """
    laws = check_scalar_action(a)
    if not laws.passed:
        raise ActionLawError(laws)
    n = a.total_dim
    at_zero = PolyMap.selection(n, [None, *range(n)])
    base = compose_maps(a.action, at_zero)
    # ∂_t a(t, e) evaluated at t = 0, as a polynomial in e.
    dt = PolyMap(1 + n, n, [comp.partial(1) for comp in a.action.components])
    return Lift(n, PolyMap.pairing([base, compose_maps(dt, at_zero)]))


# -- lift and universality checks ----------------------------------------------


def check_lift(lift: Lift) -> CheckReport:
    """Coassociativity T.λ∘λ = ℓ∘λ and the induced idempotent's laws."""
    report = CheckReport("lift axioms")
    lam = lift.lam
    n = lift.total_dim
    report.equal("coassociativity T.λ∘λ = ℓ∘λ", compose_maps(weil_prolong(W, lam), lam),
                 compose_maps(generator_nat("ell", n), lam), lambda: f"λ={lam}")
    e = lift.idempotent()
    report.equal("e = p∘λ is idempotent", compose_maps(e, e), e, lambda: f"e={e}")
    report.equal("λ∘e = T.e∘λ (e is a lift morphism)",
                 compose_maps(lam, e), compose_maps(weil_prolong(W, e), lam))
    return report


def _certify_fork(comparison: PolyMap, left: PolyMap, right: PolyMap,
                  report: CheckReport, name: str, depths: int = 1) -> None:
    """Certify that `comparison` equalizes (left, right) universally, and
    stays an equalizer after applying T up to `depths` times; each depth
    applies T once to the maps of the depth before."""
    comp, l, r = comparison, left, right
    for depth in range(depths + 1):
        if depth:
            comp, l, r = weil_prolong(W, comp), weil_prolong(W, l), weil_prolong(W, r)
        label = name if depth == 0 else f"T^{depth} {name}"
        certify_linear_pullback(comp, l - r, report, label)


def check_universality(bundle: TrivialBundle, lift: Lift | None = None,
                       depths: int = 2) -> CheckReport:
    """Non-singularity fork plus the μ and ν equalizers, constructively.

    Each fork is certified as stated and again under T and T² (`depths`);
    linearity of all the data makes higher powers follow, which is recorded
    as assumed rather than tested.  Passing `lift` overrides the canonical
    lift (used to exhibit degenerate lifts failing non-singularity while
    remaining coassociative).
    """
    report = CheckReport("differential bundle universality")
    lam = (lift or bundle.lift).lam
    t = bundle.total_dim
    d, k = bundle.base_dim, bundle.rank

    # Non-singularity: E --λ--> TE equalizes 0∘p and T.e, universally.
    zero_p = compose_maps(generator_nat("zero", t), generator_nat("p", t))
    te = weil_prolong(W, compose_maps(generator_nat("p", t), lam))
    _certify_fork(lam, zero_p, te, report, "non-singularity fork", depths)

    # μ(x, y) = 0∘x +_{T.q} λ∘y on E2, equalizing (T.q, 0∘q∘p).
    e2 = d + 2 * k
    x_part = PolyMap.selection(e2, range(t))
    y_part = PolyMap.selection(e2, [*range(d), *range(t, e2)])
    try:
        mu = add_over_tq(bundle, compose_maps(generator_nat("zero", t), x_part),
                         compose_maps(lam, y_part))
    except ValueError as exc:
        report.add("μ is well-formed", False, str(exc))
        mu = None
    if mu is not None:
        tq = weil_prolong(W, bundle.q)
        zqp = compose_maps(generator_nat("zero", d),
                           compose_maps(bundle.q, generator_nat("p", t)))
        _certify_fork(mu, tq, zqp, report, "μ equalizer", depths)

    # ν(v, y) = T.ξ∘v +_p λ∘y on TM x_M E, equalizing (p, ξ∘q∘p).
    dom = 2 * d + k
    v_part = PolyMap.projection(dom, 0, 2 * d)
    y2 = PolyMap.selection(dom, [*range(d), *range(2 * d, dom)])
    try:
        nu = add_over(t, compose_maps(weil_prolong(W, bundle.xi), v_part),
                      compose_maps(lam, y2))
    except ValueError as exc:
        report.add("ν is well-formed", False, str(exc))
        nu = None
    if nu is not None:
        p_e = generator_nat("p", t)
        xi_q_p = compose_maps(bundle.xi, compose_maps(bundle.q, p_e))
        _certify_fork(nu, p_e, xi_q_p, report, "ν equalizer", depths)
    return report


# -- connections ----------------------------------------------------------------


class Connection(Frozen):
    """κ: TE -> E and ∇: E x_M TM -> TE, the domain of ∇ flat (m, e, mdot)."""

    __slots__ = _fields = ("bundle", "kappa", "nabla")

    def __init__(self, bundle: TrivialBundle, kappa: PolyMap, nabla: PolyMap):
        t = bundle.total_dim
        d = bundle.base_dim
        if (kappa.src_dim, kappa.tgt_dim) != (2 * t, t):
            raise ValueError("κ must map TE -> E")
        if (nabla.src_dim, nabla.tgt_dim) != (t + d, 2 * t):
            raise ValueError("∇ must map E x_M TM -> TE")
        Frozen.__init__(self, bundle, kappa, nabla)


def trivial_connection(bundle: TrivialBundle) -> Connection:
    d, k, t = bundle.base_dim, bundle.rank, bundle.total_dim
    # κ(m, e, mdot, edot) = (m, edot)
    kappa = PolyMap.selection(2 * t, [*range(d), *range(t + d, 2 * t)])
    # ∇((m,e), (m,mdot)) = (m, e, mdot, 0)
    nabla = PolyMap.selection(t + d, [*range(t + d)] + [None] * k)
    return Connection(bundle, kappa, nabla)


def _horizontal_lift_maps(bundle: TrivialBundle) -> tuple[PolyMap, PolyMap]:
    """The two lifts on E x_M TM used in the ∇ linearity axioms.

    lift1 = (λ ×_M 0.TM):  (m,e,mdot) -> ((m,0,mdot); (0,e,0))
    lift2 = (0.E ×_M ℓ.M): (m,e,mdot) -> ((m,e,0);  (0,0,mdot))
    both landing in T(E x_M TM) with flat coordinates ((m,e,mdot);(·,·,·)).
    """
    d, k = bundle.base_dim, bundle.rank
    n = d + k + d
    m, e, mdot = [*range(d)], [*range(d, d + k)], [*range(d + k, n)]
    lift1 = PolyMap.selection(n, m + [None] * k + mdot + [None] * d + e + [None] * d)
    lift2 = PolyMap.selection(n, m + e + [None] * (2 * d + k) + mdot)
    return lift1, lift2


def check_connection(conn: Connection) -> CheckReport:
    """All the named connection laws, as exact identities."""
    report = CheckReport("connection laws")
    b = conn.bundle
    d, t = b.base_dim, b.total_dim
    lam = b.lift.lam
    kappa, nabla = conn.kappa, conn.nabla
    t_kappa, t_lam, t_nabla = (weil_prolong(W, f) for f in (kappa, lam, nabla))
    ell, flip = generator_nat("ell", t), generator_nat("flip", t)

    report.equal("vertical retract κ∘λ = id",
                 compose_maps(kappa, lam), PolyMap.identity(t))
    p_e = generator_nat("p", t)
    tq = weil_prolong(W, b.q)
    section = PolyMap.pairing([p_e, tq])
    # (p, T.q)∘∇ lands back on (m, e, m, mdot); collapse the duplicate base.
    expected = PolyMap.selection(t + d, [*range(t), *range(d), *range(t, t + d)])
    report.equal("horizontal section (p,T.q)∘∇ = id",
                 compose_maps(section, nabla), expected)

    # κ is linear for both differential bundle structures on TE.
    lam_k = compose_maps(lam, kappa)
    report.equal("κ linearity over ℓ: λ∘κ = T.κ∘ℓ",
                 lam_k, compose_maps(t_kappa, ell))
    report.equal("κ linearity over c∘T.λ: λ∘κ = T.κ∘c∘T.λ",
                 lam_k, compose_maps(t_kappa, compose_maps(flip, t_lam)))

    # ∇ is linear for both lifts on E x_M TM.
    lift1, lift2 = _horizontal_lift_maps(b)
    report.equal("∇ linearity over (λ×0): c∘T.λ∘∇ = T.∇∘(λ×0)",
                 compose_maps(flip, compose_maps(t_lam, nabla)),
                 compose_maps(t_nabla, lift1))
    report.equal("∇ linearity over (0×ℓ): ℓ∘∇ = T.∇∘(0×ℓ)",
                 compose_maps(ell, nabla), compose_maps(t_nabla, lift2))

    # Full-connection compatibilities.
    report.equal("compatibility κ∘∇ = ξ∘q∘π0",
                 compose_maps(kappa, nabla),
                 compose_maps(b.xi, PolyMap.projection(t + d, 0, d)))
    # (p, T.q) composed into ∇'s domain (m, e, mdot) with the base collapsed.
    into_dom = PolyMap.selection(2 * t, range(t + d))
    horizontal = compose_maps(nabla, into_dom)
    mu_of = add_over_tq(b, compose_maps(generator_nat("zero", t), p_e),
                        compose_maps(lam, kappa))
    try:
        decomposition = add_over(t, horizontal, mu_of)
        report.equal("decomposition ∇(p,T.q) +_p μ(p,κ) = id",
                     decomposition, PolyMap.identity(2 * t))
    except ValueError as exc:
        report.add("decomposition ∇(p,T.q) +_p μ(p,κ) = id", False, str(exc))

    report.equal("flatness κ∘T.κ∘c = κ∘T.κ",
                 compose_maps(kappa, compose_maps(t_kappa, flip)),
                 compose_maps(kappa, t_kappa))
    return report

