"""The acceptance suite: one seeded, deterministic function per criterion.

`run_selftest` executes all criteria and assembles a deterministic report
(the CLI's `selftest` subcommand and tests/test_acceptance.py both call in
here).  The criteria are independent, so `run_selftest` can hand them to a
process pool.  Every expected value is either a fixed ground-truth case or
is derived from an independent oracle inside the criterion itself;
tolerances are exact equality throughout — the underlying arithmetic is
rational.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import algebroid as AL
from . import bundle as BD
from . import nerve as NV
from . import tangent as TG
from . import weil, wterm
from .poly import PolyMap, Polynomial, compose_maps, parse_poly, random_map
from .report import CheckReport
from .weil import NAT, W, WW, WeilAlgebra

DEFAULT_SEED = 2024


# -- instance generators --------------------------------------------------------


def so3() -> AL.AlgebroidData:
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


def heisenberg() -> AL.AlgebroidData:
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1
    c[1][0][2] = -1
    return AL.make_algebroid(0, 3, [], c)


def abelian(r: int) -> AL.AlgebroidData:
    return AL.make_algebroid(0, r, [], [[[0] * r for _ in range(r)] for _ in range(r)])


def action_algebroid(f: str) -> AL.AlgebroidData:
    return AL.make_algebroid(1, 1, [[f]], [[["0"]]])


def scaled_so3(s: int) -> AL.AlgebroidData:
    base = so3()
    return AL.AlgebroidData(0, 3, (), tuple(
        tuple(tuple(base.bracket[a][b][g] * s for g in range(3)) for b in range(3))
        for a in range(3)))


def leibniz_family(rng: random.Random, break_leibniz: bool = False) -> AL.AlgebroidData:
    """d=1, r=2 anchored data with alternating C; Leibniz holds by design
    (ρ = [1, g], ⟨e1,e2⟩ = (g' − g·b, b)) unless `break_leibniz`."""
    g = _random_base_poly(rng)
    b = _random_base_poly(rng)
    a = g.partial(1) - g * b
    if break_leibniz:
        a = a + 1
    zero = Polynomial.zero(1)
    c = [[[zero, zero], [a, b]], [[-a, -b], [zero, zero]]]
    return AL.make_algebroid(1, 2, [["1", g]], c)


def _random_base_poly(rng: random.Random) -> Polynomial:
    p = Polynomial.zero(1)
    for k in range(3):
        coeff = rng.randint(-2, 2)
        if coeff:
            p = p + Polynomial(1, {(k,): Fraction(coeff)})
    return p


def random_lie_constants(rng: random.Random, r: int = 3) -> AL.AlgebroidData:
    """Random antisymmetric constants on Q^0; Jacobi generically fails."""
    c = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            for g in range(r):
                v = rng.randint(-2, 2)
                c[a][b][g] = v
                c[b][a][g] = -v
    return AL.make_algebroid(0, r, [], c)


def valid_instances(rng: random.Random, count: int) -> list[AL.AlgebroidData]:
    """Structure-equation-passing algebroids, deterministically generated."""
    pool: list[AL.AlgebroidData] = [
        AL.tangent_algebroid(1), AL.tangent_algebroid(2),
        abelian(1), abelian(2), so3(), heisenberg(), scaled_so3(2),
    ]
    while len(pool) < count:
        choice = rng.randrange(2)
        if choice == 0:
            candidate = action_algebroid(str(_random_base_poly(rng)) or "0")
        else:
            candidate = leibniz_family(rng)
            if not AL.check_structure_equations(candidate).passed:
                continue
        pool.append(candidate)
    return pool[:count]


def mutate_alternating(A: AL.AlgebroidData) -> AL.AlgebroidData:
    c = [[[A.bracket[a][b][g] for g in range(A.rank)] for b in range(A.rank)]
         for a in range(A.rank)]
    c[0][0][0] = c[0][0][0] + 1
    return AL.AlgebroidData(A.base_dim, A.rank, A.rho, tuple(
        tuple(tuple(cell) for cell in row) for row in c))


def mutate_bianchi(A: AL.AlgebroidData) -> AL.AlgebroidData:
    """Perturb the bracket antisymmetrically until Jacobi/Bianchi breaks.

    Candidate bumps keep alternating (and, for constant brackets, Leibniz);
    the first one the structure checker rejects is returned, so the
    mutation-harness assertion against the involution checker stays an
    independent cross-check.
    """
    r = A.rank
    if r < 3:
        raise ValueError("need rank >= 3 to break Bianchi while staying alternating")
    patterns = [
        ((0, 1, 0), (1, 2, 0), (0, 2, 1)),
        ((0, 1, 0),),
        ((0, 1, 2), (0, 2, 1)),
        ((1, 2, 1),),
        ((0, 2, 0), (1, 2, 2)),
    ]
    for pattern in patterns:
        c = [[[A.bracket[a][b][g] for g in range(r)] for b in range(r)]
             for a in range(r)]
        for (a, b, g) in pattern:
            c[a][b][g] = c[a][b][g] + 1
            c[b][a][g] = c[b][a][g] - 1
        mutant = AL.AlgebroidData(A.base_dim, r, A.rho, tuple(
            tuple(tuple(cell) for cell in row) for row in c))
        eq = AL.check_structure_equations(mutant)
        bianchi = next(v.passed for v in eq.verdicts if v.name == "Bianchi")
        alt = next(v.passed for v in eq.verdicts if v.name == "alternating")
        leib = next(v.passed for v in eq.verdicts if v.name == "Leibniz")
        if alt and leib and not bianchi:
            return mutant
    raise ValueError("could not engineer a Bianchi failure for this algebroid")


# -- criteria ---------------------------------------------------------------------


def criterion_1_generators() -> CheckReport:
    """Generator ground truth on elements: 5 fixed cases."""
    report = CheckReport("AC1 generator ground truth")
    w2 = WeilAlgebra((2,))
    p, z, plus, ell, flip = (weil.generator(k)
                             for k in ("p", "zero", "plus", "ell", "flip"))
    a_bx = weil.WeilElement(W, {(0,): 7, (1,): 5})
    report.add("p(7+5x) = 7", p.apply(a_bx) == weil.WeilElement.unit(NAT, 7),
               f"got {p.apply(a_bx)}")
    report.add("0(7) = 7 + 0x",
               z.apply(weil.WeilElement.unit(NAT, 7)) == weil.WeilElement.unit(W, 7))
    sum_in = weil.WeilElement(w2, {(0,): 2, (1,): 3, (2,): 4})
    report.add("+(2+3x1+4x2) = 2+7x",
               plus.apply(sum_in) == weil.WeilElement(W, {(0,): 2, (1,): 7}))
    report.add("l(7+5x) = 7+5xy",
               ell.apply(a_bx) == weil.WeilElement(WW, {(0, 0): 7, (1, 1): 5}))
    full = weil.WeilElement(WW, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})
    swapped = weil.WeilElement(WW, {(0, 0): 1, (1, 0): 3, (0, 1): 2, (1, 1): 4})
    report.add("c(1+2x+3y+4xy) = 1+3x+2y+4xy", flip.apply(full) == swapped)
    return report


EQUATION_PAIRS = [
    ("c . c", "id{W*W}", "TC.2 involution"),
    ("(c * id{W}) . (id{W} * c) . (c * id{W})",
     "(id{W} * c) . (c * id{W}) . (id{W} * c)", "TC.2 Yang-Baxter"),
    ("c . l", "l", "TC.3 symmetric comultiplication"),
    ("(l * id{W}) . l", "(id{W} * l) . l", "TC.3 coassociativity"),
    ("p . 0", "id{N}", "TC.1 section"),
    ("+ . <0 . !{W}, id{W}>", "id{W}", "TC.1 left unit"),
    ("+ . <id{W}, 0 . !{W}>", "id{W}", "TC.1 right unit"),
    ("+ . <proj{2,2}, proj{1,2}>", "+", "TC.1 commutativity"),
    ("+ . <+ . <proj{1,3}, proj{2,3}>, proj{3,3}>",
     "+ . <proj{1,3}, + . <proj{2,3}, proj{3,3}>>", "TC.1 associativity"),
    ("(p * id{W}) . l", "0 . p", "TC.2/3 p.T∘ℓ = 0∘p"),
    ("(id{W} * p) . l", "0 . p", "TC.2/3 T.p∘ℓ = 0∘p"),
    ("c . (0 * id{W})", "id{W} * 0", "TC.2 c∘0.T = T.0"),
]


def criterion_2_equations() -> CheckReport:
    """The W1 equational suite: 12 fixed term pairs."""
    report = CheckReport("AC2 W1 equational suite")
    for lhs, rhs, name in EQUATION_PAIRS:
        equal = wterm.terms_equal(wterm.parse_term(lhs), wterm.parse_term(rhs))
        report.add(f"{name}: {lhs} = {rhs}", equal)
    return report


def criterion_3_cdc(seed: int, cases: int = 200) -> CheckReport:
    """CD.1–CD.7 on seeded random polynomial maps (dim ≤ 3, deg ≤ 3)."""
    rng = random.Random(seed)
    sample = [random_map(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
              for _ in range(cases)]
    report = CheckReport("AC3 cartesian differential axioms")
    from .poly import check_cdc_axioms
    full = check_cdc_axioms(sample, seed=seed + 1)
    report.add(f"CD.1–CD.7 on {cases} random maps", full.passed, full.failing()[:400] or None)
    return report


def _generated_squares() -> list[weil.TransverseSquare]:
    """The ten squares AC4 checks: those generated of total dimension (the
    apex's, the three corners') at most 16."""
    return [
        weil.transverse_square("fibered-sum", n=1, m=1),
        weil.transverse_square("fibered-sum", n=1, m=2),
        weil.transverse_square("fibered-sum", n=2, m=1),
        weil.transverse_square("fibered-sum", n=2, m=2),
        weil.transverse_square("vertical-lift"),
        weil.transverse_square("identity", algebra=W),
        weil.transverse_square("identity", algebra=WeilAlgebra((2,))),
        weil.transverse_square("fibered-sum", n=1, m=1, whisker_left=W),
        weil.transverse_square("fibered-sum", n=1, m=1, whisker_right=W),
        weil.transverse_square("identity", algebra=W, whisker_left=W),
    ]


def criterion_4_tangent(seed: int) -> CheckReport:
    """Tangent axioms at n ∈ {1,2,3}; strictness on 50 random (U,V,f);
    transverse-square preservation (total dimension ≤ 16)."""
    report = CheckReport("AC4 tangent model")
    for n in (1, 2, 3):
        rep = TG.check_tangent_axioms(n)
        report.add(f"TC axioms at n={n}", rep.passed, rep.failing() or None)
    rng = random.Random(seed)
    algebras = [W, WeilAlgebra((2,)), WW]
    ok, witness = True, None
    for k in range(50):
        U = rng.choice(algebras)
        V = rng.choice(algebras)
        f = random_map(rng, rng.randint(1, 2), rng.randint(1, 2), 2)
        lhs = TG.weil_prolong(U.tensor(V), f)
        rhs = TG.weil_prolong(U, TG.weil_prolong(V, f))
        if lhs != rhs:
            ok, witness = False, f"case {k}: U={U}, V={V}, f={f}"
            break
    report.add("action strictness on 50 random (U,V,f)", ok, witness)
    for sq in _generated_squares():
        rep = TG.check_square_preservation(sq, 1)
        report.add(f"square {sq.provenance} preserved at n=1", rep.passed, rep.failing() or None)
    return report


def criterion_5_euler() -> CheckReport:
    """Euler vector fields: scaling actions vs canonical lifts; the t² action."""
    report = CheckReport("AC5 Euler vector fields")
    for d in range(0, 4):
        for k in range(1, 4):
            bundle = BD.TrivialBundle(d, k)
            lift = BD.euler_vector_field(BD.scaling_action(bundle))
            report.add(f"scaling EVF = canonical lift (d={d},k={k})",
                       lift.lam == bundle.lift.lam)
    # The degenerate t² action: coassociative but singular.
    deg = BD.ScalarAction(1, PolyMap.from_strings(2, ["x1^2*x2"]))
    lift = BD.euler_vector_field(deg)
    rep = BD.check_lift(lift)
    report.add("t² action: check_lift passes", rep.passed)
    uni = BD.check_universality(BD.TrivialBundle(0, 1), lift=lift)
    report.add("t² action: check_universality fails", not uni.passed,
               "universality unexpectedly passed")
    return report


# The paired checkers of AC6 and of the mutation harness, by mutation name:
# the structure-equation verdict, the prefix of its involution axiom, and
# that axiom's two sides as a function of (A, σ).
_PAIRED_CHECKERS = {
    "alternating": ("alternating", "(i)", AL._axiom_involution),
    "leibniz": ("Leibniz", "(iv)", AL._axiom_target),
    "bianchi": ("Bianchi", "(v)", lambda A, sigma: AL._axiom_yang_baxter(
        A, sigma, TG.weil_prolong(W, sigma))),
}


def _paired_verdicts(A: AL.AlgebroidData, mutation: str) -> tuple[bool, bool]:
    """(structure-equation verdict, involution-axiom verdict) for one pair.

    Only the paired axiom is computed; `check_involution_axioms` would
    compute all five and give the same verdict for it, by the rule of
    `CheckReport.equal`: equal sides pass, other sides pass when their
    difference is zero.
    """
    eq_name, _, axiom = _PAIRED_CHECKERS[mutation]
    eq = AL.check_structure_equations(A)
    lhs, rhs = axiom(A, AL.involution_from_bracket(A))
    return (next(v.passed for v in eq.verdicts if v.name == eq_name),
            lhs == rhs or (lhs - rhs).is_zero())


def equivalence_instances(seed: int, per_theorem: int = 20
                          ) -> list[tuple[str, list[AL.AlgebroidData]]]:
    """AC6's instances, by the mutation whose paired checkers they test."""
    rng = random.Random(seed)
    half = per_theorem // 2
    alternating = valid_instances(rng, half)
    alternating += [mutate_alternating(A) for A in valid_instances(rng, per_theorem - half)]
    leibniz = [leibniz_family(rng) for _ in range(half)]
    leibniz += [leibniz_family(rng, break_leibniz=True) for _ in range(per_theorem - half)]
    leibniz += [action_algebroid("x1"), AL.tangent_algebroid(1)]
    # Bianchi cases keep alternating and Leibniz true.
    bianchi = [so3(), heisenberg(), abelian(3), scaled_so3(3), AL.tangent_algebroid(1)]
    bianchi += [mutate_bianchi(so3()), mutate_bianchi(heisenberg()),
                mutate_bianchi(abelian(3))]
    while len(bianchi) < per_theorem:
        bianchi.append(random_lie_constants(rng))
    return [("alternating", alternating), ("leibniz", leibniz), ("bianchi", bianchi)]


def criterion_6_equivalences(seed: int, per_theorem: int = 20) -> CheckReport:
    """Checker agreement: alternating⟺(i), Leibniz⟺(iv), Bianchi⟺(v)."""
    report = CheckReport("AC6 equivalence theorems")
    for mutation, instances in equivalence_instances(seed, per_theorem):
        eq_name, ax_prefix, _ = _PAIRED_CHECKERS[mutation]
        agree, witness, fails = True, None, 0
        for idx, A in enumerate(instances):
            lhs, rhs = _paired_verdicts(A, mutation)
            fails += not lhs
            if lhs != rhs:
                agree = False
                witness = f"instance {idx}: {eq_name}={lhs}, axiom{ax_prefix}={rhs}"
                break
        name = f"{eq_name} ⟺ axiom {ax_prefix} on {len(instances)} instances"
        if mutation == "bianchi":
            name += f" ({fails} engineered/encountered failures)"
        report.add(name, agree, witness)
    # `fails` is the Bianchi loop's, the last one.
    report.add("Bianchi suite saw both outcomes", 0 < fails < len(instances),
               f"only {'failures' if fails else 'passes'} were generated")
    return report


def criterion_7_sections(seed: int, per_algebroid: int = 20) -> CheckReport:
    """σ-bracket = coordinate formula; Jacobi/antisymmetry/Leibniz; so(3)."""
    rng = random.Random(seed)
    report = CheckReport("AC7 section bracket")
    cases = [("so3", so3()), ("tangent d=1", AL.tangent_algebroid(1)),
             ("tangent d=2", AL.tangent_algebroid(2)),
             ("action", action_algebroid("x1")), ("heisenberg", heisenberg())]
    for name, A in cases:
        ok, witness = True, None
        for k in range(per_algebroid):
            X = random_map(rng, A.base_dim, A.rank, 2)
            Y = random_map(rng, A.base_dim, A.rank, 2)
            got = AL.section_bracket(A, X, Y)
            expect = AL.section_bracket_coordinates(A, X, Y)
            if got != expect:
                ok, witness = False, f"case {k}: X={X}, Y={Y}, got {got}, expect {expect}"
                break
        report.add(f"σ-bracket = coordinate formula on {name}", ok, witness)
    for name, A in cases:
        secs = [random_map(rng, A.base_dim, A.rank, 1) for _ in range(2)]
        if A.base_dim == 0:
            scalars = [Polynomial.const(0, 3)]
        else:
            scalars = [parse_poly("x1", A.base_dim)]
        rep = AL.check_section_laws(A, secs, scalars)
        report.add(f"section laws on {name}", rep.passed, rep.failing()[:200] or None)
    e1 = PolyMap.from_strings(0, ["1", "0", "0"])
    e2 = PolyMap.from_strings(0, ["0", "1", "0"])
    e3 = PolyMap.from_strings(0, ["0", "0", "1"])
    report.add("so(3): [e1,e2] = e3", AL.section_bracket(so3(), e1, e2) == e3)
    return report


def criterion_8_nerve(seed: int, n_pairs: int = 100) -> CheckReport:
    """Nerve functoriality on seeded equal-denotation pairs, 5 algebroids."""
    rng = random.Random(seed)
    report = CheckReport("AC8 Weil nerve functoriality")
    pairs = []
    while len(pairs) < n_pairs:
        t1, t2 = wterm.random_equal_pair(rng, depth=2, rewrites=2)
        if wterm.print_term(t1) != wterm.print_term(t2):
            pairs.append((t1, t2))
    cases = [("tangent d=1", AL.tangent_algebroid(1)),
             ("tangent d=2", AL.tangent_algebroid(2)), ("so3", so3()),
             ("action", action_algebroid("x1")), ("heisenberg", heisenberg())]
    for name, A in cases:
        rep = NV.check_functoriality(A, pairs)
        report.add(f"{n_pairs} equal pairs give equal images on {name}", rep.passed,
                   "; ".join(v.witness or v.name for v in rep.verdicts
                             if not v.passed)[:300] or None)
    # The nerve of the tangent algebroid is the Weil action, term by term.
    A = AL.tangent_algebroid(1)
    model = NV.NerveModel(A)
    ok, witness = True, None
    for idx, (t1, _) in enumerate(pairs):
        nerve_map = wterm.eval_model(t1, model)
        action = TG.structure_nat(wterm.eval_weil(t1), 1)
        src_iso = NV.nerve_object(A, t1.source).weil_layout_iso()
        tgt_iso = NV.nerve_object(A, t1.target).weil_layout_iso()
        if compose_maps(tgt_iso, nerve_map) != compose_maps(action, src_iso):
            ok, witness = False, f"term {wterm.print_term(t1)}"
            break
    report.add("nerve of the tangent algebroid = Weil action on every tested term",
               ok, witness)
    return report


def criterion_9_lie_tangent(seed: int, count: int = 20) -> CheckReport:
    """L' preserves validity; L'(TM on Q^d) = TM on Q^{2d}; table verified."""
    rng = random.Random(seed)
    report = CheckReport("AC9 prolongation tangent structure")
    instances = valid_instances(rng, count)
    ok, witness = True, None
    for idx, A in enumerate(instances):
        if not AL.check_structure_equations(A).passed:
            ok, witness = False, f"instance {idx} is itself invalid"
            break
        prime = NV.lie_tangent(A)
        eq = AL.check_structure_equations(prime)
        if not eq.passed:
            ok, witness = False, f"L'({A}) fails " + \
                ", ".join(v.name for v in eq.verdicts if not v.passed)
            break
        ax = AL.check_involution_axioms(prime, AL.involution_from_bracket(prime))
        if not ax.passed:
            ok, witness = False, f"L'({A}) fails " + \
                ", ".join(v.name for v in ax.verdicts if not v.passed)
            break
    report.add(f"L' preserves validity on {count} instances", ok, witness)
    for d in (1, 2):
        prime = NV.lie_tangent(AL.tangent_algebroid(d))
        expect = AL.tangent_algebroid(2 * d)
        report.add(f"L'(tangent on Q^{d}) = tangent on Q^{2 * d}",
                   prime.rho == expect.rho and prime.bracket == expect.bracket)
    table = NV.check_lie_table(so3())
    report.add("structure-map table verified coordinatewise (so3)", table.passed,
               table.failing() or None)
    table = NV.check_lie_table(action_algebroid("x1"))
    report.add("structure-map table verified coordinatewise (action)", table.passed,
               table.failing() or None)
    return report


def _run_criterion(job: tuple[str, tuple]) -> CheckReport:
    """Run one entry of the job table: a criterion's name and its arguments.

    The criterion is looked up by name when it runs, so a tracer that
    rebinds `criterion_N_*` in this module sees the call.
    """
    name, args = job
    return globals()[name](*args)


def run_selftest(seed: int = DEFAULT_SEED, cases: int = 200,
                 mutate: str | None = None, map=map) -> CheckReport:
    """The full acceptance suite with a fixed seed; deterministic output.

    The nine criteria are independent jobs, each with its own seed; `map`
    runs them.  The builtin `map` runs them one after another in this
    process; the CLI passes a process pool's `map` when the process may use
    more than one CPU.  The reports are merged in AC1…AC9 order, whatever
    order the jobs finished in, so the output does not depend on `map`.

    `mutate` injects a deliberate defect ('bianchi', 'alternating',
    'leibniz') and asserts the paired checkers still agree — both must fail
    together.
    """
    report = CheckReport(f"selftest (seed={seed})")
    if mutate is not None:
        report.merge(run_mutation(mutate))
        report.sort()
        return report
    # Longest first, by in-process CPU time at the default seed, each
    # criterion alone in a fresh process, median of 9 on 2 vCPUs (AC8
    # 0.23 s, AC3 0.11, AC9 0.055, AC4 0.044, AC7 0.034, AC6 0.032, the rest
    # under 0.004), so that a pool starts the critical path at once.
    jobs = [("criterion_8_nerve", (seed + 4,)),
            ("criterion_3_cdc", (seed, cases)),
            ("criterion_9_lie_tangent", (seed + 5,)),
            ("criterion_4_tangent", (seed + 1,)),
            ("criterion_7_sections", (seed + 3,)),
            ("criterion_6_equivalences", (seed + 2,)),
            ("criterion_5_euler", ()),
            ("criterion_2_equations", ()),
            ("criterion_1_generators", ())]
    reports = dict(zip((name for name, _ in jobs), map(_run_criterion, jobs)))
    for name in sorted(reports):
        report.merge(reports[name])
    report.sort()
    return report


def mutant(name: str) -> AL.AlgebroidData:
    """The algebroid with the defect `run_mutation` injects for `name`."""
    if name == "bianchi":
        return mutate_bianchi(so3())
    if name == "alternating":
        return mutate_alternating(so3())
    if name == "leibniz":
        return leibniz_family(random.Random(0), break_leibniz=True)
    raise ValueError(f"unknown mutation {name!r} "
                     "(choose bianchi, alternating, leibniz)")


def run_mutation(name: str) -> CheckReport:
    """Inject a defect and require the paired checkers to fail together."""
    report = CheckReport(f"mutation harness: {name}")
    eq_holds, ax_holds = _paired_verdicts(mutant(name), name)
    eq_fail, ax_fail = not eq_holds, not ax_holds
    report.add(f"structure checker detects the {name} mutation", eq_fail)
    report.add(f"involution checker detects the {name} mutation", ax_fail)
    report.add("checkers fail together", eq_fail == ax_fail)
    return report
