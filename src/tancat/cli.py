"""Command-line interface.

Subcommands:

  wone eval TERM             evaluate a term to its W1 morphism
  wone equal T1 T2           decide equality of denotations
  cdc check FILE...          CD.1-CD.7 on maps from spec files (+ --random N)
  tangent check -n N         tangent axioms at the object Q^N
  algebroid check FILE       structure equations + involution axioms
  algebroid bracket FILE X Y σ-based section bracket (X, Y section files)
  nerve object FILE -V ALG   describe the prolongation A.V
  nerve functoriality FILE   seeded equal-denotation pairs get equal images
  lie-tangent FILE           derive L'(A) and check it
  selftest                   the full acceptance suite (seeded, deterministic)

Exit codes: 0 all checks passed, 1 some check failed, 2 input error, 141
the reader closed standard output early (128 + SIGPIPE, as in `| head`).
`--random`, `--pairs` and `--cases` are at most MAX_COUNT, `-n` at most
MAX_TANGENT_DIM and the flat dimension of `nerve object` at most
MAX_FLAT_DIM; a value out of range is an input error.
JSON output (--json) is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import algebroid as AL
from . import nerve as NV
from . import specfiles
from . import tangent as TG
from . import weil, wterm
from .poly import PolyError, check_cdc_axioms, random_map
from .report import CheckReport
from .selftest import DEFAULT_SEED, run_selftest


class InputError(Exception):
    pass


def _emit(report: CheckReport, as_json: bool) -> int:
    print(report.to_json() if as_json else report.render())
    return 0 if report.passed else 1


def _parse_term(text: str) -> wterm.WTerm:
    try:
        return wterm.parse_term(text)
    except wterm.WTermError as exc:
        raise InputError(f"bad term {text!r}: {exc}")


def cmd_wone(args) -> int:
    if args.action == "eval":
        term = _parse_term(args.term)
        morphism = wterm.eval_weil(term)
        if args.json:
            print(json.dumps({
                "term": wterm.print_term(term),
                "source": str(term.source), "target": str(term.target),
                "morphism": str(morphism),
            }, sort_keys=True, indent=2))
        else:
            print(f"{wterm.print_term(term)} : {term.source} -> {term.target}")
            print(f"  {morphism}")
        return 0
    t1 = _parse_term(args.term)
    t2 = _parse_term(args.term2)
    try:
        equal = wterm.terms_equal(t1, t2)
    except wterm.WTermError as exc:
        raise InputError(str(exc))
    report = CheckReport("wone equal")
    report.add(f"{args.term} = {args.term2}", equal,
               f"{wterm.eval_weil(t1)} vs {wterm.eval_weil(t2)}")
    return _emit(report, args.json)


def cmd_cdc(args) -> int:
    sample = [specfiles.load(path, expect_kind="map") for path in args.files]
    if args.random:
        rng = random.Random(args.seed)
        sample += [random_map(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
                   for _ in range(args.random)]
    if not sample:
        raise InputError("cdc check needs at least one map file or --random N")
    return _emit(check_cdc_axioms(sample, seed=args.seed).sort(), args.json)


def cmd_tangent(args) -> int:
    return _emit(TG.check_tangent_axioms(args.n).sort(), args.json)


def cmd_algebroid(args) -> int:
    A = specfiles.load(args.file, expect_kind="algebroid")
    if args.action == "check":
        report = CheckReport(f"algebroid checks for {args.file}")
        report.merge(AL.check_structure_equations(A))
        sigma = AL.involution_from_bracket(A)
        report.merge(AL.check_involution_axioms(A, sigma))
        report.merge(AL.check_lambda_hat_coassociativity(A))
        return _emit(report.sort(), args.json)
    x_doc = specfiles.load_document(args.x, expect_kind="section")
    y_doc = specfiles.load_document(args.y, expect_kind="section")
    X = specfiles.load_section(x_doc, A.base_dim)
    Y = specfiles.load_section(y_doc, A.base_dim)
    if X.tgt_dim != A.rank or Y.tgt_dim != A.rank:
        raise InputError(f"sections must have {A.rank} components")
    bracket = AL.section_bracket(A, X, Y)
    if args.json:
        print(json.dumps({"bracket": [str(c) for c in bracket.components]},
                         sort_keys=True, indent=2))
    else:
        print(f"[X, Y] = {bracket}")
    return 0


def cmd_nerve(args) -> int:
    if args.action == "object":
        try:
            V = weil.parse_algebra(args.algebra)
        except weil.WeilError as exc:
            raise InputError(str(exc))
        # The flat dimension is checked before the file's polynomials are parsed.
        data = specfiles.load_document(args.file, expect_kind="algebroid")
        d, r = specfiles.algebroid_dims(data)
        flat_dim = d + r * (V.dim - 1)
        if flat_dim > MAX_FLAT_DIM:
            raise InputError(f"A.{V} has {flat_dim} flat coordinates, above the limit "
                             f"MAX_FLAT_DIM = {MAX_FLAT_DIM}")
        space = NV.nerve_object(specfiles.load_algebroid(data), V)
        blocks = [{"label": V.monomial_str(b.label), "size": b.size,
                   "offset": b.offset} for b in space.blocks]
        if args.json:
            print(json.dumps({"algebra": str(V), "dimension": space.dim,
                              "blocks": blocks,
                              "embedding": str(space.embedding)},
                             sort_keys=True, indent=2))
        else:
            print(f"A.{V}: dimension {space.dim}")
            for b in blocks:
                print(f"  block {b['label']:>8}  size {b['size']}  offset {b['offset']}")
            print(f"  embedding: {space.embedding}")
        return 0
    A = specfiles.load(args.file, expect_kind="algebroid")
    rng = random.Random(args.seed)
    pairs = []
    while len(pairs) < args.pairs:
        t1, t2 = wterm.random_equal_pair(rng, depth=2, rewrites=2)
        if wterm.print_term(t1) != wterm.print_term(t2):
            pairs.append((t1, t2))
    report = NV.check_functoriality(A, pairs)
    report.merge(NV.check_compose_functoriality(A, rng, cases=5))
    report.merge(NV.check_cartesian_p(A))
    return _emit(report.sort(), args.json)


def cmd_lie_tangent(args) -> int:
    A = specfiles.load(args.file, expect_kind="algebroid")
    try:
        prime = NV.lie_tangent(A)
    except ValueError as exc:
        raise InputError(str(exc))
    report = CheckReport(f"L' of {args.file}")
    report.merge(NV.check_lie_table(A))
    report.merge(AL.check_structure_equations(prime), prefix="L'(A) ")
    payload = {
        "base_dim": prime.base_dim,
        "rank": prime.rank,
        "anchor": [[str(e) for e in row] for row in prime.rho],
        "bracket": [[[str(e) for e in cell] for cell in row] for row in prime.bracket],
    }
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump({"kind": "algebroid", **payload}, fh, sort_keys=True, indent=2)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc.strerror}") from None
    if args.json:
        print(json.dumps({"derived": payload, "report": report.sort().as_dict()},
                         sort_keys=True, indent=2))
        return 0 if report.passed else 1
    print(f"L'(A): base_dim {prime.base_dim}, rank {prime.rank}")
    return _emit(report.sort(), False)


def cmd_selftest(args) -> int:
    """Run the suite, its nine criteria in forked workers when it can.

    Workers are forked, so they share the modules already imported here.
    Forking is safe because this process runs no other thread: with the fork
    method the pool starts every worker before its own manager thread.  On
    one CPU, or for the 5 ms `--mutate` harness, the criteria run in process.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if args.mutate is not None or cpus < 2:
        report = run_selftest(seed=args.seed, cases=args.cases, mutate=args.mutate)
        return _emit(report, args.json)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    with ProcessPoolExecutor(max_workers=min(cpus, SELFTEST_CRITERIA),
                             mp_context=get_context("fork")) as pool:
        report = run_selftest(seed=args.seed, cases=args.cases, map=pool.map)
    return _emit(report, args.json)


# Upper limit of the sample counts `cdc check --random`, `nerve
# functoriality --pairs` and `selftest --cases`: `--random 1000` takes about
# 2 s and `--pairs 200` about 1 s, and the cost grows linearly.
MAX_COUNT = 10_000
# Upper limit of the flat dimension d + r·(dim V - 1) of `nerve object -V`.
# Building and printing A.V of a zero algebroid takes 0.04 s in process at
# 1,024 coordinates, 0.07 s at 2,040 and 0.42 s at 5,100 (2 vCPUs), and the
# whole command about 0.3 s at 1,024; the embedding printed is the output.
MAX_FLAT_DIM = 1024
# Upper limit of `tangent check -n`: the checks act on T²(Q^n) and its
# products, so the cost grows faster than n: the whole command takes
# 0.3-0.5 s at n = 16, and `check_tangent_axioms` 0.12-0.27 s of CPU in
# process at n = 16 and 0.75-1.6 s at n = 40 (x86_64, 2 CPUs).
MAX_TANGENT_DIM = 16
# `selftest` runs AC1-AC9 as nine jobs: more workers than that would idle.
SELFTEST_CRITERIA = 9

# (argument, flag, lowest, highest, name of the limit).  A count of 0 would
# make a vacuous PASS, except for --random, which only adds maps.
_BOUNDS = (
    ("random", "--random", 0, MAX_COUNT, "MAX_COUNT"),
    ("pairs", "--pairs", 1, MAX_COUNT, "MAX_COUNT"),
    ("cases", "--cases", 1, MAX_COUNT, "MAX_COUNT"),
    ("n", "-n", 1, MAX_TANGENT_DIM, "MAX_TANGENT_DIM"),
)


def check_bounds(args) -> None:
    """Reject a count flag outside its documented range before any work."""
    for attr, flag, low, high, name in _BOUNDS:
        value = getattr(args, attr, None)
        if value is None:
            continue
        if value < low:
            raise InputError(f"{flag} must be at least {low}, got {value}")
        if value > high:
            raise InputError(f"{flag} must be at most {high} (the limit {name}), "
                             f"got {value}")


def env_seed() -> int:
    """The default seed: TANCAT_SEED when it is set, else DEFAULT_SEED."""
    text = os.environ.get("TANCAT_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return int(text)
    except ValueError:
        raise InputError(f"TANCAT_SEED must be an integer, got {text!r}") from None


def build_parser(default_seed: int = DEFAULT_SEED) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tancat",
        description="exact checkers for tangent-categorical structures")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable deterministic output")
    sub = parser.add_subparsers(dest="command", required=True)

    wone = sub.add_parser("wone", help="the free tangent category")
    wone_sub = wone.add_subparsers(dest="action", required=True)
    w_eval = wone_sub.add_parser("eval")
    w_eval.add_argument("term")
    w_eq = wone_sub.add_parser("equal")
    w_eq.add_argument("term")
    w_eq.add_argument("term2")
    wone.set_defaults(func=cmd_wone)

    cdc = sub.add_parser("cdc", help="cartesian differential axioms")
    cdc_sub = cdc.add_subparsers(dest="action", required=True)
    c_check = cdc_sub.add_parser("check")
    c_check.add_argument("files", nargs="*")
    c_check.add_argument("--random", type=int, default=0, metavar="N")
    c_check.add_argument("--seed", type=int, default=default_seed)
    cdc.set_defaults(func=cmd_cdc)

    tangent = sub.add_parser("tangent", help="tangent structure on the polynomial model")
    tangent_sub = tangent.add_subparsers(dest="action", required=True)
    t_check = tangent_sub.add_parser("check")
    t_check.add_argument("-n", type=int, default=1)
    tangent.set_defaults(func=cmd_tangent)

    alg = sub.add_parser("algebroid", help="involution algebroid checks")
    alg_sub = alg.add_subparsers(dest="action", required=True)
    a_check = alg_sub.add_parser("check")
    a_check.add_argument("file")
    a_br = alg_sub.add_parser("bracket")
    a_br.add_argument("file")
    a_br.add_argument("x")
    a_br.add_argument("y")
    alg.set_defaults(func=cmd_algebroid)

    nerve = sub.add_parser("nerve", help="the Weil nerve")
    nerve_sub = nerve.add_subparsers(dest="action", required=True)
    n_obj = nerve_sub.add_parser("object")
    n_obj.add_argument("file")
    n_obj.add_argument("-V", dest="algebra", required=True)
    n_fun = nerve_sub.add_parser("functoriality")
    n_fun.add_argument("file")
    n_fun.add_argument("--pairs", type=int, default=25)
    n_fun.add_argument("--seed", type=int, default=default_seed)
    nerve.set_defaults(func=cmd_nerve)

    lie = sub.add_parser("lie-tangent", help="the prolongation tangent structure")
    lie.add_argument("file")
    lie.add_argument("--out", help="write the derived algebroid as JSON")
    lie.set_defaults(func=cmd_lie_tangent)

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.add_argument("--seed", type=int, default=default_seed)
    selftest.add_argument("--cases", type=int, default=200)
    selftest.add_argument("--mutate", choices=["bianchi", "alternating", "leibniz"])
    selftest.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser(env_seed()).parse_args(argv)
        check_bounds(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # exit cannot fail again, and exit as a process killed by SIGPIPE
        # would, without a traceback (see the note on SIGPIPE in the Python
        # `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (specfiles.SpecFileError, PolyError, weil.WeilError,
            wterm.WTermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
