"""Command-line front end: defect, hodge and corpus subcommands.

Exit codes: 0 success, 1 corpus mismatch, 2 input/validation error,
3 a size budget exceeded (the exact-rank budget, the modular budget
checked on `full`'s shape before any block is built, or the Hodge series
budget checked on --n and --d before the series is built), 4 a computed
rank broke an invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .fixtures import find_fixtures
from .invariants import E2Report, SmoothFiberInvariants, defect, e2_piece
from .polynomials import (
    DEFAULT_VARIABLES,
    HomogeneousForm,
    PolynomialError,
    parse_expression,
    parse_term_list,
)
from .ranks import PRIME_TABLE, RankBudgetError, RankConfig, RankInvariantError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _rank_config(args) -> RankConfig:
    if args.prime_list:
        primes = tuple(int(p) for p in args.prime_list.split(","))
    else:
        count = args.primes
        if not 1 <= count <= len(PRIME_TABLE):
            raise ValueError(f"--primes must be in [1, {len(PRIME_TABLE)}]")
        primes = PRIME_TABLE[:count]
    return RankConfig(primes=primes, exact=args.exact)


def _load_form(args) -> HomogeneousForm:
    variables = tuple(name.strip() for name in args.vars.split(","))
    if args.expr is not None:
        poly = parse_expression(args.expr, variables)
    else:
        with open(args.input, "rb") as handle:
            poly = parse_term_list(handle.read(), variables)
    return HomogeneousForm.from_polynomial(poly)


def _print_rank_table(reports: dict) -> None:
    for name, rep in reports.items():
        per_prime = "  ".join(f"{p}:{r}" for p, r in rep.per_prime)
        line = f"  {name:<11} {per_prime}  consensus={rep.consensus}"
        if not rep.agreed:
            line += "  DISAGREE"
        if rep.exact_rank is not None:
            line += f"  exact={rep.exact_rank}" + ("  certified" if rep.certified else "")
        print(line)


def _print_e2(report: E2Report) -> None:
    print(f"grading multiplier:  {report.multiplier}")
    for label, block in (
        ("wedge_low", report.wedge_low),
        ("wedge_high", report.wedge_high),
        ("full", report.full),
    ):
        print(f"  {label:<11} {block.rows} x {block.cols}  rank {block.rank}")
    print(f"mu:      {report.mu}")
    print(f"gamma:   {report.gamma}")
    print(f"nu:      {report.nu}")
    print(f"rank d1: {report.rank_d1}")
    print(f"e2 dim:  {report.e2_dim}")


def _cmd_defect(args) -> int:
    cfg = _rank_config(args)
    form = _load_form(args)
    if args.k == 3 and form.variable_count == 5:
        report = defect(form, cfg)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2))
        else:
            print(f"degree:  {report.degree}   terms: {report.term_count}")
            _print_e2(report.e2)
            print(f"mu2:     {report.mu2}")
            print(f"defect:  {report.defect}")
            print("rank details:")
            _print_rank_table(report.rank_reports)
            for warning in report.warnings:
                print(f"warning: {warning}")
            for note in report.hypothesis_notes:
                print(f"note: {note}")
    else:
        report = e2_piece(form, args.k, cfg)
        if args.json:
            payload = report.as_dict()
            payload["ranks"] = {name: rep.as_dict() for name, rep in report.rank_reports.items()}
            print(json.dumps(payload, indent=2))
        else:
            _print_e2(report)
    return EXIT_OK


def _cmd_hodge(args) -> int:
    if args.n < 1 or args.d < 1:
        raise ValueError(f"need --n >= 1 and --d >= 1, got n={args.n}, d={args.d}")
    inv = SmoothFiberInvariants.compute(args.n, args.d)
    symmetric = all(
        inv.hodge_prim[p] == inv.hodge_prim[inv.n - p] for p in range(inv.n + 1)
    )
    if args.json:
        payload = inv.as_dict()
        payload["symmetric"] = symmetric
        print(json.dumps(payload, indent=2))
    else:
        print(f"euler characteristic: {inv.euler}")
        print(f"primitive hodge row (p = 0..{inv.n}): " + " ".join(map(str, inv.hodge_prim)))
        print(f"hodge symmetry: {'ok' if symmetric else 'VIOLATED'}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    selected = sorted(
        (f for f in find_fixtures(args.filter) if not (args.skip_slow and f.slow)),
        key=lambda f: f.name,
    )
    if not selected:
        print(f"no fixture matches {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    cfg = RankConfig()
    failures = []
    print(f"{'fixture':<24} {'d':>2} {'gamma':>6} {'defect':>7} {'time':>8}  status")
    for fixture in selected:
        start = time.perf_counter()
        report = defect(fixture.build(), cfg)
        elapsed = time.perf_counter() - start
        ok = report.defect == fixture.defect and report.gamma == fixture.gamma
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures.append((fixture, report))
        print(
            f"{fixture.name:<24} {report.degree:>2} {report.gamma:>6} "
            f"{report.defect:>7} {elapsed:>7.2f}s  {status}"
        )
    if failures:
        print("\nmismatches:")
        print(f"{'fixture':<24} {'gamma':>12} {'defect':>12}")
        for fixture, report in failures:
            print(
                f"{fixture.name:<24} {report.gamma}!={fixture.gamma:>4} "
                f"{report.defect}!={fixture.defect:>4}"
            )
        return EXIT_MISMATCH
    print(f"\n{len(selected)} fixtures PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperdefect",
        description="Defect and Hodge invariants of projective hypersurfaces "
        "with isolated singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_defect = sub.add_parser("defect", help="compute the defect of a hypersurface")
    source = p_defect.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr", help="defining polynomial as an expression")
    source.add_argument("--input", help="term-list input file ('/'-terminated)")
    p_defect.add_argument(
        "--vars", default=",".join(DEFAULT_VARIABLES), help="comma-separated variable names"
    )
    primes = p_defect.add_mutually_exclusive_group()
    primes.add_argument(
        "--primes", type=int, default=3, metavar="N", help="use the first N default primes"
    )
    primes.add_argument("--prime-list", metavar="CSV", help="explicit comma-separated primes")
    p_defect.add_argument("--exact", action="store_true", help="force exact rank certification")
    p_defect.add_argument("--json", action="store_true", help="emit the JSON report")
    p_defect.add_argument(
        "--k", type=int, default=3, help="grading multiplier (non-3 values report the raw E2 data)"
    )
    p_defect.set_defaults(func=_cmd_defect)

    p_hodge = sub.add_parser("hodge", help="smooth-fiber Euler and primitive Hodge numbers")
    p_hodge.add_argument("--n", type=int, required=True, help="fiber dimension")
    p_hodge.add_argument("--d", type=int, required=True, help="hypersurface degree")
    p_hodge.add_argument("--json", action="store_true")
    p_hodge.set_defaults(func=_cmd_hodge)

    p_corpus = sub.add_parser("corpus", help="run the bundled example corpus")
    p_corpus.add_argument("--filter", default="", help="only fixtures whose name contains this")
    p_corpus.add_argument(
        "--skip-slow", action="store_true", help="skip the degree-6 fixtures"
    )
    p_corpus.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RankInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PolynomialError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
