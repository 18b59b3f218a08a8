"""Command-line front end: defect, hodge and corpus subcommands.

Exit codes: 0 success, 1 corpus mismatch, 2 input/validation error,
3 a size budget exceeded (the modular budget, or under --exact the
exact-rank budget, both checked on `full`'s shape before any block is
built, or the Hodge series budget checked on --n and --d before the
series is built), 4 a computed rank broke an invariant.
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
from .ranks import (
    DEFAULT_PRIMES,
    PRIME_TABLE,
    RankBudgetError,
    RankConfig,
    RankInvariantError,
    _LIFT_PRIME,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


def _rank_config(args) -> RankConfig:
    if args.prime_list is not None:
        try:
            primes = tuple(int(p) for p in args.prime_list.split(","))
        except ValueError:
            raise ValueError(
                f"--prime-list must be comma-separated integers, got {args.prime_list!r}"
            ) from None
    elif args.primes is None:
        primes = DEFAULT_PRIMES
    elif 1 <= args.primes <= len(PRIME_TABLE):
        primes = PRIME_TABLE[: args.primes]
    else:
        raise ValueError(f"--primes must be in [1, {len(PRIME_TABLE)}]")
    return RankConfig(primes=primes, exact=args.exact)


def _load_form(args) -> HomogeneousForm:
    variables = tuple(name.strip() for name in args.vars.split(","))
    if args.expr is not None:
        poly = parse_expression(args.expr, variables)
    else:
        with open(args.input, "rb") as handle:
            poly = parse_term_list(handle, variables)
    return HomogeneousForm.from_polynomial(poly)


def _print_rank_details(reports: dict, warnings: tuple[str, ...]) -> None:
    print("rank details:")
    for name, rep in reports.items():
        per_prime = "  ".join(f"{p}:{r}" for p, r in rep.per_prime)
        line = f"  {name:<11} {per_prime}  consensus={rep.consensus}"
        if not rep.agreed:
            line += "  DISAGREE"
        if rep.exact_rank is not None:
            line += f"  exact={rep.exact_rank}" + ("  certified" if rep.certified else "")
        print(line)
    for warning in warnings:
        print(f"warning: {warning}")


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
            _print_rank_details(report.rank_reports, report.warnings)
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
            _print_rank_details(report.rank_reports, report.warnings)
    return EXIT_OK


def _cmd_hodge(args) -> int:
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
    selected = sorted(find_fixtures(args.filter), key=lambda f: f.name)
    if not selected:
        raise ValueError(f"no fixture matches {args.filter!r}")
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
    # default None: argparse lets an explicit value equal to the default
    # past the exclusion, so `--primes 3 --prime-list P` would slip through
    primes.add_argument(
        "--primes",
        type=int,
        metavar="N",
        help=f"use the first N primes of the table (default {len(DEFAULT_PRIMES)})",
    )
    primes.add_argument(
        "--prime-list",
        metavar="CSV",
        help=f"explicit comma-separated primes in [2, {_LIFT_PRIME}], where the one"
        " float64 elimination is exact",
    )
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
