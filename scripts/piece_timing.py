#!/usr/bin/env python3
"""Time the rank layer on one fixture's blocks at grading k*d.

    python3 scripts/piece_timing.py quintic-vanstraten-130 --k 4 --primes 1

Assembles the fixture's blocks at multiplier k and runs
`rank_multimodular` on `full`, with B (`wedge_high`) as its leading block
and the form's `full_symmetries` as `e2_piece` passes them, so that an
uncertified `full` is eliminated one component per symmetry orbit as
`defect` eliminates it, then on A (`wedge_low`) whole, over the first
--primes primes of PRIME_TABLE with the default certification policy.
It calls the rank layer directly, below `e2_piece`, so `full`'s shape is
not held to MODULAR_CELL_BUDGET: a large k can take long and much
memory.  For each block it prints its shape, its rank at each prime, the
exact rank when one was proven (else "-"), the seconds of its call and
the process's max RSS after it; B's row names `full`'s call, which gave
its ranks.  An unknown fixture, a k below 2 or a --primes outside
[1, 10] exits 2 with one error line.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from functools import partial

from hyperdefect import PRIME_TABLE, RankConfig, get_fixture
from hyperdefect.cli import EXIT_USAGE
from hyperdefect.koszul import assemble_phi, full_symmetries
from hyperdefect.ranks import rank_multimodular


def max_rss_mb() -> float:
    """The process's max RSS so far, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def row(name: str, report, seconds: str, rss: str) -> str:
    ranks = ",".join(str(r) for _, r in report.per_prime)
    exact = "-" if report.exact_rank is None else str(report.exact_rank)
    shape = f"{report.rows}x{report.cols}"
    return f"{name:<11} {shape:>11} {ranks:>20} {exact:>6} {seconds:>8} {rss:>10}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("fixture", help="fixture name, as `hyperdefect corpus` lists them")
    parser.add_argument("--k", type=int, required=True, help="grading multiplier, at least 2")
    parser.add_argument("--primes", type=int, default=3, help="primes to use (default 3)")
    args = parser.parse_args()
    try:
        form = get_fixture(args.fixture).build()
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    if args.k < 2:
        print("error: --k must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.primes <= len(PRIME_TABLE):
        print(f"error: --primes must be in [1, {len(PRIME_TABLE)}]", file=sys.stderr)
        return EXIT_USAGE
    config = RankConfig(primes=PRIME_TABLE[: args.primes])
    start = time.perf_counter()
    blocks = assemble_phi(form, args.k)
    print(f"{args.fixture} k={args.k} assembled in {time.perf_counter() - start:.3f} s")
    print(f"{'block':<11} {'shape':>11} {'ranks':>20} {'exact':>6} {'seconds':>8} {'max_rss_mb':>10}")
    start = time.perf_counter()
    symmetries = partial(full_symmetries, form, blocks.degrees)
    full = rank_multimodular(blocks.full, config, blocks.wedge_high, symmetries)
    print(row("full", full, f"{time.perf_counter() - start:.3f}", f"{max_rss_mb():.1f}"))
    print(row("wedge_high", full.leading, "full", "full"))
    start = time.perf_counter()
    low = rank_multimodular(blocks.wedge_low, config)
    print(row("wedge_low", low, f"{time.perf_counter() - start:.3f}", f"{max_rss_mb():.1f}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
