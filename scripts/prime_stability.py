#!/usr/bin/env python3
"""Sweep the corpus over sliding prime windows and report rank stability.

A prime is bad for a matrix exactly when the mod-p rank drops below the
rational rank; this experiment measures how often that happens for the
bundled hypersurfaces (expected: never, for 15-bit primes and these
blocks) and doubles as a reproducibility check of the defect across
prime choices.  A --window outside [1, len(PRIME_TABLE)] or a --filter
that selects no fixture exits 2 with one error line.
"""

from __future__ import annotations

import argparse
import sys
import time

from hyperdefect import PRIME_TABLE, RankConfig, defect, find_fixtures
from hyperdefect.cli import EXIT_USAGE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--window", type=int, default=2, help="primes per window (default 2)"
    )
    parser.add_argument("--filter", default="", help="substring fixture filter")
    args = parser.parse_args()
    if not 1 <= args.window <= len(PRIME_TABLE):
        print(f"error: --window must be in [1, {len(PRIME_TABLE)}]", file=sys.stderr)
        return EXIT_USAGE
    fixtures = find_fixtures(args.filter)
    if not fixtures:
        print(f"error: no fixture matches {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE

    windows = [
        PRIME_TABLE[i : i + args.window]
        for i in range(0, len(PRIME_TABLE) - args.window + 1, args.window)
    ]
    stable = True
    for fixture in fixtures:
        form = fixture.build()
        defects = []
        start = time.perf_counter()
        for primes in windows:
            report = defect(form, RankConfig(primes=primes))
            defects.append(report.defect)
            if report.e2.prime_disagreement:
                print(f"  !! prime disagreement inside window {primes}")
        elapsed = time.perf_counter() - start
        unique = sorted(set(defects))
        ok = unique == [fixture.defect]
        stable &= ok
        print(
            f"{fixture.name:<24} windows={len(windows)} defects={unique} "
            f"expected={fixture.defect} {elapsed:6.1f}s {'stable' if ok else 'UNSTABLE'}"
        )
    print("all stable" if stable else "INSTABILITY DETECTED")
    return 0 if stable else 1


if __name__ == "__main__":
    raise SystemExit(main())
