#!/usr/bin/env python3
"""Print smooth-fiber Euler characteristics and primitive Hodge rows.

Handy for picking out the gamma entering a defect run: for a degree-d
threefold it is the p = 1 column of the n = 3 row.  Errors exit as
`hyperdefect` does: 2 for a bad --n, 3 past the Hodge series budget.
"""

from __future__ import annotations

import argparse
import sys

from hyperdefect import RankBudgetError, SmoothFiberInvariants
from hyperdefect.cli import EXIT_BUDGET, EXIT_USAGE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3, help="fiber dimension (default 3)")
    parser.add_argument("--max-degree", type=int, default=9)
    args = parser.parse_args()
    if args.max_degree < 1:
        parser.error("need --max-degree >= 1")

    print(f"{'d':>3} {'euler':>10}  Gr^p_F row (p = 0..{args.n})")
    for d in range(1, args.max_degree + 1):
        try:
            inv = SmoothFiberInvariants.compute(args.n, d)
        except RankBudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        row = " ".join(f"{h:>8}" for h in inv.hodge_prim)
        print(f"{d:>3} {inv.euler:>10}  {row}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
