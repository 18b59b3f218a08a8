#!/usr/bin/env python3
"""Compare two checkouts of hyperdefect in one process, input by input.

    python3 scripts/ab_inprocess.py BASE CHANGE --workload sextic-285-p1 --seed 1 --passes 20

BASE and CHANGE are checkout directories.  Each one's src/hyperdefect is
loaded under its own module name, so both run in one interpreter, on the
same BLAS and allocator.  The inputs are one pass of a perfbench workload
at --seed, built by this repository's perfbench/workloads.py, which is
imported and not changed.  Each input runs as perfbench/run.py runs it
(parse, `defect()`, the JSON report), once per side and pass, after one
untimed pass that warms both sides; the side that goes first alternates
from input to input and from pass to pass.  Both sides must give
byte-identical JSON, else the script exits 1.

It prints, per input, the median seconds of each side and their ratio,
then the median over passes of the per-pass ratio change/base, with its
quartiles.  On stderr, so that the timing table keeps its lines, it
prints a second table: per input, each side's tracemalloc peak in MB, to
three decimals, and their ratio, measured in the untimed pass only, so
that tracing slows no timed pass, and after one untraced run of that
side, so that one-off first-call allocations land in neither peak; then each side's p50 and p90 over all its timed samples, every
input of every pass, as perfbench/run.py's `latency_p50_s` and
`latency_p90_s` pool them, and their ratio, so that a claim about the tail
can be checked in one process.  Timings taken in one process share warm-up, caches and the
machine's load, which suits a check that nothing got slower; a claimed
gain is measured with perfbench/run.py in fresh processes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leaves no cache files in perfbench/ or either checkout
sys.path.insert(0, str(ROOT / "perfbench"))

from run import percentile  # noqa: E402
from workloads import WORKLOADS, build, import_program  # noqa: E402

SIDES = ("base", "change")


def load(checkout: Path, name: str):
    """The checkout's src/hyperdefect, imported as the package `name`."""
    package = checkout / "src" / "hyperdefect"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"{checkout} has no src/hyperdefect package")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its submodules import each other through it
    spec.loader.exec_module(module)
    return module


def run(hd, text: str, config) -> tuple[float, str]:
    """Seconds to parse, solve and report one input, and the report's JSON."""
    start = time.perf_counter()
    form = hd.HomogeneousForm.from_polynomial(hd.parse_expression(text))
    answer = json.dumps(hd.defect(form, config).as_dict(), indent=2)
    return time.perf_counter() - start, answer


def traced(hd, text: str, config) -> tuple[float, str]:
    """`run`, with the tracemalloc peak in MB in place of the seconds."""
    tracemalloc.start()
    try:
        _, answer = run(hd, text, config)
        return tracemalloc.get_traced_memory()[1] / 2**20, answer
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for side in SIDES:
        parser.add_argument(side, type=Path, help=f"{side} checkout directory")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--passes", type=int, default=20, help="passes (default 20)")
    args = parser.parse_args()
    if args.passes < 1:
        print("error: --passes must be at least 1", file=sys.stderr)
        return 2
    try:
        programs = [load(getattr(args, side), f"hyperdefect_{side}") for side in SIDES]
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_program()  # workloads.build reads the fixtures of this repository's package
    cases = build(args.workload, args.seed)
    configs = [
        [hd.RankConfig() if c.primes is None else hd.RankConfig(primes=c.primes) for c in cases]
        for hd in programs
    ]

    seconds = [[[] for _ in cases] for _ in SIDES]
    peaks = [[0.0] * len(cases) for _ in SIDES]
    ratios = []
    for n in range(-1, args.passes):  # pass -1 warms both sides and is not kept
        totals = [0.0] * len(SIDES)
        for k, case in enumerate(cases):
            answers = [""] * len(SIDES)
            for side in (0, 1) if (n + k) % 2 == 0 else (1, 0):
                call = programs[side], case.text, configs[side][k]
                if n < 0:
                    run(*call)
                    peaks[side][k], answers[side] = traced(*call)
                else:
                    took, answers[side] = run(*call)
                    seconds[side][k].append(took)
                    totals[side] += took
            if answers[0] != answers[1]:
                print(f"error: {case.case_id}: the two sides' JSON differ", file=sys.stderr)
                return 1
        if n >= 0:
            ratios.append(totals[1] / totals[0])

    print(f"{'input':<28} {'base_s':>10} {'change_s':>10} {'ratio':>7}")
    for k, case in enumerate(cases):
        base, change = (statistics.median(seconds[side][k]) for side in (0, 1))
        print(f"{case.case_id:<28} {base:>10.4f} {change:>10.4f} {change / base:>7.3f}")
    low, high = (
        statistics.quantiles(ratios, n=4)[::2] if len(ratios) > 1 else (ratios[0], ratios[0])
    )
    print(
        f"per-pass ratio change/base: median {statistics.median(ratios):.3f}"
        f" (quartiles {low:.3f}-{high:.3f}) over {len(ratios)} passes,"
        f" {len(cases)} inputs each, byte-identical JSON"
    )
    print(f"{'input':<28} {'base_mb':>10} {'change_mb':>10} {'ratio':>7}", file=sys.stderr)
    for k, case in enumerate(cases):
        base, change = (peaks[side][k] for side in (0, 1))
        print(
            f"{case.case_id:<28} {base:>10.3f} {change:>10.3f} {change / base:>7.3f}",
            file=sys.stderr,
        )
    print(f"{'latency':<28} {'base_s':>10} {'change_s':>10} {'ratio':>7}", file=sys.stderr)
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        base, change = (percentile(sum(seconds[side], []), q) for side in (0, 1))
        print(f"{name:<28} {base:>10.4f} {change:>10.4f} {change / base:>7.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
