"""Benchmark of the hyperdefect pipeline, end to end and per layer.

    python3 perfbench/run.py --workload cubic-sweep --seed 1 --seconds 30 --trace 0

Each input runs as `hyperdefect defect --json` would run it, through the
public library: parse and expand, `defect()`, then the JSON report.  Whole
passes over the workload repeat while the next one still fits in
`--seconds` (at least one pass).  Every answer is checked against
perfbench/reference.json.  One process, one Python thread; BLAS runs with
the library's default thread count, which is recorded, not changed.

--trace 0 reports the end-to-end metrics.  --trace 1 follows each untraced
pass with a traced one, which records spans around every layer call, and
reports the per-layer metrics per pass, a self-time table and the tracing
overhead; spans go to .perfbench/spans-<workload>-<seed>.json.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exit code 2, without that line, when hyperdefect or the reference cannot
be loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from check import ReferenceError, Tally, check_answer, validate_reference
from tracing import SELF_TIME_ROWS, Tracer, layer_counts, self_times
from workloads import ROOT, WORKLOADS, Case, build, import_program, load_reference

SETUP_PROBES = 5
MATMUL_REPEATS = 3
SPAN_DIR = ROOT / ".perfbench"


@dataclass
class Pass:
    """Timings of one pass and the answers it produced, checked afterwards."""

    wall_s: float
    latencies: list[float]
    answers: list[tuple[Case, str | None]]


def run_pass(hd, cases: list[Case], tracer: Tracer | None = None) -> Pass:
    """Parse, solve and serialize every case; an exception fails that case only."""
    parse, solve, report = _parse, hd.defect, _report
    if tracer is not None:
        parse = tracer.wrap("polynomials.parse", parse, _describe_terms)
        solve = tracer.wrap("invariants.defect", solve)
        report = tracer.wrap("cli.report", report)
    configs = {
        case.primes: hd.RankConfig() if case.primes is None else hd.RankConfig(primes=case.primes)
        for case in cases
    }
    latencies, answers = [], []
    start = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.input_id = case.case_id
        began = time.perf_counter()
        try:
            text = report(solve(parse(hd, case.text), configs[case.primes]))
        except Exception:
            traceback.print_exc()
            text = None
        latencies.append(time.perf_counter() - began)
        answers.append((case, text))
    wall = time.perf_counter() - start
    return Pass(wall, latencies, answers)


def _parse(hd, text: str):
    return hd.HomogeneousForm.from_polynomial(hd.parse_expression(text))


def _describe_terms(args, form) -> dict:
    return {"terms": len(form.poly)}


def _report(report) -> str:
    return json.dumps(report.as_dict(), indent=2)


def check_pass(result: Pass, reference: dict, tally: Tally) -> None:
    for case, text in result.answers:
        answer, problems = None, ["raised"]
        if text is not None:
            try:
                answer = json.loads(text)
                problems = check_answer(case, answer, reference)
            except (KeyError, TypeError, ValueError) as exc:
                answer, problems = None, [f"unreadable answer: {exc!r}"]
        for problem in problems:
            print(f"FAIL {case.case_id}: {problem}", file=sys.stderr)
        tally.add(answer, problems)


def run_passes(hd, cases, reference, seconds, tracer=None):
    """Whole passes while the next one still fits in `seconds` (at least one).

    With a tracer, each untraced pass is followed by a traced one, so that
    warm-up and drift fall on both sides of the overhead comparison alike.
    Returns the untraced and traced passes and their tallies.
    """
    untraced, traced = [], []
    untraced_tally, traced_tally = Tally(), Tally()
    while True:
        untraced.append(run_pass(hd, cases))
        check_pass(untraced[-1], reference, untraced_tally)
        if tracer is not None:
            tracer.install(hd)
            try:
                traced.append(run_pass(hd, cases, tracer))
            finally:
                tracer.uninstall()
            check_pass(traced[-1], reference, traced_tally)
        walls = [p.wall_s for p in untraced]
        if sum(walls) + statistics.fmean(walls) > seconds:
            return untraced, traced, untraced_tally, traced_tally


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time to import and build inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.wait(timeout=60)
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def percentile(samples: list[float], q: float) -> float:
    """Percentile by linear interpolation between order statistics, so that
    the median of two samples is their mean rather than the smaller one."""
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def matmul_seconds(shape: tuple[int, int], seed: int) -> float:
    """Median time of one float64 (rows x cols) @ (cols x cols) product."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows, cols = shape
    a = rng.integers(0, 32633, size=(rows, cols)).astype(np.float64)
    b = rng.integers(0, 32633, size=(cols, cols)).astype(np.float64)
    times = []
    for _ in range(MATMUL_REPEATS):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (library default)"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout; git does not look above the checkout for a
    repository, so a checkout without .git reads "unknown"."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict:
    latencies = [t for p in passes for t in p.latencies]
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "latency_p50_s": (percentile(latencies, 0.5), "s"),
        "latency_p90_s": (percentile(latencies, 0.9), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(tracer: Tracer, traced, untraced, traced_tally: Tally, seed: int) -> dict:
    """Per-pass layer numbers from the traced passes."""
    n = len(traced)
    traced_wall = sum(p.wall_s for p in traced) / n
    untraced_wall = sum(p.wall_s for p in untraced) / len(untraced)
    rows = {name: value / n for name, value in self_times(tracer.spans).items()}
    rows["other_s"] = traced_wall - sum(rows.values())
    counts = {name: value / n for name, value in layer_counts(tracer.spans).items()}
    b_shapes = [s.attrs["wedge_high_shape"] for s in tracer.spans if s.name == "koszul.assemble"]
    modp_s = rows["ranks.modp_s"]
    seconds = {name: (value, "s") for name, value in rows.items()}
    return {
        **seconds,
        "polynomials.terms": (counts["polynomials.terms"], "count"),
        "koszul.nnz": (counts["koszul.nnz"], "count"),
        "koszul.cells": (counts["koszul.cells"], "count"),
        "ranks.modp_s.wedge_low": (counts["ranks.modp_s.wedge_low"], "s"),
        "ranks.modp_s.wedge_high": (counts["ranks.modp_s.wedge_high"], "s"),
        "ranks.modp_s.full": (counts["ranks.modp_s.full"], "s"),
        "ranks.modp_calls": (counts["ranks.modp_calls"], "count"),
        "ranks.modp_ops": (counts["ranks.modp_ops"], "op"),
        "ranks.modp_gops": (counts["ranks.modp_ops"] / modp_s / 1e9 if modp_s else 0.0, "Gop/s"),
        "ranks.matmul_ref_s": (matmul_seconds(b_shapes[0], seed) if b_shapes else 0.0, "s"),
        "ranks.exact_calls": (counts["ranks.exact_calls"], "count"),
        "ranks.exact_cells": (counts["ranks.exact_cells"], "count"),
        "ranks.blocks": (traced_tally.blocks / n, "count"),
        "ranks.certified_blocks": (traced_tally.certified_blocks / n, "count"),
        "ranks.disagree_blocks": (traced_tally.disagree_blocks / n, "count"),
        "certified_frac": (traced_tally.certified_frac, "ratio"),
        "failed_frac": (traced_tally.failed_frac, "ratio"),
        "traced_wall_s": (traced_wall, "s"),
        "tracing.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit}")
    if "ranks.modp_ops" in metrics:
        print("  (ranks.modp_ops and ranks.modp_gops are computed from block shape and rank)")


def print_self_times(metrics: dict) -> None:
    total = metrics["traced_wall_s"][0]
    print("self time per pass (traced):")
    for name in [*SELF_TIME_ROWS.values(), "other_s"]:
        value = metrics[name][0]
        print(f"  {name:<26} {value:>12.6f} s {100 * value / total:>6.1f}%")
    print(f"  {'sum = traced wall':<26} {total:>12.6f} s")
    print(f"  {'tracing.overhead_s':<26} {metrics['tracing.overhead_s'][0]:>12.6f} s")


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([span.as_dict() for span in tracer.spans], handle)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        hd = import_program()
        reference = load_reference()
        validate_reference(reference, hd.get_fixture)
    except (ImportError, OSError, ValueError, KeyError, ReferenceError) as exc:
        print(f"error: cannot load the program or its reference: {exc}", file=sys.stderr)
        return 2

    cases = build(args.workload, args.seed)
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} inputs per pass")
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    untraced, traced, tally, traced_tally = run_passes(
        hd, cases, reference, args.seconds, tracer
    )
    if tracer is not None:
        metrics = per_layer_metrics(tracer, traced, untraced, traced_tally, args.seed)
        print_self_times(metrics)
        print(f"spans: {write_spans(tracer, args.workload, args.seed)}")
        tally = tally + traced_tally
    else:
        metrics = end_to_end_metrics(untraced, setup_s)
    samples = sum(len(p.latencies) for p in untraced)
    walls = ", ".join(f"{p.wall_s:.3f}" for p in untraced)
    print(f"{len(untraced)} untraced passes ({walls} s), {samples} latency samples")
    print_table("metrics:", metrics)
    print(f"failed_frac {tally.failed_frac:.6g}  certified_frac {tally.certified_frac:.6g}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
