"""Tests of the benchmark itself: inputs, checks and the metric arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from check import ReferenceError, Tally, check_answer, validate_reference  # noqa: E402
from run import end_to_end_metrics, per_layer_metrics, percentile, run_passes  # noqa: E402
from tracing import Span, Tracer, elimination_ops, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CUBIC_BASES,
    Case,
    build,
    cubic_sweep,
    determinant,
    import_program,
    load_reference,
    substituted_text,
)

hd = import_program()
REFERENCE = load_reference()
SEGRE = dict(CUBIC_BASES)["segre-cubic"]


def solve(text: str) -> dict:
    """The parsed report `hyperdefect defect --json` prints for `text`."""
    form = hd.HomogeneousForm.from_polynomial(hd.parse_expression(text))
    return json.loads(json.dumps(hd.defect(form).as_dict()))


def test_generator_is_deterministic_for_a_seed():
    first, again, other = cubic_sweep(7), cubic_sweep(7), cubic_sweep(8)
    assert [c.text.encode() for c in first] == [c.text.encode() for c in again]
    assert [c.text for c in first] != [c.text for c in other]
    assert len(first) == 100
    assert sum(c.reference == "segre-cubic" for c in first) == 50


def test_generated_transforms_are_unimodular():
    for case in cubic_sweep(3):
        assert abs(determinant(case.transform)) == 1
        assert case.text.startswith("subst(")


def test_determinant():
    assert determinant([[2, 0], [0, 1]]) == 2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_generated_inputs_match_the_reference():
    for case in cubic_sweep(11)[:6]:
        assert check_answer(case, solve(case.text), REFERENCE) == []


def test_reference_agrees_with_published_invariants():
    validate_reference(REFERENCE, hd.get_fixture)


@pytest.mark.parametrize(
    "path, value",
    [(("defect",), 6), (("blocks", "full", "per_prime", 0, 1), 59)],
)
def test_inconsistent_reference_is_refused(path, value):
    reference = copy.deepcopy(REFERENCE)
    target = reference["cases"]["segre-cubic"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ReferenceError):
        validate_reference(reference, hd.get_fixture)


def test_transform_with_determinant_two_fails():
    transform = ((2, 0, 0, 0, 0),) + tuple(
        tuple(int(i == j) for j in range(5)) for i in range(1, 5)
    )
    case = Case("det2", substituted_text(SEGRE, transform), "segre-cubic", transform=transform)
    answer = solve(case.text)
    # the ranks survive mod p; only the unimodularity check catches it
    problems = check_answer(case, answer, REFERENCE)
    assert problems == ["transform has determinant 2, not +-1"]
    tally = Tally()
    tally.add(answer, problems)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tampered_reference_rank_fails():
    case = Case("segre", SEGRE, "segre-cubic")
    answer = solve(SEGRE)
    assert check_answer(case, answer, REFERENCE) == []
    tampered = copy.deepcopy(REFERENCE)
    for item in tampered["cases"]["segre-cubic"]["blocks"]["wedge_high"]["per_prime"]:
        item[1] = 61
    problems = check_answer(case, answer, tampered)
    assert problems == [
        "wedge_high: rank 60 mod 32633 != 61",
        "wedge_high: rank 60 mod 32647 != 61",
        "wedge_high: rank 60 mod 32653 != 61",
        "wedge_high: exact rank 60 != 61",
    ]
    tally = Tally()
    tally.add(answer, problems)
    assert (tally.attempted, tally.failed) == (1, 1)
    # an answer on fewer primes than the reference records is not accepted
    form = hd.HomogeneousForm.from_polynomial(hd.parse_expression(SEGRE))
    one_prime = hd.defect(form, hd.RankConfig(primes=(32633,))).as_dict()
    assert check_answer(case, one_prime, REFERENCE) == [
        f"{name}: primes [32633] != recorded [32633, 32647, 32653]"
        for name in ("wedge_low", "wedge_high", "full")
    ]


def test_lost_certification_fails():
    case = Case("segre", SEGRE, "segre-cubic")
    form = hd.HomogeneousForm.from_polynomial(hd.parse_expression(SEGRE))
    report = hd.defect(form, hd.RankConfig(dense_threshold=0)).as_dict()
    problems = check_answer(case, report, REFERENCE)
    assert len(problems) == 3
    assert all("certified in the reference" in p for p in problems)


def _answer(certified: bool, agreed: bool = True) -> dict:
    block = {"certified": certified, "agreed": agreed}
    return {"ranks": {name: block for name in ("wedge_low", "wedge_high", "full")}}


def test_tally_fractions():
    tally = Tally()
    tally.add(_answer(True), [])
    tally.add(_answer(False, agreed=False), [])
    tally.add(_answer(True), ["defect 4 != 5"])
    tally.add(None, ["raised"])
    assert (tally.attempted, tally.failed, tally.blocks) == (4, 2, 12)
    assert tally.failed_frac == 0.5
    assert tally.certified_blocks == 6
    assert tally.certified_frac == 0.5
    assert tally.disagree_blocks == 3
    total = tally + tally
    assert (total.attempted, total.failed, total.certified_frac) == (8, 4, 0.5)


def test_self_times_sum_to_span_durations():
    spans = [
        Span("invariants.defect", 0.0, 10.0, None, "a"),
        Span("koszul.assemble", 1.0, 2.0, 0, "a"),
        Span("ranks.multimodular", 2.0, 9.0, 0, "a"),
        Span("koszul.densify", 2.0, 2.5, 2, "a"),
        Span("ranks.modp", 3.0, 8.0, 2, "a"),
    ]
    rows = self_times(spans)
    assert rows["invariants.self_s"] == 2.0
    assert rows["ranks.self_s"] == 1.5
    assert rows["ranks.modp_s"] == 5.0
    assert sum(rows.values()) == 10.0


def test_elimination_ops_and_percentile():
    assert elimination_ops(3, 3, 2) == 2 * (2 * 2 + 1 * 1)
    assert elimination_ops(5, 5, 0) == 0
    samples = [float(i) for i in range(1, 102)]
    assert percentile(samples, 0.5) == 51.0
    assert percentile(samples, 0.9) == 91.0
    assert percentile([1.0, 3.0], 0.5) == 2.0
    assert percentile([1.0, 3.0], 0.9) == pytest.approx(2.8)
    assert percentile([3.0], 0.9) == 3.0


def test_workload_inputs():
    assert [c.case_id for c in build("quintic-pair", 0)] == [
        "quintic-16-nodes",
        "quintic-vanstraten-130",
    ]
    (sextic,) = build("sextic-285-p1", 5)
    assert sextic.primes == (32633,)
    with pytest.raises(ValueError):
        build("nope", 0)


def test_metric_names_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    cases = cubic_sweep(2)[:4]
    tracer = Tracer()
    untraced, traced, tally, traced_tally = run_passes(hd, cases, REFERENCE, 0.0, tracer)
    assert len(untraced) == len(traced) == 1
    assert tally.failed == traced_tally.failed == 0
    per_layer = per_layer_metrics(tracer, traced, untraced, traced_tally, seed=2)
    assert set(per_layer) == {m["name"] for m in declared["per_layer"]}
    assert per_layer["ranks.modp_calls"] == (4 * 3 * 3, "count")
    assert per_layer["ranks.certified_blocks"] == (12, "count")
    end_to_end = end_to_end_metrics(untraced, setup_s=0.5)
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}
    for metrics, specs in ((per_layer, "per_layer"), (end_to_end, "end_to_end")):
        for spec in declared[specs]:
            assert metrics[spec["name"]][1] == spec["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cubic-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
