"""Checking answers against the reference, and the failure/certification tally.

An answer is the parsed JSON report `hyperdefect defect --json` prints.  It is
accepted when its defect, gamma and every per-prime block rank equal the
reference, over exactly the primes the reference records (so a run on
fewer primes does not pass), when every block the reference certifies is
still certified,
and, for generated inputs, when the coordinate change behind the text is
unimodular (the precondition that makes the reference apply to it).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from workloads import Case, determinant

BLOCKS = ("wedge_low", "wedge_high", "full")


class ReferenceError(Exception):
    """The reference file contradicts the published invariants."""


def block_rank(block: dict) -> int:
    """The one rank every recorded prime agrees on."""
    ranks = {r for _, r in block["per_prime"]}
    if len(ranks) != 1:
        raise ReferenceError(f"reference primes disagree: {block['per_prime']}")
    return ranks.pop()


def validate_reference(reference: dict, fixtures) -> None:
    """Cross-check every reference entry before any answer is judged.

    The stored defect and gamma must equal the published ones (from
    `fixtures`, a name -> Fixture lookup, or stated in the entry), and the
    stored ranks must reproduce the defect through the E2 count
    defect = cols(B) - gamma - rank(full) + rank(A).
    """
    for key, entry in reference["cases"].items():
        published = entry["published"]
        if "fixture" in published:
            fixture = fixtures(published["fixture"])
            expected = (fixture.defect, fixture.gamma)
        else:
            expected = (published["defect"], published["gamma"])
        if (entry["defect"], entry["gamma"]) != expected:
            raise ReferenceError(
                f"{key}: reference defect/gamma {entry['defect']}/{entry['gamma']} "
                f"!= published {expected[0]}/{expected[1]}"
            )
        blocks = entry["blocks"]
        from_ranks = (
            blocks["wedge_high"]["cols"]
            - entry["gamma"]
            - block_rank(blocks["full"])
            + block_rank(blocks["wedge_low"])
        )
        if from_ranks != entry["defect"]:
            raise ReferenceError(f"{key}: ranks give defect {from_ranks}, not {entry['defect']}")


def check_answer(case: Case, answer: dict, reference: dict) -> list[str]:
    """Problems with one parsed answer; an empty list means it is correct."""
    problems = []
    if case.transform is not None and abs(determinant(case.transform)) != 1:
        problems.append(f"transform has determinant {determinant(case.transform)}, not +-1")
    expected = reference["cases"][case.reference]
    for key in ("defect", "gamma"):
        if answer[key] != expected[key]:
            problems.append(f"{key} {answer[key]} != {expected[key]}")
    for name in BLOCKS:
        want = expected["blocks"][name]
        got = answer["ranks"][name]
        recorded = dict(want["per_prime"])
        rank = block_rank(want)
        primes = sorted(item["prime"] for item in got["per_prime"])
        if primes != sorted(recorded):
            problems.append(f"{name}: primes {primes} != recorded {sorted(recorded)}")
        for item in got["per_prime"]:
            target = recorded.get(item["prime"])
            if target is not None and item["rank"] != target:
                problems.append(f"{name}: rank {item['rank']} mod {item['prime']} != {target}")
        if got["exact_rank"] is not None and got["exact_rank"] != rank:
            problems.append(f"{name}: exact rank {got['exact_rank']} != {rank}")
        if want["certified"] and not got["certified"]:
            problems.append(f"{name}: certified in the reference but not here")
    return problems


@dataclass
class Tally:
    """Inputs and blocks attempted, and how many failed or were certified."""

    attempted: int = 0
    failed: int = 0
    blocks: int = 0
    certified_blocks: int = 0
    disagree_blocks: int = 0

    def add(self, answer: dict | None, problems: list[str]) -> None:
        """Count one input; `answer` is None when the input raised."""
        self.attempted += 1
        self.blocks += len(BLOCKS)
        if answer is None or problems:
            self.failed += 1
        if answer is None:
            return
        ranks = answer["ranks"]
        self.certified_blocks += sum(bool(ranks[name]["certified"]) for name in BLOCKS)
        self.disagree_blocks += sum(not ranks[name]["agreed"] for name in BLOCKS)

    def __add__(self, other: "Tally") -> "Tally":
        return Tally(**{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)})

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def certified_frac(self) -> float:
        return self.certified_blocks / self.blocks
