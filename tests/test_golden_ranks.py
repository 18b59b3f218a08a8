"""Every block's rank report on the corpus, pinned.

`golden/rank-reports.json` holds `RankReport.as_dict()` of the three
blocks of `e2_piece` for every fixture at k = 2, 3 and 4 under three
rank configurations, or the refusal as "<class>: <message>".  A change
to the rank engine must leave every entry as it is; a change that alters
a report on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_ranks.py
"""

import json
from pathlib import Path

from hyperdefect.fixtures import FIXTURES
from hyperdefect.invariants import e2_piece
from hyperdefect.ranks import RankBudgetError, RankConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "rank-reports.json"
MULTIPLIERS = (2, 3, 4)
CONFIGS = {
    "default": RankConfig(),
    "exact": RankConfig(exact=True),
    "primes=2,3,5": RankConfig(primes=(2, 3, 5)),
}


def rank_reports() -> dict:
    reports = {}
    for fixture in FIXTURES:
        form = fixture.build()
        for k in MULTIPLIERS:
            for name, config in CONFIGS.items():
                try:
                    e2 = e2_piece(form, k, config)
                except RankBudgetError as error:
                    entry = f"{type(error).__name__}: {error}"
                else:
                    entry = {block: r.as_dict() for block, r in e2.rank_reports.items()}
                reports[f"{fixture.name} k={k} {name}"] = entry
    return reports


def render(reports: dict) -> str:
    return json.dumps(reports, indent=1) + "\n"


def test_rank_reports_match_golden():
    assert render(rank_reports()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(rank_reports()))
