"""Every expansion the expression parser makes of the corpus and of a
fixed set of `subst` inputs, pinned.

`golden/expansions.json` holds, for every input text, the sha256 of
`emit_term_list(parse_expression(text))`: the 8 fixtures, nested and
zero-bound substitutions, and cubics under unimodular coordinate changes
drawn from a fixed seed.  A change to the parser must leave every digest
as it is; a change that alters an expansion on purpose regenerates the
file and says why:

    PYTHONPATH=src python tests/test_golden_expansions.py
"""

import hashlib
import json
import random
from pathlib import Path

from helpers import coordinate_change, unimodular_rows
from hyperdefect.fixtures import FIXTURES
from hyperdefect.polynomials import emit_term_list, parse_expression

GOLDEN = Path(__file__).resolve().parent / "golden" / "expansions.json"
SUBSTITUTIONS = {
    "rename": "subst(x*y, x, u, y, v)",
    "swap": "subst(x*y, x, y, y, x)",
    "simultaneous": "subst(x^2*y, x, y, y, z)",
    "constants": "subst(3*x^2-2*y*z+v^2, x, 2, y, -1)",
    "zero-bound": "subst((x+y+z+u+v)^4, x, 0, y, 0)",
    "all-but-one-zero": "subst(x^3+y^3+z^3+u^3+v^3, x, 0, y, 0, z, 0, u, 0)",
    "vanishing": "(x-y)^2*subst((x+y)^3, y, -x)",
    "nested-target": "subst(subst(x*y+z^2, x, y+z), y, u-v)",
    "nested-value": "subst(x^2*y, x, subst(y+z, z, u), y, z)",
    "nested-chain": "subst(subst(subst(x+2*y, x, y), y, z), z, x)^3",
    "nested-deep": "subst(x, x, subst(y, y, subst(z, z, u)))",
    "negated": "-subst(-(x+y)^2, x, -y, y, -x)",
    "binomial": "subst(x^5-y^5, x, x+y, y, x-y)",
    "powers": "subst((x-2*y)^3*(z+u)^2, x, y+v, z, 2*x-u)",
}
CUBICS = ("(x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3)", "x^3+y^3+z^3+u^3+v^3")
SEED = 16


def expansion_inputs() -> dict[str, str]:
    inputs = {fixture.name: fixture.expression for fixture in FIXTURES}
    inputs.update(SUBSTITUTIONS)
    rng = random.Random(SEED)
    for i in range(26):
        inputs[f"cubic-{i}"] = coordinate_change(CUBICS[i % 2], unimodular_rows(rng, 5))
    return inputs


def digest(text: str) -> str:
    return hashlib.sha256(emit_term_list(parse_expression(text))).hexdigest()


def expansions() -> dict:
    inputs = expansion_inputs()
    return {name: {"text": text, "sha256": digest(text)} for name, text in inputs.items()}


def render(digests: dict) -> str:
    return json.dumps(digests, indent=1) + "\n"


def test_expansions_match_golden():
    assert render(expansions()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(expansions()))
