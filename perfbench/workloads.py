"""Workload inputs and the reference answers they are checked against.

A workload is a list of `Case`s.  The program under test only ever sees
`Case.text`; the rest (which reference answer applies, and for generated
inputs the coordinate change that produced the text) stays with the
benchmark so every answer can be checked exactly.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = Path(__file__).with_name("reference.json")

VARIABLES = ("x", "y", "z", "u", "v")
SEXTIC_PRIMES = (32633,)  # the `--primes 1` setting

# cubic-sweep bases: (reference key, expression).  The Segre cubic has
# defect 5, the smooth Fermat cubic defect 0.
CUBIC_BASES = (
    ("segre-cubic", "(x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3)"),
    ("fermat-cubic", "x^3+y^3+z^3+u^3+v^3"),
)
CUBIC_SWEEP_SIZE = 100

WORKLOADS = ("quintic-pair", "sextic-285-p1", "cubic-sweep")


@dataclass(frozen=True)
class Case:
    """One hypersurface: the text the program parses plus how to check it."""

    case_id: str
    text: str
    reference: str  # key into reference.json
    primes: tuple[int, ...] | None = None  # None: the library's default primes
    transform: tuple[tuple[int, ...], ...] | None = None  # cubic-sweep only


def unitriangular(rng: random.Random, n: int, lower: bool) -> list[list[int]]:
    """n x n matrix with ones on the diagonal and entries in {-1, 0, 1} on
    one side of it."""
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j < i) if lower else (j > i):
                matrix[i][j] = rng.choice((-1, 0, 1))
    return matrix


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular_transform(rng: random.Random, n: int = 5) -> tuple[tuple[int, ...], ...]:
    """Row permutation of L*U, L and U unitriangular: determinant +-1."""
    product = matmul(unitriangular(rng, n, lower=True), unitriangular(rng, n, lower=False))
    order = list(range(n))
    rng.shuffle(order)
    return tuple(tuple(product[i]) for i in order)


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    sign, previous = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def linear_form(row) -> str:
    """Render sum(c_j * var_j) as expression text, e.g. 'x-2*z+v'."""
    text = ""
    for c, name in zip(row, VARIABLES):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if text else "")
        magnitude = "" if abs(c) == 1 else f"{abs(c)}*"
        text += f"{sign}{magnitude}{name}"
    return text


def substituted_text(base: str, transform) -> str:
    """`subst(base, x, L1, ..., v, L5)` where L_i is row i of the transform."""
    pairs = ",".join(f"{name},{linear_form(row)}" for name, row in zip(VARIABLES, transform))
    return f"subst({base},{pairs})"


def cubic_sweep(seed: int) -> list[Case]:
    """Seeded stream of Segre and Fermat cubics under unimodular coordinate
    changes.  The mix is fixed (half of each, shuffled) so that only the
    transforms and the order vary with the seed."""
    rng = random.Random(seed)
    bases = [CUBIC_BASES[i % len(CUBIC_BASES)] for i in range(CUBIC_SWEEP_SIZE)]
    rng.shuffle(bases)
    cases = []
    for i, (key, expression) in enumerate(bases):
        transform = unimodular_transform(rng)
        cases.append(
            Case(f"{key}#{i}", substituted_text(expression, transform), key, transform=transform)
        )
    return cases


def import_program():
    """Import hyperdefect from the checkout's own src/, never an installed copy."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import hyperdefect

    if source.resolve() not in Path(hyperdefect.__file__).resolve().parents:
        raise ImportError(f"hyperdefect was imported from {hyperdefect.__file__}, not {source}")
    return hyperdefect


def build(workload: str, seed: int) -> list[Case]:
    """The inputs of one pass.  Only cubic-sweep depends on the seed."""
    from hyperdefect import get_fixture

    if workload == "quintic-pair":
        names = ("quintic-16-nodes", "quintic-vanstraten-130")
        return [Case(name, get_fixture(name).expression, name) for name in names]
    if workload == "sextic-285-p1":
        name = "sextic-285-nodes"
        return [Case(name, get_fixture(name).expression, name, primes=SEXTIC_PRIMES)]
    if workload == "cubic-sweep":
        return cubic_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
