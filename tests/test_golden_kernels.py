"""Every fixture's reduced-echelon kernel mod p, pinned by its digest.

`golden/kernels.json` holds, for `full` and `wedge_low` of every fixture
at k = 3, the sha256 of the column rank profile and the kernel that
`ranks._echelon(block, p, True)` returns, at the default prime 32633 and
at the first lift prime 11863279, the largest prime accepted (delay 1).
Each is a property of the matrix: the reduced-echelon kernel of a profile
is unique, so any correct engine reproduces every digest.  A change that
alters one on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden_kernels.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from hyperdefect.fixtures import FIXTURES
from hyperdefect.koszul import assemble_phi
from hyperdefect.ranks import _LIFT_PRIME, PRIME_TABLE, _echelon

GOLDEN = Path(__file__).resolve().parent / "golden" / "kernels.json"
PRIMES = (PRIME_TABLE[0], _LIFT_PRIME)
BLOCKS = ("full", "wedge_low")


def digest(profile: tuple[int, ...], kernel: np.ndarray | None) -> str:
    """sha256 of the profile and of the kernel as int64, with its shape."""
    h = hashlib.sha256(np.array(profile, dtype=np.int64).tobytes())
    if kernel is not None:
        h.update(np.array(kernel.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(kernel, dtype=np.int64).tobytes())
    return h.hexdigest()


def kernel_digests() -> dict:
    digests = {}
    for fixture in FIXTURES:
        phi = assemble_phi(fixture.build(), 3)
        for block in BLOCKS:
            for p in PRIMES:
                digests[f"{fixture.name} {block} p={p}"] = digest(
                    *_echelon(getattr(phi, block), p, True)
                )
    return digests


def render(digests: dict) -> str:
    return json.dumps(digests, indent=1) + "\n"


def test_kernels_match_golden():
    assert render(kernel_digests()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(kernel_digests()))
