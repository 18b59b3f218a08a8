"""The sparse stage's tests, rerun with blocks of a row or a few.

`_schur` forms W and each Schur complement in blocks of at most
`ranks._BLOCK_CELLS` cells; at its real size every k = 3 complement of the
corpus but the sextics' fits in one block.  Here the bound is 256 cells:
one row of every corpus complement, a few rows of the small random
matrices, so every range spans many blocks and quintic-130's complement
turns dense part-way through.  The tests imported below run unchanged
under that bound, and must find the same profiles, kernels, rounds and
dense shapes.
"""

import pytest

from hyperdefect import ranks
from hyperdefect.fixtures import get_fixture
from hyperdefect.koszul import assemble_phi
from hyperdefect.ranks import DEFAULT_PRIMES
from test_golden_kernels import test_kernels_match_golden  # noqa: F401
from test_ranks import (  # noqa: F401
    sextic_blocks,
    test_corpus_rounds_stop_at_a_dense_or_empty_complement,
    test_rounds_keep_the_profile_and_the_kernel_on_sparse_matrices,
    test_sextic_full_repeats_rounds_while_its_schur_complement_stays_sparse,
)

SMALL_BLOCK_CELLS = 256


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(ranks, "_BLOCK_CELLS", SMALL_BLOCK_CELLS)


def test_quintic_complement_turns_dense_part_way(monkeypatch):
    # the 772x824 complement, 21.9% nonzero, passes the fill part-way: the
    # blocks before keep only their entries, and only the last block and
    # the rows after it are reduced whole, as one dense array
    full = assemble_phi(get_fixture("quintic-vanstraten-130").build(), 3).full
    reduced, dense = [], []
    real_reduce, real_eliminate = ranks._reduce_rows, ranks._eliminate

    def reduce_rows(x, p):
        reduced.append(x.shape)
        return real_reduce(x, p)

    def eliminate(array, *args):
        dense.append(array.shape)
        return real_eliminate(array, *args)

    monkeypatch.setattr(ranks, "_reduce_rows", reduce_rows)
    monkeypatch.setattr(ranks, "_eliminate", eliminate)
    assert len(ranks._echelon(full, DEFAULT_PRIMES[0])[0]) == 896
    assert dense == [(772, 824)]
    (last, width), (after, _) = reduced
    assert width == 824 and last == 1 and 0 < after < 771
