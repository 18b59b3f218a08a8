import tracemalloc
from collections import Counter
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    from_entries,
    max_quotient_denominator,
    rational_rank,
    rowreduce_rank,
    sparse_from_dense,
)
from hyperdefect.fixtures import get_fixture
from hyperdefect.invariants import defect
from hyperdefect import ranks
from hyperdefect.koszul import assemble_phi
from hyperdefect.polynomials import HomogeneousForm, parse_expression
from hyperdefect.ranks import (
    _PANEL,
    DEFAULT_PRIMES,
    PRIME_TABLE,
    EXACT_CELL_BUDGET,
    RankBudgetError,
    RankConfig,
    RankInvariantError,
    RankReport,
    _kernel,
    _reduce,
    rank_exact,
    rank_mod_p,
    rank_multimodular,
)

BLOCKED_PRIMES = (2, 3, 32749, 524287)
WIDE_PRIME = 11863279  # the largest prime RankConfig accepts
# the largest primes at delays 2, 3 and 4: entries absorb that many panel
# products, up to just under 2**53, before they are reduced
DELAY_PRIMES = (8388593, 6849247, 5931641)
LEAF = 8  # a few columns: the matrices below reach just short of and past it


small_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda r: st.integers(min_value=1, max_value=7).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


dims = st.integers(min_value=1, max_value=4)


def test_prime_table_is_prime_and_fifteen_bit():
    from hyperdefect.ranks import _is_prime

    for p in PRIME_TABLE:
        assert _is_prime(p)
        assert p.bit_length() == 15
    assert DEFAULT_PRIMES == PRIME_TABLE[:3]


def test_trial_division_agrees_with_a_sieve_and_at_the_top_of_its_range():
    sieve = np.ones(1 << 16, dtype=bool)
    sieve[:2] = False
    for q in range(2, 1 << 8):
        if sieve[q]:
            sieve[q * q :: q] = False
    assert [n for n in range(1 << 16) if ranks._is_prime(n)] == np.flatnonzero(sieve).tolist()
    # 3433**2 has its only factor at exactly isqrt(n), the last divisor tried
    assert ranks._is_prime(WIDE_PRIME) and ranks._is_prime(11863289)
    for n in (3433**2, 3433 * 3449):
        assert not ranks._is_prime(n)


def test_residues_are_float64_in_one_to_p():
    # 2**70 + 1 takes the Python-int pass; without it, the int64 pass
    values = [2**70 + 1, -(2**70), 7, -1, WIDE_PRIME, 2 * WIDE_PRIME + 5, 2**62]
    for entries in (values, values[2:]):
        sparse = from_entries(1, len(entries), [(0, c, x) for c, x in enumerate(entries)])
        for p in (2, WIDE_PRIME):
            _, c, v = ranks._residues(sparse, p)
            assert v.dtype == np.float64
            assert v.tolist() == [entries[j] % p for j in c.tolist()]
            assert c.tolist() == [j for j, x in enumerate(entries) if x % p]
            assert ((1 <= v) & (v < p)).all()


def test_identity_and_zero():
    identity = sparse_from_dense(np.eye(3, dtype=np.int64))
    for p in (2, 3, 32749):
        assert rank_mod_p(identity, p) == 3
    assert rank_mod_p(from_entries(4, 5, ()), 7) == 0


def test_bad_prime_drops_rank():
    two = sparse_from_dense([[2]])
    assert rank_mod_p(two, 2) == 0
    assert rank_mod_p(two, 3) == 1
    assert rank_exact(two) == 1


def test_multimodular_bad_prime_demonstration():
    report = rank_multimodular(sparse_from_dense([[2]]), RankConfig(primes=(2, 3, 5)))
    assert dict(report.per_prime) == {2: 0, 3: 1, 5: 1}
    assert report.consensus == 1
    assert report.agreed is False


def test_empty_matrix_report():
    report = rank_multimodular(from_entries(0, 5, ()))
    assert report.consensus == 0
    assert report.agreed is True
    assert report.certified is True


def test_vandermonde_and_rank_one():
    vandermonde = sparse_from_dense([[1, 1, 1], [1, 2, 4], [1, 3, 9]])
    assert rank_exact(vandermonde) == 3
    assert rank_exact(sparse_from_dense([[1, 2], [2, 4]])) == 1


def test_methods_cross_panel_boundaries():
    # 300 columns exercise panel handoff, the triangular solve and the GEMM
    rng = np.random.RandomState(7)
    left = rng.randint(-4, 5, size=(220, 60)).astype(np.int64)
    right = rng.randint(-4, 5, size=(60, 300)).astype(np.int64)
    product = sparse_from_dense(left @ right)  # rank <= 60
    for p in BLOCKED_PRIMES:
        rank = rank_mod_p(product, p)
        assert rank == rowreduce_rank(product, p)
        assert rank <= 60
    assert rank_mod_p(product, WIDE_PRIME) == rank_mod_p(product, 32749)
    # rank 150 puts pivots in three panels: the pivot rows of the second hold
    # the first panel's unreduced product when they are solved
    deep = rng.randint(-4, 5, size=(200, 150)) @ rng.randint(-4, 5, size=(150, 260))
    deep = sparse_from_dense(deep)
    for p in BLOCKED_PRIMES + (WIDE_PRIME,):
        assert rank_mod_p(deep, p) == rowreduce_rank(deep, p)


def _low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(-3, 4, size=(rows, rank))
    return left @ rng.integers(-3, 4, size=(rank, cols))


def _empty_left_half(p):
    # the first half of a panel, and a few columns past it, hold only zeros
    matrix = _low_rank(60, 2 * _PANEL, 30, 10)
    matrix[:, : _PANEL // 2 + LEAF] = 0
    return matrix


def _dependent_mid_panels(p):
    # one column in the middle of each of the first two panels depends on
    # earlier ones, and pivots follow it with rows to spare
    matrix = np.random.default_rng(11).integers(-3, 4, size=(2 * _PANEL + 20, 2 * _PANEL + 1))
    matrix[:, 20] = matrix[:, 3] + matrix[:, 7]
    matrix[:, _PANEL + 20] = matrix[:, 30] - matrix[:, _PANEL + 5]
    return matrix


def _rotated_staircase(p):
    # the dense engine sees a staircase on 2*_PANEL - 1 columns with two
    # dependent columns inserted, one in the middle of each of the first
    # two panels, and 20 rows to spare below.  Within each panel's pivots
    # the staircase rows are rotated by one, so that row i leads in the
    # column of pivot i + 1 and the panel's last row in that of its first:
    # each pivot of the first two panels but their last lies below the
    # rows pivoted before it, so 62 of the 63 swap rows
    n = 2 * _PANEL - 1
    rng = np.random.default_rng(12)
    staircase = np.triu(rng.integers(-3, 4, size=(n, n)))
    np.fill_diagonal(staircase, 1)
    order = np.arange(n)
    for lo in (0, _PANEL - 1):
        order[lo : lo + _PANEL - 1] = np.roll(order[lo : lo + _PANEL - 1], -1)
    rows = np.vstack([staircase[order], rng.integers(-3, 4, size=(20, n))])
    rows = np.insert(rows, [20, _PANEL + 19], 0, axis=1)
    rows[:, 20] = rows[:, 3] + rows[:, 7]
    rows[:, _PANEL + 20] = rows[:, 30] - rows[:, _PANEL + 5]
    # under a first row e0 and beside a column of ones: the one structural
    # pivot is e0, and its Schur complement is the staircase as it stands
    matrix = np.zeros((len(rows) + 1, n + 3), dtype=np.int64)
    matrix[:, 0], matrix[0, 0], matrix[1:, 1:] = 1, 1, rows
    return matrix


RECURSION_EDGES = {
    "cols-1": lambda p: _low_rank(30, 1, 1, 1),
    "cols-leaf-1": lambda p: _low_rank(30, LEAF - 1, 5, 2),
    "cols-leaf+1": lambda p: _low_rank(30, LEAF + 1, 6, 3),
    "cols-panel-1": lambda p: _low_rank(50, _PANEL - 1, 40, 4),
    "cols-panel": lambda p: _low_rank(50, _PANEL, 40, 5),
    "cols-panel+1": lambda p: _low_rank(50, _PANEL + 1, 40, 6),
    "cols-2panel+1": lambda p: _low_rank(70, 2 * _PANEL + 1, 50, 7),
    "empty-left-half": _empty_left_half,
    # rows run out inside the first half of a panel, and inside the second half
    "rows-run-out-left": lambda p: _low_rank(20, 2 * _PANEL + 1, 20, 8),
    "rows-run-out-right": lambda p: _low_rank(40, _PANEL + 1, 40, 9),
    "dependent-mid-panels": _dependent_mid_panels,
    "rotated-staircase": _rotated_staircase,
    "all-p-minus-1": lambda p: np.full((2 * _PANEL + 2, 2 * _PANEL + 1), p - 1, dtype=np.int64),
}


def _assert_profile_and_kernel(matrix, p):
    """The profile mod p of a dense array is the one its leading column
    blocks' ranks give, and the kernel mod p that a certified elimination
    returns, with the identity on the free columns, is annihilated mod p."""
    cols = matrix.shape[1]
    prefix = [rowreduce_rank(matrix[:, :k], p) for k in range(cols + 1)]
    expected = tuple(k for k in range(cols) if prefix[k + 1] > prefix[k])
    assert rank_mod_p(sparse_from_dense(matrix), p) == len(expected)
    profile, kernel = ranks._echelon(sparse_from_dense(matrix), p, True)
    assert profile == expected
    pivots, free = ranks._split_columns(profile, cols)
    if not len(free):
        assert kernel is None  # full column rank: nothing to lift
        return
    assert kernel.shape == (len(profile), len(free))
    assert ((0 <= kernel) & (kernel < p)).all()
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[pivots] = kernel
    basis[free, np.arange(len(free))] = 1
    residues = np.array([[v % p for v in row] for row in matrix.tolist()], dtype=np.int64)
    high, low = divmod(basis, 1 << 16)  # keeps every int64 sum below 2**63
    assert not ((residues @ high % p * (1 << 16) + residues @ low) % p).any()


@pytest.mark.parametrize("p", BLOCKED_PRIMES + DELAY_PRIMES + (WIDE_PRIME,))
@pytest.mark.parametrize("case", sorted(RECURSION_EDGES))
def test_recursive_panel_keeps_the_column_rank_profile(case, p):
    _assert_profile_and_kernel(RECURSION_EDGES[case](p), p)


STAGE_PRIMES = (2, 3, 32633, DELAY_PRIMES[0], WIDE_PRIME)


@st.composite
def structured_matrices(draw, p):
    """Small object arrays whose rows stress the structural pivots: many
    rows share a leading column, leading entries may be divisible by p,
    rows may be zero or repeat an earlier row, and staircase rows make
    pivot rows reach each other's pivot columns (chains inside U11)."""
    cols = draw(st.integers(min_value=1, max_value=10))
    value = st.sampled_from((1, -1, 2, p - 1, p, -p, 2 * p, p + 1, 2**70 + 1))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from(("shared", "stair", "zero", "repeat")))
        row = [0] * cols
        if kind == "repeat" and rows:
            row = list(rows[draw(st.integers(min_value=0, max_value=len(rows) - 1))])
        elif kind == "stair":
            lead = draw(st.integers(min_value=0, max_value=cols - 1))
            for c in range(lead, min(lead + 2, cols)):
                row[c] = draw(value)
        elif kind == "shared":
            lead = draw(st.integers(min_value=0, max_value=min(2, cols - 1)))
            for c in range(lead, cols):
                if c == lead or draw(st.booleans()):
                    row[c] = draw(value)
        rows.append(row)
    return np.array(rows, dtype=object)


def _first_split(matrix, p):
    """The first round of structural pivots of a dense array mod p."""
    sparse = sparse_from_dense(matrix)
    entries = ranks._residues(sparse, p)
    return ranks._split(sparse.rows, sparse.cols, *entries, p)


stage_cases = st.sampled_from(STAGE_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), structured_matrices(p))
)


@given(stage_cases)
@example((3, np.array([[3, 0, 6], [0, 1, 2], [0, 0, 0], [1, 0, 1]], dtype=object)))
@settings(max_examples=150, deadline=None)
def test_structural_pivots_keep_the_profile_and_the_echelon_rows(case):
    p, matrix = case
    _assert_profile_and_kernel(matrix, p)
    # rows are numbered level by level: a row in range k of the bounds
    # reaches only pivots of lower levels, which W holds before range k
    split = _first_split(matrix, p)
    rows, reached, _ = split.left
    level = np.searchsorted(split.bounds, rows, "right") - 1
    assert (reached < split.bounds[level]).all()
    # a row with no entry nonzero mod p is dropped
    assert split.bounds[-1] == np.count_nonzero((matrix % p != 0).any(axis=1))


@pytest.mark.parametrize("p", [DELAY_PRIMES[0], WIDE_PRIME])
def test_sparse_sums_regroup_within_the_kernel_bound(p):
    # a pivot row and a tail row that both lead in column 0 and fill every
    # column with p - 1, over a staircase of pivot rows: both take more
    # products per row than one exact sum holds at these primes
    step = _PANEL * _kernel(p)
    n = step + 6
    matrix = np.zeros((n + 1, n + 1), dtype=object)
    matrix[0] = matrix[n] = p - 1
    for k in range(1, n):
        matrix[k, k : k + 2] = p - 1, 1
    split = _first_split(matrix, p)
    on_pivots = np.bincount(split.left[0], minlength=split.bounds[-1])
    # pivot row 0 reaches every other pivot row, so it is the last of them
    assert on_pivots[len(split.pivots) - 1] > step  # off its diagonal
    assert on_pivots[-1] > step  # the one tail row
    _assert_profile_and_kernel(matrix, p)


@pytest.mark.parametrize("p", [2, 3, 32633, WIDE_PRIME])
def test_entries_reduce_only_the_cells_nonzero_mod_p(p):
    # an unreduced block as `_schur` leaves it: integers down to the most
    # negative value a sparse product forms, some of them multiples of p
    largest = _PANEL * _kernel(p) * (p - 1) ** 2
    cells = [0, -p, 2 * p, p + 1, p - 1, 0, -1, -(p + 1), 1, -largest, -largest + 1]
    cells += [-(largest // p) * p, -(largest // p) * p + 1, largest - p, 0, p * (p - 1)]
    block = np.array(cells, dtype=np.float64).reshape(4, 4)
    assert block.astype(object).ravel().tolist() == cells  # every cell is exact
    expected = [(k // 4, k % 4, x % p) for k, x in enumerate(cells) if x % p]
    for nonzero in (None, block != 0):
        i, j, v = ranks._entries(block, p, nonzero)
        assert v.dtype == np.float64
        assert list(zip(i.tolist(), j.tolist(), v.tolist())) == expected  # row-major
        assert ((1 <= v) & (v < p)).all()


def _spy_rounds(monkeypatch):
    """Record the pivot count of every round of structural pivots, and the
    shape of every array the dense engine eliminates."""
    rounds, dense = [], []
    real_schur, real_eliminate = ranks._schur, ranks._eliminate

    def schur(split, *args):
        rounds.append(len(split.pivots))
        return real_schur(split, *args)

    def eliminate(array, *args):
        dense.append(array.shape)
        return real_eliminate(array, *args)

    monkeypatch.setattr(ranks, "_schur", schur)
    monkeypatch.setattr(ranks, "_eliminate", eliminate)
    return rounds, dense


def _sparse_random(rng, p):
    """Up to 60x60 with at most 5% of its cells nonzero, values that may
    vanish mod p, and some rows repeated, so that rows share leading
    columns and complements keep rows that vanish or share leads again."""
    values = (1, -1, 2, 3, p - 1, p, -p, 2 * p, p + 1, 2**70 + 1)
    while True:
        rows, cols = rng.integers(1, 61, size=2)
        matrix = np.zeros((rows, cols), dtype=object)
        count = rng.integers(1, rows * cols // 20 + 2)
        # rows and columns drawn towards the first: long rows, and many
        # rows that share a leading column
        at = [(n * rng.random(count) ** 2).astype(int) for n in (rows, cols)]
        matrix[tuple(at)] = [values[i] for i in rng.integers(len(values), size=count)]
        repeats = rng.integers(rows, size=rng.integers(rows // 4 + 1))
        matrix[rng.integers(rows, size=len(repeats))] = matrix[repeats]
        if 20 * np.count_nonzero(matrix) <= matrix.size:
            return matrix


def test_rounds_keep_the_profile_and_the_kernel_on_sparse_matrices(monkeypatch):
    rounds, dense = _spy_rounds(monkeypatch)
    taken = Counter()
    for p in STAGE_PRIMES:
        rng = np.random.default_rng(p)
        for _ in range(60):
            matrix = _sparse_random(rng, p)
            rounds.clear(), dense.clear()
            _assert_profile_and_kernel(matrix, p)  # two eliminations
            taken[sum(1 for n in rounds if n) // 2, dense[0][0] > 0] += 1
    # rounds that find a pivot, and whether the dense engine still sees
    # rows: most remainders are empty, some follow two rounds
    several = sum(n for (found, _), n in taken.items() if found >= 2)
    assert several >= 60 and taken[3, False] and taken[2, True]


@pytest.mark.parametrize("p", STAGE_PRIMES)
def test_rounds_stop_without_a_pivot_and_past_an_empty_complement(p, monkeypatch):
    rounds, dense = _spy_rounds(monkeypatch)
    # every entry vanishes mod p: the one round finds no pivot and drops
    # both rows, which hold no entry, so the dense engine sees no rows
    _assert_profile_and_kernel(np.array([[p, 0, -p], [0, 2 * p, 0]], dtype=object), p)
    assert rounds == [0, 0] and dense == [(0, 3), (0, 3)]
    rounds.clear(), dense.clear()
    # the second row repeats the first: its 1x1 complement is all zero, so
    # its row is dropped and the next round, on no rows, finds no pivot
    _assert_profile_and_kernel(np.array([[1, 1], [1, 1]], dtype=object), p)
    assert rounds == [1, 0] * 2 and dense == [(0, 1)] * 2
    # every cell of the 1x4 complement is 1 - (p-1)**2: nonzero before it
    # is reduced, 0 mod p, so it is counted again and the next round sees
    # no rows, as a count of the reduced cells decides
    rows = np.array([[1] + [p - 1] * 4, [p - 1] + [1] * 4], dtype=object)
    rounds.clear(), dense.clear()
    _assert_profile_and_kernel(rows, p)
    assert rounds == [1, 0] * 2 and dense == [(0, 4)] * 2
    # e0 + e1, e0 + e2, e0 + e3 beside 100 zero columns, so that every
    # complement stays sparse: one pivot a round, the third leaves no rows
    chain = np.zeros((3, 104), dtype=object)
    chain[:, 0] = chain[[0, 1, 2], [1, 2, 3]] = 1
    rounds.clear(), dense.clear()
    _assert_profile_and_kernel(chain, p)
    assert rounds == [1, 1, 1, 0] * 2 and dense == [(0, 101)] * 2


@pytest.fixture(scope="module")
def sextic_blocks():
    return assemble_phi(get_fixture("sextic-285-nodes").build(), 3)


def _certified_rank(matrix, p):
    """Rank mod p of a corpus block from a certified elimination, whose
    kernel, extended back through every round, must be annihilated."""
    profile, kernel = ranks._echelon(matrix, p, True)
    pivots, free = ranks._split_columns(profile, matrix.cols)
    basis = np.zeros((matrix.cols, len(free)))
    basis[pivots], basis[free, np.arange(len(free))] = kernel, 1
    residues = np.zeros((matrix.rows, matrix.cols))
    residues[matrix.r, matrix.c] = matrix.v % p
    assert not (residues @ basis % p).any()  # every sum stays below 2**53
    return len(profile)


def test_sextic_full_repeats_rounds_while_its_schur_complement_stays_sparse(
    sextic_blocks, monkeypatch
):
    # 923 structural pivots leave a 1627x1787 complement 1.2% nonzero, and
    # every later complement is at most 5.2% nonzero: the rounds find all
    # 2160 pivots, the tenth leaves 9 rows zero, and the eleventh none
    rounds, dense = _spy_rounds(monkeypatch)
    assert _certified_rank(sextic_blocks.full, DEFAULT_PRIMES[0]) == 2160
    assert rounds == [923, 719, 313, 110, 43, 26, 15, 7, 3, 1, 0]
    assert dense == [(0, 550)]


@pytest.mark.parametrize(
    "name, rank, expected_rounds, expected_dense",
    [
        # the rounds find every pivot; the sixth leaves its 20 rows zero
        ("sextic-90-points", 2170, [1066, 699, 271, 80, 45, 9, 0], [(0, 540)]),
        # complements 6.9% and then 12.3% nonzero: a second round, then dense
        ("quintic-vgw-118a", 906, [565, 113], [(356, 449)]),
        # complements 21.9% and 21% nonzero go straight to the dense engine
        ("quintic-vanstraten-130", 896, [303], [(772, 824)]),
        ("segre-cubic", 60, [25], [(50, 50)]),
    ],
)
def test_corpus_rounds_stop_at_a_dense_or_empty_complement(
    name, rank, expected_rounds, expected_dense, monkeypatch
):
    full = assemble_phi(get_fixture(name).build(), 3).full
    rounds, dense = _spy_rounds(monkeypatch)
    assert _certified_rank(full, DEFAULT_PRIMES[0]) == rank
    assert (rounds, dense) == (expected_rounds, expected_dense)


@pytest.mark.parametrize(
    "name, cells",
    [
        # every complement is sparse, and the last holds no row
        ("sextic-285-nodes", 0),
        # only the 772x824 dense remainder
        ("quintic-vanstraten-130", 772 * 824),
    ],
)
def test_only_the_dense_remainder_is_reduced_whole(name, cells, monkeypatch):
    full = assemble_phi(get_fixture(name).build(), 3).full
    reduced = []
    real = ranks._reduce_rows

    def spy(x, p):
        reduced.append(x.size)
        return real(x, p)

    monkeypatch.setattr(ranks, "_reduce_rows", spy)
    ranks._echelon(full, DEFAULT_PRIMES[0])
    assert sum(reduced) == cells


def test_certified_kernel_back_solves_only_the_schur_complement(monkeypatch):
    # Segre cubic: A is 0x5, full 75x75 of rank 60 with 25 structural
    # pivots.  A has no entries and is not eliminated.  The pivots take their
    # kernel entries from W, so only the echelon rows of full's 50x50
    # complement (rank 35) are back-solved
    shapes = []
    real = ranks._kernel_mod_p

    def spy(echelon, *rest):
        shapes.append(echelon.shape)
        return real(echelon, *rest)

    monkeypatch.setattr(ranks, "_kernel_mod_p", spy)
    report = defect(get_fixture("segre-cubic").build())
    assert report.defect == 5 and report.rank_reports["full"].certified
    assert shapes == [(35, 50)] * len(DEFAULT_PRIMES)


def test_uncertified_sextic_prime_stays_below_one_dense_copy(sextic_blocks):
    # the first round's 1627x1787 complement (23.3 MB as float64) is the
    # largest dense array; each round releases its complement before the
    # next round forms its own
    full = sextic_blocks.full
    first = 1627 * 1787 * 8
    tracemalloc.start()
    try:
        report = rank_multimodular(
            full, RankConfig(primes=(DEFAULT_PRIMES[0],)), sextic_blocks.wedge_high
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.per_prime == ((DEFAULT_PRIMES[0], 2160),) and not report.certified
    assert peak < 1.3 * first


def _echelon_peak(matrix, p):
    """The rank mod p of an uncertified elimination, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        profile, _ = ranks._echelon(matrix, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(profile), peak


def test_sextic_complements_are_formed_in_bounded_blocks(sextic_blocks):
    # the first complement, 1627x1787 and 1.2% nonzero, is never one dense
    # array (23.3 MB): it is formed in blocks of at most _BLOCK_CELLS cells
    rank, peak = _echelon_peak(sextic_blocks.full, DEFAULT_PRIMES[0])
    assert rank == 2160
    assert peak < 16 * 2**20


def test_sextic_k4_peaks_far_below_its_first_complement():
    # full at k = 4 is 17775x11235; its first complement, 12341x5801 and
    # 0.9% nonzero, would take 573 MB as one float64 array
    full = assemble_phi(get_fixture("sextic-285-nodes").build(), 4).full
    rank, peak = _echelon_peak(full, DEFAULT_PRIMES[0])
    assert rank == 10935
    assert peak < 100 * 2**20


def test_sparse_products_reduce_only_the_rows_that_take_another_group(
    sextic_blocks, monkeypatch
):
    # at the largest prime a row takes 64 products per group: two rows of
    # an 895x1068 range take a second group, and only they are reduced
    # before it, not the whole range (955,860 cells)
    reduced = []
    real = ranks._reduce_rows

    def spy(x, p):
        reduced.append(x.shape)
        return real(x, p)

    monkeypatch.setattr(ranks, "_reduce_rows", spy)
    assert len(ranks._echelon(sextic_blocks.full, WIDE_PRIME)[0]) == 2160
    assert reduced == [(2, 1068)]


PRODUCT_PRIMES = (2, 3, 32633) + DELAY_PRIMES + (WIDE_PRIME,)


def _products_agree(split, p):
    """Every row range of `split` after level 0 takes the same products
    of U11' (or X1) by W dense and scattered, from one start in [0, p):
    the targets match after reduction, and no cell passes the bound
    step*(p-1)**2 + p.  Returns the most W rows any range reaches."""
    step = _PANEL * _kernel(p)
    n = int(split.bounds[-2])
    w = ranks._schur(split, p, step)[2]
    by_rows = ranks._by_rows(w, n)
    width, bound = len(split.rest), step * (p - 1) ** 2 + p
    rng = np.random.default_rng(p)
    most = 0
    for lo, hi in zip(split.bounds[1:-1].tolist(), split.bounds[2:].tolist()):
        a, b = np.searchsorted(split.left[0], [lo, hi])
        i, j, v = (x[a:b] for x in split.left)
        reached = np.flatnonzero(np.bincount(j, minlength=n))
        start = rng.integers(0, p, size=(hi - lo, width)).astype(np.float64)
        scattered, dense = start.copy(), start.copy()
        ranks._subtract_sparse_product(scattered, i - lo, j, v, by_rows, p, step)
        ranks._subtract_dense_product(dense, i - lo, j, v, by_rows, reached, p, step)
        for target in (scattered, dense):
            assert np.abs(target).max(initial=0) <= bound
            _reduce(target, p)
        assert np.array_equal(scattered, dense)
        most = max(most, len(reached))
    return most


@pytest.mark.parametrize("p", PRODUCT_PRIMES)
def test_dense_and_scattered_products_agree(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        _products_agree(_first_split(_sparse_random(rng, p), p), p)
    # 300 pivot rows 1, 0, ..., 0 | p-1, ..., p-1 and three rows of p - 1
    # that lead in the first pivot's column: every tail row reaches all 300
    # W rows, more than `step` at each of DELAY_PRIMES and at WIDE_PRIME,
    # so those take the reductions between groups of W's rows
    n = 300
    matrix = np.full((n + 3, n + 4), p - 1, dtype=object)
    matrix[:n, :n] = np.eye(n, dtype=object)
    assert _products_agree(_first_split(matrix, p), p) == n


@pytest.fixture(scope="module")
def quintic_130_full():
    return assemble_phi(get_fixture("quintic-vanstraten-130").build(), 3).full


def _spy_dense_products(monkeypatch):
    """Record the shape of every target whose products by W are formed dense."""
    shapes = []
    real = ranks._subtract_dense_product

    def spy(target, *args):
        shapes.append(target.shape)
        return real(target, *args)

    monkeypatch.setattr(ranks, "_subtract_dense_product", spy)
    return shapes


def test_dense_products_form_only_the_blocks_where_they_pay(
    quintic_130_full, sextic_blocks, monkeypatch
):
    shapes = _spy_dense_products(monkeypatch)
    # quintic-130's 772x824 complement takes 2.4M scattered products over
    # all 303 W rows, 80 multiply-adds each dense; at the largest prime the
    # four reductions between groups of 64 W rows raise that to 148.  Of
    # W's level ranges only three, of 20 and 10 rows that reach 190 to 246
    # W rows, take more than 2**16 products, and they take them dense
    ranks._echelon(quintic_130_full, DEFAULT_PRIMES[0])
    assert shapes == [(20, 824), (10, 824), (10, 824), (772, 824)]
    shapes.clear()
    ranks._echelon(quintic_130_full, WIDE_PRIME)
    assert (772, 824) not in shapes
    # sextic-285's W is about 1.5% nonzero: every range of every round of
    # `full` and B, each Schur complement with them, stays scattered
    shapes.clear()
    ranks._echelon(sextic_blocks.full, DEFAULT_PRIMES[0])
    ranks._echelon(sextic_blocks.wedge_high, DEFAULT_PRIMES[0])
    assert shapes == []


def test_dense_products_count_the_scatter_of_the_w_rows_they_reach():
    step = _PANEL * _kernel(DEFAULT_PRIMES[0])
    # one target row reaches 68 W rows of 1000 entries each, one product
    # per entry of each: 68,000 products, more than one scattered chunk.
    # The dense path would scatter all 68,000 entries of those rows to form
    # them, so the range stays scattered (at k = 4 quintic-130's 1-row
    # ranges read 1.1 to 1.6 times slower dense)
    count = np.full(400, 1000)
    one_each = np.arange(68) * 5
    assert ranks._dense_rows(one_each, count, 1, 2854, step) is None
    # with the scatter left out, the 1 x 2854 target's 68 rows cost far
    # fewer multiply-adds than _DENSE_RATIO per product
    assert 2854 * 68 < ranks._DENSE_RATIO * 68_000
    # 772 rows that reach 303 W rows of 206 entries, 100 times each, as in
    # quintic-130's complement at k = 3: each reached row serves 100
    # products, and the block takes them dense
    count = np.full(303, 206)
    many_each = np.tile(np.arange(303), 100)
    assert ranks._dense_rows(many_each, count, 772, 824, step).tolist() == list(range(303))


def test_quintic_130_dense_products_stay_small(quintic_130_full):
    # W's reached rows are scattered _PANEL at a time, so beside the
    # 772x824 complement (5.1 MB) no dense copy of W's 303 rows is held
    rank, peak = _echelon_peak(quintic_130_full, DEFAULT_PRIMES[0])
    assert rank == 896
    assert peak < 15 * 2**20


def test_wide_identity_with_zero_columns():
    dense = np.zeros((150, 400), dtype=np.int64)
    dense[:, 1::3] = 0
    for i in range(150):
        dense[i, 2 * i] = 5
    for p in (2, 32749, 524287):
        assert rank_mod_p(sparse_from_dense(dense), p) == 150


def test_method_validation():
    identity = sparse_from_dense(np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        rank_mod_p(identity, 4)
    with pytest.raises(ValueError):
        rank_mod_p(identity, 2**31 + 11)
    for p in (2, WIDE_PRIME):
        assert rank_mod_p(identity, p) == 2


def test_largest_prime_keeps_one_panel_product_exact():
    # 11863279 is the largest prime p with 64*(p-1)**2 + p < 2**53: the next
    # prime, 11863289, fails the bound, and it and every larger prime are refused
    assert ranks._LIFT_PRIME == WIDE_PRIME and _PANEL == 64
    assert 64 * (WIDE_PRIME - 1) ** 2 + WIDE_PRIME < 2**53
    assert [n for n in range(WIDE_PRIME + 1, 11863290) if ranks._is_prime(n)] == [11863289]
    assert 64 * (11863289 - 1) ** 2 + 11863289 >= 2**53
    assert _kernel(WIDE_PRIME) == 1
    # each of DELAY_PRIMES is the largest prime at its delay: the next prime
    # above it takes one panel product fewer
    for delay, p in enumerate(DELAY_PRIMES, start=2):
        after = next(n for n in range(p + 2, 2 * p, 2) if ranks._is_prime(n))
        assert (_kernel(p), _kernel(after)) == (delay, delay - 1)
    for p in (11863289, 94906249, 2**31 - 1):
        with pytest.raises(ValueError, match=rf"prime {p} outside \[2, 11863279\]"):
            RankConfig(primes=(p,))


@given(small_matrices, st.sampled_from(BLOCKED_PRIMES + (WIDE_PRIME,)))
@settings(max_examples=120, deadline=None)
def test_engines_agree_and_bound_the_rational_rank(rows, p):
    dense = np.array(rows, dtype=np.int64)
    matrix = sparse_from_dense(dense)
    expected = rational_rank(dense)
    modular = rank_mod_p(matrix, p)
    assert modular == rowreduce_rank(dense, p)
    assert modular <= expected
    assert rank_exact(matrix) == expected


def _leading_counts(profile, cols):
    return [sum(1 for c in profile if c < k) for k in range(cols + 1)]


@given(small_matrices, st.sampled_from(BLOCKED_PRIMES + (WIDE_PRIME,)))
@settings(max_examples=80, deadline=None)
def test_profile_prefix_counts_leading_block_ranks(rows, p):
    dense = np.array(rows, dtype=np.int64)
    cols = dense.shape[1]
    matrix = sparse_from_dense(dense)
    modular = _leading_counts(ranks._echelon(matrix, p)[0], cols)
    for k in range(cols + 1):
        assert modular[k] == rowreduce_rank(dense[:, :k], p)
        leading = dense[:, :k]
        report = rank_multimodular(matrix, RankConfig(exact=True), sparse_from_dense(leading))
        assert report.leading.exact_rank == rational_rank(leading)


@given(dims, dims, dims, dims, st.sampled_from(BLOCKED_PRIMES), st.data())
@settings(max_examples=80, deadline=None)
def test_rotated_block_triangular_profile(a1, b1, a2, b2, p, data):
    # [[0, A], [B, D]] is [[A, 0], [D, B]] with its columns rotated so that B's
    # come first: rank B is the profile's prefix over B's columns
    entry = st.integers(min_value=-5, max_value=5)
    grid = lambda r, c: np.array(
        data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)),
        dtype=np.int64,
    )
    top, bottom, coupling = grid(a1, b1), grid(a2, b2), grid(a2, b1)
    triangular = np.block([[top, np.zeros((a1, b2), dtype=np.int64)], [coupling, bottom]])
    rotated = np.block([[np.zeros((a1, b2), dtype=np.int64), top], [bottom, coupling]])
    assert np.array_equal(rotated, np.roll(triangular, -b1, axis=1))
    full = sparse_from_dense(rotated)
    profile = ranks._echelon(full, p)[0]
    counts = _leading_counts(profile, b1 + b2)
    for k in range(b1 + b2 + 1):
        assert counts[k] == rowreduce_rank(rotated[:, :k], p)
    assert counts[b2] == rowreduce_rank(bottom, p)
    assert counts[-1] == rowreduce_rank(triangular, p)
    report = rank_multimodular(full, RankConfig(primes=(p,)), leading=sparse_from_dense(bottom))
    assert (report.rows, report.cols) == (a1 + a2, b1 + b2)
    assert (report.leading.rows, report.leading.cols) == (a2, b2)
    assert report.per_prime == ((p, counts[-1]),)
    assert report.leading.per_prime == ((p, counts[b2]),)
    assert report.exact_rank == rational_rank(triangular)
    assert report.leading.exact_rank == rational_rank(bottom)


def test_leading_block_certification_follows_its_own_shape():
    curve = HomogeneousForm.from_polynomial(parse_expression("x^4+y^4+z^4", ("x", "y", "z")))
    blocks = assemble_phi(curve, 3)  # B 84x55, full 102x76
    exact_b, exact_full = rank_exact(blocks.wedge_high), rank_exact(blocks.full)
    assert (exact_full, exact_b) == (73, 55)
    # B, the smallest block reported, qualifies for certification, so full's
    # own eliminations are certified: one proven profile gives both ranks
    shapes = []
    real = ranks._echelon

    def spy(matrix, p, *args):
        shapes.append((matrix.rows, matrix.cols))
        return real(matrix, p, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranks, "_echelon", spy)
        report = rank_multimodular(blocks.full, RankConfig(), leading=blocks.wedge_high)
    assert shapes == [(102, 76)] * len(DEFAULT_PRIMES)
    assert (report.exact_rank, report.leading.exact_rank) == (exact_full, exact_b)
    assert report.certified and report.leading.certified
    # B's 84 rows exceed the threshold: nothing is certified
    neither = rank_multimodular(
        blocks.full, RankConfig(dense_threshold=83), leading=blocks.wedge_high
    )
    assert neither.exact_rank is None and neither.leading.exact_rank is None
    both = rank_multimodular(blocks.full, RankConfig(exact=True), leading=blocks.wedge_high)
    assert both == report
    assert both.leading == rank_multimodular(blocks.wedge_high, RankConfig(exact=True))
    with pytest.raises(ValueError):
        rank_multimodular(blocks.wedge_high, leading=blocks.full)


@pytest.mark.parametrize("p", (32749,) + DELAY_PRIMES + (WIDE_PRIME,))
def test_in_place_reduction_is_exact_at_its_edges(p):
    largest = _kernel(p) * _PANEL * (p - 1) ** 2  # most negative value the kernel forms
    assert largest + p < 2**53
    edges = [0, 1, p - 1, p, 2 * p, -p, -1, -(p - 1), (p - 1) ** 2, p * (p - 1)]
    edges += [-largest, -largest + 1, -largest + p - 1, -(largest // p) * p]
    edges += [-(largest // p) * p - 1, -(largest // p) * p + 1, -(largest // p - 1) * p]
    rng = np.random.default_rng(p)
    edges += [int(v) for v in rng.integers(-largest, p, size=2000)]
    values = np.array(edges, dtype=np.float64)
    assert values.astype(object).tolist() == edges  # every input is represented exactly
    _reduce(values, p)
    assert [int(v) for v in values] == [v % p for v in edges]


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_default_primes_match_rational_rank_on_tiny_entries(rows):
    # entries are far below 2**15, so the default primes are never bad here
    dense = np.array(rows, dtype=np.int64)
    report = rank_multimodular(sparse_from_dense(dense), RankConfig(exact=True))
    assert report.agreed
    assert report.certified
    assert report.exact_rank == rational_rank(dense)
    for _, r in report.per_prime:
        assert r <= report.exact_rank


@given(
    small_matrices,
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_permutation_and_sign(rows, rng):
    dense = np.array(rows, dtype=np.int64)
    permuted = dense[rng.sample(range(dense.shape[0]), dense.shape[0])]
    permuted = permuted[:, rng.sample(range(dense.shape[1]), dense.shape[1])]
    signs = np.array([rng.choice((1, -1)) for _ in range(dense.shape[0])])
    flipped, dense = sparse_from_dense(permuted * signs[:, None]), sparse_from_dense(dense)
    assert rank_exact(flipped) == rank_exact(dense)
    assert rank_mod_p(flipped, 32719) == rank_mod_p(dense, 32719)



@given(dims, dims, dims, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_block_triangular_rank_bound(a1, b1, a2, b2, data):
    entry = st.integers(min_value=-5, max_value=5)
    grid = lambda r, c: data.draw(
        st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    top = np.array(grid(a1, b1), dtype=np.int64)
    bottom = np.array(grid(a2, b2), dtype=np.int64)
    coupling = np.array(grid(a2, b1), dtype=np.int64)
    full = np.block(
        [[top, np.zeros((a1, b2), dtype=np.int64)], [coupling, bottom]]
    )
    full, top, bottom = map(sparse_from_dense, (full, top, bottom))
    assert rank_exact(full) >= rank_exact(top) + rank_exact(bottom)


def test_fixture_blocks_certify_across_engines():
    blocks = assemble_phi(get_fixture("segre-cubic").build(), 3)
    for matrix in (blocks.wedge_high, blocks.full):
        exact = rank_exact(matrix)
        assert exact == rational_rank(matrix)
        for p in DEFAULT_PRIMES:
            assert rank_mod_p(matrix, p) == exact
            assert rowreduce_rank(matrix, p) == exact


def test_blocked_agrees_with_rowreduce_at_scale():
    # 1001 columns: eight panels, rank-deficient columns, full trailing updates
    matrix = assemble_phi(get_fixture("quintic-16-nodes").build(), 3).wedge_high
    p = DEFAULT_PRIMES[0]
    assert rank_mod_p(matrix, p) == rowreduce_rank(matrix, p)


def test_reports_are_deterministic():
    matrix = assemble_phi(get_fixture("segre-cubic").build(), 3).full
    cfg = RankConfig(primes=PRIME_TABLE[2:5])
    assert rank_multimodular(matrix, cfg) == rank_multimodular(matrix, cfg)


def test_rank_report_serialization_shape():
    identity = sparse_from_dense(np.eye(2, dtype=np.int64))
    report = rank_multimodular(identity, RankConfig(exact=True))
    assert (report.rows, report.cols) == (2, 2)
    payload = report.as_dict()
    assert list(payload) == ["per_prime", "consensus", "agreed", "exact_rank", "certified"]
    assert payload["consensus"] == 2
    assert payload["certified"] is True
    assert payload["per_prime"][0] == {"prime": DEFAULT_PRIMES[0], "rank": 2}
    assert isinstance(report, RankReport)


def test_rank_report_reads_its_flags_off_its_ranks():
    report = RankReport(3, 3, ((2, 1), (3, 2)), 2)
    assert (report.consensus, report.agreed, report.certified) == (2, False, True)
    assert RankReport(3, 3, ((2, 2), (3, 2)), 3).certified is False  # every prime bad
    assert RankReport(3, 3, ((2, 2),)).rank == 2


def test_rank_config_validation():
    with pytest.raises(ValueError):
        RankConfig(primes=())
    with pytest.raises(ValueError):
        RankConfig(primes=(9,))
    with pytest.raises(ValueError):
        RankConfig(primes=(3, 3))
    with pytest.raises(ValueError):
        RankConfig(primes=(2**31 + 11,))
    with pytest.raises(ValueError):
        RankConfig(dense_threshold=-1)
    # exact is a bool, and any other value is refused, not read for its truth
    for exact in ("no", "", 1, 0, None, 1.0, np.int64(1)):
        with pytest.raises(ValueError, match="exact must be a bool"):
            RankConfig(exact=exact)
    for exact in (True, False, np.True_, np.False_):
        config = RankConfig(exact=exact)
        assert config.exact == exact and type(config.exact) is bool
    for primes in ((32633.0,), (3, 5.0), ("7",)):
        with pytest.raises(ValueError, match="primes must be integers"):
            RankConfig(primes=primes)
    for threshold in (2.5, "100", None):
        with pytest.raises(ValueError, match="dense_threshold must be an integer"):
            RankConfig(dense_threshold=threshold)
    # any integer type is taken, and stored as a Python int
    config = RankConfig(primes=(np.int64(32633), np.int32(3)), dense_threshold=np.int64(7))
    assert config.primes == (32633, 3) and all(type(p) is int for p in config.primes)
    assert config.dense_threshold == 7 and type(config.dense_threshold) is int


def test_exact_budget():
    # a matrix of exactly EXACT_CELL_BUDGET cells is certified; one more row is refused
    assert 1024 * 1024 == EXACT_CELL_BUDGET
    assert rank_exact(from_entries(1024, 1024, ())) == 0
    huge = from_entries(1025, 1024, ())
    with pytest.raises(RankBudgetError):
        rank_exact(huge)
    with pytest.raises(RankBudgetError):
        rank_multimodular(huge, RankConfig(exact=True))


def test_rank_exact_refuses_an_uncertifiable_report(monkeypatch):
    # a profile longer than the matrix is wide cannot be lifted, so the
    # report stays uncertified and rank_exact has no rank to give
    real = ranks._echelon

    def one_pivot_too_many(matrix, p, *args):
        profile, kernel = real(matrix, p, *args)
        return profile + (matrix.cols,), kernel

    monkeypatch.setattr(ranks, "_echelon", one_pivot_too_many)
    identity = sparse_from_dense(np.eye(2, dtype=np.int64))
    assert rank_multimodular(identity, RankConfig(exact=True)).exact_rank is None
    with pytest.raises(RankInvariantError, match="could not be certified"):
        rank_exact(identity)


def test_uncertified_primes_hold_one_dense_copy_at_a_time():
    # quintic-vanstraten-130: full 1075x1127, 9.2 MB as float64.  Uncertified,
    # each prime's echelon form is dropped before the next prime's is built
    blocks = assemble_phi(get_fixture("quintic-vanstraten-130").build(), 3)
    copy = blocks.full.rows * blocks.full.cols * 8
    tracemalloc.start()
    try:
        report = rank_multimodular(blocks.full, RankConfig(), leading=blocks.wedge_high)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.per_prime) == len(DEFAULT_PRIMES) and not report.certified
    assert peak < 1.5 * copy


def test_certified_primes_keep_their_kernels_not_their_echelon_rows():
    # rank 990 of 1000 columns: echelon rows would be 990x1000 (7.9 MB as
    # float64), the kernel is 990x10.  The 990 structural pivots take their
    # kernel entries from W = U11^-1 U12 and only the 10x10 Schur complement
    # is eliminated dense, so no prime builds one echelon copy; building the
    # echelon rows reaches two
    rng = np.random.default_rng(3)
    top = np.hstack([np.eye(990, dtype=np.int64), rng.integers(-3, 4, size=(990, 10))])
    matrix = sparse_from_dense(np.vstack([top, top[:10] + top[10:20]]))
    copy = 990 * 1000 * 8
    tracemalloc.start()
    try:
        report = rank_multimodular(matrix, RankConfig(exact=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact_rank == 990 and report.certified
    assert peak < copy


def _spy_primes(monkeypatch):
    """Record the prime of every elimination the report path runs."""
    primes = []
    real = ranks._echelon

    def spy(matrix, p, *args):
        primes.append(p)
        return real(matrix, p, *args)

    monkeypatch.setattr(ranks, "_echelon", spy)
    return primes


@pytest.mark.parametrize("rows", [[[2]], [[2, 2]], [[2, 4], [6, 12], [0, 2]]])
def test_bad_configured_prime_still_gives_the_rational_rank(rows):
    # 2 divides every entry, so the only configured prime sees rank 0
    matrix = sparse_from_dense(rows)
    report = rank_multimodular(matrix, RankConfig(primes=(2,), exact=True))
    assert report.per_prime == ((2, 0),)
    assert report.exact_rank == rational_rank(np.array(rows)) > 0
    assert not report.certified


def test_kernel_vector_past_its_free_column_proves_no_profile(monkeypatch):
    # mod 2 the profile of [[2, 1]] is (1,): right length, wrong column.  The
    # lift (1, -2) is an exact kernel vector, but not zero past its free column
    # 0, so it must not certify rank 0 for the leading column [2].
    # The first modulus's candidates are that lift alone.
    real = ranks._lifts
    candidates = iter([[(np.array([[-2]], dtype=object), 1)]])
    monkeypatch.setattr(ranks, "_lifts", lambda *args: next(candidates, None) or real(*args))
    report = rank_multimodular(
        sparse_from_dense([[2, 1]]),
        RankConfig(primes=(2,), exact=True),
        leading=sparse_from_dense([[2]]),
    )
    assert report.per_prime == ((2, 1),) and report.certified
    assert report.leading.per_prime == ((2, 0),)
    assert report.leading.exact_rank == 1 and not report.leading.certified


def _perturb_first_numerator(real, times):
    """`real`, a generator of candidate lifts, with the first numerator of
    every candidate perturbed in its first `times` calls, one per modulus."""
    calls = []

    def perturbed(value, modulus):
        calls.append(modulus)
        for numerators, den in real(value, modulus):
            if len(calls) <= times:
                numerators = numerators.copy()
                numerators.flat[0] += 1
            yield numerators, den

    return perturbed, calls


@pytest.mark.parametrize("times", [1, 3, None])
def test_perturbed_reconstruction_is_never_accepted(monkeypatch, times):
    # every reconstruction's candidate is perturbed, through the one seam
    matrix = assemble_phi(get_fixture("segre-cubic").build(), 3).full  # rank 60 of 75
    primes = _spy_primes(monkeypatch)
    perturbed, calls = _perturb_first_numerator(ranks._lifts, times or 10**9)
    monkeypatch.setattr(ranks, "_lifts", perturbed)
    try:
        rank = rank_exact(matrix)
    except RankInvariantError:
        assert times is None  # only a lift that is never right may fail
        return
    assert rank == 60
    assert len(calls) == times + 1  # each wrong lift costs one more prime
    assert len(primes) == len(DEFAULT_PRIMES) + times


def test_never_verifying_lift_stops_at_the_hadamard_bound(monkeypatch):
    # rank 2 of 3, entries near 2**40: 2*H**2 needs several lift primes
    big = 2**40
    matrix = sparse_from_dense(
        np.array([[big, 3, big + 3], [5, big, big + 5], [7, 11, 18]], dtype=object)
    )
    assert rational_rank(matrix) == 2
    primes = _spy_primes(monkeypatch)
    monkeypatch.setattr(ranks, "_lift_verifies", lambda *args: False)
    with pytest.raises(RankInvariantError, match="does not verify"):
        rank_exact(matrix)
    limit = 2 * ranks._hadamard_square(matrix)
    assert np.prod(primes[:-1], dtype=object) <= limit < np.prod(primes, dtype=object)
    assert len(primes) > len(DEFAULT_PRIMES)
    assert primes[len(DEFAULT_PRIMES)] == WIDE_PRIME == ranks._LIFT_PRIME


def test_prime_claiming_more_than_the_rank_stops_at_the_hadamard_bound(monkeypatch):
    # rank 1; the configured primes claim pivots (1, 2), whose one kernel
    # vector (1, 0, 0) never verifies, and the lift primes disagree: past the
    # Hadamard bound their product shows the claim to be false
    big = 2**100
    matrix = sparse_from_dense(np.full((3, 3), big, dtype=object))
    real = ranks._echelon
    primes = []

    def overclaim(matrix, p, *args):
        primes.append(p)
        if p in DEFAULT_PRIMES:
            return (1, 2), np.zeros((2, 1))  # kernel vector (1, 0, 0)
        return real(matrix, p, *args)

    monkeypatch.setattr(ranks, "_echelon", overclaim)
    with pytest.raises(RankInvariantError, match="does not verify"):
        rank_exact(matrix)
    others = np.prod(primes[len(DEFAULT_PRIMES) :], dtype=object)
    assert others**2 > ranks._hadamard_square(matrix) >= (others // primes[-1]) ** 2


def test_huge_coefficient_lifts_with_more_primes(monkeypatch):
    names = ("x", "y", "z", "u", "v")
    huge = HomogeneousForm.from_polynomial(parse_expression("2^70*x^3+y^3+z^3+u^3+v^3", names))
    fermat = HomogeneousForm.from_polynomial(parse_expression("x^3+y^3+z^3+u^3+v^3", names))
    expected = rank_multimodular(assemble_phi(fermat, 3).full, RankConfig())
    primes = _spy_primes(monkeypatch)
    blocks = assemble_phi(huge, 3)
    report = rank_multimodular(blocks.full, RankConfig(), leading=blocks.wedge_high)
    assert report.certified and report.leading.certified
    assert report.exact_rank == expected.exact_rank  # x -> 2^(-70/3) x over the reals
    extra = [p for p in primes if p not in DEFAULT_PRIMES]
    assert extra and extra[0] == WIDE_PRIME
    assert extra == sorted(extra, reverse=True)


@pytest.mark.parametrize("count", range(1, 8))
def test_crt_in_mixed_radix_matches_the_direct_formula(count):
    # a fold of one Garner step per prime against the textbook formula:
    # the sum of r_i * M_i * (M_i^-1 mod p_i) mod M, for M_i = M / p_i
    def direct(residues):
        modulus, total = prod(p for p, _ in residues), 0
        for p, residue in residues:
            rest = modulus // p
            total = total + residue.astype(np.int64).astype(object) * (rest * pow(rest, -1, p))
        return total % modulus, modulus

    rng = np.random.default_rng(count)
    primes = (WIDE_PRIME,) + DELAY_PRIMES + PRIME_TABLE[:3]
    for chosen in (primes[:count], primes[-count:], rng.permutation(primes)[:count].tolist()):
        residues = [(p, rng.integers(0, p, size=(6, 4)).astype(np.float64)) for p in chosen]
        residues[0][1][0] = chosen[0] - 1  # the largest residue at every prime
        for _, residue in residues:
            residue[0, 0] = 0
        value, modulus = 0, 1
        for p, residue in residues:
            value, modulus = ranks._combine(value, modulus, p, residue)
            # int64 up to the switch, Python ints past it
            assert value.dtype == (np.int64 if modulus <= 2**63 else object)
        expected, expected_modulus = direct(residues)
        assert modulus == expected_modulus == prod(chosen)
        assert value.tolist() == expected.tolist()


@pytest.mark.parametrize("d, n", [(4099, 2**27 + 5), (40009, 2**26 + 3), (257, 2**33 + 9)])
def test_unbalanced_kernel_fractions_lift_at_the_default_primes(monkeypatch, d, n):
    # the kernel of [d, -n, 5] holds n/d and -5/d: a small denominator under
    # a numerator past sqrt(M/2) for M the product of the default primes,
    # where Wang's reconstruction misses n/d and maximal quotients find it
    modulus = int(np.prod(DEFAULT_PRIMES, dtype=object))
    bound = isqrt((modulus - 1) // 2)
    assert d < bound < n and 2 * n * d < modulus
    value = np.array([[n, -5]], dtype=object) * pow(d, -1, modulus) % modulus
    wang = ranks._rational_lift(value, modulus)
    assert wang is None or wang[0][0, 0] * d != n * wang[1]
    numerators, den = ranks._quotient_lift(value, modulus)
    assert numerators.tolist() == [[n * den // d, -5 * den // d]] and den % d == 0
    primes = _spy_primes(monkeypatch)
    report = rank_multimodular(sparse_from_dense([[d, -n, 5]]), RankConfig(exact=True))
    assert report.exact_rank == 1 and report.certified
    assert primes == list(DEFAULT_PRIMES)  # no lift prime


def test_quotient_lift_gives_up_once_its_denominator_reaches_the_modulus():
    # 1/d for three distinct d near 2**12 mod a 30-bit modulus: each is
    # balanced and needs its own denominator, and their product passes it
    modulus = DEFAULT_PRIMES[0] * DEFAULT_PRIMES[1]
    dens = (4093, 4099, 4111)
    value = np.array([[pow(d, -1, modulus) for d in dens]], dtype=object)
    numerators, den = ranks._quotient_lift(value[:, :2], modulus)
    assert den == 4093 * 4099 and numerators.tolist() == [[4099, 4093]]
    assert ranks._quotient_lift(value, modulus) is None
    assert list(ranks._lifts(value, modulus)) == []  # Wang's bound refuses it too


@given(
    st.integers(8, 186).flatmap(
        lambda bits: st.tuples(st.integers(2 ** (bits - 1), 2**bits), st.integers(1, 2**bits))
    )
)
@settings(max_examples=300, deadline=None)
def test_max_quotient_stops_early_with_the_whole_loops_choice(pair):
    modulus, y = pair
    y = y % (modulus - 1) + 1
    assert ranks._max_quotient(y, modulus) == max_quotient_denominator(y, modulus)


def test_max_quotient_matches_the_whole_loop_on_every_small_modulus():
    for modulus in range(2, 400):
        for y in range(1, modulus):
            assert ranks._max_quotient(y, modulus) == max_quotient_denominator(y, modulus)


def test_wang_alone_certifies_low_rank_matrices_within_the_hadamard_stop(monkeypatch):
    # every maximal-quotient candidate withheld: Wang's rule, which the stop
    # rests on, must certify on its own before the primes pass 2*H**2
    monkeypatch.setattr(ranks, "_quotient_lift", lambda value, modulus: None)
    primes = _spy_primes(monkeypatch)
    rng = np.random.default_rng(27)
    lifted = 0
    for _ in range(300):
        rows, cols = rng.integers(3, 12, size=2)
        rank = int(rng.integers(1, min(rows, cols)))
        left = rng.integers(-(10**6), 10**6, size=(rows, rank))
        matrix = sparse_from_dense(left @ rng.integers(-(10**6), 10**6, size=(rank, cols)))
        primes.clear()
        report = rank_multimodular(matrix, RankConfig(exact=True))
        assert report.exact_rank == rational_rank(matrix) and report.certified
        assert prod(primes[:-1]) <= 2 * ranks._hadamard_square(matrix)
        lifted += len(primes) > len(DEFAULT_PRIMES)
    assert lifted  # some took lift primes, past the int64 fold


def test_each_elimination_is_folded_once(monkeypatch):
    # vgw-118a's `full` takes lift primes under `exact`; each elimination
    # adds one CRT step to its profile's lift, and none is combined again
    blocks = assemble_phi(get_fixture("quintic-vgw-118a").build(), 3)
    monkeypatch.setattr(ranks, "EXACT_CELL_BUDGET", blocks.full.rows * blocks.full.cols)
    primes = _spy_primes(monkeypatch)
    real, folded = ranks._combine, []

    def spy(value, modulus, p, residue):
        folded.append(p)
        return real(value, modulus, p, residue)

    monkeypatch.setattr(ranks, "_combine", spy)
    report = rank_multimodular(blocks.full, RankConfig(exact=True), leading=blocks.wedge_high)
    assert report.certified and report.leading.certified
    assert len(primes) == 9 and folded == primes


# seed-1 cubic-sweep inputs (perfbench/workloads.py) that took one lift prime
# when Wang's reconstruction was the only one
SWEEP_CUBICS = {
    "segre-cubic#5": "subst((x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3),"
    "x,y-z-u,y,-y+2*z+u+2*v,z,x-y-z-u,u,x-z-2*u+v,v,y)",
    "segre-cubic#15": "subst((x+y+z+u+v)^3-(x^3+y^3+z^3+u^3+v^3),"
    "x,x-y-z-u+v,y,-x+z+3*u,z,-z,u,x+z-u+3*v,v,-x+2*y+2*z-v)",
    "fermat-cubic#25": "subst(x^3+y^3+z^3+u^3+v^3,"
    "x,x+2*y+z+2*u+4*v,y,x+y-z+v,z,-x+3*z+u,u,-x-y+2*z+2*u,v,y+z+v)",
    "fermat-cubic#37": "subst(x^3+y^3+z^3+u^3+v^3,"
    "x,x+2*y-2*u-v,y,x+y+2*z-u-v,z,-x-z-u-2*v,u,-x-2*z+u,v,x+y+z-u)",
}


@pytest.mark.parametrize("name", SWEEP_CUBICS)
def test_sweep_cubics_certify_from_the_default_primes(monkeypatch, name):
    primes = _spy_primes(monkeypatch)
    report = defect(HomogeneousForm.from_polynomial(parse_expression(SWEEP_CUBICS[name])))
    assert report.defect == (5 if name.startswith("segre") else 0)
    assert all(block.certified for block in report.rank_reports.values())
    assert primes == list(DEFAULT_PRIMES)  # A has no entries: only full is eliminated


def test_wang_certifies_when_every_quotient_candidate_is_wrong(monkeypatch):
    matrix = assemble_phi(get_fixture("segre-cubic").build(), 3).full  # rank 60 of 75
    real = ranks._quotient_lift

    def wrong(value, modulus):
        lifted = real(value, modulus)
        if lifted is None:
            return None
        numerators, den = lifted
        numerators = numerators.copy()
        numerators.flat[0] += 1
        return numerators, den

    primes = _spy_primes(monkeypatch)
    monkeypatch.setattr(ranks, "_quotient_lift", wrong)
    assert rank_exact(matrix) == 60
    assert primes == list(DEFAULT_PRIMES)  # as many primes as Wang's lift alone took


def test_entry_less_blocks_are_reported_without_elimination(monkeypatch):
    primes = _spy_primes(monkeypatch)
    # the Segre cubic's A, 0x5, is small, so its rank 0 is proven
    low = assemble_phi(get_fixture("segre-cubic").build(), 3).wedge_low
    assert (low.rows, low.cols, low.nnz) == (0, 5, 0)
    zeros = tuple((p, 0) for p in DEFAULT_PRIMES)
    assert rank_multimodular(low) == RankReport(0, 5, zeros, 0)
    # 200 columns exceed dense_threshold: certified only under exact
    wide = from_entries(0, 200, ())
    assert rank_multimodular(wide) == RankReport(0, 200, zeros)
    assert rank_multimodular(wide, RankConfig(exact=True)) == RankReport(0, 200, zeros, 0)
    leading = from_entries(0, 3, ())
    report = rank_multimodular(from_entries(0, 5, ()), leading=leading)
    assert report == RankReport(0, 5, zeros, 0, RankReport(0, 3, zeros, 0))
    assert primes == []


# -- the sparsest-first column order of uncertified matrices --------------------


@st.composite
def led_matrices(draw):
    """A sparse integer matrix, some of its entries multiples of a
    configured prime, and a leading width: its first `width` columns hold
    the leading block in their last rows and zeros above (None: no block)."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    value = st.sampled_from((1, -1, 2, 3, 5, 6, 10, 32633, -2 * 32647, 2**70 + 1))
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), value)))
    matrix = np.zeros((rows, cols), dtype=object)
    for i, j, x in cells:
        matrix[i, j] = x
    width = draw(st.none() | st.integers(0, cols))
    if width is None:
        return matrix, None
    shift = draw(st.integers(0, rows))
    matrix[:shift, :width] = 0
    return matrix, matrix[shift:, :width]


@given(led_matrices(), st.sampled_from(((2, 3, 5), (32633,), (3, 32647, WIDE_PRIME))))
@settings(max_examples=150, deadline=None)
def test_ordered_columns_keep_every_block_rank(case, primes):
    # uncertified (a threshold of 0), `rank_multimodular` eliminates the
    # columns sparsest first within each block; every per-prime rank and
    # leading rank is still the prefix count of the profile of the matrix
    # as given
    dense, block = case
    matrix = sparse_from_dense(dense)
    leading = None if block is None else sparse_from_dense(block)
    report = rank_multimodular(matrix, RankConfig(primes, dense_threshold=0), leading)
    profiles = [ranks._echelon(matrix, p)[0] for p in primes]
    assert report.per_prime == tuple((p, len(pr)) for p, pr in zip(primes, profiles))
    if leading is not None:
        width = leading.cols
        expected = tuple((p, sum(c < width for c in pr)) for p, pr in zip(primes, profiles))
        assert report.leading.per_prime == expected


def _spy_eliminations(monkeypatch):
    """Record the matrix and column order of every `_echelon` call, and
    the matrix of every `_certify` call."""
    calls = []
    real_echelon, real_certify = ranks._echelon, ranks._certify

    def echelon(matrix, p, certify=False, order=None):
        calls.append(("echelon", matrix, order))
        return real_echelon(matrix, p, certify, order)

    def certify(matrix, *args):
        calls.append(("certify", matrix, None))
        return real_certify(matrix, *args)

    monkeypatch.setattr(ranks, "_echelon", echelon)
    monkeypatch.setattr(ranks, "_certify", certify)
    return calls


def test_certified_matrices_are_eliminated_as_given(monkeypatch):
    # the certificate is the reduced-echelon kernel in the given order, and
    # its heights decide how many lift primes are taken: under `exact`, and
    # for a block within dense_threshold, `_echelon` at the configured
    # primes, `_certify` and its lift primes all see the matrix as given
    calls = _spy_eliminations(monkeypatch)
    blocks = assemble_phi(get_fixture("segre-cubic").build(), 3)
    wide = sparse_from_dense(np.arange(1, 301).reshape(2, 150) % 7)
    for matrix, leading, config in (
        (blocks.full, blocks.wedge_high, RankConfig()),  # B is 75x70
        (wide, None, RankConfig(exact=True)),
    ):
        calls.clear()
        assert rank_multimodular(matrix, config, leading).certified
        assert [name for name, _, _ in calls] == ["echelon"] * 3 + ["certify"]
        assert all(seen is matrix and order is None for _, seen, order in calls)
    # uncertified, each prime eliminates the one sparsest-first order
    calls.clear()
    rank_multimodular(wide)
    assert [name for name, _, _ in calls] == ["echelon"] * 3
    assert all(seen is wide for _, seen, _ in calls)
    assert len({id(order) for _, _, order in calls}) == 1 and calls[0][2] is not None


def test_sparsest_columns_first_thin_quintic_130s_dense_remainder(monkeypatch):
    # the same 303 structural pivots leave the same 772x824 remainder, but
    # with sparse pivot columns X1 and W are smaller: 13.6% of its cells
    # are nonzero, against 21.9% in the given order
    blocks = assemble_phi(get_fixture("quintic-vanstraten-130").build(), 3)
    rounds, dense = _spy_rounds(monkeypatch)
    filled = []
    real = ranks._eliminate

    def eliminate(array, *args):
        filled.append(np.count_nonzero(array) / array.size)
        return real(array, *args)

    monkeypatch.setattr(ranks, "_eliminate", eliminate)
    config = RankConfig(primes=(DEFAULT_PRIMES[0],))
    report = rank_multimodular(blocks.full, config, leading=blocks.wedge_high)
    assert report.per_prime == ((DEFAULT_PRIMES[0], 896),)
    assert report.leading.per_prime == ((DEFAULT_PRIMES[0], 871),)
    assert (rounds, dense) == ([303], [(772, 824)])
    assert filled[0] <= 0.14


# -- the unit-triangle inverse and the kernel it back-substitutes ---------------

TRIANGLE_PRIMES = BLOCKED_PRIMES + (WIDE_PRIME,)


@given(st.sampled_from(TRIANGLE_PRIMES), st.data())
@settings(max_examples=60, deadline=None)
def test_unit_lower_inverse_inverts_every_panel_triangle(p, data):
    # t = 1 .. the panel width; the diagonal and above hold residues that must
    # be ignored; all-(p-1) entries give the largest sums
    t = data.draw(st.integers(min_value=1, max_value=_PANEL))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if data.draw(st.booleans()):
        lower = np.full((t, t), p - 1, dtype=np.int64)
    else:
        lower = rng.integers(0, p, size=(t, t), dtype=np.int64)
    inverse = ranks._unit_lower_inverse(lower.astype(np.float64), p)
    assert ((inverse >= 0) & (inverse < p)).all()
    unit = (np.tril(lower, -1) + np.eye(t, dtype=np.int64)).astype(object)
    product = unit.dot(inverse.astype(np.int64).astype(object)) % p
    assert (product == np.eye(t, dtype=np.int64)).all()


@given(st.sampled_from((1, 63, 64, 65, 130)), st.sampled_from(TRIANGLE_PRIMES), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_mod_p_annihilates_full_row_rank_echelons(r, p, data):
    # U holds a nonzero pivot in each row and residues right of it; what lies
    # left of a pivot is not part of U and must be ignored
    free_count = data.draw(st.integers(min_value=0, max_value=6))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cols = r + free_count
    profile = tuple(sorted(rng.choice(cols, size=r, replace=False).tolist()))
    upper = rng.integers(0, p, size=(r, cols), dtype=np.int64)
    upper[np.arange(cols) < np.array(profile)[:, None]] = 0
    upper[np.arange(r), profile] = rng.integers(1, p, size=r)
    given_rows = upper.copy()
    given_rows[np.arange(cols) < np.array(profile)[:, None]] = rng.integers(0, p)
    kernel = ranks._kernel_mod_p(given_rows.astype(np.float64), profile, p)
    assert kernel.shape == (r, free_count)
    assert ((kernel >= 0) & (kernel < p)).all()
    pivots, free = ranks._split_columns(profile, cols)
    exact = upper.astype(object)
    residual = exact[:, pivots].dot(kernel.astype(np.int64).astype(object)) + exact[:, free]
    assert not (residual % p).any()


def test_leading_block_must_be_the_matrix_leading_columns():
    identity = sparse_from_dense(np.eye(3, dtype=np.int64))
    with pytest.raises(ValueError):
        rank_multimodular(
            identity, RankConfig(exact=True), leading=ranks.SparseIntMatrix(2, 2, [], [], [])
        )
    dense = np.array([[0, 0, 1], [1, 2, 3], [4, 5, 6]])
    block = dense[1:, :2]
    matrix = sparse_from_dense(dense)
    report = rank_multimodular(matrix, RankConfig(exact=True), sparse_from_dense(block))
    assert report.leading.exact_rank == 2 and report.leading.certified
    changed = block.copy()
    changed[1, 1] = 7
    with pytest.raises(ValueError):
        rank_multimodular(matrix, leading=sparse_from_dense(changed))
    above = dense.copy()
    above[0, 1] = 9
    with pytest.raises(ValueError):
        rank_multimodular(sparse_from_dense(above), leading=sparse_from_dense(block))
