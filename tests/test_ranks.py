import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rational_rank, rowreduce_rank, sparse_from_dense
from hyperdefect.fixtures import get_fixture
from hyperdefect import ranks
from hyperdefect.koszul import SparseIntMatrix, assemble_phi
from hyperdefect.polynomials import HomogeneousForm, parse_expression
from hyperdefect.ranks import (
    _LEAF,
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
    rank_profile_mod_p,
)

BLOCKED_PRIMES = (2, 3, 32749, 524287)  # float64 kernel at the full panel width
EDGE_PRIME = 94906249  # largest prime the float64 kernel takes (panel width 1)
BIG_PRIME = 2147483647  # int64 kernel, the largest prime RankConfig accepts
WIDE_PRIME = 11863279  # largest prime the float64 kernel takes at the full panel width
ODD_PRIME = 11863289  # the next prime: panels of 63 columns, halves of 31 and 32


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


def test_identity_and_zero():
    identity = sparse_from_dense(np.eye(3, dtype=np.int64))
    for p in (2, 3, 32749):
        assert rank_mod_p(identity, p) == 3
    assert rank_mod_p(SparseIntMatrix(4, 5, ()), 7) == 0


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
    report = rank_multimodular(SparseIntMatrix(0, 5, ()))
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
    for p in BLOCKED_PRIMES + (EDGE_PRIME, BIG_PRIME):
        rank = rank_mod_p(product, p)
        assert rank == rowreduce_rank(product, p)
        assert rank <= 60
    assert rank_mod_p(product, BIG_PRIME) == rank_mod_p(product, 32749)
    # rank 150 puts pivots in three panels: the pivot rows of the second hold
    # the first panel's unreduced product when they are solved
    deep = rng.randint(-4, 5, size=(200, 150)) @ rng.randint(-4, 5, size=(150, 260))
    deep = sparse_from_dense(deep)
    for p in BLOCKED_PRIMES + (WIDE_PRIME, EDGE_PRIME, BIG_PRIME):
        assert rank_mod_p(deep, p) == rowreduce_rank(deep, p)


def _low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    left = rng.integers(-3, 4, size=(rows, rank))
    return left @ rng.integers(-3, 4, size=(rank, cols))


def _empty_left_half(p):
    # the first split of a panel, and the first leaf right of it, see only zeros
    matrix = _low_rank(60, 2 * _PANEL, 30, 10)
    matrix[:, : _PANEL // 2 + _LEAF] = 0
    return matrix


RECURSION_EDGES = {
    "cols-1": lambda p: _low_rank(30, 1, 1, 1),
    "cols-leaf-1": lambda p: _low_rank(30, _LEAF - 1, 5, 2),
    "cols-leaf+1": lambda p: _low_rank(30, _LEAF + 1, 6, 3),
    "cols-panel-1": lambda p: _low_rank(50, _PANEL - 1, 40, 4),
    "cols-panel": lambda p: _low_rank(50, _PANEL, 40, 5),
    "cols-panel+1": lambda p: _low_rank(50, _PANEL + 1, 40, 6),
    "cols-2panel+1": lambda p: _low_rank(70, 2 * _PANEL + 1, 50, 7),
    "empty-left-half": _empty_left_half,
    # rows run out inside the left half of the first split, and inside the right half
    "rows-run-out-left": lambda p: _low_rank(20, 2 * _PANEL + 1, 20, 8),
    "rows-run-out-right": lambda p: _low_rank(40, _PANEL + 1, 40, 9),
    "all-p-minus-1": lambda p: np.full((2 * _PANEL + 2, 2 * _PANEL + 1), p - 1, dtype=np.int64),
}


@pytest.mark.parametrize("p", BLOCKED_PRIMES + (WIDE_PRIME, ODD_PRIME, EDGE_PRIME, BIG_PRIME))
@pytest.mark.parametrize("case", sorted(RECURSION_EDGES))
def test_recursive_panel_keeps_the_column_rank_profile(case, p):
    matrix = RECURSION_EDGES[case](p)
    cols = matrix.shape[1]
    prefix = [rowreduce_rank(matrix[:, :k], p) for k in range(cols + 1)]
    expected = tuple(k for k in range(cols) if prefix[k + 1] > prefix[k])
    assert rank_profile_mod_p(sparse_from_dense(matrix), p) == expected
    # the kept echelon form back-solves to kernel vectors mod p
    profile, echelon = ranks._echelon(sparse_from_dense(matrix), p)
    assert profile == expected
    pivots, free = ranks._split_columns(profile, cols)
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[pivots] = ranks._kernel_mod_p(echelon, profile, cols, p)
    basis[free, np.arange(len(free))] = 1
    residues = np.array([[v % p for v in row] for row in matrix.tolist()], dtype=np.int64)
    high, low = divmod(basis, 1 << 16)  # keeps every int64 sum below 2**63
    assert not ((residues @ high % p * (1 << 16) + residues @ low) % p).any()


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
    # every prime RankConfig accepts goes through the one engine
    assert _kernel(WIDE_PRIME)[1] == _PANEL and _kernel(ODD_PRIME)[1] == _PANEL - 1
    assert _kernel(EDGE_PRIME)[0] is np.float64
    assert _kernel(EDGE_PRIME + 48)[0] is np.int64
    for p in (2, EDGE_PRIME, EDGE_PRIME + 48, BIG_PRIME):
        assert rank_mod_p(identity, p) == 2


@given(small_matrices, st.sampled_from(BLOCKED_PRIMES + (EDGE_PRIME, BIG_PRIME)))
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


@given(small_matrices, st.sampled_from(BLOCKED_PRIMES + (EDGE_PRIME, BIG_PRIME)))
@settings(max_examples=80, deadline=None)
def test_profile_prefix_counts_leading_block_ranks(rows, p):
    dense = np.array(rows, dtype=np.int64)
    cols = dense.shape[1]
    matrix = sparse_from_dense(dense)
    modular = _leading_counts(rank_profile_mod_p(matrix, p), cols)
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
    profile = rank_profile_mod_p(full, p)
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
    # B qualifies for exact certification and full does not: B's kernel comes
    # from the echelon rows of full whose pivots lie among B's columns
    shapes = []
    real = ranks._echelon

    def spy(matrix, p):
        shapes.append((matrix.rows, matrix.cols))
        return real(matrix, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranks, "_echelon", spy)
        alone = rank_multimodular(blocks.full, RankConfig(), leading=blocks.wedge_high)
    assert shapes == [(102, 76)] * len(DEFAULT_PRIMES)
    assert alone.exact_rank is None and not alone.certified
    assert alone.leading.exact_rank == exact_b and alone.leading.certified
    neither = rank_multimodular(
        blocks.full, RankConfig(dense_threshold=83), leading=blocks.wedge_high
    )
    assert neither.leading.exact_rank is None
    # one lift over full certifies both: its profile's prefix is B's
    both = rank_multimodular(blocks.full, RankConfig(exact=True), leading=blocks.wedge_high)
    assert (both.exact_rank, both.leading.exact_rank) == (exact_full, exact_b)
    assert both.certified and both.leading.certified
    assert both.leading == rank_multimodular(blocks.wedge_high, RankConfig(exact=True))
    with pytest.raises(ValueError):
        rank_multimodular(blocks.wedge_high, leading=blocks.full)


@pytest.mark.parametrize("p", [32749, EDGE_PRIME, BIG_PRIME])
def test_in_place_reduction_is_exact_at_its_edges(p):
    dtype, width, delay = _kernel(p)
    largest = delay * width * (p - 1) ** 2  # most negative value the kernel forms
    limit = 2**53 if dtype is np.float64 else 2**63
    assert largest + p < limit
    edges = [0, 1, p - 1, p, 2 * p, -p, -1, -(p - 1), (p - 1) ** 2, p * (p - 1)]
    edges += [-largest, -largest + 1, -largest + p - 1, -(largest // p) * p]
    edges += [-(largest // p) * p - 1, -(largest // p) * p + 1, -(largest // p - 1) * p]
    rng = np.random.default_rng(p)
    edges += [int(v) for v in rng.integers(-largest, p, size=2000)]
    values = np.array(edges, dtype=dtype)
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


def test_exact_budget():
    # a matrix of exactly EXACT_CELL_BUDGET cells is certified; one more row is refused
    assert 1024 * 1024 == EXACT_CELL_BUDGET
    assert rank_exact(SparseIntMatrix(1024, 1024, ())) == 0
    huge = SparseIntMatrix(1025, 1024, ())
    with pytest.raises(RankBudgetError):
        rank_exact(huge)
    with pytest.raises(RankBudgetError):
        rank_multimodular(huge, RankConfig(exact=True))


def test_rank_exact_refuses_an_uncertifiable_report(monkeypatch):
    # a profile longer than the matrix is wide cannot be lifted, so the
    # report stays uncertified and rank_exact has no rank to give
    real = ranks._echelon

    def one_pivot_too_many(matrix, p):
        profile, echelon = real(matrix, p)
        return profile + (matrix.cols,), echelon

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


def _spy_primes(monkeypatch):
    """Record the prime of every elimination the report path runs."""
    primes = []
    real = ranks._echelon

    def spy(matrix, p):
        primes.append(p)
        return real(matrix, p)

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
    real = ranks._rational_lift
    lifts = iter([(np.array([[-2]], dtype=object), 1)])
    monkeypatch.setattr(ranks, "_rational_lift", lambda *args: next(lifts, None) or real(*args))
    report = rank_multimodular(
        sparse_from_dense([[2, 1]]),
        RankConfig(primes=(2,), exact=True),
        leading=sparse_from_dense([[2]]),
    )
    assert report.per_prime == ((2, 1),) and report.certified
    assert report.leading.per_prime == ((2, 0),)
    assert report.leading.exact_rank == 1 and not report.leading.certified


def _perturb_first_numerator(real, times):
    calls = []

    def perturbed(value, modulus):
        lifted = real(value, modulus)
        calls.append(modulus)
        if lifted is None or len(calls) > times:
            return lifted
        numerators, den = lifted
        numerators = numerators.copy()
        numerators.flat[0] += 1
        return numerators, den

    return perturbed, calls


@pytest.mark.parametrize("times", [1, 3, None])
def test_perturbed_reconstruction_is_never_accepted(monkeypatch, times):
    matrix = assemble_phi(get_fixture("segre-cubic").build(), 3).full  # rank 60 of 75
    primes = _spy_primes(monkeypatch)
    perturbed, calls = _perturb_first_numerator(ranks._rational_lift, times or 10**9)
    monkeypatch.setattr(ranks, "_rational_lift", perturbed)
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

    def overclaim(matrix, p):
        primes.append(p)
        profile, echelon = real(matrix, p)
        return ((1, 2) if p in DEFAULT_PRIMES else profile), echelon

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
