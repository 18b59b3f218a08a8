import random

import numpy as np
import pytest

from helpers import (
    from_entries,
    graded_monomials,
    monomial_index,
    partial,
    per_entry_derivative_block,
    per_entry_full,
    per_entry_wedge_block,
)
from hyperdefect.fixtures import FIXTURES, get_fixture
from hyperdefect.koszul import (
    PhiDegrees,
    SparseIntMatrix,
    assemble_phi,
    build_derivative_block,
    build_wedge_block,
)
from hyperdefect.monomials import dim_graded
from hyperdefect.polynomials import HomogeneousForm, Polynomial, parse_expression
from hyperdefect.ranks import RankConfig, rank_multimodular


def form_of(text, variables=("x", "y", "z", "u", "v")):
    return HomogeneousForm.from_polynomial(parse_expression(text, variables))


def row_as_poly_coefficients(matrix, row):
    return {c: v for r, c, v in matrix.entries if r == row}


# -- wedge block ----------------------------------------------------------------


def test_wedge_block_two_variables():
    form = form_of("x^2+y^2", ("x", "y"))
    block = build_wedge_block(form, 0)
    assert (block.rows, block.cols) == (2, 2)
    assert block.to_dense().tolist() == [[2, 0], [0, 2]]


def test_wedge_block_negative_degree_is_empty():
    form = form_of("x^3+y^3+z^3+u^3+v^3")
    block = build_wedge_block(form, -1)
    assert block.rows == 0
    assert block.cols == dim_graded(5, -1 + 3 - 1)
    assert block.entries == ()


def test_wedge_rows_are_multiplication_by_partials():
    # row (j, a) must hold the coefficient vector of x^a * df/dx_j
    form = get_fixture("segre-cubic").build()
    e = 2
    block = build_wedge_block(form, e)
    source = list(graded_monomials(5, e))
    for j in range(5):
        derivative = partial(form.poly, j)
        for r, a in enumerate(source):
            monomial = Polynomial(form.variables, {a: 1})
            product = monomial * derivative
            expected = {monomial_index(t): c for t, c in product.items()}
            assert row_as_poly_coefficients(block, j * len(source) + r) == expected


def test_wedge_rows_satisfy_euler_row_sum():
    # summing the rows (j, b + unit_j) reconstructs d * (f * x^b)
    for name in ("segre-cubic", "quartic-one-point"):
        form = get_fixture(name).build()
        m, d = 5, form.degree
        e = 2 * d - 4
        block = build_wedge_block(form, e)
        size = dim_graded(m, e)
        for b in graded_monomials(m, e - 1):
            total: dict[int, int] = {}
            for j in range(m):
                lifted = b[:j] + (b[j] + 1,) + b[j + 1 :]
                row = j * size + monomial_index(lifted)
                for c, v in row_as_poly_coefficients(block, row).items():
                    total[c] = total.get(c, 0) + v
            monomial = Polynomial(form.variables, {b: 1})
            expected_poly = d * (form.poly * monomial)
            expected = {monomial_index(t): c for t, c in expected_poly.items()}
            assert {c: v for c, v in total.items() if v} == expected


# -- derivative block -------------------------------------------------------------


def test_derivative_block_two_variables():
    block = build_derivative_block(2, 1)
    assert (block.rows, block.cols) == (4, 1)
    assert block.to_dense().ravel().tolist() == [1, 0, 0, 1]


def test_derivative_block_degree_zero_has_no_columns():
    block = build_derivative_block(3, 0)
    assert (block.rows, block.cols) == (3, 0)
    assert block.entries == ()


def test_derivative_block_row_structure():
    # row (j, a) has exactly one entry, a_j, when a_j > 0, else none
    block = build_derivative_block(4, 3)
    source = list(graded_monomials(4, 3))
    for j in range(4):
        for r, a in enumerate(source):
            row = row_as_poly_coefficients(block, j * len(source) + r)
            if a[j]:
                lowered = a[:j] + (a[j] - 1,) + a[j + 1 :]
                assert row == {monomial_index(lowered): a[j]}
            else:
                assert row == {}


# -- assembly ----------------------------------------------------------------------


def test_segre_assembly_shapes():
    blocks = assemble_phi(get_fixture("segre-cubic").build(), 3)
    assert (blocks.wedge_low.rows, blocks.wedge_low.cols) == (0, 5)
    assert (blocks.wedge_high.rows, blocks.wedge_high.cols) == (75, 70)
    assert (blocks.derivative.rows, blocks.derivative.cols) == (75, 5)
    assert (blocks.full.rows, blocks.full.cols) == (75, 75)
    assert blocks.degrees.source_low == -1
    assert blocks.degrees.source_high == 2


def test_quintic_assembly_shapes():
    blocks = assemble_phi(get_fixture("quintic-16-nodes").build(), 3)
    assert (blocks.wedge_low.rows, blocks.wedge_low.cols) == (25, 126)
    assert (blocks.wedge_high.rows, blocks.wedge_high.cols) == (1050, 1001)
    assert (blocks.full.rows, blocks.full.cols) == (1075, 1127)


def test_full_is_the_block_assembly():
    blocks = assemble_phi(form_of("x^4+y^4+z^4+u^4+v^4"), 3)
    full = blocks.full.to_dense()
    low, high, deriv = (
        blocks.wedge_low.to_dense(),
        blocks.wedge_high.to_dense(),
        blocks.derivative.to_dense(),
    )
    # [[0, A], [B, D]]: A's rows first, B's columns first
    r0, c0 = low.shape[0], high.shape[1]
    assert full.shape == (r0 + high.shape[0], c0 + low.shape[1])
    assert not full[:r0, :c0].any()
    assert np.array_equal(full[:r0, c0:], low)
    assert np.array_equal(full[r0:, :c0], high)
    assert np.array_equal(full[r0:, c0:], deriv)


def test_multiplier_two_allows_empty_blocks():
    blocks = assemble_phi(get_fixture("segre-cubic").build(), 2)
    assert blocks.full.rows == 0
    assert blocks.full.cols == dim_graded(5, 1)


def test_multiplier_below_two_rejected():
    with pytest.raises(ValueError):
        assemble_phi(get_fixture("segre-cubic").build(), 1)


def test_construction_is_deterministic():
    form = get_fixture("quartic-one-point").build()
    first = assemble_phi(form, 3)
    second = assemble_phi(form, 3)
    assert first.full.entries == second.full.entries
    assert first == second


def random_form(m, d, seed):
    """Degree-d form in m variables: random terms, coefficients in [-5, 5]
    without 0, one of them 2**70, plus the pure powers so every partial
    derivative is nonzero."""
    rng = random.Random(seed)
    variables = tuple(f"x{i}" for i in range(m))
    monomials = list(graded_monomials(m, d))
    terms = {t: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for t in rng.sample(
        monomials, min(len(monomials), rng.randint(2, 12))
    )}
    for j in range(m):
        terms.setdefault(tuple(d if i == j else 0 for i in range(m)), -1)
    terms[rng.choice(sorted(terms))] = 2**70
    return HomogeneousForm.from_polynomial(Polynomial(variables, terms))


def assert_blocks_match_the_per_entry_oracle(form, multiplier):
    blocks = assemble_phi(form, multiplier)
    degrees = blocks.degrees
    expected = {
        "wedge_low": per_entry_wedge_block(form, degrees.source_low),
        "wedge_high": per_entry_wedge_block(form, degrees.source_high),
        "derivative": per_entry_derivative_block(form.variable_count, degrees.source_high),
        "full": per_entry_full(form, multiplier),
    }
    for name, oracle in expected.items():
        block = getattr(blocks, name)
        assert (block.rows, block.cols) == (oracle.rows, oracle.cols), name
        assert block.entries == oracle.entries, name
        assert all(type(v) is int for _, _, v in block.entries), name
    assert (blocks.full.rows, blocks.full.cols) == degrees.full_shape
    # `full` skips the constructor's checks: the checked construction of
    # its arrays accepts them and gives the same matrix
    full = blocks.full
    assert full == SparseIntMatrix(full.rows, full.cols, full.r, full.c, full.v)
    assert (full.r.dtype, full.c.dtype, full.v.dtype) == (np.int64, np.int64, object)
    assert not any(array.flags.writeable for array in (full.r, full.c, full.v))


@pytest.mark.parametrize("name", sorted(f.name for f in FIXTURES))
def test_corpus_blocks_match_the_per_entry_oracle(name):
    assert_blocks_match_the_per_entry_oracle(get_fixture(name).build(), 3)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_random_blocks_match_the_per_entry_oracle(m):
    for d in (2, 3):
        form = random_form(m, d, seed=100 * m + d)
        assert max(abs(c) for _, c in form.poly.items()) == 2**70
        assert any(c < 0 for _, c in form.poly.items())
        for multiplier in (2, 3):
            assert_blocks_match_the_per_entry_oracle(form, multiplier)
        for e in (-2, -1, 0, 1):  # no rows below e = 0, no columns at e = 0
            assert build_wedge_block(form, e).entries == per_entry_wedge_block(form, e).entries
            block, oracle = build_derivative_block(m, e), per_entry_derivative_block(m, e)
            assert (block.rows, block.cols, block.entries) == (
                oracle.rows, oracle.cols, oracle.entries
            )


# -- sparse matrix container -------------------------------------------------------


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        from_entries(2, 2, ((0, 0, 0),))  # stored zero
    with pytest.raises(ValueError):
        from_entries(2, 2, ((2, 0, 1),))  # out of range
    with pytest.raises(ValueError):
        from_entries(2, 2, ((1, 1, 1), (0, 0, 1)))  # unsorted
    with pytest.raises(ValueError):
        from_entries(2, 2, ((0, 1, 1), (0, 1, 2)))  # repeated
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, [0, 1], [0], [1, 1])  # ragged
    matrix = SparseIntMatrix(2, 2, np.array([0, 1]), np.array([1, 0]), [3, 2**70])
    assert matrix.entries == ((0, 1, 3), (1, 0, 2**70))
    assert matrix == from_entries(2, 2, matrix.entries)
    with pytest.raises(AttributeError):
        matrix.rows = 3
    with pytest.raises(ValueError):
        matrix.r[0] = 1  # the arrays are read-only
    # a value that is not an integer is refused, not truncated to a rank
    for value in (0.5, 1.0, np.float64(2.0), "1", None):
        with pytest.raises(ValueError, match=r"at \(0, 0\) is not an integer"):
            SparseIntMatrix(1, 1, [0], [0], [value])
    # numpy integers are stored as Python ints, so exact sums cannot overflow
    a, b = np.int64(2**40 + 1), np.int64(2**40 + 3)
    matrix = SparseIntMatrix(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [a, b, 2 * a, 2 * b])
    assert all(type(x) is int for x in matrix.v)
    report = rank_multimodular(matrix, RankConfig(exact=True))
    assert report.certified and report.exact_rank == 1
    # float indices are refused, not truncated to other entries
    for r, c in (([0.5, 1.5], [0.2, 0.9]), ([1.0], [0])):
        with pytest.raises(ValueError, match="index must be an integer"):
            SparseIntMatrix(2, 2, r, c, [1] * len(r))
    for r in ([2**63], [2**70], np.array([2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match="outside 2x2"):
            SparseIntMatrix(2, 2, r, [0], [1])
    with pytest.raises(ValueError, match="rows must be an integer >= 0"):
        SparseIntMatrix(-1, 2, [], [], [])
    # integer and bool arrays, and integers of any type, are taken
    matrix = SparseIntMatrix(
        np.int64(2), np.int32(2), np.array([0, 1], dtype=np.uint8), [True, np.int64(1)], [1, 1]
    )
    assert matrix.entries == ((0, 1, 1), (1, 1, 1)) and matrix.r.dtype == np.int64
    report = rank_multimodular(matrix, RankConfig(exact=True))
    assert (report.rows, report.cols, report.exact_rank) == (2, 2, 1)
    assert type(report.rows) is int and type(report.cols) is int


@pytest.mark.parametrize("bad", [5.0, 2.5, "5"])
def test_phi_degrees_take_integer_sizes(bad):
    for args in ((bad, 3, 3), (5, bad, 3)):
        with pytest.raises(ValueError):
            PhiDegrees.of(*args)


def test_phi_degrees_of_numpy_integers_are_ints():
    degrees = PhiDegrees.of(np.int64(5), np.int64(3), np.int64(3))
    assert degrees == PhiDegrees.of(5, 3, 3)
    assert all(type(x) is int for x in vars(degrees).values())
