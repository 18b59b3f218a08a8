from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import graded_monomials, monomial_index, stars_and_bars
from hyperdefect.monomials import dim_graded, exponent_array, monomial_indices


def test_dim_graded_values():
    assert dim_graded(5, 1) == 5
    assert dim_graded(5, 0) == 1
    assert dim_graded(5, -4) == 0
    assert dim_graded(5, 5) == 126
    assert dim_graded(1, 7) == 1


def test_dim_graded_counts_enumeration():
    for m in range(1, 7):
        for e in range(0, 10):
            assert dim_graded(m, e) == sum(1 for _ in stars_and_bars(m, e))


def test_dim_graded_rejects_bad_m():
    with pytest.raises(ValueError):
        dim_graded(0, 3)


def test_pascal_recurrence():
    for m in range(2, 7):
        for e in range(1, 13):
            assert dim_graded(m, e) == dim_graded(m - 1, e) + dim_graded(m, e - 1)


def test_bijection_exhaustive():
    # every vector of each graded basis ranks to a distinct index, and the
    # basis listed in rank order holds each vector at its rank
    for m in range(1, 7):
        for e in range(0, 13):
            vectors = list(stars_and_bars(m, e))
            ranks = [monomial_index(v) for v in vectors]
            assert sorted(ranks) == list(range(dim_graded(m, e)))
            assert monomial_indices(np.array(vectors)).tolist() == ranks
            basis = exponent_array(m, e)
            assert monomial_indices(basis).tolist() == list(range(dim_graded(m, e)))
            assert [tuple(basis[i].tolist()) for i in ranks] == vectors


def test_enumeration_is_in_rank_order():
    for m in range(1, 7):
        for e in range(-1, 12):
            ranks = [monomial_index(v) for v in graded_monomials(m, e)]
            assert ranks == list(range(dim_graded(m, e)))
            basis = exponent_array(m, e)
            assert basis.dtype == np.int64 and basis.shape == (dim_graded(m, e), m)
            assert basis.tolist() == [list(v) for v in graded_monomials(m, e)]


def test_degree_zero_monomial_ranks_first():
    assert monomial_index((0, 0, 0, 0, 0)) == 0
    assert exponent_array(5, 0).tolist() == [[0, 0, 0, 0, 0]]


def test_unit_vectors_are_a_bijection():
    units = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    ranks = set(monomial_indices(np.array(units)).tolist())
    assert len(ranks) == 5
    assert ranks <= set(range(5))


def test_degree_two_in_three_variables_is_the_expected_set():
    got = set(graded_monomials(3, 2))
    assert got == {
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    }


def test_negative_degree_enumerates_nothing():
    assert list(graded_monomials(4, -1)) == []
    assert dim_graded(4, -1) == 0


def test_float_degrees_and_exponents_are_refused():
    for m, e in ((5, 2.0), (2.0, 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            exponent_array(m, e)
    # a float exponent is refused, not truncated to another monomial's rank
    with pytest.raises(ValueError, match="exponents must be integers"):
        monomial_indices(np.array([[1.5, 0.5, 1.0]]))
    vectors = np.array([[1, 0, 2], [0, 3, 0]])
    assert [monomial_index(v) for v in vectors.tolist()] == [5, 6]
    for dtype in (np.uint8, np.int32):
        assert monomial_indices(vectors.astype(dtype)).tolist() == [5, 6]


def test_monomial_index_rejects_negative_entries():
    with pytest.raises(ValueError):
        monomial_index((1, -1, 0))


def test_graded_basis_interface():
    basis = list(graded_monomials(3, 4))
    assert len(basis) == dim_graded(3, 4) == comb(6, 2)
    assert [monomial_index(v) for v in basis] == list(range(len(basis)))
    assert exponent_array(3, 4).tolist() == [list(v) for v in basis]
    assert basis[0] == (4, 0, 0)


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=7).map(tuple)
)
@settings(max_examples=200, deadline=None)
def test_monomial_indices_matches_the_scalar_rank(vector):
    m, e = len(vector), sum(vector)
    i = int(monomial_indices(np.array(vector)))
    assert 0 <= i < dim_graded(m, e)
    assert i == monomial_index(vector)
