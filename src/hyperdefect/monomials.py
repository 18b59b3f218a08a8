"""Graded monomial bases and their rank/unrank bijection.

Degree-e monomials in m variables are numbered 0 .. C(e+m-1, m-1)-1 by
descending first exponent, then recursively on the remaining variables,
so x^e comes first and the pure power of the last variable comes last.
The rank has a closed form as a sum of binomial offsets, which is what
matrix row/column addressing uses throughout the package; it vectorises
over an array of exponent vectors (`monomial_indices`).
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

import numpy as np


def dim_graded(m: int, e: int) -> int:
    """Number of degree-e monomials in m variables; 0 for negative e."""
    if m < 1:
        raise ValueError(f"variable count must be >= 1, got {m}")
    if e < 0:
        return 0
    return comb(e + m - 1, m - 1)


def monomial_index(exponents: Sequence[int]) -> int:
    """Rank of an exponent vector within the graded basis of its degree."""
    m = len(exponents)
    if m < 1:
        raise ValueError("empty exponent vector")
    remaining = 0
    for a in exponents:
        if a < 0:
            raise ValueError(f"negative exponent in {tuple(exponents)}")
        remaining += a
    index = 0
    for r in range(m - 1):
        remaining -= exponents[r]
        index += comb(remaining + m - 2 - r, m - 1 - r)
    return index


def monomial_indices(exponents: np.ndarray) -> np.ndarray:
    """`monomial_index` of every exponent vector along the last axis.

    Exponents must be non-negative; the binomials come from exact
    integer tables, so the result is exact wherever it fits in int64.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    m = exponents.shape[-1]
    # remaining[..., r] = sum of exponents r+1 .. m-1
    remaining = np.cumsum(exponents[..., :0:-1], axis=-1)[..., ::-1]
    index = np.zeros(exponents.shape[:-1], dtype=np.int64)
    if remaining.size == 0:
        return index
    top = int(remaining.max())
    for r in range(m - 1):
        k = m - 1 - r
        table = np.array([comb(n + k - 1, k) for n in range(top + 1)], dtype=np.int64)
        index += table[remaining[..., r]]
    return index


def exponent_array(m: int, e: int) -> np.ndarray:
    """All degree-e exponent vectors in rank order, as a (dim, m) int64 array."""
    return np.array(list(graded_monomials(m, e)), dtype=np.int64).reshape(-1, m)


def index_monomial(m: int, e: int, i: int) -> tuple[int, ...]:
    """Exponent vector of rank i in the degree-e basis (inverse of monomial_index)."""
    size = dim_graded(m, e)
    if not 0 <= i < size:
        raise IndexError(f"monomial index {i} out of range [0, {size}) for m={m}, e={e}")
    exponents = []
    remaining_degree = e
    remaining_index = i
    for r in range(m - 1):
        tail = m - 1 - r
        # largest leading exponent whose block of successors fits below remaining_index
        a = remaining_degree
        while a > 0 and comb(remaining_degree - a + tail, tail) <= remaining_index:
            a -= 1
        remaining_index -= comb(remaining_degree - a + tail - 1, tail)
        exponents.append(a)
        remaining_degree -= a
    exponents.append(remaining_degree)
    return tuple(exponents)


def graded_monomials(m: int, e: int) -> Iterator[tuple[int, ...]]:
    """Yield all degree-e exponent vectors in rank order (empty for e < 0)."""
    if m < 1:
        raise ValueError(f"variable count must be >= 1, got {m}")
    if e < 0:
        return
    if m == 1:
        yield (e,)
        return
    for a in range(e, -1, -1):
        for rest in graded_monomials(m - 1, e - a):
            yield (a, *rest)
