"""Graded matrix blocks of the map (w, w') -> (df^w, dw + df^w').

Working in the contraction basis of (n+1)-forms on C^m, wedging with df
acts componentwise as multiplication by the partial derivatives of f, and
the exterior derivative sends a coefficient monomial to its formal
derivative, one block row per component.  The alternating signs of the
contraction basis are dropped throughout: they rescale rows and columns
by +-1 and cannot change any rank, which is the only quantity consumed
downstream.

Rows are indexed by (component j, source monomial), row = j * dim + rank
of the monomial; columns by target monomials in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .monomials import dim_graded, exponent_array, monomial_indices
from .polynomials import HomogeneousForm

# to_dense targets int64; block entries are tiny but guard anyway
_DENSE_LIMIT = 2**62


class SparseIntMatrix:
    """Immutable sparse integer matrix in coordinate form.

    `r` and `c` are int64 arrays of row and column indices, sorted by
    (row, column) without repeats; `v` holds the nonzero values as Python
    ints, so coefficient size is unlimited.  Built from (row, col, value)
    triplets, or from the three arrays by `from_arrays`; either way the
    shape, range, nonzero values and strict order are checked.
    """

    __slots__ = ("rows", "cols", "r", "c", "v")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, int]]):
        entries = tuple(entries)
        self._set(rows, cols, *([e[k] for e in entries] for k in range(3)))

    @classmethod
    def from_arrays(cls, rows: int, cols: int, r, c, v) -> SparseIntMatrix:
        """Matrix from row, column and value sequences of one length."""
        matrix = cls.__new__(cls)
        matrix._set(rows, cols, r, c, v)
        return matrix

    def _set(self, rows: int, cols: int, r, c, v) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape {rows}x{cols}")
        try:
            r, c = np.array(r, dtype=np.int64), np.array(c, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"entry index outside {rows}x{cols}") from None
        v = np.array(v, dtype=object)
        if not r.ndim == c.ndim == v.ndim == 1 or not len(r) == len(c) == len(v):
            raise ValueError("row, column and value arrays must be 1-d of one length")
        outside = np.flatnonzero((r < 0) | (r >= rows) | (c < 0) | (c >= cols))
        if outside.size:
            i = outside[0]
            raise ValueError(f"entry ({r[i]}, {c[i]}) outside {rows}x{cols}")
        if not all(v):
            i = v.tolist().index(0)
            raise ValueError(f"stored zero at ({r[i]}, {c[i]})")
        step, shift = np.diff(r), np.diff(c)
        unsorted = np.flatnonzero((step < 0) | ((step == 0) & (shift <= 0)))
        if unsorted.size:
            i = unsorted[0] + 1
            raise ValueError(f"entries not strictly sorted at ({r[i]}, {c[i]})")
        for array in (r, c, v):
            array.flags.writeable = False
        for name, value in zip(self.__slots__, (rows, cols, r, c, v)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SparseIntMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    @property
    def nnz(self) -> int:
        return len(self.v)

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """The (row, col, value) triplets in order, as Python ints."""
        return tuple(zip(self.r.tolist(), self.c.tolist(), self.v.tolist()))

    def to_dense(self) -> np.ndarray:
        """Dense int64 array; raises if any entry would not fit.

        The rank engine densifies mod p by itself and does not call it;
        it stays for the test oracles and as a boundary that
        perfbench/tracing.py wraps by name.
        """
        dense = np.zeros((self.rows, self.cols), dtype=np.int64)
        if self.nnz:
            if max(abs(x) for x in self.v.tolist()) >= _DENSE_LIMIT:
                raise OverflowError("entry too large for int64 densification")
            dense[self.r, self.c] = self.v.astype(np.int64)
        return dense


def build_wedge_block(form: HomogeneousForm, e: int) -> SparseIntMatrix:
    """Matrix of wedging with df on coefficient monomials of degree e.

    Row (j, a) is the coefficient vector of x^a * df/dx_j in the degree
    e+d-1 basis: each term c*x^t of f with t_j > 0 contributes t_j*c at
    column a + t - unit_j.  For e < 0 the block has no rows (columns are
    still sized by the target degree so adjacent blocks line up).

    The rank order of a graded basis is lexicographic (descending), and
    so invariant under translation: sorting the shifts t - unit_j once
    sorts the columns of every row.  The shift is injective, so no
    column repeats within a row.
    """
    m = form.variable_count
    source = exponent_array(m, e)
    size = len(source)
    r, c, v = [], [], []
    for j in range(m):
        shifted = sorted(
            (
                (t[:j] + (t[j] - 1,) + t[j + 1 :], t[j] * coefficient)
                for t, coefficient in form.poly.items()
                if t[j]
            ),
            reverse=True,
        )
        shifts = np.array([shift for shift, _ in shifted], dtype=np.int64).reshape(-1, m)
        columns = monomial_indices(source[:, None, :] + shifts[None, :, :])
        values = np.empty(columns.shape, dtype=object)
        values[:] = [value for _, value in shifted]
        r.append(np.repeat(j * size + np.arange(size), len(shifted)))
        c.append(columns.ravel())
        v.append(values.ravel())
    cols = dim_graded(m, e + form.degree - 1)
    return SparseIntMatrix.from_arrays(m * size, cols, *map(np.concatenate, (r, c, v)))


def build_derivative_block(m: int, e: int) -> SparseIntMatrix:
    """Matrix of the componentwise formal derivative on degree-e monomials.

    Component j sends x^a to a_j * x^(a - unit_j); independent of f.
    Empty for e <= 0 (no columns at e = 0, no rows below).
    """
    source = exponent_array(m, e)
    size = len(source)
    r, c, v = [], [], []
    for j in range(m):
        used = np.flatnonzero(source[:, j])
        targets = source[used]
        targets[:, j] -= 1
        r.append(j * size + used)
        c.append(monomial_indices(targets))
        v.append(source[used, j])
    return SparseIntMatrix.from_arrays(
        m * size, dim_graded(m, e - 1), *map(np.concatenate, (r, c, v))
    )


@dataclass(frozen=True)
class PhiDegrees:
    """Degree bookkeeping for one assembled map."""

    m: int
    d: int
    multiplier: int
    source_low: int
    source_high: int
    target_low: int
    target_high: int

    @classmethod
    def of(cls, m: int, d: int, multiplier: int) -> PhiDegrees:
        """Source coefficient degrees (multiplier-2)*d - (m-1) and
        (multiplier-1)*d - (m-1); targets are one wedge degree above each."""
        low = (multiplier - 2) * d - (m - 1)
        high = (multiplier - 1) * d - (m - 1)
        return cls(m, d, multiplier, low, high, low + d - 1, high + d - 1)

    @property
    def full_shape(self) -> tuple[int, int]:
        """(rows, cols) of `full`, from the basis sizes alone."""
        m = self.m
        rows = m * (dim_graded(m, self.source_low) + dim_graded(m, self.source_high))
        return rows, dim_graded(m, self.target_high) + dim_graded(m, self.target_low)


@dataclass(frozen=True)
class PhiBlocks:
    """The assembled block matrix [[0, A], [B, D]] at grading multiplier*d.

    A (`wedge_low`) and B (`wedge_high`) are wedge blocks at the two source
    coefficient degrees, D (`derivative`) couples the upper source block
    into the lower target block, and `full` holds the block-triangular
    assembly whose rank enters the E2 dimension count.  Its rows are A's
    then B's; its columns are B's target then A's, the order in which
    `full` is eliminated: the rank of B is the number of pivots among its
    leading cols(B) columns.
    """

    wedge_low: SparseIntMatrix
    wedge_high: SparseIntMatrix
    derivative: SparseIntMatrix
    full: SparseIntMatrix
    degrees: PhiDegrees


def _side_by_side(
    left: SparseIntMatrix, right: SparseIntMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value arrays of [left, right], in order, unsorted.

    An entry's position is the number of entries before it in its own
    block plus those of the other block in earlier rows (for a `right`
    entry: in its row too, since left's columns come first).
    """
    at_left = np.searchsorted(right.r, left.r) + np.arange(left.nnz)
    at_right = np.searchsorted(left.r, right.r, side="right") + np.arange(right.nnz)
    r = np.empty(left.nnz + right.nnz, dtype=np.int64)
    c = np.empty_like(r)
    v = np.empty(len(r), dtype=object)
    r[at_left], r[at_right] = left.r, right.r
    c[at_left], c[at_right] = left.c, right.c + left.cols
    v[at_left], v[at_right] = left.v, right.v
    return r, c, v


def assemble_phi(form: HomogeneousForm, multiplier: int) -> PhiBlocks:
    """Build the graded map at target grading multiplier*d.

    Degrees as in `PhiDegrees.of`.  Empty blocks are allowed (small d or
    multiplier = 2).
    """
    if multiplier < 2:
        raise ValueError(f"multiplier must be >= 2, got {multiplier}")
    m = form.variable_count
    degrees = PhiDegrees.of(m, form.degree, multiplier)
    wedge_low = build_wedge_block(form, degrees.source_low)
    wedge_high = build_wedge_block(form, degrees.source_high)
    derivative = build_derivative_block(m, degrees.source_high)
    assert derivative.cols == wedge_low.cols
    assert derivative.rows == wedge_high.rows
    lower = _side_by_side(wedge_high, derivative)
    full = SparseIntMatrix.from_arrays(
        wedge_low.rows + wedge_high.rows,
        wedge_high.cols + wedge_low.cols,
        np.concatenate((wedge_low.r, lower[0] + wedge_low.rows)),
        np.concatenate((wedge_low.c + wedge_high.cols, lower[1])),
        np.concatenate((wedge_low.v, lower[2])),
    )
    return PhiBlocks(wedge_low, wedge_high, derivative, full, degrees)
