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
from operator import index

import numpy as np

from .monomials import _integer, dim_graded, exponent_array, monomial_indices
from .polynomials import HomogeneousForm, variable_classes, variable_symmetries

# to_dense targets int64; block entries are tiny but guard anyway
_DENSE_LIMIT = 2**62


def _index_array(indices: np.ndarray, name: str) -> np.ndarray:
    """`indices` as a new int64 array, those of any other dtype through `_integer`."""
    if indices.dtype.kind not in "biu":
        indices = [_integer(i, f"{name} index") for i in indices.tolist()]
    return np.array(indices, dtype=np.int64)


class SparseIntMatrix:
    """Immutable sparse integer matrix in coordinate form.

    `r` and `c` are int64 arrays of row and column indices, sorted by
    (row, column) without repeats; `v` holds the nonzero values as Python
    ints, so coefficient size is unlimited.  Built from row, column and
    value sequences of one length; the shape, range, strict order and
    values are checked.  Shape, indices and values are integers of any
    type: the shape through `_integer`, each value through operator.index
    and stored as a Python int; anything else is refused.
    """

    __slots__ = ("rows", "cols", "r", "c", "v")

    def __init__(self, rows: int, cols: int, r, c, v):
        rows, cols = _integer(rows, "rows", 0), _integer(cols, "cols", 0)
        r, c, v = np.asarray(r), np.asarray(c), np.array(v, dtype=object)
        if not r.ndim == c.ndim == v.ndim == 1 or not len(r) == len(c) == len(v):
            raise ValueError("row, column and value arrays must be 1-d of one length")
        try:
            r, c = _index_array(r, "row"), _index_array(c, "column")
        except OverflowError:
            raise ValueError(f"entry index outside {rows}x{cols}") from None
        outside = np.flatnonzero((r < 0) | (r >= rows) | (c < 0) | (c >= cols))
        if outside.size:
            i = outside[0]
            raise ValueError(f"entry ({r[i]}, {c[i]}) outside {rows}x{cols}")
        try:
            values = list(map(index, v.tolist()))
        except TypeError:
            for i, x in enumerate(v.tolist()):
                try:
                    index(x)
                except TypeError:
                    raise ValueError(f"value {x!r} at ({r[i]}, {c[i]}) is not an integer") from None
        if not all(values):
            i = values.index(0)
            raise ValueError(f"stored zero at ({r[i]}, {c[i]})")
        v[:] = values
        step, shift = np.diff(r), np.diff(c)
        unsorted = np.flatnonzero((step < 0) | ((step == 0) & (shift <= 0)))
        if unsorted.size:
            i = unsorted[0] + 1
            raise ValueError(f"entries not strictly sorted at ({r[i]}, {c[i]})")
        self._store(rows, cols, r, c, v)

    @classmethod
    def _of_checked(cls, rows: int, cols: int, r, c, v) -> SparseIntMatrix:
        """Matrix of arrays taken as they are: int64 indices in range and
        strictly sorted, nonzero Python-int values, built from the arrays
        of checked matrices.  The arrays are made read-only."""
        matrix = cls.__new__(cls)
        matrix._store(rows, cols, r, c, v)
        return matrix

    def _store(self, rows: int, cols: int, r, c, v) -> None:
        """Set every field, the arrays made read-only."""
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
    return SparseIntMatrix(m * size, cols, *map(np.concatenate, (r, c, v)))


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
    return SparseIntMatrix(m * size, dim_graded(m, e - 1), *map(np.concatenate, (r, c, v)))


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
        (multiplier-1)*d - (m-1); targets are one wedge degree above each.
        m, d and the multiplier (at least 2) are taken through `_integer`."""
        m, d, k = _integer(m, "m"), _integer(d, "d"), _integer(multiplier, "multiplier", 2)
        low = (k - 2) * d - (m - 1)
        high = (k - 1) * d - (m - 1)
        return cls(m, d, k, low, high, low + d - 1, high + d - 1)

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


def assemble_phi(form: HomogeneousForm, multiplier: int) -> PhiBlocks:
    """Build the graded map at target grading multiplier*d.

    Degrees as in `PhiDegrees.of`.  Empty blocks are allowed (small d or
    multiplier = 2).
    """
    m = form.variable_count
    degrees = PhiDegrees.of(m, form.degree, multiplier)
    wedge_low = build_wedge_block(form, degrees.source_low)
    wedge_high = build_wedge_block(form, degrees.source_high)
    derivative = build_derivative_block(m, degrees.source_high)
    assert derivative.cols == wedge_low.cols
    assert derivative.rows == wedge_high.rows
    # [B, D] in row order: D's columns follow B's, so a stable sort by row
    # keeps each row's columns increasing; the blocks were checked when built
    r = np.concatenate((wedge_high.r, derivative.r))
    c = np.concatenate((wedge_high.c, derivative.c + wedge_high.cols))
    v = np.concatenate((wedge_high.v, derivative.v))
    order = np.argsort(r, kind="stable")
    full = SparseIntMatrix._of_checked(
        wedge_low.rows + wedge_high.rows,
        wedge_high.cols + wedge_low.cols,
        np.concatenate((wedge_low.r, r[order] + wedge_low.rows)),
        np.concatenate((wedge_low.c + wedge_high.cols, c[order])),
        np.concatenate((wedge_low.v, v[order])),
    )
    return PhiBlocks(wedge_low, wedge_high, derivative, full, degrees)


@dataclass(frozen=True)
class BlockSymmetries:
    """The variable permutations that fix a form, as maps of `wedge_low`
    or `full` (`block`) of `assemble_phi`: the `symmetries` that
    `rank_multimodular` takes.  Nothing is computed until asked.

    A permutation s with f(x_s(0), ..., x_s(m-1)) = f (see
    `variable_symmetries`) sends row (j, a) of a wedge block to (s(j), s.a)
    and column b to s.b, where (s.a)[s(i)] = a[i].  The entry t_j*c that
    a term c*x^t puts at ((j, a), a + t - unit_j) goes to the entry of
    the term c*x^(s.t), (s.t)[s(j)]*c = t_j*c, and D's entry a_j at
    ((j, a), a - unit_j) to (s.a)[s(j)] = a_j.  No sign appears, because
    the contraction signs are dropped (see the module docstring).
    """

    form: HomogeneousForm
    degrees: PhiDegrees
    block: str  # "wedge_low" or "full"

    def possible(self) -> bool:
        """Whether a permutation other than the identity may fix the form:
        its `variable_classes`, one pass over the terms per variable."""
        return bool(variable_classes(self.form.poly))

    def maps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(row map, column map) of the block for each of
        `variable_symmetries`: row i goes to row rows[i], column c to cols[c]."""
        deg = self.degrees
        bases = {}

        def moved(e: int, inverse: np.ndarray) -> np.ndarray:
            """The rank of s.a for each degree-e monomial a, in rank order."""
            if e not in bases:
                bases[e] = exponent_array(deg.m, e)
            return monomial_indices(bases[e][:, inverse])

        def wedge(e: int, sigma: np.ndarray, inverse: np.ndarray) -> np.ndarray:
            size = dim_graded(deg.m, e)
            return (sigma[:, None] * size + moved(e, inverse)).ravel()

        maps = []
        for image in variable_symmetries(self.form.poly):
            sigma = np.array(image)
            inverse = np.argsort(sigma)
            rows = wedge(deg.source_low, sigma, inverse)
            cols = moved(deg.target_low, inverse)
            if self.block == "full":
                rows = np.concatenate((rows, len(rows) + wedge(deg.source_high, sigma, inverse)))
                high = moved(deg.target_high, inverse)
                cols = np.concatenate((high, len(high) + cols))
            maps.append((rows, cols))
        return maps
