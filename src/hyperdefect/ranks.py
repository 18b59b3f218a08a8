"""Exact ranks of sparse integer matrices.

Every rank comes from the column rank profile: the pivot columns, in
increasing order, of an elimination that walks the columns left to
right.  Its length is the rank, and the number of its entries below k is
the rank of the leading k columns, so one elimination gives the rank of
every leading column block at once.

* `_echelon` eliminates over the field with p elements, sparse first and
  dense last, as in Faugere and Lachartre (PASCO 2010) and SpaSM
  (Bouillaguet and Delaplace, CASC 2016).  The coordinate entries are
  reduced mod p once, exactly (one int64 pass, or one Python-int pass
  when some entry does not fit), into float64 residues.  A row's leading
  column is its first entry nonzero mod p; one row per distinct leading
  column, the shortest, is a structural pivot row.  With S the pivot columns and R their rows,
  U11 = M[R, S] is upper triangular with a nonzero diagonal.  With the
  rows numbered level by level in U11's dependency order, the other rows
  last, one sparse pass over those row ranges forms W = U11^-1 U12 and,
  as its last range, the Schur complement C = X2 - X1 W over the other
  rows and columns, every sum within the dense engine's bound.  The
  profile is S together with the other columns at C's profile.  Proof:
  adding multiples of R's rows to the other rows changes the rank of no
  leading column block, and makes those rows zero on S.  Before a column
  J, the rows of R that lead before J hold a triangle with a nonzero
  diagonal on the pivots before J, and the other rows of R are zero, so
      rank M[:, :J] = |S before J| + rank C[:, other columns before J],
  and the other columns before J are a leading column block of C.
  Because they are, the lemma applies to C in turn, round by round:
  while a round finds a pivot and leaves C sparse (at most _SPARSE_FILL
  of its cells nonzero), C's nonzero rows are split at their own
  structural pivots.  Each round's pivots, mapped back through the
  earlier rounds' other columns, are pivots of M, and only the last
  complement, the first that is dense or that a round leaves without a
  pivot, is eliminated dense.  Each round releases its complement before
  the next forms one.  That remainder is eliminated by a blocked
  right-looking elimination that pivots on the first nonzero row, so the
  result is deterministic.  Each panel of up to 64 columns is copied out
  column-major and factored in one loop over its columns in Crout order
  (Golub and Van Loan, Matrix Computations, 3.2), one product per column
  and one per pivot row, which read the multipliers from a contiguous
  copy; the rows right of the panel are permuted once, after it.  The
  panel's pivot rows are then solved across the columns right of it
  with one product by the inverse of their unit lower triangle, a
  product of squarings (`_unit_lower_inverse`), and the rows below take
  one product in place.
  All products run in float64 BLAS on integer values, as in FFLAS-FFPACK
  (Dumas, Giorgi and Pernet, ACM TOMS 2008): reduction x - floor(x/p)*p
  with a correctly rounded quotient is exact while |x| + p < 2**53, and
  a product of inner dimension 64 with operands in [0, p) adds at most
  64*(p-1)**2, which every prime `RankConfig` accepts keeps below that.
  Every operand is reduced before a product, within a panel an entry
  takes at most one product, and the trailing matrix absorbs panel
  products unreduced for as long as the bound allows.  Any elimination
  that walks the columns in order finds the same profile, because the
  profile is a property of the matrix.  Every panel is written back, so
  the same pass leaves the echelon form of the remainder in its dense
  array.  To certify, its echelon rows are back-substituted into its
  reduced-echelon right kernel, one panel width of rows at a time from
  the bottom up, and the kernel is extended back through each round in
  reverse: as U11 x[S] + U12 x[rest] = 0, the round's structural pivots
  take x[S] = -W x[rest] from the entries already found on its other
  columns.  The result is the reduced-echelon right kernel mod p of M,
  one vector per free column, the identity on those.
* `rank_multimodular` runs the configured primes and reports the
  per-prime ranks with their consensus (the max, a guaranteed lower
  bound); given the leading column block of the matrix, it reports that
  block's ranks from the same eliminations, as profile prefixes.  A
  matrix it does not certify is eliminated with its columns in
  increasing order of entry count, stably, within the leading block and
  within the rest (`_column_order`; over all columns when no block is
  given), as in COLAMD (Davis, Gilbert, Larimore and Ng, ACM TOMS 2004):
  structural pivots then sit on sparse columns, so X1 and W are smaller
  and the Schur complement fills less (quintic-130's k = 3 remainder,
  772x824, from 21.9% to 13.6% nonzero).  Permuting columns within a
  block changes neither the block's rank nor the matrix's, so the rank
  is still the profile's length and the leading block's its count below
  the block's width.  A certified matrix keeps its given order: its
  certificate is the reduced-echelon kernel in that order, whose heights
  decide how many lift primes are needed.  When
  asked, or when the smallest block it reports is small, it certifies
  the matrix it eliminates from each prime's kernel: `_certify` proves
  the profile over the rationals with a lifted kernel (Dumas, Saunders
  and Villard, 2001).  Each kernel is folded once into its profile's
  lift by one CRT step in mixed radix (Garner), so a lift prime adds one
  digit.  One loop, `_lift`, grows a common denominator by each entry
  it leaves past sqrt(M/2), M the modulus, under two rules in turn:
  maximal quotients (Monagan, ISSAC 2004), which find unbalanced
  fractions, a small denominator under a numerator past sqrt(M/2), then
  Wang's bound sqrt(M/2) on both (Wang, 1981).  A candidate is accepted
  only when every lifted vector is zero past its free column and
  annihilated by the matrix in exact integers, so a wrong one costs
  time, never soundness.  Prefix counts of a profile mod p bound the
  leading blocks' ranks from below, the verified vectors from above.
  When no candidate verifies, primes descending from 11863279 are added
  until a Hadamard bound says Wang's must have, and a failure past that
  is raised as RankInvariantError; Wang's rule stays, at every modulus,
  because its fraction alone is unique past that bound.  A matrix
  without entries has rank 0, and is neither eliminated nor lifted.
* Given `symmetries`, a matrix that `rank_multimodular` does not certify
  and that has at least 2 components is eliminated one component per
  symmetry orbit (`_orbit_union`).  The components are those of the
  bipartite graph of rows and columns with an edge per entry (Pothen and
  Fan, ACM TOMS 1990), labelled by `_connected`.  Up to the order of its
  rows and columns the matrix is block diagonal over them, so its column
  matroid is their direct sum: its rank mod p, and that of its leading
  column block, is the sum of theirs.  A variable permutation that fixes
  the form maps the matrix onto itself, and, once `_check_automorphisms`
  has found every entry mapped onto an equal one and leading columns onto
  leading columns, it maps each component onto one with the same entries,
  permuted: the two have the same rank mod every p, and the same leading
  rank.  So every component of an orbit of the maps has the rank of its
  least one, and one elimination of the union of those least components
  gives every rank, each pivot column counted once per component of its
  orbit.  sextic-285's `full` at k = 3 (2550x2710) has 16 components in 3
  orbits, and their union is 432x460.
* `rank_mod_p` and `rank_exact` are thin wrappers of the two, kept as
  boundaries that perfbench/tracing.py wraps by name.

Every function takes a `SparseIntMatrix`.  Inside the sparse stage every
sparse matrix (the residues, each round's entries around its pivots, W
and the complement handed to the next round) is held one way, as
(row, column, value) arrays in row order with columns increasing within
a row, the values float64 in [1, p); only the products by W index one
by rows.  `_schur` forms each level range of W and each
round's complement a block of at most _BLOCK_CELLS cells at a time: a
dense scratch over a bounded row range, as in a sparse accumulator
(Gilbert, Moler and Schreiber, SIAM J. Matrix Anal. Appl. 1992).  A
block's products U11' W or X1 W are scattered one product of residues
at a time, in chunks of _SPARSE_CHUNK.  `_schur` leaves each block
unreduced and keeps only its entries: `_cells`
gathers the cells nonzero before reduction in one scan, reduces their
values and drops those that vanish mod p.  So no array wider than a
block is formed unless a complement goes to the dense engine.  Its
density test counts the cells nonzero mod p, as a running count over
its blocks: a block whose cells nonzero before reduction keep the count
within _SPARSE_FILL of the complement's cells keeps its entries; only
one that would pass it is reduced whole and counted again, and past it
the complement is written into one dense array, its remaining rows
formed in place.  Every prime is at most
11863279 < 2**24, so a product of two residues is below 2**48, and
float64 holds residues, their products and their reductions exactly.

A "bad" prime can only lower a rank, never raise it, so disagreement
between primes is reported rather than fatal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt, prod
from operator import index

import numpy as np

from .koszul import SparseIntMatrix
from .monomials import _integer

# 15-bit primes used as the default modular rank checks
PRIME_TABLE = (32633, 32647, 32653, 32687, 32693, 32707, 32713, 32717, 32719, 32749)
DEFAULT_PRIMES = PRIME_TABLE[:3]

EXACT_CELL_BUDGET = 1 << 20
# largest matrix the E2 count hands to the modular engine: 256 MB as float64
MODULAR_CELL_BUDGET = 1 << 25

_PANEL = 64  # columns per panel, the inner dimension of every dense product
_CHUNK_ROWS = 256  # rows per trailing-update product, bounds the scratch buffer
_SPARSE_CHUNK = 1 << 16  # products per step of a sparse product, bounds its scratch arrays
# Cells per dense block in which `_schur` forms W and each Schur complement.
# The smallest power of two that keeps every k = 3 complement of
# quintic-130 (772x824 = 636,128 cells) and of the cubics in one block, so
# that those take the one-block path.  Measured on sextic-285-p1
# (perfbench/run.py, 2-vCPU VM, OpenBLAS), peak RSS at 2**18 to 2**21:
# 41.1, 44.5, 48.9 and 57.3 MB.
_BLOCK_CELLS = 1 << 20
# A Schur complement with more nonzeros than this fraction of its cells is
# eliminated dense, a sparser one by another round of structural pivots.
# A round's sparse products grow with the complement's density, while the
# dense engine costs the same at any density.  Measured per prime at k = 3
# (2-vCPU VM, OpenBLAS): more rounds pay on sextic-285 (1.2 to 5.2%
# nonzero) and on the vGW quintics (6.9%, then 12.3%: 41 -> 31 ms), and
# cost quintic-130 more than they save (21.9%: 113 -> 143 ms).
_SPARSE_FILL = 0.1
_INT_EXACT = 2**63
# largest prime RankConfig accepts, and the first one added to a lift: the
# largest p with _PANEL*(p-1)**2 + p < 2**53, so one panel product stays exact
_LIFT_PRIME = 11863279


class RankBudgetError(Exception):
    """Refused before any work: an input exceeds a size budget."""


class RankInvariantError(RuntimeError):
    """A computed rank contradicts a bound that every correct rank obeys."""


def _is_prime(n: int) -> bool:
    """Trial division by 2 and the odd q <= isqrt(n): at most 1722 divisors
    for n <= _LIFT_PRIME, the largest n any caller tests."""
    if n < 4:
        return n >= 2
    return n % 2 != 0 and all(n % q for q in range(3, isqrt(n) + 1, 2))


@dataclass(frozen=True)
class RankConfig:
    """Prime set and certification policy for rank computations; the
    primes and `dense_threshold` are integers, stored as Python ints, the
    primes at most _LIFT_PRIME, so that residues are float64 and exact,
    and `exact` a bool, stored as a Python bool."""

    primes: tuple[int, ...] = DEFAULT_PRIMES
    exact: bool = False
    dense_threshold: int = 100

    def __post_init__(self):
        try:
            primes = tuple(map(index, self.primes))
        except TypeError:
            raise ValueError(f"primes must be integers: {self.primes!r}") from None
        if not isinstance(self.exact, (bool, np.bool_)):
            raise ValueError(f"exact must be a bool, got {self.exact!r}")
        object.__setattr__(self, "primes", primes)
        object.__setattr__(self, "exact", bool(self.exact))
        object.__setattr__(
            self, "dense_threshold", _integer(self.dense_threshold, "dense_threshold", 0)
        )
        if not primes:
            raise ValueError("need at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError(f"primes must be distinct: {primes}")
        for p in primes:
            if not 2 <= p <= _LIFT_PRIME:
                raise ValueError(f"prime {p} outside [2, {_LIFT_PRIME}]")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class RankReport:
    """Shape, per-prime ranks, and the exact rank when one was proven.

    The consensus, agreement and certification are read off the ranks,
    so a report cannot contradict them.  `leading`, when present, is the
    report of a leading column block, read off the same eliminations (see
    `rank_multimodular`).
    """

    rows: int
    cols: int
    per_prime: tuple[tuple[int, int], ...]
    exact_rank: int | None = None
    leading: RankReport | None = None

    @property
    def consensus(self) -> int:
        """The maximum per-prime rank, a lower bound on the rational rank."""
        return max(r for _, r in self.per_prime)

    @property
    def agreed(self) -> bool:
        return len({r for _, r in self.per_prime}) == 1

    @property
    def certified(self) -> bool:
        return self.exact_rank is not None and self.exact_rank == self.consensus

    @property
    def rank(self) -> int:
        """Best known rank: the exact one when available, else the consensus."""
        return self.consensus if self.exact_rank is None else self.exact_rank

    def as_dict(self) -> dict:
        return {
            "per_prime": [{"prime": p, "rank": r} for p, r in self.per_prime],
            "consensus": self.consensus,
            "agreed": self.agreed,
            "exact_rank": self.exact_rank,
            "certified": self.certified,
        }


def _kernel(p: int) -> int:
    """The delay of the elimination mod p: how many panel products, each
    adding at most _PANEL*(p-1)**2 to a magnitude, an entry absorbs before
    it is reduced, so that no value formed exceeds delay*_PANEL*(p-1)**2 + p < 2**53."""
    return (2**53 - p - 1) // (_PANEL * (p - 1) ** 2)


def _reduce(x: np.ndarray, p: int) -> None:
    """Reduce the integral float64 entries of `x` into [0, p), in place, as x - floor(x/p)*p.

    Exact while |x| + p < 2**53, with no correction: x/p lies at least 1/p
    away from any integer it does not equal, and correct rounding moves it
    by at most |x/p| * 2**-53 < 1/p, so the floor of the rounded quotient
    is the true floor; the product floor*p is an integer below 2**53 and exact.
    """
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q


def _residues(
    matrix: SparseIntMatrix, p: int, order: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries that are nonzero mod p, their values as float64 in [1, p).

    Given `order`, (entries, position) as `_column_order` returns it, they
    are those of the matrix with column c moved to position[c]: the
    entries are read in that order and their columns renumbered, so no
    permuted copy of the matrix is kept.
    """
    try:
        values = matrix.v.astype(np.int64) % p
    except OverflowError:
        values = np.array([x % p for x in matrix.v.tolist()], dtype=np.int64)
    if order is None:
        keep = np.flatnonzero(values)
        return matrix.r[keep], matrix.c[keep], values[keep].astype(np.float64)
    entries, position = order
    keep = entries[(values != 0)[entries]]
    return matrix.r[keep], position[matrix.c[keep]], values[keep].astype(np.float64)


def _column_order(matrix: SparseIntMatrix, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """The sparsest-first order of `matrix`'s columns, as `_residues` reads it.

    Columns are ordered by increasing entry count, stably, within [0, cut)
    and within [cut, cols), so no column crosses `cut`.  Returns the
    entries' order, by row and then by new column, and position[c], the
    new place of column c.  One sort of the keys row * cols + position:
    np.lexsort on the two arrays took 4 times as long on a 75k-entry
    `full` (2-vCPU VM).  The order is held through every prime's
    elimination, so it is int32 wherever that holds every entry's index:
    as int64 it took quintic-130's tracemalloc peak from 13.5 to 13.8 MB.
    """
    count = np.bincount(matrix.c, minlength=matrix.cols)
    moved = np.concatenate(
        [np.argsort(count[:cut], kind="stable"), cut + np.argsort(count[cut:], kind="stable")]
    )
    position = np.empty(matrix.cols, dtype=np.int64)
    position[moved] = np.arange(matrix.cols)
    entries = np.argsort(matrix.r * matrix.cols + position[matrix.c])
    return entries.astype(np.int32) if matrix.nnz < 2**31 else entries, position


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal consecutive `keys`."""
    change = np.empty(len(keys) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:-1])
    bounds = np.flatnonzero(change)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _by_rows(entries: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, ...]:
    """A matrix of n rows, given as entries in row order, indexed by rows:
    (start, count, columns, values), row j at start[j]:start[j] + count[j]."""
    count = np.bincount(entries[0], minlength=n)
    return np.cumsum(count) - count, count, *entries[1:]


def _subtract_sparse_product(
    target: np.ndarray,
    rows: np.ndarray,
    inner: np.ndarray,
    values: np.ndarray,
    by_rows: tuple[np.ndarray, ...],
    p: int,
    step: int,
) -> None:
    """target[rows[e]] -= values[e] * R[inner[e]] for every entry e, in place.

    The entries are given as (row, column, value) arrays, those of one
    target row consecutive, and R `by_rows` (see `_by_rows`).  Entries
    and R hold residues in [0, p), so a cell takes at most one product of
    at most (p-1)**2 per entry of its row.  A row's entries are taken in
    groups of `step`, and only the rows that take another group are
    reduced before it, so with entries in [0, p) `target` stays within
    the bound step*(p-1)**2 + p.
    """
    if len(rows) <= step:
        _subtract_products(target, rows, inner, values, by_rows)
        return
    heads, lengths = _runs(rows)
    slots = np.arange(len(rows)) - heads.repeat(lengths)
    slots //= step
    for g in range(int(slots.max()) + 1):
        if g:
            again = rows[heads[lengths > g * step]]
            taken = target[again]
            _reduce_rows(taken, p)
            target[again] = taken
        group = np.flatnonzero(slots == g)
        _subtract_products(target, rows[group], inner[group], values[group], by_rows)


def _subtract_products(
    target: np.ndarray,
    rows: np.ndarray,
    inner: np.ndarray,
    values: np.ndarray,
    by_rows: tuple[np.ndarray, ...],
) -> None:
    """The products of `_subtract_sparse_product`, unreduced, formed in
    chunks of about _SPARSE_CHUNK; R is given `by_rows`, (start, count,
    columns, values)."""
    if not len(rows):
        return
    start, count, columns, right_values = by_rows
    flat = target.reshape(-1)
    sizes = count[inner]
    ends = sizes.cumsum()
    cuts = ends.searchsorted(np.arange(_SPARSE_CHUNK, ends[-1], _SPARSE_CHUNK), "right").tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
        if lo == hi:
            continue
        size = sizes[lo:hi]
        # the products of entry e are terms ends[e] - sizes[e] .. ends[e] - 1
        taken = np.arange(ends[lo] - size[0], ends[hi - 1])
        taken += (start[inner[lo:hi]] - ends[lo:hi] + size).repeat(size)
        keys = (rows[lo:hi] * target.shape[1]).repeat(size) + columns[taken]
        np.subtract.at(flat, keys, values[lo:hi].repeat(size) * right_values[taken])


def _subtract_product(target: np.ndarray, left: np.ndarray, right: np.ndarray, buffer) -> None:
    """target -= left @ right, in row chunks through one scratch buffer: the
    dense engine's trailing products."""
    width = target.shape[1]
    for start in range(0, target.shape[0], _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, target.shape[0])
        product = buffer[: (stop - start) * width].reshape(stop - start, width)
        np.matmul(left[start:stop], right, out=product)
        target[start:stop] -= product


def _reduce_rows(x: np.ndarray, p: int) -> None:
    """`_reduce` _PANEL rows at a time, so that its scratch stays small:
    the reduction of quintic-130's 772x824 complement sets quintic-pair's
    peak RSS, and takes 0.4 MB of scratch in place of 1.7 at 256 rows."""
    for start in range(0, x.shape[0], _PANEL):
        _reduce(x[start : start + _PANEL], p)


def _unit_lower_inverse(lower: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit lower triangle under the diagonal of `lower`.

    Entries of `lower` below the diagonal must lie in (-p, p); the diagonal
    and what lies above it are ignored.  With L = I + N on t rows, N**t = 0,
    so L^-1, the sum of (-N)**k over k < t, is the product of I + (-N)**2**i
    over 2**i < t: ceil(log2(t)) - 1 squarings.  Each product has reduced
    operands and inner dimension t <= _PANEL, so every sum stays within
    the bound _PANEL*(p-1)**2 + p < 2**53.
    """
    power = -np.tril(lower, -1)
    _reduce(power, p)
    inverse = power + np.eye(len(lower))
    for _ in range(1, (len(lower) - 1).bit_length()):
        power = power @ power
        _reduce(power, p)
        inverse += inverse @ power
        _reduce(inverse, p)
    return inverse


def _factor(panel: np.ndarray, trailing: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Factor `panel` in Crout order; returns the pivot columns and their multipliers.

    The s-th pivot ends in row s, its multipliers below it, and column s of
    the returned array holds a copy of them, so that every product reads
    the multipliers as a view.  Row swaps move whole panel rows and the
    same rows of the copy; `trailing` takes the panel's row permutation
    once, at the end.  Column j takes one product of its rows' multipliers
    by the pivot rows above, and its first nonzero row, the pivot, is
    solved across the rest of the panel with one product, so each pivot
    row leaves as a finished row of U.
    """
    height, width = panel.shape
    lower = np.zeros((height, min(height, width)), order="F")
    order = list(range(height))  # row s of the factored panel is row order[s] of the copied one
    pivots: list[int] = []
    for j in range(width):
        r = len(pivots)
        if r == height:
            break
        column = panel[r:, j]
        if r:
            column -= lower[r:, :r] @ panel[:r, j]
        _reduce(column, p)
        nonzero = column.nonzero()[0]
        if not nonzero.size:
            continue
        i = r + int(nonzero[0])
        if i != r:  # basic indexing: a fancy-indexed swap takes several times as long
            for rows in (panel, lower[:, :r]):
                swap = rows[r].copy()
                rows[r], rows[i] = rows[i], swap
            order[r], order[i] = order[i], order[r]
        multipliers = panel[r + 1 :, j]
        multipliers *= pow(int(panel[r, j]), -1, p)
        _reduce(multipliers, p)
        lower[r + 1 :, r] = multipliers
        head = panel[r, j + 1 :]
        if r:
            head -= lower[r, :r] @ panel[:r, j + 1 :]
        _reduce(head, p)
        pivots.append(j)
    moved = [s for s, k in enumerate(order) if s != k]
    trailing[moved] = trailing[[order[s] for s in moved]]
    return pivots, lower[:, : len(pivots)]


def _eliminate(A: np.ndarray, p: int, delay: int) -> list[int]:
    """Column rank profile of A mod p; A (float64, entries in [0, p)) is overwritten.

    Each panel of _PANEL columns is copied out column-major and factored
    by `_factor`; the pivot rows' trailing parts are solved with one
    product by the inverse of the panel's unit lower triangle, and the
    trailing matrix takes the panel product unreduced until `delay`
    products have accumulated.  So a copied panel holds at most delay - 1
    unreduced products, `_factor` adds at most one to each entry, of
    reduced operands and inner dimension below _PANEL, and every value
    stays within `_kernel`'s bound; as `_factor` solves each pivot row
    across the panel, rows that run out inside it leave nothing unsolved.
    Every factored panel is written back, so that row s of A, from
    column profile[s] on, is row s of an echelon form U = L^-1 P A
    (entries in [0, p), pivots not normalised); what lies left of each
    pivot is not part of U.
    """
    nrows, ncols = A.shape
    buffer = np.empty(min(nrows, _CHUNK_ROWS) * ncols)  # _CHUNK_ROWS >= _PANEL
    profile: list[int] = []
    row = 0
    pending = 0
    for col in range(0, ncols, _PANEL):
        if row == nrows:
            break
        hi = min(col + _PANEL, ncols)
        panel = np.array(A[row:, col:hi], order="F")
        pivots, lower = _factor(panel, A[row:, hi:], p)
        t = len(pivots)
        profile.extend(col + j for j in pivots)
        if t and hi < ncols:
            # solved even when no rows remain below: these are rows of U
            upper = A[row : row + t, hi:]
            _reduce(upper, p)
            solved = buffer[: upper.size].reshape(upper.shape)
            np.matmul(_unit_lower_inverse(lower[:t], p), upper, out=solved)
            _reduce(solved, p)
            upper[...] = solved
            if t < panel.shape[0]:
                trailing = A[row + t :, hi:]
                _subtract_product(trailing, lower[t:], upper, buffer)
                pending += 1
                if pending == delay:
                    _reduce_rows(trailing, p)
                    pending = 0
        A[row:, col:hi] = panel
        row += t
    return profile


@dataclass
class _Split:
    """One round of structural pivots: a matrix mod p split at them.

    Pivot row i leads in column pivots[i], scaled mod p to lead with 1.
    Rows are numbered level by level (see `_levels`): level k holds rows
    bounds[k] to bounds[k + 1] - 1, and the other rows that hold an entry
    come last, from bounds[-2] = len(pivots) to bounds[-1]; rows without
    one are dropped.  The other columns are `rest`, in increasing order;
    they are the columns of the round's Schur complement, so a later
    round's columns are mapped back through every earlier `rest`.
    Entries are held as everywhere in this module: `left` those on pivot
    columns off the diagonal (U11 and X1), columns numbered as the
    pivots, and `right` those on the rest (U12 and X2), numbered within
    `rest`.
    """

    pivots: np.ndarray
    rest: np.ndarray
    bounds: np.ndarray
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]


def _split(rows: int, cols: int, r: np.ndarray, c: np.ndarray, v: np.ndarray, p: int) -> _Split:
    """The structural pivots of a rows x cols matrix mod p, and its entries around them.

    The entries hold float64 values in [1, p), as `_residues` or
    `_entries` of a complement gives them, and so do the split's.  A
    row's leading column is its first entry; of the rows that lead in one
    column the one with the fewest entries, the first of those, is the
    pivot row, which keeps the fill of U11^-1 U12 low.  A row without an
    entry is dropped, so the Schur complement holds only rows that had one.
    """
    first, lengths = _runs(r)
    order = np.lexsort((lengths, c[first]))
    chosen = first[order[_runs(c[first[order]])[0]]]
    n = len(chosen)
    # pivot numbers in column order, -1 off the pivot rows and columns
    head_of = np.full(rows, -1)
    head_of[r[chosen]] = np.arange(n)
    pivot_of = np.full(cols, -1)
    pivot_of[c[chosen]] = np.arange(n)
    part = (pivot_of[c] < 0).astype(np.int8)  # 0 on pivot columns, 1 on the rest
    part[chosen] = 2  # the diagonal
    upper = (part == 0) & (head_of[r] >= 0)
    level = _levels(n, head_of[r[upper]], pivot_of[c[upper]])
    by_level = np.argsort(level, kind="stable")
    tails, rest = r[first[head_of[r[first]] < 0]], np.flatnonzero(pivot_of < 0)
    bounds = np.searchsorted(level[by_level], np.arange(level.max(initial=0) + 2))
    row_at = np.empty(rows, dtype=np.int64)
    row_at[r[chosen[by_level]]], row_at[tails] = np.arange(n), n + np.arange(len(tails))
    col_at = np.empty(cols, dtype=np.int64)
    col_at[c[chosen[by_level]]], col_at[rest] = np.arange(n), np.arange(len(rest))
    # scale each pivot row to lead with 1, the other rows (-1) by the appended 1
    inverses = [pow(int(x), -1, p) for x in v[chosen].tolist()]
    v = v * np.array(inverses + [1], dtype=np.float64)[head_of[r]]
    _reduce(v, p)
    order = np.lexsort((row_at[r], part))
    cut = np.searchsorted(part[order], [1, 2])
    i, j, v = row_at[r[order]], col_at[c[order]], v[order]
    blocks = [(i[a:b], j[a:b], v[a:b]) for a, b in ((0, cut[0]), (cut[0], cut[1]))]
    return _Split(c[chosen[by_level]], rest, np.append(bounds, n + len(tails)), *blocks)


def _levels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Level of each row of a unit upper triangle with off-diagonal entries
    at (i, j): 0 with none, else one more than the highest level it reaches."""
    level = np.zeros(n, dtype=np.int64)
    while len(i):
        raised = level.copy()
        np.maximum.at(raised, i, level[j] + 1)
        if np.array_equal(raised, level):
            break
        level = raised
    return level


def _cells(
    dense: np.ndarray, p: int, nonzero: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the cells of `dense` nonzero mod p, and their
    values reduced into [1, p).

    `dense` holds integral float64 values within `_reduce`'s bound, reduced
    or not, and `nonzero`, when given, is its mask dense != 0.  Only the
    cells nonzero before reduction are gathered and reduced, and those
    that vanish mod p are dropped, so the cost follows the nonzeros, not
    the cells.  One scan of the flattened mask: np.nonzero of a 2-d array
    takes several times as long (2.3 against 0.5 ms on a 586x1787 block
    of 2**20 cells, 1.2% nonzero, 2-vCPU VM).
    """
    flat = np.flatnonzero(dense != 0 if nonzero is None else nonzero)
    values = dense.reshape(-1)[flat]
    _reduce(values, p)
    keep = np.flatnonzero(values)
    return flat[keep], values[keep]


def _entries(
    dense: np.ndarray, p: int, nonzero: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of `dense` nonzero mod p (see `_cells`) as entries, in row
    order: row, column and value arrays."""
    flat, values = _cells(dense, p, nonzero)
    return *np.divmod(flat, dense.shape[1]), values


def _form(target: np.ndarray, lo: int, split: _Split, by_rows: tuple, p: int, step: int) -> None:
    """Rows lo to lo + len(target) - 1 of U12 - U11' W, unreduced, into the
    zeros of `target`; U11' is U11 off its diagonal, and W is given
    `by_rows`.  On the other rows this is X2 - X1 W, the Schur complement.
    The products are scattered by `_subtract_sparse_product`."""
    hi = lo + len(target)
    a, b = np.searchsorted(split.right[0], [lo, hi])
    i, j, v = (x[a:b] for x in split.right)
    target[i - lo, j] = v
    a, b = np.searchsorted(split.left[0], [lo, hi])
    i, j, v = (x[a:b] for x in split.left)
    _subtract_sparse_product(target, i - lo, j, v, by_rows, p, step)


def _schur(split: _Split, p: int, step: int) -> tuple:
    """W = U11^-1 U12, and the Schur complement C = X2 - X1 W mod p.

    Returns (entries, dense, W): C's entries nonzero mod p, rows numbered
    within C, while C is sparse, and otherwise, as `dense`, C's residues
    as an array.  Row i of W is U12[i] minus the sum of U11[i, j] * W[j]
    over the entries right of its diagonal, all in rows of lower levels,
    so one pass over the row ranges of `split.bounds` forms W level by
    level and, as its last range, C.  Rows of level 0 are U12's own.
    Every later range is formed in blocks of at most _BLOCK_CELLS cells
    (at least one row) by `_form`, and only each block's entries (by
    `_entries`, or for C `_cells`) are kept before the next is formed, so
    no array wider than a block exists while C stays sparse.  The blocks'
    values are integers within the scattered product's bound
    step*(p-1)**2 + p, which `_reduce` takes exactly.

    C is dense once more than _SPARSE_FILL of its cells are nonzero mod
    p, or when the round found no pivot, and then holds no row.  The
    count is a running one: a block's cells nonzero before reduction,
    which include every cell nonzero mod p, are counted first, and only
    when they would take the count past the fill is the block reduced
    whole and counted again.  Counts only grow, so C is dense exactly
    when its count mod p passes the fill.  Then the entries so far are
    written into one dense array, freed as they go, the last block is
    copied in and the rows after it are formed in place and reduced; a
    block that is all of C is the array itself.
    """
    width = len(split.rest)
    bounds = split.bounds.tolist()
    height = max(1, _BLOCK_CELLS // max(width, 1))  # rows per block
    fill = _SPARSE_FILL * (bounds[-1] - bounds[-2]) * width
    w = tuple(x[: np.searchsorted(split.right[0], bounds[1])] for x in split.right)
    for lo, hi in zip(bounds[1:-2], bounds[2:-1]):
        by_rows, parts = _by_rows(w, lo), [w]
        for a in range(lo, hi, height):
            block = np.zeros((min(a + height, hi) - a, width))
            _form(block, a, split, by_rows, p, step)
            i, j, v = _entries(block, p)
            parts.append((i + a, j, v))
            del block
        w = tuple(map(np.concatenate, zip(*parts)))
    lo, hi = bounds[-2:]
    if not len(split.pivots):  # no entry, so no row of C
        return None, np.zeros((hi - lo, width)), w
    # C's cells nonzero mod p so far, as flat indices into C and values
    by_rows, parts, count = _by_rows(w, lo), [(np.empty(0, np.intp), np.empty(0))], 0
    for a in range(lo, hi, height):
        block = np.zeros((min(a + height, hi) - a, width))
        _form(block, a, split, by_rows, p, step)
        # counting a mask takes half the time of counting the float64 cells
        nonzero = block != 0
        if count + np.count_nonzero(nonzero) > fill:
            _reduce_rows(block, p)
            nonzero = block != 0
            if count + np.count_nonzero(nonzero) > fill:
                if len(block) == hi - lo:
                    return None, block, w
                del nonzero
                dense = np.zeros((hi - lo, width))
                flat = dense.reshape(-1)
                while parts:
                    at, values = parts.pop()
                    flat[at] = values
                end = a + len(block)
                dense[a - lo : end - lo] = block
                del block
                _form(dense[end - lo :], end, split, by_rows, p, step)
                _reduce_rows(dense[end - lo :], p)
                return None, dense, w
        at, values = _cells(block, p, nonzero)
        parts.append((at + (a - lo) * width, values))
        count += len(values)
        del block, nonzero
    at, values = map(np.concatenate, zip(*parts))
    return (*np.divmod(at, width), values), None, w


def _echelon(
    matrix: SparseIntMatrix,
    p: int,
    certify: bool = False,
    order: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[tuple[int, ...], np.ndarray | None]:
    """Column rank profile mod p, and, when `certify`, the kernel mod p.

    Given `order` (see `_column_order`), both are those of the matrix with
    its columns so permuted, read through `_residues`.

    The structural pivots are eliminated sparsely in rounds (see `_split`
    and `_schur`).  While a round finds a pivot and leaves a Schur
    complement with at most _SPARSE_FILL of its cells nonzero mod p, the
    complement's entries are the next round's matrix; the first
    complement that is denser, or that a round leaves without a pivot,
    is eliminated dense by `_eliminate`, which `_schur` hands its
    residues.  The profile is every round's pivots together with that
    remainder's profile, each mapped back to the matrix's columns through
    the rounds' `rest`.  The kernel, laid out as `_kernel_mod_p`'s, is
    None when not certifying or of full column rank.  It is the
    remainder's reduced kernel, extended back through each round in
    reverse by x[S] = -W x[rest].
    """
    delay = _kernel(p)
    step = _PANEL * delay
    rows, cols = matrix.rows, matrix.cols
    entries = _residues(matrix, p, order)
    columns = np.arange(cols)  # the matrix's column of each column of the round
    found, rounds = [], []
    while True:
        split = _split(rows, cols, *entries, p)
        entries = None  # the split holds them, reordered
        rows, cols = int(split.bounds[-1] - split.bounds[-2]), len(split.rest)
        entries, schur, w = _schur(split, p, step)
        found.append(columns[split.pivots])
        columns = columns[split.rest]
        if certify:
            rounds.append((split.pivots, split.rest, w))
        del split, w  # of the sparse stage, only W outlives it, and only to certify
        if schur is not None:
            break
    inner = _eliminate(schur, p, delay)
    found.append(columns[inner])
    profile = np.sort(np.concatenate(found))
    if not certify or len(profile) == matrix.cols:
        return tuple(profile.tolist()), None
    free = _split_columns(inner, cols)[1]
    x = np.zeros((cols, len(free)))
    x[inner] = _kernel_mod_p(schur[: len(inner)], inner, p)
    x[free, np.arange(len(free))] = 1
    del schur
    for pivots, rest, w in reversed(rounds):
        x_s = np.zeros((len(pivots), len(free)))
        _subtract_sparse_product(x_s, *w, _by_rows(_entries(x, p), len(x)), p, step)
        _reduce_rows(x_s, p)
        x_all = np.empty((len(pivots) + len(rest), len(free)))
        x_all[pivots], x_all[rest] = x_s, x
        x = x_all
    return tuple(profile.tolist()), x[profile]


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank of an integer matrix over the field with p elements, for a prime p <= _LIFT_PRIME.

    The report path does not call it; it stays as a boundary that
    perfbench/tracing.py wraps by name.
    """
    RankConfig(primes=(p,))  # raises ValueError unless p is a prime RankConfig accepts
    return len(_echelon(matrix, p)[0])


def _split_columns(profile: tuple[int, ...], cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The pivot columns and the free columns below `cols`, in increasing order."""
    is_free = np.ones(cols, dtype=bool)
    pivots = np.array(profile, dtype=np.intp)
    is_free[pivots] = False
    return pivots, np.flatnonzero(is_free)


def _kernel_mod_p(echelon: np.ndarray, profile: tuple[int, ...], p: int) -> np.ndarray:
    """Pivot entries of the reduced-echelon right kernel mod p.

    `echelon` holds the rows of an echelon form U as `_eliminate` leaves
    them, row s from column profile[s] on, and is overwritten; what lies
    left of each pivot is ignored.  Column i of the result holds, at row
    s, entry profile[s] of the kernel vector that is 1 at the i-th
    non-pivot column and 0 at the others.  Scaled to -U/diag(U), U holds
    -T on the pivot columns, T a unit upper triangle, and -F on the free
    ones, so K = T^-1 (-F), solved _PANEL rows at a time from the bottom
    up: a block takes the rows below it, _PANEL*delay product terms per
    reduction, then one product by its own triangle's inverse.
    """
    r, cols = echelon.shape
    pivots, free = _split_columns(profile, cols)
    scale = np.array([-pow(int(echelon[s, c]), -1, p) for s, c in enumerate(profile)])
    echelon *= scale[:, None]  # -U/diag(U)
    _reduce_rows(echelon, p)
    coupling, kernel = echelon[:, pivots], echelon[:, free]
    kernel[free < pivots[:, None]] = 0
    step = _PANEL * _kernel(p)
    for lo in reversed(range(0, r, _PANEL)):
        hi = min(lo + _PANEL, r)
        block = kernel[lo:hi]
        for start in range(hi, r, step):
            block += coupling[lo:hi, start : start + step] @ kernel[start : start + step]
            _reduce(block, p)
        block[...] = _unit_lower_inverse(-coupling[lo:hi, lo:hi].T, p).T @ block
        _reduce(block, p)
    return kernel


def _combine(value, modulus: int, p: int, residue: np.ndarray) -> tuple[np.ndarray, int]:
    """One step of Garner's mixed radix: the values in [0, modulus*p)
    congruent to `value` mod `modulus` and to `residue` mod p, and modulus*p.

    The new digit is what `value` leaves mod p, divided by `modulus`, in
    int64: every prime is below 2**24, so no product passes 2**48.  The
    value stays int64 while modulus*p <= _INT_EXACT, Python ints past it.
    """
    lower = np.asarray(value % p, dtype=np.int64)
    digit = (residue.astype(np.int64) - lower) * pow(modulus, -1, p) % p
    if modulus * p > _INT_EXACT:
        value, digit = value.astype(object), digit.astype(object)
    return value + modulus * digit, modulus * p


def _lift(value: np.ndarray, modulus: int, rule, cap: int) -> tuple[np.ndarray, int] | None:
    """Numerators and one common denominator of fractions congruent to
    `value`, Python ints mod `modulus`: a candidate, which only
    `_lift_verifies`' exact checks accept.

    The denominator starts at 1 and takes rule(y, modulus), a fraction's
    denominator, for each entry, in order, that it still leaves past
    sqrt(modulus/2) (Wang's bound); the numerators are value * den as
    symmetric residues.  None when the rule finds none, or past `cap`.
    """
    bound = isqrt((modulus - 1) // 2)
    den = 1
    for y in value.ravel().tolist():
        scaled = y * den % modulus
        if bound < scaled < modulus - bound:
            q = rule(scaled, modulus)
            if q is None or den * q > cap:
                return None
            den *= q
    scaled = value * den % modulus
    scaled[scaled > modulus // 2] -= modulus
    return scaled, den


def _wang_denominator(y: int, modulus: int) -> int | None:
    """Denominator q of a fraction n/q = y mod `modulus`, |n| and q within sqrt(modulus/2)."""
    bound = isqrt((modulus - 1) // 2)
    r0, r1, t0, t1 = modulus, y, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _rational_lift(value: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """Wang's reconstruction (1981): `_lift` with denominators within sqrt(modulus/2)."""
    return _lift(value, modulus, _wang_denominator, isqrt((modulus - 1) // 2))


def _max_quotient(y: int, modulus: int) -> int:
    """Denominator of the fraction n/q = y mod `modulus` that maximal-quotient
    reconstruction picks (Monagan, ISSAC 2004): of the remainders r = t*y
    mod `modulus` of the Euclidean algorithm on (modulus, y), the one
    followed by its largest quotient q, as |r*t| is about modulus/q; it
    bounds neither side alone.  The quotients still to come multiply to
    at most r0, so once the largest reaches r0 none can pass it."""
    r0, r1, t0, t1 = modulus, y, 0, 1
    largest, den = 0, 1
    while r1 and largest < r0:
        q = r0 // r1
        if q > largest:
            largest, den = q, abs(t1)
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return den


def _quotient_lift(value: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """Maximal quotients in `_lift`, the denominator below `modulus`: left to grow,
    it took vgw-118a's `full` under `exact` from 2.1 s to 104 s (2-vCPU VM)."""
    return _lift(value, modulus, _max_quotient, modulus - 1)


def _lifts(value: np.ndarray, modulus: int):
    """Candidate lifts of `value` mod `modulus`, as (numerators, denominator):
    the maximal-quotient one, then Wang's when it exists.  Wang's stays
    because it alone is unique past 2*H**2, which `_certify`'s stop needs."""
    for lift in (_quotient_lift, _rational_lift):
        lifted = lift(value, modulus)
        if lifted is not None:
            yield lifted


def _annihilates(matrix: SparseIntMatrix, basis: np.ndarray) -> bool:
    """Whether matrix @ basis is zero, in exact integer arithmetic.

    `basis` holds Python ints; int64 is used when no sum can overflow it.
    """
    if not matrix.nnz:
        return True
    starts = np.flatnonzero(np.diff(matrix.r, prepend=-1))
    longest = int(np.diff(starts, append=matrix.nnz).max())
    values = matrix.v
    largest = max(map(abs, values.tolist())) * max(map(abs, basis.ravel().tolist()))
    if largest * longest < _INT_EXACT:
        values, basis = values.astype(np.int64), basis.astype(np.int64)
    products = values[:, None] * basis[matrix.c]
    return not np.add.reduceat(products, starts, axis=0).any()


def _lift_verifies(
    matrix: SparseIntMatrix, profile: tuple[int, ...], value: np.ndarray, modulus: int
) -> bool:
    """Whether folded kernels, `value` mod `modulus`, lift to kernel vectors of `matrix`.

    The candidates of `_lifts` are tried in turn, and one is accepted only
    when every vector, one per free column f, is zero past f, so that it
    also shows column f to depend on the pivot columns before it, and is
    annihilated by `matrix` in exact integers.
    """
    pivots, free = _split_columns(profile, matrix.cols)
    past = pivots[:, None] > free
    for numerators, den in _lifts(value.astype(object), modulus):
        if numerators[past].any():
            continue
        basis = np.zeros((matrix.cols, len(free)), dtype=object)
        basis[pivots] = numerators
        basis[free, np.arange(len(free))] = den
        if _annihilates(matrix, basis):
            return True
    return False


def _hadamard_square(matrix: SparseIntMatrix) -> int:
    """A bound on the square of every minor of `matrix`: the smaller of the
    products of its squared row norms and of its squared column norms,
    each taken as at least 1 (Hadamard's inequality)."""
    squares = matrix.v * matrix.v
    bounds = []
    for index, size in ((matrix.r, matrix.rows), (matrix.c, matrix.cols)):
        sums = np.zeros(size, dtype=object)
        np.add.at(sums, index, squares)
        bounds.append(prod(max(1, s) for s in sums.tolist()))
    return min(bounds)


def _lift_primes(skip: tuple[int, ...]):
    """Primes for lifting, descending from _LIFT_PRIME, except those in `skip`."""
    for p in range(_LIFT_PRIME, 2, -2):
        if p not in skip and _is_prime(p):
            yield p


def _certify(
    matrix: SparseIntMatrix,
    eliminated: list[tuple[int, tuple[int, ...], np.ndarray | None]],
    skip: tuple[int, ...],
) -> tuple[int, ...]:
    """Column rank profile of `matrix` over the rationals, proven.

    `eliminated` holds (p, profile, kernel) of `matrix` at some primes,
    as `_echelon` returns them when certifying.  Each kernel is folded
    once, by `_combine`, into its profile's lift (value, modulus); a
    profile of full column rank has no kernel, and is returned first.
    The best profile (longest, then lexicographically first) is lifted:
    rational reconstruction, then an exact check that every vector is a
    kernel vector zero past its free column.  Prefix counts of a profile
    mod p bound the ranks of leading column blocks from below; the
    verified vectors, one per free column with the identity there, bound
    them from above.  So the profile is the one over the rationals.

    While the lift fails, primes from `_lift_primes` are added.  All
    primes whose profile is not the rational one divide one nonzero
    minor, so their product is at most the Hadamard bound H.  Once the
    primes sharing the rational profile multiply to M > 2*H**2, Wang's
    rule verifies.  By Cramer's rule every kernel entry is N/D, D the
    pivot minor, |N| and D at most H < sqrt(M/2), and `_lift` keeps its
    denominator den a divisor of D, so within its cap: an entry's scaled
    value N*den/D is either within sqrt(M/2), and then an integer by the
    uniqueness of Wang's fraction, or Wang's unique fraction, whose
    denominator divides D/den.  So the candidate is the kernel times
    den/D, and it verifies.  A failure past either bound is a fault,
    raised as RankInvariantError.
    """
    lifts = {}  # profile -> (value, modulus), its primes' kernels folded
    hadamard = 0  # H, computed on the first failed lift
    extra = _lift_primes(skip)
    while True:
        for p, profile, kernel in eliminated:
            if len(profile) == matrix.cols:
                return profile
            lifts[profile] = _combine(*lifts.get(profile, (0, 1)), p, kernel)
        best = min(lifts, key=lambda pr: (-len(pr), pr))
        value, modulus = lifts[best]
        if _lift_verifies(matrix, best, value, modulus):
            return best
        hadamard = hadamard or _hadamard_square(matrix)
        others = prod(m for profile, (_, m) in lifts.items() if profile != best)
        if modulus > 2 * hadamard or others**2 > hadamard:
            raise RankInvariantError(
                f"{matrix.rows}x{matrix.cols}: kernel lifted mod {modulus} does not verify"
            )
        p = next(extra)
        eliminated = [(p, *_echelon(matrix, p, True))]


def rank_exact(matrix: SparseIntMatrix) -> int:
    """Rank over the rationals: `rank_multimodular` under `exact`.

    The report path does not call it; it stays as a boundary that
    perfbench/tracing.py wraps by name.  Raises RankBudgetError past
    EXACT_CELL_BUDGET cells, and RankInvariantError when the report is
    left uncertified.
    """
    exact = rank_multimodular(matrix, RankConfig(exact=True)).exact_rank
    if exact is None:
        raise RankInvariantError(f"{matrix.rows}x{matrix.cols}: rank could not be certified")
    return exact


def _connected(n: int, members: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The connected components of nodes 0 .. n-1 joined by sets, as each
    node's label: the least node of its component.  Set i holds the
    nodes members[starts[i]:starts[i + 1]], the last one those from
    starts[-1] on; every set holds a node.

    Every round hooks the root of each member onto the least root of its
    set, the least where several meet, and then jumps every pointer to
    its root, until each set holds one root (min-label hooking with
    pointer jumping, as in Shiloach and Vishkin, J. Algorithms 1982).  A
    node only ever points to a smaller one, so the pointers form trees,
    each rooted at its least node.
    """
    parent = np.arange(n)
    sizes = np.diff(starts, append=len(members))
    while True:
        roots = parent[members]
        least = np.minimum.reduceat(roots, starts)
        if np.array_equal(least, np.maximum.reduceat(roots, starts)):
            return parent
        np.minimum.at(parent, roots, np.repeat(least, sizes))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _check_automorphisms(matrix: SparseIntMatrix, cut: int, maps) -> None:
    """Raise ValueError unless each (rows, cols) of `maps` permutes the
    rows and the columns of `matrix` so that every entry goes to an entry
    of equal value, and columns below `cut` stay below it.

    The image of each entry is keyed by its cell and its value, and the
    sorted keys must be the entries' own.  When the values span too much
    for one int64 key, the images are sorted by cell and the values
    compared in that order, which takes about 2.5 times as long."""
    cells = matrix.r * matrix.cols + matrix.c  # increasing: the entries are in row order
    try:
        values = matrix.v.astype(np.int64)
    except OverflowError:
        values = matrix.v
    low = int(values.min())
    span = int(values.max()) - low + 1  # exact: in int64 it may wrap
    keyed = matrix.rows * matrix.cols * span < _INT_EXACT
    if keyed:
        values = values - low  # each below span
    keys = cells * span + values if keyed else None
    for rows, cols in maps:
        for moved, n, name in ((rows, matrix.rows, "rows"), (cols, matrix.cols, "columns")):
            if moved.dtype.kind not in "iu" or not np.array_equal(np.sort(moved), np.arange(n)):
                raise ValueError(f"a symmetry of {matrix!r} does not permute its {name}")
        if (cols[:cut] >= cut).any():
            raise ValueError(f"a symmetry of {matrix!r} moves a column out of its leading block")
        image = rows[matrix.r] * matrix.cols + cols[matrix.c]
        if keyed:
            equal = np.array_equal(np.sort(image * span + values), keys)
        else:
            order = np.argsort(image)
            equal = np.array_equal(image[order], cells) and np.array_equal(values[order], values)
        if not equal:
            raise ValueError(f"a symmetry of {matrix!r} does not map its entries onto equal ones")


def _orbit_union(matrix: SparseIntMatrix, cut: int, symmetries):
    """One component of `matrix` per symmetry orbit, or None where that
    saves nothing.

    The components are those of the bipartite graph of rows and columns
    with an edge per entry (Pothen and Fan, ACM TOMS 1990); a row or a
    column without an entry belongs to none.  Returns (union, weight,
    cut): the submatrix on the rows and columns of the least component of
    each orbit (the one with the least column), in their given order, the
    size of its orbit at each of its columns, and how many of them lie
    below `cut`.  None unless `symmetries` is given, `matrix` has at least
    2 components, and some orbit of the maps holds 2 of them.  Only for a
    matrix of at least 2 components is `symmetries` called, once, and its
    maps checked by `_check_automorphisms`.
    """
    if symmetries is None:
        return None
    # a row's entries are one set of columns: labels of columns suffice
    label = _connected(matrix.cols, matrix.c, np.flatnonzero(np.diff(matrix.r, prepend=-1)))
    roots = np.zeros(matrix.cols, dtype=bool)
    roots[label[matrix.c]] = True
    roots = np.flatnonzero(roots)  # each component's least column
    if len(roots) < 2:
        return None
    maps = [(np.asarray(r), np.asarray(c)) for r, c in symmetries()]
    if not maps:
        return None
    _check_automorphisms(matrix, cut, maps)
    component = np.full(matrix.cols, -1)
    component[roots] = np.arange(len(roots))
    component = component[label]  # -1 on the columns without an entry
    images = np.concatenate([component[cols[roots]] for _, cols in maps])
    pairs = np.column_stack((np.tile(np.arange(len(roots)), len(maps)), images)).ravel()
    orbit = _connected(len(roots), pairs, np.arange(0, len(pairs), 2))
    size = np.bincount(orbit)
    if size.max() < 2:
        return None
    kept = component >= 0
    kept[kept] = orbit[component[kept]] == component[kept]  # the least component of its orbit
    entry = kept[matrix.c]
    rows = np.zeros(matrix.rows, dtype=bool)
    rows[matrix.r[entry]] = True
    union = SparseIntMatrix._of_checked(
        int(rows.sum()),
        int(kept.sum()),
        (np.cumsum(rows) - 1)[matrix.r[entry]],
        (np.cumsum(kept) - 1)[matrix.c[entry]],
        matrix.v[entry],
    )
    return union, size[component[kept]], int(kept[:cut].sum())


def rank_multimodular(
    matrix: SparseIntMatrix,
    config: RankConfig | None = None,
    leading: SparseIntMatrix | None = None,
    symmetries=None,
) -> RankReport:
    """Rank report over the configured primes, optionally certified exactly.

    The consensus is the maximum per-prime rank (each prime gives a lower
    bound on the true rank).

    `leading` names the leading column block of `matrix`: its first
    leading.cols columns hold `leading` in their last leading.rows rows
    and zeros above, else ValueError is raised.  Its rank is then the
    number of pivots among those columns, and the report's `leading`
    field carries its ranks, counted from the same profiles.

    Uncertified, every prime eliminates `matrix` with its columns ordered
    sparsest first (`_column_order`), within [0, leading.cols) and within
    [leading.cols, cols), or over all columns without `leading`.  The
    order never moves a column across leading.cols, and permuting the
    columns inside either range changes neither rank, so the ranks are
    read off the permuted profile as they would be off the given one.
    A certified matrix is eliminated, at every prime, as given.

    `symmetries`, when given, is a callable of no arguments that returns
    candidate automorphisms of `matrix`, as `koszul.full_symmetries` bound
    to a form and its degrees does: (row map, column map) pairs of integer
    arrays, row i to rows[i] and column c to cols[c].  An uncertified
    matrix is labelled into components, and only one with at least 2
    calls it, once; each map must take every entry onto an equal one and
    the leading columns among themselves, else ValueError is raised.
    If some orbit of the maps holds 2 components, every prime eliminates
    the union of one component per orbit, in the sparsest-first order
    within [0, leading.cols) and the rest, and a rank is the sum over its
    pivot columns of their orbits' sizes (see the module docstring).  The
    report keeps the whole matrix's shape.  A certified matrix never
    looks at `symmetries`.

    `matrix` is certified when the smallest block reported (`leading`
    when given, else `matrix`) has both dimensions at most
    `config.dense_threshold` and `matrix` fits EXACT_CELL_BUDGET cells,
    and always under `config.exact`, which raises RankBudgetError past
    that budget.  Each prime then keeps only its kernel; uncertified, it
    keeps no dense array.  `_certify` proves one profile from the
    kernels, and every block's exact rank is its prefix count.  A prime
    whose rank exceeds min(rows, cols) cannot be lifted, so the report
    is then left uncertified, for the caller to refuse.  A matrix without
    entries is neither eliminated nor lifted: its rank is 0 at every
    prime and over the rationals, proven wherever it would be certified.
    """
    cfg = config or RankConfig()
    rows, cols = matrix.rows, matrix.cols
    if leading is not None:
        inside, shift = matrix.c < leading.cols, rows - leading.rows
        # one copy at a time: all three at once raise quintic-130's peak RSS by 2 MB
        if shift < 0 or leading.cols > cols or not (
            np.array_equal(matrix.c[inside], leading.c)
            and np.array_equal(matrix.r[inside], leading.r + shift)
            and np.array_equal(matrix.v[inside], leading.v)
        ):
            raise ValueError(f"{leading!r} is not the leading column block of {matrix!r}")
    if cfg.exact and rows * cols > EXACT_CELL_BUDGET:
        raise RankBudgetError(f"{rows}x{cols} exceeds exact budget of {EXACT_CELL_BUDGET} cells")
    small = matrix if leading is None else leading
    certify = cfg.exact or (
        max(small.rows, small.cols) <= cfg.dense_threshold and rows * cols <= EXACT_CELL_BUDGET
    )
    cut = 0 if leading is None else leading.cols
    weight = None  # the orbit size at each column, when one component per orbit is eliminated
    if not matrix.nnz:  # rank 0 at every prime and over the rationals: nothing to eliminate
        eliminated = [(p, (), None) for p in cfg.primes]
    elif certify:
        eliminated = [(p, *_echelon(matrix, p, True)) for p in cfg.primes]
    else:
        target, union = matrix, _orbit_union(matrix, cut, symmetries)
        if union is not None:
            target, weight, cut = union
        order = _column_order(target, cut)
        eliminated = [(p, *_echelon(target, p, False, order)) for p in cfg.primes]
        if weight is not None:
            weight = weight[np.argsort(order[1])]  # at each column of the ordered union
    proven = None
    if certify and all(len(profile) <= min(rows, cols) for _, profile, _ in eliminated):
        proven = _certify(matrix, eliminated, cfg.primes) if matrix.nnz else ()

    def count(pivots: tuple[int, ...]) -> int:
        """The rank the pivot columns give: each counted once per component
        of its orbit."""
        return len(pivots) if weight is None else int(weight[list(pivots)].sum())

    block = None
    if leading is not None:
        block = RankReport(
            leading.rows,
            leading.cols,
            tuple((p, count(profile[: bisect_left(profile, cut)])) for p, profile, _ in eliminated),
            None if proven is None else bisect_left(proven, cut),
        )
    return RankReport(
        rows,
        cols,
        tuple((p, count(profile)) for p, profile, _ in eliminated),
        None if proven is None else len(proven),
        block,
    )
