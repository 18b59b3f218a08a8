"""Exact ranks of sparse integer matrices.

Both engines return the column rank profile: the pivot columns, in
increasing order, of an elimination that walks the columns left to
right.  Its length is the rank, and the number of its entries below k is
the rank of the leading k columns, so one elimination gives the rank of
every leading column block at once.

* `rank_profile_mod_p` eliminates over the field with p elements.  It
  densifies once, straight from the coordinate arrays (entries reduced
  mod p in one int64 pass, or one Python-int pass when some entry does
  not fit), and runs a blocked right-looking elimination that pivots on
  the first nonzero row, so the result is deterministic.  Each panel of
  up to 64 columns is copied out column-major and factored recursively,
  as in the CUP decomposition (Jeannerod, Pernet and Storjohann, J.
  Symbolic Comput. 2013): halve the columns, factor the left half, solve
  the right half's rows beside its pivots with one product by the
  inverse of its unit lower triangle, update the rows below with one
  product, and factor the right half.  Only ranges of at most 8 columns
  are factored column by column.  The panel's pivot rows are then solved
  across the trailing columns with one product by the inverse of the
  panel's unit lower triangle, and the trailing matrix takes the panel
  product in place.  All products run in float64 BLAS on integer values:
  a product of inner dimension w with operands in [0, p) adds at most
  w*(p-1)**2 to a magnitude, and reduction x - floor(x/p)*p with a
  correctly rounded quotient is exact while |x| + p < 2**53.  Every
  operand is reduced before a product, and within a panel an entry takes
  at most one product term per pivot column left of it, so it stays
  within one panel width's bound.  Reduction of the trailing matrix is
  delayed: it absorbs panel products unreduced for as long as the bound
  allows.  The width follows from p: float64 with w <= 64 while
  w*(p-1)**2 + p < 2**53, else int64 with w = 1, which covers every
  p < 2**31.  Any elimination that walks the columns in order finds the
  same profile, because the profile is a property of the matrix.
* `exact_rank_profile` is fraction-free (Bareiss) elimination over the
  integers, read from the entries as Python ints: no rounding, no modular
  reduction, no size limit on coefficients; rank over the rationals.
* `rank_multimodular` runs the configured primes, reports the per-prime
  ranks with their consensus (the max, a guaranteed lower bound), and
  certifies against the exact engine when asked or when the matrix is
  small.  Given the leading column block of the matrix, it reports that
  block's rank from the same eliminations, as the profile prefix.

Every function takes a `SparseIntMatrix`.

A "bad" prime can only lower a rank, never raise it, so disagreement
between primes is reported rather than fatal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .koszul import SparseIntMatrix

# 15-bit primes used as the default modular rank checks
PRIME_TABLE = (32633, 32647, 32653, 32687, 32693, 32707, 32713, 32717, 32719, 32749)
DEFAULT_PRIMES = PRIME_TABLE[:3]

EXACT_CELL_BUDGET = 1 << 20
# largest matrix the E2 count hands to the modular engine: 256 MB as float64
MODULAR_CELL_BUDGET = 1 << 25

_PANEL = 64  # widest panel; narrower when p is too large for float64
_LEAF = 8  # column ranges this narrow are factored one column at a time
_CHUNK_ROWS = 256  # rows per trailing-update product, bounds the scratch buffer
_FLOAT_EXACT = 2**53
_INT_EXACT = 2**63


class RankBudgetError(Exception):
    """Elimination refused: the matrix exceeds a cell budget."""


class RankInvariantError(RuntimeError):
    """A computed rank contradicts a bound that every correct rank obeys."""


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; bases 2,3,5,7 cover all n < 3_215_031_751
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RankConfig:
    """Prime set and certification policy for rank computations."""

    primes: tuple[int, ...] = DEFAULT_PRIMES
    exact: bool = False
    dense_threshold: int = 100

    def __post_init__(self):
        primes = tuple(self.primes)
        object.__setattr__(self, "primes", primes)
        if not primes:
            raise ValueError("need at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError(f"primes must be distinct: {primes}")
        for p in primes:
            if not 2 <= p < 2**31:
                raise ValueError(f"prime {p} outside [2, 2**31)")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if self.dense_threshold < 0:
            raise ValueError("dense_threshold must be >= 0")

    def certifies(self, rows: int, cols: int) -> bool:
        """Whether a rows x cols matrix gets an exact rank."""
        small = max(rows, cols) <= self.dense_threshold and rows * cols <= EXACT_CELL_BUDGET
        return self.exact or small


@dataclass(frozen=True)
class RankReport:
    """Shape, per-prime ranks, their consensus, and optional exact certification.

    `leading`, when present, is the report of a leading column block,
    read off the same eliminations (see `rank_multimodular`).
    """

    rows: int
    cols: int
    per_prime: tuple[tuple[int, int], ...]
    consensus: int
    agreed: bool
    exact_rank: int | None = None
    certified: bool = False
    leading: RankReport | None = None

    @classmethod
    def of(
        cls,
        rows: int,
        cols: int,
        per_prime: tuple[tuple[int, int], ...],
        exact_rank: int | None,
        leading: RankReport | None = None,
    ) -> RankReport:
        consensus = max(r for _, r in per_prime)
        return cls(
            rows=rows,
            cols=cols,
            per_prime=per_prime,
            consensus=consensus,
            agreed=len({r for _, r in per_prime}) == 1,
            exact_rank=exact_rank,
            certified=exact_rank is not None and exact_rank == consensus,
            leading=leading,
        )

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


def _kernel(p: int) -> tuple[type, int, int]:
    """(dtype, panel width, delay) of the elimination mod p.

    A panel product of width w adds at most w*(p-1)**2 to a magnitude;
    `delay` such products fit below the exactness limit of the dtype, so
    no value the kernel forms exceeds delay*w*(p-1)**2 + p in magnitude.
    """
    square = (p - 1) ** 2
    dtype, limit = np.float64, _FLOAT_EXACT
    width = min(_PANEL, (limit - p - 1) // square)
    if width < 1:
        dtype, limit, width = np.int64, _INT_EXACT, 1
    return dtype, width, (limit - p - 1) // (width * square)


def _reduce(x: np.ndarray, p: int) -> None:
    """Reduce the integral entries of `x` into [0, p), in place, as x - floor(x/p)*p.

    Exact while |x| + p stays below the dtype's exactness limit.  In
    float64 no correction is needed: x/p lies at least 1/p away from any
    integer it does not equal, and correct rounding moves it by at most
    |x/p| * 2**-53 < 1/p, so the floor of the rounded quotient is the
    true floor; the product floor*p is an integer below 2**53 and exact.
    """
    if x.dtype == np.float64:
        q = x / p
        np.floor(q, out=q)
    else:
        q = x // p
    q *= p
    x -= q


def _dense_mod_p(matrix: SparseIntMatrix, p: int, dtype: type) -> np.ndarray:
    """Dense `dtype` array of the entries mod p."""
    dense = np.zeros((matrix.rows, matrix.cols), dtype=dtype)
    try:
        residues = matrix.v.astype(np.int64) % p
    except OverflowError:
        residues = np.array([x % p for x in matrix.v.tolist()], dtype=np.int64)
    dense[matrix.r, matrix.c] = residues
    return dense


def _subtract_product(target: np.ndarray, left: np.ndarray, right: np.ndarray, buffer) -> None:
    """target -= left @ right, in row chunks through one scratch buffer."""
    width = target.shape[1]
    for start in range(0, target.shape[0], _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, target.shape[0])
        product = buffer[: (stop - start) * width].reshape(stop - start, width)
        np.matmul(left[start:stop], right, out=product)
        target[start:stop] -= product


def _reduce_rows(x: np.ndarray, p: int) -> None:
    for start in range(0, x.shape[0], _CHUNK_ROWS):
        _reduce(x[start : start + _CHUNK_ROWS], p)


def _unit_lower_inverse(lower: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit lower triangle under the diagonal of `lower`.

    Entries of `lower` below the diagonal must lie in [0, p); the diagonal
    and what lies above it are ignored.  Forward substitution, one row per
    step, each a product of inner dimension below the row count.
    """
    t = lower.shape[0]
    inverse = np.eye(t, dtype=lower.dtype)
    for s in range(1, t):
        row = -(lower[s, :s] @ inverse[:s, :s])
        _reduce(row, p)
        inverse[s, :s] = row
    return inverse


def _take(columns: np.ndarray, indices: list[int]) -> np.ndarray:
    """columns[:, indices], as a view when the indices are consecutive."""
    if indices[-1] - indices[0] == len(indices) - 1:
        return columns[:, indices[0] : indices[-1] + 1]
    return columns[:, indices]


def _factor(
    panel: np.ndarray, trailing: np.ndarray, work: np.ndarray, p: int, lo: int, hi: int, top: int
) -> tuple[list[int], np.ndarray]:
    """Factor columns [lo, hi) of `panel` below row `top`, recursively.

    Returns the pivot columns and the inverse mod p of their unit lower
    triangle of multipliers.  The s-th pivot ends in row top + s, its
    multipliers below it in its column; row swaps move whole panel rows
    and the same rows of `trailing`.  A range wider than _LEAF is split
    in two: the left half is factored, the right half's rows beside its
    pivots are solved with one product by that half's inverse triangle,
    the rows below take one product of the multipliers with them (formed
    in `work`, room for the panel's height times its right half), and the
    right half is factored below the left half's pivots.  Every operand
    of a product is reduced first, so an entry absorbs at most one
    product term per pivot column left of it in the panel.
    """
    height = panel.shape[0]
    if hi - lo <= _LEAF:
        pivots: list[int] = []
        r = top
        for j in range(lo, hi):
            if r == height:
                break
            column = panel[r:, j]
            _reduce(column, p)
            nonzero = column.nonzero()[0]
            if nonzero.size == 0:
                continue
            i = r + int(nonzero[0])
            if i != r:
                panel[[r, i]] = panel[[i, r]]
                trailing[[r, i]] = trailing[[i, r]]
            multipliers = panel[r + 1 :, j]
            multipliers *= pow(int(panel[r, j]), p - 2, p)
            _reduce(multipliers, p)
            head = panel[r, j + 1 : hi]
            _reduce(head, p)
            # the product transposed is column-major, like the panel
            panel[r + 1 :, j + 1 : hi] -= (head[:, None] * multipliers).T
            pivots.append(j)
            r += 1
        return pivots, _unit_lower_inverse(panel[top:r, pivots], p)
    mid = (lo + hi) // 2
    left, left_inverse = _factor(panel, trailing, work, p, lo, mid, top)
    below = top + len(left)
    if below == height:
        return left, left_inverse
    if left:
        beside = panel[top:below, mid:hi]
        _reduce(beside, p)
        beside[...] = left_inverse @ beside
        _reduce(beside, p)
        rest = panel[below:, mid:hi]
        product = work[: rest.size].reshape(rest.shape, order="F")
        np.matmul(_take(panel[below:], left), beside, out=product)
        rest -= product
    right, right_inverse = _factor(panel, trailing, work, p, mid, hi, below)
    if not right:
        return left, left_inverse
    if not left:
        return right, right_inverse
    # [[L1, 0], [C, L2]]^-1 = [[L1^-1, 0], [-L2^-1 C L1^-1, L2^-1]]
    coupling = panel[below : below + len(right), left] @ left_inverse
    _reduce(coupling, p)
    coupling = -(right_inverse @ coupling)
    _reduce(coupling, p)
    inverse = np.zeros((below - top + len(right),) * 2, dtype=panel.dtype)
    inverse[: len(left), : len(left)] = left_inverse
    inverse[len(left) :, len(left) :] = right_inverse
    inverse[len(left) :, : len(left)] = coupling
    return left + right, inverse


def _eliminate(A: np.ndarray, p: int, width: int, delay: int) -> list[int]:
    """Column rank profile of A mod p; A (entries in [0, p)) is overwritten.

    Each panel of `width` columns is copied out column-major and factored
    by `_factor`; the pivot rows' trailing parts are solved with one
    product by the inverse of the panel's unit lower triangle, and the
    trailing matrix takes the panel product unreduced until `delay`
    products have accumulated.
    """
    nrows, ncols = A.shape
    buffer = np.empty(min(nrows, max(_CHUNK_ROWS, width)) * ncols, dtype=A.dtype)
    work = np.empty(nrows * ((width + 1) // 2), dtype=A.dtype)
    profile: list[int] = []
    row = 0
    pending = 0
    for col in range(0, ncols, width):
        if row == nrows:
            break
        hi = min(col + width, ncols)
        panel = np.array(A[row:, col:hi], order="F")
        pivots, inverse = _factor(panel, A[row:, hi:], work, p, 0, hi - col, 0)
        t = len(pivots)
        profile.extend(col + j for j in pivots)
        if t and hi < ncols and t < panel.shape[0]:
            upper = A[row : row + t, hi:]
            _reduce(upper, p)
            solved = buffer[: upper.size].reshape(upper.shape)
            np.matmul(inverse, upper, out=solved)
            _reduce(solved, p)
            upper[...] = solved
            trailing = A[row + t :, hi:]
            _subtract_product(trailing, panel[t:, pivots], upper, buffer)
            pending += 1
            if pending == delay:
                _reduce_rows(trailing, p)
                pending = 0
        row += t
    return profile


def rank_profile_mod_p(matrix: SparseIntMatrix, p: int) -> tuple[int, ...]:
    """Column rank profile over the field with p elements, for any prime p < 2**31.

    Deterministic for fixed inputs.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 2 <= p < 2**31:
        raise ValueError(f"prime {p} outside [2, 2**31)")
    dtype, width, delay = _kernel(p)
    return tuple(_eliminate(_dense_mod_p(matrix, p, dtype), p, width, delay))


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    return len(rank_profile_mod_p(matrix, p))


def exact_rank_profile(
    matrix: SparseIntMatrix, max_cells: int = EXACT_CELL_BUDGET
) -> tuple[int, ...]:
    """Column rank profile over the rationals by fraction-free elimination.

    Bareiss updates (pivot*entry - colentry*pivotentry) // previous_pivot
    keep every intermediate value an exact integer minor; pivots are
    chosen of minimal magnitude to limit growth (the profile does not
    depend on that choice).  Raises RankBudgetError when rows*cols
    exceeds `max_cells`.
    """
    rows, cols = matrix.rows, matrix.cols
    if rows * cols > max_cells:
        raise RankBudgetError(f"{rows}x{cols} exceeds exact budget of {max_cells} cells")
    if min(rows, cols) == 0:
        return ()
    A = [[0] * cols for _ in range(rows)]
    for i, j, v in matrix.entries:
        A[i][j] = v
    profile: list[int] = []
    previous = 1
    r = 0
    for c in range(cols):
        best = -1
        best_mag = 0
        for i in range(r, rows):
            v = A[i][c]
            if v:
                mag = -v if v < 0 else v
                if best < 0 or mag < best_mag:
                    best, best_mag = i, mag
        if best < 0:
            continue
        if best != r:
            A[r], A[best] = A[best], A[r]
        pivot_row = A[r]
        pivot = pivot_row[c]
        for i in range(r + 1, rows):
            other = A[i]
            head = other[c]
            if head:
                other[c + 1 :] = [
                    (pivot * x - head * y) // previous
                    for x, y in zip(other[c + 1 :], pivot_row[c + 1 :])
                ]
            else:
                other[c + 1 :] = [pivot * x // previous for x in other[c + 1 :]]
        previous = pivot
        profile.append(c)
        r += 1
        if r == rows:
            break
    return tuple(profile)


def rank_exact(matrix: SparseIntMatrix, max_cells: int = EXACT_CELL_BUDGET) -> int:
    """Rank over the rationals; raises RankBudgetError above `max_cells` cells."""
    return len(exact_rank_profile(matrix, max_cells))


def rank_multimodular(
    matrix: SparseIntMatrix,
    config: RankConfig | None = None,
    leading: SparseIntMatrix | None = None,
) -> RankReport:
    """Rank report over the configured primes, optionally certified exactly.

    The consensus is the maximum per-prime rank (each prime gives a lower
    bound on the true rank).  The exact engine runs when `config.exact`
    is set, or automatically when both dimensions are at most
    `config.dense_threshold`.

    `leading` names the leading column block of `matrix`: its first
    leading.cols columns hold `leading` in their last leading.rows rows
    and zeros above.  Its rank is then the number of pivots among those
    columns, and the report's `leading` field carries its ranks, counted
    from the same profiles.  Its exact rank comes from the same Bareiss
    run when the whole matrix is certified, else from its own run when it
    qualifies by itself.
    """
    cfg = config or RankConfig()
    rows, cols = matrix.rows, matrix.cols
    if leading is not None and (leading.rows > rows or leading.cols > cols):
        raise ValueError(f"leading block {leading.rows}x{leading.cols} exceeds {rows}x{cols}")
    profiles = [(p, rank_profile_mod_p(matrix, p)) for p in cfg.primes]
    exact = exact_rank_profile(matrix) if cfg.certifies(rows, cols) else None
    block = None
    if leading is not None:
        exact_block = None
        if exact is not None:
            exact_block = bisect_left(exact, leading.cols)
        elif cfg.certifies(leading.rows, leading.cols):
            exact_block = rank_exact(leading)
        block = RankReport.of(
            leading.rows,
            leading.cols,
            tuple((p, bisect_left(profile, leading.cols)) for p, profile in profiles),
            exact_block,
        )
    return RankReport.of(
        rows,
        cols,
        tuple((p, len(profile)) for p, profile in profiles),
        None if exact is None else len(exact),
        block,
    )
