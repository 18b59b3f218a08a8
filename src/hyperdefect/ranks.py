"""Exact ranks of sparse integer matrices.

Every rank comes from the column rank profile: the pivot columns, in
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
  Every panel is written back, so the same pass leaves the echelon
  form U, row s from pivot column profile[s] on, in the dense array.
* `rank_multimodular` runs the configured primes and reports the
  per-prime ranks with their consensus (the max, a guaranteed lower
  bound); given the leading column block of the matrix, it reports that
  block's ranks from the same eliminations, as profile prefixes.  When
  asked, or when the matrix or else its leading block is small, it
  certifies that one target from the same eliminations, keeping each
  prime's echelon rows over the target's columns and no other dense
  array.  `_certify` proves the target's profile over the rationals with
  a lifted kernel (Dumas, Saunders and Villard, 2001): back substitution
  gives the reduced-echelon right kernel mod p, one vector per free
  column with the identity on the free columns; the primes that share
  the best profile are combined by CRT and rational reconstruction
  (Wang, 1981) with one common denominator, and every lifted vector is
  checked to be zero past its free column and annihilated by the matrix
  in exact integer arithmetic.  Each prefix count of a profile mod p
  bounds the rank of those leading columns from below, the verified
  vectors bound it from above, so the profile and every leading block's
  rank are proven.  When the lift does not verify, primes descending
  from 11863279 are added until a Hadamard bound says it must have, and
  a failure past that is raised as RankInvariantError.
* `rank_mod_p` and `rank_exact` are thin wrappers of the two, kept as
  boundaries that perfbench/tracing.py wraps by name.

Every function takes a `SparseIntMatrix`.

A "bad" prime can only lower a rank, never raise it, so disagreement
between primes is reported rather than fatal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt, prod

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
# first prime added to a lift: the largest that `_kernel` runs at the full panel width
_LIFT_PRIME = 11863279


class RankBudgetError(Exception):
    """Refused before any work: an input exceeds a size budget."""


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
    if left:
        # solved even when no rows remain below: these are rows of U
        beside = panel[top:below, mid:hi]
        _reduce(beside, p)
        beside[...] = left_inverse @ beside
        _reduce(beside, p)
    if below == height:
        return left, left_inverse
    if left:
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
    products have accumulated.  Every factored panel is written back, so
    that row s of A, from column profile[s] on, is row s of an echelon
    form U = L^-1 P A (entries in [0, p), pivots not normalised); what
    lies left of each pivot is not part of U.
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
        if t and hi < ncols:
            # solved even when no rows remain below: these are rows of U
            upper = A[row : row + t, hi:]
            _reduce(upper, p)
            solved = buffer[: upper.size].reshape(upper.shape)
            np.matmul(inverse, upper, out=solved)
            _reduce(solved, p)
            upper[...] = solved
            if t < panel.shape[0]:
                trailing = A[row + t :, hi:]
                _subtract_product(trailing, panel[t:, pivots], upper, buffer)
                pending += 1
                if pending == delay:
                    _reduce_rows(trailing, p)
                    pending = 0
        A[row:, col:hi] = panel
        row += t
    return profile


def _echelon(matrix: SparseIntMatrix, p: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Column rank profile mod p and the dense echelon form (see `_eliminate`)."""
    dtype, width, delay = _kernel(p)
    dense = _dense_mod_p(matrix, p, dtype)
    return tuple(_eliminate(dense, p, width, delay)), dense


def rank_profile_mod_p(matrix: SparseIntMatrix, p: int) -> tuple[int, ...]:
    """Column rank profile over the field with p elements, for any prime p < 2**31.

    Deterministic for fixed inputs.
    """
    RankConfig(primes=(p,))  # raises ValueError unless p is a prime below 2**31
    return _echelon(matrix, p)[0]


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank of an integer matrix over the field with p elements.

    The report path does not call it; it stays as a boundary that
    perfbench/tracing.py wraps by name.
    """
    return len(rank_profile_mod_p(matrix, p))


def _split_columns(profile: tuple[int, ...], cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The pivot columns and the free columns below `cols`, in increasing order."""
    is_free = np.ones(cols, dtype=bool)
    pivots = np.array(profile, dtype=np.intp)
    is_free[pivots] = False
    return pivots, np.flatnonzero(is_free)


def _kernel_mod_p(echelon: np.ndarray, profile: tuple[int, ...], cols: int, p: int) -> np.ndarray:
    """Pivot entries of the reduced-echelon right kernel mod p.

    Column i holds, at row s, entry profile[s] of the kernel vector that
    is 1 at the i-th non-pivot column below `cols` and 0 at the others.
    Back substitution up the rows of U, scaled to a unit diagonal.
    """
    r = len(profile)
    pivots, free = _split_columns(profile, cols)
    scale = np.array([-pow(int(echelon[s, c]), p - 2, p) for s, c in enumerate(profile)])
    # -U/diag(U), zero left of each pivot
    upper = np.where(np.arange(cols) > pivots[:, None], echelon[:r, :cols], 0)
    upper *= scale.astype(upper.dtype)[:, None]
    _reduce(upper, p)
    coupling, kernel = upper[:, pivots], upper[:, free]
    _, width, delay = _kernel(p)
    step = width * delay  # products of residues one exact sum holds
    for s in range(r - 2, -1, -1):
        row = kernel[s]
        for start in range(s + 1, r, step):
            row += coupling[s, start : start + step] @ kernel[start : start + step]
            _reduce(row, p)
    return kernel


def _crt(residues: list[tuple[int, np.ndarray]]) -> tuple[np.ndarray, int]:
    """The Python ints in [0, product of the primes) with the given residues."""
    value, modulus = np.zeros(residues[0][1].shape, dtype=object), 1
    for p, residue in residues:
        gap = residue.astype(np.int64) - (value % p).astype(np.int64)
        value = value + modulus * (gap * pow(modulus, -1, p) % p).astype(object)
        modulus *= p
    return value, modulus


def _wang_denominator(y: int, modulus: int, bound: int) -> int | None:
    """Denominator q <= bound of a fraction n/q = y mod `modulus` with |n| <= bound."""
    r0, r1, t0, t1 = modulus, y, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _rational_lift(value: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """Numerators and one common denominator of fractions congruent to `value`.

    Wang's reconstruction with numerator and denominator bound
    sqrt(modulus/2), where the answer is unique, applied to the first
    entry that the denominator found so far does not make small; each
    step at least doubles the denominator, so few entries need it.  None
    when some entry has no such fraction.
    """
    bound = isqrt((modulus - 1) // 2)
    den = 1
    for _ in range(bound.bit_length() + 1):
        scaled = value * den % modulus
        scaled[scaled > modulus // 2] -= modulus
        large = np.flatnonzero(abs(scaled) > bound)
        if not large.size:
            return scaled, den
        q = _wang_denominator(int(scaled.flat[large[0]] % modulus), modulus, bound)
        if q is None or den * q > bound:
            return None
        den *= q
    return None


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
    matrix: SparseIntMatrix, profile: tuple[int, ...], kernels: list[tuple[int, np.ndarray]]
) -> bool:
    """Whether the kernels mod p lift to exact kernel vectors of `matrix`.

    The vector of free column f must be zero past f, so that it also
    shows column f to depend on the pivot columns before it.
    """
    lifted = _rational_lift(*_crt(kernels))
    if lifted is None:
        return False
    numerators, den = lifted
    pivots, free = _split_columns(profile, matrix.cols)
    if numerators[pivots[:, None] > free].any():
        return False
    basis = np.zeros((matrix.cols, len(free)), dtype=object)
    basis[pivots] = numerators
    basis[free, np.arange(len(free))] = den
    return _annihilates(matrix, basis)


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
    eliminated: list[tuple[int, tuple[int, ...], np.ndarray]],
    skip: tuple[int, ...],
) -> tuple[int, ...]:
    """Column rank profile of `matrix` over the rationals, proven.

    `eliminated` holds (p, profile, echelon form) of `matrix` at some
    primes.  The best profile (longest, then lexicographically first) is
    lifted from the primes that share it: kernel mod p, CRT, rational
    reconstruction, then an exact check that every vector is a kernel
    vector zero past its free column.  Each prefix count of a profile mod
    p bounds the rank of that many leading columns from below; the
    verified vectors, one per free column with the identity there, bound
    it from above.  So the profile is the one over the rationals, and
    its prefix counts are the ranks of all leading column blocks.

    While the lift fails, primes from `_lift_primes` are added.  All
    primes whose profile is not the rational one divide one nonzero
    minor, so their product is at most the Hadamard bound H; once the
    primes sharing the rational profile multiply past 2*H**2 the
    reconstruction is unique and the lift verifies.  A failure past
    either bound is a fault, raised as RankInvariantError.
    """
    cols = matrix.cols
    found = list(eliminated)
    kernels: dict[int, np.ndarray] = {}
    hadamard = _hadamard_square(matrix)
    extra = _lift_primes(skip)
    while True:
        best = min((profile for _, profile, _ in found), key=lambda pr: (-len(pr), pr))
        if len(best) == cols:
            return best
        agree = [(p, echelon) for p, profile, echelon in found if profile == best]
        for p, echelon in agree:
            if p not in kernels:
                kernels[p] = _kernel_mod_p(echelon, best, cols, p)
        if _lift_verifies(matrix, best, [(p, kernels[p]) for p, _ in agree]):
            return best
        modulus = prod(p for p, _ in agree)
        others = prod(p for p, profile, _ in found if profile != best)
        if modulus > 2 * hadamard or others**2 > hadamard:
            raise RankInvariantError(
                f"{matrix.rows}x{cols}: kernel lifted mod {modulus} does not verify"
            )
        p = next(extra)
        found.append((p, *_echelon(matrix, p)))


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


def rank_multimodular(
    matrix: SparseIntMatrix,
    config: RankConfig | None = None,
    leading: SparseIntMatrix | None = None,
) -> RankReport:
    """Rank report over the configured primes, optionally certified exactly.

    The consensus is the maximum per-prime rank (each prime gives a lower
    bound on the true rank).

    `leading` names the leading column block of `matrix`: its first
    leading.cols columns hold `leading` in their last leading.rows rows
    and zeros above.  Its rank is then the number of pivots among those
    columns, and the report's `leading` field carries its ranks, counted
    from the same profiles.

    At most one target is certified: `matrix` when `config.certifies` its
    shape (always under `config.exact`, which raises RankBudgetError past
    EXACT_CELL_BUDGET cells), else `leading` when it qualifies.  Each
    prime's echelon rows whose pivots lie among the target's columns,
    restricted to those columns, are an echelon form of the target, and
    `_certify` proves its profile from them.  Only they are kept, and
    only when there is a target; otherwise each prime's dense array is
    dropped before the next prime is eliminated.  The block's exact rank
    is the proven profile's prefix count over its columns.  A prime whose
    rank exceeds min(rows, cols) cannot be lifted, so the report is then
    left uncertified, for the caller to refuse.
    """
    cfg = config or RankConfig()
    rows, cols = matrix.rows, matrix.cols
    if leading is not None and (leading.rows > rows or leading.cols > cols):
        raise ValueError(f"leading block {leading.rows}x{leading.cols} exceeds {rows}x{cols}")
    if cfg.exact and rows * cols > EXACT_CELL_BUDGET:
        raise RankBudgetError(f"{rows}x{cols} exceeds exact budget of {EXACT_CELL_BUDGET} cells")
    whole = cfg.certifies(rows, cols)
    target = None
    if whole:
        target = matrix
    elif leading is not None and cfg.certifies(leading.rows, leading.cols):
        target = leading

    def eliminate(p: int):
        # the dense array must not outlive this call unless it certifies
        profile, echelon = _echelon(matrix, p)
        if target is None:
            return p, profile, None
        t = bisect_left(profile, target.cols)
        return p, profile, (profile[:t], echelon[:t, : target.cols])

    eliminated = [eliminate(p) for p in cfg.primes]
    liftable = all(len(profile) <= min(rows, cols) for _, profile, _ in eliminated)
    proven = None
    if target is not None and liftable:
        proven = _certify(target, [(p, *prefix) for p, _, prefix in eliminated], cfg.primes)
    block = None
    if leading is not None:
        block = RankReport.of(
            leading.rows,
            leading.cols,
            tuple((p, bisect_left(profile, leading.cols)) for p, profile, _ in eliminated),
            None if proven is None else bisect_left(proven, leading.cols),
        )
    return RankReport.of(
        rows,
        cols,
        tuple((p, len(profile)) for p, profile, _ in eliminated),
        len(proven) if whole and proven is not None else None,
        block,
    )
