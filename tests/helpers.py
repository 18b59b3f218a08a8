"""Shared test oracles, deliberately independent of the package engines."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Mapping

import numpy as np

from hyperdefect.koszul import SparseIntMatrix
from hyperdefect.monomials import dim_graded
from hyperdefect.polynomials import DEFAULT_VARIABLES, Polynomial


def graded_monomials(m: int, e: int):
    """Yield all degree-e exponent vectors in rank order (empty for e < 0):
    descending first exponent, then recursively on the remaining variables."""
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


def partial(poly: Polynomial, j: int) -> Polynomial:
    """Formal partial derivative in the j-th variable, term by term."""
    lowered = [
        (key[:j] + (key[j] - 1,) + key[j + 1 :], key[j] * value)
        for key, value in poly.items()
        if key[j]
    ]
    return Polynomial(poly.variables, lowered)


def compose(target: Polynomial, replacements: Mapping[str, Polynomial]) -> Polynomial:
    """Simultaneous substitution into an expanded polynomial, term by term:
    each variable's powers are formed once from its replacement (itself
    when unlisted), and every term reads the original target."""
    images = [replacements.get(name, Polynomial.variable(target.variables, name))
              for name in target.variables]
    powers: dict[tuple[int, int], Polynomial] = {}
    result = Polynomial.zero(target.variables)
    for key, value in target.items():
        term = Polynomial.constant(target.variables, value)
        for i, a in enumerate(key):
            if a:
                if (i, a) not in powers:
                    powers[i, a] = images[i] ** a
                term = term * powers[i, a]
        result = result + term
    return result


def unimodular_rows(rng: random.Random, n: int) -> list[list[int]]:
    """The rows of L*U in a shuffled order, L and U unitriangular with
    entries in {-1, 0, 1}: an integer matrix of determinant +-1."""

    def unitriangular(below: bool) -> list[list[int]]:
        return [
            [1 if i == j else rng.choice((-1, 0, 1)) if (j < i) == below else 0 for j in range(n)]
            for i in range(n)
        ]

    lower, upper = unitriangular(True), unitriangular(False)
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*upper)] for row in lower]
    rng.shuffle(rows)
    return rows


def coordinate_change(base: str, rows, variables=DEFAULT_VARIABLES) -> str:
    """`subst(base, x, L1, y, L2, ...)`, L_i the linear form of row i."""
    forms = (
        "".join(f"{c:+d}*{name}" for c, name in zip(row, variables) if c).lstrip("+")
        for row in rows
    )
    return f"subst({base},{','.join(f'{name},{form}' for name, form in zip(variables, forms))})"


def monomial_index(exponents) -> int:
    """Rank of an exponent vector within the graded basis of its degree,
    one binomial offset per leading variable."""
    m = len(exponents)
    if m < 1:
        raise ValueError("empty exponent vector")
    if any(a < 0 for a in exponents):
        raise ValueError(f"negative exponent in {tuple(exponents)}")
    remaining = sum(exponents)
    index = 0
    for r in range(m - 1):
        remaining -= exponents[r]
        index += comb(remaining + m - 2 - r, m - 1 - r)
    return index


def from_entries(rows: int, cols: int, entries) -> SparseIntMatrix:
    """Matrix from (row, col, value) triplets in order."""
    entries = tuple(entries)
    return SparseIntMatrix(rows, cols, *([e[k] for e in entries] for k in range(3)))


def rational_rank(matrix) -> int:
    """Textbook Gauss-Jordan elimination over the rationals."""
    if isinstance(matrix, SparseIntMatrix):
        dense = matrix.to_dense().tolist()
    else:
        dense = np.asarray(matrix).tolist()
    rows = [[Fraction(v) for v in row] for row in dense]
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def rowreduce_rank(matrix, p: int) -> int:
    """Plain unblocked row reduction mod p in int64; valid for any p < 2**31."""
    if isinstance(matrix, SparseIntMatrix):
        dense = matrix.to_dense().tolist()
    else:
        dense = np.asarray(matrix).tolist()
    A = np.array([[int(v) % p for v in row] for row in dense], dtype=np.int64)
    if A.size == 0:
        return 0
    a, b = A.shape
    row = 0
    for c in range(b):
        nonzero = np.nonzero(A[row:a, c])[0]
        if nonzero.size == 0:
            continue
        i = row + int(nonzero[0])
        if i != row:
            A[[row, i]] = A[[i, row]]
        inv = pow(int(A[row, c]), p - 2, p)
        A[row, c:] = A[row, c:] * inv % p
        multipliers = A[row + 1 : a, c]
        if multipliers.size:
            A[row + 1 : a, c:] = (A[row + 1 : a, c:] - multipliers[:, None] * A[row, c:]) % p
        row += 1
        if row == a:
            break
    return row


def sparse_from_dense(array) -> SparseIntMatrix:
    """The nonzero entries of a 2-d array, in row-major order."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
    r, c = np.nonzero(arr)
    return SparseIntMatrix(*arr.shape, r, c, arr[r, c].tolist())


def euler_series_oracle(n, d):
    """Long division of d*t*(1+t)^(n+2) by (1+d*t) over Q: the t^{n+1}
    coefficient is the Euler characteristic of a smooth degree-d
    hypersurface in P^{n+1}."""
    order = n + 2
    numerator = [Fraction(0)] * order
    for j in range(n + 2):
        if j + 1 < order:
            numerator[j + 1] = Fraction(d * comb(n + 2, j))
    quotient = []
    remainder = list(numerator)
    for i in range(order):
        c = remainder[i]
        quotient.append(c)
        if i + 1 < order:
            remainder[i + 1] -= c * d
    value = quotient[n + 1]
    assert value.denominator == 1
    return int(value)


def prim_series_oracle(m: int, d: int) -> list[int]:
    """(t + ... + t^(d-1))^m by m full convolutions with the base polynomial."""
    base = [0] + [1] * (d - 1)
    result = [1]
    for _ in range(m):
        out = [0] * (len(result) + len(base) - 1)
        for i, a in enumerate(result):
            for j, b in enumerate(base):
                out[i + j] += a * b
        result = out
    return result


def stars_and_bars(m: int, e: int):
    """Enumerate degree-e exponent vectors by bar placement (order-free oracle)."""
    for bars in combinations(range(e + m - 1), m - 1):
        previous = -1
        vector = []
        for b in bars:
            vector.append(b - previous - 1)
            previous = b
        vector.append(e + m - 2 - previous)
        yield tuple(vector)


def power_sum_expansion(nvars: int, exponent: int) -> dict[tuple[int, ...], int]:
    """(x_0 + ... + x_{nvars-1})^exponent by counting raw orderings."""
    counts: dict[tuple[int, ...], int] = {}
    for assignment in product(range(nvars), repeat=exponent):
        key = [0] * nvars
        for i in assignment:
            key[i] += 1
        counts[tuple(key)] = counts.get(tuple(key), 0) + 1
    return counts


def bounded_compositions_count(total: int, parts: int, lo: int, hi: int) -> int:
    """Number of ordered ways to write `total` as `parts` integers in [lo, hi]."""
    return sum(
        1 for c in product(range(lo, hi + 1), repeat=parts) if sum(c) == total
    )


def accumulate(rows: int, cols: int, items) -> SparseIntMatrix:
    """Sum (row, col, value) items into a sparse matrix, dropping zero sums."""
    acc: dict[tuple[int, int], int] = {}
    for r, c, v in items:
        key = (r, c)
        new = acc.get(key, 0) + v
        if new:
            acc[key] = new
        elif key in acc:
            del acc[key]
    return from_entries(rows, cols, sorted((r, c, v) for (r, c), v in acc.items()))


def per_entry_wedge_block(form, e: int) -> SparseIntMatrix:
    """Wedge block built entry by entry: row (j, a) gets t_j*c at column
    a + t - unit_j for each term c*x^t of f with t_j > 0."""
    m = form.variable_count
    source = list(graded_monomials(m, e))
    items = []
    for j in range(m):
        base = j * len(source)
        for t, coefficient in form.poly.items():
            tj = t[j]
            if tj == 0:
                continue
            shift = t[:j] + (tj - 1,) + t[j + 1 :]
            for row, a in enumerate(source):
                target = tuple(x + y for x, y in zip(a, shift))
                items.append((base + row, monomial_index(target), tj * coefficient))
    return accumulate(m * len(source), dim_graded(m, e + form.degree - 1), items)


def per_entry_derivative_block(m: int, e: int) -> SparseIntMatrix:
    """Derivative block built entry by entry: x^a -> a_j * x^(a - unit_j)."""
    source = list(graded_monomials(m, e))
    items = []
    for j in range(m):
        base = j * len(source)
        for row, a in enumerate(source):
            aj = a[j]
            if aj:
                target = a[:j] + (aj - 1,) + a[j + 1 :]
                items.append((base + row, monomial_index(target), aj))
    return accumulate(m * len(source), dim_graded(m, e - 1), items)


def per_entry_full(form, multiplier: int) -> SparseIntMatrix:
    """[[0, A], [B, D]] from the per-entry blocks, by offsets and one sort."""
    m, d = form.variable_count, form.degree
    e_low = (multiplier - 2) * d - (m - 1)
    e_high = e_low + d
    low = per_entry_wedge_block(form, e_low)
    high = per_entry_wedge_block(form, e_high)
    derivative = per_entry_derivative_block(m, e_high)
    items = [(r, c + high.cols, v) for r, c, v in low.entries]
    items.extend((r + low.rows, c, v) for r, c, v in high.entries)
    items.extend((r + low.rows, c + high.cols, v) for r, c, v in derivative.entries)
    return from_entries(low.rows + high.rows, high.cols + low.cols, sorted(items))


def max_quotient_denominator(y: int, modulus: int) -> int:
    """Maximal-quotient reconstruction's denominator for y mod `modulus`
    (Monagan, ISSAC 2004), over the whole Euclidean algorithm on
    (modulus, y): the |t| of the remainder t*y that the first largest
    quotient follows."""
    r0, r1, t0, t1 = modulus, y, 0, 1
    largest, den = 0, 1
    while r1:
        q = r0 // r1
        if q > largest:
            largest, den = q, abs(t1)
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return den
