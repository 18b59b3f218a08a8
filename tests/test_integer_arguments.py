"""Every public integer argument takes an integer of any type, stored as a
Python int, and refuses anything else with an error that names it."""

import numpy as np
import pytest

from hyperdefect.fixtures import get_fixture
from hyperdefect.invariants import (
    LocalVanishingData,
    SmoothFiberInvariants,
    e2_piece,
    smooth_euler,
    smooth_hodge_prim,
)
from hyperdefect.koszul import (
    PhiDegrees,
    SparseIntMatrix,
    assemble_phi,
    build_derivative_block,
    build_wedge_block,
)
from hyperdefect.monomials import dim_graded, exponent_array
from hyperdefect.polynomials import HomogeneousForm, Polynomial, PolynomialError
from hyperdefect.ranks import RankConfig

CUBIC = get_fixture("segre-cubic").build()
VARIABLES = ("x", "y", "z")
X = Polynomial.variable(VARIABLES, "x")


def coefficient(poly, *exponents):
    return dict(poly.items())[exponents]


def local(name, value):
    counts = dict(dim_vanishing=1, dim_monodromy_kernel=1, gr2_vanishing=1)
    return LocalVanishingData(**{**counts, name: value})


# name: (call with the argument, an integer it accepts, what it stores or returns)
ARGUMENTS = {
    "RankConfig dense_threshold": (
        lambda x: RankConfig(dense_threshold=x), 7, lambda config: config.dense_threshold
    ),
    "SparseIntMatrix rows": (
        lambda x: SparseIntMatrix(x, 2, [0], [0], [1]), 2, lambda matrix: matrix.rows
    ),
    "SparseIntMatrix cols": (
        lambda x: SparseIntMatrix(2, x, [0], [0], [1]), 2, lambda matrix: matrix.cols
    ),
    "SparseIntMatrix row index": (
        lambda x: SparseIntMatrix(2, 2, [x], [0], [1]), 1, lambda matrix: matrix.entries[0][0]
    ),
    "SparseIntMatrix column index": (
        lambda x: SparseIntMatrix(2, 2, [0], [x], [1]), 1, lambda matrix: matrix.entries[0][1]
    ),
    "SparseIntMatrix value": (
        lambda x: SparseIntMatrix(2, 2, [0], [0], [x]), 3, lambda matrix: matrix.v[0]
    ),
    "PhiDegrees.of m": (lambda x: PhiDegrees.of(x, 3, 3), 5, lambda degrees: degrees.m),
    "PhiDegrees.of d": (lambda x: PhiDegrees.of(5, x, 3), 3, lambda degrees: degrees.d),
    "PhiDegrees.of multiplier": (
        lambda x: PhiDegrees.of(5, 3, x), 3, lambda degrees: degrees.multiplier
    ),
    "assemble_phi multiplier": (
        lambda x: assemble_phi(CUBIC, x), 3, lambda blocks: blocks.degrees.multiplier
    ),
    "e2_piece multiplier": (lambda x: e2_piece(CUBIC, x), 3, lambda report: report.multiplier),
    "dim_graded m": (lambda x: dim_graded(x, 2), 3, int),
    "dim_graded e": (lambda x: dim_graded(3, x), 2, int),
    "exponent_array e": (lambda x: exponent_array(3, x), 2, len),
    "build_wedge_block e": (lambda x: build_wedge_block(CUBIC, x), 1, lambda block: block.cols),
    "build_derivative_block m": (
        lambda x: build_derivative_block(x, 2), 3, lambda block: block.rows
    ),
    "build_derivative_block e": (
        lambda x: build_derivative_block(3, x), 2, lambda block: block.cols
    ),
    "smooth_euler n": (lambda x: smooth_euler(x, 3), 3, int),
    "smooth_euler d": (lambda x: smooth_euler(3, x), 3, int),
    "smooth_hodge_prim n": (lambda x: smooth_hodge_prim(x, 3, 1), 3, int),
    "smooth_hodge_prim d": (lambda x: smooth_hodge_prim(3, x, 1), 3, int),
    "smooth_hodge_prim p": (lambda x: smooth_hodge_prim(3, 3, x), 1, int),
    "SmoothFiberInvariants.compute n": (
        lambda x: SmoothFiberInvariants.compute(x, 3), 3, lambda fiber: fiber.n
    ),
    "SmoothFiberInvariants.compute d": (
        lambda x: SmoothFiberInvariants.compute(3, x), 3, lambda fiber: fiber.d
    ),
    "LocalVanishingData dim_vanishing": (
        lambda x: local("dim_vanishing", x), 2, lambda data: data.dim_vanishing
    ),
    "LocalVanishingData dim_monodromy_kernel": (
        lambda x: local("dim_monodromy_kernel", x), 2, lambda data: data.dim_monodromy_kernel
    ),
    "LocalVanishingData gr2_vanishing": (
        lambda x: local("gr2_vanishing", x), 2, lambda data: data.gr2_vanishing
    ),
    "HomogeneousForm degree": (
        lambda x: HomogeneousForm(CUBIC.poly, x), 3, lambda form: form.degree
    ),
    "Polynomial.constant": (
        lambda x: Polynomial.constant(VARIABLES, x), 2, lambda c: coefficient(c, 0, 0, 0)
    ),
    "Polynomial +": (lambda x: X + x, 2, lambda s: coefficient(s, 0, 0, 0)),
    "Polynomial -": (lambda x: X - x, 2, lambda s: coefficient(s, 0, 0, 0)),
    "Polynomial *": (lambda x: X * x, 2, lambda s: coefficient(s, 1, 0, 0)),
    "Polynomial **": (lambda x: (X + 1) ** x, 3, lambda s: coefficient(s, 1, 0, 0)),
}
# inside `polynomials` a refusal is a PolynomialError
POLYNOMIAL_ARGUMENTS = {"HomogeneousForm degree", "Polynomial.constant"} | {
    f"Polynomial {op}" for op in ("+", "-", "*", "**")
}


@pytest.mark.parametrize("name", ARGUMENTS)
def test_an_integer_argument_takes_any_integer_type_and_refuses_the_rest(name):
    call, good, read = ARGUMENTS[name]
    error = PolynomialError if name in POLYNOMIAL_ARGUMENTS else ValueError
    # gr2_vanishing alone may be None
    refused = (2.5, "3") if name.endswith("gr2_vanishing") else (2.5, "3", None)
    for bad in refused:
        with pytest.raises(error):
            call(bad)
    got = read(call(np.int64(good)))
    assert type(got) is int and got == read(call(good))
