"""Defect and intersection-cohomology invariants of projective hypersurfaces.

Computes the defect h^{n+1}(X) - h^{n-1}(X) of a hypersurface X in P^{n+1}
with isolated weighted-homogeneous singularities directly from its defining
polynomial: the relevant graded pieces of the Koszul-plus-derivative double
complex are assembled as sparse integer matrices and their ranks taken
exactly (multi-prime modular, certified by an exactly verified lifted
kernel on small blocks or on request).
Smooth-fiber Euler characteristics and primitive Hodge numbers, and the
derived intersection-cohomology / Q-factoriality reports, are included.
"""

from .fixtures import FIXTURES, Fixture, find_fixtures, get_fixture
from .invariants import (
    DefectReport,
    E2Report,
    IntersectionCohomologyReport,
    LocalVanishingData,
    SmoothFiberInvariants,
    defect,
    e2_piece,
    ih_report,
    smooth_euler,
    smooth_hodge_prim,
)
from .koszul import (
    PhiBlocks,
    PhiDegrees,
    SparseIntMatrix,
    assemble_phi,
    build_derivative_block,
    build_wedge_block,
)
from .monomials import dim_graded
from .polynomials import (
    DEFAULT_VARIABLES,
    ExpressionError,
    HomogeneousForm,
    NonHomogeneousError,
    Polynomial,
    PolynomialError,
    TermListError,
    VariableCountError,
    ZeroPolynomialError,
    check_homogeneous,
    emit_term_list,
    parse_expression,
    parse_term_list,
)
from .ranks import (
    DEFAULT_PRIMES,
    PRIME_TABLE,
    RankBudgetError,
    RankConfig,
    RankInvariantError,
    RankReport,
    rank_exact,
    rank_mod_p,
    rank_multimodular,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIMES",
    "DEFAULT_VARIABLES",
    "DefectReport",
    "E2Report",
    "ExpressionError",
    "FIXTURES",
    "Fixture",
    "HomogeneousForm",
    "IntersectionCohomologyReport",
    "LocalVanishingData",
    "NonHomogeneousError",
    "PRIME_TABLE",
    "PhiBlocks",
    "PhiDegrees",
    "Polynomial",
    "PolynomialError",
    "RankBudgetError",
    "RankConfig",
    "RankInvariantError",
    "RankReport",
    "SmoothFiberInvariants",
    "SparseIntMatrix",
    "TermListError",
    "VariableCountError",
    "ZeroPolynomialError",
    "assemble_phi",
    "build_derivative_block",
    "build_wedge_block",
    "check_homogeneous",
    "defect",
    "dim_graded",
    "e2_piece",
    "emit_term_list",
    "find_fixtures",
    "get_fixture",
    "ih_report",
    "parse_expression",
    "parse_term_list",
    "rank_exact",
    "rank_mod_p",
    "rank_multimodular",
    "smooth_euler",
    "smooth_hodge_prim",
]
