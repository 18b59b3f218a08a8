"""Numerical invariants assembled from block ranks and series coefficients.

For a degree-d hypersurface in P^{n+1} with m = n+2 coordinates, the
Euler characteristic of a smooth fiber is n + 2 + ((1-d)^(n+2) - 1)/d,
and its primitive Hodge numbers are coefficients of ((t-t^d)/(1-t))^(n+2).
The defect itself is an E2-page dimension: with blocks A (wedge, lower
degree), B (wedge, upper degree) and the full assembly [[0,A],[B,D]] at
grading k*d,

    mu    = cols B - rank B      (B's target: the degree k*d - m basis)
    nu    = mu - gamma           (gamma the t^{k*d} series coefficient)
    rank(d1) = rank full - rank A - rank B
    e2 dimension = nu - rank(d1)

Gamma is the primitive Hodge number that Griffiths' residue map pairs
with B's target degree k*d - m, since R_{(q+1)d-m} = H^{n-q,q}_prim.  For
m = 5, k = 3 the E2 dimension is the defect h^4(X) - h^2(X) when
all singular points are isolated and weighted homogeneous and 1 is not a
spectral number of any of them.  All arithmetic is exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from .koszul import PhiBlocks, PhiDegrees, assemble_phi, full_symmetries
from .monomials import _integer
from .polynomials import HomogeneousForm, VariableCountError
from .ranks import (
    EXACT_CELL_BUDGET,
    MODULAR_CELL_BUDGET,
    RankBudgetError,
    RankConfig,
    RankInvariantError,
    RankReport,
    rank_multimodular,
)

# Largest Hodge series of a smooth fiber, in coefficients, (n+2)(d-1)+1, and
# in factors, n+2.  Every coefficient, and the Euler characteristic, is then
# at most (d-1)**(n+2) <= 3**(4095/3) in magnitude, about 650 digits (far
# below Python's 4300-digit int-to-str limit), and a series takes seconds.
HODGE_SERIES_BUDGET = 1 << 12


def _check_fiber(n: int, d: int) -> tuple[int, int]:
    """n and d, each at least 1, taken through `_integer`.  Refuses a fiber
    whose Hodge series exceeds HODGE_SERIES_BUDGET (RankBudgetError),
    before any work."""
    n, d = _integer(n, "n", 1), _integer(d, "d", 1)
    length = (n + 2) * (d - 1) + 1
    if max(n + 2, length) > HODGE_SERIES_BUDGET:
        raise RankBudgetError(
            f"hodge series for n={n}, d={d} ({length} coefficients, {n + 2} factors)"
            f" exceeds the budget of {HODGE_SERIES_BUDGET}"
        )
    return n, d


def smooth_euler(n: int, d: int) -> int:
    """Euler characteristic of a smooth degree-d hypersurface in P^{n+1}.

    The t^{n+1} coefficient of d*t*(1+t)^(n+2)/(1+d*t), in closed form
    n + 2 + ((1-d)^(n+2) - 1)/d; the division is exact since 1-d = 1 mod d.
    Raises RankBudgetError past HODGE_SERIES_BUDGET (see `_check_fiber`).
    """
    n, d = _check_fiber(n, d)
    return n + 2 + ((1 - d) ** (n + 2) - 1) // d


def _prim_series(m: int, d: int) -> list[int]:
    """Coefficients of ((t - t^d)/(1 - t))^m = (t + ... + t^(d-1))^m.

    Each factor takes coefficient k to the window sum of coefficients
    k-d+1 .. k-1, a difference of two prefix sums.
    """
    series = [1]
    for _ in range(m):
        n = len(series)
        prefix = [0, *accumulate(series)]
        series = [prefix[min(k, n)] - prefix[max(k - d + 1, 0)] for k in range(n + d - 1)]
    return series


def _series_coefficient(series: list[int], k: int) -> int:
    return series[k] if 0 <= k < len(series) else 0


def _hodge_row(n: int, d: int) -> tuple[int, ...]:
    """`smooth_hodge_prim` for p = 0 .. n, read off one series."""
    n, d = _check_fiber(n, d)
    series = _prim_series(n + 2, d)
    return tuple(_series_coefficient(series, (p + 1) * d) for p in range(n + 1))


def smooth_hodge_prim(n: int, d: int, p: int) -> int:
    """Primitive Hodge number dim Gr^p_F of the middle cohomology of a
    smooth degree-d hypersurface in P^{n+1}.

    Coefficient of t^{(p+1)d} in ((t-t^d)/(1-t))^(n+2); the series is
    palindromic, so p and n-p give the same value (Hodge symmetry).
    """
    row = _hodge_row(n, d)
    p = _integer(p, "Hodge index p", 0)
    if p >= len(row):
        raise ValueError(f"Hodge index p={p} outside [0, {len(row) - 1}]")
    return row[p]


@dataclass(frozen=True)
class SmoothFiberInvariants:
    """Euler characteristic and primitive Hodge numbers of a smooth fiber."""

    n: int
    d: int
    euler: int
    hodge_prim: tuple[int, ...]  # index p = 0 .. n

    @classmethod
    def compute(cls, n: int, d: int) -> "SmoothFiberInvariants":
        n, d = _check_fiber(n, d)
        return cls(
            n=n,
            d=d,
            euler=smooth_euler(n, d),
            hodge_prim=_hodge_row(n, d),
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "euler": self.euler,
            "hodge_prim": list(self.hodge_prim),
        }


@dataclass(frozen=True)
class E2Report:
    """E2-page dimension count at one grading multiplier."""

    multiplier: int
    wedge_low: RankReport
    wedge_high: RankReport
    full: RankReport
    mu: int
    gamma: int
    nu: int
    rank_d1: int
    e2_dim: int

    @property
    def rank_reports(self) -> dict[str, RankReport]:
        return {"wedge_low": self.wedge_low, "wedge_high": self.wedge_high, "full": self.full}

    @property
    def prime_disagreement(self) -> bool:
        return not all(report.agreed for report in self.rank_reports.values())

    @property
    def warnings(self) -> tuple[str, ...]:
        if not self.prime_disagreement:
            return ()
        return (
            "per-prime ranks disagree: some primes are bad for these blocks; "
            "the reported value uses the consensus (maximum) ranks",
        )

    def as_dict(self) -> dict:
        return {
            "multiplier": self.multiplier,
            "mu": self.mu,
            "gamma": self.gamma,
            "nu": self.nu,
            "rank_d1": self.rank_d1,
            "e2_dim": self.e2_dim,
            "blocks": {
                name: {"rows": block.rows, "cols": block.cols, "rank": block.rank}
                for name, block in self.rank_reports.items()
            },
        }


def _check_ranks(wedge_low: RankReport, wedge_high: RankReport, full: RankReport) -> None:
    """Raise RankInvariantError unless, for every prime, each rank lies in
    [0, min(rows, cols)] and rank(full) >= rank(A) + rank(B), and each
    exact rank lies in [0, min(rows, cols)] and is at least every
    per-prime rank (a prime can only lower a rank)."""
    blocks = {"wedge_low": wedge_low, "wedge_high": wedge_high, "full": full}
    for name, block in blocks.items():
        bound = min(block.rows, block.cols)
        for p, r in block.per_prime:
            if not 0 <= r <= bound:
                raise RankInvariantError(f"{name}: rank {r} mod {p} outside [0, {bound}]")
        exact = block.exact_rank
        if exact is None:
            continue
        if not 0 <= exact <= bound:
            raise RankInvariantError(f"{name}: exact rank {exact} outside [0, {bound}]")
        for p, r in block.per_prime:
            if exact < r:
                raise RankInvariantError(f"{name}: exact rank {exact} below rank {r} mod {p}")
    for (p, low), (_, high), (_, whole) in zip(
        wedge_low.per_prime, wedge_high.per_prime, full.per_prime
    ):
        if whole < low + high:
            raise RankInvariantError(
                f"full: rank {whole} mod {p} below wedge_low + wedge_high = {low} + {high}"
            )


def e2_piece(
    form: HomogeneousForm, multiplier: int, config: RankConfig | None = None
) -> E2Report:
    """Assemble the graded map at grading multiplier*d and count its E2 piece.

    Requires at least 3 variables, an integer multiplier >= 2 and a form
    of degree at least 1.  `full` is eliminated once per prime; B's
    columns lead it, so the same elimination gives the ranks of B and of
    `full` together, one component per orbit of the variable permutations
    that fix the form (`full_symmetries`) when uncertified; A is eliminated
    whole.  Raises RankBudgetError, before building anything, when
    `full` would exceed MODULAR_CELL_BUDGET cells, or, under `exact`,
    EXACT_CELL_BUDGET cells; `full` contains A, so that one check covers
    both blocks certified.  Rank-engine errors
    propagate, as does RankInvariantError when a per-prime rank breaks a
    bound; disagreement between primes is visible on the block reports.
    """
    m = form.variable_count
    if m < 3:
        raise VariableCountError(f"need at least 3 variables, got {m}")
    degrees = PhiDegrees.of(m, form.degree, multiplier)
    multiplier = degrees.multiplier
    if form.degree < 1:
        raise ValueError(f"a form of degree {form.degree} defines no hypersurface")
    rows, cols = degrees.full_shape
    if rows * cols > MODULAR_CELL_BUDGET:
        raise RankBudgetError(
            f"full block {rows}x{cols} exceeds the modular budget of {MODULAR_CELL_BUDGET} cells"
        )
    cfg = config or RankConfig()
    if cfg.exact and rows * cols > EXACT_CELL_BUDGET:
        raise RankBudgetError(f"{rows}x{cols} exceeds exact budget of {EXACT_CELL_BUDGET} cells")
    blocks: PhiBlocks = assemble_phi(form, multiplier)
    wedge_low = rank_multimodular(blocks.wedge_low, cfg)
    full = rank_multimodular(
        blocks.full, cfg, blocks.wedge_high, partial(full_symmetries, form, degrees)
    )
    wedge_high = full.leading
    _check_ranks(wedge_low, wedge_high, full)
    d = form.degree
    gamma = _series_coefficient(_prim_series(m, d), multiplier * d)
    mu = wedge_high.cols - wedge_high.rank
    nu = mu - gamma
    rank_d1 = full.rank - wedge_low.rank - wedge_high.rank
    return E2Report(
        multiplier=multiplier,
        wedge_low=wedge_low,
        wedge_high=wedge_high,
        full=full,
        mu=mu,
        gamma=gamma,
        nu=nu,
        rank_d1=rank_d1,
        e2_dim=nu - rank_d1,
    )


HYPOTHESIS_NOTES = (
    "valid only if every singular point of the hypersurface is isolated and "
    "weighted homogeneous (not verified here)",
    "equals the defect h^4 - h^2 only if 1 is not a spectral number of any "
    "singular point, e.g. for rational singularities (not verified here)",
)


@dataclass(frozen=True)
class DefectReport:
    """Defect of a 3-fold hypersurface in P^4 with all intermediate data."""

    variables: tuple[str, ...]
    degree: int
    term_count: int
    e2: E2Report
    mu2: int
    defect: int
    hypothesis_notes: tuple[str, ...]
    warnings: tuple[str, ...] = ()

    @property
    def gamma(self) -> int:
        return self.e2.gamma

    @property
    def rank_reports(self) -> dict[str, RankReport]:
        return self.e2.rank_reports

    def as_dict(self) -> dict:
        return {
            "input": {
                "variables": list(self.variables),
                "degree": self.degree,
                "terms": self.term_count,
            },
            "defect": self.defect,
            "gamma": self.gamma,
            "mu2": self.mu2,
            "e2": self.e2.as_dict(),
            "ranks": {name: rep.as_dict() for name, rep in self.rank_reports.items()},
            "hypotheses": list(self.hypothesis_notes),
            "warnings": list(self.warnings),
        }


def defect(form: HomogeneousForm, config: RankConfig | None = None) -> DefectReport:
    """Defect h^4(X) - h^2(X) of the hypersurface X = {form = 0} in P^4.

    Validated for 5 variables only (n = 3); other variable counts should
    use e2_piece directly.  The value is the E2 dimension at grading 3d
    and equals the defect under the hypotheses recorded in the report.
    """
    if form.variable_count != 5:
        raise VariableCountError(
            f"defect() is validated for exactly 5 variables, got "
            f"{form.variable_count}; use e2_piece for other counts"
        )
    report = e2_piece(form, 3, config)
    mu2 = report.wedge_low.cols - report.wedge_low.rank
    return DefectReport(
        variables=form.variables,
        degree=form.degree,
        term_count=len(form.poly),
        e2=report,
        mu2=mu2,
        defect=report.e2_dim,
        hypothesis_notes=HYPOTHESIS_NOTES,
        warnings=report.warnings,
    )


@dataclass(frozen=True)
class LocalVanishingData:
    """User-supplied dimensions of the vanishing cohomology at Sing X.

    `dim_vanishing` is the total vanishing cohomology, `dim_monodromy_kernel`
    the kernel of the monodromy logarithm inside the unipotent part.  The
    optional `gr2_vanishing`, the F^2-graded dimension of the unipotent
    part, feeds the Hodge-graded report.  For ordinary double points in
    odd fiber dimension all three equal the number of singular points.
    Each is taken through `_integer` and must be at least 0.
    """

    dim_vanishing: int
    dim_monodromy_kernel: int
    gr2_vanishing: int | None = None

    def __post_init__(self):
        for name in ("dim_vanishing", "dim_monodromy_kernel", "gr2_vanishing"):
            value = getattr(self, name)
            if value is not None or name != "gr2_vanishing":
                object.__setattr__(self, name, _integer(value, name, 0))

    @classmethod
    def ordinary_double_points(cls, count: int) -> "LocalVanishingData":
        return cls(
            dim_vanishing=count,
            dim_monodromy_kernel=count,
            gr2_vanishing=count,
        )


@dataclass(frozen=True)
class IntersectionCohomologyReport:
    """Middle intersection cohomology and Q-factoriality interpretation."""

    defect: int
    fiber_middle: int  # dim H^3 of a nearby smooth fiber
    ih_middle: int  # dim IH^3(X)
    gr2_fiber: int  # dim Gr^2_F H^3 of the fiber
    gr2_ih: int | None  # dim Gr^2_F IH^3(X), when local Hodge data supplied
    defect_lower_bound: int | None  # gr2_vanishing - gr2_fiber
    bound_satisfied: bool | None
    q_factoriality_defect: int
    notes: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "defect": self.defect,
            "fiber_middle": self.fiber_middle,
            "ih_middle": self.ih_middle,
            "gr2_fiber": self.gr2_fiber,
            "gr2_ih": self.gr2_ih,
            "defect_lower_bound": self.defect_lower_bound,
            "bound_satisfied": self.bound_satisfied,
            "q_factoriality_defect": self.q_factoriality_defect,
            "notes": list(self.notes),
        }


def ih_report(
    report: DefectReport, local: LocalVanishingData
) -> IntersectionCohomologyReport:
    """Derive intersection-cohomology dimensions from a defect report.

    dim IH^3(X) = dim H^3(fiber) - dim V - dim ker N + 2*defect, and when
    the graded local dimension is supplied, dim Gr^2_F IH^3(X) =
    gr2(fiber) - gr2(V) + defect together with the lower bound
    defect >= gr2(V) - gr2(fiber), whose slack is exactly that graded
    dimension.  The middle fiber cohomology in odd dimension is entirely
    primitive, so it is the sum of the primitive Hodge numbers.
    """
    hodge = _hodge_row(3, report.degree)
    fiber_middle = sum(hodge)
    ih_middle = (
        fiber_middle
        - local.dim_vanishing
        - local.dim_monodromy_kernel
        + 2 * report.defect
    )
    gr2_fiber = hodge[1]
    gr2_ih = None
    lower_bound = None
    bound_satisfied = None
    if local.gr2_vanishing is not None:
        gr2_ih = gr2_fiber - local.gr2_vanishing + report.defect
        lower_bound = local.gr2_vanishing - gr2_fiber
        bound_satisfied = report.defect >= lower_bound
    notes = HYPOTHESIS_NOTES + (
        "q_factoriality_defect equals the defect for rational singularities",
    )
    if bound_satisfied is False:
        notes = notes + (
            "lower bound violated: the supplied local data are inconsistent "
            "with the computed defect",
        )
    return IntersectionCohomologyReport(
        defect=report.defect,
        fiber_middle=fiber_middle,
        ih_middle=ih_middle,
        gr2_fiber=gr2_fiber,
        gr2_ih=gr2_ih,
        defect_lower_bound=lower_bound,
        bound_satisfied=bound_satisfied,
        q_factoriality_defect=report.defect,
        notes=notes,
    )
