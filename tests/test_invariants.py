import dataclasses
from math import comb

import numpy as np
import pytest

from helpers import bounded_compositions_count, euler_series_oracle, prim_series_oracle
from hyperdefect.fixtures import get_fixture
from hyperdefect.invariants import (
    LocalVanishingData,
    SmoothFiberInvariants,
    defect,
    e2_piece,
    ih_report,
    smooth_euler,
    smooth_hodge_prim,
)
from hyperdefect.polynomials import (
    HomogeneousForm,
    VariableCountError,
    parse_expression,
)
from hyperdefect import invariants, ranks
from hyperdefect.koszul import assemble_phi
from hyperdefect.monomials import dim_graded
from hyperdefect.ranks import RankConfig, RankInvariantError


# -- generating series ---------------------------------------------------------


def test_smooth_euler_small_cases():
    assert smooth_euler(2, 1) == 3  # hyperplane in P^3 is P^2
    assert smooth_euler(1, 3) == 0  # elliptic curve
    assert smooth_euler(3, 5) == -200


def test_smooth_euler_matches_series_oracle():
    # the closed form against the series it sums, well past every fiber in use
    for n in range(1, 40):
        for d in range(1, 15):
            assert smooth_euler(n, d) == euler_series_oracle(n, d), (n, d)


def test_prim_series_matches_convolution_oracle():
    for m in range(41):
        for d in range(1, 15):
            assert invariants._prim_series(m, d) == prim_series_oracle(m, d), (m, d)


def test_smooth_euler_validates_arguments():
    with pytest.raises(ValueError):
        smooth_euler(0, 3)
    with pytest.raises(ValueError):
        smooth_euler(3, 0)


def test_hodge_prim_published_values():
    assert smooth_hodge_prim(3, 5, 1) == 101
    assert smooth_hodge_prim(3, 6, 1) == 255
    assert smooth_hodge_prim(3, 3, 1) == 5
    assert smooth_hodge_prim(3, 4, 1) == 30


def test_hodge_prim_matches_composition_count():
    # coefficient of t^{(p+1)d} counts compositions into n+2 parts in [1, d-1]
    for n, d, p in ((3, 5, 1), (3, 4, 1), (3, 3, 0), (2, 4, 2), (1, 5, 0)):
        assert smooth_hodge_prim(n, d, p) == bounded_compositions_count(
            (p + 1) * d, n + 2, 1, d - 1
        )


def test_hodge_prim_degree_one_vanishes():
    assert all(smooth_hodge_prim(3, 1, p) == 0 for p in range(4))


def test_hodge_symmetry():
    for n in range(1, 5):
        for d in range(1, 10):
            for p in range(n + 1):
                assert smooth_hodge_prim(n, d, p) == smooth_hodge_prim(n, d, n - p)


def test_euler_hodge_cross_identity():
    # odd middle dimension: chi = (n+1) - sum of the primitive Hodge numbers
    for d in range(2, 10):
        total = sum(smooth_hodge_prim(3, d, p) for p in range(4))
        assert smooth_euler(3, d) == 4 - total
    for d in range(2, 8):
        total = sum(smooth_hodge_prim(1, d, p) for p in range(2))
        assert smooth_euler(1, d) == 2 - total


def test_hodge_prim_validates_range():
    with pytest.raises(ValueError):
        smooth_hodge_prim(3, 5, 4)
    with pytest.raises(ValueError):
        smooth_hodge_prim(3, 5, -1)


def test_smooth_fiber_invariants_bundle():
    inv = SmoothFiberInvariants.compute(3, 5)
    assert inv.euler == -200
    assert inv.hodge_prim == (1, 101, 101, 1)
    assert inv.as_dict()["hodge_prim"] == [1, 101, 101, 1]


def test_smooth_fiber_invariants_build_one_series(monkeypatch):
    calls = []
    real = invariants._prim_series

    def counted(m, d):
        calls.append((m, d))
        return real(m, d)

    monkeypatch.setattr(invariants, "_prim_series", counted)
    inv = SmoothFiberInvariants.compute(12, 7)
    assert calls == [(14, 7)]
    assert inv.hodge_prim == tuple(smooth_hodge_prim(12, 7, p) for p in range(13))
    assert inv.euler == 13 + sum(inv.hodge_prim)  # even n: chi = n + 1 + sum


# -- E2 assembly ----------------------------------------------------------------


def test_gamma_equals_middle_hodge_number(corpus):
    for name in ("segre-cubic", "quartic-one-point"):
        report = corpus.report(name)
        assert report.gamma == smooth_hodge_prim(3, report.degree, 1)


def test_defect_formula_matches_rank_arithmetic(corpus):
    # mu, nu and the defect are fixed integer combinations of the three ranks
    for name in ("segre-cubic", "quartic-one-point", "quintic-16-nodes"):
        report = corpus.report(name)
        d = report.degree
        rk_low = report.e2.wedge_low.rank
        rk_high = report.e2.wedge_high.rank
        rk_full = report.e2.full.rank
        assert report.e2.mu == comb(3 * d - 1, 4) - rk_high
        assert report.mu2 == comb(2 * d - 1, 4) - rk_low
        assert report.e2.nu == report.e2.mu - report.gamma
        assert report.e2.rank_d1 == rk_full - rk_low - rk_high
        assert report.defect == report.e2.nu - rk_full + rk_high + rk_low


def test_nonnegativity_invariants(corpus):
    for name in ("segre-cubic", "quartic-one-point"):
        report = corpus.report(name)
        assert report.e2.rank_d1 >= 0
        assert report.defect >= 0


def test_smooth_quintic_has_zero_defect():
    form = HomogeneousForm.from_polynomial(parse_expression("x^5+y^5+z^5+u^5+v^5"))
    report = defect(form)
    assert report.defect == 0
    assert report.e2.rank_d1 == 0
    assert report.gamma == 101


def test_degenerate_inputs_do_not_crash():
    # non-isolated singular loci: the dimension count still runs, and the
    # report carries its hypothesis caveats
    for text in ("x^5", "x^3*y^2", "(x+y)^2*(z+u+v)"):
        form = HomogeneousForm.from_polynomial(parse_expression(text))
        report = defect(form)
        assert report.hypothesis_notes
        assert isinstance(report.defect, int)


def test_multiplier_two_report_runs():
    report = e2_piece(get_fixture("segre-cubic").build(), 2)
    assert report.multiplier == 2
    # gamma is the t^{2d} coefficient, h^{2,1} = 5 of a smooth cubic threefold
    assert report.gamma == 5
    assert report.mu == 5
    assert report.e2_dim == 0
    assert report.rank_d1 == 0


def _full_shape(m, d, k):
    e_low, e_high = (k - 2) * d - (m - 1), (k - 1) * d - (m - 1)
    rows = m * (dim_graded(m, e_low) + dim_graded(m, e_high))
    cols = dim_graded(m, e_low + d - 1) + dim_graded(m, e_high + d - 1)
    return rows, cols


FERMAT_SHAPES = [
    (m, d, k)
    for m in range(3, 7)
    for d in range(2, 5)
    for k in range(2, 5)
    if max(_full_shape(m, d, k)) <= 600
]


@pytest.mark.parametrize("m,d,k", FERMAT_SHAPES)
def test_smooth_fermat_e2_vanishes(m, d, k):
    # a smooth hypersurface has no E2 term: mu - gamma = rank d1 at every (m, d, k)
    names = tuple(f"x{i}" for i in range(m))
    form = HomogeneousForm.from_polynomial(
        parse_expression("+".join(f"{v}^{d}" for v in names), names)
    )
    report = e2_piece(form, k, RankConfig(primes=(32633,)))
    assert report.e2_dim == 0, (m, d, k, report.gamma, report.mu, report.rank_d1)


def test_fermat_shapes_cover_the_grid():
    assert len(FERMAT_SHAPES) >= 30
    assert {(m, k) for m, _, k in FERMAT_SHAPES} == {
        (m, k) for m in range(3, 7) for k in range(2, 5)
    }


def test_rank_above_its_shape_is_refused(monkeypatch):
    real = ranks._echelon

    def one_pivot_too_many(matrix, p, *args):
        profile, kernel = real(matrix, p, *args)
        return profile + (len(profile),), kernel

    monkeypatch.setattr(ranks, "_echelon", one_pivot_too_many)
    with pytest.raises(RankInvariantError, match=r"wedge_low: rank 6 mod 32633 outside \[0, 5\]"):
        e2_piece(get_fixture("quartic-one-point").build(), 3)


def test_exact_rank_above_its_shape_is_refused(monkeypatch):
    real = ranks._certify

    def one_pivot_too_many(matrix, *rest):
        return real(matrix, *rest) + (matrix.cols,)

    monkeypatch.setattr(ranks, "_certify", one_pivot_too_many)
    with pytest.raises(RankInvariantError, match=r"wedge_low: exact rank 6 outside \[0, 5\]"):
        e2_piece(get_fixture("quartic-one-point").build(), 3)


def test_full_rank_below_its_blocks_is_refused(monkeypatch):
    # quartic-one-point's `full` reaches `_echelon` as one component per
    # orbit of u <-> v, so the fault goes into its report: rank(full)
    # mod 32647 read as B's alone, as if no pivot lay past B's columns
    real = invariants.rank_multimodular
    form = get_fixture("quartic-one-point").build()

    def drop_pivots_outside_the_leading_block(matrix, *args, **kwargs):
        report = real(matrix, *args, **kwargs)
        if report.leading is not None:
            led = dict(report.leading.per_prime)
            per_prime = tuple((p, led[p] if p == 32647 else r) for p, r in report.per_prime)
            report = dataclasses.replace(report, per_prime=per_prime)
        return report

    monkeypatch.setattr(invariants, "rank_multimodular", drop_pivots_outside_the_leading_block)
    with pytest.raises(RankInvariantError, match="full: rank 267 mod 32647 below"):
        e2_piece(form, 3)


def test_e2_piece_validates_arguments():
    form = get_fixture("segre-cubic").build()
    with pytest.raises(ValueError):
        e2_piece(form, 1)
    # an integer of any integer type; True reads as 1, below 2
    for multiplier in (3.0, 2.5, "3", True):
        with pytest.raises(ValueError, match="multiplier must be an integer >= 2"):
            e2_piece(form, multiplier)
        with pytest.raises(ValueError, match="multiplier must be an integer >= 2"):
            assemble_phi(form, multiplier)
    report = e2_piece(form, np.int64(3))
    assert type(report.multiplier) is int
    assert report.as_dict() == e2_piece(form, 3).as_dict()
    two_vars = HomogeneousForm.from_polynomial(parse_expression("x^2+y^2", ("x", "y")))
    with pytest.raises(VariableCountError):
        e2_piece(two_vars, 3)
    constant = HomogeneousForm.from_polynomial(parse_expression("5"))
    with pytest.raises(ValueError, match="degree 0 defines no hypersurface"):
        e2_piece(constant, 3)


def test_defect_requires_five_variables():
    form = HomogeneousForm.from_polynomial(
        parse_expression("x^3+y^3+z^3+u^3", ("x", "y", "z", "u"))
    )
    with pytest.raises(VariableCountError):
        defect(form)


def test_defect_report_serialization(corpus):
    payload = corpus.report("segre-cubic").as_dict()
    assert payload["defect"] == 5
    assert payload["gamma"] == 5
    assert payload["e2"]["blocks"]["wedge_high"] == {"rows": 75, "cols": 70, "rank": 60}
    assert payload["input"]["degree"] == 3
    assert payload["warnings"] == []


def test_prime_set_independence_on_segre():
    form = get_fixture("segre-cubic").build()
    first = defect(form, RankConfig(primes=(32633, 32647, 32653)))
    second = defect(form, RankConfig(primes=(32687, 32693, 32707)))
    assert first.defect == second.defect == 5


# -- intersection cohomology -----------------------------------------------------


def test_ih_report_on_118_node_quintic(corpus):
    report = corpus.report("quintic-vgw-118a")
    assert report.defect == 19
    local = LocalVanishingData.ordinary_double_points(118)
    derived = ih_report(report, local)
    assert derived.fiber_middle == 204
    assert derived.ih_middle == 204 - 118 - 118 + 38 == 6
    assert derived.gr2_fiber == 101
    assert derived.defect_lower_bound == 17
    assert derived.bound_satisfied is True
    assert derived.gr2_ih == 2
    assert derived.q_factoriality_defect == 19


def test_ih_report_smooth_identity():
    # zero singular data and zero defect: IH^3 is just the fiber middle
    form = HomogeneousForm.from_polynomial(parse_expression("x^3+y^3+z^3+u^3+v^3"))
    fermat = defect(form)
    assert fermat.defect == 0
    derived = ih_report(fermat, LocalVanishingData(0, 0))
    assert derived.ih_middle == derived.fiber_middle
    assert derived.gr2_ih is None


def test_ih_report_flags_violated_bound(corpus):
    report = corpus.report("segre-cubic")
    derived = ih_report(report, LocalVanishingData(10, 10, gr2_vanishing=1000))
    assert derived.bound_satisfied is False
    assert any("lower bound violated" in note for note in derived.notes)


def test_local_data_validation():
    with pytest.raises(ValueError):
        LocalVanishingData(-1, 0)
    refused = [(None, 1), (1, None)]  # gr2_vanishing alone may be None
    for bad in (2.5, "3"):
        refused += [(bad, 1), (1, bad), (1, 1, bad)]
    for args in refused:
        with pytest.raises(ValueError, match="must be an integer"):
            LocalVanishingData(*args)
    # any integer type is taken, and stored as a Python int
    local = LocalVanishingData(np.int64(3), np.int32(2), np.int64(1))
    counts = (local.dim_vanishing, local.dim_monodromy_kernel, local.gr2_vanishing)
    assert counts == (3, 2, 1) and all(type(x) is int for x in counts)
    odp = LocalVanishingData.ordinary_double_points(10)
    assert odp.dim_vanishing == odp.dim_monodromy_kernel == 10
    assert odp.gr2_vanishing == 10


@pytest.mark.parametrize("bad", [5.0, 2.5, "5"])
def test_fiber_sizes_must_be_integers(bad):
    calls = (
        lambda: smooth_euler(3, bad),
        lambda: smooth_euler(bad, 5),
        lambda: smooth_hodge_prim(3, bad, 1),
        lambda: smooth_hodge_prim(bad, 5, 1),
        lambda: smooth_hodge_prim(3, 5, bad),
        lambda: SmoothFiberInvariants.compute(3, bad),
        lambda: SmoothFiberInvariants.compute(bad, 5),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_numpy_integer_fiber_sizes_act_as_ints():
    n, d = np.int64(3), np.int64(5)
    assert smooth_euler(n, d) == smooth_euler(3, 5) == -200
    assert smooth_hodge_prim(n, d, np.int64(1)) == smooth_hodge_prim(3, 5, 1)
    fiber = SmoothFiberInvariants.compute(n, d)
    assert fiber == SmoothFiberInvariants.compute(3, 5)
    assert type(fiber.n) is int and type(fiber.d) is int
