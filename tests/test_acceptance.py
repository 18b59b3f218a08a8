"""Release acceptance suite: one test per criterion, zero tolerance.

Every expected value is an exact integer; each test prints a single
PASS line (visible with `pytest -s`) once its assertions hold.
"""

import time

from helpers import partial, sparse_from_dense, stars_and_bars
from hyperdefect.fixtures import FIXTURES, get_fixture
from hyperdefect.invariants import (
    LocalVanishingData,
    defect,
    ih_report,
    smooth_euler,
    smooth_hodge_prim,
)
from hyperdefect.koszul import assemble_phi
from hyperdefect.monomials import dim_graded, exponent_array, monomial_indices
from hyperdefect.polynomials import Polynomial
from hyperdefect.ranks import PRIME_TABLE, RankConfig, rank_multimodular


def _passed(number, text):
    print(f"[criterion {number:2d}] PASS: {text}")


def _check_fixture(corpus, number, name, expected_defect, expected_gamma, budget):
    report = corpus.report(name)
    assert report.defect == expected_defect, (name, report.defect)
    assert report.gamma == expected_gamma, (name, report.gamma)
    seconds = corpus.seconds(name)
    assert seconds < budget, f"{name} took {seconds:.1f}s, budget {budget}s"
    _passed(
        number,
        f"{name}: defect={report.defect} gamma={report.gamma} ({seconds:.2f}s < {budget:.0f}s)",
    )


def test_criterion_01_segre_cubic(corpus):
    _check_fixture(corpus, 1, "segre-cubic", 5, 5, 1.0)


def test_criterion_02_quintic_16_nodes(corpus):
    _check_fixture(corpus, 2, "quintic-16-nodes", 1, 101, 30.0)


def test_criterion_03_quintic_118a(corpus):
    _check_fixture(corpus, 3, "quintic-vgw-118a", 19, 101, 30.0)


def test_criterion_04_quintic_118b(corpus):
    _check_fixture(corpus, 4, "quintic-vgw-118b", 18, 101, 30.0)


def test_criterion_05_quintic_130(corpus):
    _check_fixture(corpus, 5, "quintic-vanstraten-130", 29, 101, 30.0)


def test_criterion_06_quartic(corpus):
    _check_fixture(corpus, 6, "quartic-one-point", 7, 30, 60.0)


def test_criterion_07_sextic_285(corpus):
    _check_fixture(corpus, 7, "sextic-285-nodes", 40, 255, 60.0)


def test_criterion_08_sextic_90(corpus):
    _check_fixture(corpus, 8, "sextic-90-points", 30, 255, 60.0)


def test_criterion_09_exact_certification():
    cfg = RankConfig(exact=True)
    checked = 0
    for name in ("segre-cubic", "quartic-one-point"):
        blocks = assemble_phi(get_fixture(name).build(), 3)
        for matrix in (blocks.wedge_low, blocks.wedge_high, blocks.full):
            report = rank_multimodular(matrix, cfg)
            assert report.exact_rank is not None
            for prime, rank in report.per_prime:
                assert rank == report.exact_rank, (name, prime, rank, report.exact_rank)
            assert report.certified
            checked += 1
    _passed(9, f"exact rank equals every per-prime rank on {checked} degree-3/4 blocks")


def test_criterion_10_property_suite(corpus):
    for fixture in FIXTURES:  # warm the cache; computed by criteria 1-8 normally
        corpus.report(fixture.name)
    start = time.perf_counter()

    # Euler identity sum_j x_j df/dx_j = d*f on every fixture
    for fixture in FIXTURES:
        form = fixture.build()
        total = Polynomial.zero(form.variables)
        for j, name in enumerate(form.variables):
            total = total + Polynomial.variable(form.variables, name) * partial(form.poly, j)
        assert total == form.degree * form.poly, fixture.name

    # monomial ranking is a bijection, exhaustively for m <= 5, e <= 8
    for m in range(1, 6):
        for e in range(0, 9):
            basis = exponent_array(m, e)
            assert monomial_indices(basis).tolist() == list(range(dim_graded(m, e)))
            assert sorted(map(tuple, basis.tolist())) == sorted(stars_and_bars(m, e))

    # block-triangular rank bound on every fixture
    for fixture in FIXTURES:
        e2 = corpus.report(fixture.name).e2
        assert e2.full.rank >= e2.wedge_low.rank + e2.wedge_high.rank, fixture.name

    # Euler/Hodge cross identity and Hodge symmetry
    for d in range(2, 10):
        assert smooth_euler(3, d) == 4 - sum(smooth_hodge_prim(3, d, p) for p in range(4))
    for n in range(1, 5):
        for d in range(1, 10):
            for p in range(n + 1):
                assert smooth_hodge_prim(n, d, p) == smooth_hodge_prim(n, d, n - p)

    # defect independent of the admissible prime set on the fast fixtures
    alternate = RankConfig(primes=PRIME_TABLE[3:6])
    for name in ("segre-cubic", "quintic-16-nodes", "quartic-one-point"):
        report = defect(get_fixture(name).build(), alternate)
        assert report.defect == corpus.report(name).defect, name
        assert report.gamma == corpus.report(name).gamma, name

    # bad-prime demonstration: 1x1 [2] reduced mod 2 loses its rank
    demo = rank_multimodular(sparse_from_dense([[2]]), RankConfig(primes=(2, 3, 5)))
    assert dict(demo.per_prime) == {2: 0, 3: 1, 5: 1}
    assert demo.consensus == 1
    assert demo.agreed is False

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
    _passed(10, f"property suite complete in {elapsed:.1f}s (< 60s)")


def test_criterion_11_ih_arithmetic(corpus):
    report = corpus.report("quintic-vgw-118a")
    assert report.defect == 19
    derived = ih_report(report, LocalVanishingData.ordinary_double_points(118))
    assert derived.fiber_middle == 204
    assert derived.ih_middle == 6
    assert derived.defect_lower_bound == 17
    assert derived.bound_satisfied is True
    _passed(11, "dim IH^3 = 6 and defect bound 19 >= 17 from the 118-node inputs")
