"""One component per symmetry orbit: the search for variable permutations
that fix a form, the maps they induce on its blocks, and the ranks that
`rank_multimodular` reads off one representative component per orbit."""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import sparse_from_dense
from hyperdefect import koszul, ranks
from hyperdefect.fixtures import get_fixture
from hyperdefect.invariants import defect, e2_piece
from hyperdefect.koszul import BlockSymmetries, assemble_phi
from hyperdefect.polynomials import (
    HomogeneousForm,
    Polynomial,
    parse_expression,
    variable_classes,
    variable_symmetries,
)
from hyperdefect.ranks import RankConfig, rank_multimodular

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _image(key, image):
    """The exponents of x^key after variable i moves to image[i]."""
    moved = [0] * len(key)
    for i, target in enumerate(image):
        moved[target] = key[i]
    return tuple(moved)


def _fixes(poly, image):
    terms = dict(poly.items())
    return {_image(key, image): c for key, c in terms.items()} == terms


def _group_orbit_count(images, m):
    """The order of the group that `images` generate, by closure."""
    group = {tuple(range(m))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for image in images:
            product = tuple(image[element[i]] for i in range(m))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return len(group)


def test_symmetric_forms_find_generators_of_their_groups():
    # the sextics, quintic-130 and the Segre cubic are fixed by all 120
    # permutations of x, y, z, u, v; four transpositions generate them
    for name in ("sextic-285-nodes", "sextic-90-points", "quintic-vanstraten-130", "segre-cubic"):
        poly = get_fixture(name).build().poly
        assert variable_classes(poly) == ((0, 1, 2, 3, 4),)
        found = variable_symmetries(poly)
        assert len(found) == 4 and all(_fixes(poly, image) for image in found)
        assert _group_orbit_count(found, 5) == 120
    # quartic-one-point: only u <-> v
    poly = get_fixture("quartic-one-point").build().poly
    assert variable_symmetries(poly) == ((0, 1, 2, 4, 3),)
    # the vGW quintics and quintic-16 are fixed by no permutation but the
    # identity, and quintic-16 fails the signature check already
    assert variable_classes(get_fixture("quintic-16-nodes").build().poly) == ()
    for name in ("quintic-vgw-118a", "quintic-vgw-118b"):
        assert variable_symmetries(get_fixture(name).build().poly) == ()


def test_cyclic_forms_find_their_rotations():
    # x^2*y + y^2*z + z^2*u + u^2*x: no transposition fixes it, the shift does
    names = ("x", "y", "z", "u")
    poly = parse_expression("x^2*y+y^2*z+z^2*u+u^2*x", names)
    assert variable_classes(poly) == ((0, 1, 2, 3),)
    assert variable_symmetries(poly) == ((1, 2, 3, 0),)
    # x*z + y*u: the transpositions x <-> z and y <-> u fix it, and so does
    # the shift by one; together they generate the symmetries of a square
    poly = parse_expression("x*z+y*u", names)
    found = variable_symmetries(poly)
    assert all(_fixes(poly, image) for image in found)
    assert _group_orbit_count(found, 4) == 8  # the dihedral group of the square


def _symmetrized(rng, m, d, group):
    """Sum of g∘s over the permutations s of `group`, for g of one to three
    random monomials of degree d with coefficients in [-3, 3]."""
    names = tuple(f"x{i}" for i in range(m))
    while True:
        terms = {}
        for _ in range(rng.integers(1, 4)):
            key = tuple(np.bincount(rng.integers(0, m, size=d), minlength=m).tolist())
            c = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            for image in group:
                moved = _image(key, image)
                terms[moved] = terms.get(moved, 0) + c
        terms = {key: c for key, c in terms.items() if c}
        if terms:
            return HomogeneousForm.from_polynomial(Polynomial(names, terms))


SHAPES = [(3, 2, 4), (3, 3, 3), (3, 4, 3), (3, 5, 2), (4, 2, 3), (4, 3, 3), (4, 4, 2), (5, 2, 3), (5, 3, 2)]


def test_orbit_ranks_equal_whole_ranks_on_symmetrized_forms(monkeypatch):
    # forms symmetrized under all of S_m or under the cyclic shifts, so that
    # orbits of components differ in size: with the maps, every per-prime
    # and leading rank equals the whole block's, at primes that lose rank too
    unions = []
    real = ranks._orbit_union

    def spy(matrix, cut, symmetries):
        found = real(matrix, cut, symmetries)
        if symmetries is not None:
            unions.append(found is not None)
        return found

    monkeypatch.setattr(ranks, "_orbit_union", spy)
    rng = np.random.default_rng(2024)
    config = RankConfig((2, 3, 32633), dense_threshold=0)
    sizes = set()
    for m, d, k in SHAPES:
        full_group = list(itertools.permutations(range(m)))
        cyclic = [tuple((i + r) % m for i in range(m)) for r in range(m)]
        for group in (full_group, cyclic) * 4:
            form = _symmetrized(rng, m, d, group)
            blocks = assemble_phi(form, k)
            for name, leading in (("wedge_low", None), ("full", blocks.wedge_high)):
                matrix = getattr(blocks, name)
                symmetries = BlockSymmetries(form, blocks.degrees, name)
                before = len(unions)
                found = rank_multimodular(matrix, config, leading, symmetries)
                whole = rank_multimodular(matrix, config, leading)
                assert found == whole, (m, d, k, name, form.poly)
                if unions[before:] == [True]:
                    union = real(matrix, 0 if leading is None else leading.cols, symmetries)
                    sizes.update(np.unique(union[1]).tolist())
    assert sum(unions) >= 15, (sum(unions), len(unions))
    assert {1, 2} <= sizes and max(sizes) >= 3, sizes


class _Given:
    """Symmetries given as maps, as a caller might pass them."""

    def __init__(self, maps):
        self._maps = maps

    def possible(self):
        return True

    def maps(self):
        return self._maps


def _swap(n):
    """The map that exchanges the halves 0 .. n-1 and n .. 2n-1."""
    return np.concatenate((np.arange(n, 2 * n), np.arange(n)))


def test_maps_that_are_not_automorphisms_are_refused():
    two = np.array([[1, 2], [3, 4]])
    other = np.array([[1, 2], [3, 5]])
    zero = np.zeros((2, 2), dtype=np.int64)
    config = RankConfig(dense_threshold=0)
    equal = sparse_from_dense(np.block([[two, zero], [zero, two]]))
    # exchanging two equal components halves the elimination, and the rank stays 4
    assert rank_multimodular(equal, config, symmetries=_Given([(_swap(2), _swap(2))])).rank == 4
    unequal = sparse_from_dense(np.block([[two, zero], [zero, other]]))
    with pytest.raises(ValueError, match="does not map its entries onto equal ones"):
        rank_multimodular(unequal, config, symmetries=_Given([(_swap(2), _swap(2))]))
    with pytest.raises(ValueError, match="does not permute its rows"):
        rank_multimodular(equal, config, symmetries=_Given([(np.zeros(4, int), _swap(2))]))
    # the first two columns lead: the exchange moves them past the block
    leading = sparse_from_dense(np.block([[two], [zero]]))
    with pytest.raises(ValueError, match="moves a column out of its leading block"):
        rank_multimodular(equal, config, leading, _Given([(_swap(2), _swap(2))]))


def test_sextic_285_eliminates_one_component_per_orbit(monkeypatch):
    # `full` (2550x2710) splits into 16 components, 5 of 219x244, 10 of
    # 138x141 and 1 of 75x75, in 3 orbits of S_5; its 5 columns without an
    # entry belong to none.  One of each is 432x460
    shapes = []
    real = ranks._echelon

    def spy(matrix, p, *args):
        shapes.append((matrix.rows, matrix.cols))
        return real(matrix, p, *args)

    monkeypatch.setattr(ranks, "_echelon", spy)
    report = e2_piece(get_fixture("sextic-285-nodes").build(), 3, RankConfig(primes=(32633,)))
    assert shapes == [(12, 49), (432, 460)]
    assert report.full.per_prime == ((32633, 2160),)
    assert report.wedge_high.per_prime == ((32633, 2085),)
    assert report.wedge_low.per_prime == ((32633, 75),)


def _spy_symmetry_work(monkeypatch):
    """Count the signature checks, labellings and map builds."""
    calls = {"classes": 0, "labels": 0, "maps": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counted(koszul, "variable_classes", "classes")
    counted(ranks, "_connected", "labels")
    counted(koszul, "variable_symmetries", "maps")
    return calls


def _cubic_sweep(seed):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve through sys.modules
    try:
        spec.loader.exec_module(workloads)
        return workloads.build("cubic-sweep", seed)
    finally:
        del sys.modules[spec.name]


def test_certified_and_asymmetric_blocks_do_no_symmetry_work(monkeypatch):
    calls = _spy_symmetry_work(monkeypatch)
    # every cubic-sweep block is certified: no signature check, no labelling
    for case in _cubic_sweep(1)[:10]:
        defect(HomogeneousForm.from_polynomial(parse_expression(case.text)))
    assert calls == {"classes": 0, "labels": 0, "maps": 0}
    # quintic-16 fails the signature check on both uncertified blocks
    defect(get_fixture("quintic-16-nodes").build())
    assert calls == {"classes": 2, "labels": 0, "maps": 0}


def test_connected_symmetric_blocks_build_no_map(monkeypatch):
    # quintic-130 is fixed by all of S_5, but A (25x126) and `full` are
    # each one component: one labelling each, and no map is built
    calls = _spy_symmetry_work(monkeypatch)
    report = defect(get_fixture("quintic-vanstraten-130").build(), RankConfig(primes=(32633,)))
    assert report.defect == 29
    assert calls == {"classes": 2, "labels": 2, "maps": 0}
