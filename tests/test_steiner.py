import math
import mmap
import random
from fractions import Fraction

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    CapacityError,
    ContainmentError,
    DegenerateInputError,
    DirectionSampler,
    DomainError,
    ShapeError,
    SubspaceMatroid,
    align_pair,
    coupled_nested_estimate,
    enumerate_bases,
    estimate_steiner,
    exterior_angles,
    greedy_min_basis,
    minkowski_combination_check,
    subspace_from_rows,
)
from amenability import steiner
from test_matroid import random_nested_pair


def make(rows, labels, field=RATIONALS):
    return SubspaceMatroid(subspace_from_rows(rows, labels, field))


FULL2 = make([(1, 0), (0, 1)], [1, 2])
DIAG2 = make([(1, 1)], [1, 2])
DIAG3 = make([(1, 1, 1)], [1, 2, 3])
SEGMENT = make([(1, 0, 0), (0, 1, 1)], [1, 2, 3])
HYPER32 = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])


# ---------------------------------------------------------------------------
# the sampler


def test_sampler_is_a_pure_function_of_seed_and_index():
    s = DirectionSampler(seed=99, dimension=5)
    block = s.directions(0, 1500)
    for i in (0, 511, 512, 777, 1499):
        assert np.array_equal(s.sample(i), block[i])
    again = DirectionSampler(seed=99, dimension=5).directions(0, 1500)
    assert np.array_equal(block, again)


def test_sampler_rows_are_unit_vectors():
    s = DirectionSampler(seed=5, dimension=4)
    norms = np.linalg.norm(s.directions(0, 600), axis=1)
    assert np.allclose(norms, 1.0)


def test_sampler_rejects_bad_seeds():
    with pytest.raises(ShapeError):
        DirectionSampler(seed=-1, dimension=3)
    with pytest.raises(ShapeError):
        DirectionSampler(seed=2**64, dimension=3)


def test_sampler_rejects_a_dimension_that_is_not_a_count():
    for dimension in (2.5, "3", True):
        with pytest.raises(ShapeError, match="dimension must be an integer"):
            DirectionSampler(seed=1, dimension=dimension)
    with pytest.raises(ShapeError, match="dimension must be at least 1"):
        DirectionSampler(seed=1, dimension=0.5)
    assert DirectionSampler(seed=1, dimension=np.int64(2)).chunk(0).shape[1] == 2


def test_chunks_drawn_in_row_blocks_equal_one_draw():
    # 5 fits one block; 300 takes blocks of 436 and 76 rows; 2048 takes
    # eight blocks of 64 rows into a buffer of its own memory map
    for dimension in (5, 300, 2048):
        gen = np.random.Generator(np.random.Philox(key=np.array([12, 3], dtype=np.uint64)))
        raw = gen.standard_normal((steiner.CHUNK, dimension))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        assert np.array_equal(DirectionSampler(seed=12, dimension=dimension).chunk(3), raw)


def test_only_chunks_longer_than_a_block_get_their_own_memory_map():
    def owner(a):
        while isinstance(a, np.ndarray):
            a = a.base
        return a.obj if isinstance(a, memoryview) else a

    small = DirectionSampler(seed=1, dimension=steiner._BLOCK_ENTRIES // steiner.CHUNK).chunk(0)
    large = DirectionSampler(seed=1, dimension=steiner._BLOCK_ENTRIES // steiner.CHUNK + 1).chunk(0)
    assert owner(small) is None
    assert isinstance(owner(large), mmap.mmap)
    large[0, 0] = 2.0  # writable, like any chunk
    assert large.flags.c_contiguous


# ---------------------------------------------------------------------------
# estimates


def test_unique_basis_gives_exact_indicator():
    est = estimate_steiner(FULL2, samples=37, seed=123)
    assert est.vector == (Fraction(1), Fraction(1))
    assert est.l1() == 2


def test_diagonal_split_is_half_half():
    est = estimate_steiner(DIAG2, samples=4096, seed=7)
    tol = 4 * math.sqrt(0.25 / 4096)
    for x in est.vector:
        assert abs(float(x) - 0.5) < tol
    assert est.l1() == 1  # exact, not approximate


def test_segment_estimate():
    # the polytope is a segment; each endpoint's normal cone is a closed
    # half-sphere, so the true Steiner point is (1, 1/2, 1/2)
    est = estimate_steiner(SEGMENT, samples=4096, seed=31)
    assert est.vector[0] == 1
    tol = 4 * est.stderr_bound
    assert abs(float(est.vector[1]) - 0.5) < tol
    assert abs(float(est.vector[2]) - 0.5) < tol
    assert est.l1() == 2


def test_zero_subspace_is_degenerate():
    Z = make([(0, 0)], [1, 2])
    with pytest.raises(DegenerateInputError):
        estimate_steiner(Z, samples=10, seed=1)


def test_sample_count_must_be_positive():
    with pytest.raises(ShapeError):
        estimate_steiner(FULL2, samples=0, seed=1)


@pytest.mark.parametrize("bad", [2.5, True, "10", None, Fraction(7, 1)])
def test_sample_count_must_be_an_integer(bad):
    with pytest.raises(ShapeError, match="sample count"):
        estimate_steiner(FULL2, bad, 1)
    with pytest.raises(ShapeError, match="sample count"):
        exterior_angles(FULL2, bad, 1)
    with pytest.raises(ShapeError, match="sample count"):
        coupled_nested_estimate(DIAG2, FULL2, bad, 1)
    with pytest.raises(ShapeError, match="sample count"):
        minkowski_combination_check(DIAG2, FULL2, Fraction(1, 2), bad, 1)


def test_sample_counts_above_the_cap_are_a_capacity_error():
    # 10**30 once ran until killed
    cap = steiner._SAMPLE_CAP
    assert cap >= 10_000  # above every count the criteria, demos, CLI defaults and workloads use
    at_cap = estimate_steiner(DIAG2, cap, 1)
    assert at_cap.samples == cap and sum(at_cap.per_vertex_hits.values()) == cap
    for N in (cap + 1, 10**30):
        message = f"sample count {N} exceeds the cap of {cap}"
        with pytest.raises(CapacityError, match=message):
            estimate_steiner(DIAG2, N, 1)
        with pytest.raises(CapacityError, match=message):
            exterior_angles(DIAG2, N, 1)
        with pytest.raises(CapacityError, match=message):
            coupled_nested_estimate(DIAG2, FULL2, N, 1)
        with pytest.raises(CapacityError, match=message):
            minkowski_combination_check(DIAG2, FULL2, Fraction(1, 2), N, 1)
    with pytest.raises(ShapeError, match="sample count"):  # the type is checked first
        estimate_steiner(DIAG2, float(10**30), 1)


def test_numpy_integers_are_sample_counts_and_seeds():
    expected = estimate_steiner(SEGMENT, 300, 9)
    assert estimate_steiner(SEGMENT, np.int64(300), np.uint32(9)) == expected


@pytest.mark.parametrize("bad", [2.5, "7", None, False])
def test_seed_must_be_an_integer(bad):
    with pytest.raises(ShapeError, match="seed"):
        estimate_steiner(FULL2, 10, bad)


@pytest.mark.parametrize("bad", ["x", None, float("nan"), float("inf"), "1/0"])
def test_combination_weight_must_be_rational(bad):
    with pytest.raises(ShapeError, match="combination weight"):
        minkowski_combination_check(DIAG2, FULL2, bad, 10, 1)


def test_estimate_invariants_on_random_subspaces():
    rng = random.Random(2)
    for _ in range(12):
        n = rng.randrange(2, 8)
        field = rng.choice([RATIONALS, GF2])
        rows = [
            [rng.randrange(-2, 3) if field is RATIONALS else rng.randrange(2) for _ in range(n)]
            for _ in range(rng.randrange(1, 5))
        ]
        sp = subspace_from_rows(rows, list(range(n)), field)
        if sp.dim == 0:
            continue
        M = SubspaceMatroid(sp)
        est = estimate_steiner(M, samples=500, seed=rng.randrange(1000))
        assert est.l1() == sp.dim
        assert all(0 <= x <= 1 for x in est.vector)
        assert sum(est.per_vertex_hits.values()) == 500


# ---------------------------------------------------------------------------
# exterior angles


def test_angles_of_unique_basis():
    assert exterior_angles(FULL2, samples=64, seed=5) == {(1, 2): Fraction(1)}


def test_simplex_angles_are_thirds():
    angles = exterior_angles(DIAG3, samples=6000, seed=13)
    assert sum(angles.values()) == 1
    tol = 4 * math.sqrt(0.25 / 6000)
    for singleton in ((1,), (2,), (3,)):
        assert abs(float(angles[singleton]) - 1 / 3) < tol


def test_segment_angles_are_halves():
    angles = exterior_angles(SEGMENT, samples=6000, seed=17)
    assert set(angles) == {(1, 2), (1, 3)}
    assert sum(angles.values()) == 1
    tol = 4 * math.sqrt(0.25 / 6000)
    assert abs(float(angles[(1, 2)]) - 0.5) < tol


def test_hypersimplex_two_thirds():
    est = estimate_steiner(HYPER32, samples=6000, seed=19)
    tol = 4 * est.stderr_bound
    for x in est.vector:
        assert abs(float(x) - 2 / 3) < tol


# ---------------------------------------------------------------------------
# consistency with the brute-force vertex oracle


def test_greedy_matches_per_direction_argmin():
    rng = random.Random(37)
    cases = 0
    while cases < 12:
        n = rng.randrange(2, 7)
        d = rng.randrange(1, 4)
        field = rng.choice([RATIONALS, GF2])
        rows = [
            [rng.randrange(-2, 3) if field is RATIONALS else rng.randrange(2) for _ in range(n)]
            for _ in range(d)
        ]
        sp = subspace_from_rows(rows, list(range(n)), field)
        if sp.dim == 0:
            continue
        cases += 1
        M = SubspaceMatroid(sp)
        bases = enumerate_bases(M)
        sampler = DirectionSampler(seed=rng.randrange(10_000), dimension=n)
        for w in sampler.directions(0, 200):
            picked = greedy_min_basis(M, list(w))
            scores = {b: sum(w[lbl] for lbl in b) for b in bases}
            assert math.isclose(scores[picked], min(scores.values()), abs_tol=1e-12)
            # with continuous weights the minimizer is unique
            assert picked == min(scores, key=scores.get)


# ---------------------------------------------------------------------------
# coupled nested estimates


def test_coupled_equal_spaces():
    c = coupled_nested_estimate(SEGMENT, SEGMENT, samples=300, seed=3)
    assert c.l1_gap == 0
    assert c.low == c.high


def test_coupled_worked_pair():
    E = make([(1, 0, 1)], [1, 2, 3])
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    c = coupled_nested_estimate(E, F, samples=2000, seed=23)
    assert c.l1_gap == 1
    assert all(a <= b for a, b in zip(c.low.vector, c.high.vector))
    gap = sum((b - a for a, b in zip(c.low.vector, c.high.vector)), Fraction(0))
    assert gap == 1


def test_coupled_rewrites_a_pair_given_over_different_labels():
    # E over fewer labels than F, and E with a zero column that F lacks
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    for E in (make([(1, 1)], [1, 3]), make([(1, 0, 1, 0)], [1, 2, 3, 4])):
        Esp, Fsp = align_pair(E.space, F.space)
        padded = coupled_nested_estimate(SubspaceMatroid(Esp), SubspaceMatroid(Fsp), samples=500, seed=9)
        assert coupled_nested_estimate(E, F, samples=500, seed=9) == padded
        assert padded.low.labels == Fsp.labels and padded.l1_gap == 1


def test_coupled_requires_containment():
    E = make([(1, 0)], [1, 2])
    F = make([(0, 1)], [1, 2])
    with pytest.raises(ContainmentError):
        coupled_nested_estimate(E, F, samples=10, seed=1)


def test_coupled_random_nested_pairs_are_exact():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randrange(2, 9)
        E, F = random_nested_pair(rng, n)
        c = coupled_nested_estimate(E, F, samples=400, seed=rng.randrange(1 << 32))
        assert all(a <= b for a, b in zip(c.low.vector, c.high.vector))
        gap = sum((b - a for a, b in zip(c.low.vector, c.high.vector)), Fraction(0))
        assert gap == c.l1_gap == F.rank - E.rank


# ---------------------------------------------------------------------------
# Minkowski combinations


def test_combination_with_itself():
    chk = minkowski_combination_check(DIAG2, DIAG2, Fraction(1, 3), samples=500, seed=2)
    assert chk.equal
    assert chk.combined == chk.first.vector


def test_combination_of_diag_and_full():
    chk = minkowski_combination_check(DIAG2, FULL2, Fraction(1, 2), samples=4096, seed=9)
    assert chk.equal
    tol = 4 * math.sqrt(0.25 / 4096)
    for x in chk.combined:
        assert abs(float(x) - 0.75) < tol
    expect = tuple(
        (a + b) / 2 for a, b in zip(chk.first.vector, chk.second.vector)
    )
    assert chk.combined == expect


def test_combination_at_alpha_zero():
    chk = minkowski_combination_check(DIAG2, FULL2, 0, samples=300, seed=4)
    assert chk.equal
    assert chk.combined == chk.second.vector


def test_label_mismatch_is_rejected():
    other = make([(1, 1)], [1, 3])
    with pytest.raises(ShapeError):
        minkowski_combination_check(DIAG2, other, Fraction(1, 2), samples=10, seed=1)


def test_normal_cones_intersect_exactly():
    # Exact rational check that the combined polytope's minimum is attained
    # at the sum of the two greedy vertices: directions are rationalized
    # (floats convert exactly), inner products are computed in Fractions.
    rng = random.Random(53)
    alpha = Fraction(2, 5)
    for _ in range(6):
        n = rng.randrange(2, 6)
        rows1 = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(1, 3))]
        rows2 = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(1, 3))]
        sp1 = subspace_from_rows(rows1, list(range(n)), RATIONALS)
        sp2 = subspace_from_rows(rows2, list(range(n)), RATIONALS)
        if sp1.dim == 0 or sp2.dim == 0:
            continue
        M1, M2 = SubspaceMatroid(sp1), SubspaceMatroid(sp2)
        verts1 = [_indicator(b, n) for b in enumerate_bases(M1)]
        verts2 = [_indicator(b, n) for b in enumerate_bases(M2)]
        sampler = DirectionSampler(seed=rng.randrange(1000), dimension=n)
        for w in sampler.directions(0, 50):
            v = [Fraction(x) for x in w]
            x1 = _indicator(greedy_min_basis(M1, list(w)), n)
            x2 = _indicator(greedy_min_basis(M2, list(w)), n)
            combo_value = _dot(_combine(x1, x2, alpha), v)
            candidates = [
                _dot(_combine(a, b, alpha), v) for a in verts1 for b in verts2
            ]
            assert combo_value == min(candidates)


def _indicator(basis, n):
    return [Fraction(1) if i in basis else Fraction(0) for i in range(n)]


def _combine(a, b, alpha):
    return [alpha * x + (1 - alpha) * y for x, y in zip(a, b)]


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def test_coordinate_of_an_unknown_label_is_a_domain_error():
    # once a raw ValueError from tuple.index
    est = estimate_steiner(SEGMENT, 64, 1)
    assert est.coordinate(1) == 1
    with pytest.raises(DomainError, match="label 9 is not a coordinate"):
        est.coordinate(9)


def test_sampler_refuses_indices_that_are_not_integers():
    # once raw TypeErrors from "x" + 1 and from slicing by 0.5
    s = DirectionSampler(seed=1, dimension=3)
    with pytest.raises(ShapeError, match="sample index must be an integer"):
        s.sample("x")
    with pytest.raises(ShapeError, match="start must be an integer"):
        s.directions(0.5, 2)
    with pytest.raises(ShapeError, match="stop must be an integer"):
        s.directions(0, None)
    assert np.array_equal(s.sample(np.int64(2)), s.directions(2, 3)[0])
