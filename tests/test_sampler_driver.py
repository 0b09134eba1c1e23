"""The shared-direction driver against per-sample greedy.

Batched greedy runs one elimination over residues mod p for a whole
chunk of orders; the reference here draws the same directions, argsorts
each row on its own and runs greedy on it by plain elimination over the
field itself: Fractions over Q, so it shares no prime with the kernel
and checks the Hadamard-prime reduction too.  On long rows the driver
sorts only a prefix of each order and falls back to the full stable
sort row by row; the tests below reach that fallback on purpose and
check it against the same reference.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    DirectionSampler,
    DomainError,
    InternalInvariantError,
    ShapeError,
    SubspaceMatroid,
    coupled_nested_estimate,
    estimate_steiner,
    exterior_angles,
    family_generate,
    gf,
    is_basis,
    rref,
    subspace_from_rows,
    zero_subspace,
)
from amenability import steiner
from amenability.linalg import _MR_EXACT_BELOW
from amenability.steiner import CHUNK, _prefix_length, _stable_prefix, _tally, angles_from_hits

# gfmax is the largest prime field: products of residues come within 2^62
FIELDS = {"gf2": GF2, "gf3": gf(3), "gf31": gf(31), "gfmax": gf(2**31 - 1), "q": RATIONALS}


def matroid_with_loops_and_parallels(rng, field, n, d):
    """Random d x (n - 3) columns, then a zero column and two parallel copies."""
    p = field.characteristic
    while True:
        entry = (lambda: rng.randrange(-3, 4)) if p == 0 else (lambda: rng.randrange(p))
        rows = [[entry() for _ in range(n - 3)] for _ in range(d)]
        for row in rows:
            row += [0, row[0], row[1] * (2 if p != 2 else 1)]
        sp = subspace_from_rows(rows, list(range(n)), field)
        if sp.dim >= 1:
            return SubspaceMatroid(sp)


_COLUMNS = {}  # id(M) -> (M, its columns over the field): kept once per matroid


def reference_greedy(M, order):
    """The labels greedy keeps scanning ``order``, sorted, by elimination over M's field."""
    if id(M) not in _COLUMNS:
        _COLUMNS[id(M)] = (M, [list(col) for col in zip(*M.space.basis_rows())])
    columns = _COLUMNS[id(M)][1]
    p = M.space.field.characteristic
    reduce = (lambda x: x % p) if p else (lambda x: x)
    pivots, kept = [], []
    for idx in order:
        if len(kept) == M.rank:
            break
        c = columns[idx]
        for pos, row in pivots:
            if c[pos]:
                c = [reduce(a - c[pos] * b) for a, b in zip(c, row)]
        pos = next((j for j, x in enumerate(c) if x), None)
        if pos is not None:
            inv = pow(c[pos], -1, p) if p else 1 / c[pos]
            pivots.append((pos, [reduce(x * inv) for x in c]))
            kept.append(idx)
    return sorted(kept)


def reference_hits(M, N, seed):
    sampler = DirectionSampler(seed=seed, dimension=len(M.labels))
    hits = Counter()
    for w in sampler.directions(0, N):
        kept = reference_greedy(M, np.argsort(w, kind="stable").tolist())
        hits[tuple(M.labels[j] for j in kept)] += 1
    return dict(sorted(hits.items()))


def identity_block_matroid(rng, n, d, entries):
    """Rows [I | B] over Q, B drawn from ``entries``: the basis is integral as stored."""
    rows = [[int(i == j) for j in range(d)] + [rng.choice(entries) for _ in range(n - d)] for i in range(d)]
    return SubspaceMatroid(subspace_from_rows(rows, list(range(n)), RATIONALS))


def full_rank_matroid(rng, field, n, d, entries):
    """Random d x n rows drawn from ``entries``, redrawn until they have rank d."""
    while True:
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(d)]
        sp = subspace_from_rows(rows, list(range(n)), field)
        if sp.dim == d:
            return SubspaceMatroid(sp)


@pytest.mark.parametrize("n", [5, 16, 17])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_driver_hits_equal_per_sample_greedy(name, n):
    rng = random.Random(f"{name}-{n}")
    M = matroid_with_loops_and_parallels(rng, FIELDS[name], n, rng.randrange(2, 5))
    N, seed = 1300, rng.randrange(1 << 32)  # two full chunks and a partial one
    est = estimate_steiner(M, N, seed)
    assert est.per_vertex_hits == reference_hits(M, N, seed)
    assert sum(est.per_vertex_hits.values()) == N


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_greedy_rows_equal_greedy_on_seeded_orders(name):
    rng = random.Random(7)
    field = FIELDS[name]
    small = [0, 1, 2] if field.characteristic != 2 else [0, 1]
    matroids = [
        matroid_with_loops_and_parallels(rng, field, n, d)
        for n, d in ((5, 1), (8, 3), (16, 5), (16, 13))
    ]
    matroids += [
        full_rank_matroid(rng, field, 9, 9, small),  # d = n: every label a coloop
        full_rank_matroid(rng, field, 12, 1, small),  # d = 1, zeros are loops
        SubspaceMatroid(family_generate("lamp-span", 8, field)),  # 2048 labels
    ]
    if name == "q":  # Hadamard primes of at least 2^31: residues are Python ints
        big = full_rank_matroid(rng, field, 10, 4, range(-10**6, 10**6))
        # entries of at most 10^6 in absolute value: a bound of at most 1.6 * 10^25
        proth = identity_block_matroid(rng, 10, 4, range(-10**6, 10**6))
        for M in (big, proth):
            assert M._kernel.p > _MR_EXACT_BELOW and M._kernel.residues.dtype == object
        matroids += [big, proth]
    for M in matroids:
        kernel = M._kernel
        n = len(M.labels)
        orders = np.array([rng.sample(range(n), n) for _ in range(300)])
        expected = [reference_greedy(M, row) for row in orders.tolist()]
        kept, unfinished = kernel.greedy_rows(orders)
        assert kept.tolist() == expected and unfinished.size == 0


def test_a_proth_prime_kernel_decides_every_basis_like_rref():
    # A Hadamard bound past the Miller-Rabin range: the kernel's prime is a
    # Proth prime.  Rank over Q from RREF does not depend on any prime.
    rng = random.Random(23)
    rows = [[int(i == j) for j in range(4)] + [rng.randrange(10**6 - 50, 10**6) for _ in range(3)] for i in range(4)]
    for row in rows:
        row.append(row[4])  # a parallel pair: some 4-sets are dependent
    M = SubspaceMatroid(subspace_from_rows(rows, list(range(8)), RATIONALS))
    assert M._kernel.p > _MR_EXACT_BELOW
    verdicts = Counter()
    for S in combinations(range(8), 4):
        _, rank, _ = rref([[row[j] for j in S] for row in rows], RATIONALS)
        assert is_basis(M, S) == (rank == 4)
        verdicts[rank == 4] += 1
    assert verdicts[True] and verdicts[False]


def test_a_kernel_carries_no_state_between_calls():
    rng = random.Random(11)
    for name in sorted(FIELDS):
        M = matroid_with_loops_and_parallels(rng, FIELDS[name], 9, 3)
        est = estimate_steiner(M, 2000, 5)
        fresh = SubspaceMatroid(M.space)
        assert exterior_angles(M, 2000, 5) == exterior_angles(fresh, 2000, 5)
        assert angles_from_hits(M, est.per_vertex_hits, 2000) == exterior_angles(fresh, 2000, 5)
        assert estimate_steiner(M, 777, 6) == estimate_steiner(SubspaceMatroid(M.space), 777, 6)


def test_angles_still_verify_every_basis():
    M = matroid_with_loops_and_parallels(random.Random(3), RATIONALS, 6, 2)
    with pytest.raises(InternalInvariantError):
        angles_from_hits(M, {(0,): 4}, 4)


def first_bad_key(M, hits):
    """What checking the keys one by one in hits order raises first, or None."""
    try:
        for basis in hits:
            if not is_basis(M, basis):
                raise InternalInvariantError(f"greedy returned a non-basis {basis!r}")
    except (InternalInvariantError, DomainError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["gf2", "gf3", "q"])
def test_angles_raise_the_first_bad_key_in_hits_order(field):
    # labels 0..4 of rank 2: 3 is a loop and 4 is parallel to 0
    M = SubspaceMatroid(subspace_from_rows([[1, 0, 1, 0, 1], [0, 1, 1, 0, 0]], range(5), field))
    short, unknown, dependent = (0,), (0, 9), (0, 3)
    for first, error in ((short, InternalInvariantError), (unknown, DomainError)):
        for second in (short, unknown, dependent):
            if second != first:
                with pytest.raises(error):
                    angles_from_hits(M, {(0, 1): 1, first: 1, second: 1, (1, 2): 1}, 4)
    with pytest.raises(InternalInvariantError, match=r"\(0, 3\)"):
        angles_from_hits(M, {(0, 1): 1, dependent: 1, unknown: 1}, 3)
    bases = [(0, 1), (0, 2), (1, 2), (1, 4)]
    pool = bases + [short, unknown, dependent, (0, 4), (1, 1), (0, 1, 2), (9,)]
    rng = random.Random(field.characteristic)
    for _ in range(300):
        hits = dict.fromkeys(rng.sample(pool, rng.randrange(1, len(pool) + 1)), 1)
        expected = first_bad_key(M, hits)
        if expected is None:
            angles = angles_from_hits(M, hits, len(hits))
            assert angles == {b: Fraction(1, len(hits)) for b in sorted(hits)}
        else:
            with pytest.raises(expected[0]) as caught:
                angles_from_hits(M, hits, len(hits))
            assert str(caught.value) == expected[1]


def test_angles_of_a_rank_zero_matroid():
    for field in FIELDS.values():
        M = SubspaceMatroid(zero_subspace([0, 1, 2], field))
        assert angles_from_hits(M, {(): 5}, 5) == {(): 1}
        with pytest.raises(InternalInvariantError):
            angles_from_hits(M, {(): 4, (0,): 1}, 5)


def test_nesting_is_checked_on_every_sample():
    # two unrelated subspaces on the same labels are not nested, and the
    # driver must say so instead of returning estimates
    rng = random.Random(13)
    E = matroid_with_loops_and_parallels(rng, GF2, 8, 2)
    F = matroid_with_loops_and_parallels(rng, GF2, 8, 2)
    with pytest.raises(InternalInvariantError):
        _tally([E, F], 600, 1, nested=True)


# ---------------------------------------------------------------------------
# prefix orders and their fallback


def prefix_misses(kernels, N, seed):
    """The driver's rows that need the full sort: those that tie, and per kernel those left unfinished."""
    sampler = DirectionSampler(seed=seed, dimension=len(kernels[0].residues))
    k = _prefix_length(kernels)
    ties, unfinished = 0, [0] * len(kernels)
    for c in range((N + CHUNK - 1) // CHUNK):
        order, tied = _stable_prefix(sampler.chunk(c)[: N - c * CHUNK], k)
        ties += tied.size
        unfinished = [u + kernel.greedy_rows(order)[1].size for u, kernel in zip(unfinished, kernels)]
    return ties, unfinished


def assert_prefix_is_exact(block, k):
    full = np.argsort(block, axis=1, kind="stable")
    order, ties = _stable_prefix(block, k)
    width = min(k, block.shape[1])
    assert order.shape == (len(block), width)
    # a row may differ from the stable prefix only where the k-th and
    # (k+1)-th smallest values are equal, and every such row is flagged
    values = np.take_along_axis(block, full, axis=1)
    boundary = values[:, k - 1] == values[:, k] if k < block.shape[1] else np.zeros(len(block), bool)
    assert ties.tolist() == np.flatnonzero(boundary).tolist()
    exact = np.setdiff1d(np.arange(len(block)), ties)
    assert (order[exact] == full[exact, :width]).all()
    return order, ties


def test_a_tie_at_the_prefix_end_falls_back():
    # k = 3: the 2s straddle the prefix end in row 0, so argpartition may
    # keep any of them; row 1 has its tie inside the prefix; row 2 none
    block = np.array(
        [
            [5.0, 1.0, 2.0, 2.0, 2.0, 0.0],
            [3.0, 1.0, 1.0, 0.0, 9.0, 8.0],
            [0.5, 0.25, 4.0, 3.0, 2.0, 1.0],
        ]
    )
    order, ties = assert_prefix_is_exact(block, 3)
    assert ties.tolist() == [0]
    assert order[1].tolist() == [3, 1, 2]  # equal values keep index order
    assert order[2].tolist() == [1, 0, 5]


def test_prefixes_of_rows_full_of_ties_are_stable():
    rng = np.random.default_rng(5)
    for k in (1, 2, 5, 16, 39, 40, 64):
        for levels in (2, 3, 8, 1000):
            block = rng.integers(0, levels, size=(200, 40)).astype(float)
            order, ties = assert_prefix_is_exact(block, k)
            if k >= 40:  # rows no longer than k are sorted whole
                assert ties.size == 0
            elif levels <= 8:
                assert ties.size  # the fallback is reached


def test_prefixes_taken_a_row_block_at_a_time_equal_one_block(monkeypatch):
    rng = np.random.default_rng(8)
    block = rng.integers(0, 3, size=(50, 40)).astype(float)
    whole = _stable_prefix(block, 5)
    monkeypatch.setattr(steiner, "_BLOCK_ENTRIES", 3 * 40 + 7)  # blocks of 3 rows, the last of 2
    order, ties = assert_prefix_is_exact(block, 5)
    assert np.array_equal(order, whole[0])
    assert ties.tolist() == whole[1].tolist() and ties.max() > 40  # later blocks' rows keep their index


def test_greedy_rows_report_rows_that_a_short_order_leaves_unfinished():
    rng = random.Random(29)
    for name in sorted(FIELDS):
        M = matroid_with_loops_and_parallels(rng, FIELDS[name], 12, 4)
        kernel = M._kernel
        full = np.array([rng.sample(range(12), 12) for _ in range(400)])
        for width in (0, 1, M.rank, M.rank + 1, 7, 12):
            kept, unfinished = kernel.greedy_rows(full[:, :width])
            short = [reference_greedy(M, row) for row in full[:, :width].tolist()]
            assert unfinished.tolist() == [i for i, b in enumerate(short) if len(b) < M.rank]
            done = [i for i, b in enumerate(short) if len(b) == M.rank]
            assert kept[done].tolist() == [short[i] for i in done]
            assert kept.shape == (400, M.rank)
        assert kernel.greedy_rows(full)[1].size == 0


@pytest.mark.parametrize(
    "n, char, N, seed",
    [(7, 2, 1300, 3), (8, 2, 2048, 41), (6, 3, 1300, 5)],
)
def test_driver_hits_on_lamp_spans(n, char, N, seed):
    M = SubspaceMatroid(family_generate("lamp-span", n, gf(char)))
    assert _prefix_length([M._kernel]) < len(M.labels)
    assert estimate_steiner(M, N, seed).per_vertex_hits == reference_hits(M, N, seed)
    if n == 8:  # a coupon collector over 8 classes of 256 labels now and then needs more than 64
        assert prefix_misses([M._kernel], N, seed)[1][0] > 0


def test_driver_hits_on_directions_full_of_ties(monkeypatch):
    # every other direction has all but its 30 smallest entries equal, so
    # the prefix ends in a tie that greedy reaches now and then
    chunk = DirectionSampler.chunk

    def clipped(self, c):
        block = chunk(self, c)
        cut = np.sort(block, axis=1)[:, 30:31]
        cut[1::2] = np.inf
        return np.minimum(block, cut)

    monkeypatch.setattr(DirectionSampler, "chunk", clipped)
    M = SubspaceMatroid(family_generate("lamp-span", 7, GF2))
    N, seed = 1100, 4
    ties, _ = prefix_misses([M._kernel], N, seed)
    assert ties == N // 2
    assert estimate_steiner(M, N, seed).per_vertex_hits == reference_hits(M, N, seed)
    # the full sorts of those rows, a row block at a time, find the same bases
    monkeypatch.setattr(steiner, "_BLOCK_ENTRIES", 37 * len(M.labels))
    assert estimate_steiner(M, N, seed).per_vertex_hits == reference_hits(M, N, seed)


def loopy_matroid(rng, field, n, live, d):
    """d x n rows whose only nonzero columns are ``live`` random labels."""
    p = field.characteristic
    cols = rng.sample(range(n), live)
    while True:
        rows = [[0] * n for _ in range(d)]
        for row in rows:
            for j in cols:
                row[j] = rng.randrange(p)
        sp = subspace_from_rows(rows, list(range(n)), field)
        if sp.dim == d:
            return SubspaceMatroid(sp)


def test_driver_hits_when_most_rows_exhaust_the_prefix():
    M = loopy_matroid(random.Random(31), gf(3), 200, 10, 3)
    N, seed = 1100, 8
    _, (unfinished,) = prefix_misses([M._kernel], N, seed)
    assert unfinished > N // 2
    assert estimate_steiner(M, N, seed).per_vertex_hits == reference_hits(M, N, seed)


def test_driver_hits_with_the_rank_close_to_the_prefix_length():
    rng = random.Random(37)
    for M in (loopy_matroid(rng, gf(3), 100, 30, 20), loopy_matroid(rng, GF2, 100, 28, 16)):
        assert _prefix_length([M._kernel]) == max(64, 4 * M.rank) < 100
        N, seed = 1100, 9
        assert prefix_misses([M._kernel], N, seed)[1][0] > 0
        assert estimate_steiner(M, N, seed).per_vertex_hits == reference_hits(M, N, seed)


def test_a_nested_pair_falls_back_kernel_by_kernel():
    rng = random.Random(43)
    F = loopy_matroid(rng, gf(3), 200, 24, 4)
    mix = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
    rows_e = [[sum(c * r[j] for c, r in zip(m, F.space.basis.tolist())) % 3 for j in range(200)] for m in mix]
    E = SubspaceMatroid(subspace_from_rows(rows_e, list(range(200)), gf(3)))
    assert E.rank == 2
    N, seed = 1500, 12
    _, (miss_e, miss_f) = prefix_misses([E._kernel, F._kernel], N, seed)
    assert 0 < miss_e < miss_f
    pair = coupled_nested_estimate(E, F, N, seed)
    assert pair.low.per_vertex_hits == reference_hits(E, N, seed)
    assert pair.high.per_vertex_hits == reference_hits(F, N, seed)


@pytest.mark.parametrize("samples", ["x", 2.0, True, 0, -3])
def test_angles_from_hits_refuses_a_sample_count_that_is_not_a_positive_integer(samples):
    # "x" once raised a raw TypeError from Fraction, and 0 a raw ZeroDivisionError
    M = SubspaceMatroid(subspace_from_rows([[1, 0, 1], [0, 1, 1]], [0, 1, 2], GF2))
    est = estimate_steiner(M, 64, 1)
    with pytest.raises(ShapeError, match="sample count"):
        angles_from_hits(M, est.per_vertex_hits, samples)
