"""The shared-direction driver against per-sample greedy.

Batched greedy runs one elimination over residues mod p for a whole
chunk of orders; the reference here draws the same directions, argsorts
each row on its own and runs the kernel's one-order ``greedy``, as the
sampler did sample by sample.
"""

import random
import sys
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    DirectionSampler,
    InternalInvariantError,
    SubspaceMatroid,
    coupled_nested_estimate,
    estimate_steiner,
    exterior_angles,
    family_generate,
    gf,
    is_basis,
    minkowski_combination_check,
    rref,
    subspace_from_rows,
)
from amenability.linalg import _MR_EXACT_BELOW
from amenability.steiner import _tally, angles_from_hits
from test_matroid import random_nested_pair

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


def reference_hits(M, N, seed):
    sampler = DirectionSampler(seed=seed, dimension=len(M.labels))
    hits = Counter()
    for w in sampler.directions(0, N):
        kept = M._kernel.greedy(np.argsort(w, kind="stable").tolist())
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
        expected = [kernel.greedy(row) for row in orders.tolist()]
        assert kernel.greedy_rows(orders).tolist() == expected


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


def test_nesting_is_checked_on_every_sample():
    # two unrelated subspaces on the same labels are not nested, and the
    # driver must say so instead of returning estimates
    rng = random.Random(13)
    E = matroid_with_loops_and_parallels(rng, GF2, 8, 2)
    F = matroid_with_loops_and_parallels(rng, GF2, 8, 2)
    with pytest.raises(InternalInvariantError):
        _tally([E, F], 600, 1, nested=True)


def test_thread_counts_give_identical_results(monkeypatch):
    # fresh matroids each time, shared by four threads with frequent switches
    rng = random.Random(17)
    spaces = [
        matroid_with_loops_and_parallels(rng, FIELDS[name], 10, 3).space for name in sorted(FIELDS)
    ]
    E, F = random_nested_pair(rng, 9)
    results = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threads in ("1", "4"):
            monkeypatch.setenv("AMEN_THREADS", threads)
            run = [estimate_steiner(SubspaceMatroid(sp), 3000, 21) for sp in spaces]
            pair = (SubspaceMatroid(E.space), SubspaceMatroid(F.space))
            run.append(coupled_nested_estimate(*pair, 2100, 22))
            M1, M2 = (SubspaceMatroid(sp) for sp in spaces[:2])
            run.append(minkowski_combination_check(M1, M2, 0.25, 1800, 23))
            results.append(run)
    finally:
        sys.setswitchinterval(interval)
    assert results[0] == results[1]
