"""The shared-direction driver against per-sample greedy.

Batched greedy reads the kernel's independence table; the reference
here draws the same directions, argsorts each row on its own and runs
the kernel's one-order ``greedy``, as the sampler did sample by sample.
"""

import random
import sys
from collections import Counter

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
    gf,
    minkowski_combination_check,
    subspace_from_rows,
)
from amenability.matroid import TABLE_LABELS
from amenability.steiner import _tally, angles_from_hits
from test_matroid import random_nested_pair

FIELDS = {"gf2": GF2, "gf3": gf(3), "gf31": gf(31), "q": RATIONALS}


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


@pytest.mark.parametrize("n", [5, TABLE_LABELS, TABLE_LABELS + 1])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_driver_hits_equal_per_sample_greedy(name, n):
    rng = random.Random(f"{name}-{n}")
    M = matroid_with_loops_and_parallels(rng, FIELDS[name], n, rng.randrange(2, 5))
    N, seed = 1300, rng.randrange(1 << 32)  # two full chunks and a partial one
    est = estimate_steiner(M, N, seed)
    table = M._kernel.table
    assert (table is not None and (table >= 0).any()) == (n <= TABLE_LABELS)
    assert est.per_vertex_hits == reference_hits(M, N, seed)
    assert sum(est.per_vertex_hits.values()) == N


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_greedy_rows_equal_greedy_on_seeded_orders(name):
    rng = random.Random(7)
    for n, d in ((5, 1), (8, 3), (TABLE_LABELS, 5), (TABLE_LABELS, TABLE_LABELS - 3)):
        kernel = matroid_with_loops_and_parallels(rng, FIELDS[name], n, d)._kernel
        orders = np.array([rng.sample(range(n), n) for _ in range(300)])
        expected = [kernel.greedy(row) for row in orders.tolist()]
        assert kernel.greedy_rows(orders, 1).tolist() == expected  # order by order
        for _ in range(2):  # a run long enough for the table: cold, then warm
            assert kernel.greedy_rows(orders, 1 << 40).tolist() == expected
        assert (kernel.table >= 0).any()


def test_a_shared_table_gives_the_hits_of_a_fresh_one():
    rng = random.Random(11)
    for name in sorted(FIELDS):
        M = matroid_with_loops_and_parallels(rng, FIELDS[name], 9, 3)
        est = estimate_steiner(M, 2000, 5)
        assert (M._kernel.table >= 0).any()
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
    # cold tables each time, filled by four threads with frequent switches
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
