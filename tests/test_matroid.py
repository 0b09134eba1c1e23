import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    CapacityError,
    ContainmentError,
    DomainError,
    InvalidBasisError,
    ShapeError,
    SubspaceMatroid,
    basis_exchange,
    basis_extend,
    basis_restrict,
    enumerate_bases,
    family_generate,
    greedy_min_basis,
    initial_basis,
    is_basis,
    gf,
    is_independent,
    rref,
    subspace_from_rows,
    zero_subspace,
)
from amenability.linalg import _MR_EXACT_BELOW
from amenability.matroid import BASES_BLOCK, GREEDY_PREFIX, _eliminate, _greedy, _Kernel


def make(rows, labels, field=RATIONALS):
    return SubspaceMatroid(subspace_from_rows(rows, labels, field))


def random_nested_pair(rng, n, field=GF2):
    """E <= F over GF(2): F random, E spanned by random combinations of F's rows."""
    labels = list(range(n))
    while True:
        F_rows = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randrange(1, n))]
        F = subspace_from_rows(F_rows, labels, field)
        if F.dim:
            break
    base = F.basis_rows()
    E_rows = []
    for _ in range(rng.randrange(1, F.dim + 1)):
        combo = [0] * n
        for row in base:
            if rng.randrange(2):
                combo = [(a + b) % 2 for a, b in zip(combo, row)]
        E_rows.append(combo)
    E = subspace_from_rows(E_rows, labels, field)
    if E.dim == 0:
        E = subspace_from_rows([base[0]], labels, field)
    return SubspaceMatroid(E), SubspaceMatroid(F)


# ---------------------------------------------------------------------------
# independence


def test_independent_pair_in_the_plane_matroid():
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert is_independent(M, [1, 2])  # 2x2 minor is 1


def test_oversized_sets_are_dependent():
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert not is_independent(M, [1, 2, 3])


def test_singleton_on_the_diagonal_line():
    M = make([(1, 1)], [1, 2])
    assert is_independent(M, [1])
    assert is_independent(M, [2])


def test_unknown_label_raises():
    M = make([(1, 1)], [1, 2])
    with pytest.raises(DomainError):
        is_independent(M, [99])


def test_empty_set_is_independent():
    M = make([(1, 1)], [1, 2])
    assert is_independent(M, [])


@pytest.mark.parametrize("field", [RATIONALS, GF2, gf(3)], ids=["Q", "GF2", "GF3"])
def test_independence_agrees_with_a_rank_oracle(field):
    rng = random.Random(67 + field.characteristic)
    for _ in range(15):
        n = rng.randrange(1, 7)
        entries = range(-2, 3) if field.is_rational else range(field.characteristic)
        M = make([[rng.choice(entries) for _ in range(n)] for _ in range(rng.randrange(1, 4))],
                 list(range(n)), field)
        for size in range(min(n, M.rank + 1) + 1):
            for S in combinations(M.labels, size):
                S = rng.sample(S, size)  # the order of S does not matter
                assert is_independent(M, S) == (_rank(M, S) == size <= M.rank)


# ---------------------------------------------------------------------------
# initial basis


def test_initial_basis_of_full_space():
    M = make([(1, 0), (0, 1)], [1, 2])
    assert initial_basis(M) == (1, 2)


def test_initial_basis_takes_first_pivot():
    M = make([(0, 1, 1)], [1, 2, 3])
    assert initial_basis(M) == (2,)


def test_initial_basis_of_zero_space():
    M = make([(0, 0)], [1, 2])
    assert initial_basis(M) == ()


# ---------------------------------------------------------------------------
# greedy


def test_full_space_has_a_unique_basis():
    M = make([(1, 0), (0, 1)], [1, 2])
    assert greedy_min_basis(M, [5.0, -3.0]) == (1, 2)


def test_greedy_picks_the_cheapest_singleton():
    M = make([(1, 1, 1)], [1, 2, 3])
    assert greedy_min_basis(M, [0.3, 0.1, 0.5]) == (2,)


def test_greedy_on_the_segment_matroid():
    # bases are {1,2} (weight 1.1) and {1,3} (weight 1.0)
    M = make([(1, 0, 0), (0, 1, 1)], [1, 2, 3])
    assert greedy_min_basis(M, [0.9, 0.2, 0.1]) == (1, 3)


@pytest.mark.parametrize("field", [RATIONALS, GF2, gf(3)], ids=["Q", "GF2", "GF3"])
def test_greedy_on_a_zero_subspace_is_empty(field):
    M = SubspaceMatroid(zero_subspace([0, 1, 2], field))
    assert greedy_min_basis(M, [3, 1, 2]) == ()


def test_greedy_weight_count_mismatch():
    M = make([(1, 1)], [1, 2])
    with pytest.raises(ShapeError):
        greedy_min_basis(M, [1.0])


def test_greedy_ties_break_by_label_order():
    M = make([(1, 1, 1)], [1, 2, 3])
    assert greedy_min_basis(M, [0.5, 0.5, 0.5]) == (1,)


def test_greedy_matches_exhaustive_minimum():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 8)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        sp = subspace_from_rows(rows, list(range(n)), GF2)
        if sp.dim == 0:
            continue
        M = SubspaceMatroid(sp)
        weights = [rng.random() for _ in range(n)]
        best = greedy_min_basis(M, weights)
        best_weight = sum(weights[lbl] for lbl in best)
        for basis in enumerate_bases(M):
            assert best_weight <= sum(weights[lbl] for lbl in basis) + 1e-12


# ---------------------------------------------------------------------------
# enumeration


def test_hypersimplex_bases():
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert enumerate_bases(M) == [(1, 2), (1, 3), (2, 3)]


def test_full_space_single_basis():
    M = make([(1, 0), (0, 1)], [1, 2])
    assert enumerate_bases(M) == [(1, 2)]


def test_segment_bases_skip_singular_minor():
    M = make([(1, 0, 0), (0, 1, 1)], [1, 2, 3])
    assert enumerate_bases(M) == [(1, 2), (1, 3)]


def test_enumeration_cap():
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    with pytest.raises(CapacityError):
        enumerate_bases(M, cap=2)
    for cap in ("x", 2.5, True):  # a cap is an integer count
        with pytest.raises(ShapeError, match="cap must be an integer"):
            enumerate_bases(M, cap=cap)
    with pytest.raises(ShapeError, match="cap must be positive"):
        enumerate_bases(M, cap=-0.5)


def test_enumeration_over_many_blocks_agrees_with_a_rank_oracle():
    # rank 2 on 100 labels over GF(3): 4950 pairs, some parallel, some with a loop
    rng = random.Random(71)
    M = make([[rng.randrange(3) for _ in range(100)] for _ in range(2)], list(range(100)), gf(3))
    assert M.rank == 2 and math.comb(100, 2) > 4 * BASES_BLOCK
    expected = [S for S in combinations(M.labels, 2) if _rank(M, list(S)) == 2]
    assert 0 < len(expected) < math.comb(100, 2)
    assert enumerate_bases(M) == expected


def test_a_cap_crossed_in_the_second_block_raises_before_the_third(monkeypatch):
    # U(2, 100) over Q: the columns (1, i) are pairwise independent
    M = make([[1] * 100, list(range(100))], list(range(100)))
    assert enumerate_bases(M, cap=4950) == list(combinations(range(100), 2))
    calls = []
    greedy_rows = _Kernel.greedy_rows

    def counted(kernel, order):
        calls.append(len(order))
        return greedy_rows(kernel, order)

    monkeypatch.setattr(_Kernel, "greedy_rows", counted)
    for cap in (BASES_BLOCK + 1, 2 * BASES_BLOCK - 1):
        calls.clear()
        with pytest.raises(CapacityError):
            enumerate_bases(M, cap=cap)
        assert calls == [BASES_BLOCK, BASES_BLOCK]
    with pytest.raises(CapacityError):
        enumerate_bases(M, cap=4949)


def test_every_basis_has_rank_size_and_family_nonempty():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 8)
        rows = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        sp = subspace_from_rows(rows, list(range(n)), RATIONALS)
        M = SubspaceMatroid(sp)
        bases = enumerate_bases(M)
        assert bases, "the basis family of any subspace is non-empty"
        assert all(len(b) == sp.dim for b in bases)
        assert all(is_independent(M, b) for b in bases)


@pytest.mark.parametrize(
    "seed, count, digest",
    [
        (0, 18545, "31bd6d959aa61e94"),
        (1, 18545, "5d5bef66d050dae5"),
        (2, 18470, "d53b3c08d9854a6e"),
        (3, 18411, "e652c677b0971285"),
        (4, 18029, "2c4fe4c4f8ff5dee"),
    ],
)
def test_rational_kernel_primes_stay_on_the_miller_rabin_path(seed, count, digest):
    # 6 x 18 over Q with entries in -3..3; the bases were captured once
    # from the kernel whose prime came from the whole matrix's largest entry
    rng = random.Random(seed)
    M = make([[rng.randint(-3, 3) for _ in range(18)] for _ in range(6)], list(range(18)))
    assert M._kernel.p < _MR_EXACT_BELOW
    bases = enumerate_bases(M)
    assert len(bases) == count
    assert hashlib.sha256(repr(bases).encode()).hexdigest()[:16] == digest


def test_rational_and_gf_matroids_agree_on_01_matrices():
    # the Hadamard-prime reduction must reproduce the rational matroid
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(2, 7)
        rows = [[rng.randrange(-1, 2) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        sq = subspace_from_rows(rows, list(range(n)), RATIONALS)
        if sq.dim == 0:
            continue
        Mq = SubspaceMatroid(sq)
        for size in range(1, sq.dim + 1):
            for combo in combinations(range(n), size):
                expected = _field_rank(sq.basis_rows(), combo) == size
                assert is_independent(Mq, combo) == expected


def _field_rank(rows, cols, p=0):
    """Rank of the columns ``cols`` by Gaussian elimination over GF(p), or over Q when p = 0."""
    sub = [[row[c] if p else Fraction(row[c]) for c in cols] for row in rows]
    rank = 0
    ncols = len(cols)
    for c in range(ncols):
        piv = next((i for i in range(rank, len(sub)) if sub[i][c] != 0), None)
        if piv is None:
            continue
        sub[rank], sub[piv] = sub[piv], sub[rank]
        inv = pow(sub[rank][c], -1, p) if p else 1 / sub[rank][c]
        for i in range(len(sub)):
            if i != rank and sub[i][c] != 0:
                f = sub[i][c] * inv
                sub[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(sub[i], sub[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# extend / restrict / exchange (worked examples first, then random closure)


def test_extend_worked_example():
    E = make([(1, 0, 1)], [1, 2, 3])
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert basis_extend(E, F, (1,)) == (1, 2)


def test_extend_equal_spaces_is_identity():
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert basis_extend(F, F, (1, 2)) == (1, 2)


def test_extend_from_zero_space():
    Z = make([(0, 0, 0)], [1, 2, 3])
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert basis_extend(Z, F, ()) == initial_basis(F)


def test_restrict_worked_examples():
    E = make([(1, 0, 1)], [1, 2, 3])
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert basis_restrict(E, F, (2, 3)) == (3,)
    assert basis_restrict(E, F, (1, 2)) == (1,)


def test_restrict_equal_spaces_is_identity():
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert basis_restrict(F, F, (1, 3)) == (1, 3)


def test_exchange_worked_example():
    E = make([(1, 0, 1)], [1, 2, 3])
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    # l = 2 fails: {2} is not a basis of E; l = 3 works both ways
    assert basis_exchange(E, F, (1,), (2, 3), 1) == 3


def test_exchange_identity_cases():
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    assert basis_exchange(F, F, (1, 2), (1, 2), 1) == 1
    E = make([(1, 0, 1)], [1, 2, 3])
    assert basis_exchange(E, F, (1,), (1, 2), 1) == 1


def test_containment_is_checked():
    E = make([(1, 0)], [1, 2])
    F = make([(0, 1)], [1, 2])
    with pytest.raises(ContainmentError):
        basis_extend(E, F, (1,))
    with pytest.raises(ContainmentError):
        basis_restrict(E, F, (2,))


def test_invalid_bases_are_rejected():
    E = make([(1, 0, 1)], [1, 2, 3])
    F = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    with pytest.raises(InvalidBasisError):
        basis_extend(E, F, (2, 3))  # wrong size for E
    with pytest.raises(InvalidBasisError):
        basis_exchange(E, F, (1,), (2, 3), 99)  # k not in S


def test_exchange_closure_on_random_nested_pairs():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(2, 9)
        E, F = random_nested_pair(rng, n)
        S = basis_restrict(E, F, basis_extend(E, F, initial_basis(E)))
        assert is_basis(E, S)
        T = basis_extend(E, F, S)
        assert is_basis(F, T)
        assert set(S) <= set(T)
        S2 = basis_restrict(E, F, T)
        assert is_basis(E, S2)
        assert set(S2) <= set(T)
        for k in S:
            ell = basis_exchange(E, F, S, T, k)
            assert ell in T
            assert is_basis(E, tuple(sorted(set(S) - {k} | {ell})))
            assert is_basis(F, tuple(sorted(set(T) - {ell} | {k})))


def _nested_pair(rng, n, field):
    """E <= F over any field: E spanned by random combinations of F's rows, maybe zero."""
    p = field.characteristic
    draw = (lambda: rng.randrange(-2, 3)) if p == 0 else (lambda: rng.randrange(p))
    labels = list(range(n))
    F = subspace_from_rows([[draw() for _ in labels] for _ in range(rng.randrange(1, n + 1))], labels, field)
    base = F.basis_rows()
    E_rows = [
        [sum(c * row[j] for c, row in zip(coeffs, base)) for j in labels]
        for coeffs in ([draw() for _ in base] for _ in range(rng.randrange(F.dim + 1)))
    ]
    return SubspaceMatroid(subspace_from_rows(E_rows, labels, field)), SubspaceMatroid(F)


def _rank(M, labels):
    """Rank of the columns ``labels``, by the RREF of their submatrix."""
    idx = M.space.label_index()
    rows = [[row[idx[lbl]] for lbl in labels] for row in M.space.basis_rows()]
    return rref(rows, M.space.field)[1] if rows and labels else 0


def _reference_rank(M, labels):
    """Rank over M's field of the columns ``labels``; a label outside M is a zero column."""
    idx = M.space.label_index()
    rows = [[row[idx[lbl]] if lbl in idx else 0 for lbl in labels] for row in M.space.basis_rows()]
    return _field_rank(rows, range(len(labels)), M.space.field.characteristic)


def _reference_greedy(M, order):
    """The labels of ``order`` that each raise the rank, ascending."""
    kept = []
    for lbl in order:
        if _reference_rank(M, kept + [lbl]) > len(kept):
            kept.append(lbl)
    return tuple(sorted(kept))


def _reference_is_basis(M, labels):
    return len(labels) == M.rank and _reference_rank(M, sorted(labels)) == M.rank


@pytest.mark.parametrize("field", [RATIONALS, GF2, gf(3), gf(31)], ids=["Q", "GF2", "GF3", "GF31"])
def test_extend_and_restrict_are_greedy_against_a_rank_oracle(field):
    rng = random.Random(61 + field.characteristic)
    for _ in range(40):
        n = rng.randrange(1, 8)
        E, F = _nested_pair(rng, n, field)
        # arbitrary bases, not only the pivot ones
        S = greedy_min_basis(E, [rng.random() for _ in range(n)])
        T = greedy_min_basis(F, [rng.random() for _ in range(n)])
        assert basis_extend(E, F, S) == _reference_greedy(F, list(S) + [x for x in F.labels if x not in S])
        assert basis_restrict(E, F, T) == _reference_greedy(E, T)


def _spanned_pair(rng, F_rows, n_E, draw):
    """E spanned by ``n_E`` random combinations of the rows of F, over Q."""
    labels = list(range(len(F_rows[0])))
    F = subspace_from_rows(F_rows, labels, RATIONALS)
    base = F.basis_rows()
    E_rows = [
        [sum(c * row[j] for c, row in zip(coeffs, base)) for j in labels]
        for coeffs in ([draw() for _ in base] for _ in range(n_E))
    ]
    return SubspaceMatroid(subspace_from_rows(E_rows, labels, RATIONALS)), SubspaceMatroid(F)


def _move_cases(kind):
    """Seeded nested pairs over one field, or rational pairs with large kernel primes."""
    if kind == "Q-object":  # residues as Python ints, primes on the Miller-Rabin path
        for seed in range(2):
            rng = random.Random(seed)
            draw = lambda: rng.randint(-3, 3)
            yield _spanned_pair(rng, [[draw() for _ in range(18)] for _ in range(6)], 3, draw)
        return
    if kind == "Q-proth":  # primes past the Miller-Rabin bound
        for seed in range(2):
            rng = random.Random(seed)
            yield _spanned_pair(
                rng, [[rng.randint(-999, 999) for _ in range(8)] for _ in range(4)], 2,
                lambda: rng.randint(-9, 9),
            )
        return
    field = {"GF2": GF2, "GF3": gf(3), "GF31": gf(31), "Q": RATIONALS}[kind]
    rng = random.Random(83 + field.characteristic)
    for _ in range(25):
        yield _nested_pair(rng, rng.randrange(1, 9), field)


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["GF2", "GF3", "Q"])
def test_greedy_on_prefixes_keeps_the_pivots_of_the_whole_order(field):
    # oracle: the pivots of one elimination over every column of the order
    rng = random.Random(7 + field.characteristic)
    span = SubspaceMatroid(family_generate("lamp-span", 7, field))  # 896 labels, rank 7
    heads = [x.pos for x in span.labels]
    sparse = make(
        [[rng.randrange(-2, 3) if j in (5, 300, 777, 895) else 0 for j in range(900)] for _ in range(3)],
        range(900), field,
    )
    cases = [
        (span, sorted(range(896), key=lambda j: (heads[j], j))),  # 128 columns per head
        (span, sorted(range(896), key=lambda j: (-heads[j], j))),
        (span, rng.sample(range(896), 896)),
        (span, list(range(896))),
        (span, rng.sample(range(896), 200)),  # part of the columns
        (sparse, rng.sample(range(900), 900)),
        (sparse, list(range(900))),  # the basis is complete only at the last column
        (make([[0] * 100], range(100), field), list(range(100))),  # rank 0
    ]
    deficient = 0
    for M, order in cases:
        _, pivots = _eliminate(M, order)
        assert _greedy(M, order) == sorted(order[c] for c in pivots)
        deficient += len(_eliminate(M, order[:GREEDY_PREFIX])[1]) < M.rank
    assert deficient >= 4


@pytest.mark.parametrize("kind", ["GF2", "GF3", "GF31", "Q", "Q-object", "Q-proth"])
def test_moves_are_greedy_by_elimination_over_the_field(kind):
    rng = random.Random(kind)
    cases = list(_move_cases(kind))
    if kind == "Q-object":
        assert all(M._kernel.residues.dtype == object and M._kernel.p < _MR_EXACT_BELOW
                   for E, F in cases for M in (E, F))
    if kind == "Q-proth":
        assert all(M._kernel.p > _MR_EXACT_BELOW for E, F in cases for M in (E, F))
    for E, F in cases:
        n = len(F.labels)
        for M in (E, F):
            weights = [rng.choice([0, 1, 2, rng.random()]) for _ in range(n)]  # with ties
            order = sorted(range(n), key=lambda i: (weights[i], i))
            assert greedy_min_basis(M, weights) == _reference_greedy(M, [M.labels[i] for i in order])
        S = greedy_min_basis(E, [rng.random() for _ in range(n)])
        T = basis_extend(E, F, S)
        assert T == _reference_greedy(F, list(S) + [x for x in F.labels if x not in S])
        T2 = greedy_min_basis(F, [rng.random() for _ in range(n)])
        assert basis_restrict(E, F, T2) == _reference_greedy(E, T2)
        for k in S:
            assert basis_exchange(E, F, S, T, k) == min(
                ell for ell in T
                if _reference_is_basis(E, set(S) - {k} | {ell})
                and _reference_is_basis(F, set(T) - {ell} | {k})
            )


def test_nested_greedy_containment():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(2, 9)
        E, F = random_nested_pair(rng, n)
        weights = rng.sample(range(1000), n)  # pairwise distinct
        weights = [w / 1000 for w in weights]
        small = greedy_min_basis(E, weights)
        large = greedy_min_basis(F, weights)
        assert set(small) <= set(large)


# ---------------------------------------------------------------------------
# greedy weights


@pytest.mark.parametrize(
    "weights",
    [
        ["a", 1, 2],
        [0.5, None, 1],
        [float("nan"), 1, 2],
        [1, float("inf"), 2],
        [1, 2, -float("inf")],
        [1j, 2, 3],
    ],
    ids=["str", "none", "nan", "inf", "minus-inf", "complex"],
)
def test_greedy_weights_must_be_finite_reals(weights):
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    with pytest.raises(ShapeError, match="finite real"):
        greedy_min_basis(M, weights)


def test_greedy_accepts_every_kind_of_real():
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    for weights in (
        [3, 1, 2],
        [3.0, 1.0, 2.0],
        [Fraction(3), Fraction(1, 2), 2],
        np.array([3.0, 1.0, 2.0]),
        [10**400, 1, 2],
        iter([3, 1, 2]),
        (w for w in (3, 1, 2)),
        {"x": 3, "y": 1, "z": 2}.values(),
    ):
        assert greedy_min_basis(M, weights) == (2, 3)


@pytest.mark.parametrize(
    "weights",
    [3, None, 2.5, iter([1, 2]), iter([1, 2, 3, 4]), (w for w in ())],
    ids=["int", "none", "float", "short-iterator", "long-iterator", "empty-generator"],
)
def test_greedy_weights_must_be_one_per_label(weights):
    M = make([(1, 0, 1), (0, 1, 1)], [1, 2, 3])
    with pytest.raises(ShapeError):
        greedy_min_basis(M, weights)
