import copy
import dataclasses
import functools
import gc
import math
import pickle
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    FieldMismatchError,
    DomainError,
    FieldSpec,
    FormalCombination,
    GroupAction,
    InvalidFieldError,
    LabeledSubspace,
    ShapeError,
    act_subspace,
    contains_subspace,
    gf,
    ball,
    free_group,
    integer_lattice,
    integer_line,
    lamplighter,
    load_subspace,
    dump_subspace,
    quotient_dim,
    rref,
    subspace_from_rows,
    subspace_sum,
    zero_subspace,
    family_generate,
    finite_action,
    align_pair,
    set_to_subspace,
    subspace_report,
    subspace_from_json,
    subspace_to_json,
)
from amenability import groups
from amenability.linalg import _MR_EXACT_BELOW, _gc_paused, _is_prime, _prime_above

GF5 = gf(5)


# ---------------------------------------------------------------------------
# independent oracle: plain-list Gaussian elimination, no shared code paths


def oracle_rank(rows, char):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] % char if char else rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i][c] % char if char else rows[i][c]):
                if char:
                    f = rows[i][c] * pow(rows[rank][c], char - 2, char) % char
                    rows[i] = [(a - f * b) % char for a, b in zip(rows[i], rows[rank])]
                else:
                    f = Fraction(rows[i][c], 1) / rows[rank][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_intersection_basis(E_rows, F_rows, char):
    """A basis of E ^ F by solving: which combinations of E's rows lie in F.

    Stacks [E | I] and eliminates the left block against F; rows whose
    left block dies leave their coefficient vector in the right block,
    and the corresponding combinations of E's rows span the intersection.
    """
    if not E_rows:
        return []
    k, n = len(E_rows), len(E_rows[0])

    def sub(a, f, b):
        if char:
            return [(x - f * y) % char for x, y in zip(a, b)]
        return [x - f * y for x, y in zip(a, b)]

    # eliminate F to row-echelon form with recorded pivots
    fmat = [list(r) for r in F_rows]
    pivots = []
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, len(fmat)) if fmat[i][c] != 0), None)
        if piv is None:
            continue
        fmat[rank], fmat[piv] = fmat[piv], fmat[rank]
        for i in range(len(fmat)):
            if i != rank and fmat[i][c] != 0:
                f = (
                    fmat[i][c] * pow(fmat[rank][c], char - 2, char) % char
                    if char
                    else Fraction(fmat[i][c]) / fmat[rank][c]
                )
                fmat[i] = sub(fmat[i], f, fmat[rank])
        pivots.append((c, fmat[rank]))
        rank += 1

    # reduce each [e_i | delta_i] against F, then eliminate the residual
    # left blocks among themselves, carrying the coefficient tails along
    augmented = []
    for i, e in enumerate(E_rows):
        left = [Fraction(x) if not char else x % char for x in e]
        for c, frow in pivots:
            if left[c] != 0:
                f = (
                    left[c] * pow(frow[c], char - 2, char) % char
                    if char
                    else Fraction(left[c]) / frow[c]
                )
                left = sub(left, f, frow)
        tail = [Fraction(1 if j == i else 0) if not char else int(j == i) for j in range(k)]
        augmented.append((left, tail))

    kernel_tails = []
    used = []
    for left, tail in augmented:
        for c, (prow, ptail) in used:
            if left[c] != 0:
                f = (
                    left[c] * pow(prow[c], char - 2, char) % char
                    if char
                    else Fraction(left[c]) / prow[c]
                )
                left = sub(left, f, prow)
                tail = sub(tail, f, ptail)
        lead = next((c for c, x in enumerate(left) if x != 0), None)
        if lead is None:
            kernel_tails.append(tail)
        else:
            used.append((lead, (left, tail)))

    basis = []
    for tail in kernel_tails:
        vec = [0] * n
        for coeff, row in zip(tail, E_rows):
            if coeff != 0:
                vec = [
                    (a + coeff * b) % char if char else a + coeff * b
                    for a, b in zip(vec, row)
                ]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# rref


def test_rref_identity_is_fixed():
    m, rank, pivots = rref([[1, 0], [0, 1]], RATIONALS)
    assert m == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert rank == 2
    assert pivots == (0, 1)


def test_rref_duplicate_rows_gf2():
    m, rank, pivots = rref([[1, 1], [1, 1]], GF2)
    assert m == ((1, 1),)
    assert rank == 1
    assert pivots == (0,)


def test_rref_proportional_rows_rational():
    m, rank, pivots = rref([[2, 4], [1, 2]], RATIONALS)
    assert m == ((Fraction(1), Fraction(2)),)
    assert rank == 1
    assert pivots == (0,)


def test_rref_rejects_non_prime_characteristic():
    with pytest.raises(InvalidFieldError):
        FieldSpec(6)
    with pytest.raises(InvalidFieldError):
        gf(2**31 + 11)


# ---------------------------------------------------------------------------
# primes


def test_is_prime_agrees_with_a_sieve():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, n, i))
    assert [_is_prime(i) for i in range(-3, n)] == [False] * 3 + sieve


def test_is_prime_rejects_the_strong_pseudoprimes_to_the_first_bases():
    # the least strong pseudoprime to the first 1, 2, ..., 12 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    # the least one to all 13 bases: no proof either way, so no answer
    assert _MR_EXACT_BELOW == 3317044064679887385961981
    with pytest.raises(ValueError, match="proves nothing"):
        _is_prime(_MR_EXACT_BELOW)
    assert not _is_prime(_MR_EXACT_BELOW * 3)  # a witness is still a proof


def test_is_prime_accepts_mersenne_primes():
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)
    assert not _is_prime(2**29 - 1)


def test_prime_above_is_the_next_prime_below_the_bound():
    assert _prime_above(2**31 - 1) == 2147483659
    assert _prime_above(10**12) == 1000000000039
    assert [_prime_above(b) for b in range(-2, 14)] == [2, 2, 2, 2, 3, 5, 5, 7, 7, 11, 11, 11, 11, 13, 13, 17]


@pytest.mark.parametrize("b", [_MR_EXACT_BELOW - 100, 10**30, 3**300])
def test_prime_above_the_bound_carries_a_proth_certificate(b):
    # The walk stops at the bound: the next prime after the first b lies above it.
    N = _prime_above(b)
    assert N > b and N.bit_length() == max(b + 1, _MR_EXACT_BELOW).bit_length()
    m = ((N - 1) & (1 - N)).bit_length() - 1
    k = (N - 1) >> m
    assert k % 2 == 1 and k < 2**m
    assert any(pow(a, (N - 1) // 2, N) == N - 1 for a in range(2, 42))


def test_field_characteristics_are_primes_below_2_to_the_31():
    for bad in (1, 4, 2147483659, 2**31, -3, 2.0):
        with pytest.raises(InvalidFieldError):
            FieldSpec(bad)
    assert FieldSpec(2**31 - 1).characteristic == 2**31 - 1


@pytest.mark.parametrize("bad", [2.5, "2", False, True, 0.0, "0", None, np.int64(2)])
def test_a_characteristic_must_be_an_int(bad):
    # 0.0 and False once passed as Q, and 2.5 and "2" once loaded as GF(2)
    with pytest.raises(InvalidFieldError):
        FieldSpec(bad)
    doc = {"field": {"char": bad}, "labels": [0, 1], "rows": [[1, 1]]}
    with pytest.raises(InvalidFieldError):
        subspace_from_json(doc)


def test_rref_is_idempotent():
    # every shape and field, each case with its own seeded generator
    for m, n, char in product(range(1, 5), range(1, 6), (0, 2, 5)):
        rng = random.Random(100 * char + 10 * m + n)
        field = FieldSpec(char)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        once, rank, piv = rref(rows, field)
        twice, rank2, piv2 = rref(once, field)
        assert once == twice, (m, n, char)
        assert (rank, piv) == (rank2, piv2), (m, n, char)
        assert rank == oracle_rank(rows, char), (m, n, char)


def test_rref_ragged_rows_raise():
    with pytest.raises(ShapeError):
        rref([[1, 2], [1]], RATIONALS)
    with pytest.raises(ShapeError):
        rref([[1, 2], [1]], GF2)


def test_rref_refuses_rows_that_are_not_iterable():
    # "'int' object is not iterable" once escaped as a raw TypeError
    for field in (GF2, RATIONALS):
        with pytest.raises(ShapeError, match="rows must be an iterable of rows, not 5"):
            rref(5, field)


def test_subspace_from_rows_refuses_labels_or_rows_that_are_not_iterable():
    with pytest.raises(ShapeError, match="labels must be an iterable of points, not 3"):
        subspace_from_rows([[1, 0, 1]], 3, GF2)
    with pytest.raises(ShapeError, match="rows must be an iterable of rows, not 7"):
        subspace_from_rows(7, [0, 1], GF2)
    with pytest.raises(ShapeError, match="labels must be an iterable"):  # labels are read first
        subspace_from_rows(7, None, RATIONALS)


def test_zero_subspace_refuses_labels_that_are_not_iterable():
    with pytest.raises(ShapeError, match="labels must be an iterable of points, not 4"):
        zero_subspace(4, GF2)


def test_load_subspace_refuses_text_that_is_not_json():
    # a raw JSONDecodeError (or TypeError) once escaped
    for text in ("x", "", "{", b"\xff", 5, None):
        with pytest.raises(ShapeError, match="malformed subspace document"):
            load_subspace(text)


def test_floats_are_rejected_never_truncated():
    with pytest.raises(ShapeError):
        rref([[1.5, 2.0]], GF2)
    with pytest.raises(ShapeError):
        subspace_from_rows([(0.5, 1.0)], ["a", "b"], RATIONALS)


def test_string_scalars_are_parsed_exactly():
    F = subspace_from_rows([("1", "2")], ["a", "b"], gf(5))
    assert F.basis_rows() == [[1, 2]]
    G = subspace_from_rows([("1/2", "1/1")], ["a", "b"], RATIONALS)
    assert G.basis_rows() == [[Fraction(1), Fraction(2)]]


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=["Q", "GF2"])
def test_unreadable_string_scalars_are_a_shape_error(field):
    for text in ("abc", "1/0"):
        with pytest.raises(ShapeError, match="cannot interpret"):
            subspace_from_rows([[text, 1]], ["a", "b"], field)


# ---------------------------------------------------------------------------
# subspace construction


def test_subspace_from_rows_basic():
    F = subspace_from_rows([(1, 0, 1), (0, 1, 1)], ["a", "b", "c"], RATIONALS)
    assert F.dim == 2
    assert F.labels == ("a", "b", "c")


def test_zero_rows_are_dropped():
    Z = subspace_from_rows([(0, 0)], ["a", "b"], RATIONALS)
    assert Z.dim == 0
    assert Z.is_zero


def test_duplicate_rows_collapse_over_gf2():
    D = subspace_from_rows([(1, 1), (1, 1)], ["a", "b"], GF2)
    assert D.dim == 1


def test_labels_are_sorted_and_columns_follow():
    F = subspace_from_rows([(1, 2)], ["b", "a"], RATIONALS)
    G = subspace_from_rows([(2, 1)], ["a", "b"], RATIONALS)
    assert F.labels == ("a", "b")
    assert F == G


def test_row_length_mismatch_raises():
    with pytest.raises(ShapeError):
        subspace_from_rows([(1, 0, 0)], ["a", "b"], RATIONALS)


def test_duplicate_labels_raise():
    with pytest.raises(ShapeError):
        subspace_from_rows([(1, 0)], ["a", "a"], RATIONALS)


def test_canonical_equality_is_structural():
    F = subspace_from_rows([(1, 1), (1, 0)], ["a", "b"], RATIONALS)
    G = subspace_from_rows([(0, 1), (1, 0)], ["a", "b"], RATIONALS)
    assert F == G
    assert not F != G
    # != is the negation of ==, down to the NotImplemented fallback
    H = subspace_from_rows([(1, 1), (1, 0)], ["a", "c"], RATIONALS)
    K = subspace_from_rows([(1, 1), (1, 0)], ["a", "b"], GF2)
    assert F != H and not F == H
    assert F != K and not F == K
    assert F != "F" and "F" != F and not F == "F"
    assert F.__ne__("F") is NotImplemented


# ---------------------------------------------------------------------------
# sums and quotients


def test_sum_is_idempotent():
    E = subspace_from_rows([(1, 0, 1)], [1, 2, 3], GF5)
    assert subspace_sum(E, E) == E


def test_sum_spans_the_plane():
    E = subspace_from_rows([(1, 0)], ["a", "b"], RATIONALS)
    F = subspace_from_rows([(0, 1)], ["a", "b"], RATIONALS)
    assert subspace_sum(E, F).dim == 2


def test_sum_unions_labels():
    A = subspace_from_rows([(1,)], ["a"], RATIONALS)
    B = subspace_from_rows([(1,)], ["b"], RATIONALS)
    S = subspace_sum(A, B)
    assert S.dim == 2
    assert S.labels == ("a", "b")


def test_sum_field_mismatch():
    A = subspace_from_rows([(1,)], ["a"], RATIONALS)
    B = subspace_from_rows([(1,)], ["a"], GF2)
    with pytest.raises(FieldMismatchError):
        subspace_sum(A, B)


def test_quotient_dim_examples():
    F = subspace_from_rows([(1, 0)], ["a", "b"], RATIONALS)
    G = subspace_from_rows([(0, 1)], ["a", "b"], RATIONALS)
    assert quotient_dim(F, F) == 0
    assert quotient_dim(F, G) == 1


def test_quotient_dim_lamplighter_span():
    # dim(F + FS) = n + 2 for the head-position span family, so the
    # quotient against the union of translates is exactly 2.
    L = lamplighter()
    F = family_generate("lamp-span", 3, GF2)
    FS = zero_subspace(F.labels, GF2)
    for g in ("+1", "-1", "b"):
        FS = subspace_sum(FS, act_subspace(F, L, g))
    assert quotient_dim(F, FS) == 2


def test_quotient_zero_iff_contained():
    rng = random.Random(7)
    for _ in range(25):
        char = rng.choice([0, 2, 5])
        field = FieldSpec(char)
        n = rng.randrange(2, 6)
        F = subspace_from_rows(
            [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(1, 4))],
            list(range(n)),
            field,
        )
        G = subspace_from_rows(
            [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(1, 3))],
            list(range(n)),
            field,
        )
        eliminated = all(F.contains_vector(row) for row in G.basis_rows())  # no sum involved
        assert (quotient_dim(F, G) == 0) == contains_subspace(G, F) == eliminated


def test_grassmann_identity():
    # every field and width, four seeded cases each
    for char, n, seed in product((0, 2, 5), range(2, 6), range(4)):
        rng = random.Random(1000 * char + 10 * n + seed)
        field = FieldSpec(char)
        labels = list(range(n))
        E_rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        F_rows = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        E = subspace_from_rows(E_rows, labels, field)
        F = subspace_from_rows(F_rows, labels, field)
        total = subspace_sum(E, F)
        meet = oracle_intersection_basis(E.basis_rows(), F.basis_rows(), char)
        assert total.dim + oracle_rank(meet, char) == E.dim + F.dim, (char, n, seed)
        # every solved intersection vector really lies in both subspaces
        for vec in meet:
            assert E.contains_vector(vec)
            assert F.contains_vector(vec)


# ---------------------------------------------------------------------------
# the action on subspaces


def test_identity_word_fixes_subspace():
    Z = integer_line()
    F = subspace_from_rows([(1, 2)], [0, 1], RATIONALS)
    assert act_subspace(F, Z, ()) == F


def test_shift_moves_coordinate_line():
    Z = integer_line()
    F = subspace_from_rows([(1,)], [5], RATIONALS)
    G = act_subspace(F, Z, "+1")
    assert G.labels == (6,)
    assert G.dim == 1


def test_lamp_generator_fixes_box_span():
    # Right multiplication by the lamp toggle permutes the summands of
    # each head-position vector, so the span is untouched.
    L = lamplighter()
    for p in (2, 3):
        F = family_generate("lamp-span", 2, gf(p))
        assert act_subspace(F, L, "b") == F


def test_act_round_trip_is_identity():
    Z = integer_line()
    L = lamplighter()
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(2)]
        F = subspace_from_rows(rows, [10, 11, 12, 13], RATIONALS)
        assert act_subspace(act_subspace(F, Z, "+1"), Z, "-1") == F
    box = family_generate("lamp-box", 2)
    F = subspace_from_rows(
        [[rng.randrange(2) for _ in box]], list(box), GF2
    )
    for g in ("+1", "-1", "b"):
        inverse = L.inverses[g]
        assert act_subspace(act_subspace(F, L, g), L, inverse) == F


def _random_subspace(rng, labels, field, d):
    p = field.characteristic
    rows = [[rng.randrange(p) if p else rng.randrange(-2, 3) for _ in labels] for _ in range(d)]
    return subspace_from_rows(rows, list(labels), field)


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["gf2", "gf3", "q"])
def test_act_subspace_agrees_with_relabelling_from_scratch(field):
    # oracle: move every label point by point and canonicalize the rows anew
    rng = random.Random(41 + field.characteristic)
    Z, Z2, L, fg = integer_line(), integer_lattice(2), lamplighter(), free_group(2)
    cycle = finite_action("cycle", [0, 1, 2, 3, 4], {"r": [1, 2, 3, 4, 0], "s": [0, 4, 3, 2, 1]})
    box = family_generate("lamp-box", 3)
    cases = [(family_generate("lamp-span", n, field), L, g) for n in (1, 2, 3) for g in L.generators]
    shifted = act_subspace(family_generate("lamp-span", 3, field), L, "+1")  # a translate, checked when acted on
    cases += [(shifted, L, "b"), (act_subspace(shifted, L, "b"), L, "-1")]
    cases += [(family_generate("z-interval-span", n, field), Z, g) for n in (1, 4) for g in ("+1", "-1")]
    window = [(x, y) for x in range(-1, 2) for y in range(2)]
    cases += [(_random_subspace(rng, window, field, 2), Z2, g) for g in Z2.generators]
    cases += [(_random_subspace(rng, ball(fg, (), 2), field, d), fg, g) for d in (1, 3) for g in ("a", "A", "b")]
    cases += [(_random_subspace(rng, box, field, d), L, g) for d in (1, 3) for g in L.generators]
    cases += [
        (_random_subspace(rng, labels, field, 2), cycle, g)
        for labels in ([0, 1, 2, 3, 4], [0, 2, 3])  # all of the points, and a part a move overlaps
        for g in cycle.generators
    ]
    cases += [(_random_subspace(rng, [10, 11, 12, 13], field, 2), Z, w) for w in ("+1", ("+1", "-1"), ())]
    cases += [(zero_subspace(box, field), L, g) for g in ("b", "+1")]
    cases += [(zero_subspace([], field), Z, "+1")]
    stabilized = shifts = 0
    for F, action, g in cases:
        images = [action.act_word(x, g) for x in F.labels]
        G = act_subspace(F, action, g)
        assert G == subspace_from_rows(F.basis, images, field)
        if set(images) == set(F.labels):
            assert G.labels is F.labels  # a translate onto the same labels keeps them
            stabilized += 1
        if images == sorted(images) and len(F.labels) > 1:
            assert G.basis is F.basis  # an order-keeping relabel reuses F's basis
            shifts += 1
    assert 0 < stabilized < len(cases) and 0 < shifts < len(cases)


@pytest.fixture
def lamp_checks(monkeypatch):
    """The points that the lamplighter's ``validate`` is called on, for actions and spans built after it."""
    calls = []
    valid = groups._lamp_valid

    @functools.wraps(valid)  # the same module and name, so a span marked with it still pickles
    def counted(x):
        calls.append(x)
        return valid(x)

    monkeypatch.setattr(groups, "_lamp_valid", counted)
    return calls


def test_only_a_family_span_skips_the_label_check(lamp_checks):
    L, Z = lamplighter(), integer_line()
    small = subspace_from_rows([[1, 1, 0]], (0, 1, 2), GF2)
    for g in L.generators:
        with pytest.raises(DomainError, match="is not a point of the lamplighter action"):
            act_subspace(small, L, g)
    with pytest.raises(DomainError, match="is not a point of the lamplighter action"):
        subspace_report(small, L.generators, L)
    interval = family_generate("z-interval-span", 3, GF2)
    assert act_subspace(interval, Z, "+1").labels == (2, 3, 4)
    with pytest.raises(DomainError, match="is not a point of the lamplighter action"):
        act_subspace(interval, L, "+1")  # a span of another action is checked
    with pytest.raises(DomainError, match="is not a point of the lamplighter action"):
        subspace_report(act_subspace(interval, Z, "+1"), "b", L)

    span = family_generate("lamp-span", 2, GF2)
    lamp_checks.clear()
    translate = act_subspace(span, L, "+1")
    subspace_report(span, L.generators, L)
    act_subspace(span, L, FormalCombination(GF2, {"b": 1, "+1": 1}))
    assert lamp_checks == []  # a family span is never checked
    for other in (translate, subspace_sum(span, translate), dataclasses.replace(span)):
        for act in (lambda: act_subspace(other, L, "b"), lambda: subspace_report(other, L.generators, L)):
            lamp_checks.clear()
            act()
            assert sorted(lamp_checks) == list(other.labels)  # each label checked once

    # an action with its own validate checks a family span once per call
    calls = []
    counted = GroupAction("counted", L.moves, L.inverses, lambda x: calls.append(x) or L.validate(x))
    G = act_subspace(act_subspace(span, counted, "+1"), counted, "b")
    assert len(calls) == 2 * len(span.labels)
    assert G == act_subspace(span, L, ("+1", "b"))


def _squash(images: dict) -> GroupAction:
    """A finite action whose one move ``c`` follows the table ``images``, injective or not."""
    return GroupAction("squash", {"c": images.__getitem__}, {"c": "c"}, lambda x: x in images)


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["gf2", "gf3", "q"])
def test_relabel_refuses_a_move_that_is_not_injective(field):
    F = subspace_from_rows([[1, 2, 0], [0, 1, 1]], [0, 1, 2], field)
    for images in (
        {0: 1, 1: 1, 2: 0},  # every image a label of F, one hit twice
        {0: 2, 1: 0, 2: 0},
        {0: 5, 1: 5, 2: 0},  # images that leave F's labels, the first one repeated
        {0: 1, 1: 1, 2: 7},  # a repeat among F's labels before the first image outside them
    ):
        with pytest.raises(DomainError, match="did not act injectively"):
            act_subspace(F, _squash(images), "c")


def test_a_relabel_onto_labels_that_do_not_compare_is_a_shape_error():
    # the combination branch once let a raw TypeError out of its sort
    mix = GroupAction("mix", {"c": lambda x: "0" if x == 0 else x}, {"c": "c"}, lambda x: True)
    F = subspace_from_rows([[1, 1]], [0, 1], GF2)
    for r in ("c", FormalCombination(GF2, {"c": 1, (): 1})):
        with pytest.raises(ShapeError, match="labels must be mutually comparable"):
            act_subspace(F, mix, r)


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["gf2", "gf3", "q"])
def test_relabel_onto_labels_partly_outside_f_equals_relabelling_from_scratch(field):
    F = subspace_from_rows([[1, 2, 0], [0, 1, 1]], [0, 1, 2], field)
    for images in ({0: 2, 1: 0, 2: 7}, {0: 9, 1: 0, 2: 1}, {0: 2, 1: -1, 2: 1}):
        moved = [images[x] for x in F.labels]
        assert act_subspace(F, _squash(images), "c") == subspace_from_rows(F.basis, moved, field)


def test_a_paused_call_restores_the_collector_as_it_found_it():
    seen = []

    @_gc_paused
    def inner(fail):
        seen.append(gc.isenabled())
        if fail:
            raise ShapeError("refused")
        return "done"

    @_gc_paused
    def outer(fail):
        result = inner(fail)
        seen.append(gc.isenabled())  # the nested call did not switch it back on
        return result

    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call in (inner, outer):
                seen.clear()
                assert call(False) == "done" and gc.isenabled() is enabled
                with pytest.raises(ShapeError):
                    call(True)
                assert gc.isenabled() is enabled
                assert seen and not any(seen)
    finally:
        gc.enable()
    assert outer.__name__ == "outer" and outer.__wrapped__.__name__ == "outer"


def test_paused_calls_on_many_threads_leave_the_collector_on():
    # every thread that switched the collector off switches it back on, so
    # however the pauses interleave the collector ends as it started
    L = lamplighter()
    span = family_generate("lamp-span", 3, gf(3))
    done = []

    def work():
        for _ in range(40):
            assert act_subspace(act_subspace(span, L, "b"), L, "+1") == act_subspace(span, L, "+1")
        done.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and len(done) == len(threads)
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()


def test_a_family_span_survives_pickle_and_deepcopy_unchecked(lamp_checks):
    assert [f.name for f in dataclasses.fields(LabeledSubspace)] == ["field", "labels", "basis"]
    L = lamplighter()
    for field in (GF2, RATIONALS):
        span = family_generate("lamp-span", 2, field)
        for again in (pickle.loads(pickle.dumps(span)), copy.deepcopy(span)):
            assert again == span and repr(again) == repr(span)
            assert act_subspace(again, L, "b") == act_subspace(span, L, "b")
            assert subspace_report(again, L.generators, L) == subspace_report(span, L.generators, L)
    assert lamp_checks == []  # no copy of a family span is checked


def test_formal_combination_action():
    Z = integer_line()
    field = RATIONALS
    F = subspace_from_rows([(1,)], [0], field)
    comb = FormalCombination(field, {("+1",): 1, (): 1})
    G = act_subspace(F, Z, comb)
    # e_0 . (1 + s) = e_0 + e_1
    assert G == subspace_from_rows([(1, 1)], [0, 1], field)


def test_formal_combination_can_kill_dimension():
    # two words that act identically, with coefficients summing to 0 mod 3
    Z = integer_line()
    F = subspace_from_rows([(1,), ], [0], gf(3))
    comb = FormalCombination(gf(3), {(): 1, ("+1", "-1"): 2})
    assert act_subspace(F, Z, comb).dim == 0


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_round_trip_rational():
    F = subspace_from_rows([(Fraction(1, 2), 1, 0), (0, 0, 3)], [1, 2, 3], RATIONALS)
    assert load_subspace(dump_subspace(F)) == F


def test_json_round_trip_gf():
    F = subspace_from_rows([(1, 2), (0, 3)], ["a", "b"], GF5)
    assert load_subspace(dump_subspace(F)) == F


def test_json_round_trip_tuple_labels():
    box = family_generate("lamp-box", 2)
    F = subspace_from_rows([[1] * len(box)], list(box), GF2)
    G = load_subspace(dump_subspace(F))
    assert G.dim == 1
    assert [tuple(lbl) for lbl in G.labels] == [tuple(lbl) for lbl in F.labels]


@pytest.mark.parametrize(
    "char, value",
    [(2, 1.5), (2, 1.0), (5, "abc"), (0, 0.1), (0, "abc"), (0, None)],
)
def test_json_scalars_are_read_exactly_or_refused(char, value):
    # floats were truncated over GF(p) and read as binary fractions over Q
    doc = {"field": {"char": char}, "labels": [0, 1], "rows": [[value, 1]]}
    with pytest.raises(ShapeError, match="cannot interpret"):
        subspace_from_json(doc)


def test_json_rationals_are_num_den_strings():
    F = subspace_from_rows([(2, 1)], ["a", "b"], RATIONALS)
    doc = dump_subspace(F)
    assert '"1/2"' in doc and '"1/1"' in doc


# ---------------------------------------------------------------------------
# fast paths against slow references kept here


def reference_rref_mod_p(rows, p):
    """Gauss-Jordan on lists, one column at a time."""
    a = [[x % p for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    r = 0
    pivots = []
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], r, tuple(pivots)


def reference_rref_rational(rows):
    """Gauss-Jordan over Q that rewrites whole rows."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    r = 0
    pivots = []
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in a[:r]), r, tuple(pivots)


def sparse_matrix(rng, m, n, p, density):
    """Random residues with runs of zero columns and some zero rows."""
    a = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    c = 0
    while c < n:
        run = rng.choice([0, 1, 3, 17, 64])
        for row in a:
            row[c : c + run] = [0] * len(row[c : c + run])
        c += run + rng.randrange(1, 6)
    for i in rng.sample(range(m), m // 4):
        a[i] = [0] * n
    return a


def mod_p_cases():
    rng = random.Random(20240607)
    for p in (2, 3, 31):
        for m, n, density in [(4, 40, 0.3), (12, 300, 0.05), (24, 500, 0.02), (30, 12, 0.5)]:
            yield p, sparse_matrix(rng, m, n, p, density)
        yield p, np.eye(7, dtype=np.int64).tolist()
        yield p, [[0] * 50 for _ in range(5)]
        wide = [[rng.randrange(p) for _ in range(120)] for _ in range(6)]
        for i, row in enumerate(wide):
            row[:10] = [0] * 10
            row[10 + 7 * i] = 1
        yield p, wide
        yield p, [[0] * 30 + [1] + [0] * 30]


@pytest.mark.parametrize("p, rows", list(mod_p_cases()))
def test_rref_mod_p_matches_the_per_column_reference(p, rows):
    got, rank, pivots = rref(rows, gf(p))
    want, want_rank, want_pivots = reference_rref_mod_p(rows, p)
    assert (rank, pivots) == (want_rank, want_pivots)
    assert [list(row) for row in got] == want


@pytest.mark.parametrize("p, rows", list(mod_p_cases()))
def test_rref_rational_skips_zero_columns_like_the_dense_reference(p, rows):
    # the same sparse integer matrices, read over Q: the zero-column look-ahead runs there too
    assert rref(rows, RATIONALS) == reference_rref_rational(rows)


@pytest.mark.parametrize("seed", range(6))
def test_rref_rational_matches_the_dense_reference(seed):
    rng = random.Random(seed)
    m, n = rng.randrange(1, 7), rng.randrange(1, 12)
    rows = [
        [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) if rng.random() < 0.4 else Fraction(0)
         for _ in range(n)]
        for _ in range(m)
    ]
    rows.append([x + y for x, y in zip(rows[0], rows[-1])])  # a dependent row
    assert rref(rows, RATIONALS) == reference_rref_rational(rows)


LABEL_PAIRS = {
    "disjoint": ([0, 1, 2, 3], [10, 11, 12]),
    "interleaved": ([0, 2, 4, 6, 8], [1, 3, 5, 7]),
    "overlapping": ([0, 1, 2, 5, 6], [2, 3, 4, 5, 9]),
    "equal": ([1, 2, 3, 4], [1, 2, 3, 4]),
    "nested": ([2, 3, 4], [1, 2, 3, 4, 5]),
    "tuples": ([((), 0), ((1,), 0), ((1, 2), 1)], [((), 1), ((1,), 0), ((2,), -1)]),
}


def padded_sum(E, F):
    """E + F built through a label-to-column dict, independently of linalg's merge."""
    union = sorted(set(E.labels) | set(F.labels))
    idx = {lbl: j for j, lbl in enumerate(union)}
    rows = []
    for sp in (E, F):
        for row in sp.basis_rows():
            big = [0] * len(union)
            for lbl, x in zip(sp.labels, row):
                big[idx[lbl]] = x
            rows.append(big)
    return subspace_from_rows(rows, union, E.field)


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["GF2", "GF3", "Q"])
@pytest.mark.parametrize("kind", sorted(LABEL_PAIRS))
def test_sum_and_align_over_merged_labels(kind, field):
    rng = random.Random(kind)
    e_labels, f_labels = LABEL_PAIRS[kind]
    E = subspace_from_rows(
        [[rng.randrange(-2, 3) for _ in e_labels] for _ in range(2)], e_labels, field
    )
    F = subspace_from_rows(
        [[rng.randrange(-2, 3) for _ in f_labels] for _ in range(3)], f_labels, field
    )
    union = tuple(sorted(set(E.labels) | set(F.labels)))

    S = subspace_sum(E, F)
    assert S.labels == union
    assert S == padded_sum(E, F)
    assert contains_subspace(E, S) and contains_subspace(F, S)

    Ea, Fa = align_pair(E, F)
    assert Ea.labels == Fa.labels == union
    for original, aligned in ((E, Ea), (F, Fa)):
        assert aligned.dim == original.dim
        assert contains_subspace(original, aligned) and contains_subspace(aligned, original)
    assert subspace_sum(Ea, Fa) == S


def test_labels_of_mixed_types_are_a_shape_error():
    with pytest.raises(ShapeError, match="mutually comparable"):
        subspace_from_rows([(1, 0)], [1, "a"], GF2)
    E = subspace_from_rows([(1, 1)], [1, 2], GF2)
    F = subspace_from_rows([(1, 1)], ["a", "b"], GF2)
    with pytest.raises(ShapeError, match="mutually comparable"):
        subspace_sum(E, F)
    with pytest.raises(ShapeError, match="mutually comparable"):
        align_pair(E, F)


def test_unhashable_labels_are_a_shape_error():
    with pytest.raises(ShapeError, match="hashable"):
        subspace_from_rows([(1, 0)], [[1], [2]], GF2)


# ---------------------------------------------------------------------------
# storage: int64 residue arrays over GF(p), Fraction tuples over Q


def stored_subspaces(field):
    """One subspace from every constructor, named."""
    labels = ["a", "b", "c", "d"]
    ints = [[1, 2, 0, 1], [0, 1, 1, 2], [1, 3, 1, 3]]
    yield "lists", subspace_from_rows(ints, labels[::-1], field)
    yield "int64 array", subspace_from_rows(np.array(ints, dtype=np.int64), labels, field)
    yield "int8 array", subspace_from_rows(np.array(ints, dtype=np.int8), labels[::-1], field)
    yield "strings", subspace_from_rows([[str(x) for x in row] for row in ints], labels, field)
    yield "Fractions", subspace_from_rows([[Fraction(2 * x, 2) for x in row] for row in ints], labels, field)
    yield "no rows", subspace_from_rows([], labels, field)
    yield "zero rows", subspace_from_rows([[0, 0, 0, 0]], labels, field)
    E = subspace_from_rows([[1, 1, 0, 0]], labels, field)
    F = subspace_from_rows([[0, 1, 1], [2, 0, 1]], ["b", "c", "e"], field)
    yield "sum", subspace_sum(E, F)
    yield "sum over equal labels", subspace_sum(E, E)
    yield "sum with zero", subspace_sum(zero_subspace(labels, field), F)
    Ea, Fa = align_pair(E, F)
    yield "aligned first", Ea
    yield "aligned second", Fa
    Z = integer_line()
    I = subspace_from_rows([[1, 1, 0], [0, 1, 2]], [0, 1, 2], field)
    yield "act by an element", act_subspace(I, Z, "+1")
    yield "act on zero", act_subspace(zero_subspace([0, 1], field), Z, "-1")
    yield "act by a combination", act_subspace(I, Z, FormalCombination(field, {"+1": 1, "-1": 2}))
    yield "act by the zero combination", act_subspace(I, Z, FormalCombination(field, {}))
    yield "lamp-span", family_generate("lamp-span", 3, field)
    yield "z-interval-span", family_generate("z-interval-span", 3, field)
    yield "set_to_subspace", set_to_subspace([3, 1, 2], field)
    yield "subspace_from_json", subspace_from_json(subspace_to_json(subspace_sum(E, F)))


def assert_stored_canonically(space):
    n = len(space.labels)
    if space.field.characteristic == 0:
        assert type(space.basis) is tuple
        for row in space.basis:
            assert type(row) is tuple and len(row) == n
            assert all(type(x) is Fraction for x in row), row
    else:
        b = space.basis
        assert type(b) is np.ndarray and b.dtype == np.int64
        assert b.shape == (space.dim, n)
        assert b.flags.c_contiguous and not b.flags.writeable


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["GF2", "GF3", "Q"])
def test_every_constructor_stores_the_canonical_format(field):
    for name, space in stored_subspaces(field):
        try:
            assert_stored_canonically(space)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from exc


def test_rational_rows_with_fractions_keep_fractions():
    F = subspace_from_rows([["1/2", 3, Fraction(2, 3)], [np.int64(1), 0, "5"]], ["x", "y", "z"], RATIONALS)
    assert_stored_canonically(F)
    assert F.basis_rows()[0][0] == 1
    assert all(type(x) is Fraction for x in F.reduce_vector([1, 2, 3]))


def test_big_integers_are_read_exactly():
    big = 2**64 + 3  # beyond int64 and uint64
    F = subspace_from_rows([[big, 1], [2**63, 1]], ["a", "b"], gf(5))
    assert F == subspace_from_rows([[big % 5, 1], [2**63 % 5, 1]], ["a", "b"], gf(5))
    U = subspace_from_rows(np.array([[2**63 + 1, 1]], dtype=np.uint64), ["a", "b"], gf(5))
    assert U.basis_rows() == [[1, (2**63 + 1) % 5]]  # not wrapped to a negative int64
    Q = subspace_from_rows(np.array([[2**63, 1]], dtype=np.uint64), ["a", "b"], RATIONALS)
    assert Q.basis == ((Fraction(1), Fraction(1, 2**63)),)


@pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["GF2", "GF3", "Q"])
def test_pivot_columns_are_each_rows_first_nonzero(field):
    # the reference scans each whole row of the dense array
    rng = random.Random(29)
    lamp = family_generate("lamp-span", 5, field)
    spaces = [
        lamp,
        subspace_sum(lamp, act_subspace(lamp, lamplighter(), "+1")),
        zero_subspace([1, 2, 3], field),
        subspace_from_rows([[0, 0, 0, 1]], [1, 2, 3, 4], field),
    ]
    for _ in range(20):
        n = rng.randrange(1, 9)
        rows = [[rng.choice([0, 0, 1, 2]) for _ in range(n)] for _ in range(rng.randrange(4))]
        spaces.append(subspace_from_rows(rows, list(range(n)), field))
    for sp in spaces:
        expected = tuple(int(np.flatnonzero(row)[0]) for row in sp._array)
        assert sp.pivot_columns() == expected
        assert list(expected) == sorted(set(expected))


def test_reduce_vector_refuses_what_is_not_a_sequence():
    # reduce_vector(None) once raised a raw TypeError from len
    F = subspace_from_rows([[1, 0, 1]], [0, 1, 2], GF2)
    assert F.reduce_vector(np.array([1, 0, 1])) == (0, 0, 0)
    for vector in (None, 5, [1, 0]):
        with pytest.raises(ShapeError, match="one scalar per label"):
            F.reduce_vector(vector)
        with pytest.raises(ShapeError, match="one scalar per label"):
            F.contains_vector(vector)


def test_formal_combination_refuses_terms_that_are_not_a_mapping():
    # once a raw AttributeError from list.items
    with pytest.raises(ShapeError, match="terms must map group elements to scalars"):
        FormalCombination(GF2, [("+1", 1)])
