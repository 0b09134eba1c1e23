import random
from fractions import Fraction

import numpy as np
import pytest

from amenability import (
    GF2,
    CapacityError,
    DegenerateInputError,
    DomainError,
    ShapeError,
    ball,
    compare_module_vs_set,
    family_generate,
    finite_action,
    free_group,
    gf,
    integer_lattice,
    integer_line,
    iso_family_upper,
    iso_set_exact,
    lamplighter,
    naive_iso_set,
    phi_from_table,
    set_report,
)

Z = integer_line()
Z2 = integer_lattice(2)
L = lamplighter()
LAMP_GENS = ["+1", "-1", "b"]


@pytest.fixture(scope="module")
def span_table():
    return iso_family_upper("lamp-span", range(1, 13), LAMP_GENS, L, GF2)


@pytest.fixture(scope="module")
def box_table():
    return iso_family_upper("lamp-box", range(1, 13), LAMP_GENS, L)


# ---------------------------------------------------------------------------
# exact window search


def test_line_window_profile():
    window = ball(Z, 0, 6)  # 13 points
    table = iso_set_exact(Z, window, ["+1", "-1"], 10)
    assert table.rows[0].v == 1 and table.rows[0].ratio == 2
    assert table.rows[2].ratio == Fraction(2, 3)
    for row in table.rows:
        # intervals are optimal on the line: I(v) = 2/v
        assert row.ratio == Fraction(2, row.v)
        lo, hi = min(row.witness), max(row.witness)
        assert row.witness == tuple(range(lo, hi + 1))
    assert iso_set_exact(Z, window, ["+1", "-1"], np.int64(10)) == table


def test_line_window_matches_naive_oracle():
    window = ball(Z, 0, 5)  # 11 points
    fast = iso_set_exact(Z, window, ["+1", "-1"], 8)
    slow = naive_iso_set(Z, window, ["+1", "-1"], 8)
    assert [(r.v, r.ratio, r.witness) for r in fast.rows] == [
        (r.v, r.ratio, r.witness) for r in slow.rows
    ]


def test_random_finite_actions_match_naive_oracle():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.randrange(3, 9)
        perm = list(range(n))
        rng.shuffle(perm)
        action = finite_action("rand", list(range(n)), {"g": perm})
        window = list(range(n))
        v_max = min(n, 5)
        fast = iso_set_exact(action, window, ["g", "g^-1"], v_max)
        slow = naive_iso_set(action, window, ["g", "g^-1"], v_max)
        assert [(r.v, r.ratio, r.witness) for r in fast.rows] == [
            (r.v, r.ratio, r.witness) for r in slow.rows
        ]


def _rows(table):
    return [(r.v, r.ratio, r.witness) for r in table.rows]


def _scattered_free4_window():
    F4 = free_group(4)
    window = random.Random(9).sample(sorted(ball(F4, (), 3)), 16)
    return F4, window


@pytest.mark.parametrize(
    "action, window, S, v_max",
    [
        (Z, ball(Z, 17, 6), ["+1", "-1"], 8),
        (free_group(2), sorted(ball(free_group(2), (), 2))[:16], list(free_group(2).generators), 5),
        *[
            (Z2, [(i, j) for i in range(a) for j in range(b)], list(Z2.generators), 5)
            for a, b in ((4, 4), (2, 8), (8, 2))
        ],
        (*_scattered_free4_window(), list(free_group(4).generators), 4),
        (Z, ball(Z, -3, 2), ["+1", "-1"], 9),
    ],
    ids=["Z-off-centre", "free2-16", "Z2-4x4", "Z2-2x8", "Z2-8x2", "free4-scattered", "vmax-above-w"],
)
def test_windows_whose_images_leave_them_match_naive_oracle(action, window, S, v_max):
    inside = set(window)
    outside = {action.act_word(x, s) for x in window for s in S} - inside
    assert outside
    fast = iso_set_exact(action, window, S, v_max)
    slow = naive_iso_set(action, window, S, v_max)
    assert _rows(fast) == _rows(slow)
    assert len(fast.rows) == v_max


def test_scattered_free4_window_needs_several_mask_words():
    # 16 window bits plus more than 64 outside images: over 64 bits per mask.
    F4, window = _scattered_free4_window()
    outside = {F4.act_word(x, s) for x in window for s in F4.generators} - set(window)
    assert len(outside) > 64


def test_z2_window_at_the_cap():
    window = [(i, j) for i in range(4) for j in range(6)]  # 24 points
    table = iso_set_exact(Z2, window, Z2.generators, 12)
    assert table.window == "24 points of Z^2"
    # captured once from the earlier Gray-code walk over all 2^24 subsets
    expected = [
        (1, "4", [(0, 0)]),
        (2, "3", [(0, 0), (0, 1)]),
        (3, "7/3", [(0, 0), (0, 1), (1, 0)]),
        (4, "2", [(0, 0), (0, 1), (0, 2), (1, 1)]),
        (5, "8/5", [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]),
        (6, "3/2", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]),
        (7, "10/7", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1)]),
        (8, "5/4", [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]),
        (9, "11/9", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]),
        (10, "11/10", [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1)]),
        (11, "12/11", [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2),
                       (3, 1)]),
        (12, "1", [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3),
                   (3, 2)]),
    ]
    assert _rows(table) == [(v, Fraction(r), tuple(w)) for v, r, w in expected]


def test_window_errors_come_point_by_point_in_sorted_order():
    action = finite_action("triangle", [0, 1, 2], {"g": [1, 2, 0]})
    with pytest.raises(DomainError, match=r"^7 is not a point"):
        iso_set_exact(action, [0, 9, 7], ["g"], 2)
    # an unknown generator after a valid one: the point is checked first
    with pytest.raises(DomainError, match=r"^5 is not a point"):
        iso_set_exact(action, [6, 5], [("g", "zz")], 2)
    with pytest.raises(DomainError, match="unknown generator 'zz'"):
        iso_set_exact(action, [0, 5], [("g", "zz")], 2)
    with pytest.raises(DomainError, match="unknown generator 'zz'"):
        iso_set_exact(action, [6, 5], [("zz", "g")], 2)


def test_free_group_window_is_expanding():
    fg = free_group(2)
    window = ball(fg, (), 2)
    table = iso_set_exact(fg, window, list(fg.generators), 6)
    assert all(row.ratio >= 2 for row in table.rows)


def test_profile_is_nonincreasing_and_witnesses_reevaluate():
    window = ball(Z, 0, 4)
    table = iso_set_exact(Z, window, ["+1", "-1"], 6)
    ratios = table.ratios()
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    for row in table.rows:
        rep = set_report(row.witness, ["+1", "-1"], Z)
        assert rep.union_ratio == row.ratio


def test_window_caps_are_hard():
    with pytest.raises(CapacityError):
        iso_set_exact(Z, range(30), ["+1"], 5)
    with pytest.raises(CapacityError):
        iso_set_exact(Z, range(10), ["+1"], 13)
    for v_max in (0, 0.5, 13.5):
        with pytest.raises(CapacityError):
            iso_set_exact(Z, range(10), ["+1"], v_max)


_BAD_WINDOW_CALLS = {
    "v_max-2.5": (lambda: iso_set_exact(Z, range(5), ["+1"], 2.5), "v_max must be an integer"),
    "v_max-str": (lambda: iso_set_exact(Z, range(5), ["+1"], "3"), "v_max must be an integer"),
    "v_max-bool": (lambda: iso_set_exact(Z, range(5), ["+1"], True), "v_max must be an integer"),
    "unhashable-points": (lambda: iso_set_exact(Z, [[1], [2]], ["+1"], 2), "labels must be hashable"),
    "incomparable-window": (
        lambda: iso_set_exact(Z, [1, "a"], ["+1"], 2),
        "labels must be mutually comparable",
    ),
}


@pytest.mark.parametrize("call, message", _BAD_WINDOW_CALLS.values(), ids=list(_BAD_WINDOW_CALLS))
def test_bad_windows_and_sizes_are_shape_errors(call, message):
    with pytest.raises(ShapeError, match=message):
        call()


# ---------------------------------------------------------------------------
# family tables


def test_lamp_box_family():
    table = iso_family_upper("lamp-box", range(1, 7), LAMP_GENS, L)
    assert table.mode == "family-upper-bound"
    for row, n in zip(table.rows, range(1, 7)):
        assert row.v == (1 << n) * n
        assert row.ratio == Fraction(2, n)


def test_lamp_span_family(span_table):
    for row, n in zip(span_table.rows, range(1, 13)):
        assert row.v == n
        assert row.ratio == Fraction(2, n)


def test_interval_family():
    table = iso_family_upper("z-interval", range(1, 21), ["+1", "-1"], Z)
    for row, v in zip(table.rows, range(1, 21)):
        assert row.v == v
        assert row.ratio == Fraction(2, v)


def test_family_parameters_must_increase():
    with pytest.raises(ShapeError):
        iso_family_upper("z-interval", [3, 3], ["+1"], Z)


def test_family_bounds_dominate_exact_values():
    window = ball(Z, 0, 6)
    exact = iso_set_exact(Z, window, ["+1", "-1"], 8)
    family = iso_family_upper("z-interval", range(1, 9), ["+1", "-1"], Z)
    by_v = {row.v: row.ratio for row in exact.rows}
    for row in family.rows:
        if row.v in by_v:
            assert row.ratio >= by_v[row.v]


# ---------------------------------------------------------------------------
# the generalized inverse


def test_phi_interval_family():
    table = iso_family_upper("z-interval", range(1, 21), ["+1", "-1"], Z)
    assert phi_from_table(table, 5) == 10


def test_counts_of_the_profile_functions_must_be_integers():
    table = iso_family_upper("z-interval", range(1, 5), ["+1", "-1"], Z)
    for n in (2.5, "3", True):
        with pytest.raises(ShapeError, match="the profile argument must be an integer"):
            phi_from_table(table, n)
    with pytest.raises(ShapeError, match="at least 1"):
        phi_from_table(table, 0.5)
    for v_max in (2.5, "3"):
        with pytest.raises(ShapeError, match="v_max must be an integer"):
            naive_iso_set(Z, range(4), ["+1"], v_max)
    with pytest.raises(CapacityError):  # refused as before, ahead of the count
        naive_iso_set(Z, range(17), ["+1"], 2.5)


def test_naive_oracle_refuses_an_empty_window_as_the_exact_search_does():
    # the oracle once returned an empty table where the search raised
    for v_max in (3, 2.5):  # the window is refused ahead of the count
        outcomes = []
        for search in (naive_iso_set, iso_set_exact):
            with pytest.raises(DegenerateInputError) as info:
                search(Z, [], ["+1"], v_max)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1] == (DegenerateInputError, "the window must contain at least one point")


def test_naive_oracle_caps_v_max_as_the_exact_search_does():
    # v_max = 10**30 once ran its row loop 10**30 times
    assert _rows(naive_iso_set(Z, range(4), ["+1"], 12)) == _rows(iso_set_exact(Z, range(4), ["+1"], 12))
    for v_max in (13, 10**30, 0, -1):
        for search in (naive_iso_set, iso_set_exact):
            with pytest.raises(CapacityError) as err:
                search(Z, range(4), ["+1"], v_max)
            assert str(err.value) == "v_max must be between 1 and 12"
            with pytest.raises(CapacityError):  # v_max is read before the acting elements
                search(Z, range(4), 5, v_max)
    with pytest.raises(CapacityError, match="capped at 16 window points"):  # the window first
        naive_iso_set(Z, range(17), ["+1"], 10**30)


def test_phi_lamp_span_is_linear(span_table):
    for n in range(1, 7):
        assert phi_from_table(span_table, n) == 2 * n


def test_phi_lamp_box_is_exponential(box_table):
    assert phi_from_table(box_table, 5) == (1 << 10) * 10
    for n in range(1, 7):
        assert phi_from_table(box_table, n) == (1 << (2 * n)) * 2 * n


def test_phi_unbounded_marker():
    fg = free_group(2)
    window = ball(fg, (), 2)
    table = iso_set_exact(fg, window, list(fg.generators), 6)
    assert phi_from_table(table, 1) is None


def test_divergence_exhibit(span_table, box_table):
    # the headline table: the set side needs 2^(2n) * 2n points while the
    # module side needs dimension 2n
    for n in range(1, 7):
        phi_set = phi_from_table(box_table, n)
        phi_mod = phi_from_table(span_table, n)
        assert phi_mod <= 2 * n
        assert phi_set == (1 << (2 * n)) * (2 * n)
        assert phi_set > phi_mod


# ---------------------------------------------------------------------------
# module vs set comparison


def test_interval_comparison_is_equality():
    pts = family_generate("z-interval", 6)
    cmp = compare_module_vs_set(pts, ["+1", "-1"], Z, GF2)
    assert cmp.set_ratio == cmp.subspace_ratio == Fraction(2, 6)
    assert cmp.subspace_le_set


def test_lamp_box_comparison():
    box = family_generate("lamp-box", 3)
    cmp = compare_module_vs_set(box, LAMP_GENS, L, GF2)
    assert cmp.set_ratio == Fraction(2, 3)
    assert cmp.subspace_ratio <= cmp.set_ratio


def test_invariant_orbit_comparison():
    action = finite_action("cycle", list(range(6)), {"r": [(i + 1) % 6 for i in range(6)]})
    cmp = compare_module_vs_set(range(6), ["r"], action, gf(3))
    assert cmp.set_ratio == 0
    assert cmp.subspace_ratio == 0
