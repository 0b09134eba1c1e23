import gc
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from amenability import (
    AmenabilityError,
    GF2,
    LAMP_IDENTITY,
    RATIONALS,
    DegenerateInputError,
    DomainError,
    FormalCombination,
    LampElement,
    ShapeError,
    WeightedFunction,
    absorb_finite,
    act_subspace,
    ball,
    base_point,
    contains_subspace,
    estimate_steiner,
    family_generate,
    finite_action,
    free_group,
    function_report,
    GroupAction,
    gf,
    integer_lattice,
    integer_line,
    iso_family_upper,
    iso_set_exact,
    lamplighter,
    layer_cake,
    quotient_dim,
    set_report,
    set_to_subspace,
    subspace_from_rows,
    subspace_report,
    subspace_sum,
    subspace_to_function,
    SubspaceMatroid,
    zero_subspace,
)
from amenability import folner, groups
from amenability.linalg import _gc_paused

Z = integer_line()
L = lamplighter()
LAMP_GENS = ["+1", "-1", "b"]


def cycle_action(n):
    return finite_action("cycle", list(range(n)), {"r": [(i + 1) % n for i in range(n)]})


# ---------------------------------------------------------------------------
# set reports


def test_lamp_box_report():
    for n in range(1, 7):
        box = family_generate("lamp-box", n)
        rep = set_report(box, LAMP_GENS, L)
        assert rep.union_ratio == Fraction(2, n)
        assert rep.union_size == (n + 2) * (1 << n)
        assert rep.per_generator["b"] == 0
        assert rep.per_generator["+1"] == Fraction(1, n)


def test_interval_report():
    rep = set_report(range(1, 11), ["+1", "-1"], Z)
    assert rep.union_ratio == Fraction(2, 10)
    assert rep.per_generator["+1"] == Fraction(1, 10)


def test_invariant_set_has_zero_ratio():
    rep = set_report(range(4), ["r", "r^-1"], cycle_action(4))
    assert rep.union_ratio == 0


def test_empty_set_is_rejected():
    with pytest.raises(DegenerateInputError):
        set_report([], ["+1"], Z)


def test_union_ratio_dominates_per_generator():
    rng = random.Random(1)
    for _ in range(20):
        pts = set(rng.sample(range(-20, 20), rng.randrange(1, 10)))
        rep = set_report(pts, ["+1", "-1"], Z)
        assert all(rep.union_ratio >= r for r in rep.per_generator.values())


def test_union_bound_over_generators():
    # if every per-generator ratio is below eps / #S the union stays below eps
    rng = random.Random(9)
    for _ in range(30):
        pts = set(rng.sample(range(-30, 30), rng.randrange(1, 12)))
        rep = set_report(pts, ["+1", "-1"], Z)
        assert rep.union_ratio <= sum(rep.per_generator.values())


def test_formal_combination_reduces_to_support():
    comb = FormalCombination(GF2, {("+1",): 1, ("-1",): 1})
    rep = set_report(range(5), [comb], Z)
    assert set(rep.per_generator) == {"+1", "-1"}


# ---------------------------------------------------------------------------
# lamplighter set reports on integer codes, with the point-by-point path as the oracle


def _outcome(call):
    """A call's result, or the type and message of the library error it raised."""
    try:
        return call()
    except AmenabilityError as exc:
        return type(exc), str(exc)


def _point_by_point(F, S, action=L):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(folner, "_lamp_codes", lambda *args: None)
        return _outcome(lambda: set_report(F, S, action))


@pytest.fixture
def moved(monkeypatch):
    """The names of the actions whose points were moved one by one, call by call."""
    calls = []
    real = GroupAction._act_points

    def counted(self, *args):
        calls.append(self.name)
        return real(self, *args)

    monkeypatch.setattr(GroupAction, "_act_points", counted)
    return calls


def _shifted_box(n, c):
    return [LampElement(tuple(k + c for k in lamps), t + c) for lamps, t in family_generate("lamp-box", n)]


LAMP_ACTINGS = [
    LAMP_GENS,
    ["b", ("+1", "b"), ["b", "-1", "b", "+1"]],
    [(), "+1"],
    [FormalCombination(GF2, {("+1", "b"): 1, ("b",): 1}), ("-1", "-1")],
    ("+1", "+1", "+1"),
]


@pytest.mark.parametrize("c", [-1_000, -3, 0, 10**12, 10**30])
def test_coded_lamp_reports_match_the_point_by_point_path(c, moved):
    rng = random.Random(c % 1_000_003)
    for n in range(1, 7):
        box = _shifted_box(n, c)
        for S in LAMP_ACTINGS:
            F = rng.sample(box, rng.randrange(1, len(box) + 1))
            F += rng.choices(F, k=3)  # repeated points
            F = [tuple(x) if rng.random() < 0.5 else x for x in F]  # plain tuples mixed in
            for points in (F, tuple(F), set(F), frozenset(F)):
                moved.clear()
                report = set_report(points, S, L)
                assert moved == []  # counted on codes
                assert report == _point_by_point(points, S)
                assert report.size == len(set(F))


def test_coded_lamp_box_reports_match_the_point_by_point_path(moved):
    box = family_generate("lamp-box", 9)
    report = set_report(box, LAMP_GENS, L)
    assert moved == []
    assert report == _point_by_point(box, LAMP_GENS)
    assert repr(report) == repr(_point_by_point(box, LAMP_GENS))


@pytest.mark.parametrize(
    "F, S, coded",
    [
        ([((0, 56), 28), ((), 1)], ["+1", "-1"], True),  # lamps 0..56: 57 positions
        ([((0, 57), 28), ((), 1)], ["+1", "-1"], False),
        ([((), 0)], [("+1",) * 28], True),  # the head widened by 28 each way: -28..28
        ([((), 0), ((), 1)], [("+1",) * 28], False),
        ([((-5, 49), -6)], ["-1", "b"], True),  # -6 - 1 .. 49
        ([((-5, 50), -6)], ["-1", "b"], False),
    ],
)
def test_a_code_window_holds_57_positions(F, S, coded, moved):
    report = set_report(F, S, L)
    assert moved == ([] if coded else ["lamplighter"])
    assert report == _point_by_point(F, S)


class _LampSet(frozenset):
    """A frozenset subclass: not one of the collections the codes read."""


BOX3 = family_generate("lamp-box", 3)

# name -> (a maker of F, S, the error the point-by-point path raises or None)
LAMP_FALLBACKS = {
    "bool-head": (lambda: [((), True), ((1,), 2)], LAMP_GENS, DomainError),
    "bool-lamp": (lambda: [((True,), 0)], LAMP_GENS, DomainError),
    "list-lamps": (lambda: [([1], 2)], LAMP_GENS, ShapeError),
    "unsorted-lamps": (lambda: [((2, 1), 0)], LAMP_GENS, DomainError),
    "three-entries": (lambda: [((), 0, 1)], LAMP_GENS, DomainError),
    "unknown-generator": (lambda: BOX3, ["+1", "zz"], DomainError),
    "unhashable-point": (lambda: [[(), 0]], LAMP_GENS, ShapeError),
    "unhashable-point-and-bad-S": (lambda: [[(), 0]], 5, ShapeError),
    "bad-S": (lambda: BOX3, 5, ShapeError),
    "empty-F": (lambda: [], LAMP_GENS, DegenerateInputError),
    "generator-F": (lambda: (x for x in BOX3), LAMP_GENS, None),
    "frozenset-subclass": (lambda: _LampSet(BOX3), LAMP_GENS, None),
    "lamps-past-the-window": (lambda: [((0, 100), 0)], LAMP_GENS, None),
}


@pytest.mark.parametrize("name", sorted(LAMP_FALLBACKS))
def test_lamp_inputs_the_codes_cannot_vouch_for_take_the_point_by_point_path(name):
    make, S, error = LAMP_FALLBACKS[name]
    try:
        words = [w for _, w in folner._normalize_acting(S)]
    except AmenabilityError:
        words = None
    assert words is None or groups._lamp_codes(make(), words, L) is None
    got = _outcome(lambda: set_report(make(), S, L))
    assert got == _point_by_point(make(), S)
    if error is None:
        assert isinstance(got, folner.FolnerReport)
    else:
        assert got[0] is error


@pytest.mark.parametrize("F, action", [([((), True), ((), 1)], L), ([True, 1], Z)], ids=["lamplighter", "Z"])
def test_a_set_with_a_bool_point_is_refused(F, action):
    # True == 1, so each set once counted as one point
    with pytest.raises(DomainError) as err:
        set_report(F, ["+1"], action)
    assert str(err.value) == f"{F[0]!r} is not a point of the {action.name} action"


def test_an_action_with_lamp_points_but_other_moves_is_moved_point_by_point(moved):
    moves = {**L.moves, "b": lambda x: groups._lamp_toggle(x)}
    own = GroupAction("own", moves=moves, inverses=L.inverses, validate=L.validate)
    box = family_generate("lamp-box", 4)
    assert set_report(box, ["+1"], own).per_generator == set_report(box, ["+1"], L).per_generator
    assert moved == []  # "+1" is still the lamp move
    assert set_report(box, LAMP_GENS, own).union_size == set_report(box, LAMP_GENS, L).union_size
    assert moved == ["own"]


def test_sorted_distinct_is_np_unique():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 50, 1000):
        a = rng.integers(-40, 40, size)
        assert np.array_equal(groups._sorted_distinct(a), np.unique(a))


# ---------------------------------------------------------------------------
# function reports


def test_indicator_of_invariant_set():
    f = WeightedFunction.indicator(range(4))
    ratios = function_report(f, ["r"], cycle_action(4))
    assert ratios["r"] == 0


def test_indicator_of_interval():
    f = WeightedFunction.indicator(range(1, 11))
    ratios = function_report(f, ["+1"], Z)
    assert ratios["+1"] == Fraction(2, 10)


def test_tent_function_report():
    f = WeightedFunction({1: 1, 2: 2, 3: 1})
    ratios = function_report(f, ["+1"], Z)
    assert ratios["+1"] == 1  # |f - fs| = (1,1,1,1) on {1,2,3,4}, norm 4


def test_zero_function_is_rejected():
    with pytest.raises(DegenerateInputError):
        WeightedFunction({})
    with pytest.raises(DegenerateInputError):
        WeightedFunction({1: 0})


def test_negative_values_are_rejected():
    with pytest.raises(ShapeError):
        WeightedFunction({1: -1})
    for value in (float("nan"), float("inf"), "x", None, "1/0"):  # and values that are no rationals
        with pytest.raises(ShapeError, match="is not a rational"):
            WeightedFunction({1: value})


# ---------------------------------------------------------------------------
# layer cake


def test_layer_cake_of_indicator():
    f = WeightedFunction.indicator(range(1, 6))
    lc = layer_cake(f, ["+1", "-1"], Z)
    assert lc.threshold == 1
    assert lc.level_set == (1, 2, 3, 4, 5)


def test_layer_cake_of_tent():
    f = WeightedFunction({1: 1, 2: 2, 3: 1})
    lc = layer_cake(f, ["+1"], Z)
    assert lc.threshold == 1
    assert lc.level_set == (1, 2, 3)
    best_t, ratio = lc.per_generator_best["+1"]
    assert ratio == Fraction(2, 3) <= 1


def test_layer_cake_constant_on_orbit():
    f = WeightedFunction({i: Fraction(3, 7) for i in range(5)})
    lc = layer_cake(f, ["r"], cycle_action(5))
    assert lc.report.union_ratio == 0


def test_coarea_bound_per_generator():
    # min over thresholds of the symmetric-difference ratio never exceeds
    # the function's own translation defect, generator by generator
    rng = random.Random(77)
    for _ in range(25):
        support = rng.sample(range(-15, 15), rng.randrange(1, 8))
        f = WeightedFunction({x: Fraction(rng.randrange(1, 12), rng.randrange(1, 5)) for x in support})
        ratios = function_report(f, ["+1", "-1"], Z)
        lc = layer_cake(f, ["+1", "-1"], Z)
        for g in ("+1", "-1"):
            _, best = lc.per_generator_best[g]
            assert best <= ratios[g]


def _recount_per_generator_best(f, keys, action):
    """Min over levels of #(L ^ Ls) / #L, recounted with act_word; ties keep the lowest level."""
    best = {}
    for t in sorted(set(f.values.values())):
        level = {x for x, v in f.values.items() if v >= t}
        for key in keys:
            word = key if isinstance(key, tuple) else (key,)
            moved = {action.act_word(x, word) for x in level}
            ratio = Fraction(len(level ^ moved), len(level))
            if key not in best or ratio < best[key][1]:
                best[key] = (t, ratio)
    return best


def _points(rng, action, k):
    if action.name == "Z":
        return rng.sample(range(-9, 9), k)
    if action.name == "Z^2":
        return list({(rng.randrange(-3, 3), rng.randrange(-3, 3)) for _ in range(k)})
    if action.name == "cycle":
        return rng.sample(range(5), min(k, 5))
    return [action.act_word(base_point(action), rng.choices(action.generators, k=3)) for _ in range(k)]


@pytest.mark.parametrize(
    "action, S, keys",
    [
        (Z, ["+1", ("+1", "+1"), ("-1", "-1", "-1")], ["+1", ("+1", "+1"), ("-1", "-1", "-1")]),
        (integer_lattice(2), ["+e1", ("+e1", "+e2")], ["+e1", ("+e1", "+e2")]),
        (free_group(2), FormalCombination(gf(3), {("a", "b"): 1, "A": 2, (): 1}), [(), "A", ("a", "b")]),
        (L, [("b", "+1", "b"), "-1"], [("b", "+1", "b"), "-1"]),
        (cycle_action(5), [("r", "r"), "r^-1"], [("r", "r"), "r^-1"]),
    ],
    ids=["Z", "Z^2", "free:2", "lamplighter", "cycle"],
)
def test_layer_cake_per_generator_best_is_a_recount(action, S, keys):
    rng = random.Random(41)
    for _ in range(20):
        pts = _points(rng, action, rng.randrange(1, 9))
        f = WeightedFunction({x: rng.randrange(1, 4) for x in pts})
        lc = layer_cake(f, S, action)
        expected = _recount_per_generator_best(f, keys, action)
        assert list(lc.per_generator_best.items()) == list(expected.items())


def _layer_cake_by_comparison(f, S, action):
    """The level-by-level scan: one comparison pass and one set report per threshold."""
    best, per_best = None, {}
    for t in sorted(set(f.values.values())):
        level = {x for x, v in f.values.items() if v >= t}
        report = set_report(level, S, action)
        if best is None or report.union_ratio < best[2].union_ratio:
            best = (t, level, report)
        for key, gain in report.per_generator.items():
            if key not in per_best or 2 * gain < per_best[key][1]:
                per_best[key] = (t, 2 * gain)
    return best[0], tuple(sorted(best[1])), best[2], per_best


@pytest.mark.parametrize(
    "action, S",
    [
        (Z, ["+1", "-1", ("+1", "+1")]),
        (integer_lattice(2), ["+e1", ("+e1", "+e2"), "-e2"]),
        (free_group(2), FormalCombination(gf(3), {("a", "b"): 1, "A": 2, (): 1})),
        (L, LAMP_GENS),
        (cycle_action(5), [("r", "r"), "r^-1"]),
    ],
    ids=["Z", "Z^2", "free:2", "lamplighter", "cycle"],
)
def test_layer_cake_and_function_report_match_fraction_scans(action, S):
    rng = random.Random(53)
    for _ in range(30):
        pts = _points(rng, action, rng.randrange(1, 12))
        f = WeightedFunction({x: Fraction(rng.randrange(1, 9), rng.choice([1, 2, 3, 7, 12])) for x in pts})
        lc = layer_cake(f, S, action)
        t, level, report, per_best = _layer_cake_by_comparison(f, S, action)
        assert (lc.threshold, lc.level_set, lc.report) == (t, level, report)
        assert list(lc.per_generator_best.items()) == list(per_best.items())
        ratios = function_report(f, S, action)
        for key in ratios:
            g = f.translate(action, key if isinstance(key, tuple) else (key,)).values
            zero = Fraction(0)
            l1 = sum((abs(f.values.get(x, zero) - g.get(x, zero)) for x in set(f.values) | set(g)), zero)
            assert ratios[key] == l1 / f.l1()


def test_absorbing_a_subspace_reads_its_translates_once():
    core = family_generate("lamp-span", 4, GF2)
    for U in (
        family_generate("lamp-span", 5, GF2),
        subspace_from_rows([[1, 1, 0], [0, 1, 1]], [((), 0), ((1,), 1), ((), 9)], GF2),
    ):
        res = absorb_finite(core, U, LAMP_GENS, L)
        core_report = subspace_report(core, LAMP_GENS, L)
        spread = subspace_report(U, LAMP_GENS, L).union_size
        assert res.bound == Fraction(core_report.union_size - core_report.size + spread, core_report.size)


# ---------------------------------------------------------------------------
# sets to subspaces


def test_singleton_spans_a_line():
    sp = set_to_subspace([7], RATIONALS)
    assert sp.dim == 1
    assert sp.labels == (7,)


def test_set_to_subspace_rejects_points_that_do_not_compare():
    with pytest.raises(ShapeError, match="labels must be mutually comparable"):
        set_to_subspace([1, "a"], GF2)


def test_interval_span_ratio_matches_set_ratio():
    pts = family_generate("z-interval", 4)
    sp = set_to_subspace(pts, GF2)
    assert sp.dim == 4
    rep = subspace_report(sp, ["+1", "-1"], Z)
    assert rep.union_ratio == Fraction(2, 4)


def test_box_span_ratio_no_worse_than_set():
    box = family_generate("lamp-box", 2)
    set_rep = set_report(box, LAMP_GENS, L)
    spc = set_to_subspace(box, GF2)
    sub_rep = subspace_report(spc, LAMP_GENS, L)
    assert sub_rep.size == len(box)
    assert sub_rep.union_ratio <= set_rep.union_ratio


# ---------------------------------------------------------------------------
# subspace reports


def test_lamp_span_report_gf2_and_gf3():
    for p in (2, 3):
        for n in (1, 2, 3, 4, 6):
            span = family_generate("lamp-span", n, gf(p))
            rep = subspace_report(span, LAMP_GENS, L)
            assert rep.union_size == n + 2
            assert rep.union_ratio == Fraction(2, n)
            assert rep.per_generator["b"] == 0
            assert act_subspace(span, L, "b") == span


def test_invariant_span_has_zero_ratio():
    act5 = cycle_action(5)
    sp = set_to_subspace(range(5), GF2)
    rep = subspace_report(sp, ["r"], act5)
    assert rep.union_ratio == 0


def test_zero_subspace_is_rejected():
    sp = subspace_from_rows([(0, 0)], [1, 2], GF2)
    with pytest.raises(DegenerateInputError):
        subspace_report(sp, ["+1"], Z)


def _canonical_report(F, keys, action):
    """Per-element ratios, union dimension and certificates through canonical translates and sums."""
    per, certificates, union = {}, {}, F
    for key in keys:
        Fs = act_subspace(F, action, (key,) if isinstance(key, str) else key)
        per[key] = Fraction(quotient_dim(F, Fs), F.dim)
        merged = subspace_sum(F, Fs)
        certificates[key] = Fraction((merged.dim - F.dim) + (merged.dim - Fs.dim), F.dim)
        union = subspace_sum(union, Fs)
    return per, union.dim, certificates


def _random_span(rng, labels, field, d):
    rows = [[rng.randrange(3) for _ in labels] for _ in range(d)]
    return subspace_from_rows(rows, labels, field)


_RNG = random.Random(12)
_BOX = family_generate("lamp-box", 2)
_COMBINATION = FormalCombination(GF2, {"+1": 1, ("-1", "-1"): 1, "b": 1})
_MIXED = [("+1", "b"), "-1"]
_CYCLE = ["r", ("r", "r"), "r^-1"]


@pytest.mark.parametrize(
    "F, S, action, keys",
    [
        (family_generate("lamp-span", 3, GF2), LAMP_GENS, L, LAMP_GENS),
        (family_generate("lamp-span", 3, gf(3)), _MIXED, L, _MIXED),
        (family_generate("lamp-span", 2, RATIONALS), LAMP_GENS, L, LAMP_GENS),
        (_random_span(_RNG, _BOX, gf(3), 6), LAMP_GENS, L, LAMP_GENS),
        (_random_span(_RNG, _BOX, RATIONALS, 5), ["b", ("b", "+1")], L, ["b", ("b", "+1")]),
        (family_generate("lamp-span", 2, GF2), _COMBINATION, L, ["+1", ("-1", "-1"), "b"]),
        (family_generate("z-interval-span", 5, RATIONALS), ["+1", ("-1", "-1")], Z, ["+1", ("-1", "-1")]),
        (set_to_subspace([0, 1, 2, 5], GF2), ["+1", "-1"], Z, ["+1", "-1"]),
        (_random_span(_RNG, list(range(5)), gf(3), 3), _CYCLE, cycle_action(8), _CYCLE),
    ],
)
def test_report_matches_canonical_translates(F, S, action, keys):
    per, union_size, certificates = _canonical_report(F, keys, action)
    rep = subspace_report(F, S, action)
    assert list(rep.per_generator) == keys
    assert rep.per_generator == per
    assert rep.union_size == union_size
    assert subspace_to_function(F, S, action, samples=256, seed=7).certificates == certificates


@pytest.mark.parametrize("target", [0, 1])
def test_a_non_injective_element_is_a_domain_error(target):
    # "c" maps both labels onto one point, outside F or inside it
    collapse = GroupAction(name="collapse", moves={"c": lambda x: target}, inverses={"c": "c"})
    F = set_to_subspace([1, 2], GF2)
    with pytest.raises(DomainError, match="did not act injectively"):
        act_subspace(F, collapse, "c")
    with pytest.raises(DomainError, match="did not act injectively"):
        subspace_report(F, ["c"], collapse)
    # a combination maps (1, 2) to (1 + 2) e_target = 0 over GF(3); no word may merge labels
    G = subspace_from_rows([(1, 2)], [1, 2], gf(3))
    with pytest.raises(DomainError, match="did not act injectively"):
        act_subspace(G, collapse, FormalCombination(gf(3), {"c": 1}))


def test_report_is_relabeling_invariant():
    # shifting the whole configuration commutes with the action, so the
    # numbers depend only on the geometry, not on which labels appear
    pts = [0, 1, 2, 5]
    shifted = [x + 100 for x in pts]
    a = subspace_report(set_to_subspace(pts, GF2), ["+1", "-1"], Z)
    b = subspace_report(set_to_subspace(shifted, GF2), ["+1", "-1"], Z)
    assert a.per_generator == b.per_generator
    assert a.union_ratio == b.union_ratio


# ---------------------------------------------------------------------------
# subspaces to functions


def test_interval_span_certificates():
    for v in (2, 5, 9):
        sp = set_to_subspace(family_generate("z-interval", v), RATIONALS)
        w = subspace_to_function(sp, ["+1", "-1"], Z, samples=256, seed=11)
        assert w.certificates["+1"] == Fraction(2, v)
        assert w.certificates["-1"] == Fraction(2, v)
        # the interval span has a unique basis, so sampling is noiseless
        assert w.sampled_ratios["+1"] == Fraction(2, v)


def test_lamp_span_certificates():
    span = family_generate("lamp-span", 4, GF2)
    w = subspace_to_function(span, LAMP_GENS, L, samples=512, seed=13)
    assert w.certificates["b"] == 0
    assert w.certificates["+1"] == Fraction(2, 4)
    assert w.certificates["-1"] == Fraction(2, 4)
    # the relabeled empirical estimate differs from the exact one only by
    # sampling noise, bounded by the stated allowance
    assert float(w.sampled_ratios["b"]) <= w.tolerance
    assert float(w.sampled_ratios["+1"]) <= float(w.certificates["+1"]) + w.tolerance


def test_invariant_subspace_yields_invariant_function():
    act5 = cycle_action(5)
    sp = set_to_subspace(range(5), GF2)
    w = subspace_to_function(sp, ["r"], act5, samples=128, seed=3)
    assert w.certificates["r"] == 0
    assert w.sampled_ratios["r"] == 0  # f = fs exactly


def test_function_is_the_steiner_estimate():
    sp = subspace_from_rows([(1, 0, 1), (0, 1, 1)], [1, 2, 3], RATIONALS)
    w = subspace_to_function(sp, ["+1"], Z, samples=600, seed=21)
    est = estimate_steiner(SubspaceMatroid(sp), 600, 21)
    assert w.function.values == {
        lbl: val for lbl, val in zip(est.labels, est.vector) if val
    }
    assert w.function.l1() == sp.dim


def test_acting_elements_are_read_before_sampling(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the Steiner point was sampled before S was read")

    monkeypatch.setattr(folner, "estimate_steiner", unreachable)
    F = family_generate("lamp-span", 3, GF2)
    for samples in (20_000, 0):  # with bad S and a bad sample count, S is refused first
        with pytest.raises(DomainError, match="unknown generator 'zz'"):
            subspace_to_function(F, ["zz"], L, samples=samples, seed=1)


def test_sampled_ratios_are_the_function_report():
    for F, S, action in [
        (family_generate("lamp-span", 3, gf(3)), [("+1", "b"), "-1"], L),
        (family_generate("z-interval-span", 5, RATIONALS), ["+1", ("-1", "-1")], Z),
    ]:
        w = subspace_to_function(F, S, action, samples=256, seed=5)
        assert w.sampled_ratios == function_report(w.function, S, action)


# ---------------------------------------------------------------------------
# absorbing a finite piece


def test_absorb_subset_changes_nothing():
    core = list(range(1, 101))
    res = absorb_finite(core, [5, 6], ["+1", "-1"], Z)
    direct = set_report(core, ["+1", "-1"], Z)
    assert res.report.per_generator == direct.per_generator
    assert res.report.union_ratio == direct.union_ratio


def test_absorb_distant_point():
    core = list(range(1, 101))
    res = absorb_finite(core, [1000], ["+1", "-1"], Z)
    assert res.bound == Fraction(2 + 3, 100)
    assert res.report.union_ratio <= res.bound
    assert 1000 in res.combined


def test_absorb_subspaces():
    core = family_generate("lamp-span", 6, GF2)
    extra = subspace_from_rows([[1]], [((), 0)], GF2)
    res = absorb_finite(core, extra, LAMP_GENS, L)
    assert res.report.size == 7
    assert res.report.union_ratio <= res.bound
    assert contains_subspace(extra, res.combined)
    # independent recomputation of the combined report
    direct = subspace_report(subspace_sum(core, extra), LAMP_GENS, L)
    assert direct.union_ratio == res.report.union_ratio


def test_absorb_empty_set_counts_nothing():
    core = list(range(1, 11))
    res = absorb_finite(core, [], ["+1", "-1"], Z)
    assert res.bound == Fraction(2, 10) == res.report.union_ratio
    assert res.combined == tuple(core)


def test_absorb_zero_subspace_counts_nothing():
    core = family_generate("lamp-span", 3, GF2)
    res = absorb_finite(core, zero_subspace([LAMP_IDENTITY], GF2), LAMP_GENS, L)
    assert res.bound == subspace_report(core, LAMP_GENS, L).union_ratio == Fraction(2, 3)
    assert res.report.union_ratio == Fraction(2, 3)
    assert res.combined.dim == 3


def test_absorb_type_mismatch():
    core = family_generate("lamp-span", 2, GF2)
    with pytest.raises(ShapeError):
        absorb_finite(core, [LAMP_IDENTITY], LAMP_GENS, L)


# ---------------------------------------------------------------------------
# the round trip between sets and subspaces


def test_round_trip_families():
    for v in (2, 6, 12):
        pts = family_generate("z-interval", v)
        assert (
            subspace_report(set_to_subspace(pts, GF2), ["+1", "-1"], Z).union_ratio
            <= set_report(pts, ["+1", "-1"], Z).union_ratio
        )
    for n in (1, 2, 3):
        box = family_generate("lamp-box", n)
        assert (
            subspace_report(set_to_subspace(box, GF2), LAMP_GENS, L).union_ratio
            <= set_report(box, LAMP_GENS, L).union_ratio
        )


def test_certificate_then_layer_cake_round_trip():
    # subspace -> function -> set: the recovered set's per-generator
    # symmetric-difference ratio obeys the function's own defect
    span = family_generate("lamp-span", 3, GF2)
    w = subspace_to_function(span, LAMP_GENS, L, samples=512, seed=29)
    lc = layer_cake(w.function, LAMP_GENS, L)
    ratios = function_report(w.function, LAMP_GENS, L)
    for g in LAMP_GENS:
        _, best = lc.per_generator_best[g]
        assert best <= ratios[g]


# ---------------------------------------------------------------------------
# acting elements and points at the boundary

_NOT_ACTING = {
    "set": lambda: {"+1", "-1"},
    "generator": lambda: (g for g in ["+1", "-1"]),
    "int": lambda: 5,
    "set-as-one-element": lambda: [{"+1", "-1"}],
    "frozenset-combination-key": lambda: [FormalCombination(GF2, {frozenset({"+1"}): 1})],
}


@pytest.mark.parametrize("make", _NOT_ACTING.values(), ids=list(_NOT_ACTING))
def test_acting_elements_are_names_lists_tuples_or_combinations(make):
    # a set or a generator was read as the single word tuple(S): {"+1", "-1"}
    # could become the identity word ("-1", "+1") and report a ratio of 0
    interval = family_generate("z-interval", 4)
    f = WeightedFunction.indicator(interval)
    reports = [
        lambda S: set_report(interval, S, Z),
        lambda S: subspace_report(set_to_subspace(interval, GF2), S, Z),
        lambda S: function_report(f, S, Z),
        lambda S: layer_cake(f, S, Z),
        lambda S: iso_set_exact(Z, interval, S, 2),
    ]
    for report in reports:
        with pytest.raises(ShapeError, match="a group element is"):
            report(make())


def test_an_unhashable_letter_is_an_unknown_generator():
    interval = family_generate("z-interval", 4)
    f = WeightedFunction.indicator(interval)
    reports = [
        lambda S: set_report(interval, S, Z),
        lambda S: subspace_report(set_to_subspace(interval, GF2), S, Z),
        lambda S: function_report(f, S, Z),
        lambda S: layer_cake(f, S, Z),
        lambda S: iso_set_exact(Z, interval, S, 2),
    ]
    for report in reports:
        with pytest.raises(DomainError, match=r"unknown generator \['x'\] in a word"):
            report([["+1", ["x"]]])
    with pytest.raises(DomainError, match=r"unknown generator \{'\+1'\} in a word"):
        set_report([1, 2], [[{"+1"}]], Z)


def test_a_group_element_is_a_name_a_list_or_a_tuple():
    span = set_to_subspace(family_generate("z-interval", 3), GF2)
    for element in ({"+1"}, (g for g in ["+1"]), 5):
        with pytest.raises(ShapeError, match="a group element is"):
            Z.act_word(0, element)
        with pytest.raises(ShapeError, match="a group element is"):
            act_subspace(span, Z, element)
    assert Z.act_word(0, ["+1", "+1"]) == Z.act_word(0, ("+1", "+1")) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: set_report([[1], [2]], ["+1"], Z),
        lambda: set_to_subspace([[1], [2]], GF2),
    ],
    ids=["set_report", "set_to_subspace"],
)
def test_unhashable_points_are_a_shape_error(call):
    with pytest.raises(ShapeError, match="labels must be hashable"):
        call()


# ---------------------------------------------------------------------------
# the collector is paused inside the batch calls

NOTED = []  # gc.isenabled() as seen by the moves and labels below


def _noting(move):
    def noted(x):
        NOTED.append(gc.isenabled())
        return move(x)

    return noted


NOTED_Z = GroupAction("noted Z", {g: _noting(m) for g, m in Z.moves.items()}, Z.inverses, Z.validate)


class NotedInt(int):
    """An integer (a label or a count) that notes the collector's switch whenever it is compared."""

    def __lt__(self, other):
        NOTED.append(gc.isenabled())
        return int(self) < int(other)


def _noted_values(values):
    for v in values:
        NOTED.append(gc.isenabled())
        yield v


def _noted_span(field=GF2):
    return subspace_from_rows([[1, 1, 0], [0, 0, 1]], [NotedInt(2), NotedInt(0), NotedInt(1)], field)


WEIGHTS = WeightedFunction({0: 2, 1: 1, 3: 1})

# name -> (a call that returns, a call that raises); in each returning call a move or an
# argument notes the switch, read by the call itself, not only by a paused call nested in it
PAUSED_CALLS = {
    "subspace_from_rows": (_noted_span, lambda: subspace_from_rows([[1, 1]], [0, 0], GF2)),
    "act_subspace": (
        lambda: act_subspace(_noted_span(), NOTED_Z, "+1"),
        lambda: act_subspace(_noted_span(), NOTED_Z, "zz"),
    ),
    "family_generate": (lambda: family_generate("lamp-span", NotedInt(3), GF2), lambda: family_generate("nope", 2)),
    "set_report": (lambda: set_report([0, 1], "+1", NOTED_Z), lambda: set_report([], "+1", NOTED_Z)),
    "subspace_report": (
        lambda: subspace_report(family_generate("z-interval-span", 3, GF2), "+1", NOTED_Z),
        lambda: subspace_report(zero_subspace([0], GF2), "+1", NOTED_Z),
    ),
    "function_report": (lambda: function_report(WEIGHTS, "+1", NOTED_Z), lambda: function_report(WEIGHTS, "zz", NOTED_Z)),
    "layer_cake": (lambda: layer_cake(WEIGHTS, "+1", NOTED_Z), lambda: layer_cake(WEIGHTS, "zz", NOTED_Z)),
    "subspace_to_function": (
        lambda: subspace_to_function(family_generate("z-interval-span", 3, GF2), "+1", NOTED_Z, NotedInt(64), 1),
        lambda: subspace_to_function(zero_subspace([0], GF2), "+1", NOTED_Z, 64, 1),
    ),
    "iso_family_upper": (
        lambda: iso_family_upper("z-interval", _noted_values([1, 2]), "+1", NOTED_Z),
        lambda: iso_family_upper("z-interval", [2, 1], "+1", NOTED_Z),
    ),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", sorted(PAUSED_CALLS))
def test_a_batch_call_pauses_the_collector_and_leaves_it_as_it_found_it(name, enabled):
    returns, raises = PAUSED_CALLS[name]
    try:
        (gc.enable if enabled else gc.disable)()
        NOTED.clear()
        returns()
        assert gc.isenabled() is enabled
        assert NOTED and not any(NOTED)  # every move or comparison ran with it paused
        with pytest.raises(AmenabilityError):
            raises()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_paused_calls_names_every_call_that_pauses_the_collector():
    paused = _gc_paused(lambda: None).__code__  # the code of every paused wrapper
    found = {
        name
        for module_name, module in sys.modules.items()
        if module_name.startswith("amenability.")
        for name, fn in vars(module).items()
        if getattr(fn, "__code__", None) is paused
    }
    assert found == set(PAUSED_CALLS) and len(found) == 9


NOTED_SUMMANDS = (_noted_span(), subspace_from_rows([[1]], [NotedInt(5)], GF2))

# name -> a call that pauses nothing: no collection was seen to start inside it on the
# benchmark workloads, criteria or demos, so its moves and comparisons see the caller's switch
UNPAUSED_CALLS = {
    "ball": lambda: ball(NOTED_Z, 0, 2),
    "iso_set_exact": lambda: iso_set_exact(NOTED_Z, range(4), "+1", 2),
    "subspace_sum": lambda: subspace_sum(*NOTED_SUMMANDS),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", sorted(UNPAUSED_CALLS))
def test_an_unpaused_call_runs_under_the_callers_collector(name, enabled):
    try:
        (gc.enable if enabled else gc.disable)()
        NOTED.clear()
        UNPAUSED_CALLS[name]()
        assert NOTED and all(seen is enabled for seen in NOTED)
    finally:
        gc.enable()


def test_results_do_not_depend_on_the_callers_collector():
    Z2 = integer_lattice(2)
    window = [(x, y) for x in range(3) for y in range(4)]
    calls = [
        lambda: set_report(family_generate("lamp-box", 6), LAMP_GENS, L),
        lambda: subspace_report(family_generate("lamp-span", 6, GF2), LAMP_GENS, L),
        lambda: subspace_report(family_generate("lamp-span", 6, gf(3)), LAMP_GENS, L),
        lambda: iso_set_exact(Z2, window, Z2.generators, 12),
    ]
    try:
        on = [call() for call in calls]
        gc.disable()
        off = [call() for call in calls]
    finally:
        gc.enable()
    assert on == off


def test_weighted_function_refuses_values_that_are_not_a_mapping():
    # once a raw AttributeError from list.items
    for values in ([1, 2], None, "ab"):
        with pytest.raises(ShapeError, match="values must map points to rationals"):
            WeightedFunction(values)


def test_indicator_refuses_points_that_are_not_hashable():
    # once a raw TypeError from the dict of points
    assert WeightedFunction.indicator([2, 1]).values == {2: 1, 1: 1}
    for points in ([[1]], 5):
        with pytest.raises(ShapeError, match="points must be an iterable of hashable points"):
            WeightedFunction.indicator(points)
