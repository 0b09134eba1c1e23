"""Lamplighter order keys, with the tuple-by-tuple path as the oracle.

Each case is built from raw inputs twice: as the library runs, and with
the codec switched off (``linalg._lamp_keys`` and ``groups._lamp_box_keys``
giving None), which is the path every label took before keys existed.
Results must be equal, label objects' types included, and so must errors.
"""

import dataclasses
import random
from itertools import combinations

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    AmenabilityError,
    LabeledSubspace,
    LampElement,
    act_subspace,
    align_pair,
    family_generate,
    finite_action,
    gf,
    lamplighter,
    subspace_from_rows,
    subspace_sum,
    zero_subspace,
)
from amenability import groups, linalg
from amenability.linalg import _LAMP_FRAME, _key_masks, _lamp_keys

L = lamplighter()
LAMP_GENS = ("+1", "-1", "b")
LO, HI = _LAMP_FRAME.start, _LAMP_FRAME.stop - 1
W = len(_LAMP_FRAME)
FIELDS = pytest.mark.parametrize("field", [GF2, gf(3), RATIONALS], ids=["gf2", "gf3", "q"])
WORDS = [
    "+1", "-1", "b", (), ("+1", "b"), ["b", "-1", "b", "+1"], ("+1", "-1"),
    ("b", "b"), ("-1",) * 3, ("b", "+1", "b"), ("+1", "+1", "b", "-1"),
]


def _outcome(call):
    """A call's result, or the type and message of the library error it raised."""
    try:
        return call()
    except AmenabilityError as exc:
        return type(exc), str(exc)


def _by_tuples(call):
    """``_outcome(call)`` with no label given order keys."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_lamp_keys", lambda labels: None)
        mp.setattr(groups, "_lamp_box_keys", lambda n: None)
        return _outcome(call)


def _fresh(space: LabeledSubspace):
    """``space``'s cached keys, after checking them against a fresh encoding."""
    if space._keys is not None:
        assert np.array_equal(space._keys, _lamp_keys(list(space.labels)))
    return space._keys


def _same(got, want) -> None:
    """Equal outcomes: equal errors, or equal results down to each label object's type."""
    if isinstance(want, tuple) and not isinstance(want, LabeledSubspace):
        got, want = list(got), list(want)
    else:
        got, want = [got], [want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        if isinstance(w, LabeledSubspace):
            assert g.labels == w.labels
            assert list(map(type, g.labels)) == list(map(type, w.labels))
            assert w._keys is None
            _fresh(g)


def _check(build) -> object:
    """``build()`` both ways, the outcomes compared; the keyed one is returned."""
    got = _outcome(build)
    _same(got, _by_tuples(build))
    return got


def _lamp_labels(rng, lo, hi, count, mixed=True) -> list:
    """``count`` distinct lamplighter labels with positions in lo..hi, LampElements and plain tuples mixed."""
    out = set()
    while len(out) < count:
        lamps = tuple(sorted(rng.sample(range(lo, hi + 1), rng.randrange(min(6, hi - lo + 1) + 1))))
        out.add((lamps, rng.randint(lo, hi)))
    out = sorted(out)
    rng.shuffle(out)
    return [LampElement(*x) if mixed and rng.random() < 0.5 else x for x in out]


def _rows(rng, field, d, n) -> list:
    p = field.characteristic
    return [[rng.randrange(p) if p else rng.randrange(-2, 3) for _ in range(n)] for _ in range(d)]


# ---------------------------------------------------------------------------
# the codec


def test_order_keys_sort_lamp_labels_as_tuples():
    rng = random.Random(23)
    for _ in range(300):
        lo = rng.randint(LO, HI)
        hi = rng.randint(lo, min(HI, lo + rng.choice((3, 10, 60))))
        labels = _lamp_labels(rng, lo, hi, rng.randint(1, min(40, 2 ** (hi - lo + 1))))
        keys = _lamp_keys(labels)
        assert keys.dtype == np.int64 and keys.shape == (len(labels),)
        order = sorted(range(len(labels)), key=labels.__getitem__)
        assert np.argsort(keys, kind="stable").tolist() == order
        ranked = keys[order]
        assert (ranked[1:] > ranked[:-1]).all()
        masks = _key_masks(ranked)  # the rank undone
        assert np.array_equal(linalg._order_keys(masks, ranked % W), ranked)


@pytest.mark.parametrize("span", [range(LO, LO + 10), range(HI - 9, HI + 1), range(-4, 6)])
def test_order_keys_follow_the_lexicographic_order_of_every_lamp_set(span):
    # every subset of ten frame positions, with every head among them
    sets = sorted(s for k in range(len(span) + 1) for s in combinations(span, k))
    labels = [(s, t) for s in sets for t in (span[0], span[-1])]
    keys = _lamp_keys(labels)
    assert (keys[1:] > keys[:-1]).all()


def test_order_keys_are_lexicographic_ranks_times_the_frame_width():
    def key(lamps, head):
        return int(_lamp_keys([(tuple(lamps), head)])[0])

    assert key((), LO) == 0
    assert key((LO,), LO) == W  # rank 1: only () comes first
    assert key((LO, LO + 1), HI) == 2 * W + W - 1
    assert key((LO + 1,), LO) == (1 + 2 ** (W - 1)) * W  # after () and every set that starts at LO
    assert key((HI,), HI) == 2**W * W - 1  # the last set and head: the largest key, which fits int64
    assert 2**W * W - 1 < 2**63 <= 2 ** (W + 1) * (W + 1) - 1


def test_order_keys_hold_the_frame_and_refuse_one_past_it():
    assert _lamp_keys([((LO, HI), LO), ((), HI)]) is not None
    for outside in ([((LO - 1,), 0)], [((HI + 1,), 0)], [((), LO - 1)], [((), HI + 1)], [((), 10**30)]):
        assert _lamp_keys([((), 0)] + outside) is None


@pytest.mark.parametrize(
    "labels",
    [
        [((), True)],  # a bool is an int, but not an exact one
        [((True,), 0)],
        [((2, 1), 0)],  # unsorted lamps
        [((1, 1), 0)],
        [([1], 2)],  # list lamps
        [((), np.int64(3))],
        [((), 1.0)],
        [((), 0, 1)],
        [((), 0), ((), 0, 1)],
        [((), 0), 5],
        [((), 0), [(), 1]],
        [(0, 0)],  # a Z^2 point
        [5],
        [],
    ],
)
def test_labels_the_codec_cannot_vouch_for_have_no_keys(labels):
    assert _lamp_keys(labels) is None


# ---------------------------------------------------------------------------
# relabels, sums and the cache, against the tuple-by-tuple path


def _spans(rng, field) -> list:
    """Makers of lamp subspaces from raw inputs: family spans, translates, rebuilt and random ones."""
    box = [tuple(x) if rng.random() < 0.5 else x for x in family_generate("lamp-box", 3)]
    rng.shuffle(box)
    heads = np.array([t for _, t in box])
    indicator = (heads[None, :] == np.arange(1, 4)[:, None]).astype(np.int64)
    scattered = _lamp_labels(rng, -3, 3, 24)
    edge = _lamp_labels(rng, HI - 3, HI, 12)  # heads at the frame's edge: +1 leaves it
    rows_s, rows_e = _rows(rng, field, 3, len(scattered)), _rows(rng, field, 2, len(edge))
    return [
        lambda: family_generate("lamp-span", 3, field),
        lambda: act_subspace(family_generate("lamp-span", 4, field), L, "-1"),
        lambda: act_subspace(family_generate("lamp-span", 2, field), L, ("+1", "b")),
        lambda: subspace_from_rows(indicator, box, field),
        lambda: subspace_from_rows(rows_s, scattered, field),
        lambda: subspace_from_rows(rows_e, edge, field),
        lambda: zero_subspace(scattered, field),
    ]


@FIELDS
def test_lamp_relabels_match_the_tuple_path(field):
    rng = random.Random(31 + field.characteristic)
    keyed = 0
    for make in _spans(rng, field):
        _same(_outcome(make), _by_tuples(make))
        for word in WORDS:
            G = _check(lambda: act_subspace(make(), L, word))
            keyed += G._keys is not None
    assert keyed > 0


@FIELDS
def test_lamp_sums_and_alignments_match_the_tuple_path(field):
    rng = random.Random(37 + field.characteristic)
    makers = _spans(rng, field)
    for make_e, make_f in combinations(makers, 2):
        for E, F in ((make_e, make_f), (make_f, make_e)):
            total = _check(lambda: subspace_sum(E(), F()))
            _check(lambda: align_pair(E(), F()))
            assert total._keys is not None or E()._keys is None or F()._keys is None


def test_where_two_sides_share_a_label_the_union_holds_the_first_sides_object():
    span = family_generate("lamp-span", 2, GF2)  # LampElement labels
    plain = subspace_from_rows(np.eye(len(span.labels), dtype=np.int64), [tuple(x) for x in span.labels], GF2)
    shifted = act_subspace(span, L, "+1")
    for E, F in ((span, plain), (plain, shifted), (shifted, plain)):
        for union in (subspace_sum(E, F).labels, align_pair(E, F)[0].labels):
            first = dict(zip(E.labels, E.labels))
            assert all(type(x) is type(first.get(x, x)) for x in union)
            assert [x for x in union if x in first] == list(E.labels)


def test_the_cached_keys_are_the_labels_keys_after_every_operation():
    span = family_generate("lamp-span", 4, gf(3))
    assert _fresh(span) is not None
    moved = [act_subspace(span, L, w) for w in WORDS]
    rebuilt = subspace_from_rows(np.asarray(span.basis), list(reversed(span.labels)), gf(3))
    sums = [subspace_sum(span, G) for G in moved] + [subspace_sum(moved[0], moved[2])]
    aligned = [sp for G in moved for sp in align_pair(G, span)]
    for space in [rebuilt, *moved, *sums, *aligned]:
        assert _fresh(space) is not None
    assert rebuilt == span and rebuilt._keys is not span._keys


def test_the_lamp_span_chain_runs_on_keys(monkeypatch):
    # a counting stand-in for each step of the tuple-by-tuple path
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))

    for name in ("_label_images", "_sorted_labels", "_label_set"):
        counted(linalg, name)
    counted(LabeledSubspace, "label_index")
    rng = random.Random(5)
    for field in (GF2, gf(3), RATIONALS):
        n = 5
        points = [tuple(x) for x in family_generate("lamp-box", n)]
        rng.shuffle(points)
        heads = np.array([t for _, t in points])
        rows = (heads[None, :] == np.arange(1, n + 1)[:, None]).astype(np.int64)
        F = family_generate("lamp-span", n, field)
        rebuilt = subspace_from_rows(rows, points, field)
        translates = {s: act_subspace(F, L, s) for s in LAMP_GENS}
        union = F
        for s in LAMP_GENS:
            union = subspace_sum(union, translates[s])
        assert calls == []
        for space in (F, rebuilt, *translates.values(), union):
            assert _fresh(space) is not None  # the tuple-by-tuple merge leaves none
        assert rebuilt == F and translates["b"] == F and union.dim == n + 2


# ---------------------------------------------------------------------------
# inputs that take the tuple-by-tuple path


LAMP_SHAPED = [((), 0), ((1,), 0), ((), 1), ((0, 1), 1)]


def _lamp_shaped_action():
    """A finite action on points that look like lamplighter labels, with a move of its own."""
    p = LAMP_SHAPED
    return finite_action("lamp-shaped", p, {"g": [p[2], p[0], p[3], p[1]]})


FALLBACKS = {
    "bool-head": lambda f: act_subspace(subspace_from_rows([[1, 1]], [((), True), ((1,), 2)], f), L, "+1"),
    "bool-lamp": lambda f: act_subspace(subspace_from_rows([[1, 0]], [((True,), 0), ((), 1)], f), L, "b"),
    "unsorted-lamps": lambda f: act_subspace(subspace_from_rows([[1, 1]], [((2, 1), 0), ((), 1)], f), L, "+1"),
    "unsorted-lamps-span": lambda f: subspace_from_rows([[1, 2]], [((2, 1), 0), ((), 1)], f),
    "list-lamps": lambda f: subspace_from_rows([[1]], [([1], 2)], f),
    "repeated-labels": lambda f: subspace_from_rows(5, [((), 0), LampElement((), 0)], f),
    "bad-rows": lambda f: subspace_from_rows([[1, 2, 3]], [((), 0), ((), 1)], f),
    "labels-out-of-frame": lambda f: act_subspace(subspace_from_rows([[1, 1]], [((HI + 1,), 0), ((), 0)], f), L, "b"),
    "heads-leave-the-frame": lambda f: act_subspace(subspace_from_rows([[1, 1]], [((), HI), ((LO,), LO)], f), L, "+1"),
    "head-leaves-on-a-toggle-word": lambda f: act_subspace(
        subspace_from_rows([[1, 1]], [((), LO), ((), 0)], f), L, ("-1", "b")
    ),
    "lamp-shaped-finite-action": lambda f: act_subspace(
        subspace_from_rows([[1, 1, 0, 1]], LAMP_SHAPED, f), _lamp_shaped_action(), "g"
    ),
    "replace-copy": lambda f: act_subspace(
        dataclasses.replace(act_subspace(family_generate("lamp-span", 2, f), L, "+1")), L, "b"
    ),
    "replace-copy-sum": lambda f: subspace_sum(
        dataclasses.replace(family_generate("lamp-span", 2, f)), act_subspace(family_generate("lamp-span", 2, f), L, "-1")
    ),
    "unknown-generator": lambda f: act_subspace(family_generate("lamp-span", 2, f), L, ("+1", "zz")),
    "unhashable-letter": lambda f: act_subspace(family_generate("lamp-span", 2, f), L, [["+1"]]),
    "not-a-word": lambda f: act_subspace(family_generate("lamp-span", 2, f), L, 5),
    "other-field": lambda f: subspace_sum(family_generate("lamp-span", 2, f), family_generate("lamp-span", 2, gf(5))),
}


@FIELDS
@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_inputs_without_keys_give_the_tuple_paths_outcome(name, field):
    _check(lambda: FALLBACKS[name](field))
