import dataclasses
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from amenability import (
    GF2,
    RATIONALS,
    CapacityError,
    DomainError,
    InvalidFieldError,
    LAMP_IDENTITY,
    LampElement,
    ShapeError,
    ball,
    base_point,
    family_generate,
    finite_action,
    free_group,
    gf,
    integer_lattice,
    integer_line,
    lamp_inverse,
    lamp_multiply,
    lamplighter,
    parse_group,
    permutation_action_from_json,
    subspace_from_rows,
)
from amenability.groups import _lamp_valid

Z = integer_line()
L = lamplighter()
F2 = free_group(2)


# ---------------------------------------------------------------------------
# acting on points


def test_line_steps():
    assert Z.act_word(5, "+1") == 6
    assert Z.act_word(5, ("+1", "+1", "-1")) == 6


def test_lamp_toggle_at_origin():
    assert L.act_word(LAMP_IDENTITY, "b") == ((0,), 0)


def test_lamp_toggle_is_shifted_by_the_head():
    # right multiplication shifts the incoming lamp by the head position
    assert L.act_word(LampElement((0,), 3), "b") == ((0, 3), 3)


def test_unknown_generator_is_a_malformed_word():
    with pytest.raises(DomainError):
        Z.act_word(0, "nope")


def test_points_are_validated():
    with pytest.raises(DomainError):
        Z.act_word("zero", "+1")
    with pytest.raises(DomainError):
        L.act_word(((3, 1), 0), "b")  # unsorted lamp support


@pytest.mark.parametrize(
    "point, valid",
    [
        (((), 0), True),
        (((-2, 0, 5), 3), True),
        (LampElement((1, 2), -4), True),
        (((False, True), 0), True),  # bools are ints, and False < True
        (((3, 1), 0), False),  # unsorted lamps
        (((1, 1), 0), False),  # duplicate lamps
        (((1, True), 0), False),  # True == 1: a duplicate
        (((1, 2.0), 0), False),  # non-int lamp
        (((1, "2"), 0), False),
        (([1, 2], 0), False),  # lamps as a list
        (((1,), 0, 0), False),  # wrong arity
        (((1,),), False),
        ((), False),
        (7, False),
        (((1,), 0.0), False),  # non-int head
        (((1,), "0"), False),
    ],
)
def test_lamp_points_are_validated(point, valid):
    assert _lamp_valid(point) is valid


def test_lattice_steps():
    Z2 = integer_lattice(2)
    assert Z2.act_word((0, 0), "+e2") == (0, 1)
    assert integer_lattice(np.int64(2)).act_word((0, 0), "+e2") == (0, 1)
    assert Z2.act_word((4, -1), ("-e1", "-e1")) == (2, -1)


def test_free_group_reduction():
    assert free_group(np.int8(2)).generators == F2.generators
    assert F2.act_word((), "a") == (1,)
    assert F2.act_word((1,), "A") == ()
    assert F2.act_word((1,), "b") == (1, 2)


# ---------------------------------------------------------------------------
# generator/inverse round trips and the lamplighter group law


def random_point(action, rng):
    if action.name == "Z":
        return rng.randrange(-50, 50)
    if action.name.startswith("Z^"):
        d = int(action.name[2:])
        return tuple(rng.randrange(-9, 9) for _ in range(d))
    if action.name == "lamplighter":
        support = tuple(sorted(rng.sample(range(-6, 7), rng.randrange(0, 5))))
        return LampElement(support, rng.randrange(-6, 7))
    if action.name == "hexagon":
        return rng.choice(HEXAGON_POINTS)
    if action.name.startswith("free:"):
        word = ()
        for _ in range(rng.randrange(0, 6)):
            g = rng.choice(action.generators)
            word = action.apply(word, g)
        return word
    raise AssertionError(action.name)


HEXAGON_POINTS = [(0, k) for k in range(6)]
HEXAGON = finite_action(
    "hexagon",
    HEXAGON_POINTS,
    {"r": [(0, (k + 1) % 6) for k in range(6)], "s": [(0, -k % 6) for k in range(6)]},
)


@pytest.mark.parametrize(
    "factory", [integer_line, lambda: integer_lattice(3), lamplighter, lambda: free_group(2), lambda: HEXAGON]
)
def test_generator_inverse_round_trip(factory):
    action = factory()
    rng = random.Random(101)
    for _ in range(1000):
        x = random_point(action, rng)
        g = rng.choice(action.generators)
        y = action.act_word(x, g)
        assert action.act_word(y, action.inverses[g]) == x


@pytest.mark.parametrize(
    "action, generators",
    [
        (Z, ("+1", "-1")),
        (integer_lattice(3), ("+e1", "-e1", "+e2", "-e2", "+e3", "-e3")),
        (L, ("+1", "-1", "b")),
        (free_group(3), ("a", "b", "c", "A", "B", "C")),
        (HEXAGON, ("r", "r^-1", "s", "s^-1")),
    ],
    ids=["Z", "Z^3", "lamplighter", "free:3", "finite"],
)
def test_an_action_is_one_move_per_generator(action, generators):
    assert action.generators == tuple(action.moves) == generators
    assert set(action.inverses) == set(action.moves)
    for g in action.moves:
        assert action.inverses[action.inverses[g]] == g
    x = HEXAGON_POINTS[0] if action is HEXAGON else base_point(action)
    assert [action.apply(x, g) for g in generators] == [action.act_word(x, g) for g in generators]
    for bad in ("zz", 5, ["+1"]):  # no name falls through to some other move
        with pytest.raises(DomainError, match=re.escape(f"unknown generator {bad!r} in a word")):
            action.apply(x, bad)


def test_a_lattice_of_dimension_one_is_the_line():
    line = integer_lattice(1)
    assert (line.name, line.generators, line.base) == ("Z", ("+1", "-1"), 0)
    assert line.act_word(3, ("+1", "+1")) == 5
    with pytest.raises(ShapeError, match="lattice dimension must be positive"):
        integer_lattice(0)


@pytest.mark.parametrize(
    "action",
    [Z, integer_lattice(3), L, F2, HEXAGON],
    ids=["Z", "Z^3", "lamplighter", "free:2", "finite"],
)
def test_words_take_valid_points_to_valid_points(action):
    # act_word checks only the start point; every image must still be a point
    rng = random.Random(103)
    for _ in range(300):
        x = rng.choice(HEXAGON_POINTS) if action is HEXAGON else random_point(action, rng)
        word = tuple(rng.choice(action.generators) for _ in range(rng.randrange(1, 9)))
        y = action.act_word(x, word)
        assert action.validate(y)
        stepped = x
        for g in word:
            stepped = action.act_word(stepped, g)  # one generator per call: each point is checked
        assert y == stepped


@pytest.mark.parametrize(
    "action, bad",
    [
        (Z, "zero"),
        (Z, 1.5),
        (integer_lattice(2), (1,)),
        (L, ((3, 1), 0)),
        (L, ([1], 0)),
        (F2, (1, -1)),
        (F2, (3,)),
        (HEXAGON, (0, 6)),
        (F2, ("a", "b")),  # letters that are not ints
    ],
)
def test_invalid_start_points_still_raise(action, bad):
    with pytest.raises(DomainError, match="is not a point"):
        action.act_word(bad, action.generators[0])
    with pytest.raises(DomainError, match="is not a point"):
        action.act_word(bad, (action.generators[0],) * 3)


def test_unknown_generators_still_raise_anywhere_in_a_word():
    with pytest.raises(DomainError, match="unknown generator"):
        Z.act_word(0, ("+1", "+1", "nope"))
    with pytest.raises(DomainError, match="unknown generator"):
        L.act_word("not a point", ("nope", "b"))  # the word is read left to right
    for word in ([{"+1"}], ("+1", ["x"]), [["+1"]]):  # an unhashable letter names no generator
        with pytest.raises(DomainError, match="unknown generator"):
            Z.act_word(0, word)
        with pytest.raises(DomainError, match="unknown generator"):
            list(L.act_points([LAMP_IDENTITY], [word]))


def _first_outcome(fn):
    try:
        return fn()
    except DomainError as exc:
        return ("raised", str(exc))


def _act_word_by_word(action, points, words):
    """act_points as a word acting point by point, word by word, read left to right."""

    def act(x, word):
        for i, g in enumerate((word,) if isinstance(word, str) else word):
            if g not in action.inverses:
                raise DomainError(f"unknown generator {g!r} in a word")
            if i == 0:
                action.check_point(x)
            x = action.apply(x, g)
        return x

    return [[act(x, w) for x in points] for w in words]


BAD_POINTS = {"Z": ["zero", 1.5], "Z^3": [(1,), (1, 2, "3")], "lamplighter": [((3, 1), 0), "x"],
              "free:2": [(1, -1), (3,)], "hexagon": [(0, 6), "x"]}


@pytest.mark.parametrize(
    "action",
    [Z, integer_lattice(3), L, F2, HEXAGON],
    ids=["Z", "Z^3", "lamplighter", "free:2", "finite"],
)
def test_act_points_raise_what_act_word_raises_first(action):
    # the first error met acting word by word, point by point: unknown
    # generators at the start or later in a word, invalid points anywhere,
    # empty words (which check nothing) and bare generator names
    rng = random.Random(107)
    names = list(action.generators) + ["nope"]
    for _ in range(400):
        k = rng.randrange(0, 5)
        points = [rng.choice(HEXAGON_POINTS) if action is HEXAGON else random_point(action, rng) for _ in range(k)]
        for _ in range(rng.randrange(0, 3) if rng.random() < 0.4 else 0):
            points.insert(rng.randrange(len(points) + 1), rng.choice(BAD_POINTS[action.name]))
        words = []
        for _ in range(rng.randrange(1, 4)):
            word = tuple(rng.choice(names) if rng.random() < 0.1 else rng.choice(action.generators)
                         for _ in range(rng.randrange(0, 4)))
            words.append(word[0] if len(word) == 1 and rng.random() < 0.5 else word)
        expected = _first_outcome(lambda: _act_word_by_word(action, points, words))
        assert _first_outcome(lambda: list(action.act_points(points, words))) == expected
        for w in words:
            expected = _first_outcome(lambda: _act_word_by_word(action, points[:1], [w]))
            assert _first_outcome(lambda: [[action.act_word(x, w) for x in points[:1]]]) == expected


def test_act_points_check_each_point_once():
    calls = []

    def counted(x):
        calls.append(x)
        return isinstance(x, int)

    line = dataclasses.replace(Z, validate=counted)
    points = list(range(10))
    images = list(line.act_points(points, ["+1", ("-1", "-1"), (), ("+1",) * 5]))
    assert images == [[x + 1 for x in points], [x - 2 for x in points], points, [x + 5 for x in points]]
    assert calls == points
    calls.clear()
    assert list(line.act_points(points, [(), ()])) == [points, points] and calls == []
    assert list(line.act_points([], ["nope"])) == [[]]


def test_lamplighter_associativity_against_the_group_law():
    rng = random.Random(55)
    gens = {"+1": LampElement((), 1), "-1": LampElement((), -1), "b": LampElement((0,), 0)}
    for _ in range(300):
        x = random_point(L, rng)
        g = rng.choice(L.generators)
        h = rng.choice(L.generators)
        stepped = L.act_word(L.act_word(x, g), h)
        gh = lamp_multiply(gens[g], gens[h])
        assert stepped == lamp_multiply(x, gh)


def test_lamp_inverse_is_a_group_inverse():
    rng = random.Random(56)
    for _ in range(100):
        x = random_point(L, rng)
        assert lamp_multiply(x, lamp_inverse(x)) == LAMP_IDENTITY
        assert lamp_multiply(lamp_inverse(x), x) == LAMP_IDENTITY


# ---------------------------------------------------------------------------
# balls


def test_line_ball_sizes():
    assert len(ball(Z, 0, 3)) == 7
    assert ball(Z, 0, np.int64(1)) == (-1, 0, 1)
    assert ball(Z, 2, 0) == (2,)


def test_free_ball_sizes():
    # 1 + 4 + 4*3 points within radius 2
    assert len(ball(F2, (), 2)) == 17


def test_ball_cap():
    with pytest.raises(CapacityError):
        ball(F2, (), 8, cap=100)


def test_negative_radius():
    with pytest.raises(ShapeError):
        ball(Z, 0, -1)
    with pytest.raises(ShapeError, match="radius must be nonnegative"):
        ball(Z, 0, -1.5)
    with pytest.raises(DomainError):
        ball(Z, "x", 1.5)  # the base point is checked before the radius's type


def test_lamp_box_is_closed_under_the_lamp_generator():
    for n in (1, 2, 3, 4):
        box = set(family_generate("lamp-box", n))
        assert {L.act_word(x, "b") for x in box} == box


# ---------------------------------------------------------------------------
# families


def test_lamp_box_counts():
    assert len(family_generate("lamp-box", 2)) == 8
    assert len(family_generate("lamp-box", np.int32(2))) == 8
    for n in (1, 3, 5):
        assert len(family_generate("lamp-box", n)) == (1 << n) * n


def test_lamp_box_is_the_sorted_brute_force_box():
    # oracle: one point per (lamp mask, head), built with the namedtuple and sorted
    for n in range(1, 11):
        brute = sorted(
            LampElement(tuple(k for k in range(1, n + 1) if mask >> (k - 1) & 1), t)
            for mask in range(1 << n)
            for t in range(1, n + 1)
        )
        box = family_generate("lamp-box", n)
        assert box == tuple(brute)
        assert all(type(x) is LampElement for x in box)


def test_lamp_moves_build_lamp_elements():
    # from a LampElement or a plain tuple alike
    rng = random.Random(57)
    for _ in range(100):
        x = random_point(L, rng)
        for g in L.generators:
            assert type(L.apply(x, g)) is LampElement
            assert type(L.apply(tuple(x), g)) is LampElement


def test_lamp_span_dimension():
    for p in (2, 3):
        assert family_generate("lamp-span", 3, gf(p)).dim == 3


def test_z_families():
    assert family_generate("z-interval", 5) == (1, 2, 3, 4, 5)
    assert family_generate("z-interval", np.int64(3)) == (1, 2, 3)
    sp = family_generate("z-interval-span", 4, GF2)
    assert sp.dim == 4
    assert sp.labels == (1, 2, 3, 4)


@pytest.mark.parametrize("p", [2, 3, 7, 2_147_483_647])
@pytest.mark.parametrize("kind", ["z-interval-span", "lamp-span"])
def test_family_span_bases_are_their_read_only_rows(kind, p):
    # the 0/1 rows are residues for every p: stored as built, with no reduced copy
    for n in range(1, 6):
        sp = family_generate(kind, n, gf(p))
        rows = np.eye(n, dtype=np.int64)
        if kind == "lamp-span":
            rows = np.tile(rows, 1 << n)
        assert sp == subspace_from_rows(rows, sp.labels, gf(p))  # the canonical span of the rows
        assert np.array_equal(sp.basis, rows)
        assert sp.basis.dtype == np.int64 and sp.basis.flags.c_contiguous
        assert not sp.basis.flags.writeable
        with pytest.raises(ValueError):
            sp.basis[0, 0] = 0



@pytest.mark.parametrize("kind", ["z-interval-span", "lamp-span"])
def test_family_span_bases_over_q_are_fraction_rows(kind):
    for n in range(1, 5):
        sp = family_generate(kind, n, RATIONALS)
        assert sp == subspace_from_rows(sp.basis_rows(), sp.labels, RATIONALS)
        assert type(sp.basis) is tuple and all(type(x) is Fraction for row in sp.basis for x in row)


class _NoShift(int):
    """An integer that may be compared but not shifted by."""

    def __rlshift__(self, other):
        raise AssertionError(f"{other} << {int(self)} was computed")


@pytest.mark.parametrize("kind, field", [("lamp-box", None), ("lamp-span", GF2)])
@pytest.mark.parametrize("n", [17, 21, 10**6, 10**30])
def test_lamp_families_past_the_cap_are_refused_before_shifting(kind, field, n):
    # n = 10^30 once raised a raw OverflowError from (1 << n) * n; n = 17 is the first refused
    with pytest.raises(CapacityError, match="^lamp families are capped at 1048576 points$"):
        family_generate(kind, _NoShift(n) if n >= 21 else n, field)


def test_family_capacity_and_validation():
    with pytest.raises(CapacityError):
        family_generate("lamp-box", 30)
    with pytest.raises(DomainError):
        family_generate("no-such-family", 3)
    with pytest.raises(ShapeError):
        family_generate("lamp-box", 0)
    with pytest.raises(InvalidFieldError):
        family_generate("lamp-span", 3)  # needs a field
    # a parameter that is no integer does not hide these
    with pytest.raises(ShapeError, match="at least 1"):
        family_generate("lamp-box", 0.5)
    with pytest.raises(DomainError):
        family_generate("no-such-family", 2.5)
    with pytest.raises(InvalidFieldError):
        family_generate("lamp-span", 2.5)


_NOT_COUNTS = {
    "lamp-box-2.5": lambda: family_generate("lamp-box", 2.5),
    "z-interval-str": lambda: family_generate("z-interval", "3"),
    "z-interval-bool": lambda: family_generate("z-interval", True),
    "z-interval-span-2.0": lambda: family_generate("z-interval-span", 2.0, GF2),
    "ball-radius-1.5": lambda: ball(Z, 0, 1.5),
    "ball-radius-str": lambda: ball(Z, 0, "1"),
    "ball-cap-str": lambda: ball(Z, 0, 2, cap="x"),
    "ball-cap-2.5": lambda: ball(Z, 0, 2, cap=2.5),
    "lattice-2.0": lambda: integer_lattice(2.0),
    "lattice-bool": lambda: integer_lattice(True),
    "free-rank-2.5": lambda: free_group(2.5),
}


@pytest.mark.parametrize("call", _NOT_COUNTS.values(), ids=list(_NOT_COUNTS))
def test_counts_must_be_integers(call):
    with pytest.raises(ShapeError, match="must be an integer"):
        call()


# ---------------------------------------------------------------------------
# finite permutation actions and group specs


def test_finite_action_from_json(tmp_path):
    doc = {
        "name": "triangle",
        "points": [0, 1, 2],
        "generators": {"r": [1, 2, 0]},
    }
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(doc))
    action = permutation_action_from_json(str(path))
    assert action.act_word(0, "r") == 1
    assert action.act_word(0, "r^-1") == 2
    orbit = ball(action, 0, 5)
    assert orbit == (0, 1, 2)


def test_finite_action_validates_permutations():
    with pytest.raises(ShapeError):
        finite_action("bad", [0, 1], {"g": [0, 0]})


def test_finite_action_reads_nested_lists_as_tuples():
    doc = {"points": [[1, [2]], [3]], "generators": {"r": [[3], [1, [2]]]}}
    action = permutation_action_from_json(doc)
    assert action.act_word((1, (2,)), "r") == (3,)
    assert action.act_word((3,), "r^-1") == (1, (2,))


@pytest.mark.parametrize(
    "points, images, message",
    [
        ([1, "a"], ["a", 1], "points must be mutually comparable"),
        ([1, {"a": 1}], [{"a": 1}, 1], "points must be hashable"),
        ([1, 2], [1, {"a": 1}], "generator 'r' is not a permutation of the points"),
    ],
)
def test_finite_action_rejects_points_that_cannot_be_labels(points, images, message):
    with pytest.raises(ShapeError, match=message):
        permutation_action_from_json({"points": points, "generators": {"r": images}})


def test_finite_action_rejects_a_generator_named_like_a_derived_inverse():
    # "g^-1" would overwrite the inverse table derived from "g".
    doc = {"points": [0, 1, 2], "generators": {"g": [1, 2, 0], "g^-1": [2, 0, 1]}}
    with pytest.raises(ShapeError, match=r"'g\^-1' collides"):
        permutation_action_from_json(doc)
    action = permutation_action_from_json({"points": [0, 1, 2], "generators": {"g^-1": [1, 2, 0]}})
    assert action.inverses == {"g^-1": "g^-1^-1", "g^-1^-1": "g^-1"}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: finite_action("f", [0, 1], {5: [1, 0]}), "generator names must be strings, not 5"),
        (lambda: finite_action("f", [0, 1], [[1, 0]]), "generators must map names to permutations"),
        (lambda: permutation_action_from_json([1, 2]), "a permutation action document must be a JSON object"),
        (lambda: permutation_action_from_json({"points": [0, 1], "generators": [[1, 0]]}),
         "generators must map names to permutations"),
    ],
)
def test_malformed_permutation_documents_are_shape_errors(call, message):
    with pytest.raises(ShapeError, match=message):
        call()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"points": 5, "generators": {}}, "points must be a list, not 5"),
        ({"points": [0, 1], "generators": {"r": 5}}, "generator 'r' must map to a list of images, not 5"),
    ],
    ids=["points-not-a-list", "images-not-a-list"],
)
def test_permutation_documents_whose_points_or_images_are_not_lists_are_shape_errors(doc, message):
    # these once escaped as a raw TypeError ('int' object is not iterable)
    with pytest.raises(ShapeError) as err:
        permutation_action_from_json(doc)
    assert str(err.value) == message


def test_an_unhashable_point_is_not_a_point_of_a_finite_action():
    action = finite_action("f", [0, 1], {"r": [1, 0]})
    with pytest.raises(DomainError, match=r"\[0\] is not a point of the f action"):
        action.act_word([0], "r")


@pytest.mark.parametrize("spec", [5, None, b"Z", ["Z"]])
def test_parse_group_refuses_a_spec_that_is_not_a_string(spec):
    # parse_group(5) once raised a raw AttributeError from int.startswith
    with pytest.raises(ShapeError) as err:
        parse_group(spec)
    assert str(err.value) == f"group spec must be a string, not {spec!r}"


def test_parse_group_specs():
    assert parse_group("Z").name == "Z"
    assert parse_group("Z^3").name == "Z^3"
    assert parse_group("lamplighter").name == "lamplighter"
    assert parse_group("free:2").name == "free:2"
    for spec in ("so3", "Z^x", "Z^", "free:x", "free:"):  # a spec without a count is unknown too
        with pytest.raises(DomainError) as err:
            parse_group(spec)
        assert str(err.value) == f"unknown group spec {spec!r}"


def test_base_points():
    assert base_point(Z) == 0
    assert base_point(integer_lattice(2)) == (0, 0)
    assert base_point(L) == LAMP_IDENTITY
    assert base_point(F2) == ()


def test_a_finite_action_has_no_base_point_whatever_its_name():
    for name in ("Z", "Z^2", "lamplighter", "free:2"):
        action = finite_action(name, [0, 1], {"r": [1, 0]})
        with pytest.raises(DomainError, match="no default base point"):
            base_point(action)


@pytest.mark.parametrize("bad", [5, "x", None, ((), 0, 1), ([1], 0), ((2, 1), 0), ((1,), "0")])
def test_lamp_multiply_and_inverse_refuse_what_is_no_lamplighter_element(bad):
    # lamp_multiply(5, 6) once raised a raw TypeError and lamp_inverse("x") a raw IndexError
    x = LampElement((1, 3), 2)
    assert lamp_multiply(x, lamp_inverse(x)) == LAMP_IDENTITY
    for call in (lambda: lamp_multiply(bad, x), lambda: lamp_multiply(x, bad), lambda: lamp_inverse(bad)):
        with pytest.raises(ShapeError, match="a lamplighter element is a pair"):
            call()


@pytest.mark.parametrize("kind, field, cap", [("z-interval", None, 1_048_576), ("z-interval-span", GF2, 4_096)])
def test_z_families_past_the_cap_are_refused_before_anything_is_built(kind, field, cap):
    # n = 10^30 once raised a raw OverflowError from range, or a raw ValueError from np.eye
    at_cap = family_generate(kind, cap, field)
    labels = at_cap if field is None else at_cap.labels
    assert len(labels) == cap and labels[-1] == cap
    assert field is None or at_cap.dim == cap
    del at_cap, labels
    for n in (cap + 1, 10**30):
        with pytest.raises(CapacityError, match=f"^{kind} is capped at n = {cap}$"):
            family_generate(kind, n, field)
