"""Concrete G-sets: canonical point encodings and named generator actions.

Built-ins: the integer line and lattices Z^d, the lamplighter group
(Z/2 wr Z) acting on itself, free groups acting on themselves by
reduced words, and finite permutation actions loaded from JSON.  All
actions are right actions, and every point encoding is hashable and
totally ordered so it can serve as a coordinate label.
"""

from __future__ import annotations

import json
import numbers
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, DomainError, InvalidFieldError, ShapeError
from .linalg import (
    _LAMP_FRAME,
    FieldSpec,
    _decode_label,
    _gc_paused,
    _lamp_bounds,
    _lamp_masks,
    _lamp_parts,
    _lamp_word,
    _order_keys,
    _reduced_subspace,
    _require_int,
    _sorted_distinct,
    _word,
)

Point = Any


class LampElement(NamedTuple):
    """A lamplighter element: finitely many lit lamps plus a head position.

    ``lamps`` is the sorted tuple of lit positions (mod-2 configuration),
    ``pos`` the position of the lamplighter on the line.
    """

    lamps: tuple
    pos: int


LAMP_IDENTITY = LampElement((), 0)

# ``_new(LampElement, (lamps, pos))`` builds an element without the
# Python-level ``LampElement.__new__`` frame; the moves and the box use it.
_new = tuple.__new__


@dataclass(frozen=True)
class GroupAction:
    """A finitely generated group acting on the right on a point set.

    ``moves`` maps each generator name to its move x -> x.g; its keys, in
    order, are the generators.  ``inverses`` names each generator's
    inverse.  ``base`` is the identity-like origin of a built-in action,
    and None for an action without one.
    """

    name: str
    moves: Mapping[str, Callable[[Point], Point]] = field(repr=False)
    inverses: Mapping[str, str]
    validate: Callable[[Point], bool] = field(repr=False, default=None)
    base: Point = None

    @property
    def generators(self) -> tuple:
        return tuple(self.moves)

    def _move(self, g) -> Callable[[Point], Point]:
        try:
            return self.moves[g]
        except (KeyError, TypeError):  # an unhashable letter names no generator either
            raise DomainError(f"unknown generator {g!r} in a word") from None

    def check_point(self, point: Point) -> Point:
        if self.validate is not None and not self.validate(point):
            raise DomainError(f"{point!r} is not a point of the {self.name} action")
        return point

    def _check_points(self, points) -> None:
        """``check_point`` on every point: one pass while they pass, the first invalid one raises."""
        if not all(map(self.validate, points)):
            for x in points:
                self.check_point(x)

    def act_word(self, point: Point, word) -> Point:
        """The image of ``point`` under a word (a generator name or a sequence of them)."""
        return next(self.act_points((point,), (word,)))[0]

    def act_points(self, points, words) -> Iterator[list]:
        """The images of ``points`` under each word: one list per word, in the points' order.

        Each generator of a word and each point is checked once, however
        many words there are: generators map points of the action to
        points of the action, so only the start points need the check.
        Every call checks them, in one pass before the first non-empty
        word's moves run.  The lists are yielded word by word, so one
        word's images need not outlive the next.  The errors are those
        that ``act_word`` point by point, word by word, would raise
        first: the first generator of a word before the first point, that
        point before the rest of the word.  An empty word checks nothing,
        and a word with an unhashable letter is refused before any point.
        """
        return self._act_points(points, words, False)

    def _act_points(self, points, words, checked: bool) -> Iterator[list]:
        """``act_points``, with ``checked`` true for points known to pass ``validate``."""
        points = list(points)
        checked = checked or self.validate is None
        for word in words:
            if not points:
                yield []
                continue
            moves = []
            for g in _word(word):
                if moves and not checked and g not in self.moves:
                    self.check_point(points[0])
                moves.append(self._move(g))
            if moves and not checked:
                self._check_points(points)
                checked = True
            images = points
            for move in moves:
                images = list(map(move, images))
            yield images if moves else list(points)


# ---------------------------------------------------------------------------
# built-in actions


def _z_valid(x) -> bool:
    """Whether ``x`` is an int and no bool: a point of Z, and each entry of a built-in action's point.

    A bool is an int, and ``True == 1``: a set holding both would count
    them as one point.
    """
    return isinstance(x, int) and not isinstance(x, bool)


def integer_line() -> GroupAction:
    """Z acting on itself by translation; generators +1 and -1."""
    return GroupAction(
        name="Z",
        moves={"+1": lambda x: x + 1, "-1": lambda x: x - 1},
        inverses={"+1": "-1", "-1": "+1"},
        validate=_z_valid,
        base=0,
    )


# Z^d is capped at d = 1,024.  Its 2d moves are built up front and each
# copies a d-tuple, so the action's cost grows with d: integer_lattice(10**5)
# took 0.63 s (2-vCPU Xeon), and 10**30 would not finish.  At the cap it
# takes ~3 ms, and the ball of radius 1 (2,049 points) is already far past
# the exact profile's window.
_LATTICE_DIM_CAP = 1_024


def integer_lattice(d: int) -> GroupAction:
    """Z^d acting on itself; generators +e1..-ed, points are d-tuples.  d is capped at 1,024."""
    if isinstance(d, numbers.Real) and d < 1:
        raise ShapeError("lattice dimension must be positive")
    _require_int(d, "lattice dimension")
    if d > _LATTICE_DIM_CAP:
        raise CapacityError(f"lattice dimension is capped at {_LATTICE_DIM_CAP}")
    if d == 1:
        return integer_line()

    def step(k, s):
        return lambda x: x[:k] + (x[k] + s,) + x[k + 1 :]

    moves, inverses = {}, {}
    for k in range(d):
        plus, minus = f"+e{k + 1}", f"-e{k + 1}"
        moves[plus], moves[minus] = step(k, 1), step(k, -1)
        inverses[plus], inverses[minus] = minus, plus

    def valid(x):
        return isinstance(x, tuple) and len(x) == d and all(map(_z_valid, x))

    return GroupAction(name=f"Z^{d}", moves=moves, inverses=inverses, validate=valid, base=(0,) * d)


def _lamp_valid(x) -> bool:
    try:
        lamps, pos = x
    except (TypeError, ValueError):
        return False
    if not _z_valid(pos) or not isinstance(lamps, tuple):
        return False
    prev = None
    for v in lamps:
        if not _z_valid(v) or (prev is not None and v <= prev):
            return False
        prev = v
    return True


def _lamp_forward(x) -> LampElement:
    return _new(LampElement, (x[0], x[1] + 1))


def _lamp_back(x) -> LampElement:
    return _new(LampElement, (x[0], x[1] - 1))


def _lamp_toggle(x) -> LampElement:
    lamps, pos = x
    i = bisect_left(lamps, pos)
    if i < len(lamps) and lamps[i] == pos:
        return _new(LampElement, (lamps[:i] + lamps[i + 1 :], pos))
    return _new(LampElement, (lamps[:i] + (pos,) + lamps[i:], pos))


def lamplighter() -> GroupAction:
    """The lamplighter group (Z/2 wr Z) acting on itself.

    Generators: the head moves +1/-1, and b toggles the lamp under the
    head.  Right multiplication by b toggles position pos, because the
    incoming lamp at 0 is shifted by the head position first.
    """
    return GroupAction(
        name="lamplighter",
        moves={"+1": _lamp_forward, "-1": _lamp_back, "b": _lamp_toggle},
        inverses={"+1": "-1", "-1": "+1", "b": "b"},
        validate=_lamp_valid,
        base=LAMP_IDENTITY,
    )


_LAMP_STEPS = {_lamp_forward: 1, _lamp_back: -1, _lamp_toggle: 0}


def _lamp_steps(action: GroupAction, word) -> list | None:
    """A word's letters as lamp steps (+1 / -1 head moves, 0 the toggle), for ``linalg._lamp_word``.

    None unless ``action`` validates by ``_lamp_valid`` and moves each
    letter by one of the lamp moves.  ``word`` is a tuple of names.
    """
    if getattr(action, "validate", None) is not _lamp_valid:
        return None
    try:
        return [_LAMP_STEPS[action.moves.get(g)] for g in word]
    except (KeyError, TypeError):  # not a lamp move, or no such letter
        return None


def _lamp_codes(points, words, action: GroupAction):
    """Lamplighter points and their images under each word as sorted int64 codes.

    Returns the sorted, distinct codes of ``points`` and, per word, the
    sorted codes of the points' images (distinct, as a word moves points
    injectively).  The codes are those of ``linalg._lamp_masks``, in a
    window as wide as ``_LAMP_FRAME`` that starts at the lowest position
    of the points, their heads widened by the longest word: so a set
    anywhere on the line is coded once it fits that width.  Returns None,
    and never raises, unless every input is vouched for: ``action``
    validates by ``_lamp_valid`` and moves each letter of the words by one
    of the lamp moves; ``points`` is a non-empty tuple, list, set or
    frozenset of labels that ``linalg._lamp_parts`` accepts, with
    increasing lamps; and they fit the window.  The caller's generic path
    then serves, and raises, any other input.
    """
    steps = [_lamp_steps(action, word) for word in words]
    if None in steps or type(points) not in (tuple, list, set, frozenset):
        return None
    parts = _lamp_parts(points if type(points) in (tuple, list) else list(points))
    if parts is None:
        return None
    w = len(_LAMP_FRAME)
    lo, hi = _lamp_bounds(parts, max(map(len, words), default=0))
    coded = hi - lo < w and _lamp_masks(parts, lo)
    if not coded:
        return None
    codes = _sorted_distinct(coded[0] * w + coded[1])
    masks, offsets = np.divmod(codes, w)
    images = []
    for step in steps:
        m, o = _lamp_word(masks, offsets, step)
        images.append(np.sort(m * w + o))
    return codes, images


def free_group(rank: int) -> GroupAction:
    """The free group on ``rank`` letters acting on itself.

    Points are reduced words encoded as tuples of nonzero ints: letter
    k is +k, its inverse -k.  Generators are named a, b, c, ... with
    capitals for inverses.
    """
    if isinstance(rank, numbers.Real) and not (1 <= rank <= 26):
        raise ShapeError("free-group rank must be between 1 and 26")
    _require_int(rank, "free-group rank")
    letters = "abcdefghijklmnopqrstuvwxyz"[:rank]
    names = letters + letters.upper()

    def step(v):
        cancel = -v
        return lambda x: x[:-1] if x and x[-1] == cancel else x + (v,)

    codes = [*range(1, rank + 1), *range(-1, -rank - 1, -1)]
    moves = {g: step(v) for g, v in zip(names, codes)}

    def valid(x):  # letters first: only ints may be negated
        in_range = isinstance(x, tuple) and all(_z_valid(v) and 0 < abs(v) <= rank for v in x)
        return in_range and all(a != -b for a, b in zip(x, x[1:]))

    return GroupAction(
        name=f"free:{rank}", moves=moves, inverses=dict(zip(names, names.swapcase())),
        validate=valid, base=(),
    )


def finite_action(name: str, points: Sequence, perms: Mapping[str, Sequence]) -> GroupAction:
    """A finite right action given by one permutation (list of images) per generator.

    ``points`` and each generator's images are lists (or tuples).  Points
    and images are read as subspace labels are: lists, nested or not,
    become tuples.  The points must be hashable, distinct and
    mutually comparable, so that they can serve as coordinate labels.
    """
    if not isinstance(perms, Mapping):
        raise ShapeError("generators must map names to permutations")
    if not isinstance(points, (list, tuple)):
        raise ShapeError(f"points must be a list, not {points!r}")
    points = [_decode_label(p) for p in points]
    try:
        universe = set(points)
    except TypeError as exc:
        raise ShapeError(f"points must be hashable: {exc}") from exc
    if len(universe) != len(points):
        raise ShapeError("points must be distinct")
    try:
        sorted(points)
    except TypeError as exc:
        raise ShapeError("points must be mutually comparable") from exc
    for g in perms:
        if not isinstance(g, str):
            raise ShapeError(f"generator names must be strings, not {g!r}")
        if g + "^-1" in perms:
            raise ShapeError(f"generator {g + '^-1'!r} collides with the inverse derived from {g!r}")
    tables = {}
    inverses = {}
    for g, images in perms.items():
        if not isinstance(images, (list, tuple)):
            raise ShapeError(f"generator {g!r} must map to a list of images, not {images!r}")
        images = [_decode_label(p) for p in images]
        try:
            permutes = len(images) == len(points) and set(images) == universe
        except TypeError:  # an unhashable image is no point
            permutes = False
        if not permutes:
            raise ShapeError(f"generator {g!r} is not a permutation of the points")
        tables[g] = dict(zip(points, images))
        tables[g + "^-1"] = dict(zip(images, points))
        inverses[g] = g + "^-1"
        inverses[g + "^-1"] = g

    def valid(x):
        try:
            return x in universe
        except TypeError:  # an unhashable point is no point
            return False

    return GroupAction(
        name=name,
        moves={g: tables[g].__getitem__ for g in sorted(tables)},
        inverses=inverses,
        validate=valid,
    )


def permutation_action_from_json(source) -> GroupAction:
    """Load a finite action from {"name":..., "points": [...], "generators": {...}}."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    if not isinstance(source, Mapping):
        raise ShapeError("a permutation action document must be a JSON object")
    try:
        return finite_action(
            source.get("name", "finite"), source["points"], source["generators"]
        )
    except KeyError as exc:
        raise ShapeError(f"permutation action document is missing {exc}") from exc


def parse_group(spec: str) -> GroupAction:
    """Group spec strings for the CLI: Z, Z^d, lamplighter, free:k, perm:file."""
    if not isinstance(spec, str):
        raise ShapeError(f"group spec must be a string, not {spec!r}")
    if spec == "Z":
        return integer_line()
    if spec == "lamplighter":
        return lamplighter()
    for prefix, make in (("Z^", integer_lattice), ("free:", free_group)):
        if spec.startswith(prefix):
            try:
                count = int(spec[len(prefix) :])
            except ValueError:
                break  # not a count: an unknown spec
            return make(count)
    if spec.startswith("perm:"):
        return permutation_action_from_json(spec.split(":", 1)[1])
    raise DomainError(f"unknown group spec {spec!r}")


def base_point(action: GroupAction) -> Point:
    """The identity-like origin of a built-in action."""
    if action.base is None:
        raise DomainError(f"no default base point for the {action.name} action")
    return action.base


def ball(action: GroupAction, base: Point, radius: int, cap: int = 100_000) -> tuple:
    """All points within word distance ``radius`` of ``base``, sorted."""
    if isinstance(radius, numbers.Real) and radius < 0:
        raise ShapeError("radius must be nonnegative")
    action.check_point(base)
    _require_int(radius, "radius")
    _require_int(cap, "cap")
    seen = {base}
    frontier = deque([base])
    for _ in range(radius):
        next_frontier = deque()
        for x in frontier:
            for move in action.moves.values():
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        raise CapacityError(
                            f"ball exceeds the cap of {cap} points; pass a larger cap"
                        )
                    next_frontier.append(y)
        frontier = next_frontier
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# the window and span families used by the profile computations

FAMILY_KINDS = ("lamp-box", "lamp-span", "z-interval", "z-interval-span")

_LAMP_POINT_CAP = 1_048_576  # 2^n * n points
_Z_CAPS = {"z-interval": _LAMP_POINT_CAP, "z-interval-span": 4_096}  # 4096^2 = 2^24 entries, as lamp-span(16)


def _lamp_box_points(n: int) -> list:
    """The 2^n * n points of lamp-box(n), built in sorted order.

    The lamp sets come in lexicographic order, each with the heads
    1..n.  The sets of {k..n} in that order are (), then (k,) + s for
    each set s of {k+1..n}, then the nonempty sets of {k+1..n}; so no
    point is sorted or compared.
    """
    sets = [()]
    for k in range(n, 0, -1):
        sets = [()] + [(k,) + s for s in sets] + sets[1:]
    return [_new(LampElement, pair) for pair in product(sets, range(1, n + 1))]


def _lamp_box_keys(n: int):
    """``linalg._lamp_keys`` of ``_lamp_box_points(n)``, built as the points are, with no pass over them."""
    w, lo = len(_LAMP_FRAME), _LAMP_FRAME.start
    masks = np.zeros(1, dtype=np.int64)
    for k in range(n, 0, -1):
        masks = np.concatenate(([0], masks | 1 << (w - 1 - (k - lo)), masks[1:]))
    return _order_keys(np.repeat(masks, n), np.tile(np.arange(1 - lo, n + 1 - lo), 1 << n))


@_gc_paused
def family_generate(kind: str, n: int, field: FieldSpec = None):
    """The box/interval set families and their module (span) analogues.

    lamp-box(n): all (lamps, t) with lamps inside {1..n} and 1 <= t <= n,
    exactly 2^n * n points.  lamp-span(n): the span of the n vectors
    "sum over every lamp pattern at head position t", dimension n.
    z-interval(n): {1..n} in Z; z-interval-span(n): its coordinate span.
    A span is built in sorted order and RREF; a lamp span carries its
    labels' order keys, so acting on it checks no label.  Oversized n is
    refused first.
    """
    if isinstance(n, numbers.Real) and n < 1:
        raise ShapeError("family parameter must be at least 1")
    if kind not in FAMILY_KINDS:
        raise DomainError(f"unknown family kind {kind!r}")
    if kind.endswith("span") and field is None:
        raise InvalidFieldError(f"{kind} needs a coefficient field")
    _require_int(n, "family parameter")

    if n > _Z_CAPS.get(kind, n):
        raise CapacityError(f"{kind} is capped at n = {_Z_CAPS[kind]}")
    if kind == "z-interval":
        return tuple(range(1, n + 1))
    if kind == "z-interval-span":
        return _reduced_subspace(np.eye(n, dtype=np.int64), tuple(range(1, n + 1)), field)

    # from n = bit_length on, 2^n alone passes the cap: refuse before shifting by n
    if n >= _LAMP_POINT_CAP.bit_length() or (1 << n) * n > _LAMP_POINT_CAP:
        raise CapacityError(f"lamp families are capped at {_LAMP_POINT_CAP} points")
    points = _lamp_box_points(n)
    if kind == "lamp-box":
        return tuple(points)

    # head t sits at columns t - 1, t - 1 + n, ...: the rows are I_n tiled
    rows = np.tile(np.eye(n, dtype=np.int64), 1 << n)
    return _reduced_subspace(rows, tuple(points), field, _lamp_box_keys(n))
