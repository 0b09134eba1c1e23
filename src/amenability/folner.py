"""Boundary-ratio evaluators for sets, functions, and subspaces.

The three faces of almost invariance live here: finite sets with their
translate boundary, finitely supported nonnegative functions with their
translation defect, and finite-dimensional subspaces with the dimension
they gain under the module action.  A subspace meets its translates in
``subspace_report`` only, where every dimension is the rank of bases
stacked over one column index.  The two bridge constructions are also
here: a finite set spans a subspace with a no-worse boundary ratio, and
a subspace yields a function (its empirical Steiner point) whose
translation defect is certified by the exact ranks of that report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import (
    AmenabilityError,
    DegenerateInputError,
    InternalInvariantError,
    ShapeError,
)
from .groups import GroupAction, _lamp_codes
from .linalg import (
    FieldSpec,
    FormalCombination,
    LabeledSubspace,
    _gc_paused,
    _injective,
    _label_images,
    _label_set,
    _rref,
    _sorted_distinct,
    _sorted_labels,
    _stacked,
    _word,
    contains_subspace,
    subspace_from_rows,
    subspace_sum,
)
from .matroid import SubspaceMatroid
from .steiner import SteinerEstimate, estimate_steiner


@dataclass(frozen=True)
class FolnerReport:
    """Exact boundary ratios of one finite set or subspace.

    ``per_generator`` maps each acting element to its ratio; the union
    ratio uses all elements at once and dominates each of them.  The
    epsilon achieved by the witness is the union ratio.
    """

    subject: str
    size: int
    per_generator: Mapping[Any, Fraction]
    union_ratio: Fraction
    union_size: int

    @property
    def epsilon(self) -> Fraction:
        return self.union_ratio


def _normalize_acting(S) -> list:
    """Acting elements as (key, word) pairs; combinations contribute their support.

    S is one element or a list or tuple of them; an element is a
    generator name, a word (a list or tuple of names) or a combination.
    """
    out = []
    seen = set()
    items = S if isinstance(S, (list, tuple)) else [S]
    for s in items:
        words = s.support if isinstance(s, FormalCombination) else [_word(s)]
        for w in words:
            key = w[0] if len(w) == 1 else w
            if key not in seen:
                seen.add(key)
                out.append((key, w))
    if not out:
        raise ShapeError("need at least one acting element")
    return out


def _translate_report(size: int, acting, gains, union_size: int, name: str) -> FolnerReport:
    """The set report of ``size`` points from #(Fs - F) per acting element and #(F u FS)."""
    return FolnerReport(
        subject=f"set of {size} points under {name}",
        size=size,
        per_generator={key: Fraction(gain, size) for (key, _), gain in zip(acting, gains)},
        union_ratio=Fraction(union_size - size, size),
        union_size=union_size,
    )


def _set_counts(points: set, translates) -> tuple:
    """#(Fs - F) for each translate Fs of ``points``, and #(F u FS)."""
    gains = []
    union = set(points)
    for translated in translates:
        gains.append(len(translated - points))
        union |= translated
    return gains, len(union)


def _code_counts(codes: np.ndarray, images) -> tuple:
    """``_set_counts`` on the sorted distinct codes of F and the sorted codes of each translate."""
    gains, fresh = [], []
    last = len(codes) - 1
    for image in images:
        outside = image[codes[np.minimum(np.searchsorted(codes, image), last)] != image]
        gains.append(len(outside))
        fresh.append(outside)
    return gains, len(codes) + len(_sorted_distinct(np.concatenate(fresh)))


@_gc_paused
def set_report(F: Iterable, S, action: GroupAction) -> FolnerReport:
    """Counting report for a finite set: (#(F u Fs) - #F) / #F per element.

    Lamplighter points are counted as int64 codes when ``groups._lamp_codes``
    vouches for all of them: F a tuple, list, set or frozenset of
    ``(lamps, head)`` pairs with an ``int`` head and increasing ``int``
    lamps, every letter a lamplighter move, and all points inside a window
    of 57 positions once the heads are widened by the longest word.  Each
    translate is then a sorted code array, and #(Fs - F) and #(F u FS)
    are counted on those arrays; no image tuple or set is built and no
    point is checked one by one.  Any other input takes the
    point-by-point path, which gives the same report and raises every
    error, in the same order.
    """
    try:
        acting = _normalize_acting(S)
    except AmenabilityError:  # raised by the point-by-point path, after F's own errors
        acting = None
    coded = acting and _lamp_codes(F, [word for _, word in acting], action)
    if coded:
        codes, images = coded
        return _translate_report(len(codes), acting, *_code_counts(codes, images), action.name)
    points = _label_set(F)
    if not points:
        raise DegenerateInputError("the empty set has no boundary ratio")
    acting = _normalize_acting(S)
    images = action.act_points(points, [word for _, word in acting])
    return _translate_report(len(points), acting, *_set_counts(points, map(set, images)), action.name)


@dataclass(frozen=True)
class WeightedFunction:
    """A finitely supported function to the nonnegative rationals."""

    values: Mapping[Any, Fraction]

    def __init__(self, values: Mapping[Any, Fraction]):
        if not isinstance(values, Mapping):
            raise ShapeError(f"values must map points to rationals, not {values!r}")
        cleaned = {}
        for x, v in values.items():
            try:
                v = Fraction(v)
            except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
                raise ShapeError(f"value {v!r} at {x!r} is not a rational") from exc
            if v < 0:
                raise ShapeError(f"negative value {v} at {x!r}")
            if v:
                cleaned[x] = v
        if not cleaned:
            raise DegenerateInputError("the zero function has no translation ratio")
        object.__setattr__(self, "values", cleaned)

    def l1(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))

    def support(self) -> tuple:
        return tuple(sorted(self.values))

    def translate(self, action: GroupAction, word) -> "WeightedFunction":
        (images,) = action.act_points(self.values, (word,))
        return WeightedFunction(dict(zip(images, self.values.values())))

    @staticmethod
    def indicator(points: Iterable) -> "WeightedFunction":
        try:
            return WeightedFunction({x: Fraction(1) for x in points})
        except TypeError as exc:
            raise ShapeError(f"points must be an iterable of hashable points: {exc}") from exc

    @staticmethod
    def from_estimate(est: SteinerEstimate) -> "WeightedFunction":
        return WeightedFunction(
            {x: v for x, v in zip(est.labels, est.vector) if v}
        )


def _numerators(values: Mapping[Any, Fraction]) -> tuple:
    """A common denominator of the values, and each value's numerator over it."""
    den = math.lcm(*{v.denominator for v in values.values()})
    return den, {x: v.numerator * (den // v.denominator) for x, v in values.items()}


def _l1_difference(f: Mapping[Any, int], g: Mapping[Any, int]) -> int:
    """||f - g||_1 of two nonnegative integer functions; a missing key counts as 0."""
    inside = sum(abs(v - g.get(x, 0)) for x, v in f.items())
    return inside + sum(v for x, v in g.items() if x not in f)


@_gc_paused
def function_report(f: WeightedFunction, S, action: GroupAction) -> dict:
    """Translation defect ||f - fs||_1 / ||f||_1 for each acting element.

    Exact on integers: over a common denominator both norms are integer
    sums of numerators, and the denominator cancels in the ratio.
    """
    _, num = _numerators(f.values)
    norm = sum(num.values())
    acting = _normalize_acting(S)
    images = action.act_points(num, [word for _, word in acting])
    return {
        key: Fraction(_l1_difference(num, dict(zip(moved, num.values()))), norm)
        for (key, _), moved in zip(acting, images)
    }


@dataclass(frozen=True)
class LayerCakeResult:
    """The level set of f minimizing the union boundary ratio.

    ``per_generator_best`` records, for each acting element separately,
    the threshold whose level set minimizes the symmetric-difference
    ratio; that minimum never exceeds the function's own translation
    defect for the same element.
    """

    threshold: Fraction
    level_set: tuple
    report: FolnerReport
    per_generator_best: Mapping[Any, tuple]  # key -> (threshold, ratio)


@_gc_paused
def layer_cake(f: WeightedFunction, S, action: GroupAction) -> LayerCakeResult:
    """Recover an almost invariant set from an almost invariant function.

    Scans the attained values t of f; the level sets {f >= t} slice f so
    that both its mass and its translation defect are the value-weighted
    sums over slices, hence the best slice is at least as good as f.
    The support is ranked by value once, so each level is a prefix of
    that ranking, and each point is translated once; a level's
    translates are read off those images.  Each level's
    symmetric-difference ratios come from its set report: an acting
    element permutes the points, so #Ls = #L and
    #(L ^ Ls) = 2 #(Ls - L).  Ties keep the smallest threshold.
    """
    den, num = _numerators(f.values)
    ranked = sorted(num, key=num.__getitem__, reverse=True)
    counts = Counter(num.values())
    acting = _normalize_acting(S)
    support = set({x for x in num})  # the first level, built as set_report saw it
    images = action.act_points(support, [word for _, word in acting])
    moves = [dict(zip(support, moved)) for moved in images]
    best = None
    per_best = {}
    size = len(ranked)
    for value in sorted(counts):
        t = Fraction(value, den)
        level = set(ranked[:size])
        size -= counts[value]
        translates = ({move[x] for x in level} for move in moves)
        report = _translate_report(len(level), acting, *_set_counts(level, translates), action.name)
        if best is None or report.union_ratio < best[2].union_ratio:
            best = (t, value, report)
        for key, gain in report.per_generator.items():
            ratio = 2 * gain
            if key not in per_best or ratio < per_best[key][1]:
                per_best[key] = (t, ratio)
    t, value, report = best
    # rebuilt in the support's order, so points that do not compare fail alike
    level = {x for x, v in num.items() if v >= value}
    return LayerCakeResult(
        threshold=t,
        level_set=tuple(sorted(level)),
        report=report,
        per_generator_best=per_best,
    )


def set_to_subspace(F: Iterable, field: FieldSpec) -> LabeledSubspace:
    """The coordinate span of a finite point set; dimension = #F.

    Translates permute the indicator basis, so for any acting elements
    the dimension of the translated sum never exceeds the size of the
    translated union, and the subspace ratio is at most the set ratio.
    """
    points = _sorted_labels(_label_set(F))
    if not points:
        raise DegenerateInputError("cannot span the empty set")
    return subspace_from_rows(np.eye(len(points), dtype=np.int64), points, field)


@_gc_paused
def subspace_report(F: LabeledSubspace, S, action: GroupAction) -> FolnerReport:
    """Dimension report for a subspace: dim((F + Fs)/F) / dim F per element.

    Every number is a rank, and a rank does not depend on the order of
    the columns.  F's labels take columns 0..n-1 and each label met in a
    translate takes the next free column, so a translate Fs is F's
    basis placed at the columns of its images; dim(F + Fs) is the rank
    of F stacked over Fs, and the union is the rank of F stacked over
    every translate.  Each label is checked once, whatever S holds (not
    at all for a ``family_generate`` span of this action, as in
    ``act_subspace``), and no translate or sum is put in canonical form.
    """
    if F.dim < 1:
        raise DegenerateInputError("the zero subspace has no boundary ratio")
    acting = _normalize_acting(S)
    p = F.field.characteristic
    col = F.label_index()
    stack = [(F, slice(len(col)))]
    per = {}
    images = _label_images(F, action, [w for _, w in acting])
    for (key, _), moved in zip(acting, images):
        cols = _injective([col.setdefault(y, len(col)) for y in moved])
        _, pivots = _rref(_stacked(len(col), stack[0], (F, cols)), p)
        per[key] = Fraction(len(pivots) - F.dim, F.dim)
        stack.append((F, cols))
    union = len(_rref(_stacked(len(col), *stack), p)[1])
    return FolnerReport(
        subject=f"subspace of dimension {F.dim} under {action.name}",
        size=F.dim,
        per_generator=per,
        union_ratio=Fraction(union - F.dim, F.dim),
        union_size=union,
    )


@dataclass(frozen=True)
class FunctionWitness:
    """An almost invariant function distilled from a subspace.

    ``certificates`` are the exact per-element bounds
    (dim((F+Fs)/F) + dim((F+Fs)/Fs)) / dim F on the translation defect
    of the true Steiner point, which is twice the subspace report's
    ratio because dim Fs = dim F; ``sampled_ratios`` are the defects of
    the empirical one.  The sampled value may exceed its certificate
    only by sampling noise, capped by ``tolerance``.
    """

    function: WeightedFunction
    estimate: SteinerEstimate
    certificates: Mapping[Any, Fraction]
    sampled_ratios: Mapping[Any, Fraction]
    tolerance: float


@_gc_paused
def subspace_to_function(
    F: LabeledSubspace, S, action: GroupAction, samples: int, seed: int
) -> FunctionWitness:
    """Turn an almost invariant subspace into an almost invariant function.

    The function is the empirical Steiner point of F's base polytope.
    Certificates use only exact dimension counts (no sampling): the L1
    distance between the Steiner points of nested subspaces is exactly
    the dimension gap, and F, Fs both sit inside F + Fs.  They are read
    off ``subspace_report``: both gaps equal dim(F + Fs) - dim F.
    """
    if F.dim < 1:
        raise DegenerateInputError("the zero subspace has no Steiner point")
    # S is read (and refused) before any sampling
    certificates = {k: 2 * r for k, r in subspace_report(F, S, action).per_generator.items()}
    est = estimate_steiner(SubspaceMatroid(F), samples, seed)
    f = WeightedFunction.from_estimate(est)
    sampled = function_report(f, S, action)
    tolerance = 8 * est.stderr_bound * len(F.labels) / F.dim
    for key in certificates:
        if float(sampled[key]) > float(certificates[key]) + tolerance:
            raise InternalInvariantError(
                f"sampled defect {sampled[key]} exceeds certificate "
                f"{certificates[key]} beyond the noise allowance"
            )
    return FunctionWitness(
        function=f,
        estimate=est,
        certificates=certificates,
        sampled_ratios=sampled,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class AbsorbResult:
    """Report for a good core forced to absorb a finite piece."""

    report: FolnerReport
    bound: Fraction
    combined: Any  # the combined set (tuple) or subspace


def absorb_finite(F_core, U, S, action: GroupAction) -> AbsorbResult:
    """Combine a low-boundary core with a mandatory finite piece.

    The result contains U, and its union ratio is bounded by
    (boundary of the core + size of U with its translates) / size of
    the core; the bound is computed exactly and verified.
    """
    if isinstance(F_core, LabeledSubspace) != isinstance(U, LabeledSubspace):
        raise ShapeError("core and absorbed piece must both be sets or both subspaces")
    if isinstance(F_core, LabeledSubspace):
        if F_core.field != U.field:
            raise ShapeError("core and absorbed piece live over different fields")
        core, join, report, u_empty = F_core, subspace_sum, subspace_report, U.is_zero
    else:
        core, U = set(F_core), set(U)
        if not core:
            raise DegenerateInputError("the core must be non-empty")
        join, report, u_empty = set.union, set_report, not U
    combined = join(core, U)
    combined_report = report(combined, S, action)
    core_report = report(core, S, action)
    u_union = 0 if u_empty else report(U, S, action).union_size
    bound = Fraction(
        (core_report.union_size - core_report.size) + u_union, core_report.size
    )
    if isinstance(combined, LabeledSubspace):
        if not contains_subspace(U, combined):
            raise InternalInvariantError("the combined subspace lost the absorbed piece")
    else:
        combined = tuple(sorted(combined))
    if combined_report.union_ratio > bound:
        raise InternalInvariantError("the absorb bound failed; this should be impossible")
    return AbsorbResult(report=combined_report, bound=bound, combined=combined)
