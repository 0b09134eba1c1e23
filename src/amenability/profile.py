"""Isoperimetric profiles: exhaustive minima at desk scale, family upper bounds.

I(v) is the best boundary ratio over witnesses of size (or dimension)
at most v; Phi(n) is the least v with I(v) <= 1/n.  Exact set profiles
tabulate F u FS for every subset F of a finite window, as bitmasks
built by doubling over the window's points, one block of 2^16 subsets
at a time.  Module profiles are family upper bounds only: minimizing
over all subspaces is super-exponential even over GF(2), so the module
side is covered by explicit span families plus the general fact that
the span of a set witness is at least as good as the set itself.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    DegenerateInputError,
    InternalInvariantError,
    ShapeError,
)
from .folner import _normalize_acting, set_report, set_to_subspace, subspace_report
from .groups import GroupAction, family_generate
from .linalg import FieldSpec, _gc_paused, _label_set, _require_int, _sorted_labels

WINDOW_CAP = 24
VMAX_CAP = 12

_LOW_BITS = 16  # window bits per block of the subset table: 2^16 rows at a time
_WORD = (1 << 64) - 1

EXACT_WITHIN_WINDOW = "exact-within-window"
FAMILY_UPPER_BOUND = "family-upper-bound"


@dataclass(frozen=True)
class ProfileRow:
    v: int
    ratio: Fraction
    witness: Any


@dataclass(frozen=True)
class ProfileTable:
    rows: tuple
    mode: str
    window: str

    def ratios(self) -> list:
        return [row.ratio for row in self.rows]


def _require_nonincreasing(rows: Sequence[ProfileRow]) -> None:
    for a, b in zip(rows, rows[1:]):
        if b.ratio > a.ratio:
            raise InternalInvariantError("profile ratios must be nonincreasing in v")


def _unions(by_bit: np.ndarray) -> np.ndarray:
    """Row F (a mask over the rows of ``by_bit``) is the OR of the rows in F."""
    out = np.zeros((1 << len(by_bit), by_bit.shape[1]), dtype=np.uint64)
    for b, row in enumerate(by_bit):
        out[1 << b : 2 << b] = out[: 1 << b] | row
    return out


def iso_set_exact(
    action: GroupAction, window: Iterable, S, v_max: int
) -> ProfileTable:
    """Exact I(v) over every non-empty subset of a finite window.

    Each point's images are computed once, point by point in sorted
    order, so the first bad point or word raises as ``act_word`` would.
    A table of bitmasks then holds F u FS for every subset F, and each
    size keeps its least boundary.  Minima are exact within the window
    (the true profile minimizes over all of X); witnesses are the
    lexicographically least among the tied optima.
    """
    points = _sorted_labels(_label_set(window))
    w = len(points)
    if w == 0:
        raise DegenerateInputError("the window must contain at least one point")
    if w > WINDOW_CAP:
        raise CapacityError(f"window has {w} points; the exhaustive cap is {WINDOW_CAP}")
    if isinstance(v_max, numbers.Real) and not (1 <= v_max <= VMAX_CAP):
        raise CapacityError(f"v_max must be between 1 and {VMAX_CAP}")
    _require_int(v_max, "v_max")

    acting = [word for _, word in _normalize_acting(S)]
    # Point i gets bit w-1-i, so among subsets of one size the largest
    # mask is the lexicographically least sorted witness.  Each image
    # outside the window gets a further bit, in order of first sight.
    bit = {x: w - 1 - i for i, x in enumerate(points)}
    reach = []
    for x in points:
        mask = 1 << bit[x]
        for word in acting:
            mask |= 1 << bit.setdefault(action.act_word(x, word), len(bit))
        reach.append(mask)
    words = -(-len(bit) // 64)
    by_bit = np.array(
        [[m >> (64 * k) & _WORD for k in range(words)] for m in reversed(reach)],
        dtype=np.uint64,
    )

    # Row F of the table is N(F) = F u FS, so #(FS \ F) = #N(F) - #F.
    # Each size keeps its least (boundary, complement of F) key.
    low = min(w, _LOW_BITS)
    low_table, high_table = _unions(by_bit[:low]), _unions(by_bit[low:])
    index = np.arange(1 << low, dtype=np.int64)
    low_size = np.bitwise_count(index).astype(np.int64)
    full = (1 << w) - 1
    least = np.full(w + 1, np.iinfo(np.int64).max)
    for t, high in enumerate(high_table):
        size = low_size + t.bit_count()
        boundary = np.bitwise_count(low_table | high).sum(axis=1, dtype=np.int64) - size
        np.minimum.at(least, size, boundary << w | (full ^ (t << low) ^ index))

    # A running minimum of (ratio, witness): ties keep the lesser witness.
    # Size 1 always has a candidate (w >= 1); sizes past w add none.
    rows = []
    for v in range(1, v_max + 1):
        if v <= w:
            boundary, complement = divmod(int(least[v]), 1 << w)
            witness = tuple(x for x in points if not complement >> bit[x] & 1)
            cand = (Fraction(boundary, v), witness)
            best = cand if v == 1 else min(best, cand)
        rows.append(ProfileRow(v=v, ratio=best[0], witness=best[1]))
    table = ProfileTable(
        rows=tuple(rows),
        mode=EXACT_WITHIN_WINDOW,
        window=f"{w} points of {action.name}",
    )
    _require_nonincreasing(table.rows)
    return table


@_gc_paused
def iso_family_upper(
    kind: str,
    n_values: Iterable[int],
    S,
    action: GroupAction,
    field: FieldSpec = None,
) -> ProfileTable:
    """Upper bounds on I from an explicit witness family.

    Each family member is evaluated exactly (set counting or dimension
    counting); rows are (size or dimension, ratio, family parameter).
    """
    ns = list(n_values)
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ShapeError("family parameters must be strictly increasing")
    rows = []
    for n in ns:
        obj = family_generate(kind, n, field)
        if kind.endswith("span"):
            report = subspace_report(obj, S, action)
        else:
            report = set_report(obj, S, action)
        rows.append(
            ProfileRow(v=report.size, ratio=report.union_ratio, witness=(kind, n))
        )
    table = ProfileTable(
        rows=tuple(rows),
        mode=FAMILY_UPPER_BOUND,
        window=f"{kind} family under {action.name}",
    )
    _require_nonincreasing(table.rows)
    return table


def phi_from_table(table: ProfileTable, n: int):
    """Least tabulated v with I(v) <= 1/n; None when the table never gets there.

    For exact tables this certifies only the window searched; for family
    tables it is an upper bound on the true Phi.
    """
    if not table.rows:
        raise ShapeError("cannot invert an empty profile table")
    if isinstance(n, numbers.Real) and n < 1:
        raise ShapeError("the profile argument must be at least 1")
    _require_int(n, "the profile argument")
    target = Fraction(1, n)
    for row in sorted(table.rows, key=lambda r: r.v):
        if row.ratio <= target:
            return row.v
    return None


@dataclass(frozen=True)
class ModuleVsSet:
    set_ratio: Fraction
    subspace_ratio: Fraction
    subspace_le_set: bool


def compare_module_vs_set(
    F: Iterable, S, action: GroupAction, field: FieldSpec
) -> ModuleVsSet:
    """The span of a set witness does at least as well as the set itself."""
    points = _sorted_labels(_label_set(F))
    sr = set_report(points, S, action)
    sp = subspace_report(set_to_subspace(points, field), S, action)
    ok = sp.union_ratio <= sr.union_ratio
    if not ok:
        raise InternalInvariantError(
            "a coordinate span beat its set witness in the wrong direction"
        )
    return ModuleVsSet(
        set_ratio=sr.union_ratio, subspace_ratio=sp.union_ratio, subspace_le_set=ok
    )


def naive_iso_set(action: GroupAction, window: Iterable, S, v_max: int) -> ProfileTable:
    """Independent brute-force profile: plain subset loop, no incremental state.

    Exists as an oracle for testing the subset-table search; capped harder.
    """
    points = _sorted_labels(_label_set(window))
    if len(points) > 16:
        raise CapacityError("the naive oracle is capped at 16 window points")
    acting = [word for _, word in _normalize_acting(S)]
    _require_int(v_max, "v_max")
    best_by_size = {}
    for k in range(1, min(v_max, len(points)) + 1):
        for combo in combinations(points, k):
            F = set(combo)
            FS = set()
            for word in acting:
                FS |= {action.act_word(x, word) for x in F}
            ratio = Fraction(len(F | FS) - k, k)
            cur = best_by_size.get(k)
            if cur is None or ratio < cur[0] or (ratio == cur[0] and combo < cur[1]):
                best_by_size[k] = (ratio, combo)
    rows = []
    best = None
    for v in range(1, v_max + 1):
        cand = best_by_size.get(v)
        if cand is not None:
            if best is None or cand[0] < best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
        if best is None:
            continue
        rows.append(ProfileRow(v=v, ratio=best[0], witness=best[1]))
    return ProfileTable(
        rows=tuple(rows),
        mode=EXACT_WITHIN_WINDOW,
        window=f"{len(points)} points of {action.name} (naive)",
    )
