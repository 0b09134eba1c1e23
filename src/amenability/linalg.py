"""Exact field arithmetic and canonical subspace algebra over GF(p) and Q.

Subspaces of K^X are stored as reduced row-echelon bases over an ordered
list of coordinate labels, so equality of subspaces is equality of the
stored data.  No floating point is used anywhere in this module.

One kernel, ``_rref``, row-reduces for every field, on a 2-D numpy array
of one of two element types: int64 residues for GF(p) (p is a
machine-word prime, so products fit) or ``fractions.Fraction`` objects
for Q.  Only its pivot inverse and its ``% p`` depend on the field.
``_to_array`` turns any rows into that array and ``_to_basis`` turns a
reduced array into the stored basis: a read-only C-contiguous int64
array over GF(p), a tuple of Fraction tuples over Q.

Primes come from ``_is_prime`` (deterministic Miller-Rabin), which
checks every characteristic, and ``_prime_above``, which gives the
matroid kernel of a rational subspace a prime above its Hadamard bound.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DomainError,
    FieldMismatchError,
    InternalInvariantError,
    InvalidFieldError,
    ShapeError,
)

Label = Any  # hashable, totally ordered point encoding
Scalar = Any  # int for GF(p), Fraction for the rationals

_MAX_PRIME = 2**31

# No composite below _MR_EXACT_BELOW is a strong probable prime to all of
# the first 13 prime bases (Sorenson and Webster, Math. Comp. 2017); the
# bound itself is one.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_MR_BASES_PRODUCT = math.prod(_MR_BASES)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin over the bases ``_MR_BASES``.

    Exact below ``_MR_EXACT_BELOW``.  From there on a witness still
    proves n composite, but passing every base proves nothing, and that
    case raises ``ValueError``.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is a strong probable prime to every base, which proves nothing")
    return True


def _prime_above(b: int) -> int:
    """A proven prime above b.

    Below ``_MR_EXACT_BELOW`` this is the smallest prime above b.  From
    there on it is the first prime N = k 2^m + 1 above b, with k odd and
    m = L // 2 + 1 for L the bit length of the walk's end, so k < 2^m.
    By Proth's theorem (1878) such an N is prime iff a^((N-1)/2) = -1
    mod N for some a; one of ``_MR_BASES`` giving -1 is the certificate,
    one giving neither 1 nor -1 proves N composite, and an N on which
    every base gives 1 is passed over.
    """
    n = b + 1
    while n < _MR_EXACT_BELOW:
        if _is_prime(n):
            return n
        n += 1
    m = n.bit_length() // 2 + 1
    first = -(-(n - 1) >> m) | 1  # the least odd k with k 2^m + 1 >= n, below 2^(m-1) + 2
    for k in range(first, 1 << m, 2):
        N = (k << m) + 1
        if math.gcd(N, _MR_BASES_PRODUCT) != 1:
            continue
        for a in _MR_BASES:
            x = pow(a, N >> 1, N)
            if x == N - 1:
                return N
            if x != 1:
                break
    raise InternalInvariantError(f"no Proth prime k 2^{m} + 1 above {b}")


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: characteristic 0 means Q, else a prime p < 2**31."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        # exactly int: a bool, a float or a string is no characteristic
        if type(c) is int and (c == 0 or (2 <= c < _MAX_PRIME and _is_prime(c))):
            return
        raise InvalidFieldError(f"characteristic must be 0 or a prime below 2**31, got {c!r}")

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def coerce(self, value) -> Scalar:
        """Bring a raw number into canonical form for this field."""
        if self.is_rational:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, (int, np.integer)):
                return Fraction(int(value))
            if isinstance(value, str):
                try:
                    return Fraction(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ShapeError(f"cannot interpret {value!r} as a rational") from exc
            raise ShapeError(f"cannot interpret {value!r} as a rational")
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError as exc:
                raise ShapeError(f"cannot interpret {value!r} over GF({self.characteristic})") from exc
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ShapeError(f"{value} is not integral over GF({self.characteristic})")
            value = value.numerator
        if isinstance(value, np.integer):
            value = int(value)
        if not isinstance(value, int):
            raise ShapeError(f"cannot interpret {value!r} over GF({self.characteristic})")
        return value % self.characteristic

    def format_scalar(self, value: Scalar) -> str:
        """Serialize a scalar; rationals become "num/den" strings."""
        if self.is_rational:
            f = Fraction(value)
            return f"{f.numerator}/{f.denominator}"
        return str(int(value))


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)


def gf(p: int) -> FieldSpec:
    """The prime field with p elements."""
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# reduced row-echelon form


def _to_array(rows, field: FieldSpec, width: int = 0) -> np.ndarray:
    """Rows as a fresh 2-D array for ``_rref``: int64 residues over GF(p), Fractions over Q.

    Reads integers, integer arrays, Fractions and "num/den" strings
    exactly; floats are refused, never rounded.  ``width`` is the column
    count of an empty list of rows.
    """
    if not isinstance(rows, np.ndarray):
        try:
            rows = list(rows)
        except TypeError as exc:
            raise ShapeError(f"rows must be an iterable of rows, not {rows!r}") from exc
        if not rows:
            rows = np.zeros((0, width), dtype=np.int64)
    try:
        a = np.asarray(rows)
    except ValueError as exc:
        raise ShapeError(f"rows must form a rectangular matrix: {exc}") from exc
    if a.ndim != 2:
        raise ShapeError("rows must form a rectangular matrix")
    p = field.characteristic
    if a.size == 0 or (a.dtype.kind in "iub" and a.dtype != np.uint64):
        if p:
            # bools are 0 and 1 already; anything else is reduced into a fresh array
            return a.astype(np.int64) if a.dtype == bool else a.astype(np.int64, copy=False) % p
        # One Fraction per distinct integer, shared by every entry holding it.
        values, where = np.unique(a, return_inverse=True)
        table = np.array([Fraction(int(v)) for v in values.tolist()], dtype=object)
        return table[where.reshape(a.shape)]
    if a.dtype.kind not in "OUu":
        raise ShapeError("matrix entries must be exact, not floats")
    coerced = [[field.coerce(x) for x in row] for row in a.tolist()]
    return np.array(coerced, dtype=np.int64 if p else object).reshape(a.shape)


def _to_basis(a: np.ndarray, field: FieldSpec):
    """The stored basis of a reduced array.

    A read-only C-contiguous int64 array over GF(p), a tuple of Fraction
    tuples over Q.
    """
    if field.is_rational:
        return tuple(map(tuple, a.tolist()))
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _mod(a, p: int):
    """``a`` reduced mod p over GF(p); unchanged over Q (p = 0)."""
    return a % p if p else a


def _rref(a: np.ndarray, p: int):
    """In-place RREF of ``a`` over GF(p), or over Q when p = 0.

    ``a`` holds residues mod p (int64) or Fractions (object).  Returns
    ``(a[:rank], pivots)``.
    """
    m, n = a.shape
    r = 0
    c = 0
    pivots = []
    while r < m and c < n:
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            # Skip a run of zero columns: look ahead in windows of doubling
            # width, so each column is scanned once per pivot search.  A
            # scan of all of a[r:, c:] per pivot would cost O(rank m n).
            c += 1
            w = 1
            while c < n:
                hit = a[r:, c : c + w].any(axis=0).nonzero()[0]
                if hit.size:
                    c += int(hit[0])
                    break
                c += w
                w *= 2
            else:
                break
            nz = a[r:, c].nonzero()[0]
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # Rows r.. are zero left of column c, so only the pivot row's
        # support (columns c.. where it is nonzero) changes.
        sup = c + a[r, c:].nonzero()[0]
        x = a[r, c]
        if x != 1:
            inv = pow(int(x), -1, p) if p else 1 / x
            a[r, sup] = _mod(a[r, sup] * inv, p)
        hit = a[:, c].nonzero()[0]
        hit = hit[hit != r]
        if hit.size:
            block = np.ix_(hit, sup)
            a[block] = _mod(a[block] - np.outer(a[hit, c], a[r, sup]), p)
        pivots.append(c)
        r += 1
        c += 1
    return a[:r], tuple(pivots)


def rref(rows, field: FieldSpec):
    """Reduced row-echelon form.

    Returns ``(matrix, rank, pivot_columns)`` as plain tuples: no zero
    rows, every pivot is 1 with zeros elsewhere in its column, pivot
    columns strictly increasing.  The result is the unique RREF of the
    row space of the input.
    """
    reduced, pivots = _rref(_to_array(rows, field), field.characteristic)
    return tuple(map(tuple, reduced.tolist())), len(pivots), pivots


# ---------------------------------------------------------------------------
# labeled subspaces


@dataclass(frozen=True, eq=False, repr=False)
class LabeledSubspace:
    """A finite-dimensional subspace of K^X in canonical form.

    ``labels`` is the sorted tuple of ambient coordinates (points of a
    G-set) and ``basis`` the RREF basis matrix, rows = basis vectors,
    column j belonging to ``labels[j]``: an immutable int64 residue
    array over GF(p), a tuple of Fraction tuples over Q.  Two subspaces
    over the same labels are equal iff their stored bases are identical.

    Lamplighter labels whose positions all lie in ``_LAMP_FRAME`` may
    carry their order keys (see ``_lamp_keys``), so that sorts, relabels
    and label unions of lamp spans run on int64 arrays.  Any other
    subspace, and a ``dataclasses.replace`` copy, carries none and is
    sorted and merged tuple by tuple, with the same result.
    """

    field: FieldSpec
    labels: tuple
    basis: Any

    # The ``validate`` of the action whose points the labels are, set by
    # ``family_generate`` only; not a field, so ``replace``, equality and
    # repr ignore it, while pickles and copies keep it (by reference).
    _checked_by = None
    # None, or ``_lamp_keys(labels)``, the labels' order keys.  Not a
    # field either, for the same reasons.
    _keys = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return len(self.basis) == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledSubspace):
            return NotImplemented
        if self.field != other.field or self.labels != other.labels:
            return False
        return np.array_equal(self._array, other._array)

    def __repr__(self) -> str:
        return (
            f"LabeledSubspace(field={self.field.characteristic}, "
            f"dim={self.dim}, ambient={len(self.labels)})"
        )

    @property
    def _array(self) -> np.ndarray:
        """The basis as a 2-D array (dim x labels), for reading only."""
        return np.reshape(self.basis, (self.dim, len(self.labels)))

    def basis_rows(self) -> list:
        """Basis rows as plain Python lists of scalars."""
        return self._array.tolist()

    def pivot_columns(self) -> tuple:
        """Column index of each row's leading 1."""
        if isinstance(self.basis, np.ndarray):
            return tuple(int(np.flatnonzero(row)[0]) for row in self.basis)
        # a rational row is a tuple of Fractions: stop at its first nonzero
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def label_index(self) -> dict:
        return dict(zip(self.labels, range(len(self.labels))))

    def reduce_vector(self, vector: Sequence) -> tuple:
        """Residual of a coordinate vector after elimination against the basis."""
        if not hasattr(vector, "__len__") or len(vector) != len(self.labels):
            raise ShapeError("a vector must be a sequence of one scalar per label")
        v = _to_array([vector], self.field, len(vector))[0]
        p = self.field.characteristic
        for row, c in zip(self._array, self.pivot_columns()):
            if v[c]:
                v = _mod(v - v[c] * row, p)
        return tuple(v.tolist())

    def contains_vector(self, vector: Sequence) -> bool:
        return all(x == 0 for x in self.reduce_vector(vector))


def _gc_paused(fn):
    """``fn`` run with Python's cyclic garbage collector paused.

    For the calls in which collections were seen to start: each builds or
    relabels thousands of labels, and a ``LampElement`` is a tuple subclass
    that the collector keeps tracking, so each collection walked every live
    label and freed nothing (labels form no cycles).  A cycle a call leaves
    is collected after it returns.  The collector is re-enabled only if it
    was enabled on entry, so a caller's ``gc.disable()`` holds.  The switch
    is process-wide: while a call runs, no thread's cycles are collected,
    and a thread that switches the collector meanwhile may see its choice
    undone when the call returns.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def _require_int(value, what: str) -> None:
    """Refuse a count that is not an integer, or is a bool; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ShapeError(f"{what} must be an integer, got {value!r}")


def _label_set(labels) -> set:
    try:
        return set(labels)
    except TypeError as exc:
        raise ShapeError(f"labels must be hashable: {exc}") from exc


def _sorted_labels(labels, key=None) -> list:
    try:
        return sorted(labels, key=key)
    except TypeError as exc:
        raise ShapeError("labels must be mutually comparable") from exc


def _label_list(labels) -> list:
    try:
        return list(labels)
    except TypeError as exc:
        raise ShapeError(f"labels must be an iterable of points, not {labels!r}") from exc


def _sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, sorted (``np.unique`` without its hashing)."""
    codes = np.sort(codes)
    if len(codes) > 1:
        codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]
    return codes


# ---------------------------------------------------------------------------
# lamplighter order keys
#
# A lamplighter label (lamps, head) whose positions all lie in the frame
# lo..lo+w-1 gets the int64 order key rank(lamps) * w + (head - lo), where
# rank is the lexicographic rank of the sorted lamp tuple among all those
# of the frame.  Keys are strictly increasing in Python's tuple order, and
# the frame is fixed, so the keys of a span, its translates and its sums
# compare with no re-encoding.  Lamp position lo + j is bit w-1-j of the
# label's mask, so the toggle under the head is one XOR and the rank a few
# array passes (``_order_keys``).  The largest key, 2^w * w - 1, fits int64
# for w <= 57.
_LAMP_FRAME = range(-28, 29)


def _lamp_parts(labels):
    """The lamp tuples and heads of lamplighter labels, or None.

    ``labels`` is a list or tuple.  Returns ``(distinct, where, lamps,
    heads)``: each distinct lamp tuple object once, the index into
    ``distinct`` of each label's lamps, the distinct tuples' lamps in one
    list, and the heads.  Returns None, never raising, unless every label
    is a pair, a plain tuple or a ``LampElement``, of a tuple of lamps and
    a head, all exact ints (a bool is refused).  A first label that is not
    such a pair costs a few tests and no pass.  ``_lamp_masks`` checks
    that the lamps increase.
    """
    from .groups import LampElement  # groups imports this module

    types = {tuple, LampElement}
    x = labels[0] if labels else None
    if type(x) not in types or len(x) != 2 or type(x[0]) is not tuple:
        return None
    if not types.issuperset(map(type, labels)) or not {2}.issuperset(map(len, labels)):
        return None
    lamp_sets, heads = zip(*labels)
    ids = np.fromiter(map(id, lamp_sets), np.uint64, len(lamp_sets))
    _, first, where = np.unique(ids, return_index=True, return_inverse=True)  # sorts: no hashing
    distinct = [lamp_sets[i] for i in first.tolist()]  # each lamp tuple object once
    if set(map(type, distinct)) != {tuple}:
        return None
    lamps = list(chain.from_iterable(distinct))
    if not {int}.issuperset(map(type, chain(lamps, heads))):
        return None
    return distinct, where, lamps, heads


def _lamp_masks(parts, lo: int, w: int):
    """The masks and head offsets of ``_lamp_parts`` in the frame lo..lo+w-1, or None.

    The caller has checked that every position lies in the frame.  Bit
    w-1-j of a mask is the lamp at lo + j; None unless each label's lamps
    strictly increase.
    """
    distinct, where, lamps, heads = parts
    sizes = np.fromiter(map(len, distinct), np.int64, len(distinct))
    bits = np.fromiter(map(operator.sub, lamps, repeat(lo)), np.int64, len(lamps))
    rising = np.ones(len(bits), dtype=bool)  # each lamp above the one before it in its tuple
    rising[1:] = bits[1:] > bits[:-1]
    rising[(np.cumsum(sizes) - sizes)[sizes > 0]] = True
    if not rising.all():
        return None
    masks = np.zeros(len(sizes), dtype=np.int64)
    np.add.at(masks, np.repeat(np.arange(len(sizes)), sizes), 1 << (w - 1 - bits))  # distinct bits: + is |
    return masks[where], np.fromiter(map(operator.sub, heads, repeat(lo)), np.int64, len(heads))


def _order_keys(masks: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The order keys of ``_LAMP_FRAME`` masks and head offsets.

    rank(S) = |S| + sum of 2^(w-1-j) over the positions j < max S not in
    S, and rank(()) = 0; those positions are the bits above the mask's
    lowest set bit that the mask does not hold.
    """
    w = len(_LAMP_FRAME)
    above = -((masks & -masks) << 1)  # every bit above the lowest set one; 0 for 0
    rank = np.bitwise_count(masks) + (~masks & above & ((1 << w) - 1))
    return rank * w + offsets


def _lamp_keys(labels):
    """The order keys of lamplighter labels as an int64 array in label order, or None.

    Keys are given when every label passes ``_lamp_parts``, its lamps
    strictly increase and every position lies in ``_LAMP_FRAME``.  Any
    other labels give None, with no pass over them unless the first is a
    lamplighter pair, and are sorted and merged as tuples.
    """
    parts = _lamp_parts(labels)
    if parts is None:
        return None
    _, _, lamps, heads = parts
    lo, hi = min(heads), max(heads)
    if lamps:
        lo, hi = min(lo, min(lamps)), max(hi, max(lamps))
    if lo < _LAMP_FRAME.start or hi >= _LAMP_FRAME.stop:
        return None
    coded = _lamp_masks(parts, _LAMP_FRAME.start, len(_LAMP_FRAME))
    return None if coded is None else _order_keys(*coded)


def _key_masks(keys: np.ndarray) -> np.ndarray:
    """The lamp masks of sorted order keys: ``_order_keys`` undone, one frame position at a time.

    Sorted keys hold each rank in one run, so each distinct rank is
    undone once.  A rank r > 0 over the positions from j on holds j iff
    r <= 2^(w-1-j), the count of the sets that begin with j; it then goes
    on with r - 1, and otherwise with r - 2^(w-1-j).
    """
    w = len(_LAMP_FRAME)
    ranks = keys // w
    new = np.concatenate(([True], ranks[1:] != ranks[:-1]))
    r = ranks[new]
    masks = np.zeros_like(r)
    for j in range(w):
        size = 1 << (w - 1 - j)  # also the bit of position j
        take = (r > 0) & (r <= size)
        masks[take] |= size
        r = np.where(take, r - 1, np.where(r > size, r - size, 0))
    return masks[np.cumsum(new) - 1]


def _lamp_word(masks: np.ndarray, offsets: np.ndarray, steps, w: int):
    """Masks and head offsets moved by a word's lamp steps, or None if a head leaves 0..w-1.

    A step is +1 or -1 for a head move and 0 for the toggle under the
    head; ``masks`` is not read unless the word toggles.
    """
    shifts = list(accumulate(steps, initial=0))  # of the heads, before each step and after the last
    if offsets.min() + min(shifts) < 0 or offsets.max() + max(shifts) >= w:
        return None
    for step, shift in zip(steps, shifts):
        if not step:
            masks = masks ^ (1 << (w - 1 - (offsets + shift)))
    return masks, offsets + shifts[-1]


def _keyed(space: LabeledSubspace, keys) -> LabeledSubspace:
    """``space`` carrying ``keys``, which are ``_lamp_keys(space.labels)`` or None."""
    if keys is not None:
        object.__setattr__(space, "_keys", keys)
    return space


@_gc_paused
def subspace_from_rows(rows, labels: Sequence[Label], field: FieldSpec) -> LabeledSubspace:
    """Span of the given row vectors, canonicalized.

    Labels are sorted into their total order (columns permuted to match),
    the rows are row-reduced, and zero rows are dropped.
    """
    labels = _label_list(labels)
    keys = _lamp_keys(labels)
    if keys is None and len(_label_set(labels)) != len(labels):
        raise ShapeError("labels must be pairwise distinct")
    return _from_distinct(rows, labels, field, keys)


def _from_distinct(rows, labels: Sequence, field: FieldSpec, keys) -> LabeledSubspace:
    """``subspace_from_rows`` for labels known to be pairwise distinct, or with ``keys``.

    Labels with order keys (``_lamp_keys(labels)``) are sorted by them,
    and checked to be distinct here; any others by comparing them.
    """
    n = len(labels)
    if keys is None:
        order = _sorted_labels(range(n), key=labels.__getitem__)
        moved = order != list(range(n))
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise ShapeError("labels must be pairwise distinct")
        moved = (order[1:] < order[:-1]).any()
        order = order.tolist()
    sorted_labels = tuple(map(labels.__getitem__, order))
    a = _to_array(rows, field, n)
    if a.shape[1] != n:
        raise ShapeError(f"row length {a.shape[1]} does not match label count {n}")
    if moved:
        a = a.take(order, axis=1)  # C-contiguous, which row operations want
    return _keyed(_canonical(a, sorted_labels, field), keys)


def _canonical(a: np.ndarray, labels: tuple, field: FieldSpec) -> LabeledSubspace:
    """The span of ``a``'s rows (an ``_to_array`` array, reduced in place) over sorted distinct labels."""
    reduced, _ = _rref(a, field.characteristic)
    return LabeledSubspace(field, labels, _to_basis(reduced, field))


def _reduced_subspace(rows: np.ndarray, labels: tuple, field: FieldSpec, checked_by, keys=None) -> LabeledSubspace:
    """0/1 int64 rows already in RREF over sorted labels, marked as accepted by ``checked_by``.

    Over GF(p) the rows are residues already and become the basis itself
    (made read-only), with no reduced copy.  ``keys`` are the labels'
    ``_lamp_keys``, if they have them.
    """
    a = _to_array(rows, field) if field.is_rational else rows
    space = LabeledSubspace(field, labels, _to_basis(a, field))
    object.__setattr__(space, "_checked_by", checked_by)
    return _keyed(space, keys)


def zero_subspace(labels: Sequence[Label], field: FieldSpec) -> LabeledSubspace:
    return subspace_from_rows([], labels, field)


def _merge_labels(E: LabeledSubspace, F: LabeledSubspace):
    """Sorted union of the labels of two subspaces over one field, in one linear pass.

    Returns ``(union, pos_a, pos_b, keys)``: ``pos_a[j]`` is the column of
    ``E.labels[j]`` in the union, likewise for F; equal labels give
    slices.  When both sides carry order keys the union is taken on them
    and ``keys`` are the union's; otherwise the labels are walked tuple
    by tuple and ``keys`` is None.  Where E and F hold equal labels, the
    union holds E's object either way.
    """
    if E.field != F.field:
        raise FieldMismatchError(f"cannot combine {E.field} with {F.field}")
    a, b = E.labels, F.labels
    if a == b:
        return a, slice(None), slice(None), E._keys
    if E._keys is not None and F._keys is not None:
        keys = _sorted_distinct(np.concatenate((E._keys, F._keys)))
        pos_a, pos_b = np.searchsorted(keys, E._keys), np.searchsorted(keys, F._keys)
        union = np.empty(len(keys), dtype=object)
        union[pos_b] = np.fromiter(b, object, len(b))
        union[pos_a] = np.fromiter(a, object, len(a))  # a's object wins
        return tuple(union.tolist()), pos_a, pos_b, keys
    union = []
    pos_a = []
    pos_b = []
    i = j = 0
    na, nb = len(a), len(b)
    try:
        while i < na and j < nb:
            x, y = a[i], b[j]
            if x < y:
                pos_a.append(len(union))
                union.append(x)
                i += 1
            elif y < x:
                pos_b.append(len(union))
                union.append(y)
                j += 1
            else:
                pos_a.append(len(union))
                pos_b.append(len(union))
                union.append(x)
                i += 1
                j += 1
    except TypeError as exc:
        raise ShapeError("labels must be mutually comparable") from exc
    for x in a[i:]:
        pos_a.append(len(union))
        union.append(x)
    for y in b[j:]:
        pos_b.append(len(union))
        union.append(y)
    return tuple(union), pos_a, pos_b, None


def _stacked(width: int, *parts) -> np.ndarray:
    """The bases of ``parts``, pairs ``(space, cols)``, stacked in one fresh array.

    Column j of a space goes to column ``cols[j]`` of ``width`` columns,
    the rest are zero; order-preserving zero padding keeps RREF intact.
    """
    field = parts[0][0].field
    a = _to_array(np.zeros((sum(sp.dim for sp, _ in parts), width), dtype=bool), field)
    r = 0
    for sp, cols in parts:
        a[r : r + sp.dim, cols] = sp._array
        r += sp.dim
    return a


def align_pair(E: LabeledSubspace, F: LabeledSubspace):
    """Rewrite two subspaces over the sorted union of their labels."""
    union, pos_e, pos_f, keys = _merge_labels(E, F)

    def rebuild(sp, cols):
        if len(sp.labels) == len(union):
            return sp
        basis = _to_basis(_stacked(len(union), (sp, cols)), sp.field)
        return _keyed(LabeledSubspace(sp.field, union, basis), keys)

    return rebuild(E, pos_e), rebuild(F, pos_f)


def subspace_sum(E: LabeledSubspace, F: LabeledSubspace) -> LabeledSubspace:
    """Span of E and F together; labels are unioned and vectors zero-padded."""
    union, pos_e, pos_f, keys = _merge_labels(E, F)
    return _keyed(_canonical(_stacked(len(union), (E, pos_e), (F, pos_f)), union, E.field), keys)


def quotient_dim(F: LabeledSubspace, G: LabeledSubspace) -> int:
    """dim((F + G) / F), i.e. how many dimensions G adds on top of F."""
    return subspace_sum(F, G).dim - F.dim


def contains_subspace(E: LabeledSubspace, F: LabeledSubspace) -> bool:
    """True iff E <= F, that is, iff E adds no dimension to F."""
    return quotient_dim(F, E) == 0


# ---------------------------------------------------------------------------
# formal combinations and the right action on subspaces


def _word(w) -> tuple:
    """A group element as a word: a generator name, or a list or tuple of names."""
    if isinstance(w, str):
        return (w,)
    if isinstance(w, (list, tuple)):
        for g in w:
            try:
                hash(g)
            except TypeError:  # an unhashable letter names no generator of any action
                raise DomainError(f"unknown generator {g!r} in a word") from None
        return tuple(w)
    raise ShapeError(f"a group element is a generator name or a list or tuple of names, not {w!r}")


@dataclass(frozen=True)
class FormalCombination:
    """A finitely supported K-linear combination of group elements.

    Keys of ``terms`` are group elements given as generator words (tuples
    of generator names); values are nonzero scalars.
    """

    field: FieldSpec
    terms: tuple

    def __init__(self, field: FieldSpec, terms: Mapping):
        if not isinstance(terms, Mapping):
            raise ShapeError(f"terms must map group elements to scalars, not {terms!r}")
        object.__setattr__(self, "field", field)
        cleaned = []
        for word, coeff in terms.items():
            word = _word(word)
            c = field.coerce(coeff)
            if c != 0:
                cleaned.append((word, c))
        cleaned.sort(key=lambda t: t[0])
        object.__setattr__(self, "terms", tuple(cleaned))

    @property
    def support(self) -> tuple:
        return tuple(w for w, _ in self.terms)

    def items(self):
        return iter(self.terms)


def _label_images(F: LabeledSubspace, action, words) -> Iterator[list]:
    """``action.act_points`` of F's labels, with no check for a family span of this ``validate``."""
    return action._act_points(F.labels, words, F._checked_by is action.validate)


def _injective(cols: list) -> list:
    """``cols`` as given, refused unless pairwise distinct: the columns or images of F's labels."""
    if len(set(cols)) != len(cols):
        raise DomainError("group element did not act injectively on the labels") from None
    return cols


@_gc_paused
def act_subspace(F: LabeledSubspace, action, r) -> LabeledSubspace:
    """Right action of a group element or formal combination on a subspace.

    A single element g relabels each coordinate x to x.g (dimension is
    preserved); a FormalCombination maps each basis vector by the linear
    extension and the span is recanonicalized.  Labels outside the current
    ambient are created as needed (the ambient is all of K^X implicitly).
    F's labels are checked by ``action.validate`` once, and not at all for
    a ``family_generate`` span of an action with that same ``validate``.

    A single element costs its moves and at most one RREF.  A relabel
    that keeps the labels' order (a shift of a lamp, interval or Z^d
    span) reuses F's basis with no sort and no RREF; one that maps F's
    labels onto themselves (F.b for a lamp span) keeps ``F.labels`` and
    row-reduces once, with no sort (see ``_relabel``).  For a lamp span
    with order keys, a word of lamplighter moves runs on the keys (see
    ``_lamp_relabel``).
    """
    if not isinstance(r, FormalCombination):
        keyed = F._keys is not None and _lamp_relabel(F, action, r)
        if keyed:
            return keyed
        (images,) = _label_images(F, action, (r,))
        return _relabel(F, images)
    if r.field != F.field:
        raise FieldMismatchError("combination and subspace fields differ")
    if not r.terms:
        return zero_subspace(F.labels, F.field)
    targets = dict(zip(r.support, _label_images(F, action, r.support)))
    new_labels = _sorted_labels({y for tt in targets.values() for y in tt})
    moved = {lbl: j for j, lbl in enumerate(new_labels)}
    big = _to_array(np.zeros((F.dim, len(new_labels)), dtype=bool), F.field)
    for word, coeff in r.items():
        cols = _injective([moved[y] for y in targets[word]])
        big[:, cols] = _mod(big[:, cols] + coeff * F._array, F.field.characteristic)
    return _canonical(big, tuple(new_labels), F.field)


def _relabel(F: LabeledSubspace, images: list) -> LabeledSubspace:
    """``subspace_from_rows(F.basis, images, F.field)``, for the images of F's labels.

    Strictly increasing images are distinct and sorted, and RREF is
    unique, so F's basis is theirs as it stands.
    """
    try:
        keeps_order = all(map(operator.lt, images, islice(images, 1, None)))
    except TypeError:  # labels that do not compare are refused below, as before
        keeps_order = False
    if keeps_order:
        labels = tuple(images)  # equal to F's labels only for the identity
        return LabeledSubspace(F.field, F.labels if labels == F.labels else labels, F.basis)
    try:
        cols = _injective(list(map(F.label_index().__getitem__, images)))
    except KeyError:  # an image leaves F's labels
        images = _injective(images)
        return _from_distinct(F.basis, images, F.field, _lamp_keys(images))
    # the images permute F's labels: label x keeps its column, and the
    # column of x takes the coordinate that x.g^-1 had.
    return _canonical(_stacked(len(cols), (F, cols)), F.labels, F.field)


def _lamp_relabel(F: LabeledSubspace, action, r):
    """``_relabel`` of F by a word of lamplighter moves, on F's order keys; None for any other.

    Applies when ``action`` validates by ``groups._lamp_valid``, every
    letter of ``r`` is one of the lamplighter's moves and the heads stay
    in ``_LAMP_FRAME``.  The moves run on the keys and masks: a head move
    is key arithmetic and a toggle an XOR.  A relabel that keeps the
    order reuses F's basis, and if it moves only the heads its labels are
    built with no Python frame per label; one onto F's labels takes
    their columns from the keys with ``searchsorted``.  The result is the
    tuple-by-tuple path's, label objects' types included, and so are its
    errors: F's labels pass ``_lamp_valid``, and are checked as there
    unless F is a family span.
    """
    from .groups import LampElement, _lamp_steps  # groups imports this module

    word = _word(r)  # raises as the tuple-by-tuple path would
    steps = _lamp_steps(action, word)
    if steps is None:
        return None
    keys, w = F._keys, len(_LAMP_FRAME)
    toggles = 0 in steps
    offsets = keys % w
    moved = _lamp_word(_key_masks(keys) if toggles else None, offsets, steps, w)
    if moved is None:
        return None
    if steps and F._checked_by is not action.validate:
        action._check_points(F.labels)
    keys_r = _order_keys(*moved) if toggles else keys - offsets + moved[1]

    def images() -> Sequence:
        if toggles:
            return next(action._act_points(F.labels, (word,), True))
        heads = (moved[1] + _LAMP_FRAME.start).tolist()
        return tuple(map(tuple.__new__, repeat(LampElement), zip(map(operator.itemgetter(0), F.labels), heads)))

    if np.array_equal(keys_r, keys):  # every label fixed
        return _keyed(LabeledSubspace(F.field, F.labels, F.basis), keys)
    if (keys_r[1:] > keys_r[:-1]).all():
        return _keyed(LabeledSubspace(F.field, tuple(images()), F.basis), keys_r)
    cols = np.searchsorted(keys, keys_r)
    if (keys[np.minimum(cols, len(keys) - 1)] == keys_r).all():  # a permutation of F's labels
        return _keyed(_canonical(_stacked(len(cols), (F, cols)), F.labels, F.field), keys)
    return _from_distinct(F.basis, images(), F.field, keys_r)


# ---------------------------------------------------------------------------
# JSON wire format


def _encode_label(lbl):
    if isinstance(lbl, tuple):
        return [_encode_label(x) for x in lbl]
    return lbl


def _decode_label(obj):
    if isinstance(obj, list):
        return tuple(_decode_label(x) for x in obj)
    return obj


def subspace_to_json(space: LabeledSubspace) -> dict:
    """{"field": {"char": p}, "labels": [...], "rows": [[...]]} with rationals as "num/den"."""
    fmt = space.field.format_scalar
    return {
        "field": {"char": space.field.characteristic},
        "labels": [_encode_label(x) for x in space.labels],
        "rows": [[fmt(x) for x in row] for row in space.basis_rows()],
    }


def subspace_from_json(obj: Mapping) -> LabeledSubspace:
    try:
        fld = FieldSpec(obj["field"]["char"])
        labels = [_decode_label(x) for x in obj["labels"]]
        rows = [[fld.coerce(x) for x in row] for row in obj["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed subspace document: {exc}") from exc
    return subspace_from_rows(rows, labels, fld)


def dump_subspace(space: LabeledSubspace) -> str:
    return json.dumps(subspace_to_json(space), sort_keys=True)


def load_subspace(text: str) -> LabeledSubspace:
    try:
        obj = json.loads(text)
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ShapeError(f"malformed subspace document: {exc}") from exc
    return subspace_from_json(obj)
