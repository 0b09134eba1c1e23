"""Exact field arithmetic and canonical subspace algebra over GF(p) and Q.

Subspaces of K^X are stored as reduced row-echelon bases over an ordered
list of coordinate labels, so equality of subspaces is equality of the
stored data.  No floating point is used anywhere in this module: GF(p)
matrices are int64 arrays of residues (p is a machine-word prime, so
products fit), rationals are ``fractions.Fraction``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

import numpy as np
from sympy import isprime

from .errors import (
    DomainError,
    FieldMismatchError,
    InvalidFieldError,
    ShapeError,
)

Label = Any  # hashable, totally ordered point encoding
Scalar = Any  # int for GF(p), Fraction for the rationals

_MAX_PRIME = 2**31


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: characteristic 0 means Q, else a prime p < 2**31."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        c = self.characteristic
        if c == 0:
            return
        if not isinstance(c, int) or c < 2 or c >= _MAX_PRIME or not isprime(c):
            raise InvalidFieldError(
                f"characteristic must be 0 or a prime below 2**31, got {c!r}"
            )

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
                return Fraction(value)
            raise ShapeError(f"cannot interpret {value!r} as a rational")
        if isinstance(value, str):
            value = int(value)
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

    def parse_scalar(self, text) -> Scalar:
        return self.coerce(Fraction(text) if self.is_rational else int(text))


RATIONALS = FieldSpec(0)
GF2 = FieldSpec(2)


def gf(p: int) -> FieldSpec:
    """The prime field with p elements."""
    return FieldSpec(p)


# ---------------------------------------------------------------------------
# reduced row-echelon form


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_residue_matrix(rows, p: int, width: int = None) -> np.ndarray:
    """Rows as an int64 matrix of residues mod p; exact, never via floats."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "iub":
            raise ShapeError("GF(p) matrices must be integer-valued")
        a = rows.astype(np.int64, copy=True)
    else:
        rows = list(rows)
        if not rows:
            return np.empty((0, width or 0), dtype=np.int64)
        try:
            a = np.asarray(rows)
        except ValueError as exc:
            raise ShapeError(f"rows must form a rectangular matrix: {exc}") from exc
        if a.ndim != 2:
            raise ShapeError("rows must form a rectangular matrix")
        if a.dtype.kind in "iub":
            a = a.astype(np.int64)
        elif a.dtype.kind in "OU":
            # Fractions, strings, or out-of-word integers: coerce exactly.
            fld = FieldSpec(p)
            a = np.asarray(
                [[fld.coerce(x) for x in row] for row in rows], dtype=np.int64
            )
        else:
            raise ShapeError("GF(p) matrices must be integer-valued, not floats")
    return a % p


def _rref_mod_p(a: np.ndarray, p: int):
    """In-place RREF over GF(p); returns (trimmed matrix, rank, pivots)."""
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
        # Rows r.. are zero left of column c, so only columns c.. change.
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r, c:] = (a[r, c:] * inv) % p
        f = a[:, c].copy()
        f[r] = 0
        hit = f.nonzero()[0]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - np.outer(f[hit], a[r, c:])) % p
        pivots.append(c)
        r += 1
        c += 1
    return a[:r], r, tuple(pivots)


def _rref_rational(rows: Sequence[Sequence[Fraction]]):
    """RREF over Q with exact fractions."""
    a = [list(row) for row in rows]
    if not a:
        return (), 0, ()
    n = len(a[0])
    if any(len(row) != n for row in a):
        raise ShapeError("rows must form a rectangular matrix")
    m = len(a)
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        row_r = a[r]
        # Rows r.. are zero left of column c; elimination touches only the
        # pivot row's support.
        support = [j for j in range(c, n) if row_r[j] != 0]
        inv = Fraction(1) / row_r[c]
        if inv != 1:
            for j in support:
                row_r[j] *= inv
        for i in range(m):
            row = a[i]
            f = row[c]
            if i != r and f != 0:
                for j in support:
                    row[j] -= f * row_r[j]
        pivots.append(c)
        r += 1
    reduced = tuple(tuple(row) for row in a[:r])
    return reduced, r, tuple(pivots)


def rref(rows, field: FieldSpec):
    """Reduced row-echelon form.

    Returns ``(matrix, rank, pivot_columns)`` as plain tuples: no zero
    rows, every pivot is 1 with zeros elsewhere in its column, pivot
    columns strictly increasing.  The result is the unique RREF of the
    row space of the input.
    """
    if field.is_rational:
        coerced = [[field.coerce(x) for x in row] for row in rows]
        if coerced:
            n = len(coerced[0])
            if any(len(row) != n for row in coerced):
                raise ShapeError("rows must all have the same length")
        return _rref_rational(coerced)
    a = _as_residue_matrix(rows, field.characteristic)
    reduced, rank, pivots = _rref_mod_p(a, field.characteristic)
    return tuple(tuple(int(x) for x in row) for row in reduced), rank, pivots


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
    """

    field: FieldSpec
    labels: tuple
    basis: Any

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
        if self.field.is_rational:
            return self.basis == other.basis
        return np.array_equal(self.basis, other.basis)

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return (
            f"LabeledSubspace(field={self.field.characteristic}, "
            f"dim={self.dim}, ambient={len(self.labels)})"
        )

    def basis_rows(self) -> list:
        """Basis rows as plain Python lists of scalars."""
        if self.field.is_rational:
            return [list(row) for row in self.basis]
        return self.basis.tolist()

    def pivot_columns(self) -> tuple:
        """Column index of each row's leading 1."""
        if self.field.is_rational:
            return tuple(
                next(j for j, x in enumerate(row) if x != 0) for row in self.basis
            )
        if self.dim == 0:
            return ()
        return tuple(int(np.nonzero(row)[0][0]) for row in self.basis)

    def label_index(self) -> dict:
        return {lbl: j for j, lbl in enumerate(self.labels)}

    def reduce_vector(self, vector: Sequence) -> tuple:
        """Residual of a coordinate vector after elimination against the basis."""
        if len(vector) != len(self.labels):
            raise ShapeError("vector length must match the label count")
        v = [self.field.coerce(x) for x in vector]
        p = self.field.characteristic
        rows = self.basis_rows()
        for row, c in zip(rows, self.pivot_columns()):
            f = v[c]
            if f != 0:
                if p:
                    v = [(x - f * y) % p for x, y in zip(v, row)]
                else:
                    v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)

    def contains_vector(self, vector: Sequence) -> bool:
        return all(x == 0 for x in self.reduce_vector(vector))


def subspace_from_rows(rows, labels: Sequence[Label], field: FieldSpec) -> LabeledSubspace:
    """Span of the given row vectors, canonicalized.

    Labels are sorted into their total order (columns permuted to match),
    the rows are row-reduced, and zero rows are dropped.
    """
    labels = list(labels)
    try:
        distinct = len(set(labels))
    except TypeError as exc:
        raise ShapeError(f"labels must be hashable: {exc}") from exc
    if distinct != len(labels):
        raise ShapeError("labels must be pairwise distinct")
    n = len(labels)
    try:
        order = sorted(range(n), key=labels.__getitem__)
    except TypeError as exc:
        raise ShapeError("labels must be mutually comparable") from exc
    sorted_labels = tuple(labels[j] for j in order)
    identity = order == list(range(n))

    if not field.is_rational:
        a = _as_residue_matrix(rows, field.characteristic, width=n)
        if a.shape[1] != n:
            raise ShapeError(
                f"row length {a.shape[1]} does not match label count {n}"
            )
        if not identity:
            a = np.ascontiguousarray(a[:, order])
        reduced, _, _ = _rref_mod_p(a, field.characteristic)
        reduced = _freeze(np.ascontiguousarray(reduced))
        return LabeledSubspace(field=field, labels=sorted_labels, basis=reduced)

    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != n:
            raise ShapeError(f"row length {len(r)} does not match label count {n}")
    coerced = [[field.coerce(x) for x in row] for row in rows]
    if not identity:
        coerced = [[row[j] for j in order] for row in coerced]
    reduced, _, _ = _rref_rational(coerced)
    return LabeledSubspace(field=field, labels=sorted_labels, basis=reduced)


def zero_subspace(labels: Sequence[Label], field: FieldSpec) -> LabeledSubspace:
    return subspace_from_rows([], labels, field)


def _merge_labels(a: tuple, b: tuple):
    """Sorted union of two sorted label tuples, in one linear pass.

    Returns ``(union, pos_a, pos_b)``: ``pos_a[j]`` is the column of
    ``a[j]`` in the union, likewise for ``b``.
    """
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
    return tuple(union), pos_a, pos_b


def _pad_rows(space: LabeledSubspace, cols: Sequence[int], width: int):
    """The basis of ``space`` with column j moved to ``cols[j]`` of ``width``.

    Order-preserving padding with zero columns keeps RREF intact.
    """
    if not space.field.is_rational:
        big = np.zeros((space.dim, width), dtype=np.int64)
        if space.dim:
            big[:, cols] = space.basis
        return big
    zero = Fraction(0)
    out = []
    for row in space.basis:
        big_row = [zero] * width
        for c, x in zip(cols, row):
            big_row[c] = x
        out.append(big_row)
    return out


def align_pair(E: LabeledSubspace, F: LabeledSubspace):
    """Rewrite two subspaces over the sorted union of their labels."""
    if E.field != F.field:
        raise FieldMismatchError(f"cannot combine {E.field} with {F.field}")
    if E.labels == F.labels:
        return E, F
    union, pos_e, pos_f = _merge_labels(E.labels, F.labels)

    def rebuild(sp, cols):
        if len(sp.labels) == len(union):
            return sp
        padded = _pad_rows(sp, cols, len(union))
        if not sp.field.is_rational:
            return LabeledSubspace(sp.field, union, _freeze(padded))
        return LabeledSubspace(sp.field, union, tuple(tuple(r) for r in padded))

    return rebuild(E, pos_e), rebuild(F, pos_f)


def subspace_sum(E: LabeledSubspace, F: LabeledSubspace) -> LabeledSubspace:
    """Span of E and F together; labels are unioned and vectors zero-padded."""
    if E.field != F.field:
        raise FieldMismatchError(f"cannot combine {E.field} with {F.field}")
    field = E.field
    if E.labels == F.labels:
        union = E.labels
        pos_e = pos_f = range(len(union))
    else:
        union, pos_e, pos_f = _merge_labels(E.labels, F.labels)
    if field.is_rational:
        stacked = _pad_rows(E, pos_e, len(union)) + _pad_rows(F, pos_f, len(union))
        reduced, _, _ = _rref_rational(stacked)
    else:
        stacked = np.zeros((E.dim + F.dim, len(union)), dtype=np.int64)
        stacked[: E.dim, pos_e] = E.basis
        stacked[E.dim :, pos_f] = F.basis
        reduced, _, _ = _rref_mod_p(stacked, field.characteristic)
        reduced = _freeze(np.ascontiguousarray(reduced))
    return LabeledSubspace(field=field, labels=union, basis=reduced)


def quotient_dim(F: LabeledSubspace, G: LabeledSubspace) -> int:
    """dim((F + G) / F), i.e. how many dimensions G adds on top of F."""
    return subspace_sum(F, G).dim - F.dim


def contains_subspace(E: LabeledSubspace, F: LabeledSubspace) -> bool:
    """True iff E <= F (every basis row of E reduces to zero against F)."""
    if E.field != F.field:
        raise FieldMismatchError(f"cannot compare {E.field} with {F.field}")
    if E.labels != F.labels:
        E, F = align_pair(E, F)
    return all(F.contains_vector(row) for row in E.basis_rows())


# ---------------------------------------------------------------------------
# formal combinations and the right action on subspaces


@dataclass(frozen=True)
class FormalCombination:
    """A finitely supported K-linear combination of group elements.

    Keys of ``terms`` are group elements given as generator words (tuples
    of generator names); values are nonzero scalars.
    """

    field: FieldSpec
    terms: tuple

    def __init__(self, field: FieldSpec, terms: Mapping):
        object.__setattr__(self, "field", field)
        cleaned = []
        for word, coeff in terms.items():
            if isinstance(word, str):
                word = (word,)
            word = tuple(word)
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


def _as_word(r) -> tuple:
    if isinstance(r, str):
        return (r,)
    return tuple(r)


def act_subspace(F: LabeledSubspace, action, r) -> LabeledSubspace:
    """Right action of a group element or formal combination on a subspace.

    A single element g relabels each coordinate x to x.g (dimension is
    preserved); a FormalCombination maps each basis vector by the linear
    extension and the span is recanonicalized.  Labels outside the current
    ambient are created as needed (the ambient is all of K^X implicitly).
    """
    if isinstance(r, FormalCombination):
        if r.field != F.field:
            raise FieldMismatchError("combination and subspace fields differ")
        if not r.terms:
            return zero_subspace(F.labels, F.field)
        targets = {
            word: [action.act_word(x, word) for x in F.labels] for word in r.support
        }
        new_labels = sorted({y for tt in targets.values() for y in tt})
        moved = {lbl: j for j, lbl in enumerate(new_labels)}
        if not F.field.is_rational:
            p = F.field.characteristic
            big = np.zeros((F.dim, len(new_labels)), dtype=np.int64)
            for word, coeff in r.items():
                cols = [moved[y] for y in targets[word]]
                big[:, cols] = (big[:, cols] + coeff * F.basis) % p
            return subspace_from_rows(big, new_labels, F.field)
        zero = Fraction(0)
        new_rows = []
        for row in F.basis:
            big_row = [zero] * len(new_labels)
            for word, coeff in r.items():
                tcols = targets[word]
                for x_val, y in zip(row, tcols):
                    if x_val != 0:
                        big_row[moved[y]] += x_val * coeff
            new_rows.append(big_row)
        return subspace_from_rows(new_rows, new_labels, F.field)

    word = _as_word(r)
    new_labels = [action.act_word(x, word) for x in F.labels]
    if len(set(new_labels)) != len(new_labels):
        raise DomainError("group element did not act injectively on the labels")
    return subspace_from_rows(F.basis, new_labels, F.field)


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
        fld = FieldSpec(int(obj["field"]["char"]))
        labels = [_decode_label(x) for x in obj["labels"]]
        rows = [[fld.parse_scalar(x) for x in row] for row in obj["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ShapeError(f"malformed subspace document: {exc}") from exc
    return subspace_from_rows(rows, labels, fld)


def dump_subspace(space: LabeledSubspace) -> str:
    return json.dumps(subspace_to_json(space), sort_keys=True)


def load_subspace(text: str) -> LabeledSubspace:
    return subspace_from_json(json.loads(text))
