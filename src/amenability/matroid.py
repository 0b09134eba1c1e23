"""Column matroids of labeled subspaces.

A label set S is independent when the columns it indexes are linearly
independent; the bases (|S| = dim) are exactly the coordinate sets onto
which the subspace projects isomorphically.  Greedy minimization over
the bases is the hot loop of the Steiner-point sampler, so greedy runs
on each column's residues mod a prime p, kept once per matroid:
p is the characteristic over GF(p).  A rational subspace is scaled row
by row to integers and reduced mod ``linalg._prime_above`` of the
Hadamard bound on its minors, a proven prime, which preserves the
matroid exactly.  Greedy in a column order keeps the pivots of an
elimination in that order.  A single order (``greedy_min_basis`` and
the nested-pair moves) is a ``linalg._rref`` of the residues of a
prefix of the order, doubled until it holds a basis; a block
of orders (the sampler's chunks of directions, ``enumerate_bases``'
label sets) is one ``_Kernel.greedy_rows`` call, as numpy steps over
per-row echelon slots.  Independence is a rank over the field itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ContainmentError,
    DomainError,
    InternalInvariantError,
    InvalidBasisError,
    ShapeError,
)
from .linalg import (
    LabeledSubspace,
    _label_list,
    _prime_above,
    _require_int,
    _rref,
    _sorted_labels,
    _to_array,
    contains_subspace,
)

Basis = tuple  # a sorted tuple of labels

BASES_BLOCK = 1024  # label sets per greedy call in ``enumerate_bases``
GREEDY_PREFIX = 64  # columns in the first prefix of a single greedy order


class _Kernel:
    """Greedy over a matroid's columns mod a prime p, for a block of orders at once.

    ``residues`` holds each column's residues as one ``(n, rank)``
    array: int64 when ``p < 2**31``, so a product of two residues stays
    below 2**62, and Python ints otherwise.  ``greedy_rows`` runs greedy
    for a block of orders at once.
    """

    __slots__ = ("rank", "p", "residues")

    def __init__(self, residues: np.ndarray, p: int):
        self.rank = residues.shape[1]
        self.p = p
        self.residues = residues

    def greedy_rows(self, order: np.ndarray) -> tuple:
        """Greedy basis for each row of a 2-D order array, as ascending label indices.

        Returns ``(kept, unfinished)``: ``kept`` holds one row of d label
        indices per order, and ``unfinished`` the ascending indices of the
        rows whose labels did not reach a basis: a prefix of a label
        order, or a set of labels that spans less.  The kept rows of
        unfinished orders are meaningless.

        Greedy runs for all rows at once, as one Gaussian elimination per
        row.  A row keeps d echelon slots: slot j is empty or holds a kept
        column reduced to start at coordinate j, with ``lead[j]`` its value
        there (1 while empty, so an empty slot changes nothing).  Step t
        offers each live row its t-th label and clears the column's
        coordinates j = 0..d-1 in turn by ``c * lead[j] - c[j] * slot[j]``,
        which needs no inverses.  A nonzero remainder is independent of
        the kept columns and fills the slot at its first nonzero
        coordinate.  Rows that hold a basis take no further part.
        """
        rows, n = order.shape
        d, p, residues = self.rank, self.p, self.residues
        # Each slot cleared grows an entry at most 2(p - 1)-fold, so int64
        # holds ``every`` clearings between two reductions mod p.
        bits = (p - 1).bit_length()
        every = 1 if residues.dtype == object else (63 - bits) // (bits + 1)
        out = np.empty((rows, d), dtype=np.int64)
        live = np.arange(rows if d else 0)  # the empty set is every row's basis
        slots = np.zeros((rows, d, d), dtype=residues.dtype)
        lead = np.ones((rows, d), dtype=residues.dtype)
        kept = np.empty((rows, d), dtype=np.int64)
        size = np.zeros(rows, dtype=np.int64)
        for t in range(n):
            if not live.size:
                break
            label = order[live, t]
            c = residues[label]
            for j in range(d if t else 0):  # every slot is empty at t = 0
                c = c * lead[:, j, None] - c[:, j, None] * slots[:, j]
                if j % every == every - 1 or j == d - 1:
                    c %= p
            nonzero = c != 0
            new = np.flatnonzero(nonzero.any(axis=1))
            pos = nonzero[new].argmax(axis=1)
            slots[new, pos] = c[new]
            lead[new, pos] = c[new, pos]
            kept[new, pos] = label[new]
            size[new] += 1
            if new.size and size[new].max() == d:
                done = size == d
                out[live[done]] = kept[done]
                keep = ~done
                live, slots, lead, kept, size = (
                    a[keep] for a in (live, slots, lead, kept, size)
                )
        out.sort(axis=1)
        return out, live


@dataclass(frozen=True)
class SubspaceMatroid:
    """The column matroid of a labeled subspace."""

    space: LabeledSubspace

    @property
    def rank(self) -> int:
        return self.space.dim

    @property
    def labels(self) -> tuple:
        return self.space.labels

    @cached_property
    def _index(self) -> dict:
        return self.space.label_index()

    @cached_property
    def _kernel(self) -> _Kernel:
        space = self.space
        d = space.dim
        p = space.field.characteristic
        if p:
            return _Kernel(np.ascontiguousarray(space._array.T), p)
        # Clear denominators row by row (row scaling keeps the column
        # matroid), then reduce mod a prime larger than any d x d minor
        # can be in absolute value, so nonzero minors stay nonzero mod p.
        # A minor takes d entries of each row, so by Hadamard its square
        # is at most the product over rows of each row's d largest squares.
        rows = []
        for row in space.basis:
            denom = math.lcm(*(x.denominator for x in row))
            rows.append([int(x * denom) for x in row])
        bound = math.prod(sum(sorted((x * x for x in row), reverse=True)[:d]) for row in rows)
        p = _prime_above(math.isqrt(bound) + 1)
        residues = np.array(
            [[x % p for x in row] for row in rows], dtype=np.int64 if p < 1 << 31 else object
        )
        return _Kernel(residues.reshape(d, len(space.labels)).T.copy(), p)

    def _positions(self, labels: Iterable) -> list:
        idx = self._index
        out = []
        for lbl in labels:
            try:
                out.append(idx[lbl])
            except (KeyError, TypeError):  # an unhashable label is no coordinate either
                raise DomainError(f"label {lbl!r} is not a coordinate of this subspace") from None
        return out


def _eliminate(M: SubspaceMatroid, order: Sequence[int]):
    """``_rref`` of the kernel's residues with M's columns taken in ``order``.

    Every minor of at most rank size is below the kernel prime in
    absolute value, so it keeps its zero pattern mod p: the pivots are
    those over the field.
    """
    kernel = M._kernel
    return _rref(np.ascontiguousarray(kernel.residues[order].T), kernel.p)


def _greedy(M: SubspaceMatroid, order: Sequence[int]) -> list:
    """Greedy in a column order: the ascending columns that each enlarge the span.

    A column is a pivot exactly when it is outside the span of the
    columns before it, so a prefix of the order has the pivots of the
    whole order that lie in it.  Prefixes of 64, 128, ... columns are
    eliminated until one holds a basis: greedy's pivots usually come
    long before the last column.
    """
    width = GREEDY_PREFIX
    while True:
        _, pivots = _eliminate(M, order[:width])
        if len(pivots) == M.rank or width >= len(order):
            return sorted(order[c] for c in pivots)
        width *= 2


def _leading(M: SubspaceMatroid, labels: Sequence) -> list:
    """M's columns with those of ``labels`` first, then the rest ascending."""
    lead = M._positions(labels)
    rest = set(lead)
    return lead + [j for j in range(len(M.labels)) if j not in rest]


def is_independent(M: SubspaceMatroid, S: Iterable) -> bool:
    """True iff the columns indexed by S have rank |S| over the field.

    Only S's columns are read: over Q the whole basis as one array costs
    a Fraction conversion per entry.
    """
    pos = M._positions(_label_list(S))
    if len(set(pos)) != len(pos) or len(pos) > M.rank:
        return False
    sp = M.space
    cols = _to_array([[row[j] for j in pos] for row in sp.basis], sp.field, len(pos))
    _, pivots = _rref(cols, sp.field.characteristic)
    return len(pivots) == len(pos)


def is_basis(M: SubspaceMatroid, S: Iterable) -> bool:
    S = _label_list(S)
    return len(S) == M.rank and is_independent(M, S)


def initial_basis(M: SubspaceMatroid) -> Basis:
    """The deterministic basis given by the pivot columns of the RREF."""
    return tuple(M.labels[c] for c in M.space.pivot_columns())


def greedy_min_basis(M: SubspaceMatroid, weights: Iterable) -> Basis:
    """The basis minimizing total weight, by matroid greedy.

    Scans labels by ascending weight (ties broken by label order) and
    keeps each label whose column enlarges the rank.  For any direction
    vector this returns the vertex of the base polytope whose normal
    cone contains it.
    """
    try:
        weights = list(weights)
    except TypeError as exc:
        raise ShapeError(f"weights must be an iterable of numbers, got {weights!r}") from exc
    if len(weights) != len(M.labels):
        raise ShapeError(
            f"need one weight per label: got {len(weights)} for {len(M.labels)}"
        )
    try:
        finite = all(map(math.isfinite, weights))
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        finite = all(
            isinstance(w, numbers.Rational) or (isinstance(w, numbers.Real) and math.isfinite(w))
            for w in weights
        )
    if not finite:
        raise ShapeError("weights must be finite real numbers")
    order = sorted(range(len(M.labels)), key=weights.__getitem__)  # stable: ties in label order
    return tuple(M.labels[j] for j in _greedy(M, order))


def enumerate_bases(M: SubspaceMatroid, cap: int = 100_000) -> list:
    """All bases, in lexicographic label order; errors out beyond ``cap``."""
    if isinstance(cap, numbers.Real) and cap <= 0:
        raise ShapeError("cap must be positive")
    _require_int(cap, "cap")
    d = M.rank
    out = []
    combos = combinations(range(len(M.labels)), d)
    while block := list(islice(combos, BASES_BLOCK)):
        _, dependent = M._kernel.greedy_rows(np.array(block, dtype=np.int64))
        basis = np.ones(len(block), dtype=bool)
        basis[dependent] = False
        for combo in compress(block, basis.tolist()):
            out.append(tuple(M.labels[i] for i in combo))
            if len(out) > cap:
                raise CapacityError(
                    f"more than {cap} bases; raise the cap to enumerate them all"
                )
    return out


# ---------------------------------------------------------------------------
# nested-pair operations


def _check_nested(E: SubspaceMatroid, F: SubspaceMatroid) -> None:
    if not contains_subspace(E.space, F.space):
        raise ContainmentError("the first subspace is not contained in the second")


def _basis_arg(S) -> Basis:
    """A basis given to a nested-pair operation, as a sorted tuple of labels."""
    return tuple(_sorted_labels(_label_list(S)))


def _check_basis(M: SubspaceMatroid, S, what: str) -> None:
    if not is_basis(M, S):
        raise InvalidBasisError(f"{what} {tuple(S)!r} is not a basis")


def basis_extend(E: SubspaceMatroid, F: SubspaceMatroid, S: Iterable) -> Basis:
    """Grow a basis of E <= F into a basis of F containing it.

    Greedy on F with the S-columns first: S itself, then the labels
    outside S, in ascending order, that each enlarge the span.
    """
    S = _basis_arg(S)
    _check_nested(E, F)
    _check_basis(E, S, "basis of the smaller subspace")
    T = tuple(F.labels[j] for j in _greedy(F, _leading(F, S)))
    if not is_basis(F, T):
        raise InternalInvariantError("extension failed the independence recheck")
    return T


def basis_restrict(E: SubspaceMatroid, F: SubspaceMatroid, T: Iterable) -> Basis:
    """Shrink a basis of F down to a basis of E <= F contained in it.

    Greedy on E over the labels of T, in ascending order; the labels of
    T outside E carry zero columns of E and are never kept.
    """
    T = _basis_arg(T)
    _check_nested(E, F)
    _check_basis(F, T, "basis of the larger subspace")
    S = tuple(E.labels[j] for j in _greedy(E, [E._index[lbl] for lbl in T if lbl in E._index]))
    if not is_basis(E, S):
        raise InternalInvariantError("restriction failed the independence recheck")
    return S


def _dual_basis(M: SubspaceMatroid, B: Sequence) -> np.ndarray:
    """The dual basis of a basis B of M, mod the kernel prime, in M's column order.

    Row i is the vector of M's row space whose B-coordinates are e_i:
    the RREF with B's columns first.  Each entry is a ratio of minors,
    so it is zero mod p exactly when it is zero over the field.
    """
    order = _leading(M, B)
    reduced, _ = _eliminate(M, order)
    dual = np.empty_like(reduced)
    dual[:, order] = reduced
    return dual


def basis_exchange(E: SubspaceMatroid, F: SubspaceMatroid, S, T, k) -> object:
    """A label l of T that can swap with k in S, keeping both bases valid.

    Uses the coordinate pairing of dual bases: picks the smallest l in T
    whose dual-basis coefficients eps_k[l] and phi_l[k] are both nonzero;
    then S - {k} + {l} is a basis of E and T - {l} + {k} a basis of F.
    Labels of T outside E carry zero columns of E, so eps_k is 0 there.
    """
    S = _basis_arg(S)
    T = _basis_arg(T)
    _check_nested(E, F)
    _check_basis(E, S, "basis of the smaller subspace")
    _check_basis(F, T, "basis of the larger subspace")
    if k not in S:
        raise InvalidBasisError(f"{k!r} is not a member of the given basis")
    eps = _dual_basis(E, S)[S.index(k)]
    phi = _dual_basis(F, T)[:, F._index[k]]
    col = E._index
    for ell, phi_ell in zip(T, phi.tolist()):
        if phi_ell and ell in col and eps[col[ell]]:
            new_S = tuple(sorted(set(S) - {k} | {ell}))
            new_T = tuple(sorted(set(T) - {ell} | {k}))
            if not (is_basis(E, new_S) and is_basis(F, new_T)):
                raise InternalInvariantError("exchange failed the independence recheck")
            return ell
    raise InternalInvariantError("no exchange label exists; this should be impossible")
