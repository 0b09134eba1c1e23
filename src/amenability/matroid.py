"""Column matroids of labeled subspaces.

A label set S is independent when the columns it indexes are linearly
independent; the bases (|S| = dim) are exactly the coordinate sets onto
which the subspace projects isomorphically.  Greedy minimization over
the bases is the hot loop of the Steiner-point sampler, so independence
testing runs on cached per-column data: bitmasks over GF(2), residues
mod p otherwise.  Rational subspaces are reduced mod a prime exceeding
the Hadamard bound on their minors, which preserves the matroid exactly.
On at most ``TABLE_LABELS`` labels a kernel also keeps a table of which
label subsets are independent, which the sampler reads for whole blocks
of directions at once.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np
from sympy import nextprime

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
    _rref,
    _to_array,
    align_pair,
    contains_subspace,
    subspace_from_rows,
)

Basis = tuple  # a sorted tuple of labels


TABLE_LABELS = 16  # kernels on at most this many labels keep an independence table


class _Kernel:
    """Greedy over a matroid's columns, for one order or for many at once.

    A field kernel supplies ``greedy(order)``: the labels greedy keeps
    scanning ``order``, sorted, stopping once it holds ``rank`` of them.
    On at most ``TABLE_LABELS`` labels the kernel also keeps ``table``:
    ``table[mask]`` records whether the labels in the bitmask ``mask``
    are independent (1 yes, 0 no, -1 not known yet).  It is a pure
    function of the matroid, filled on demand by exact elimination, and
    lives as long as the kernel, so every sampler call on one matroid
    shares it.
    """

    __slots__ = ("cols", "rank", "table")

    def __init__(self, cols, d):
        self.cols = cols
        self.rank = d
        n = len(cols)
        self.table = np.full(1 << n, -1, dtype=np.int8) if n <= TABLE_LABELS else None

    def rank_of(self, indices) -> int:
        # greedy stops once it holds d labels, and no rank exceeds d
        return len(self.greedy(indices))

    def greedy_rows(self, order: np.ndarray, samples: int) -> np.ndarray:
        """Greedy basis for each row of a 2-D order array, as ascending label indices.

        ``samples`` is how many orders the whole run reads.  With a table,
        greedy runs for all rows at once: step t offers each row its t-th
        label, as a bit added to the int64 mask of the labels the row
        kept, and the table says whether the larger set is still
        independent.  Rows that hold a basis take no further part.  A set
        the table does not know yet is settled by following one row that
        offers it to the end of its greedy run, recording every set
        offered on the way.  Otherwise, and when the run is too short for
        the table to pay off, this is ``greedy`` row by row.
        """
        rows, n = order.shape
        d = self.rank
        # Greedy only asks about a kept set of fewer than d labels plus one
        # more label: at most n * sum_{k<d} C(n-1, k) sets.  Measured, the
        # table wins once there are at most about 8 of them per sample.
        if self.table is None or n * sum(math.comb(n - 1, k) for k in range(d)) > 8 * samples:
            kept = [self.greedy(row.tolist()) for row in order]
            return np.array(kept, dtype=np.int64).reshape(rows, d)
        table = self.table
        kept = np.zeros(rows, dtype=np.int64)
        size = np.zeros(rows, dtype=np.int64)
        for t, bit in enumerate(np.left_shift(1, order.T, dtype=np.int64)):
            open_ = size < d
            if not open_.any():
                break
            cand = np.where(open_, kept | bit, kept)
            found = table[cand]
            missing = np.flatnonzero(found < 0)
            if missing.size:
                _, first = np.unique(cand[missing], return_index=True)
                for i in missing[first].tolist():
                    self._record_run(int(kept[i]), order[i, t:].tolist())
                found = table[cand]
            take = open_ & (found == 1)
            kept = np.where(take, cand, kept)
            size += take
        bits = np.unpackbits(
            kept.astype("<i8").view(np.uint8).reshape(rows, 8), axis=1, count=n, bitorder="little"
        )
        return np.nonzero(bits)[1].reshape(rows, d)

    def _record_run(self, kept: int, rest: list) -> None:
        """Record in the table each set greedy meets going on from ``kept`` along ``rest``."""
        members = [j for j in range(len(self.cols)) if kept >> j & 1]
        # kept is independent, so greedy keeps all of it before reading rest
        chosen = set(self.greedy(members + rest))
        size = len(members)
        met = {}
        for idx in rest:
            if size == self.rank:
                break
            cand = kept | 1 << idx
            met[cand] = idx in chosen
            if met[cand]:
                kept = cand
                size += 1
        self.table[list(met)] = list(met.values())


class _Gf2Kernel(_Kernel):
    """Columns as bitmasks; elimination by XOR."""

    __slots__ = ()

    def __init__(self, columns, d):
        super().__init__([sum(1 << r for r, v in enumerate(col) if v) for col in columns], d)

    def greedy(self, order) -> list:
        cols = self.cols
        d = self.rank
        table = {}
        kept = []
        for idx in order:
            c = cols[idx]
            while c:
                low = c & (-c)
                hit = table.get(low)
                if hit is None:
                    table[low] = c
                    kept.append(idx)
                    break
                c ^= hit
            if len(kept) == d:
                break
        kept.sort()
        return kept


class _ModPKernel(_Kernel):
    """Columns as residue tuples mod p; incremental Gaussian elimination."""

    __slots__ = ("p",)

    def __init__(self, cols, d, p):
        super().__init__(cols, d)
        self.p = p

    def greedy(self, order) -> list:
        cols = self.cols
        d = self.rank
        p = self.p
        pivots = []
        kept = []
        for idx in order:
            c = list(cols[idx])
            for pos, row in pivots:
                f = c[pos]
                if f:
                    c = [(a - f * b) % p for a, b in zip(c, row)]
            pos = next((j for j, x in enumerate(c) if x), -1)
            if pos >= 0:
                inv = pow(c[pos], -1, p)
                pivots.append((pos, [(x * inv) % p for x in c]))
                kept.append(idx)
                if len(kept) == d:
                    break
        kept.sort()
        return kept


def _rational_kernel(basis, d, n) -> _ModPKernel:
    # Clear denominators row by row (row scaling keeps the column matroid),
    # then reduce mod a prime larger than any d x d minor can be in absolute
    # value (Hadamard bound), so nonzero minors stay nonzero mod p.
    int_rows = []
    for row in basis:
        denom = math.lcm(*(x.denominator for x in row)) if row else 1
        int_rows.append([int(x * denom) for x in row])
    big = max((abs(x) for row in int_rows for x in row), default=1) or 1
    bound = math.isqrt((d * big * big) ** d) + 1
    p = int(nextprime(bound))
    cols = [tuple(int_rows[r][j] % p for r in range(d)) for j in range(n)]
    return _ModPKernel(cols, d, p)


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
        return {lbl: j for j, lbl in enumerate(self.space.labels)}

    @cached_property
    def _kernel(self):
        d = self.space.dim
        char = self.space.field.characteristic
        n = len(self.space.labels)
        if char == 0:
            return _rational_kernel(self.space.basis, d, n)
        if d:
            columns = self.space.basis.T.tolist()
        else:
            columns = [[] for _ in range(n)]
        if char == 2:
            return _Gf2Kernel(columns, d)
        return _ModPKernel([tuple(col) for col in columns], d, char)

    def _positions(self, labels: Iterable) -> list:
        idx = self._index
        out = []
        for lbl in labels:
            if lbl not in idx:
                raise DomainError(f"label {lbl!r} is not a coordinate of this subspace")
            out.append(idx[lbl])
        return out


def is_independent(M: SubspaceMatroid, S: Iterable) -> bool:
    """True iff the columns indexed by S are linearly independent."""
    pos = M._positions(S)
    if len(set(pos)) != len(pos):
        return False
    if len(pos) > M.rank:
        return False
    return M._kernel.rank_of(pos) == len(pos)


def is_basis(M: SubspaceMatroid, S: Iterable) -> bool:
    S = list(S)
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
    order = sorted(range(len(M.labels)), key=lambda i: (weights[i], i))
    kept = M._kernel.greedy(order)
    return tuple(M.labels[i] for i in kept)


def enumerate_bases(M: SubspaceMatroid, cap: int = 100_000) -> list:
    """All bases, in lexicographic label order; errors out beyond ``cap``."""
    if cap <= 0:
        raise ShapeError("cap must be positive")
    d = M.rank
    out = []
    for combo in combinations(range(len(M.labels)), d):
        if M._kernel.rank_of(combo) == d:
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


def _check_basis(M: SubspaceMatroid, S, what: str) -> None:
    if not is_basis(M, S):
        raise InvalidBasisError(f"{what} {tuple(S)!r} is not a basis")


def _rref_leading(space: LabeledSubspace, lead: Sequence[int]):
    """RREF of a basis with the columns ``lead`` moved first, then moved back.

    Returns ``(matrix, pivots)``: the reduced rows as an array in the
    space's column order, and the pivots as positions in the order with
    ``lead`` first.
    """
    rest = set(lead)
    order = list(lead) + [j for j in range(len(space.labels)) if j not in rest]
    a = _to_array(space.basis, space.field, len(order)).take(order, axis=1)
    reduced, pivots = _rref(a, space.field.characteristic)
    back = np.empty_like(reduced)
    back[:, order] = reduced
    return back, pivots


def basis_extend(E: SubspaceMatroid, F: SubspaceMatroid, S: Iterable) -> Basis:
    """Grow a basis of E <= F into a basis of F containing it.

    Works inside D = {v in F : v vanishes on S}: the pivot labels of D
    are disjoint from S and complete it to a basis of F.
    """
    S = tuple(sorted(S))
    _check_nested(E, F)
    _check_basis(E, S, "basis of the smaller subspace")
    Fsp = F.space
    idx = Fsp.label_index()
    spos = [idx[lbl] for lbl in S]
    # RREF with the S-columns leading isolates the rows vanishing on S.
    reduced, _ = _rref_leading(Fsp, spos)
    vanishing = ~(reduced[:, spos] != 0).any(axis=1)
    D = subspace_from_rows(reduced[vanishing], Fsp.labels, Fsp.field)
    extension = initial_basis(SubspaceMatroid(D))
    T = tuple(sorted(set(S) | set(extension)))
    if not is_basis(F, T):
        raise InternalInvariantError("extension failed the independence recheck")
    return T


def basis_restrict(E: SubspaceMatroid, F: SubspaceMatroid, T: Iterable) -> Basis:
    """Shrink a basis of F down to a basis of E <= F contained in it.

    Projects E onto the coordinates of T and takes the pivot labels of
    the projection.
    """
    T = tuple(sorted(T))
    _check_nested(E, F)
    _check_basis(F, T, "basis of the larger subspace")
    # Over the labels of E + F, the labels of T outside E carry zero columns.
    Esp, _ = align_pair(E.space, F.space)
    idx = Esp.label_index()
    projected = Esp._array[:, [idx[lbl] for lbl in T]]
    S = initial_basis(SubspaceMatroid(subspace_from_rows(projected, T, Esp.field)))
    if not is_basis(E, S):
        raise InternalInvariantError("restriction failed the independence recheck")
    return S


def _dual_basis_rows(space: LabeledSubspace, S: Sequence) -> dict:
    """For each s in S, the unique basis vector whose S-coordinates are e_s."""
    idx = space.label_index()
    reduced, pivots = _rref_leading(space, [idx[lbl] for lbl in S])
    if pivots != tuple(range(len(S))):
        raise InvalidBasisError(f"{tuple(S)!r} is not a basis")
    return dict(zip(S, reduced.tolist()))


def basis_exchange(E: SubspaceMatroid, F: SubspaceMatroid, S, T, k) -> object:
    """A label l of T that can swap with k in S, keeping both bases valid.

    Uses the coordinate pairing of dual bases: picks the smallest l in T
    whose dual-basis coefficients eps_k[l] and phi_l[k] are both nonzero;
    then S - {k} + {l} is a basis of E and T - {l} + {k} a basis of F.
    """
    S = tuple(sorted(S))
    T = tuple(sorted(T))
    _check_nested(E, F)
    _check_basis(E, S, "basis of the smaller subspace")
    _check_basis(F, T, "basis of the larger subspace")
    if k not in S:
        raise InvalidBasisError(f"{k!r} is not a member of the given basis")
    Esp, Fsp = align_pair(E.space, F.space)
    eps = _dual_basis_rows(Esp, S)[k]
    phi = _dual_basis_rows(Fsp, T)
    idx = {lbl: j for j, lbl in enumerate(Fsp.labels)}
    k_col = idx[k]
    for ell in T:
        if eps[idx[ell]] != 0 and phi[ell][k_col] != 0:
            new_S = tuple(sorted(set(S) - {k} | {ell}))
            new_T = tuple(sorted(set(T) - {ell} | {k}))
            if not (is_basis(E, new_S) and is_basis(F, new_T)):
                raise InternalInvariantError("exchange failed the independence recheck")
            return ell
    raise InternalInvariantError("no exchange label exists; this should be impossible")
