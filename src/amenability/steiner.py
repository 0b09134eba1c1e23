"""Steiner points and exterior angles of matroid base polytopes.

The base polytope of a subspace matroid is the convex hull of the 0/1
indicator vectors of its bases.  The Steiner point is the average of
the vertices weighted by their exterior angles, equivalently the
expected minimizer of a uniformly random linear functional, so it is
estimated by drawing unit directions and taking the greedy minimum
basis for each.  Hit counts accumulate as integers and the estimate is
assembled in exact rationals with denominator N, which turns the key
monotonicity facts for nested subspaces into per-sample identities:
with shared directions the two greedy bases are nested, the estimates
compare coordinatewise, and their L1 gap is exactly the dimension gap.

Direction sampling is counter-based (Philox keyed by (seed, chunk)), so
sample i depends only on (seed, i).  Every sampling entry point goes
through one driver, ``_shared_kept``: per chunk of 512 directions it
sorts each row once and hands the orders to each matroid's kernel,
which runs greedy for all of them together as one batched elimination
over residues mod p, the same on every field and every number of
labels.  Greedy reads only the start of an order, so on long rows the
driver sorts a prefix of each row (``argpartition``, then the prefix by
value and index) and sorts a row whole only when its prefix ends in a
tie or leaves a kernel without a basis; the orders greedy reads are
always the stable sort's.  Long rows are drawn and sorted a row block
at a time, and a chunk larger than a block gets its own memory map, so
peak memory does not swing with the seed.
"""

from __future__ import annotations

import math
import mmap
import numbers
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    CapacityError,
    ContainmentError,
    DegenerateInputError,
    DomainError,
    InternalInvariantError,
    ShapeError,
)
from .linalg import _require_int, align_pair, contains_subspace
from .matroid import SubspaceMatroid

CHUNK = 512  # samples per Philox stream; fixed, part of the algorithm

_SEED_LIMIT = 2**64
# Entries of the largest temporary that drawing, normalising and prefix
# sorting a chunk make (1 MiB of float64): long rows are handled a few
# hundred at a time.
_BLOCK_ENTRIES = 1 << 17
# The most directions one call samples: a hundred times the largest count
# that the acceptance criteria, demos, CLI defaults and benchmark workloads
# use (10,000).  Time grows linearly with the count.
_SAMPLE_CAP = 1_000_000


@dataclass(frozen=True)
class DirectionSampler:
    """Deterministic uniform directions on the unit sphere in R^n.

    Sample i is a pure function of (seed, i): chunk c = i // CHUNK is an
    independent Philox stream keyed by (seed, c), and each row is an
    n-vector of standard normals scaled to unit length.
    """

    seed: int
    dimension: int

    def __post_init__(self) -> None:
        _require_int(self.seed, "seed")
        if not (0 <= self.seed < _SEED_LIMIT):
            raise ShapeError("seed must fit in 64 bits")
        if isinstance(self.dimension, numbers.Real) and self.dimension < 1:
            raise ShapeError("dimension must be at least 1")
        _require_int(self.dimension, "dimension")

    def chunk(self, c: int) -> np.ndarray:
        key = np.array([self.seed, c], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        raw = _chunk_buffer(CHUNK, self.dimension)
        # drawn and scaled in row blocks, in place: the stream and every
        # row's norm are those of one (CHUNK, dimension) draw
        for rows in _row_blocks(CHUNK, self.dimension):
            part = raw[rows]
            gen.standard_normal(out=part)
            part /= np.linalg.norm(part, axis=1, keepdims=True)
        return raw

    def directions(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 of the sample stream."""
        _require_int(start, "start")
        _require_int(stop, "stop")
        if start < 0 or stop < start:
            raise ShapeError("bad sample range")
        parts = []
        c = start // CHUNK
        while c * CHUNK < stop:
            block = self.chunk(c)
            lo = max(start - c * CHUNK, 0)
            hi = min(stop - c * CHUNK, CHUNK)
            parts.append(block[lo:hi])
            c += 1
        if not parts:
            return np.empty((0, self.dimension))
        return np.concatenate(parts, axis=0)

    def sample(self, i: int) -> np.ndarray:
        _require_int(i, "sample index")
        return self.directions(i, i + 1)[0]


@dataclass(frozen=True)
class SteinerEstimate:
    """Empirical Steiner point with exact-rational coordinates.

    Every sample contributes a 0/1 indicator with exactly rank ones, so
    the L1 norm of the vector equals the rank exactly and all entries
    lie in [0, 1]; the per-vertex hit counts sum to the sample count.
    """

    labels: tuple
    vector: tuple
    samples: int
    seed: int
    per_vertex_hits: Mapping[tuple, int] = field(default=None)
    stderr_bound: float = 0.0

    def l1(self) -> Fraction:
        return sum(self.vector, Fraction(0))

    def coordinate(self, label) -> Fraction:
        if label not in self.labels:
            raise DomainError(f"label {label!r} is not a coordinate of this estimate")
        return self.vector[self.labels.index(label)]


def _chunk_buffer(rows: int, width: int) -> np.ndarray:
    """An uninitialised (rows, width) float64 array for one chunk of directions.

    A chunk larger than one row block gets its own anonymous memory map,
    which goes back to the system as soon as the array is dropped.  From
    malloc, chunks of a few MiB land in the heap once one such block has
    been freed, and how much of the heap then stays resident depends on
    what was allocated around them, so peak memory would differ from one
    sampling seed to the next.
    """
    if rows * width <= _BLOCK_ENTRIES:
        return np.empty((rows, width))
    # every entry is written next, so the pages are mapped in at once
    # rather than one fault at a time
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    buffer = mmap.mmap(-1, rows * width * 8, flags=flags)
    return np.frombuffer(buffer, dtype=np.float64).reshape(rows, width)


def _row_blocks(count: int, width: int) -> list:
    """Slices cutting ``count`` rows of ``width`` entries into blocks of at most ``_BLOCK_ENTRIES``."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _stable_prefix(block: np.ndarray, k: int):
    """The first k entries of each row's stable argsort, and the rows they may miss.

    Returns ``(order, ties)``.  ``np.argpartition`` puts the k smallest
    values of a row first, in no set order, and the (k+1)-th smallest at
    position k; sorting those k indices by (value, index) gives the
    stable sort's prefix unless the largest of them equals the value at
    position k.  Then the tie may have kept a larger index than the
    stable sort keeps, so those rows, ``ties``, need the full sort.
    Rows of at most k entries are sorted whole.  Long rows are
    partitioned a row block at a time (``_row_blocks``).
    """
    if k >= block.shape[1]:
        return np.argsort(block, axis=1, kind="stable"), np.empty(0, dtype=np.intp)
    orders, ties = [], []
    for cut in _row_blocks(*block.shape):
        rows = block[cut]
        part = np.argpartition(rows, k, axis=1)
        head = part[:, :k]
        values = np.take_along_axis(rows, head, axis=1)
        orders.append(np.take_along_axis(head, np.lexsort((head, values), axis=1), axis=1))
        after = np.take_along_axis(rows, part[:, k, None], axis=1)[:, 0]
        ties.append(cut.start + np.flatnonzero(values.max(axis=1) == after))
    return np.concatenate(orders), np.concatenate(ties)


def _prefix_length(kernels) -> int:
    """How many entries of each order a chunk sorts, at least: four times the largest rank, and 64."""
    return max(64, 4 * max(kernel.rank for kernel in kernels))


def _shared_kept(kernels, N: int, seed: int):
    """Greedy bases of each kernel over samples 0..N-1 of one direction stream.

    Yields one list per chunk, in chunk order, holding for each kernel a
    (rows, rank) array of ascending label indices.  The kernels share
    their labels.

    Greedy reads only the start of each order, so on rows longer than
    the prefix length k (``_prefix_length``) a chunk sorts just its
    first k entries.  A row that ties at the prefix's end, or on which a
    kernel holds no basis after k labels, is run again for that kernel
    on its full stable order; so the bases never depend on k.
    """
    sampler = DirectionSampler(seed=seed, dimension=len(kernels[0].residues))
    k = _prefix_length(kernels)

    def run_chunk(c: int) -> list:
        block = sampler.chunk(c)[: N - c * CHUNK]
        order, ties = _stable_prefix(block, k)
        out = []
        for kernel in kernels:
            kept, unfinished = kernel.greedy_rows(order)
            redo = np.union1d(ties, unfinished) if ties.size else unfinished
            if redo.size:
                kept[redo] = np.concatenate([
                    kernel.greedy_rows(np.argsort(block[redo[cut]], axis=1, kind="stable"))[0]
                    for cut in _row_blocks(redo.size, block.shape[1])
                ])
            out.append(kept)
        return out

    yield from map(run_chunk, range((N + CHUNK - 1) // CHUNK))


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of a 2-D integer array and how often each occurs."""
    rows = np.ascontiguousarray(rows)
    width = rows.shape[1]
    packed = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    keys, counts = np.unique(packed, return_counts=True)
    return keys.view(rows.dtype).reshape(-1, width), counts


def _tally(matroids, N: int, seed: int, nested: bool = False):
    """Hits of each matroid's greedy basis over N shared directions.

    Returns, per matroid, the hit counts keyed by sorted label tuples
    (in key order) and the per-label counts summed sample by sample.
    With ``nested``, every sample's first basis must lie in its second.
    """
    labels = matroids[0].labels
    n = len(labels)
    hits = [Counter() for _ in matroids]
    per_label = [np.zeros(n, dtype=np.int64) for _ in matroids]
    for kept in _shared_kept([M._kernel for M in matroids], N, seed):
        # nested: each label of a sample's first basis occurs in its second
        if nested and not (kept[0][:, :, None] == kept[1][:, None, :]).any(axis=2).all():
            raise InternalInvariantError("greedy bases of a nested pair were not nested")
        for counter, counts, rows in zip(hits, per_label, kept):
            keys, freq = _distinct_rows(rows)
            counter.update(dict(zip(map(tuple, keys.tolist()), freq.tolist())))
            counts += np.bincount(rows.ravel(), minlength=n)
    by_label = [
        dict(sorted((tuple(labels[j] for j in key), c) for key, c in counter.items()))
        for counter in hits
    ]
    return by_label, per_label


def _require_samples(N) -> None:
    _require_int(N, "sample count")
    if N < 1:
        raise ShapeError("sample count must be at least 1")


def _check_sampling_args(M: SubspaceMatroid, N) -> None:
    _require_samples(N)
    if N > _SAMPLE_CAP:
        raise CapacityError(f"sample count {N} exceeds the cap of {_SAMPLE_CAP}")
    if M.rank < 1:
        raise DegenerateInputError("the zero subspace has no Steiner point")


def _estimate(labels, hits: dict, N: int, seed: int) -> SteinerEstimate:
    acc = {lbl: 0 for lbl in labels}
    for basis, count in hits.items():
        for lbl in basis:
            acc[lbl] += count
    return SteinerEstimate(
        labels=labels,
        vector=tuple(Fraction(acc[lbl], N) for lbl in labels),
        samples=N,
        seed=seed,
        per_vertex_hits=hits,
        stderr_bound=math.sqrt(0.25 / N),
    )


def estimate_steiner(M: SubspaceMatroid, samples: int, seed: int) -> SteinerEstimate:
    """Monte-Carlo Steiner point of the base polytope of M.

    Unbiased: the expected value of each coordinate is the exterior-angle
    weighted average of the vertices.  Deterministic given (seed, samples).
    """
    _check_sampling_args(M, samples)
    (hits,), _ = _tally([M], samples, seed)
    return _estimate(M.labels, hits, samples, seed)


def angles_from_hits(M: SubspaceMatroid, hits: Mapping[tuple, int], samples: int) -> dict:
    """Exterior-angle fractions from hit counts; every key is verified to be a basis.

    One greedy call checks the keys before the first of the wrong length
    or with an unknown label; the error raised is the first bad key's.
    """
    _require_samples(samples)
    idx, keys, rows = M._index, list(hits), []
    for basis in keys:
        if len(basis) != M.rank or not all(lbl in idx for lbl in basis):
            break
        rows.append([idx[lbl] for lbl in basis])
    _, dependent = M._kernel.greedy_rows(np.array(rows, dtype=np.int64).reshape(len(rows), M.rank))
    first = int(dependent[0]) if dependent.size else len(rows)
    if first < len(keys):
        bad = keys[first]
        if len(bad) == M.rank:
            M._positions(bad)  # an unknown label raises DomainError
        raise InternalInvariantError(f"greedy returned a non-basis {bad!r}")
    return {b: Fraction(c, samples) for b, c in sorted(hits.items())}


def exterior_angles(M: SubspaceMatroid, samples: int, seed: int) -> dict:
    """Estimated exterior angle of each vertex: its fraction of directions.

    The fractions carry denominator ``samples`` and add up to 1 exactly;
    every key is verified to be a basis.  They equal
    ``angles_from_hits(M, est.per_vertex_hits, samples)`` for the
    estimate with the same seed.
    """
    _check_sampling_args(M, samples)
    (hits,), _ = _tally([M], samples, seed)
    return angles_from_hits(M, hits, samples)


@dataclass(frozen=True)
class CoupledEstimate:
    low: SteinerEstimate
    high: SteinerEstimate
    l1_gap: int


def coupled_nested_estimate(
    E: SubspaceMatroid, F: SubspaceMatroid, samples: int, seed: int
) -> CoupledEstimate:
    """Steiner estimates of a nested pair E <= F on shared directions.

    Per direction the greedy basis of E is contained in the greedy basis
    of F, so the estimate of E is coordinatewise at most the estimate of
    F and the L1 distance between them is exactly dim F - dim E.  Both
    facts are asserted: nesting sample by sample, the order and the gap
    on the exact vectors.
    """
    if not contains_subspace(E.space, F.space):
        raise ContainmentError("coupled estimates need E <= F")
    Esp, Fsp = align_pair(E.space, F.space)
    if Esp.labels != E.space.labels:
        E = SubspaceMatroid(Esp)
    if Fsp.labels != F.space.labels:
        F = SubspaceMatroid(Fsp)
    _check_sampling_args(F, samples)
    if E.rank < 1:
        raise DegenerateInputError("the zero subspace has no Steiner point")

    (hits_e, hits_f), _ = _tally([E, F], samples, seed, nested=True)
    est_e = _estimate(F.labels, hits_e, samples, seed)
    est_f = _estimate(F.labels, hits_f, samples, seed)
    gap = F.rank - E.rank
    if any(a > b for a, b in zip(est_e.vector, est_f.vector)):
        raise InternalInvariantError("coupled estimates were not monotone")
    if sum((b - a for a, b in zip(est_e.vector, est_f.vector)), Fraction(0)) != gap:
        raise InternalInvariantError("coupled L1 gap missed the dimension gap")
    return CoupledEstimate(low=est_e, high=est_f, l1_gap=gap)


@dataclass(frozen=True)
class MinkowskiCheck:
    equal: bool
    first: SteinerEstimate
    second: SteinerEstimate
    combined: tuple  # exact rational vector of the Minkowski combination


def minkowski_combination_check(
    M1: SubspaceMatroid,
    M2: SubspaceMatroid,
    alpha,
    samples: int,
    seed: int,
) -> MinkowskiCheck:
    """Check Steiner-point additivity under Minkowski combination.

    With shared directions, the minimizing vertex of a*P1 + (1-a)*P2 at
    direction v is a*x1 + (1-a)*x2 where x1, x2 minimize over P1, P2
    (normal cones intersect), so the per-sample accumulation of the
    combined vertex must equal the combination of the two estimates
    exactly.  Both accumulation paths are computed and compared: the
    estimates from the hit counts, the combination from the labels each
    sample kept.
    """
    if M1.labels != M2.labels:
        raise ShapeError("Minkowski combination needs a common ambient label list")
    try:
        alpha = Fraction(alpha)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ShapeError(f"the combination weight must be rational, got {alpha!r}") from exc
    if not (0 <= alpha <= 1):
        raise ShapeError("the combination weight must lie in [0, 1]")
    _check_sampling_args(M1, samples)
    _check_sampling_args(M2, samples)
    labels = M1.labels
    (hits1, hits2), (counts1, counts2) = _tally([M1, M2], samples, seed)
    est1 = _estimate(labels, hits1, samples, seed)
    est2 = _estimate(labels, hits2, samples, seed)
    beta = 1 - alpha
    combined = tuple(
        (alpha * a + beta * b) / samples for a, b in zip(counts1.tolist(), counts2.tolist())
    )
    expected = tuple(
        alpha * a + beta * b for a, b in zip(est1.vector, est2.vector)
    )
    return MinkowskiCheck(
        equal=combined == expected, first=est1, second=est2, combined=combined
    )
