"""Correctness checks on the library's outputs, one function per kind of result.

Each check recomputes what it can with ``oracles`` and otherwise tests a
property the method must have.  A failed check raises ``CheckFailed``
with a message naming the input; checks never run inside a timed region.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import oracles

# A Monte Carlo coordinate must lie within this many stderr bounds of the
# exact Steiner point.  stderr_bound = sqrt(1/4N) bounds the standard error
# of every coordinate, so a miss is a 6-sigma event at worst.
STDERR_MULTIPLE = 6


class CheckFailed(Exception):
    """An output of the library disagrees with the benchmark's reference."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(space) -> list:
    return [list(row) for row in space.basis] if space.field.characteristic == 0 else space.basis.tolist()


# ---------------------------------------------------------------------------
# module-family


def check_module_member(n: int, char: int, F, rebuilt, translates: dict, union) -> None:
    """lamp-span(n): dim F = n, dim(F+FS) = n+2, F.b = F, RREF bases, containment."""
    where = f"lamp-span({n}) over char {char}"
    expect(F.dim == n, f"{where}: dim F = {F.dim}, expected {n}")
    expect(union.dim == n + 2, f"{where}: dim(F+FS) = {union.dim}, expected {n + 2}")
    expect(len(F.labels) == (1 << n) * n, f"{where}: {len(F.labels)} labels")
    expect(list(F.labels) == sorted(F.labels), f"{where}: labels are not sorted")
    for name, sp in (("F", F), ("rebuilt F", rebuilt), ("F+FS", union), *translates.items()):
        expect(oracles.is_rref(_rows(sp), char), f"{where}: basis of {name} is not in RREF")
    # The span rebuilt from seeded rows and shuffled labels has one canonical form.
    expect(rebuilt.labels == F.labels and _rows(rebuilt) == _rows(F), f"{where}: rebuilt span differs")
    for s, Fs in translates.items():
        expect(Fs.dim == n, f"{where}: dim F.{s} = {Fs.dim}")
    Fb = translates["b"]
    expect(Fb.labels == F.labels and _rows(Fb) == _rows(F), f"{where}: F.b != F")
    index = {lbl: j for j, lbl in enumerate(union.labels)}
    width = len(union.labels)
    union_rows = _rows(union)
    pivots = oracles.pivot_columns(union_rows)
    for name, sp in (("F", F), *translates.items()):
        expect(all(lbl in index for lbl in sp.labels), f"{where}: {name} leaves F+FS")
        cols = [index[lbl] for lbl in sp.labels]
        if char == 0:
            for row in _rows(sp):
                vec = [Fraction(0)] * width
                for c, x in zip(cols, row):
                    vec[c] = x
                left = oracles.eliminate(vec, list(zip(pivots, union_rows)), 0)
                expect(not any(left), f"{where}: a vector of {name} is not in F+FS")
        else:
            vectors = np.zeros((sp.dim, width), dtype=np.int64)
            vectors[:, cols] = sp.basis
            left = oracles.residual_mod_p(np.asarray(union.basis, dtype=np.int64), pivots, vectors, char)
            expect(not left.any(), f"{where}: a vector of {name} is not in F+FS")


def check_span_table(table, ns) -> None:
    """The lamp-span family table: row n has dimension n and ratio 2/n."""
    got = [(r.v, r.ratio, r.witness) for r in table.rows]
    want = [(n, Fraction(2, n), ("lamp-span", n)) for n in ns]
    expect(got == want, f"lamp-span profile table {got} != {want}")


# ---------------------------------------------------------------------------
# set-profile


def check_lamp_box(n: int, points, report) -> None:
    """#lamp-box(n) = 2^n n, #(F u FS) = (n+2) 2^n, ratio 2/n, recounted."""
    where = f"lamp-box({n})"
    expect(len(points) == (1 << n) * n, f"{where}: {len(points)} points")
    expect(set(points) == set(oracles.lamp_box(n)), f"{where}: wrong point set")
    union = len(oracles.translate_union(points, oracles.lamp_moves()))
    expect(union == (n + 2) << n, f"{where}: recounted #(F u FS) = {union}")
    expect(report.size == len(points), f"{where}: report size {report.size}")
    expect(report.union_size == union, f"{where}: report union {report.union_size} != {union}")
    expect(report.union_ratio == Fraction(2, n), f"{where}: union ratio {report.union_ratio}")


def check_window(name: str, window, expected) -> None:
    expect(set(window) == set(expected), f"{name}: ball differs from the reference ball")


def _check_witnesses(name, table, moves) -> None:
    for row in table.rows:
        k = len(row.witness)
        expect(1 <= k <= row.v, f"{name}: witness size {k} at v={row.v}")
        b = oracles.boundary(row.witness, moves)
        expect(b == row.ratio * k, f"{name}: witness boundary {b} != {row.ratio} x {k} at v={row.v}")


def check_z_profile(table, v_max: int) -> None:
    """On Z: I(v) = 2/v, attained by an interval of v points."""
    expect([r.v for r in table.rows] == list(range(1, v_max + 1)), "Z: rows do not cover 1..v_max")
    for row in table.rows:
        expect(row.ratio == Fraction(2, row.v), f"Z: I({row.v}) = {row.ratio}")
        lo = min(row.witness)
        expect(row.witness == tuple(range(lo, lo + row.v)), f"Z: witness at v={row.v} is not an interval")
    _check_witnesses("Z", table, oracles.z_moves())


def check_free_profile(table, v_max: int) -> None:
    """On a free:2 ball: I(v) = 2 + 2/v, the tree bound |dF| >= 2|F| + 2."""
    expect([r.v for r in table.rows] == list(range(1, v_max + 1)), "free:2: rows do not cover 1..v_max")
    for row in table.rows:
        expect(row.ratio == 2 + Fraction(2, row.v), f"free:2: I({row.v}) = {row.ratio}")
    _check_witnesses("free:2", table, oracles.free_moves(2))


def check_z2_profile(table, window, v_max: int) -> None:
    """On a Z^2 window: the table equals the reference brute force, witnesses recounted."""
    want = oracles.brute_force_profile(window, oracles.z2_moves(), v_max)
    got = [(r.v, r.ratio, r.witness) for r in table.rows]
    expect(got == want, "Z^2: table differs from the brute-force profile")
    _check_witnesses("Z^2", table, oracles.z2_moves())


# ---------------------------------------------------------------------------
# steiner-greedy


def check_estimate(name: str, est, labels, rows, char: int, exact, samples: int) -> None:
    """Exact identities of one estimate, and closeness to the exact Steiner point.

    ``rows`` are the benchmark's own rows over ``labels`` (sorted, so the
    columns line up with the estimate) and ``exact`` the exact point.
    """
    r = oracles.rank(rows, char)
    expect(tuple(est.labels) == tuple(labels), f"{name}: labels differ")
    expect(est.samples == samples, f"{name}: {est.samples} samples")
    expect(sum(est.vector, Fraction(0)) == r, f"{name}: L1 norm {sum(est.vector)} != rank {r}")
    hits = est.per_vertex_hits
    expect(sum(hits.values()) == samples, f"{name}: hits sum to {sum(hits.values())}")
    position = {lbl: j for j, lbl in enumerate(labels)}
    acc = [0] * len(labels)
    for key, count in hits.items():
        cols = [position[lbl] for lbl in key]
        expect(
            len(cols) == r and oracles.column_rank(rows, cols, char) == r,
            f"{name}: hit key {key} is not a basis",
        )
        for j in cols:
            acc[j] += count
    expect(list(est.vector) == [Fraction(a, samples) for a in acc], f"{name}: vector is not hits/N")
    limit = STDERR_MULTIPLE * est.stderr_bound
    for lbl, x, e in zip(labels, est.vector, exact):
        expect(abs(float(x - e)) <= limit, f"{name}: coordinate {lbl} = {float(x):.4f}, exact {float(e):.4f}")


def check_angles(name: str, angles: dict, est) -> None:
    """Angles sum to 1 and equal the hit fractions of the estimate with the same seed."""
    expect(sum(angles.values(), Fraction(0)) == 1, f"{name}: angles sum to {sum(angles.values())}")
    want = {key: Fraction(c, est.samples) for key, c in est.per_vertex_hits.items()}
    expect(angles == want, f"{name}: angles differ from hits/N")


def check_greedy(name: str, bases, weights, labels, rows, char: int) -> None:
    """greedy_min_basis agrees with the reference greedy for every weight vector."""
    for w, got in zip(weights, bases):
        want = tuple(labels[j] for j in oracles.greedy_basis(rows, w, char))
        expect(tuple(got) == want, f"{name}: greedy basis {got} != {want}")


def check_coupled(name: str, pair, rows_e, rows_f, char: int) -> None:
    """Coordinatewise order and an L1 gap equal to the rank difference."""
    low, high = pair.low.vector, pair.high.vector
    expect(all(a <= b for a, b in zip(low, high)), f"{name}: estimates are not ordered")
    gap = oracles.rank(rows_f, char) - oracles.rank(rows_e, char)
    expect(sum((b - a for a, b in zip(low, high)), Fraction(0)) == gap, f"{name}: L1 gap is not {gap}")
    expect(pair.l1_gap == gap, f"{name}: reported gap {pair.l1_gap} != {gap}")


def check_minkowski(name: str, chk, alpha: Fraction, rows1, rows2, char: int) -> None:
    """The combined vector is alpha v1 + (1 - alpha) v2, recomputed here."""
    want = tuple(alpha * a + (1 - alpha) * b for a, b in zip(chk.first.vector, chk.second.vector))
    expect(chk.combined == want, f"{name}: combined vector differs from the combination")
    expect(chk.equal, f"{name}: the library reported unequal vectors")
    for est, rows in ((chk.first, rows1), (chk.second, rows2)):
        r = oracles.rank(rows, char)
        expect(sum(est.vector, Fraction(0)) == r, f"{name}: L1 norm is not the rank {r}")


# ---------------------------------------------------------------------------
# function-pipeline


def check_function(name: str, w, certificates: dict, moves: dict, coordinate, groups, classes: int) -> None:
    """Certificates, sampled ratios, mass per group of labels, and coordinates.

    ``groups`` maps each label to its parallel class (head positions of
    lamp-span, points of an interval); each of the ``classes`` classes
    carries Steiner mass exactly 1.  ``coordinate`` is the exact Steiner
    coordinate of every label.
    """
    expect(dict(w.certificates) == certificates, f"{name}: certificates {dict(w.certificates)}")
    values = dict(w.function.values)
    for key, move in moves.items():
        ratio = w.sampled_ratios[key]
        expect(float(ratio) <= float(certificates[key]) + w.tolerance, f"{name}: ratio {key} over certificate")
        expect(ratio == oracles.translation_defect(values, move), f"{name}: sampled ratio {key} recomputed differs")
    mass = {}
    for lbl, v in values.items():
        mass[groups(lbl)] = mass.get(groups(lbl), 0) + v
    expect(len(mass) == classes and set(mass.values()) == {1}, f"{name}: mass per class is not exactly 1")
    limit = STDERR_MULTIPLE * w.estimate.stderr_bound
    for lbl, x in zip(w.estimate.labels, w.estimate.vector):
        expect(abs(float(x - coordinate)) <= limit, f"{name}: coordinate {lbl} = {float(x):.4f}")


def check_layer_cake(name: str, lc, ratios: dict, values: dict, moves: list) -> None:
    """Best level ratio per generator is at most the function's; the level set is recounted."""
    for key, ratio in ratios.items():
        expect(lc.per_generator_best[key][1] <= ratio, f"{name}: layer cake worse than f for {key}")
    level = {x for x, v in values.items() if v >= lc.threshold}
    expect(set(lc.level_set) == level, f"{name}: level set is not {{f >= t}}")
    b = oracles.boundary(level, moves)
    expect(lc.report.union_ratio == Fraction(b, len(level)), f"{name}: level-set ratio recounted differs")
