"""Reference computations the benchmark checks the library against.

Nothing here imports the library.  Ranks, reductions, Shapley values,
group actions, boundaries and exhaustive profiles are recomputed from
first principles on plain Python data (ints, Fractions, tuples), with
numpy only for the wide GF(p) reductions of the module workload.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np


# ---------------------------------------------------------------------------
# exact elimination


def _normalize(x, char):
    return Fraction(x) if char == 0 else int(x) % char


def _inverse(x, char):
    return 1 / x if char == 0 else pow(x, -1, char)


def eliminate(vec, pivots, char):
    """Eliminate ``vec`` against ``pivots`` [(column, normalized row)]."""
    for col, row in pivots:
        f = vec[col]
        if f:
            if char == 0:
                vec = [a - f * b for a, b in zip(vec, row)]
            else:
                vec = [(a - f * b) % char for a, b in zip(vec, row)]
    return vec


def _add_pivot(vec, pivots, char) -> bool:
    """Append ``vec`` to the echelon list if it is independent of it."""
    vec = eliminate(vec, pivots, char)
    col = next((j for j, x in enumerate(vec) if x), None)
    if col is None:
        return False
    inv = _inverse(vec[col], char)
    if char == 0:
        pivots.append((col, [x * inv for x in vec]))
    else:
        pivots.append((col, [(x * inv) % char for x in vec]))
    return True


def rank(vectors, char: int) -> int:
    """Rank of a list of vectors over Q (char 0) or GF(char)."""
    pivots = []
    for v in vectors:
        _add_pivot([_normalize(x, char) for x in v], pivots, char)
    return len(pivots)


def column_rank(rows, cols, char: int) -> int:
    """Rank of the columns ``cols`` of the matrix ``rows``."""
    return rank([[row[j] for row in rows] for j in cols], char)


def greedy_basis(rows, weights, char: int) -> tuple:
    """Matroid greedy on the columns of ``rows``: ascending (weight, index)."""
    n = len(weights)
    d = rank(rows, char)
    pivots = []
    kept = []
    for j in sorted(range(n), key=lambda i: (weights[i], i)):
        if len(kept) == d:
            break
        if _add_pivot([_normalize(row[j], char) for row in rows], pivots, char):
            kept.append(j)
    return tuple(sorted(kept))


def shapley_value(rows, char: int) -> list:
    """Exact Steiner point of the base polytope of the column matroid.

    It is the Shapley value of the rank function (Shapley 1953):
    phi_e = sum over S not containing e of |S|!(n-1-|S|)!/n! (r(S+e) - r(S)).
    Exponential in the number of columns; meant for about 10 of them.
    """
    n = len(rows[0]) if rows else 0
    r = [column_rank(rows, [j for j in range(n) if m >> j & 1], char) for m in range(1 << n)]
    w = [Fraction(factorial(s) * factorial(n - 1 - s), factorial(n)) for s in range(n)]
    phi = [Fraction(0)] * n
    for m in range(1 << n):
        s = m.bit_count()
        for e in range(n):
            if not m >> e & 1:
                phi[e] += w[s] * (r[m | 1 << e] - r[m])
    return phi


def is_rref(rows, char: int) -> bool:
    """True when ``rows`` is a reduced row-echelon matrix with no zero rows."""
    pivots = []
    for row in rows:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None or _normalize(row[col], char) != 1:
            return False
        if pivots and col <= pivots[-1]:
            return False
        pivots.append(col)
    return all(
        (rows[i][c] == 0) == (i != k) for k, c in enumerate(pivots) for i in range(len(rows))
    )


def residual_mod_p(basis: np.ndarray, pivots, vectors: np.ndarray, p: int) -> np.ndarray:
    """Residues of ``vectors`` after elimination against an RREF ``basis`` over GF(p)."""
    coeffs = vectors[:, list(pivots)] % p
    return (vectors - coeffs @ basis) % p


def pivot_columns(rows) -> list:
    return [next(j for j, x in enumerate(row) if x) for row in rows]


# ---------------------------------------------------------------------------
# group actions, written out independently; points use the library's encodings


def z_moves() -> list:
    return [lambda x: x + 1, lambda x: x - 1]


def z2_moves() -> list:
    return [
        lambda x: (x[0] + 1, x[1]),
        lambda x: (x[0] - 1, x[1]),
        lambda x: (x[0], x[1] + 1),
        lambda x: (x[0], x[1] - 1),
    ]


def free_moves(rank_: int) -> list:
    """Right multiplication by each letter and inverse on reduced words."""

    def mover(v):
        def move(x):
            return x[:-1] if x and x[-1] == -v else x + (v,)

        return move

    letters = list(range(1, rank_ + 1))
    return [mover(v) for v in letters + [-v for v in letters]]


def lamp_moves() -> list:
    """Head +1, head -1, and toggling the lamp under the head."""

    def toggle(x):
        lamps, pos = x
        lit = set(lamps) ^ {pos}
        return (tuple(sorted(lit)), pos)

    return [
        lambda x: (x[0], x[1] + 1),
        lambda x: (x[0], x[1] - 1),
        toggle,
    ]


def lamp_box(n: int) -> list:
    """All (lamps, t) with lit lamps inside {1..n} and 1 <= t <= n: 2^n n points."""
    out = []
    for mask in range(1 << n):
        lamps = tuple(i + 1 for i in range(n) if mask >> i & 1)
        out.extend((lamps, t) for t in range(1, n + 1))
    return out


def word_ball(base, moves, radius: int) -> set:
    seen = {base}
    frontier = [base]
    for _ in range(radius):
        frontier = [y for x in frontier for y in (m(x) for m in moves) if y not in seen]
        seen.update(frontier)
    return seen


# ---------------------------------------------------------------------------
# boundaries and profiles


def translate_union(points, moves) -> set:
    """F together with all of its translates F.s."""
    F = set(points)
    return F | {m(x) for x in F for m in moves}


def boundary(points, moves) -> int:
    """#(F S minus F): points reached from F by one move that lie outside F."""
    F = set(points)
    return len({m(x) for x in F for m in moves} - F)


def brute_force_profile(window, moves, v_max: int) -> list:
    """Exact I(v) over every subset of a window of at most 16 points.

    Returns [(v, ratio, witness)] with the library's tie rule: per size
    the lexicographically least witness, then a running minimum over v
    that prefers the smaller ratio, then the smaller witness.
    """
    pts = sorted(set(window))
    w = len(pts)
    if w > 16:
        raise ValueError("the brute-force profile is capped at 16 points")
    bit = {x: i for i, x in enumerate(pts)}
    targets = []
    for x in pts:
        m = 0
        for move in moves:
            y = move(x)
            if y not in bit:
                bit[y] = len(bit)
            m |= 1 << bit[y]
        targets.append(m)
    reach = [0] * (1 << w)
    best = {}
    for mask in range(1, 1 << w):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | targets[low.bit_length() - 1]
        k = mask.bit_count()
        if k > v_max:
            continue
        b = (reach[mask] & ~mask).bit_count()
        cur = best.get(k)
        if cur is None or b <= cur[0]:
            witness = tuple(pts[i] for i in range(w) if mask >> i & 1)
            if cur is None or b < cur[0] or witness < cur[1]:
                best[k] = (b, witness)
    rows = []
    running = None
    for v in range(1, v_max + 1):
        if v in best:
            ratio, witness = Fraction(best[v][0], v), best[v][1]
            if running is None or ratio < running[0] or (ratio == running[0] and witness < running[1]):
                running = (ratio, witness)
        if running is not None:
            rows.append((v, running[0], running[1]))
    return rows


def translation_defect(values: dict, move) -> Fraction:
    """||f - f.s||_1 / ||f||_1 where (f.s)(x.s) = f(x)."""
    moved = {move(x): v for x, v in values.items()}
    keys = set(values) | set(moved)
    zero = Fraction(0)
    diff = sum((abs(values.get(x, zero) - moved.get(x, zero)) for x in keys), zero)
    return diff / sum(values.values(), zero)
