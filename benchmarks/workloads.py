"""The four workloads: seeded raw inputs, the library calls of one round, checks.

A workload is a list of tasks made from ``--seed`` during set-up.  A task
holds only raw inputs (integer rows, label lists, windows, weights,
sampling seeds); its ``run`` makes every library object from them, so
each round starts cold and repeats exactly the same calls.  ``check``
compares the outputs with ``oracles``; ``fingerprint`` reduces them to a
small value that later rounds must reproduce.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import checks
import oracles

LAMP_GENS = ("+1", "-1", "b")
Z_GENS = ("+1", "-1")
V_MAX = 12


@dataclass(frozen=True)
class Task:
    """One unit of a round: ``run(A, call)`` returns outputs that ``check`` accepts."""

    name: str
    run: Callable[[Any, Callable], Any]
    check: Callable[[Any], None]


def fingerprint(obj):
    """A small comparable summary of a library output (hashes for big arrays)."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, hashlib.blake2b(np.ascontiguousarray(obj).tobytes()).hexdigest())
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(fingerprint(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, dict):
        return tuple((fingerprint(k), fingerprint(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        try:
            return hash(tuple(obj))
        except TypeError:
            return tuple(fingerprint(x) for x in obj)
    return obj


def _field(A, char):
    return A.RATIONALS if char == 0 else A.gf(char)


def _random_full_rank(rng, char, d, n, entries):
    """A d x n matrix of rank d with entries drawn from ``entries``."""
    while True:
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(d)]
        if oracles.rank(rows, char) == d:
            return rows


def _entries(char):
    return range(char) if char else range(-2, 3)


def _sampling_seed(seed: int, k: int) -> int:
    return (seed << 12) + k


# ---------------------------------------------------------------------------
# module-family: lamp-span(n) through generation, relabelling, sums, tables


def _module_member(rng, char, n) -> Task:
    points = oracles.lamp_box(n)
    rng.shuffle(points)
    heads = np.array([t for _, t in points], dtype=np.int64)
    indicator = (heads[None, :] == np.arange(1, n + 1)[:, None]).astype(np.int64)
    mix = np.array(_random_full_rank(rng, char, n, n, range(char) if char else range(-2, 3)), dtype=np.int64)
    rows = mix @ indicator
    rows = rows % char if char else rows.tolist()

    def run(A, call):
        field = _field(A, char)
        L = A.lamplighter()
        F = call(A.family_generate, "lamp-span", n, field)
        rebuilt = call(A.subspace_from_rows, rows, points, field)
        translates = {s: call(A.act_subspace, F, L, s) for s in LAMP_GENS}
        union = F
        for s in LAMP_GENS:
            union = call(A.subspace_sum, union, translates[s])
        return F, rebuilt, translates, union

    def check(out):
        checks.check_module_member(n, char, *out)

    return Task(f"lamp-span({n}) char {char}", run, check)


def _span_table(char, ns) -> Task:
    def run(A, call):
        return call(A.iso_family_upper, "lamp-span", ns, LAMP_GENS, A.lamplighter(), _field(A, char))

    return Task(f"lamp-span table char {char}", run, lambda table: checks.check_span_table(table, ns))


def module_family(seed: int) -> list:
    rng = random.Random(seed)
    tasks = []
    for char, ns, table_ns in ((2, (4, 8, 12), range(1, 10)), (3, (4, 8, 12), range(1, 10)), (0, (3, 5, 7), range(1, 6))):
        tasks += [_module_member(rng, char, n) for n in ns]
        tasks.append(_span_table(char, table_ns))
    return tasks


# ---------------------------------------------------------------------------
# set-profile: exhaustive Gray-code profiles and point-by-point set reports


def _z_ball(rng) -> Task:
    centre, radius = rng.randrange(-100, 101), 8

    def run(A, call):
        Z = A.integer_line()
        window = call(A.ball, Z, centre, radius)
        return window, call(A.iso_set_exact, Z, window, Z_GENS, V_MAX)

    def check(out):
        window, table = out
        checks.check_window("Z ball", window, oracles.word_ball(centre, oracles.z_moves(), radius))
        checks.check_z_profile(table, V_MAX)

    return Task(f"Z ball at {centre}", run, check)


def _free_ball(rng) -> Task:
    moves = oracles.free_moves(2)
    base = ()
    while len(base) < 2:
        base = rng.choice(moves)(base)

    def run(A, call):
        fg = A.free_group(2)
        window = call(A.ball, fg, base, 2)
        return window, call(A.iso_set_exact, fg, window, fg.generators, V_MAX)

    def check(out):
        window, table = out
        checks.check_window("free:2 ball", window, oracles.word_ball(base, moves, 2))
        checks.check_free_profile(table, V_MAX)

    return Task(f"free:2 ball at {base}", run, check)


def _z2_window(rng) -> Task:
    a, b = rng.choice(((4, 4), (2, 8), (8, 2)))
    x0, y0 = rng.randrange(-20, 21), rng.randrange(-20, 21)
    window = [(x0 + i, y0 + j) for i in range(a) for j in range(b)]
    rng.shuffle(window)

    def run(A, call):
        Z2 = A.integer_lattice(2)
        return call(A.iso_set_exact, Z2, window, Z2.generators, V_MAX)

    return Task(f"Z^2 {a}x{b} window", run, lambda table: checks.check_z2_profile(table, window, V_MAX))


def _lamp_box(n) -> Task:
    def run(A, call):
        box = call(A.family_generate, "lamp-box", n)
        return box, call(A.set_report, box, LAMP_GENS, A.lamplighter())

    return Task(f"lamp-box({n})", run, lambda out: checks.check_lamp_box(n, *out))


def set_profile(seed: int) -> list:
    rng = random.Random(seed)
    return [_z_ball(rng), _free_ball(rng), _z2_window(rng)] + [_lamp_box(n) for n in (6, 9, 12)]


# ---------------------------------------------------------------------------
# steiner-greedy: per-sample greedy on small random and medium uniform matroids


def _vandermonde(rng, char, n, d):
    """U(d, n) as a Vandermonde matrix on fixed points, rows mixed by a seeded invertible matrix.

    The mixing changes the raw rows but not their span, so every seed
    gives the same canonical subspace and the same cost per sample.
    """
    xs = range(n) if char else range(1, n + 1)
    vander = [[pow(x, i, char) if char else x**i for x in xs] for i in range(d)]
    mix = _random_full_rank(rng, char, d, d, _entries(char))
    return [[sum(m * v[j] for m, v in zip(row, vander)) for j in range(n)] for row in mix]


def _direct_sum(blocks):
    width = sum(len(b[0]) for b in blocks)
    rows, offset = [], 0
    for b in blocks:
        rows += [[0] * offset + list(r) + [0] * (width - offset - len(r)) for r in b]
        offset += len(b[0])
    return rows


def _matroid_task(rng, name, char, rows, exact, samples, seed) -> Task:
    """estimate_steiner and exterior_angles with one seed, plus greedy on seeded weights."""
    labels = list(range(len(rows[0])))
    weights = [[rng.random() for _ in labels] for _ in range(8)]

    def run(A, call):
        M = A.SubspaceMatroid(call(A.subspace_from_rows, rows, labels, _field(A, char)))
        est = call(A.estimate_steiner, M, samples, seed)
        angles = call(A.exterior_angles, M, samples, seed)
        return est, angles, [call(A.greedy_min_basis, M, w) for w in weights]

    def check(out):
        est, angles, bases = out
        point = exact() if callable(exact) else exact
        checks.check_estimate(name, est, labels, rows, char, point, samples)
        checks.check_angles(name, angles, est)
        checks.check_greedy(name, bases, weights, labels, rows, char)

    return Task(name, run, check)


def _uniform_point(blocks):
    return [Fraction(len(b), len(b[0])) for b in blocks for _ in b[0]]


def _coupled_task(rng, char, samples, seed) -> Task:
    rows_f = _random_full_rank(rng, char, 4, 8, _entries(char))
    while True:
        mix = [[rng.choice(_entries(char)) for _ in range(4)] for _ in range(2)]
        rows_e = [[sum(c * r[j] for c, r in zip(m, rows_f)) for j in range(8)] for m in mix]
        if oracles.rank(rows_e, char) == 2:
            break
    labels = list(range(8))
    name = f"coupled pair char {char}"

    def run(A, call):
        field = _field(A, char)
        E = call(A.subspace_from_rows, rows_e, labels, field)
        F = call(A.subspace_from_rows, rows_f, labels, field)
        return call(A.coupled_nested_estimate, A.SubspaceMatroid(E), A.SubspaceMatroid(F), samples, seed)

    def check(pair):
        checks.check_coupled(name, pair, rows_e, rows_f, char)
        for est, rows in ((pair.low, rows_e), (pair.high, rows_f)):
            checks.check_estimate(name, est, labels, rows, char, oracles.shapley_value(rows, char), samples)

    return Task(name, run, check)


def _minkowski_task(rng, char, samples, seed) -> Task:
    rows1 = _random_full_rank(rng, char, 3, 6, _entries(char))
    rows2 = _random_full_rank(rng, char, 2, 6, _entries(char))
    alpha = Fraction(rng.randrange(1, 4), 4)
    labels = list(range(6))
    name = f"Minkowski pair char {char}"

    def run(A, call):
        field = _field(A, char)
        M1 = A.SubspaceMatroid(call(A.subspace_from_rows, rows1, labels, field))
        M2 = A.SubspaceMatroid(call(A.subspace_from_rows, rows2, labels, field))
        return call(A.minkowski_combination_check, M1, M2, alpha, samples, seed)

    def check(chk):
        checks.check_minkowski(name, chk, alpha, rows1, rows2, char)
        for est, rows in ((chk.first, rows1), (chk.second, rows2)):
            checks.check_estimate(name, est, labels, rows, char, oracles.shapley_value(rows, char), samples)

    return Task(name, run, check)


SMALL_SHAPES = ((8, 4), (8, 3), (7, 3), (6, 2), (8, 2), (5, 3))
UNIFORM_SHAPES = (
    (0, ((12, 3),)),
    (0, ((16, 4),)),
    (0, ((8, 2), (10, 3))),
    (31, ((14, 3),)),
    (31, ((20, 5),)),
    (31, ((6, 2), (12, 3))),
)


def steiner_greedy(seed: int) -> list:
    # Many small random matroids rather than a few larger ones: their cost
    # varies with the draw, and the round sums over enough of them to keep
    # the round time steady from seed to seed.
    rng = random.Random(seed)
    seeds = (_sampling_seed(seed, k) for k in range(1 << 12))
    tasks = []
    for char in (2, 0):
        for i in range(24):
            n, d = SMALL_SHAPES[i % len(SMALL_SHAPES)]
            rows = _random_full_rank(rng, char, d, n, _entries(char))
            exact = lambda rows=rows, char=char: oracles.shapley_value(rows, char)
            tasks.append(_matroid_task(rng, f"random {d}x{n} char {char}", char, rows, exact, 512, next(seeds)))
    for char, shapes in UNIFORM_SHAPES:
        blocks = [_vandermonde(rng, char, n, d) for n, d in shapes]
        name = "Vandermonde " + " + ".join(f"U({d},{n})" for n, d in shapes) + f" char {char}"
        tasks.append(_matroid_task(rng, name, char, _direct_sum(blocks), _uniform_point(blocks), 2048, next(seeds)))
    for char in (2, 0):
        for _ in range(4):
            tasks.append(_coupled_task(rng, char, 1024, next(seeds)))
            tasks.append(_minkowski_task(rng, char, 512, next(seeds)))
    return tasks


# ---------------------------------------------------------------------------
# function-pipeline: subspace -> Steiner-point function -> layer cake


def _function_task(rng, kind, n, char, samples, seed) -> Task:
    lamp = kind == "lamp-span"
    gens = LAMP_GENS if lamp else Z_GENS
    moves = dict(zip(gens, oracles.lamp_moves() if lamp else oracles.z_moves()))
    labels = sorted(oracles.lamp_box(n)) if lamp else list(range(1, n + 1))
    if lamp:
        certificates = {"+1": Fraction(2, n), "-1": Fraction(2, n), "b": Fraction(0)}
        rows = [[1 if t == head else 0 for _, t in labels] for head in range(1, n + 1)]
    else:
        certificates = {"+1": Fraction(2, n), "-1": Fraction(2, n)}
        rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    weights = [[rng.random() for _ in labels] for _ in range(4)]
    name = f"{kind}({n}) char {char}"

    def run(A, call):
        action = A.lamplighter() if lamp else A.integer_line()
        F = call(A.family_generate, kind, n, _field(A, char))
        w = call(A.subspace_to_function, F, gens, action, samples, seed)
        lc = call(A.layer_cake, w.function, gens, action)
        ratios = call(A.function_report, w.function, gens, action)
        M = A.SubspaceMatroid(F)
        return w, lc, ratios, [call(A.greedy_min_basis, M, wt) for wt in weights]

    def check(out):
        w, lc, ratios, bases = out
        group = (lambda x: x[1]) if lamp else (lambda x: x)
        coordinate = Fraction(1, 1 << n) if lamp else Fraction(1)
        checks.check_function(name, w, certificates, moves, coordinate, group, n)
        checks.expect(ratios == w.sampled_ratios, f"{name}: function_report differs from the sampled ratios")
        checks.check_layer_cake(name, lc, ratios, dict(w.function.values), list(moves.values()))
        checks.check_greedy(name, bases, weights, labels, rows, char)

    return Task(name, run, check)


def function_pipeline(seed: int) -> list:
    rng = random.Random(seed)
    specs = (
        ("lamp-span", 6, 2, 1000),
        ("lamp-span", 7, 2, 1000),
        ("lamp-span", 8, 2, 1000),
        ("lamp-span", 6, 3, 1000),
        ("z-interval-span", 16, 2, 500),
        ("z-interval-span", 12, 0, 500),
    )
    return [
        _function_task(rng, kind, n, char, samples, _sampling_seed(seed, k))
        for k, (kind, n, char, samples) in enumerate(specs)
    ]


WORKLOADS = {
    "module-family": module_family,
    "set-profile": set_profile,
    "steiner-greedy": steiner_greedy,
    "function-pipeline": function_pipeline,
}
