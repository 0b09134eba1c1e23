"""The built-in acceptance suite: one check per advertised guarantee.

Each ``criterion_k`` performs its full computation at the stated
tolerances and returns its detail; ``@criterion(title, budget)`` numbers
it k, times it against the budget and registers it in ``ALL_CRITERIA``,
which the pytest acceptance module and ``amen verify`` both run.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import AmenabilityError, DomainError
from .folner import (
    function_report,
    layer_cake,
    set_report,
    set_to_subspace,
    subspace_report,
    subspace_to_function,
)
from .groups import ball, family_generate, free_group, integer_line, lamplighter
from .linalg import GF2, RATIONALS, align_pair, gf, subspace_from_rows
from .matroid import (
    SubspaceMatroid,
    basis_exchange,
    basis_extend,
    basis_restrict,
    initial_basis,
    is_basis,
)
from .profile import iso_family_upper, iso_set_exact, naive_iso_set, phi_from_table
from .steiner import (
    coupled_nested_estimate,
    estimate_steiner,
    exterior_angles,
    minkowski_combination_check,
)

LAMP_GENS = ("+1", "-1", "b")


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float
    budget: float


ALL_CRITERIA = {}  # number -> criterion, in definition order


def criterion(title: str, budget: float):
    """Register a criterion: its number is the k of its ``criterion_k`` name.

    The body returns its detail string; the registered function times it
    and fails it on an assertion, an ``AmenabilityError`` or the budget.
    """

    def register(body):
        number = int(body.__name__.removeprefix("criterion_"))

        @functools.wraps(body)
        def run():
            start = time.perf_counter()
            try:
                detail = body()
                passed = True
            except (AssertionError, AmenabilityError) as exc:
                detail = str(exc) or exc.__class__.__name__
                passed = False
            seconds = time.perf_counter() - start
            if passed and seconds > budget:
                passed = False
                detail = f"{detail}; exceeded the {budget:.0f}s budget ({seconds:.1f}s)"
            return CriterionResult(number, title, passed, detail, seconds, budget)

        run.number, run.title, run.budget = number, title, budget
        ALL_CRITERIA[number] = run
        return run

    return register


def _random_subspace(rng, field, n_max=8, d_max=4):
    while True:
        n = rng.randrange(2, n_max + 1)
        rows = [
            [
                rng.randrange(2) if field.characteristic == 2 else rng.randrange(-3, 4)
                for _ in range(n)
            ]
            for _ in range(rng.randrange(1, d_max + 1))
        ]
        sp = subspace_from_rows(rows, list(range(n)), field)
        if 1 <= sp.dim <= d_max:
            return sp


def _random_nested_pair(rng, field, n_max=8):
    F = _random_subspace(rng, field, n_max=n_max, d_max=4)
    base = F.basis_rows()
    n = len(F.labels)
    E_rows = []
    for _ in range(rng.randrange(1, F.dim + 1)):
        combo = [0] * n
        for row in base:
            c = rng.randrange(2) if field.characteristic == 2 else rng.randrange(-2, 3)
            if c:
                combo = [a + c * b for a, b in zip(combo, row)]
        E_rows.append(combo)
    E = subspace_from_rows(E_rows, list(F.labels), field)
    if E.dim == 0:
        E = subspace_from_rows([base[0]], list(F.labels), field)
    return E, F


@criterion("lamplighter set family", 5.0)
def criterion_1() -> str:
    """Lamplighter set family: 2^n n points, union ratio exactly 2/n."""
    L = lamplighter()
    for n in range(1, 7):
        box = family_generate("lamp-box", n)
        assert len(box) == (1 << n) * n, f"lamp-box({n}) has {len(box)} points"
        rep = set_report(box, LAMP_GENS, L)
        assert rep.union_ratio == Fraction(2, n), f"ratio {rep.union_ratio} at n={n}"
        assert rep.union_size == (n + 2) * (1 << n), f"growth at n={n}"
    return "n=1..6: #F = 2^n n and #(F u FS) = (n+2) 2^n exactly"


@criterion("lamplighter module family", 10.0)
def criterion_2() -> str:
    """Lamplighter module family over GF(2) and GF(3): dim(F+FS) = n+2."""
    L = lamplighter()
    for p in (2, 3):
        fld = gf(p)
        for n in range(1, 13):
            span = family_generate("lamp-span", n, fld)
            assert span.dim == n, f"dim {span.dim} at n={n}, p={p}"
            rep = subspace_report(span, LAMP_GENS, L)
            assert rep.union_size == n + 2, f"dim(F+FS) at n={n}, p={p}"
            # b acts injectively (the report checks it), so dim Fb = dim F,
            # and a b ratio of 0 means Fb <= F: together, Fb = F
            assert rep.per_generator["b"] == 0, f"F.b != F at n={n}, p={p}"
    return "n=1..12 over GF(2) and GF(3): dim F = n, dim(F+FS) = n+2, F.b = F"


@criterion("divergent profiles", 30.0)
def criterion_3() -> str:
    """Divergent profiles: Phi <= 2n for spans vs 2^(2n) 2n for boxes."""
    L = lamplighter()
    spans = iso_family_upper("lamp-span", range(1, 13), LAMP_GENS, L, GF2)
    boxes = iso_family_upper("lamp-box", range(1, 13), LAMP_GENS, L)
    for n in range(1, 7):
        phi_mod = phi_from_table(spans, n)
        phi_set = phi_from_table(boxes, n)
        assert phi_mod is not None and phi_mod <= 2 * n, f"module side at n={n}"
        assert phi_set == (1 << (2 * n)) * 2 * n, f"set side at n={n}"
    return "Phi(module) <= 2n while Phi(set) = 2^(2n) 2n for n=1..6"


@criterion("Steiner exactness", 60.0)
def criterion_4() -> str:
    """Steiner exactness on 100 random subspaces plus the closed forms."""
    N = 10_000
    tol = 4 * math.sqrt(0.25 / N)
    rng = random.Random(0xA4)
    for i in range(100):
        field = GF2 if i % 2 == 0 else RATIONALS
        sp = _random_subspace(rng, field)
        M = SubspaceMatroid(sp)
        est = estimate_steiner(M, N, seed=1000 + i)
        assert est.l1() == sp.dim, "L1 norm must equal the rank exactly"
        assert all(0 <= x <= 1 for x in est.vector), "entries must lie in [0,1]"
        angles = exterior_angles(M, N, seed=1000 + i)
        assert sum(angles.values()) == 1, "angles must sum to 1 exactly"
    for n in (2, 3, 5):
        simplex = SubspaceMatroid(
            subspace_from_rows([[1] * n], list(range(n)), RATIONALS)
        )
        est = estimate_steiner(simplex, N, seed=77)
        for x in est.vector:
            assert abs(float(x) - 1 / n) < tol, f"simplex({n}) coordinate off"
    hyper = SubspaceMatroid(
        subspace_from_rows([(1, 0, 1), (0, 1, 1)], [0, 1, 2], RATIONALS)
    )
    est = estimate_steiner(hyper, N, seed=78)
    for x in est.vector:
        assert abs(float(x) - 2 / 3) < tol, "hypersimplex coordinate off"
    seg = SubspaceMatroid(
        subspace_from_rows([(1, 0, 0), (0, 1, 1)], [0, 1, 2], RATIONALS)
    )
    est = estimate_steiner(seg, N, seed=79)
    assert est.vector[0] == 1, "shared label must hit exactly 1"
    return f"100 random subspaces at N={N}: exact L1/angle identities; closed forms within 4 stderr"


@criterion("coupled nested estimates", 60.0)
def criterion_5() -> str:
    """Coupled monotonicity: exact coordinatewise order and L1 gap."""
    N = 2_000
    rng = random.Random(0xA5)
    for i in range(50):
        field = GF2 if i % 2 == 0 else RATIONALS
        E, F = _random_nested_pair(rng, field)
        c = coupled_nested_estimate(
            SubspaceMatroid(E), SubspaceMatroid(F), N, seed=2000 + i
        )
        assert all(
            a <= b for a, b in zip(c.low.vector, c.high.vector)
        ), "coordinatewise order failed"
        gap = sum(
            (b - a for a, b in zip(c.low.vector, c.high.vector)), Fraction(0)
        )
        assert gap == F.dim - E.dim == c.l1_gap, "L1 gap must be the dimension gap"
    return f"50 nested pairs at N={N}: order and L1 gap exact on every pair"


@criterion("basis extension, restriction, exchange", 10.0)
def criterion_6() -> str:
    """Basis extension, restriction, and exchange on 200 nested pairs."""
    rng = random.Random(0xA6)
    for _ in range(200):
        E, F = _random_nested_pair(rng, GF2)
        Em, Fm = SubspaceMatroid(E), SubspaceMatroid(F)
        S = initial_basis(Em)
        T = basis_extend(Em, Fm, S)
        assert is_basis(Fm, T) and set(S) <= set(T), "extension failed"
        S2 = basis_restrict(Em, Fm, T)
        assert is_basis(Em, S2) and set(S2) <= set(T), "restriction failed"
        for k in S:
            ell = basis_exchange(Em, Fm, S, T, k)
            assert is_basis(Em, tuple(sorted(set(S) - {k} | {ell}))), "exchange E side"
            assert is_basis(Fm, tuple(sorted(set(T) - {ell} | {k}))), "exchange F side"
    return "200 nested pairs: every extend/restrict/exchange output re-verified"


@criterion("Minkowski combination additivity", 30.0)
def criterion_7() -> str:
    """Steiner additivity under Minkowski combination, exact equality."""

    N = 1_500
    rng = random.Random(0xA7)
    for i in range(20):
        field = GF2 if i % 2 else RATIONALS
        n = rng.randrange(2, 7)
        sp1 = _random_subspace(rng, field, n_max=n, d_max=3)
        sp2 = _random_subspace(rng, field, n_max=n, d_max=3)
        sp1, sp2 = align_pair(sp1, sp2)  # both over the union of their labels
        alpha = Fraction(rng.randrange(0, 5), 4)
        alpha = min(alpha, Fraction(1))
        chk = minkowski_combination_check(
            SubspaceMatroid(sp1), SubspaceMatroid(sp2), alpha, N, seed=3000 + i
        )
        assert chk.equal, "combined estimate must equal the combination exactly"
    return f"20 random pairs at N={N}: per-sample combination identity exact"


@criterion("subspace-to-function pipeline", 120.0)
def criterion_8() -> str:
    """Set <-> subspace <-> function pipeline with exact certificates."""
    Z = integer_line()
    L = lamplighter()
    for v in range(2, 21):
        sp = set_to_subspace(family_generate("z-interval", v), GF2)
        w = subspace_to_function(sp, ["+1", "-1"], Z, samples=512, seed=800 + v)
        assert w.certificates["+1"] == Fraction(2, v), f"certificate at v={v}"
        assert w.certificates["-1"] == Fraction(2, v), f"certificate at v={v}"
        for g in ("+1", "-1"):
            assert float(w.sampled_ratios[g]) <= float(w.certificates[g]) + w.tolerance
        lc = layer_cake(w.function, ["+1", "-1"], Z)
        ratios = function_report(w.function, ["+1", "-1"], Z)
        for g in ("+1", "-1"):
            assert lc.per_generator_best[g][1] <= ratios[g], "co-area bound failed"
    for n in range(1, 7):
        span = family_generate("lamp-span", n, GF2)
        w = subspace_to_function(span, LAMP_GENS, L, samples=1024, seed=900 + n)
        assert w.certificates["b"] == 0, f"lamp certificate at n={n}"
        assert w.certificates["+1"] == Fraction(2, n), f"certificate at n={n}"
        assert w.certificates["-1"] == Fraction(2, n), f"certificate at n={n}"
        for g in LAMP_GENS:
            assert float(w.sampled_ratios[g]) <= float(w.certificates[g]) + w.tolerance
        lc = layer_cake(w.function, LAMP_GENS, L)
        ratios = function_report(w.function, LAMP_GENS, L)
        for g in LAMP_GENS:
            assert lc.per_generator_best[g][1] <= ratios[g], "co-area bound failed"
    return "intervals v=2..20 and spans n=1..6: exact certificates, co-area recovery"


@criterion("exhaustive profile oracle", 120.0)
def criterion_9() -> str:
    """Exhaustive window profiles against the naive oracle."""
    Z = integer_line()
    window = ball(Z, 0, 6)
    assert len(window) == 13
    fast = iso_set_exact(Z, window, ["+1", "-1"], 10)
    slow = naive_iso_set(Z, window, ["+1", "-1"], 10)
    assert [(r.v, r.ratio, r.witness) for r in fast.rows] == [
        (r.v, r.ratio, r.witness) for r in slow.rows
    ], "subset-table search disagrees with the naive oracle"
    for row in fast.rows:
        assert row.ratio == Fraction(2, row.v), f"I({row.v}) != 2/{row.v}"
        lo, hi = min(row.witness), max(row.witness)
        assert row.witness == tuple(range(lo, hi + 1)), "witness is not an interval"
    fg = free_group(2)
    fwindow = ball(fg, (), 2)
    ftable = iso_set_exact(fg, fwindow, list(fg.generators), 6)
    assert all(r.ratio >= 2 for r in ftable.rows), "free-group ratios dipped below 2"
    return "line window: I(v) = 2/v with interval witnesses; free ball: I(v) >= 2"


def _seeded_document() -> bytes:
    """A seeded Steiner estimate and function witness, serialized to JSON bytes."""
    rng = random.Random(0xAA)
    sp = _random_subspace(rng, GF2, n_max=8, d_max=4)
    est = estimate_steiner(SubspaceMatroid(sp), 5000, seed=4242)
    span = family_generate("lamp-span", 4, GF2)
    w = subspace_to_function(span, LAMP_GENS, lamplighter(), 2048, seed=4243)
    doc = {
        "vector": [str(x) for x in est.vector],
        "hits": {",".join(map(str, k)): v for k, v in est.per_vertex_hits.items()},
        "certificates": {k: str(v) for k, v in sorted(w.certificates.items())},
        "sampled": {k: str(v) for k, v in sorted(w.sampled_ratios.items())},
    }
    return json.dumps(doc, sort_keys=True).encode()


_CHILD_CODE = "import sys, amenability.acceptance as a; sys.stdout.buffer.write(a._seeded_document())"
_CHILD_TIMEOUT_S = 45.0


@criterion("scheduling determinism", 60.0)
def criterion_10() -> str:
    """Process independence: a fresh interpreter with another hash seed builds the same bytes."""
    here = _seeded_document()
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # string hashes randomized here are not in the child, and the other way round
    env["PYTHONHASHSEED"] = "0" if sys.flags.hash_randomization else "1"
    argv = [sys.executable, "-c", _CHILD_CODE]
    try:  # "-c" puts the working directory first on sys.path: the package this process imported
        run = subprocess.run(argv, cwd=src, env=env, capture_output=True, timeout=_CHILD_TIMEOUT_S)
        failure = f"exited with status {run.returncode}" if run.returncode else None
    except subprocess.TimeoutExpired as exc:
        run, failure = exc, f"did not finish within {_CHILD_TIMEOUT_S:.0f}s"
    except OSError as exc:
        raise AssertionError(f"the fresh interpreter did not start: {exc}") from None
    if failure:
        tail = " | ".join((run.stderr or b"").decode(errors="replace").strip().splitlines()[-5:])
        raise AssertionError(f"the fresh interpreter {failure}; stderr ends: {tail or '(empty)'}")
    assert run.stdout == here, "the fresh interpreter built a different document"
    return "a fresh interpreter with another hash seed built the same bytes"


def run_all(only=None) -> list:
    """Run the acceptance suite; ``only`` filters by criterion number."""
    if only:
        unknown = sorted(set(only) - ALL_CRITERIA.keys())
        if unknown:
            raise DomainError(
                f"no acceptance criterion numbered {', '.join(map(str, unknown))}; "
                f"the criteria are 1..{len(ALL_CRITERIA)}"
            )
    return [fn() for k, fn in ALL_CRITERIA.items() if not only or k in only]


def format_result(res: CriterionResult) -> str:
    mark = "PASS" if res.passed else "FAIL"
    return f"{mark}  {res.number:>2}  {res.title:<40} {res.seconds:7.2f}s  {res.detail}"
