"""The built-in acceptance suite: one check per advertised guarantee.

Each criterion function performs its full computation at the stated
tolerances, measures its own runtime against the stated budget, and
returns a CriterionResult.  Both the pytest acceptance module and the
``verify`` CLI subcommand run these same functions.
"""

from __future__ import annotations

import json
import math
import os
import random
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


def _run(number, title, budget, body) -> CriterionResult:
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


def criterion_1() -> CriterionResult:
    """Lamplighter set family: 2^n n points, union ratio exactly 2/n."""

    def body():
        L = lamplighter()
        for n in range(1, 7):
            box = family_generate("lamp-box", n)
            assert len(box) == (1 << n) * n, f"lamp-box({n}) has {len(box)} points"
            rep = set_report(box, LAMP_GENS, L)
            assert rep.union_ratio == Fraction(2, n), f"ratio {rep.union_ratio} at n={n}"
            assert rep.union_size == (n + 2) * (1 << n), f"growth at n={n}"
        return "n=1..6: #F = 2^n n and #(F u FS) = (n+2) 2^n exactly"

    return _run(1, "lamplighter set family", 5.0, body)


def criterion_2() -> CriterionResult:
    """Lamplighter module family over GF(2) and GF(3): dim(F+FS) = n+2."""

    def body():
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

    return _run(2, "lamplighter module family", 10.0, body)


def criterion_3() -> CriterionResult:
    """Divergent profiles: Phi <= 2n for spans vs 2^(2n) 2n for boxes."""

    def body():
        L = lamplighter()
        spans = iso_family_upper("lamp-span", range(1, 13), LAMP_GENS, L, GF2)
        boxes = iso_family_upper("lamp-box", range(1, 13), LAMP_GENS, L)
        for n in range(1, 7):
            phi_mod = phi_from_table(spans, n)
            phi_set = phi_from_table(boxes, n)
            assert phi_mod is not None and phi_mod <= 2 * n, f"module side at n={n}"
            assert phi_set == (1 << (2 * n)) * 2 * n, f"set side at n={n}"
        return "Phi(module) <= 2n while Phi(set) = 2^(2n) 2n for n=1..6"

    return _run(3, "divergent profiles", 30.0, body)


def criterion_4() -> CriterionResult:
    """Steiner exactness on 100 random subspaces plus the closed forms."""

    N = 10_000
    tol = 4 * math.sqrt(0.25 / N)

    def body():
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

    return _run(4, "Steiner exactness", 60.0, body)


def criterion_5() -> CriterionResult:
    """Coupled monotonicity: exact coordinatewise order and L1 gap."""

    N = 2_000

    def body():
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

    return _run(5, "coupled nested estimates", 60.0, body)


def criterion_6() -> CriterionResult:
    """Basis extension, restriction, and exchange on 200 nested pairs."""

    def body():
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

    return _run(6, "basis extension, restriction, exchange", 10.0, body)


def criterion_7() -> CriterionResult:
    """Steiner additivity under Minkowski combination, exact equality."""

    N = 1_500

    def body():
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

    return _run(7, "Minkowski combination additivity", 30.0, body)


def criterion_8() -> CriterionResult:
    """Set <-> subspace <-> function pipeline with exact certificates."""

    def body():
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

    return _run(8, "subspace-to-function pipeline", 120.0, body)


def criterion_9() -> CriterionResult:
    """Exhaustive window profiles against the naive oracle."""

    def body():
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

    return _run(9, "exhaustive profile oracle", 120.0, body)


def criterion_10() -> CriterionResult:
    """Worker-count independence: byte-identical outputs for 1 and 4 threads."""

    def body():
        payloads = []
        for threads in ("1", "4"):
            old = os.environ.get("AMEN_THREADS")
            os.environ["AMEN_THREADS"] = threads
            try:
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
                payloads.append(json.dumps(doc, sort_keys=True).encode())
            finally:
                if old is None:
                    os.environ.pop("AMEN_THREADS", None)
                else:
                    os.environ["AMEN_THREADS"] = old
        assert payloads[0] == payloads[1], "outputs differ across worker counts"
        return "AMEN_THREADS in {1, 4}: serialized outputs byte-identical"

    return _run(10, "scheduling determinism", 60.0, body)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(only=None) -> list:
    """Run the acceptance suite; ``only`` filters by criterion number."""
    numbered = [(int(fn.__name__.split("_")[1]), fn) for fn in ALL_CRITERIA]
    if only:
        unknown = sorted(set(only) - {k for k, _ in numbered})
        if unknown:
            raise DomainError(
                f"no acceptance criterion numbered {', '.join(map(str, unknown))}; "
                f"the criteria are 1..{len(numbered)}"
            )
    return [fn() for k, fn in numbered if not only or k in only]


def format_result(res: CriterionResult) -> str:
    mark = "PASS" if res.passed else "FAIL"
    return f"{mark}  {res.number:>2}  {res.title:<40} {res.seconds:7.2f}s  {res.detail}"
