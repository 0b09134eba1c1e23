"""Tests of the benchmark's own oracles and checks.

Each oracle reproduces a case known by hand, and each check rejects a
deliberately corrupted library output.  Run with
``python3 -m pytest benchmarks/test_checks.py`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

import checks
import oracles
import worker
import workloads

A = worker.import_library()


# ---------------------------------------------------------------------------
# oracles against cases known by hand


def test_shapley_of_the_hypersimplex_is_two_thirds():
    rows = [[1, 0, 1], [0, 1, 1]]
    assert oracles.shapley_value(rows, 0) == [Fraction(2, 3)] * 3


@pytest.mark.parametrize("char", [0, 2, 31])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_shapley_of_u1n_is_one_over_n(n, char):
    assert oracles.shapley_value([[1] * n], char) == [Fraction(1, n)] * n


def test_shapley_of_a_direct_sum_adds_up_blockwise():
    rows = [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]]
    want = [Fraction(1, 2)] * 2 + [Fraction(2, 3)] * 3
    assert oracles.shapley_value(rows, 0) == want


def test_rank_depends_on_the_field():
    rows = [[1, 1], [1, -1]]
    assert oracles.rank(rows, 0) == 2
    assert oracles.rank(rows, 2) == 1


def test_greedy_basis_skips_parallel_columns():
    rows = [[1, 1, 0], [0, 0, 1]]
    assert oracles.greedy_basis(rows, [0.1, 0.2, 0.3], 2) == (0, 2)
    assert oracles.greedy_basis(rows, [0.3, 0.2, 0.1], 2) == (1, 2)


def test_is_rref():
    assert oracles.is_rref([[1, 0, 2], [0, 1, 3]], 5)
    assert not oracles.is_rref([[1, 1, 2], [0, 1, 3]], 5)
    assert not oracles.is_rref([[0, 1, 0], [1, 0, 0]], 5)
    assert not oracles.is_rref([[2, 0, 0]], 5)


@pytest.mark.parametrize("v", [1, 2, 7])
def test_z_interval_has_boundary_two(v):
    interval = range(10, 10 + v)
    assert Fraction(oracles.boundary(interval, oracles.z_moves()), v) == Fraction(2, v)
    indicator = {x: Fraction(1) for x in interval}
    assert oracles.translation_defect(indicator, oracles.z_moves()[0]) == Fraction(2, v)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_free_group_subtree_has_boundary_2k_plus_2(radius):
    moves = oracles.free_moves(2)
    ball = oracles.word_ball((1, 2), moves, radius)
    assert len(ball) == [1, 5, 17][radius]
    assert oracles.boundary(ball, moves) == 2 * len(ball) + 2


def test_a_free_group_path_is_a_subtree_too():
    moves = oracles.free_moves(2)
    path = [(), (1,), (1, 1), (1, 1, -2)]
    assert oracles.boundary(path, moves) == 2 * len(path) + 2


@pytest.mark.parametrize("n", [1, 2, 4])
def test_lamp_box_counts(n):
    box = oracles.lamp_box(n)
    assert len(set(box)) == (1 << n) * n
    assert len(oracles.translate_union(box, oracles.lamp_moves())) == (n + 2) << n


def test_brute_force_profile_on_a_line_window():
    rows = oracles.brute_force_profile(range(5), oracles.z_moves(), 4)
    assert rows == [(v, Fraction(2, v), tuple(range(v))) for v in range(1, 5)]


def test_brute_force_profile_on_a_square():
    window = [(i, j) for i in range(2) for j in range(2)]
    rows = oracles.brute_force_profile(window, oracles.z2_moves(), 4)
    assert [(v, r) for v, r, _ in rows] == [(1, 4), (2, 3), (3, Fraction(7, 3)), (4, 2)]


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def _run(task):
    return task.run(A, lambda fn, *args: fn(*args))


@pytest.fixture(scope="module")
def module_member():
    task = workloads._module_member(random.Random(5), 2, 3)
    return task, _run(task)


def test_module_member_passes(module_member):
    task, out = module_member
    task.check(out)


def test_module_member_rejects_a_dimension_off_by_one(module_member):
    F, rebuilt, translates, union = module_member[1]
    short = dataclasses.replace(union, basis=union.basis[:-1])
    with pytest.raises(checks.CheckFailed, match="dim"):
        checks.check_module_member(3, 2, F, rebuilt, translates, short)


def test_module_member_rejects_a_vector_outside_the_sum(module_member):
    F, rebuilt, translates, union = module_member[1]
    units = [[1 if j == i else 0 for j in range(len(F.labels))] for i in range(3)]
    fake = dict(translates, **{"+1": A.subspace_from_rows(units, F.labels, A.GF2)})
    with pytest.raises(checks.CheckFailed, match="not in F"):
        checks.check_module_member(3, 2, F, rebuilt, fake, union)


def test_span_table_rejects_a_wrong_ratio():
    table = A.iso_family_upper("lamp-span", range(1, 4), workloads.LAMP_GENS, A.lamplighter(), A.GF2)
    checks.check_span_table(table, range(1, 4))
    rows = list(table.rows)
    rows[1] = dataclasses.replace(rows[1], ratio=Fraction(1, 3))
    with pytest.raises(checks.CheckFailed):
        checks.check_span_table(dataclasses.replace(table, rows=tuple(rows)), range(1, 4))


def test_lamp_box_rejects_a_miscounted_union():
    box = A.family_generate("lamp-box", 3)
    report = A.set_report(box, workloads.LAMP_GENS, A.lamplighter())
    checks.check_lamp_box(3, box, report)
    with pytest.raises(checks.CheckFailed):
        checks.check_lamp_box(3, box, dataclasses.replace(report, union_size=report.union_size + 1))


@pytest.fixture(scope="module")
def small_estimate():
    rows = [[1, 0, 1, 1], [0, 1, 1, 0]]
    M = A.SubspaceMatroid(A.subspace_from_rows(rows, [0, 1, 2, 3], A.RATIONALS))
    return rows, A.estimate_steiner(M, 2048, 7), A.exterior_angles(M, 2048, 7)


def test_estimate_passes(small_estimate):
    rows, est, angles = small_estimate
    checks.check_estimate("small", est, [0, 1, 2, 3], rows, 0, oracles.shapley_value(rows, 0), 2048)
    checks.check_angles("small", angles, est)


def test_estimate_rejects_a_non_basis_hit_key(small_estimate):
    rows, est, _ = small_estimate
    hits = dict(est.per_vertex_hits)
    key = next(iter(hits))
    hits[(0, 3)] = hits.pop(key)  # labels 0 and 3 are parallel: not a basis
    bad = dataclasses.replace(est, per_vertex_hits=hits)
    with pytest.raises(checks.CheckFailed, match="not a basis"):
        checks.check_estimate("small", bad, [0, 1, 2, 3], rows, 0, oracles.shapley_value(rows, 0), 2048)


def test_estimate_rejects_a_moved_hit_count(small_estimate):
    rows, est, _ = small_estimate
    hits = dict(est.per_vertex_hits)
    first, second = list(hits)[:2]
    hits[first] -= 1
    hits[second] += 1
    bad = dataclasses.replace(est, per_vertex_hits=hits)
    with pytest.raises(checks.CheckFailed, match="hits/N"):
        checks.check_estimate("small", bad, [0, 1, 2, 3], rows, 0, oracles.shapley_value(rows, 0), 2048)


def test_angles_reject_a_moved_hit_count(small_estimate):
    _, est, angles = small_estimate
    bad = dict(angles)
    first, second = list(bad)[:2]
    bad[first] -= Fraction(1, 2048)
    bad[second] += Fraction(1, 2048)
    with pytest.raises(checks.CheckFailed):
        checks.check_angles("small", bad, est)


def test_estimate_rejects_a_point_far_from_the_exact_one(small_estimate):
    rows, est, _ = small_estimate
    wrong = [1, 0, 0, 1]
    with pytest.raises(checks.CheckFailed, match="coordinate"):
        checks.check_estimate("small", est, [0, 1, 2, 3], rows, 0, wrong, 2048)


def test_coupled_rejects_a_wrong_gap():
    rows_f = [[1, 0, 1], [0, 1, 1]]
    rows_e = [[1, 1, 2]]
    sub = lambda rows: A.SubspaceMatroid(A.subspace_from_rows(rows, [0, 1, 2], A.RATIONALS))
    pair = A.coupled_nested_estimate(sub(rows_e), sub(rows_f), 512, 3)
    checks.check_coupled("pair", pair, rows_e, rows_f, 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_coupled("pair", dataclasses.replace(pair, l1_gap=2), rows_e, rows_f, 0)


def test_minkowski_rejects_a_wrong_combination():
    rows1, rows2 = [[1, 0, 1], [0, 1, 1]], [[1, 1, 1]]
    sub = lambda rows: A.SubspaceMatroid(A.subspace_from_rows(rows, [0, 1, 2], A.RATIONALS))
    alpha = Fraction(1, 4)
    chk = A.minkowski_combination_check(sub(rows1), sub(rows2), alpha, 512, 4)
    checks.check_minkowski("pair", chk, alpha, rows1, rows2, 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_minkowski("pair", chk, Fraction(1, 2), rows1, rows2, 0)


def _with_row(table, i, **changes):
    rows = list(table.rows)
    rows[i] = dataclasses.replace(rows[i], **changes)
    return dataclasses.replace(table, rows=tuple(rows))


def test_z2_profile_rejects_a_witness_with_a_miscounted_boundary():
    window = [(i, j) for i in range(3) for j in range(3)]
    Z2 = A.integer_lattice(2)
    table = A.iso_set_exact(Z2, window, Z2.generators, 6)
    checks.check_z2_profile(table, window, 6)
    row = table.rows[3]
    bad = _with_row(table, 3, witness=row.witness[:-1] + ((5, 5),))
    with pytest.raises(checks.CheckFailed):
        checks.check_z2_profile(bad, window, 6)
    with pytest.raises(checks.CheckFailed, match="boundary"):
        checks._check_witnesses("Z^2", bad, oracles.z2_moves())


def test_free_profile_rejects_a_witness_with_a_miscounted_boundary():
    fg = A.free_group(2)
    window = A.ball(fg, (), 2)
    table = A.iso_set_exact(fg, window, fg.generators, 5)
    checks.check_free_profile(table, 5)
    scattered = ((1,), (-1,), (2,), (-2,))  # four leaves, no edges between them
    with pytest.raises(checks.CheckFailed, match="boundary"):
        checks.check_free_profile(_with_row(table, 3, witness=scattered), 5)


def test_z_profile_rejects_a_non_interval_witness():
    Z = A.integer_line()
    table = A.iso_set_exact(Z, range(-4, 5), ("+1", "-1"), 4)
    checks.check_z_profile(table, 4)
    with pytest.raises(checks.CheckFailed, match="interval"):
        checks.check_z_profile(_with_row(table, 2, witness=(0, 1, 3)), 4)


def test_function_checks_reject_a_wrong_certificate():
    task = workloads._function_task(random.Random(2), "lamp-span", 3, 2, 256, 11)
    out = _run(task)
    task.check(out)
    w = out[0]
    bad = dataclasses.replace(w, certificates=dict(w.certificates, b=Fraction(1, 3)))
    with pytest.raises(checks.CheckFailed, match="certificates"):
        task.check((bad,) + out[1:])


def test_fingerprint_tells_a_changed_basis_apart(module_member):
    F, rebuilt, translates, union = module_member[1]
    assert workloads.fingerprint(module_member[1]) == workloads.fingerprint((F, rebuilt, translates, union))
    changed = dataclasses.replace(union, basis=union.basis[::-1])
    assert workloads.fingerprint((F, rebuilt, translates, changed)) != workloads.fingerprint(module_member[1])
