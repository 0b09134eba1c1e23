"""One pytest per acceptance criterion; each prints its pass/fail line.

The criterion bodies live in ``amenability.acceptance`` so that the
``amen verify`` subcommand runs exactly the same checks.
"""

import hashlib
import sys
import types

import pytest

import amenability
from amenability import ShapeError, acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA.values(), ids=lambda f: f.__name__
)
def test_criterion(criterion):
    result = criterion()
    print(acceptance.format_result(result))
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    assert result.seconds < result.budget, (
        f"criterion {result.number} took {result.seconds:.1f}s "
        f"(budget {result.budget:.0f}s)"
    )


REGISTRY = [
    (1, "lamplighter set family", 5.0),
    (2, "lamplighter module family", 10.0),
    (3, "divergent profiles", 30.0),
    (4, "Steiner exactness", 60.0),
    (5, "coupled nested estimates", 60.0),
    (6, "basis extension, restriction, exchange", 10.0),
    (7, "Minkowski combination additivity", 30.0),
    (8, "subspace-to-function pipeline", 120.0),
    (9, "exhaustive profile oracle", 120.0),
    (10, "scheduling determinism", 60.0),
]


def test_a_failing_or_slow_criterion_is_a_failed_result(monkeypatch):
    # throwaway criteria registered into a copy of the registry, which is restored afterwards
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", dict(acceptance.ALL_CRITERIA))

    @acceptance.criterion("an assertion fails", 5.0)
    def criterion_97():
        raise AssertionError  # no message: the detail is the exception's name

    @acceptance.criterion("a library error", 5.0)
    def criterion_98():
        raise ShapeError("refused")

    @acceptance.criterion("too slow", 0.0)
    def criterion_99():
        return "done"

    assert list(acceptance.ALL_CRITERIA)[-3:] == [97, 98, 99]
    results = [criterion_97(), criterion_98(), criterion_99()]
    assert [(r.number, r.passed) for r in results] == [(97, False), (98, False), (99, False)]
    assert results[0].detail == "AssertionError"
    assert results[1].detail == "refused"
    assert results[2].detail.startswith("done; exceeded the 0s budget (")


def test_the_registry_holds_the_ten_criteria_in_order():
    # read off the registered functions; no body runs
    registered = acceptance.ALL_CRITERIA
    assert [(fn.number, fn.title, fn.budget) for fn in registered.values()] == REGISTRY
    assert list(registered) == [k for k, _, _ in REGISTRY]
    assert [fn.__name__ for fn in registered.values()] == [f"criterion_{k}" for k in registered]


def test_criterion_10_fails_when_the_fresh_interpreter_builds_other_bytes(monkeypatch):
    # the child imports the package afresh, so only this process's document changes
    monkeypatch.setattr(acceptance, "_seeded_document", lambda: b"{}")
    result = acceptance.ALL_CRITERIA[10]()
    assert not result.passed
    assert result.detail == "the fresh interpreter built a different document"
    assert acceptance.format_result(result).startswith("FAIL  10  scheduling determinism")


def test_criterion_10_documents_the_seeded_estimate_and_witness():
    digest = hashlib.sha256(acceptance._seeded_document()).hexdigest()
    assert digest == "bfee65da6d586deaf004ec33389098974b17937734fad6a9eff5effa1246da3c"


@pytest.mark.parametrize("randomized, child_seed", [(1, "0"), (0, "1")])
def test_criterion_10_runs_the_same_package_with_another_hash_seed(monkeypatch, randomized, child_seed):
    # the child reports its hash seed, whether it randomizes hashes and the package it imported
    flags = types.SimpleNamespace(hash_randomization=randomized)
    monkeypatch.setattr(acceptance, "sys", types.SimpleNamespace(flags=flags, executable=sys.executable))
    monkeypatch.setattr(
        acceptance,
        "_CHILD_CODE",
        "import os, sys, amenability\n"
        "sys.stdout.write(f'{os.environ[\"PYTHONHASHSEED\"]} {sys.flags.hash_randomization} {amenability.__file__}')\n",
    )
    expected = f"{child_seed} {1 - randomized} {amenability.__file__}".encode()
    monkeypatch.setattr(acceptance, "_seeded_document", lambda: expected)
    result = acceptance.ALL_CRITERIA[10]()
    assert result.passed, result.detail


def test_criterion_10_turns_a_failed_child_into_a_fail_line(monkeypatch):
    monkeypatch.setattr(acceptance, "_seeded_document", lambda: b"{}")
    monkeypatch.setattr(
        acceptance,
        "_CHILD_CODE",
        "import sys\nsys.stderr.write('first\\nlast words\\n')\nsys.exit(3)\n",
    )
    result = acceptance.ALL_CRITERIA[10]()
    assert not result.passed
    assert result.detail == "the fresh interpreter exited with status 3; stderr ends: first | last words"


def test_criterion_10_turns_a_slow_child_into_a_fail_line(monkeypatch):
    monkeypatch.setattr(acceptance, "_seeded_document", lambda: b"{}")
    monkeypatch.setattr(acceptance, "_CHILD_CODE", "import time\ntime.sleep(60)\n")
    monkeypatch.setattr(acceptance, "_CHILD_TIMEOUT_S", 1.0)
    result = acceptance.ALL_CRITERIA[10]()
    assert not result.passed
    assert result.detail.startswith("the fresh interpreter did not finish within 1s; stderr ends: ")


def test_criterion_10_turns_a_missing_interpreter_into_a_fail_line(monkeypatch, tmp_path):
    monkeypatch.setattr(acceptance, "_seeded_document", lambda: b"{}")
    monkeypatch.setattr(sys, "executable", str(tmp_path / "no-such-python"))
    result = acceptance.ALL_CRITERIA[10]()
    assert not result.passed
    assert result.detail.startswith("the fresh interpreter did not start: ")
