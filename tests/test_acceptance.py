"""One pytest per acceptance criterion; each prints its pass/fail line.

The criterion bodies live in ``amenability.acceptance`` so that the
``amen verify`` subcommand runs exactly the same checks.
"""

import pytest

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
