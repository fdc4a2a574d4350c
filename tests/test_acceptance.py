"""Acceptance suite: one test per verifiable claim, exact arithmetic, timed.

Each criterion runs through qskein.verify (the same code path the
``qskein verify`` command uses) and prints a single PASS/FAIL line with
its runtime and budget.  Equality everywhere is bit-equality of
canonical forms; the budgets come with the claims themselves.
"""

import warnings

import pytest

from qskein import verify

CRITERIA = [name for name, _, _ in verify.CHECKS]
IDS = [f"{i + 1:02d}-{name}" for i, name in enumerate(CRITERIA)]


@pytest.mark.parametrize("name", CRITERIA, ids=IDS)
def test_criterion(name, capsys):
    (result,) = verify.run([name], seed=0)
    line = verify.format_line(result)
    with capsys.disabled():
        print()
        print(line)
    assert result["ok"], f"{name}: {result['detail']}"
    assert result["elapsed"] <= result["budget"], line


def test_full_run_reports_every_criterion():
    results = verify.run(["all"], seed=1)
    assert [r["name"] for r in results] == CRITERIA
    assert all(verify.passed(r) for r in results)


def test_warnings_inside_qskein_are_errors():
    # pyproject.toml escalates warnings attributed to qskein modules only.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("stale", DeprecationWarning, "disc.py", 1, module="qskein.disc")
