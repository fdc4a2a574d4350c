"""Acceptance suite: one test per verifiable claim, exact arithmetic, timed.

Each criterion runs through qskein.verify (the same code path the
``qskein verify`` command uses) and prints a single PASS/FAIL line with
its runtime and budget.  Equality everywhere is bit-equality of
canonical forms; the budgets come with the claims themselves.
"""

import warnings

import pytest

from qskein import disc, qseed, verify

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


def test_suites_build_at_most_108_triangulation_states(monkeypatch):
    # The suites visit 64 distinct triangulations; with the few states
    # disc keeps, laurent, denominator and membership rebuild the 44 that
    # earlier suites built.  More builds than that means the suites began
    # to thrash the cache.
    builds = []
    form = disc.triangulation_form

    def counted(n, delta):
        builds.append(delta)
        return form(n, delta)

    monkeypatch.setattr(disc, "triangulation_form", counted)
    disc._triangulation.cache_clear()
    results = verify.run(["all"], seed=0)
    assert all(verify.passed(r) for r in results)
    assert len(set(builds)) == 64
    assert len(builds) <= 108


def test_warnings_inside_qskein_are_errors():
    # pyproject.toml escalates warnings attributed to qskein modules only.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("stale", DeprecationWarning, "disc.py", 1, module="qskein.disc")


# A failing check is a FAIL line with a detail, not an exception.


def test_compatibility_error_on_the_annulus_is_a_fail_line(monkeypatch):
    check = qseed.QuantumSeed.check_compatibility

    def rank_4_raises(seed):
        if seed.n == 4:
            raise qseed.CompatibilityError("injected")
        return check(seed)

    monkeypatch.setattr(qseed.QuantumSeed, "check_compatibility", rank_4_raises)
    (result,) = verify.run(["compatibility"])
    assert not result["ok"]
    assert result["detail"] == "annulus: injected"


def test_compatibility_is_checked_once_per_seed_of_the_suite(monkeypatch):
    # Seeds of triangulations are compatible by construction; only the
    # compatibility suite checks them, once each (65 seeds).
    calls = []
    check = qseed.QuantumSeed.check_compatibility

    def counted(seed):
        calls.append(seed)
        return check(seed)

    monkeypatch.setattr(qseed.QuantumSeed, "check_compatibility", counted)
    for suites in (["compatibility"], ["all"]):
        calls.clear()
        assert all(verify.passed(r) for r in verify.run(suites))
        assert len(calls) == 65, suites


def test_flip_mutation_checks_each_new_row_of_lambda_once(monkeypatch):
    # Each flip checks its new variable against every other one once:
    # 2, 10 and 42 disc flips at n = 4, 5, 6 (5, 7 and 9 variables) and
    # 2 annulus flips (4 variables) make 2*4 + 10*6 + 42*8 + 2*3 = 410.
    calls = []
    oracle = qseed.quasi_commutation_exponent

    def counted(x, y):
        calls.append(1)
        return oracle(x, y)

    monkeypatch.setattr(qseed, "quasi_commutation_exponent", counted)
    (result,) = verify.run(["flip-mutation"])
    assert result["ok"]
    assert len(calls) == 410


def test_shifted_expansion_fails_flip_mutation(monkeypatch):
    expand = disc.expand_laurent
    monkeypatch.setattr(disc, "expand_laurent", lambda x, delta: expand(x, delta).shift(1))
    (result,) = verify.run(["flip-mutation"])
    assert not result["ok"]
    assert result["detail"].startswith("variable mismatch: n=4, ")


def test_accepting_everything_fails_membership(monkeypatch):
    monkeypatch.setattr(qseed, "upper_membership", lambda x, seed: True)
    (result,) = verify.run(["membership"])
    assert not result["ok"]
    assert result["detail"] == "pentagon M^(-e_1) accepted"


# The (1, 1) annulus seed has 4 variables; the seeds of discs n >= 4 have 5 or more.


@pytest.mark.parametrize(
    "rank, detail",
    [(5, "Lambda/frame mismatch: n=4, delta="), (4, "annulus Lambda/frame mismatch at arc 2")],
)
def test_flip_mutation_failures_name_the_surface(monkeypatch, rank, detail):
    check_frame = qseed.QuantumSeed.check_frame

    def fails_at_rank(seed, rows):
        if seed.n == rank:
            raise qseed.CompatibilityError("injected")
        check_frame(seed, rows)

    monkeypatch.setattr(qseed.QuantumSeed, "check_frame", fails_at_rank)
    (result,) = verify.run(["flip-mutation"])
    assert not result["ok"]
    assert result["detail"].startswith(detail)


@pytest.mark.parametrize(
    "verdict, detail",
    [
        (lambda member, x, seed: False, "pentagon variable (1, 3) rejected"),
        (lambda member, x, seed: seed.n != 4 and member(x, seed), "annulus variable x_-4 rejected"),
        (lambda member, x, seed: seed.n == 4 or member(x, seed), "annulus M^(-e_2) accepted"),
    ],
)
def test_membership_failures_name_the_surface(monkeypatch, verdict, detail):
    member = qseed.upper_membership
    monkeypatch.setattr(qseed, "upper_membership", lambda x, seed: verdict(member, x, seed))
    (result,) = verify.run(["membership"])
    assert (result["ok"], result["detail"]) == (False, detail)


def test_unknown_check_name_raises():
    with pytest.raises(KeyError, match="unknown check"):
        verify.run(["nope"])
