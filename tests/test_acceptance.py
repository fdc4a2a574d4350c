"""Acceptance suite: one test per verifiable claim, exact arithmetic, timed.

Each criterion runs through qskein.verify (the same code path the
``qskein verify`` command uses) and prints a single PASS/FAIL line with
its runtime and budget.  Equality everywhere is bit-equality of
canonical forms; the budgets come with the claims themselves.
"""

import itertools
import warnings

import pytest

from qskein import annulus, disc, qseed, verify
from qskein import surface as surf
from qskein.qcoeff import LinearCombination, QCoeff
from qskein.qtorus import SkewForm

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


# Every other FAIL line of the suites, each reached by breaking the one
# library function it guards.


def _lambda_negated(mutate):
    def wrong(seed, i):
        t = mutate(seed, i)
        lam = SkewForm([[-x for x in row] for row in t.lam.matrix])
        return qseed.QuantumSeed(t.ambient, lam, t.b, t.ex, t.frame)

    return wrong


def _drifting(reduce_word):
    """Each call's result is v times the last one's."""
    calls = itertools.count()
    return lambda n, word, rng=None: reduce_word(n, word, rng).scale(QCoeff.v(next(calls)))


def _last_row_moved(b_matrix):
    def wrong(s):
        b = b_matrix(s)
        b[-1] = [x + 1 for x in b[-1]]
        return b

    return wrong


def _exchangeable_part_twisted(b_matrix):
    """+1 above and -1 below the diagonal of the exchangeable part: B stays
    skew, and a cut agrees with its surface on every row but the cut arc's."""

    def wrong(s):
        ex = s.internal_arcs()
        return [
            [x + (k in ex and (ex.index(k) < c) - (ex.index(k) > c)) for c, x in enumerate(row)]
            for k, row in enumerate(b_matrix(s))
        ]

    return wrong


def _zero_disc(n, word, rng=None):
    return disc.DiscElement.zero(n)


# (suite, owner, attribute, replacement made from the original, detail).
# "{delta}" in a detail stands for the triangulation it names.
FAIL_LINES = {
    "plucker": (
        "plucker", disc, "reduce_word", lambda f: _zero_disc,
        "failed at n=4, quadruple (1, 2, 3, 4)",
    ),
    "boundary-commutation": (
        "boundary-commutation", disc, "product", lambda f: lambda x, y: f(y, x),
        "failed at n=3, triple (1, 2, 3)",
    ),
    "compatibility-diagonal": (
        "compatibility", qseed.QuantumSeed, "check_compatibility",
        lambda f: lambda seed: {j: 2 * d for j, d in f(seed).items()},
        "disc n=4, delta={delta}: diagonal {1: 8}",
    ),
    "flip-mutation-B": (
        "flip-mutation", qseed, "_mutate_columns",
        lambda f: lambda b, i, col: [[-x for x in row] for row in f(b, i, col)],
        "B mismatch: n=4, delta={delta}, i=1",
    ),
    "flip-mutation-Lambda": (
        "flip-mutation", qseed.QuantumSeed, "mutate", _lambda_negated,
        "Lambda mismatch: n=4, delta={delta}, i=1",
    ),
    "laurent": (
        "laurent", disc, "expand_laurent", lambda f: lambda x, delta: f(x, delta).shift(1),
        "failed at n=3, delta={delta}",
    ),
    "denominator": (
        "denominator", disc, "mu_delta",
        lambda f: lambda n, delta, x: tuple(m + 1 for m in f(n, delta, x)),
        "n=3, chord=(1, 2), delta={delta}: (0, 0, 0) != (1, 1, 1)",
    ),
    "annulus": (
        "annulus", annulus, "side_equals", lambda f: lambda lhs, parts: False,
        "failed: ell*x_-5 = q*x_-4 + q^-1*x_-6, x_-5*x_-4 = q^-2*x_-4*x_-5, "
        "x_-5*x_-3 = a*b + q^-2*x_-4^2, x_-5*x_-2 = q*ell*a*b + q^-2*x_-4*x_-3, "
        "(x_-5*x_-4)*ell = q*x_-5^2 + q^-1*a*b + q^-3*x_-4^2",
    ),
    "catalan-enumeration": (
        "catalan", disc, "enumerate_triangulations", lambda f: lambda n: f(n)[:-1],
        "n=5: enumeration found 4, expected 5",
    ),
    "catalan-orbit": (
        "catalan", surf, "flip", lambda f: lambda s, j: s,
        "n=5: flip orbit size 1, expected 5",
    ),
    "rewriting-deterministic": (
        "rewriting", disc, "reduce_word", _drifting,
        "nondeterministic reduction at n=4, word=[(2, 3), (3, 4), (2, 4)]",
    ),
    "rewriting-confluence": (
        "rewriting", disc, "reduce_word",
        lambda f: lambda n, word, rng=None: f(n, word) if rng is None else _zero_disc(n, word),
        "confluence failed at n=4, word=[(2, 3), (3, 4), (2, 4)]",
    ),
    "rewriting-associativity": (
        "rewriting", disc, "product", lambda f: lambda x, y: f(x, y) + x,
        "associativity failed at n=5",
    ),
    "rewriting-bar-law": (
        "rewriting", LinearCombination, "bar", lambda f: lambda x: f(x).scale(QCoeff.v(1)),
        "bar law failed at n=5",
    ),
    # v^(total degree) keeps the bar law: the degree of a product is the sum.
    "rewriting-bar-fixes-basis": (
        "rewriting", LinearCombination, "bar",
        lambda f: lambda x: f(x).scale(QCoeff.v(sum(x.grading()))),
        "bar does not fix a basis element at n=5",
    ),
    "rewriting-grading": (
        "rewriting", disc.DiscElement, "grading", lambda f: lambda x: (0,) * x.n,
        "grading mismatch at n=5, word=[(3, 4)]",
    ),
    "matrices-flip-involution": (
        "matrices", surf.TriangulatedSurface, "canonical", lambda f: lambda s: id(s),
        "flip at arc 2 is not an involution",
    ),
    "matrices-cut-ex": (
        "matrices", surf, "cut", lambda f: lambda s, j: s,
        "cut at arc 2: exchangeable part (2, 4, 6) != (4, 6)",
    ),
    "matrices-cut-pi-b": (
        "matrices", qseed.QuantumSeed, "pi_b", lambda f: lambda seed: [row + [0] for row in f(seed)],
        "cut at arc 2: pi.B is not the submatrix",
    ),
    "matrices-cut-row": (
        "matrices", surf, "b_matrix", _last_row_moved,
        "cut at arc 2: row 8 changed",
    ),
    "matrices-cut-split": (
        "matrices", surf, "b_matrix", _exchangeable_part_twisted,
        "cut at arc 2: boundary copies do not sum to the old row",
    ),
    # Adding 1 everywhere keeps every cut's pi.B a submatrix.
    "matrices-small-disc-pi-b": (
        "matrices", qseed.QuantumSeed, "pi_b",
        lambda f: lambda seed: [[x + 1 for x in row] for row in f(seed)],
        "disc n=4: pi.B = [[1]] is nonzero",
    ),
    "matrices-no-step": (
        "matrices", qseed, "banff_step", lambda f: lambda a: None,
        "pentagon: no sink or source mutation step found",
    ),
    "matrices-cyclic": (
        "matrices", qseed, "is_acyclic", lambda f: lambda a: False,
        "pentagon: exchangeable part unexpectedly cyclic",
    ),
    "matrices-cycle-acyclic": (
        "matrices", qseed, "is_acyclic", lambda f: lambda a: True,
        "3-cycle matrix reported acyclic",
    ),
    "matrices-cycle-step": (
        "matrices", qseed, "banff_step", lambda f: lambda a: (0, 1),
        "3-cycle matrix has no sink or source, yet a step was returned",
    ),
    "matrices-mutation-involution": (
        "matrices", qseed, "matrix_mutate", lambda f: lambda a, i: [[0]],
        "matrix mutation at 0 is not an involution",
    ),
    "q1-plucker": (
        "q1", LinearCombination, "specialize_q1", lambda f: lambda x: {},
        "commutative Plucker failed at n=4, (1, 2, 3, 4)",
    ),
    "q1-commutative": (
        "q1", disc, "product", lambda f: lambda x, y: x,
        "specialized product not commutative at n=4",
    ),
    "q1-exchange": (
        "q1", annulus.AnnulusModel, "x", lambda f: lambda model, i: f(model, i).scale(2),
        "commutative exchange relation failed at i=-2",
    ),
    # The sign (-1)^i keeps the exchange relation at q = 1 and breaks the loop's.
    "q1-loop": (
        "q1", annulus.AnnulusModel, "x",
        lambda f: lambda model, i: f(model, i).scale(-1 if i % 2 else 1),
        "commutative loop relation failed at i=-2",
    ),
}


@pytest.mark.parametrize("case", FAIL_LINES)
def test_each_fail_line(monkeypatch, case):
    suite, owner, attribute, broken, detail = FAIL_LINES[case]
    monkeypatch.setattr(owner, attribute, broken(getattr(owner, attribute)))
    (result,) = verify.run([suite])
    head, delta, tail = detail.partition("{delta}")
    assert result["ok"] is False
    if delta:
        assert result["detail"].startswith(head) and result["detail"].endswith(tail)
    else:
        assert result["detail"] == detail


def test_unknown_check_name_raises():
    with pytest.raises(KeyError, match="unknown check"):
        verify.run(["nope"])
