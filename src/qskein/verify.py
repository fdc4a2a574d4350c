"""Acceptance checks for the skein and quantum cluster algebra machinery.

Each check exercises one verifiable claim end to end, with exact arithmetic
throughout: equality always means bit-equality of canonical forms, never a
numeric tolerance.  The checks are shared between the test suite and the
``qskein verify`` command so both report from the same code path.

Every check returns ``(ok, detail)`` and is wrapped by :func:`run`, which
adds wall-clock timing and the per-check time budget.  Randomized checks
draw from a ``random.Random`` seeded deterministically from the caller's
seed and the check name, so individual checks reproduce regardless of
which subset runs.
"""

from __future__ import annotations

import functools
import random
import time
from itertools import combinations

from . import disc
from . import qseed
from . import surface as surf
from .annulus import X0, X1, AnnulusModel
from .qcoeff import QCoeff
from .qtorus import TorusElement

DiscElement = disc.DiscElement
# disc.all_chords(n), built once per n for the random draws.
_chords = functools.cache(disc.all_chords)


def _random_skein(rng: random.Random, n: int, max_len: int = 2) -> DiscElement:
    chords = _chords(n)
    word = [rng.choice(chords) for _ in range(rng.randint(1, max_len))]
    return disc.reduce_word(n, word)


# ---------------------------------------------------------------------------
# 1. Plucker identity
# ---------------------------------------------------------------------------


def check_plucker(rng: random.Random) -> tuple[bool, str]:
    """reduce([x_ac, x_bd]) = q [x_ab x_cd] + q^-1 [x_ad x_bc], discs n = 4..8."""
    count = 0
    for n in range(4, 9):
        for a, b, c, d in combinations(range(1, n + 1), 4):
            lhs = disc.reduce_word(n, [(a, c), (b, d)])
            rhs = DiscElement.basis(n, [(a, b), (c, d)]).scale(QCoeff.q(1))
            rhs = rhs + DiscElement.basis(n, [(a, d), (b, c)]).scale(QCoeff.q(-1))
            if lhs != rhs:
                return False, f"failed at n={n}, quadruple {(a, b, c, d)}"
            count += 1
    return True, f"{count} quadruple identities verified across n=4..8"


# ---------------------------------------------------------------------------
# 2. Boundary q-commutation
# ---------------------------------------------------------------------------


def check_boundary_commutation(rng: random.Random) -> tuple[bool, str]:
    """[x_ab][x_bc] = q [x_bc][x_ab] for every clockwise triple, n <= 8."""
    count = 0
    for n in range(3, 9):
        for a, b, c in combinations(range(1, n + 1), 3):
            xab = DiscElement.basis(n, [(a, b)])
            xbc = DiscElement.basis(n, [(b, c)])
            lhs = disc.product(xab, xbc)
            rhs = disc.product(xbc, xab).scale(QCoeff.q(1))
            if lhs != rhs:
                return False, f"failed at n={n}, triple {(a, b, c)}"
            count += 1
    return True, f"{count} shared-endpoint commutations verified across n=3..8"


# ---------------------------------------------------------------------------
# 3. Compatibility Lambda.B = 4i
# ---------------------------------------------------------------------------


def check_compatibility(rng: random.Random) -> tuple[bool, str]:
    """Every triangulation seed (discs n <= 7, annulus) satisfies Lambda.B = 4i."""
    def seeds():
        for n in range(3, 8):
            for delta in disc.enumerate_triangulations(n):
                yield f"disc n={n}, delta={delta}", disc.triangulation_seed(n, delta)
        yield "annulus", surf.to_seed(surf.build_annulus(1, 1))

    for count, (label, seed) in enumerate(seeds(), 1):
        try:
            diag = seed.check_compatibility()
        except qseed.CompatibilityError as exc:
            return False, f"{label}: {exc}"
        if any(v != 4 for v in diag.values()):
            return False, f"{label}: diagonal {diag}"
    return True, f"{count} seeds satisfy Lambda.B = 4 on the exchangeable part"


# ---------------------------------------------------------------------------
# 4. Flip = mutation
# ---------------------------------------------------------------------------


def _mismatch(mut: qseed.QuantumSeed, i: int, flipped: qseed.QuantumSeed, x) -> str | None:
    """What first differs between the seed mutated at i and the flipped seed
    whose new variable is x: B, Lambda, Lambda against the frame, or X'_i."""
    if mut.b != flipped.b:
        return "B"
    if mut.lam.matrix != flipped.lam.matrix:
        return "Lambda"
    try:
        mut.check_frame((i,))
    except qseed.CompatibilityError:
        return "Lambda/frame"
    return None if mut.frame[i] == x else "variable"


def check_flip_mutation(rng: random.Random) -> tuple[bool, str]:
    """Flipping a diagonal matches quantum seed mutation, matrices and variables."""
    count = 0
    for n in range(4, 7):
        for delta in disc.enumerate_triangulations(n):
            s = surf.from_chords(n, delta)
            seed = surf.to_seed(s)
            for i in seed.ex:
                t = surf.flip(s, i)
                x = DiscElement.basis(n, [surf.to_chords(t)[i]])
                what = _mismatch(seed.mutate(i), i, surf.to_seed(t), disc.expand_laurent(x, delta))
                if what:
                    return False, f"{what} mismatch: n={n}, delta={delta}, i={i}"
                count += 1
    model = AnnulusModel(bound=3)
    for i, x in ((X0, model.x(2)), (X1, model.x(-1))):
        flipped = surf.to_seed(surf.flip(model.surface, i))
        what = _mismatch(model.seed.mutate(i), i, flipped, x)
        if what:
            return False, f"annulus {what} mismatch at arc {i}"
        count += 1
    return True, f"{count} flips match mutation at matrix and variable level"


# ---------------------------------------------------------------------------
# 5. Laurent embedding is multiplicative
# ---------------------------------------------------------------------------


def check_laurent_multiplicative(rng: random.Random) -> tuple[bool, str]:
    """expand_laurent(xy) = expand_laurent(x) expand_laurent(y), 100 random
    pairs per triangulation of discs n = 3..6, 2,200 in all."""
    count = 0
    for n in range(3, 7):
        for delta in disc.enumerate_triangulations(n):
            for _ in range(100):
                x = _random_skein(rng, n)
                y = _random_skein(rng, n)
                lhs = disc.expand_laurent(disc.product(x, y), delta)
                rhs = disc.expand_laurent(x, delta) * disc.expand_laurent(y, delta)
                if lhs != rhs:
                    return False, f"failed at n={n}, delta={delta}"
                count += 1
    return True, f"{count} random products expand multiplicatively (discs n=3..6)"


# ---------------------------------------------------------------------------
# 6. Denominator theorem
# ---------------------------------------------------------------------------


def check_denominator(rng: random.Random) -> tuple[bool, str]:
    """Negative support of a chord expansion equals its crossing vector, n <= 7."""
    count = 0
    for n in range(3, 8):
        chords = disc.all_chords(n)
        for delta in disc.enumerate_triangulations(n):
            for c in chords:
                x = DiscElement.basis(n, [c])
                mu = disc.mu_delta(n, delta, x)
                expansion = disc.expand_laurent(x, delta)
                neg = tuple(max(0, -min(col)) for col in zip(*expansion.support()))
                if neg != mu:
                    return False, f"n={n}, chord={c}, delta={delta}: {neg} != {mu}"
                count += 1
    return True, f"{count} chord expansions have denominator exactly mu_Delta"


# ---------------------------------------------------------------------------
# 7. Annulus suite
# ---------------------------------------------------------------------------


def check_annulus(rng: random.Random) -> tuple[bool, str]:
    """Annulus relations, loop Laurent formulas, centrality and membership."""
    model = AnnulusModel(bound=8)
    results = model.verify_identities(irange=5, render=False)
    bad = [r["name"] for r in results if not r["ok"]]
    if bad:
        return False, "failed: " + ", ".join(bad[:5])
    return True, f"{len(results)} annulus identities verified for |i| <= 5"


# ---------------------------------------------------------------------------
# 8. Upper membership
# ---------------------------------------------------------------------------


def _membership_cases():
    """(name, seed, (label, cluster variable) pairs) for the pentagon, then the annulus."""
    fan = tuple(sorted(surf.to_chords(surf.build_disc(5))))
    chords = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
    yield "pentagon", disc.triangulation_seed(5, fan), (
        (c, disc.expand_laurent(DiscElement.basis(5, [c]), fan)) for c in chords
    )
    model = AnnulusModel(bound=6)
    yield "annulus", model.seed, ((f"x_{i}", model.x(i)) for i in range(-4, 6))


def check_membership(rng: random.Random) -> tuple[bool, str]:
    """Cluster variables pass the membership test; M^{-e_i} fails it."""
    count = 0
    for name, seed, variables in _membership_cases():
        for label, x in variables:
            if not qseed.upper_membership(x, seed):
                return False, f"{name} variable {label} rejected"
            count += 1
        for i in seed.ex:
            bad = TorusElement.monomial(seed.ambient, tuple(-1 if k == i else 0 for k in range(seed.n)))
            if qseed.upper_membership(bad, seed):
                return False, f"{name} M^(-e_{i}) accepted"
            count += 1
    return True, f"{count} membership verdicts correct (pentagon and annulus)"


# ---------------------------------------------------------------------------
# 9. Catalan flip orbits
# ---------------------------------------------------------------------------


def check_catalan(rng: random.Random) -> tuple[bool, str]:
    """Flip orbits of discs n = 5, 6, 7 have sizes 5, 14, 42."""
    expected = {5: 5, 6: 14, 7: 42}
    for n, target in expected.items():
        all_deltas = {tuple(sorted(d)) for d in disc.enumerate_triangulations(n)}
        if len(all_deltas) != target:
            return False, f"n={n}: enumeration found {len(all_deltas)}, expected {target}"
        start = next(iter(all_deltas))
        seen = {start}
        frontier = [surf.from_chords(n, start)]
        while frontier:
            s = frontier.pop()
            for j in s.internal_arcs():
                flipped = surf.flip(s, j)
                key = tuple(sorted(surf.to_chords(flipped)))
                if key not in seen:
                    seen.add(key)
                    frontier.append(flipped)
        if seen != all_deltas:
            return False, f"n={n}: flip orbit size {len(seen)}, expected {target}"
    return True, "flip orbits match exhaustive enumeration: 5, 14, 42"


# ---------------------------------------------------------------------------
# 10. Rewriting soundness
# ---------------------------------------------------------------------------


def check_rewriting(rng: random.Random) -> tuple[bool, str]:
    """Confluence, associativity, bar law and grading additivity, discs n <= 8."""
    confluent = 0
    for n in range(4, 9):
        chords = disc.all_chords(n)
        for _ in range(6):
            word = [rng.choice(chords) for _ in range(rng.randint(2, 4))]
            canon = disc.reduce_word(n, word)
            if disc.reduce_word(n, word) != canon:
                return False, f"nondeterministic reduction at n={n}, word={word}"
            for _ in range(20):
                alt = disc.reduce_word(n, word, rng=random.Random(rng.getrandbits(32)))
                if alt != canon:
                    return False, f"confluence failed at n={n}, word={word}"
                confluent += 1
    assoc = 0
    for _ in range(200):
        n = rng.randint(4, 8)
        x, y, z = (_random_skein(rng, n) for _ in range(3))
        if disc.product(disc.product(x, y), z) != disc.product(x, disc.product(y, z)):
            return False, f"associativity failed at n={n}"
        assoc += 1
    barred = 0
    for _ in range(50):
        n = rng.randint(4, 8)
        x, y = _random_skein(rng, n), _random_skein(rng, n)
        if disc.product(x, y).bar() != disc.product(y.bar(), x.bar()):
            return False, f"bar law failed at n={n}"
        basis = DiscElement.basis(n, [rng.choice(_chords(n))])
        if basis.bar() != basis:
            return False, f"bar does not fix a basis element at n={n}"
        barred += 1
    graded = 0
    for _ in range(50):
        n = rng.randint(4, 8)
        chords = disc.all_chords(n)
        word = [rng.choice(chords) for _ in range(rng.randint(1, 3))]
        expected = [0] * n
        for a, b in word:
            expected[a - 1] += 1
            expected[b - 1] += 1
        if disc.reduce_word(n, word).grading() != tuple(expected):
            return False, f"grading mismatch at n={n}, word={word}"
        graded += 1
    detail = (
        f"{confluent} schedule agreements, {assoc} associativity triples, "
        f"{barred} bar checks, {graded} grading checks"
    )
    return True, detail


# ---------------------------------------------------------------------------
# 11. Structural matrix suite
# ---------------------------------------------------------------------------


def check_matrices(rng: random.Random) -> tuple[bool, str]:
    """Arc counts, cut submatrices, vanishing pi.B, and sink/source witnesses."""
    # Construction validates a surface, so each build is one check.
    builds = [surf.build_disc(n) for n in range(3, 9)]
    builds += [surf.build_annulus(p, q) for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]]
    count = len(builds)

    for s in [surf.build_disc(5), surf.build_disc(6), surf.build_annulus(1, 1), surf.build_annulus(2, 1)]:
        for j in s.internal_arcs():
            flipped = surf.flip(s, j)
            if surf.flip(flipped, j).canonical() != s.canonical():
                return False, f"flip at arc {j} is not an involution"
            count += 1

    for s in [surf.build_disc(6), surf.build_annulus(1, 1), surf.build_annulus(2, 1)]:
        seed = surf.to_seed(s)
        colpos = {j: k for k, j in enumerate(seed.ex)}
        exl = list(seed.ex)
        pib = seed.pi_b()
        for j in seed.ex:
            ends = s.arcs[j].ends
            if ends[0] == ends[1]:
                continue
            c = surf.cut(s, j)
            cseed = surf.to_seed(c)
            rem = [k for k in seed.ex if k != j]
            if cseed.ex != tuple(rem):
                return False, f"cut at arc {j}: exchangeable part {cseed.ex} != {tuple(rem)}"
            sub = [[pib[exl.index(a)][exl.index(b)] for b in rem] for a in rem]
            if cseed.pi_b() != sub:
                return False, f"cut at arc {j}: pi.B is not the submatrix"
            np = len(seed.b)
            for i in range(np):
                if i == j:
                    continue
                if list(cseed.b[i]) != [seed.b[i][colpos[k]] for k in rem]:
                    return False, f"cut at arc {j}: row {i} changed"
            split = [cseed.b[j][t] + cseed.b[np][t] for t in range(len(rem))]
            if split != [seed.b[j][colpos[k]] for k in rem]:
                return False, f"cut at arc {j}: boundary copies do not sum to the old row"
            count += 1

    for n in (3, 4):
        pib = surf.to_seed(surf.build_disc(n)).pi_b()
        if any(entry != 0 for row in pib for entry in row):
            return False, f"disc n={n}: pi.B = {pib} is nonzero"
        count += 1

    pentagon = surf.to_seed(surf.build_disc(5)).pi_b()
    annulus = surf.to_seed(surf.build_annulus(1, 1)).pi_b()
    for name, m in [("pentagon", pentagon), ("annulus", annulus)]:
        if qseed.banff_step(m) is None:
            return False, f"{name}: no sink or source mutation step found"
        if not qseed.is_acyclic(m):
            return False, f"{name}: exchangeable part unexpectedly cyclic"
        count += 1
    cycle = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    if qseed.is_acyclic(cycle):
        return False, "3-cycle matrix reported acyclic"
    if qseed.banff_step(cycle) is not None:
        return False, "3-cycle matrix has no sink or source, yet a step was returned"
    for m in (pentagon, annulus, cycle):
        for i in range(len(m)):
            if qseed.matrix_mutate(qseed.matrix_mutate(m, i), i) != [list(r) for r in m]:
                return False, f"matrix mutation at {i} is not an involution"
            count += 1
    return True, f"{count} structural checks passed (builds, flips, cuts, witnesses)"


# ---------------------------------------------------------------------------
# 12. q = 1 specialization
# ---------------------------------------------------------------------------


def check_q1(rng: random.Random) -> tuple[bool, str]:
    """Specializing q = 1 is a ring map onto the commutative coordinate ring."""
    count = 0
    for n in range(4, 7):
        for a, b, c, d in combinations(range(1, n + 1), 4):
            lhs = disc.reduce_word(n, [(a, c), (b, d)]).specialize_q1()
            rhs = {
                disc.multiset_key(n, [(a, b), (c, d)]): 1,
                disc.multiset_key(n, [(a, d), (b, c)]): 1,
            }
            if lhs != rhs:
                return False, f"commutative Plucker failed at n={n}, {(a, b, c, d)}"
            count += 1
    for _ in range(50):
        n = rng.randint(4, 6)
        x, y = _random_skein(rng, n), _random_skein(rng, n)
        if disc.product(x, y).specialize_q1() != disc.product(y, x).specialize_q1():
            return False, f"specialized product not commutative at n={n}"
        count += 1
    model = AnnulusModel(bound=4)
    for i in range(-2, 3):
        lhs = (model.x(i - 1) * model.x(i + 1)).specialize_q1()
        rhs = (model.x(i) * model.x(i) + model.a * model.b).specialize_q1()
        if lhs != rhs:
            return False, f"commutative exchange relation failed at i={i}"
        lhs = (model.ell * model.x(i)).specialize_q1()
        rhs = (model.x(i - 1) + model.x(i + 1)).specialize_q1()
        if lhs != rhs:
            return False, f"commutative loop relation failed at i={i}"
        count += 2
    return True, f"{count} commutative specializations verified"


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

CHECKS: list[tuple[str, float, object]] = [
    ("plucker", 1.0, check_plucker),
    ("boundary-commutation", 1.0, check_boundary_commutation),
    ("compatibility", 5.0, check_compatibility),
    ("flip-mutation", 30.0, check_flip_mutation),
    ("laurent", 60.0, check_laurent_multiplicative),
    ("denominator", 10.0, check_denominator),
    ("annulus", 10.0, check_annulus),
    ("membership", 10.0, check_membership),
    ("catalan", 10.0, check_catalan),
    ("rewriting", 60.0, check_rewriting),
    ("matrices", 5.0, check_matrices),
    ("q1", 5.0, check_q1),
]


def names() -> list[str]:
    return [name for name, _, _ in CHECKS]


def run(selected=None, seed: int = 0) -> list[dict]:
    """Run the named checks (all by default) and return structured results."""
    wanted = list(selected) if selected else names()
    if any(w == "all" for w in wanted):
        wanted = names()
    table = {name: (budget, fn) for name, budget, fn in CHECKS}
    unknown = [w for w in wanted if w not in table]
    if unknown:
        raise KeyError(f"unknown check(s): {', '.join(unknown)}")
    results = []
    for name in wanted:
        budget, fn = table[name]
        rng = random.Random(f"{seed}:{name}")
        start = time.perf_counter()
        ok, detail = fn(rng)
        elapsed = time.perf_counter() - start
        results.append(
            {
                "name": name,
                "ok": ok,
                "detail": detail,
                "elapsed": round(elapsed, 3),
                "budget": budget,
            }
        )
    return results


def passed(result: dict) -> bool:
    """A check passes when its identities hold and it beat its time budget."""
    return bool(result["ok"]) and result["elapsed"] <= result["budget"]


def format_line(result: dict) -> str:
    status = "PASS" if passed(result) else "FAIL"
    return (
        f"{status} {result['name']:<22} {result['elapsed']:>7.3f}s"
        f" (budget {result['budget']:g}s)  {result['detail']}"
    )
