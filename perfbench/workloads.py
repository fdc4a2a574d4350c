"""The benchmark workloads.

Each workload has a ``setup(seed, size)`` that builds every input from the
seed (timed as set-up) and a ``run(inputs)`` that does the workload's fixed
work through the public qskein API (timed as ``wall_s``).  ``run`` returns
one :class:`Op` per operation.  An operation fails when it raises, when its
exact identity is false, or (checked by the caller) when the digest of all
outputs differs from the reference recorded for the seed.

Where the seed cannot change the work without changing its amount, it picks
a relabelling instead: a rotation or reflection of a disc, or a permutation
of the annulus indices.  Every seed then does the same amount of work on
different inputs, so run-to-run spread is not input-size spread.

qskein is reached through module attributes (``disc.reduce_word``, never a
name imported from a module), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass
from math import comb

SIZES = ("full", "tiny")


@dataclass
class Op:
    name: str
    ok: bool
    output: object = None  # canonical, JSON-able; hashed into the digest
    error: str | None = None
    seconds: float | None = None  # verify checks only: time spent in verify.run


def attempt(ops: list[Op], name: str, fn) -> None:
    """Run one operation; a raising operation is recorded as failed, not raised."""
    try:
        ok, output = fn()
    except Exception:  # noqa: BLE001 - the boundary that keeps the workload going
        ops.append(Op(name, False, error=traceback.format_exc(limit=4)))
    else:
        ops.append(Op(name, bool(ok), output))


def digest(ops: list[Op]) -> str:
    data = json.dumps([[op.name, op.output] for op in ops], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def seed_form(seed) -> dict:
    """Canonical form of a quantum seed: matrices and frame fingerprints."""
    return {
        "ex": list(seed.ex),
        "B": [list(row) for row in seed.b],
        "lambda": [list(row) for row in seed.lam.matrix],
        "frame": [f.fingerprint() for f in seed.frame],
    }


def dihedral(n: int, chord, turn: int, mirror: bool):
    """Image of a chord under rotation by ``turn`` then, if asked, reflection."""
    a, b = ((c - 1 + turn) % n + 1 for c in chord)
    if mirror:
        a, b = n + 1 - a, n + 1 - b
    return (min(a, b), max(a, b))


# ---------------------------------------------------------------------------
# verify_all: the acceptance suite users run to trust the library
# ---------------------------------------------------------------------------

# The two checks left out of the tiny size take about 90% of the suite.
_HEAVY_CHECKS = ("laurent", "denominator")


def setup_verify_all(seed: int, size: str):
    from qskein import verify

    names = verify.names()
    if size == "tiny":
        names = [name for name in names if name not in _HEAVY_CHECKS]
    return {"seed": seed, "checks": names}


def run_verify_all(inputs) -> list[Op]:
    from qskein import verify

    ops: list[Op] = []
    for name in inputs["checks"]:
        # One check per verify.run call: verify.run stops at the first check
        # that raises, and a raising check must cost only itself.
        start = time.perf_counter()
        try:
            result = verify.run([name], seed=inputs["seed"])[0]
        except Exception:  # noqa: BLE001 - the boundary that keeps the suite going
            ops.append(Op(name, False, error=traceback.format_exc(limit=4)))
        else:
            # Timed here rather than read from result["elapsed"], which
            # verify.run rounds to milliseconds.
            seconds = time.perf_counter() - start
            output = [result["ok"], result["detail"]]
            ops.append(Op(name, verify.passed(result), output, seconds=seconds))
    return ops


# ---------------------------------------------------------------------------
# skein_rewrite: disc rewriting to the canonical basis, no torus, no seed
# ---------------------------------------------------------------------------


def _word_shapes(size: str) -> list[tuple[int, list]]:
    """The fixed word shapes; the seed only relabels them.

    The m mutually crossing diagonals (i, i+m) of a 2m-gon give Catalan(m)
    output terms, so they set the output-sensitive cost.  The random words
    come from a fixed generator so that every seed rewrites the same shapes.
    """
    rng = random.Random("skein_rewrite shapes")
    if size == "tiny":
        crossing, random_words = (10,), [(8, 5, 3)]
    else:
        crossing = (14, 16)
        random_words = [(10, 7, 12), (12, 8, 12), (14, 8, 12), (16, 9, 8)]
    shapes = []
    for n in crossing:
        m = n // 2
        shapes.append((n, [(i, i + m) for i in range(1, m + 1)]))
    for n, length, count in random_words:
        internal = [(a, b) for a in range(1, n + 1) for b in range(a + 2, n + 1) if (a, b) != (1, n)]
        for _ in range(count):
            shapes.append((n, [rng.choice(internal) for _ in range(length)]))
    return shapes


def setup_skein_rewrite(seed: int, size: str):
    rng = random.Random(f"skein_rewrite:{seed}")
    words = []
    for n, shape in _word_shapes(size):
        turn, mirror = rng.randrange(n), rng.random() < 0.5
        words.append((n, [dihedral(n, c, turn, mirror) for c in shape]))
    return words


def run_skein_rewrite(words) -> list[Op]:
    from qskein import disc

    ops: list[Op] = []
    for k, (n, word) in enumerate(words):
        # Identity: one-shot reduction equals the chord-by-chord product fold.
        def one(n=n, word=word):
            whole = disc.reduce_word(n, word)
            folded = disc.DiscElement.basis(n, [word[0]])
            for chord in word[1:]:
                folded = disc.product(folded, disc.DiscElement.basis(n, [chord]))
            return whole == folded, whole.to_json()

        attempt(ops, f"word{k}", one)
    return ops


# ---------------------------------------------------------------------------
# disc_seeds: seed mutation to closure over many-term, small-coefficient tori
# ---------------------------------------------------------------------------


def setup_disc_seeds(seed: int, size: str):
    from qskein import disc

    n = 6 if size == "tiny" else 8
    rng = random.Random(f"disc_seeds:{seed}")
    turn, mirror = rng.randrange(n), rng.random() < 0.5
    fan = disc.boundary_chords(n) + [(1, k) for k in range(3, n)]
    delta = tuple(sorted(dihedral(n, c, turn, mirror) for c in fan))
    return {"n": n, "start": disc.triangulation_seed(n, delta)}


def run_disc_seeds(inputs) -> list[Op]:
    from qskein import qseed

    n = inputs["n"]
    ops: list[Op] = []

    # Identity: the disc's cluster type A_(n-3) has Catalan(n-2) seeds and
    # one cluster variable per diagonal.
    def enumerate_all():
        seeds, truncated = qseed.enumerate_seeds(inputs["start"], max_seeds=10_000, max_depth=64)
        forms = [seed_form(s) for s in seeds]
        variables = {
            json.dumps(form["frame"][i]) for form, s in zip(forms, seeds) for i in s.ex
        }
        ok = (
            not truncated
            and len(seeds) == comb(2 * (n - 2), n - 2) // (n - 1)
            and len(variables) == n * (n - 3) // 2
        )
        return ok, sorted(json.dumps(form, sort_keys=True) for form in forms)

    attempt(ops, "enumerate", enumerate_all)
    return ops


# ---------------------------------------------------------------------------
# annulus_tower: few products of large coefficients
# ---------------------------------------------------------------------------

_ANNULUS = {"full": (14, 8), "tiny": (8, 3)}  # (seeds enumerated, identity range)


def _relabel(seed, perm):
    """The same seed with index k renamed perm[k]."""
    from qskein import QuantumSeed, SkewForm

    n = seed.n
    inv = {perm[k]: k for k in range(n)}
    lam = [[seed.lam.matrix[inv[i]][inv[j]] for j in range(n)] for i in range(n)]
    ex = sorted(perm[k] for k in seed.ex)
    column = {j: c for c, j in enumerate(seed.ex)}
    b = [[seed.b[inv[k]][column[inv[j]]] for j in ex] for k in range(n)]
    return QuantumSeed.initial(SkewForm(lam), b, ex)


def setup_annulus_tower(seed: int, size: str):
    import qskein

    max_seeds, irange = _ANNULUS[size]
    rng = random.Random(f"annulus_tower:{seed}")
    perm = list(range(4))
    rng.shuffle(perm)
    start = _relabel(qskein.to_seed(qskein.build_annulus(1, 1)), perm)
    return {
        "start": start,
        "max_seeds": max_seeds,
        "irange": irange,
        "model": qskein.AnnulusModel(bound=irange + 3),
    }


def run_annulus_tower(inputs) -> list[Op]:
    from qskein import qseed

    ops: list[Op] = []
    model, irange = inputs["model"], inputs["irange"]

    def enumerate_some():
        seeds, _ = qseed.enumerate_seeds(inputs["start"], max_seeds=inputs["max_seeds"], max_depth=64)
        return len(seeds) == inputs["max_seeds"], [seed_form(s) for s in seeds]

    attempt(ops, "enumerate", enumerate_some)

    # verify_identities can raise (it calls grading(ell) unguarded); that
    # costs one failed operation, and the membership phase still runs.
    try:
        rows = model.verify_identities(irange=irange)
    except Exception:  # noqa: BLE001 - the boundary that keeps the workload going
        ops.append(Op("verify_identities", False, error=traceback.format_exc(limit=4)))
    else:
        ops.extend(Op(row["name"], bool(row["ok"]), [row["lhs"], row["rhs"]]) for row in rows)

    for i in range(-irange, irange + 1):

        def member(i=i):
            verdict = qseed.upper_membership(model.x(i), model.seed)
            return verdict, verdict

        attempt(ops, f"upper_membership(x_{i})", member)
    return ops


WORKLOADS = {
    "verify_all": (setup_verify_all, run_verify_all),
    "skein_rewrite": (setup_skein_rewrite, run_skein_rewrite),
    "disc_seeds": (setup_disc_seeds, run_disc_seeds),
    "annulus_tower": (setup_annulus_tower, run_annulus_tower),
}
