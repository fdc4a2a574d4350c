"""Command-line front end.

Verbs group by module: ``skein`` for rewriting and Laurent expansion,
``seed`` for quantum seed operations, ``surface`` for triangulated
surfaces, ``annulus`` for the annulus model, and ``verify`` for the
acceptance suites.

Inline JSON arguments may instead name a file by prefixing the path
with ``@``.  ``_decode`` alone turns a JSON argument into a value, and
its failures into ``input error: <option>: <reason>``, where the reason
names the JSON path of a bad value, as in ``[0][0]: expected int, got
1.7``.  Exit codes: 0 on success, 1 when a verification reports a
failure, 2 on malformed or otherwise unusable input, 3 on an internal
error (any other exception, reported on stderr with its type), 141
(128 + SIGPIPE) when stdout is closed before the output is written, as
in ``qskein ... | head``; that case prints nothing on stderr.  All
emitted JSON re-parses into equal values and lists terms in sorted
order, so runs are diffable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import disc
from . import qseed
from . import surface as surf
from . import verify
from .annulus import AnnulusModel
from .disc import DiscElement
from .payload import PayloadError, int_list, int_matrix
from .qseed import CompatibilityError, QuantumSeed
from .qtorus import TorusElement


class InputError(ValueError):
    """Unusable command-line input; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Input decoding
# ---------------------------------------------------------------------------


def _disc_n(args) -> int:
    if args.n < 3:
        raise InputError("--n: a disc needs at least 3 marked points")
    return args.n


def _decode(label: str, text: str, decode):
    """decode(the JSON in text, or in the file named after "@"); an unreadable
    file, malformed JSON or a ValueError from decode is an InputError."""
    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"{label}: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{label}: malformed JSON: {exc}") from exc
    try:
        return decode(data)
    except ValueError as exc:
        raise InputError(f"{label}: {exc}") from exc


def _as_word(n: int, data) -> list[tuple[int, int]]:
    return [disc.normalize_chord(n, c) for c in int_matrix(data, "", cols=2)]


def _load_skein(n: int, label: str, text: str) -> DiscElement:
    """Decode a skein element: either an element payload or a chord word."""

    def decode(data):
        if isinstance(data, list):
            return _as_word(n, data)
        if not isinstance(data, dict):
            raise PayloadError("", "expected a chord list or an element object")
        el = DiscElement.from_json(data)
        if el.n != n:
            raise PayloadError("", f"element lives on {el.n} marked points, not {n}")
        return el

    x = _decode(label, text, decode)
    return disc.reduce_word(n, x) if isinstance(x, list) else x


def _load_delta(n: int, label: str, text: str) -> tuple:
    def decode(data):
        delta = tuple(_as_word(n, data))
        surf.from_chords(n, delta)
        return delta

    return _decode(label, text, decode)


def _load_seed(args) -> QuantumSeed:
    """The --preset or --state seed; a --state one must pass Lambda B = D iota
    (``seed check`` reads through ``_read_seed`` and reports that itself)."""
    seed = _read_seed(args)
    if not args.preset:
        try:
            seed.check_compatibility()
        except CompatibilityError as exc:
            raise InputError(f"--state: {exc}") from exc
    return seed


def _read_seed(args) -> QuantumSeed:
    if getattr(args, "preset", None):
        name = args.preset
        if name == "pentagon":
            return _disc_preset(5)
        if name == "annulus":
            return surf.to_seed(surf.build_annulus(1, 1))
        if name.startswith("disc:"):
            size = name[len("disc:") :]
            if not (size.isascii() and size.isdigit()):
                raise InputError(f"--preset: bad disc size in {name!r}")
            return _disc_preset(int(size))
        raise InputError(f"--preset: unknown preset {name!r}")
    if getattr(args, "state", None):
        return _decode("--state", args.state, QuantumSeed.from_json)
    raise InputError("provide --preset or --state")


def _disc_preset(n: int) -> QuantumSeed:
    if n < 3:
        raise InputError("--preset: a disc needs at least 3 marked points")
    fan = tuple(sorted(surf.to_chords(surf.build_disc(n))))
    return disc.triangulation_seed(n, fan)


# ---------------------------------------------------------------------------
# Output encoding
# ---------------------------------------------------------------------------


def _emit(args, payload, text=None) -> None:
    """Print payload() as JSON, or text() in text mode (payload() indented
    when there is no text); each mode builds only what it prints."""
    if args.mode == "json":
        print(json.dumps(payload(), sort_keys=True))
    elif text is not None:
        print(text())
    else:
        print(json.dumps(payload(), indent=2, sort_keys=True))


def _surface_text(s) -> str:
    lines = [
        f"surface: {s.n_points} marked points, {s.n_arcs} arcs"
        f" ({len(s.internal_arcs())} internal), {len(s.triangles)} triangles"
    ]
    for i, comp in enumerate(s.components()):
        lines.append(
            f"component {i}: genus {comp['genus']}, {comp['boundaries']} boundary"
            f" circle(s), points {comp['points']}, arcs {comp['arcs']}"
        )
    return "\n".join(lines)


def _seed_text(seed: QuantumSeed) -> str:
    lines = [f"seed: rank {seed.n}, exchangeable {list(seed.ex)}"]
    lines.append("lambda: " + json.dumps([list(r) for r in seed.lam.matrix]))
    lines.append("b: " + json.dumps([list(r) for r in seed.b]))
    for i in range(seed.n):
        lines.append(f"X_{i} = {seed.frame[i]!r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# skein commands
# ---------------------------------------------------------------------------


def cmd_skein_reduce(args) -> int:
    n = _disc_n(args)
    word = _decode("--word", args.word, lambda data: _as_word(n, data))
    rng = None
    if args.randomize:
        rng = random.Random(args.seed)
    el = disc.reduce_word(n, word, rng=rng)
    _emit(args, el.to_json, lambda: repr(el))
    return 0


def cmd_skein_product(args) -> int:
    n = _disc_n(args)
    if args.word is not None:
        if args.x is not None or args.y is not None:
            raise InputError("use either --word or --x/--y, not both")
        el = disc.reduce_word(n, _decode("--word", args.word, lambda data: _as_word(n, data)))
    else:
        if args.x is None or args.y is None:
            raise InputError("provide --word, or both --x and --y")
        x = _load_skein(n, "--x", args.x)
        y = _load_skein(n, "--y", args.y)
        el = disc.product(x, y)
    _emit(args, el.to_json, lambda: repr(el))
    return 0


def cmd_skein_expand(args) -> int:
    n = _disc_n(args)
    delta = _load_delta(n, "--delta", args.delta)
    x = _load_skein(n, "--x", args.x)
    expansion = disc.expand_laurent(x, delta)
    _emit(args, expansion.to_json, lambda: repr(expansion))
    return 0


def cmd_skein_mu(args) -> int:
    n = _disc_n(args)
    x = _load_skein(n, "--x", args.x)
    if args.delta is not None:
        if args.y is not None:
            raise InputError("use either --y or --delta, not both")
        delta = _load_delta(n, "--delta", args.delta)
        vec = disc.mu_delta(n, delta, x)
        _emit(args, lambda: {"mu_delta": list(vec)}, lambda: "mu_delta: " + json.dumps(list(vec)))
        return 0
    if args.y is None:
        raise InputError("provide --y or --delta")
    y = _load_skein(n, "--y", args.y)
    value = disc.mu(x, y)
    _emit(args, lambda: {"mu": value}, lambda: f"mu: {value}")
    return 0


# ---------------------------------------------------------------------------
# seed commands
# ---------------------------------------------------------------------------


def cmd_seed_mutate(args) -> int:
    seed = _load_seed(args)
    if args.at not in seed.ex:
        raise InputError(f"--at: index {args.at} is not exchangeable")
    mutated = seed.mutate(args.at)
    _emit(args, mutated.to_json, lambda: _seed_text(mutated))
    return 0


def cmd_seed_check(args) -> int:
    seed = _read_seed(args)
    try:
        diag = seed.check_compatibility()
    except CompatibilityError as exc:
        _emit(args, lambda: {"ok": False, "error": str(exc)}, lambda: f"FAIL {exc}")
        return 1
    diagonal = {str(j): v for j, v in sorted(diag.items())}
    _emit(
        args,
        lambda: {"ok": True, "diagonal": diagonal},
        lambda: "OK diagonal " + json.dumps(diagonal, sort_keys=True),
    )
    return 0


def cmd_seed_freeze(args) -> int:
    seed = _load_seed(args)
    try:
        drop = {int(t) for t in args.drop.split(",") if t.strip() != ""}
    except ValueError as exc:
        raise InputError(f"--drop: {exc}") from exc
    if bad := sorted(drop - set(seed.ex)):
        raise InputError(f"--drop: cannot freeze non-exchangeable indices {bad}")
    frozen = seed.freeze(drop)
    _emit(args, frozen.to_json, lambda: _seed_text(frozen))
    return 0


def cmd_seed_enumerate(args) -> int:
    if args.max_seeds < 1:
        raise InputError("--max-seeds must be at least 1")
    if args.max_depth < 0:
        raise InputError("--max-depth must be nonnegative")
    seed = _load_seed(args)
    seeds, truncated = qseed.enumerate_seeds(
        seed, max_seeds=args.max_seeds, max_depth=args.max_depth
    )
    _emit(
        args,
        lambda: {
            "count": len(seeds),
            "truncated": truncated,
            "seeds": [s.to_json() for s in seeds],
        },
        lambda: f"{len(seeds)} seed(s); truncated: {str(truncated).lower()}",
    )
    return 0


def cmd_seed_member(args) -> int:
    seed = _load_seed(args)
    if not seed.is_initial():
        raise InputError("--state: membership is tested against the initial seed")

    def decode(data):
        if isinstance(data, list):
            return TorusElement.monomial(seed.ambient, int_list(data, "", seed.n))
        el = TorusElement.from_json(data)
        if el.form != seed.ambient:
            raise PayloadError("", "element and seed use different skew forms")
        return el

    el = _decode("--element", args.element, decode)
    member = qseed.upper_membership(el, seed)
    _emit(args, lambda: {"member": member}, lambda: f"member: {str(member).lower()}")
    return 0 if member else 1


# ---------------------------------------------------------------------------
# surface commands
# ---------------------------------------------------------------------------


def cmd_surface_build(args) -> int:
    if args.kind == "disc":
        if args.points is None:
            raise InputError("--points is required for a disc")
        if args.points < 3:
            raise InputError("--points: a disc needs at least 3 marked points")
        s = surf.build_disc(args.points)
    else:
        if args.p < 1 or args.q < 1:
            raise InputError("--p and --q must be at least 1")
        s = surf.build_annulus(args.p, args.q)
    _emit(args, s.to_json, lambda: _surface_text(s))
    return 0


def cmd_surface_flip(args) -> int:
    s = _decode("--surface", args.surface, surf.TriangulatedSurface.from_json)
    try:
        flipped = surf.flip(s, args.arc)
    except surf.FlipError as exc:
        raise InputError(f"--arc: {exc}") from exc
    _emit(args, flipped.to_json, lambda: _surface_text(flipped))
    return 0


def cmd_surface_cut(args) -> int:
    s = _decode("--surface", args.surface, surf.TriangulatedSurface.from_json)
    try:
        cut = surf.cut(s, args.arc)
    except (surf.CutError, NotImplementedError) as exc:
        raise InputError(f"--arc: {exc}") from exc
    _emit(args, cut.to_json, lambda: _surface_text(cut))
    return 0


def cmd_surface_matrices(args) -> int:
    s = _decode("--surface", args.surface, surf.TriangulatedSurface.from_json)
    seed = surf.to_seed(s)
    payload = {
        "lambda": surf.lambda_matrix(s),
        "q": surf.q_matrix(s),
        "b": [list(r) for r in seed.b],
        "ex": list(seed.ex),
        "pi_b": seed.pi_b(),
    }
    _emit(args, lambda: payload)
    return 0


# ---------------------------------------------------------------------------
# annulus and verify commands
# ---------------------------------------------------------------------------


def cmd_annulus_verify(args) -> int:
    if args.range < 0:
        raise InputError("--range must be nonnegative")
    model = AnnulusModel(bound=args.range + 3)
    results = model.verify_identities(irange=args.range, render=args.mode == "json")
    ok = all(r["ok"] for r in results)
    if args.mode == "json":
        _emit(args, lambda: {"ok": ok, "checks": results})
    else:
        for r in results:
            print(("PASS " if r["ok"] else "FAIL ") + r["name"])
        print(f"{sum(r['ok'] for r in results)}/{len(results)} annulus identities hold")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    suites = args.suites or ["all"]
    if any(s != "all" and s not in verify.names() for s in suites):
        raise InputError("unknown suite; available: all, " + ", ".join(verify.names()))
    results = verify.run(suites, seed=args.seed)
    ok = all(verify.passed(r) for r in results)
    if args.mode == "json":
        _emit(args, lambda: {"ok": ok, "results": results})
    else:
        for r in results:
            print(verify.format_line(r))
        print(f"{sum(verify.passed(r) for r in results)}/{len(results)} suites passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    mode = common.add_mutually_exclusive_group()
    mode.add_argument(
        "--json",
        dest="mode",
        action="store_const",
        const="json",
        default=argparse.SUPPRESS,
        help="emit machine-readable JSON on one line",
    )
    mode.add_argument(
        "--text",
        dest="mode",
        action="store_const",
        const="text",
        default=argparse.SUPPRESS,
        help="emit a human-readable report (default)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="seed for randomized checks (default 0)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="qskein",
        description="Exact computations in skein algebras and quantum cluster algebras.",
        parents=[common],
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    # skein -----------------------------------------------------------------
    skein = verbs.add_parser("skein", help="skein rewriting and Laurent expansion")
    sub = skein.add_subparsers(dest="subverb", required=True, metavar="op")

    p = sub.add_parser("reduce", parents=[common], help="rewrite a stacked word to the crossingless basis")
    p.add_argument("--n", type=int, required=True, help="number of marked points")
    p.add_argument("--word", required=True, help="JSON list of chords, over-to-under")
    p.add_argument("--randomize", action="store_true", help="use a random resolution schedule")
    p.set_defaults(func=cmd_skein_reduce)

    p = sub.add_parser("product", parents=[common], help="multiply skein elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", help="JSON list of chords to multiply in order")
    p.add_argument("--x", help="left factor: element JSON or chord word")
    p.add_argument("--y", help="right factor: element JSON or chord word")
    p.set_defaults(func=cmd_skein_product)

    p = sub.add_parser("expand", parents=[common], help="expand in the quantum torus of a triangulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, help="element JSON or chord word")
    p.add_argument("--delta", required=True, help="JSON list of triangulation chords")
    p.set_defaults(func=cmd_skein_expand)

    p = sub.add_parser("mu", parents=[common], help="crossing numbers of skein elements")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, help="element JSON or chord word")
    p.add_argument("--y", help="second element for a pairwise crossing number")
    p.add_argument("--delta", help="triangulation for a crossing vector")
    p.set_defaults(func=cmd_skein_mu)

    # seed ------------------------------------------------------------------
    seed = verbs.add_parser("seed", help="quantum seed operations")
    sub = seed.add_subparsers(dest="subverb", required=True, metavar="op")

    def seed_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", help="seed JSON (inline or @file)")
        p.add_argument(
            "--preset",
            help="built-in seed: pentagon, annulus, or disc:N",
        )

    p = sub.add_parser("mutate", parents=[common], help="mutate at an exchangeable index")
    seed_source(p)
    p.add_argument("--at", type=int, required=True, help="exchangeable index")
    p.set_defaults(func=cmd_seed_mutate)

    p = sub.add_parser("check", parents=[common], help="check the compatibility pairing")
    seed_source(p)
    p.set_defaults(func=cmd_seed_check)

    p = sub.add_parser("freeze", parents=[common], help="demote exchangeable indices to frozen")
    seed_source(p)
    p.add_argument("--drop", required=True, help="comma-separated indices to freeze")
    p.set_defaults(func=cmd_seed_freeze)

    p = sub.add_parser("enumerate", parents=[common], help="breadth-first seed enumeration")
    seed_source(p)
    p.add_argument("--max-seeds", type=int, default=64)
    p.add_argument("--max-depth", type=int, default=16)
    p.set_defaults(func=cmd_seed_enumerate)

    p = sub.add_parser("member", parents=[common], help="test membership in every seed torus")
    seed_source(p)
    p.add_argument(
        "--element",
        required=True,
        help="torus element JSON, or a bare exponent vector for a monomial",
    )
    p.set_defaults(func=cmd_seed_member)

    # surface ---------------------------------------------------------------
    surface = verbs.add_parser("surface", help="triangulated surface operations")
    sub = surface.add_subparsers(dest="subverb", required=True, metavar="op")

    p = sub.add_parser("build", parents=[common], help="build a triangulated disc or annulus")
    p.add_argument("--kind", choices=["disc", "annulus"], required=True)
    p.add_argument("--points", type=int, help="marked points on the disc")
    p.add_argument("--p", type=int, default=1, help="marked points on the outer annulus boundary")
    p.add_argument("--q", type=int, default=1, help="marked points on the inner annulus boundary")
    p.set_defaults(func=cmd_surface_build)

    p = sub.add_parser("flip", parents=[common], help="flip an internal arc")
    p.add_argument("--surface", required=True, help="surface JSON (inline or @file)")
    p.add_argument("--arc", type=int, required=True)
    p.set_defaults(func=cmd_surface_flip)

    p = sub.add_parser("cut", parents=[common], help="cut along an internal arc")
    p.add_argument("--surface", required=True, help="surface JSON (inline or @file)")
    p.add_argument("--arc", type=int, required=True)
    p.set_defaults(func=cmd_surface_cut)

    p = sub.add_parser("matrices", parents=[common], help="orientation, adjacency and exchange matrices")
    p.add_argument("--surface", required=True, help="surface JSON (inline or @file)")
    p.set_defaults(func=cmd_surface_matrices)

    # annulus ---------------------------------------------------------------
    annulus = verbs.add_parser("annulus", help="annulus model checks")
    sub = annulus.add_subparsers(dest="subverb", required=True, metavar="op")

    p = sub.add_parser("verify", parents=[common], help="verify the annulus relation families")
    p.add_argument("--range", type=int, default=5, help="check indices |i| up to this bound")
    p.set_defaults(func=cmd_annulus_verify)

    # verify ----------------------------------------------------------------
    p = verbs.add_parser("verify", parents=[common], help="run acceptance suites")
    p.add_argument(
        "suites",
        nargs="*",
        metavar="suite",
        help="suite names, or 'all' (default): " + ", ".join(verify.names()),
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Output-mode and seed flags are accepted before or after the verb;
    # they use SUPPRESS defaults so a subcommand parse never overwrites a
    # value already given at the top level.
    args.mode = getattr(args, "mode", "text")
    args.seed = getattr(args, "seed", 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left; silence the flush at exit as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported, never passed off as bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
