"""Regenerate the golden CLI transcript ``tests/golden/cli.json``.

Each entry holds an argv, the exit code of ``qskein.cli.main(argv)`` and
the sha256 of what that call wrote to stdout and to stderr.
``tests/test_golden.py`` replays every entry in-process, so a change to
any verb's output, exit code or error text fails the tier-1 tests.

The cases cover every verb that reads JSON, in text and ``--json``
mode, with its exit-1 and exit-2 paths.  ``verify`` appears only with an
unknown suite, because its reports carry timings, and the 33-seed
annulus enumeration is left out for its cost.  Payloads are built from
the library once, here, and stored in the transcript verbatim.

Re-record only when output changes on purpose, and name the entries
that changed, and why, in CHANGES.md:

    PYTHONPATH=src python tests/golden/record.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qskein import cli, disc
from qskein import surface as surf

TRANSCRIPT = Path(__file__).resolve().parent / "cli.json"
FAN5 = "[[1,2],[1,3],[1,4],[1,5],[2,3],[3,4],[4,5]]"


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def entry(argv: list[str]) -> dict:
    code, out, err = run(argv)
    return {"argv": argv, "exit": code, "stdout": digest(out), "stderr": digest(err)}


def cases() -> list[list[str]]:
    dumps = json.dumps
    seed4 = cli._disc_preset(4)
    ex = seed4.ex[0]
    mutated4 = seed4.mutate(ex)
    element5 = dumps(disc.reduce_word(5, [(1, 3), (2, 4)]).to_json())
    other_disc = '{"n": 5, "terms": [{"chords": [[2, 5]], "coeff": "1"}]}'
    no_chords = '{"n": 4, "terms": [{"chords": [], "weights": [1, 2], "coeff": "1"}]}'
    bad_check = '{"ex": [0], "B": [[0], [-1]], "lambda": [[0, 1], [-1, 0]], "frame": {%s}}' % ", ".join(
        f'"{k}": {{"rank": 2, "lambda": [[0, 1], [-1, 0]], "terms": [{{"exp": {e}, "coeff": "1"}}]}}'
        for k, e in enumerate(([1, 0], [0, 1]))
    )
    half_b = cli._disc_preset(5).to_json()
    half_b["B"][0][0] = 1.5
    disc4 = surf.build_disc(4).to_json()
    disc4["arcs"][0]["boundary"] = False
    return [
        # skein
        ["skein", "reduce", "--n", "4", "--word", "[[1,3],[2,4]]"],
        ["--json", "skein", "reduce", "--n", "6", "--word", "[[1,4],[2,5],[3,6]]"],
        ["--json", "skein", "reduce", "--n", "6", "--word", "[[1,4],[2,5],[3,6]]", "--randomize", "--seed", "3"],
        ["skein", "reduce", "--n", "4", "--word", "[[1,9]]"],
        ["skein", "reduce", "--n", "4", "--word", "[[1,3],[2,"],
        ["skein", "reduce", "--n", "4", "--word", "@tests/golden/no-such-file.json"],
        ["skein", "reduce", "--n", "6", "--word", "[[1.7,3]]"],
        ["skein", "reduce", "--n", "6", "--word", "[[true,3]]"],
        ["skein", "reduce", "--n", "6", "--word", "[[1,3,5]]"],
        ["--json", "skein", "product", "--n", "4", "--word", "[[1,3],[2,4]]"],
        ["skein", "product", "--n", "5", "--x", element5, "--y", "[[2,5]]"],
        ["skein", "product", "--n", "4", "--x", "[[1,3]]"],
        ["--json", "skein", "expand", "--n", "5", "--x", "[[2,4]]", "--delta", FAN5],
        ["skein", "expand", "--n", "5", "--x", element5, "--delta", FAN5],
        ["skein", "expand", "--n", "4", "--x", "[[1,3]]", "--delta", "[[1,3],[2,4]]"],
        ["skein", "mu", "--n", "5", "--x", "[[2,4]]", "--y", "[[1,3]]"],
        ["--json", "skein", "mu", "--n", "5", "--x", element5, "--delta", FAN5],
        ["skein", "mu", "--n", "4", "--x", '{"n": 4, "terms": [1]}', "--y", "[[1,3]]"],
        ["skein", "mu", "--n", "4", "--x", no_chords, "--y", "[[1,3]]"],
        ["skein", "mu", "--n", "4", "--x", other_disc, "--y", "[[1,3]]"],
        ["skein", "mu", "--n", "4", "--x", "5", "--y", "[[1,3]]"],
        # seed
        ["--json", "seed", "mutate", "--preset", "pentagon", "--at", "1"],
        ["seed", "mutate", "--state", dumps(mutated4.to_json()), "--at", str(ex)],
        ["seed", "mutate", "--preset", "pentagon", "--at", "0"],
        ["--json", "seed", "check", "--preset", "annulus"],
        ["seed", "check", "--state", bad_check],
        ["--json", "seed", "check", "--state", bad_check],
        ["seed", "check", "--state", '{"lambda": [], "frame": {}, "B": [], "ex": []}'],
        ["seed", "check", "--state", dumps(half_b)],
        ["seed", "check", "--preset", "torus"],
        ["--json", "seed", "freeze", "--preset", "annulus", "--drop", "2"],
        ["seed", "freeze", "--preset", "pentagon", "--drop", "0"],
        ["seed", "enumerate", "--preset", "pentagon"],
        ["--json", "seed", "enumerate", "--state", dumps(seed4.to_json())],
        ["seed", "member", "--preset", "annulus", "--element", "[0,0,-1,0]"],
        ["--json", "seed", "member", "--state", dumps(seed4.to_json()), "--element",
         dumps(mutated4.frame[ex].to_json())],
        ["seed", "member", "--preset", "pentagon", "--element", "[1,0,0,0,0,0,true]"],
        ["seed", "member", "--preset", "pentagon", "--element", "[0,1]"],
        # surface
        ["surface", "build", "--kind", "disc", "--points", "5"],
        ["--json", "surface", "build", "--kind", "annulus", "--p", "2", "--q", "1"],
        ["--json", "surface", "flip", "--surface", dumps(surf.build_disc(5).to_json()), "--arc", "2"],
        ["surface", "cut", "--surface", dumps(surf.build_disc(5).to_json()), "--arc", "2"],
        ["--json", "surface", "matrices", "--surface", dumps(surf.build_annulus(1, 1).to_json())],
        ["surface", "flip", "--surface", dumps(surf.build_disc(4).to_json()), "--arc", "0"],
        ["surface", "flip", "--surface", dumps(disc4), "--arc", "2"],
        # annulus and verify
        ["annulus", "verify", "--range", "2"],
        ["--json", "annulus", "verify", "--range", "1"],
        ["verify", "nonsense"],
    ]


def main() -> int:
    entries = [entry(argv) for argv in cases()]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {TRANSCRIPT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
