"""Replay the golden CLI transcript: every recorded call gives the same
exit code, stdout and stderr.  ``tests/golden/record.py`` regenerates it."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

ENTRIES = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def test_transcript_covers_every_json_reading_verb():
    verbs = {tuple(a for a in e["argv"] if not a.startswith("--"))[:2] for e in ENTRIES}
    for verb in [("skein", v) for v in ("reduce", "product", "expand", "mu")] + [
        ("seed", v) for v in ("mutate", "check", "freeze", "enumerate", "member")
    ] + [("surface", v) for v in ("flip", "cut", "matrices")]:
        assert verb in verbs


@pytest.mark.parametrize("k", range(len(ENTRIES)))
def test_replay(k, monkeypatch):
    # The transcript names files relative to the repository root.
    monkeypatch.chdir(GOLDEN.parent.parent)
    want = ENTRIES[k]
    assert record.entry(want["argv"]) == want
