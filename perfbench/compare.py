"""Compare two benchmark results, metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

The files are the ones run.py writes under perfbench/results/.  Results
from different kernel backends are refused: the compiled kernel changes
the times and the traced counts, because calls made inside compiled code
cannot be wrapped.  So are results of different workloads, sizes or trace
settings.  Exit code 0 after a comparison, 2 on a refusal.
"""

from __future__ import annotations

import json
import sys


def comparable(old: dict, new: dict) -> str | None:
    """The reason the two results cannot be compared, or None."""
    for key in ("workload", "size", "trace"):
        if old[key] != new[key]:
            return f"{key} differs: {old[key]} vs {new[key]}"
    if not old["provenance"] or not new["provenance"]:
        return "a result has no provenance (no sample finished)"
    backends = old["provenance"]["kernel_backend"], new["provenance"]["kernel_backend"]
    if backends[0] != backends[1]:
        return f"kernel backends differ: {backends[0]} vs {backends[1]}"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        old = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    reason = comparable(old, new)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    print(f"{old['workload']}: {old['provenance']['git_sha']} -> {new['provenance']['git_sha']}")
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            print(f"{name}: missing from the new result")
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name} {a:.6g} -> {b:.6g} {m['unit']} ({change})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
