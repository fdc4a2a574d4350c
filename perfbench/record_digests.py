"""Record the reference output digests for the seeds the benchmark ships with.

    python3 perfbench/record_digests.py

Rerun it only when qskein's outputs change on purpose.  A change that
claims a speed-up must leave perfbench/digests.json as it is: the digests
are how the benchmark proves the new code computes bit-identical outputs.
"""

from __future__ import annotations

import json
import sys

from run import HERE, take_sample
from workloads import WORKLOADS

SEEDS = {"full": range(16), "tiny": range(4)}


def main() -> int:
    table: dict[str, dict[str, dict[str, str]]] = {}
    for size, seeds in SEEDS.items():
        for workload in WORKLOADS:
            for seed in seeds:
                sample = take_sample(workload, seed, size, traced=False, spans=None)
                if "error" in sample or sample["failures"]:
                    print(f"{size} {workload} seed {seed}: {sample.get('error') or sample['failures']}", file=sys.stderr)
                    return 1
                table.setdefault(size, {}).setdefault(workload, {})[str(seed)] = sample["digest"]
                print(size, workload, seed, sample["digest"][:16], flush=True)
    with open(HERE / "digests.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
