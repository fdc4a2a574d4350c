"""One benchmark sample: a fresh interpreter that sets up and runs one workload once.

run.py starts this script once per sample.  It prints ``ready`` when the
package is imported and the inputs are built, so the parent can time
set-up from process start, then prints one JSON line with the sample:

    python3 perfbench/worker.py --workload disc_seeds --seed 3 [--size tiny] [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def import_qskein():
    """Import qskein from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE / "qskein" / "__init__.py").is_file():
        raise SystemExit(f"no qskein source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import qskein

    if Path(qskein.__file__).resolve().parent != SOURCE / "qskein":
        raise SystemExit(f"imported qskein from {qskein.__file__}, not from {SOURCE}")
    return qskein


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it was started.

    ``getrusage`` is the fallback only: its ``ru_maxrss`` also counts the
    memory the parent had when it forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(qskein) -> dict:
    return {
        "python": platform.python_version(),
        "kernel_backend": qskein.KERNEL_BACKEND,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


def sample(workload: str, seed: int, size: str, trace: bool, spans_path: str | None = None) -> dict:
    """Set up and run one workload once in this process; return the sample."""
    qskein = import_qskein()
    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(seed, size)
    print("ready", flush=True)

    tracer = tracing.Tracer() if trace else None
    if tracer is None:
        start = time.perf_counter()
        ops = run(inputs)
        wall = time.perf_counter() - start
    else:
        with tracer.install():
            start = time.perf_counter()
            ops = run(inputs)
            wall = time.perf_counter() - start

    out = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(ops),
        "failures": [{"name": op.name, "error": op.error} for op in ops if not op.ok],
        "digest": workloads.digest(ops),
        "provenance": provenance(qskein),
    }
    if tracer is not None:
        layers = tracer.metrics()
        for op in ops:
            if op.seconds is not None:
                layers[f"verify.{op.name}.s"] = op.seconds
        out["layers"] = layers
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump(tracer.spans, fh, separators=(",", ":"))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this file")
    args = parser.parse_args(argv)
    result = sample(args.workload, args.seed, args.size, args.trace, args.spans)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
