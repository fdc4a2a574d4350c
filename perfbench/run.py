"""Run one qskein benchmark workload and print its metrics.

    python3 perfbench/run.py --workload disc_seeds --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 60

A run is closed-loop: one sample at a time, each a fresh interpreter
(perfbench/worker.py) that imports qskein from ./src, builds the inputs
from the seed and does the workload's fixed work once.  Samples repeat
until the next one would end after ``--seconds``.  Every sample's outputs
are checked: each operation's exact identity, the digest of all outputs
against the reference recorded for the seed (perfbench/digests.json), and
the digests of the run's samples against each other.

With ``--trace 0`` the metrics are medians over the samples of wall_s (the
fixed work), setup_s (process start to inputs built) and peak_rss_mb.
With ``--trace 1`` samples alternate untraced and traced; the metrics are
the per-layer ones from the traced samples, plus trace_overhead.  The last
line printed is one JSON object: correct, attempted, failed, metrics.  The
exit code is 0 when every check passed, 1 when one failed and 2 when the
run could not start (no qskein source in the checkout).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

SAMPLE_TIMEOUT = 100  # seconds for one sample before it is killed and failed


def take_sample(workload: str, seed: int, size: str, traced: bool, spans: Path | None) -> dict:
    """Start one worker and time its set-up from process start to ``ready``."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--size", size]
    if traced:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(SAMPLE_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    lines = rest.splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"error": f"worker exited with code {proc.returncode}", "traced": traced}
    out = json.loads(lines[-1])
    out["setup_s"] = ready - start
    out["duration_s"] = time.perf_counter() - start
    out["traced"] = traced
    return out


def reference_digest(workload: str, seed: int, size: str) -> str | None:
    with open(HERE / "digests.json") as fh:
        table = json.load(fh)
    return table.get(size, {}).get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload}-seed{seed}.json"
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        first_traced = traced and not any(s["traced"] for s in samples)
        samples.append(take_sample(workload, seed, size, traced, spans if first_traced else None))
        elapsed = time.perf_counter() - start
        durations = [s["duration_s"] for s in samples if "duration_s" in s] or [elapsed]
        if len(samples) >= (2 if trace else 1) and elapsed + statistics.median(durations) > seconds:
            break
    return summarize(workload, seed, size, trace, samples)


def summarize(workload: str, seed: int, size: str, trace: bool, samples: list[dict]) -> dict:
    good = [s for s in samples if "error" not in s]
    problems = [s["error"] for s in samples if "error" in s]
    attempted = len(samples) - len(good)
    failed = attempted
    for s in good:
        attempted += s["attempted"]
        failed += len(s["failures"])
        # For a raising operation, the exception line ends its traceback.
        problems += [f"{f['name']}: {(f['error'] or 'identity false').strip().splitlines()[-1]}" for f in s["failures"]]

    # Every sample's outputs must hash alike, and like the recorded reference.
    expected = reference_digest(workload, seed, size)
    if expected is None and good:
        expected = good[0]["digest"]
    for s in good:
        attempted += 1
        if s["digest"] != expected:
            failed += 1
            problems.append(f"output digest {s['digest'][:16]} differs from {expected[:16]}")

    backends = {s["provenance"]["kernel_backend"] for s in good}
    if len(backends) > 1:
        failed += 1
        problems.append(f"samples ran on different kernel backends: {sorted(backends)}")

    metrics: dict[str, dict] = {}
    if good and not trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(s[name] for s in good), "unit": unit}
    traced = [s for s in good if s["traced"]]
    plain = [s for s in good if not s["traced"]]
    if trace and traced and plain:
        for name, unit in tracing.LAYER_METRICS:
            values = [s["layers"].get(name, 0) for s in traced]
            # Counts repeat exactly; times are medians over the traced samples.
            value = values[0] if unit == "count" else float(statistics.median(values))
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(s["wall_s"] for s in traced) / statistics.median(s["wall_s"] for s in plain)
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        repeat = {name for name, unit in tracing.LAYER_METRICS if unit == "count"}
        if any(s["layers"].get(name, 0) != traced[0]["layers"].get(name, 0) for s in traced for name in repeat):
            failed += 1
            problems.append("traced counts differ between samples")

    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "provenance": good[0]["provenance"] if good else None,
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": samples,
    }


def report(result: dict) -> None:
    """Human-readable lines; main prints the machine-readable JSON line last."""
    name = result["workload"]
    for problem in result["problems"][:20]:
        print(f"{name}: FAIL {problem}")
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name} fail_ratio {ratio:.6g} ({result['failed']}/{result['attempted']} operations failed)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full", help="tiny: a seconds-long version for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qskein" / "__init__.py").is_file():
        print(f"error: no qskein source at {ROOT / 'src' / 'qskein'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        with open(RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        report(result)
        results.append(result)

    print("provenance " + json.dumps(results[0]["provenance"]))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
