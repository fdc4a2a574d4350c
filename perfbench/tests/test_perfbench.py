"""Tests of the benchmark itself, on the tiny size of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 1


@pytest.fixture(scope="module")
def samples():
    """One untraced and two traced tiny samples of every workload."""
    return {
        name: [run.take_sample(name, SEED, "tiny", traced, None) for traced in (False, True, True)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_digests_match_reference(samples, name):
    expected = run.reference_digest(name, SEED, "tiny")
    assert expected is not None
    for sample in samples[name]:
        assert "error" not in sample
        assert sample["digest"] == expected


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_no_operation_fails(samples, name):
    result = run.summarize(name, SEED, "tiny", True, samples[name])
    assert result["failed"] == 0, result["problems"]
    assert result["correct"]
    assert result["attempted"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(samples, name):
    first, second = (s["layers"] for s in samples[name] if s["traced"])
    counts = [metric for metric, unit in tracing.LAYER_METRICS if unit == "count"]
    assert {m: first.get(m) for m in counts} == {m: second.get(m) for m in counts}
    assert any(first.get(m) for m in counts)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_self_times_fit_in_traced_wall(samples, name):
    for sample in samples[name]:
        if sample["traced"]:
            self_times = [v for m, v in sample["layers"].items() if m.endswith(".self_s")]
            assert all(t >= 0 for t in self_times)
            assert sum(self_times) <= sample["wall_s"]


def test_digest_mismatch_fails_the_run(samples):
    sample = dict(samples["disc_seeds"][0], digest="0" * 64)
    result = run.summarize("disc_seeds", SEED, "tiny", False, [sample])
    assert result["failed"] == 1
    assert not result["correct"]


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    worker.import_qskein()
    from qskein import verify

    assert tuple(verify.names()) == tracing.VERIFY_CHECKS


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disc_seeds", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_same_seed_same_inputs():
    assert workloads.setup_skein_rewrite(7, "full") == workloads.setup_skein_rewrite(7, "full")
    assert workloads.setup_skein_rewrite(7, "full") != workloads.setup_skein_rewrite(8, "full")


def test_a_raising_check_fails_alone(monkeypatch):
    worker.import_qskein()
    from qskein import verify

    def broken(rng):
        raise RuntimeError("boom")

    checks = [(name, budget, broken if name == "plucker" else fn) for name, budget, fn in verify.CHECKS]
    monkeypatch.setattr(verify, "CHECKS", checks)
    ops = workloads.run_verify_all(workloads.setup_verify_all(SEED, "tiny"))
    failed = [op.name for op in ops if not op.ok]
    assert failed == ["plucker"]
    assert "boom" in ops[0].error
    assert len(ops) == len(workloads.setup_verify_all(SEED, "tiny")["checks"])


def test_raising_annulus_identities_fail_alone(monkeypatch):
    worker.import_qskein()
    from qskein import AnnulusModel

    def broken(self, x):
        raise ValueError("element is not homogeneous")

    monkeypatch.setattr(AnnulusModel, "grading", broken)
    ops = workloads.run_annulus_tower(workloads.setup_annulus_tower(SEED, "tiny"))
    assert [op.name for op in ops if not op.ok] == ["verify_identities"]
    assert any(op.name.startswith("upper_membership") for op in ops)


def test_compare_refuses_different_backends(tmp_path, capsys):
    base = {"workload": "disc_seeds", "size": "full", "trace": False, "metrics": {}}
    old = dict(base, provenance={"kernel_backend": "python", "git_sha": "a"})
    new = dict(base, provenance={"kernel_backend": "c", "git_sha": "b"})
    paths = []
    for label, result in (("old", old), ("new", new)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(result))
        paths.append(str(path))
    assert compare.main(paths) == 2
    assert "kernel backends differ" in capsys.readouterr().err
    assert compare.comparable(old, dict(new, provenance=old["provenance"])) is None
