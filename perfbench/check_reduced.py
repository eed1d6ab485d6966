"""Reduced-size test of the end-to-end benchmark (about a minute).

Runs every workload for a few jobs, traced and untraced, and checks that
the output checks pass and every metric ``BENCHMARK.json`` names is
reported.  The file name keeps it out of the default test collection;
run it explicitly::

    python3 -m pytest perfbench/check_reduced.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: what ``--workload all`` runs
WORKLOADS = ("cf-serial", "fp-serial", "cf-served")
LAYERS = ("ga", "execution", "fitness", "nn", "core", "serving")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    return result


def _assert_declared(result: dict, section: str) -> None:
    for workload in WORKLOADS:
        for entry in SPEC[section]:
            metric = result["metrics"][f"{workload}.{entry['name']}"]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], float)


def test_untraced_run_reports_every_end_to_end_metric() -> None:
    result = _result(_run("--workload", "all", "--seed", "3", "--seconds", "3", "--trace", "0"))
    _assert_declared(result, "end_to_end")
    for workload in WORKLOADS:
        for name in ("setup_s", "jobs_per_s", "candidates_per_s", "peak_rss_mb"):
            assert result["metrics"][f"{workload}.{name}"]["value"] > 0


def test_traced_run_reports_every_per_layer_metric() -> None:
    result = _result(_run("--workload", "all", "--seed", "3", "--seconds", "4", "--trace", "1"))
    _assert_declared(result, "per_layer")
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    # the FP path never executes traces or encodes trace tokens
    assert metrics["fp-serial.execution.traces_batch.calls"] == 0
    assert metrics["fp-serial.fitness.encode.calls"] == 0
    assert metrics["cf-serial.execution.traces_batch.calls"] > 0
    assert metrics["cf-serial.fitness.encode.calls"] > 0
    # only the served workload fans out and speaks the wire protocol
    assert metrics["cf-served.core.supervisor.run_s"] > 0
    assert metrics["cf-served.serving.frames.count"] > 0
    assert metrics["cf-serial.serving.frames.count"] == 0
    # a serial job's layers run on one thread: their shares and the
    # unattributed rest make up the job phase
    for workload in ("cf-serial", "fp-serial"):
        shares = sum(metrics[f"{workload}.ledger.{layer}.share"] for layer in LAYERS)
        assert shares <= 1.0
        assert shares + metrics[f"{workload}.ledger.unattributed.share"] == pytest.approx(1.0)
        assert metrics[f"{workload}.search.gen_ms_p50"] > 0


def test_failed_or_cancelled_job_fails_the_output_check() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    refused = workloads.JobRecord(0, task=None, submitted=0.0)
    failed = workloads.JobRecord(1, task=None, submitted=0.0, job_id="job-1", state="failed")
    cancelled = workloads.JobRecord(2, task=None, submitted=0.0, job_id="job-2", state="cancelled")
    assert workloads.check_jobs([refused]) == []
    problems = workloads.check_jobs([failed, cancelled])
    assert len(problems) == 2 and "failed" in problems[0] and "cancelled" in problems[1]


def test_refuses_to_run_without_the_system(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cf-serial", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
