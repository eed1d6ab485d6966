#!/usr/bin/env python3
"""End-to-end synthesis-job benchmark.

Runs seeded synthesis jobs through the public API and reports what a
user of the system pays per job::

    python3 perfbench/run.py --workload cf-serial --seed 1 --seconds 25 --trace 0

Workloads (``--workload``; ``all`` runs the three in turn):

``cf-serial``
    CF-fitness (``netsyn_cf``) jobs in one local session, one closed-loop
    caller.  The learned-trace-fitness path: trace execution, sample
    assembly, token encoding and the NN forward.
``fp-serial``
    FP-fitness (``netsyn_fp``) jobs, same loop and tasks.  Never executes
    traces, encodes trace tokens or runs a per-gene forward: breeding and
    solution checks dominate.
``cf-served``
    The CF task set served by an in-process ``SynthesisServer`` with a
    2-worker pool, driven over localhost by two closed-loop
    ``RemoteSynthesisSession`` clients: wire protocol, admission
    micro-batching, the supervised pool, cache merge-back, L3 appends.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing.  ``--trace 1`` measures the per-layer ledger instead: it runs
half the time untraced, replays the same jobs on a fresh system with the
layers' public functions wrapped (``tracing.py``), reports each layer's
calls, self time and share of the job phase plus the tracing overhead,
and writes the spans to ``.perfbench/traces/<workload>.json``.

Each run works in its own fresh directory under ``.perfbench/`` (removed
at exit), so no run warms another through persisted weights or the L3
cache log.  Output checks (terminal states, no failed or cancelled job,
solved programs re-checked by the reference interpreter, event-stream
shape, served results equal to a serial re-run of the same jobs, the
ledger's own invariants) make the command exit 1; the last line of
standard output is always one JSON object with the run's result.

The ``BENCH_*.json`` files at the repository root are layer
microbenchmarks on synthetic inputs and stay outside this benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import uuid
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

#: units of the report-only end-to-end figures (the rest come from BENCHMARK.json)
REPORT_UNITS = {
    "solved_frac": "ratio",
    "candidates_per_job": "candidates",
    "failed_frac": "ratio",
    "gen_ms_p50": "ms",
    "gen_ms_p99": "ms",
    "setup_rss_mb": "MiB",
}


def _import_system() -> Optional[str]:
    """Make ``src/`` of this checkout importable; the problem, if any."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        return f"no system to benchmark: {package} is missing"
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        return f"imported repro from {repro.__file__}, not from {package}"
    return None


class Outcome:
    """What one workload run produced."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[int, tuple] = {}


def _phase(outcome: Outcome, records: list) -> None:
    import workloads

    outcome.attempted = len(records)
    outcome.failed = sum(not r.completed for r in records)
    outcome.digests = {r.index: workloads.digest(r.result) for r in records if r.completed}
    outcome.problems += workloads.check_jobs(records)


def measure(name: str, seed: int, seconds: float, run_dir: Path) -> Outcome:
    """End-to-end metrics of one untraced run."""
    import workloads

    workload = workloads.WORKLOADS[name]
    outcome = Outcome(name)
    setups = workloads.setup_seconds(workload, run_dir, f"{name}-before")
    stack = workloads.set_up(workload, workloads.fresh_dir(run_dir, f"artifacts-{name}"))
    try:
        tasks = workloads.TaskStream(seed, workloads.pool_size(workload, seconds))
        phase = workloads.run_jobs(stack, workload, tasks)
        _phase(outcome, phase.records)
        if workload.served:
            stack.server.stop()
            # the cheapest jobs: a solved one checks found_by and the program
            done = [r for r in phase.records if r.completed]
            checked = sorted(done, key=lambda r: r.result.candidates_used)[
                : workloads.SERVED_REFERENCE_JOBS
            ]
            reference = workloads.reference_digests(stack, workload, tasks, checked)
            outcome.problems += workloads.check_digests(checked, reference)
    finally:
        stack.close()
    setups += workloads.setup_seconds(workload, run_dir, f"{name}-after")
    outcome.metrics, outcome.samples = workloads.end_to_end(phase, setups)
    return outcome


def measure_traced(name: str, seed: int, seconds: float, run_dir: Path) -> Outcome:
    """Per-layer ledger: an untraced half-run, then the same jobs traced."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    outcome = Outcome(name)
    size = workloads.pool_size(workload, seconds / 2)
    stack = workloads.set_up(workload, workloads.fresh_dir(run_dir, f"artifacts-{name}-untraced"))
    try:
        untraced = workloads.run_jobs(stack, workload, workloads.TaskStream(seed, size))
    finally:
        stack.close()
    baseline, _ = workloads.end_to_end(untraced, [0.0])

    tracer = tracing.Tracer()
    run_entries: Dict[str, float] = {}
    batch_sizes: List[int] = []

    def on_run(args: tuple, start: float, end: float) -> None:
        batch_sizes.append(len(args[1]))
        for job in args[1]:
            run_entries.setdefault(job.job_id, start)

    tracing.install(tracer, in_process=not workload.served, run_hook=on_run)
    server_events = workloads.EventRecorder()
    try:
        stack = workloads.set_up(workload, workloads.fresh_dir(run_dir, f"artifacts-{name}-traced"))
        train = tracer.summary((-math.inf, math.inf))["spans"].get("core.train", [0, 0.0, 0.0])
        tracer.clear_counts()  # the work counts cover the job phase only
        try:
            stack.session.add_listener(server_events)
            traced_phase = workloads.run_jobs(
                stack, workload, workloads.TaskStream(seed, size), on_job=tracer.set_job
            )
        finally:
            stack.close()
    finally:
        tracer.restore()
    records = traced_phase.records
    _phase(outcome, records)
    expected = {r.index: workloads.digest(r.result) for r in untraced.records if r.completed}
    if outcome.digests != expected:
        outcome.problems.append("traced results differ from the untraced run of the same jobs")

    ledger, checks = tracing.layer_ledger(tracer, traced_phase.window, train[2])
    # one thread's spans nest, so its layers' self times fit in the phase;
    # more than that means some span's time was counted twice
    if checks["attributed_s"] > checks["threads"] * checks["wall_s"]:
        outcome.problems.append(
            f"attributed self time {checks['attributed_s']:.3f}s exceeds "
            f"{checks['threads']} thread(s) x the job phase {checks['wall_s']:.3f}s"
        )
    if name == "fp-serial":
        for key in ("execution.traces_batch.calls", "fitness.encode.calls"):
            if ledger[key] != 0:
                outcome.problems.append(f"fp-serial recorded {ledger[key]:.0f} {key}")
    traced, _ = workloads.end_to_end(traced_phase, [0.0])
    lags = []
    for record in records:
        events = server_events.by_job.get(record.job_id, [])
        started = next((t for t, e in events if e.kind == "started"), None)
        if started is not None and record.job_id in run_entries:
            lags.append(started - run_entries[record.job_id])
    outcome.metrics = {
        **ledger,
        **workloads.caller_side(records, workload.served),
        "core.fanout.start_lag_s_p50": statistics.median(lags) if lags else 0.0,
        "serving.batch_jobs_mean": (
            statistics.mean(batch_sizes) if workload.served and batch_sizes else 0.0
        ),
        "search.jobs": float(len(records)),
        "search.solved_frac": traced["solved_frac"],
        "search.candidates_per_job": traced["candidates_per_job"],
        "search.failed_frac": traced["failed_frac"],
        "search.gen_ms_p50": baseline["gen_ms_p50"],
        "search.gen_ms_p99": baseline["gen_ms_p99"],
        "trace.overhead_frac": (
            1.0 - traced["candidates_per_s"] / baseline["candidates_per_s"]
            if baseline["candidates_per_s"] else 0.0
        ),
    }
    tracer.save(SCRATCH / "traces" / f"{name}.json")
    return outcome


def _declared(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def report(outcome: Outcome, units: Dict[str, str]) -> None:
    """One human-readable line per metric."""
    print(f"== {outcome.workload}: {outcome.attempted} jobs attempted, {outcome.failed} failed")
    for name, value in outcome.metrics.items():
        unit = units.get(name) or REPORT_UNITS.get(name, "")
        count = outcome.samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"   {name:<40} {value:>14.6g} {unit}{suffix}")
    for problem in outcome.problems:
        print(f"   CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=["cf-serial", "fp-serial", "cf-served", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    problem = _import_system()
    if problem is None and not (ROOT / "BENCHMARK.json").is_file():
        problem = "BENCHMARK.json is missing"
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    units = _declared("per_layer" if args.trace else "end_to_end")

    run_dir = SCRATCH / f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None
    names = ["cf-serial", "fp-serial", "cf-served"] if args.workload == "all" else [args.workload]
    run = measure_traced if args.trace else measure
    try:
        outcomes = [run(name, args.seed, args.seconds, run_dir) for name in names]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for outcome in outcomes:
        report(outcome, units)
    metrics = {}
    for outcome in outcomes:
        prefix = f"{outcome.workload}." if args.workload == "all" else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": float(outcome.metrics[name]), "unit": unit}
    correct = not any(outcome.problems for outcome in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
