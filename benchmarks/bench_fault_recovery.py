"""Supervisor overhead and fault-recovery latency.

The supervised worker pool (``repro/core/supervisor.py``) adds parent-side
bookkeeping — lifecycle messages, heartbeat tracking, deadline checks —
on top of the plain pool fan-out it replaced.  This benchmark measures
what that costs on the healthy path, and what recovery costs on the
faulted one:

* **overhead** — the same batch of jobs run through a bench-local bare
  ``multiprocessing.Pool.map`` reference (the supervisor's worker
  initializer, job function and event routing, but no supervision) and
  through ``SynthesisSession.run`` on a new session
  (both timed regions fork their workers and shut them down); the
  supervised path must stay within a few percent of the pool (the
  acceptance gate is <5% on quiet machines; shared CI runners only
  record the number).
* **recovery latency** — with a :class:`FaultPlan` crashing one
  worker mid-job, the wall-clock from the crash-revealing event to (a)
  the replacement worker spawning (``worker_restarted``) and (b) the
  retried job finishing, measured from listener-side timestamps.

Results are appended to ``BENCH_fault_recovery.json`` at the repository
root so the trajectory across PRs is preserved.

Scale knobs: ``NETSYN_BENCH_FAULT_JOBS`` (jobs per run, default 6),
``NETSYN_BENCH_FAULT_BUDGET`` (candidate budget per job, default 3000),
``NETSYN_BENCH_FAULT_ROUNDS`` (overhead sample pairs, default 3).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

from repro.config import NetSynConfig, ServiceConfig
from repro.core import ArtifactStore, JobState, SynthesisSession
from repro.core.supervisor import (
    WorkerSupervisor,
    _parallel_worker_init,
    _run_service_job,
    _worker_payload,
)
from repro.data import make_benchmark_suite
from repro.execution.faults import FaultPlan

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_fault_recovery.json"

JOBS = int(os.environ.get("NETSYN_BENCH_FAULT_JOBS", "6"))
BUDGET = int(os.environ.get("NETSYN_BENCH_FAULT_BUDGET", "3000"))
ROUNDS = int(os.environ.get("NETSYN_BENCH_FAULT_ROUNDS", "3"))
N_WORKERS = 2


def _config() -> NetSynConfig:
    # the edit-distance fitness needs no trained model: the benchmark
    # isolates pool mechanics, not scoring
    return NetSynConfig.small("edit", seed=11).replace(fp_guided_mutation=False)


def _session(config, **service_kwargs) -> SynthesisSession:
    service_kwargs.setdefault("persist_caches", False)
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(**service_kwargs),
    )


def _run_batch(config, tasks, **service_kwargs):
    """One parallel run; returns (elapsed_seconds, jobs, stamped_events).

    The timed region forks the session's pool and closes it again, as
    the bare reference's region starts and tears down its pool.
    """
    session = _session(config, **service_kwargs)
    stamped = []
    session.add_listener(lambda event: stamped.append((time.perf_counter(), event)))
    jobs = [session.submit(task, budget=BUDGET, seed=7) for task in tasks]
    start = time.perf_counter()
    session.run(n_workers=N_WORKERS)
    session.close()
    return time.perf_counter() - start, jobs, stamped


def _bare_pool_reference(config, tasks):
    """The unsupervised reference: the same job specs over a bare pool.

    Mirrors the session's fan-out step for step (cleared cancel flags,
    live event delivery, cache merge-back), except that the jobs go
    through ``Pool.map`` instead of the supervisor — so the timing
    difference is the supervision itself.  The ``WorkerSupervisor`` here
    only lends its specs, flag array and event routing; it forks no
    worker.  ``Pool`` gives every worker the same initializer arguments,
    so events cross one shared queue, drained by a bench-local thread
    until each job's ``finished`` event arrived.  Each worker builds its
    session from the pool's payload and runs every spec through it, as
    a supervised worker does; the outcomes carry each job's terminal
    state and result.  Returns (elapsed_seconds, jobs).
    """
    session = _session(config)
    jobs = [session.submit(task, budget=BUDGET, seed=7) for task in tasks]
    start = time.perf_counter()
    context = multiprocessing.get_context()
    channel = WorkerSupervisor(
        N_WORKERS, session.service_config, config.seed, _worker_payload(session), context=context
    )
    specs = [channel._dispatch(job).spec for job in jobs]
    channel._sink = session._deliver_events  # as a running loop routes events
    events = context.Queue()

    def drain():
        while not all(job.events and job.events[-1].kind == "finished" for job in jobs):
            channel._deliver(*events.get())

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    with context.Pool(
        processes=N_WORKERS,
        initializer=_parallel_worker_init,
        initargs=(config.seed, channel.payload, events, channel.cancel_flags),
    ) as pool:
        outcomes = pool.map(_run_service_job, specs)
    drainer.join()
    channel.close()
    for job, (state, result, error, delta) in zip(jobs, outcomes):
        job._remote_cancel = None
        if delta:
            session.backend(job.method, job.program_length).load_cache_snapshot(delta)
        assert state in (JobState.SOLVED, JobState.EXHAUSTED), error
        job.state, job.result = state, result
    return time.perf_counter() - start, jobs


def _signature(jobs):
    return [
        (job.state.value, job.result.found if job.result else None,
         job.result.candidates_used if job.result else None)
        for job in jobs
    ]


def _append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY_PATH.exists():
        try:
            history = json.loads(TRAJECTORY_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def test_supervisor_overhead_and_recovery_latency():
    config = _config()
    tasks = make_benchmark_suite(
        length=config.program_length, n_programs=JOBS, seed=29, dsl_config=config.dsl
    )

    # -- overhead: bare pool vs supervised, interleaved rounds ----------
    pool_times, supervised_times = [], []
    pool_sig = supervised_sig = None
    for _ in range(ROUNDS):
        elapsed, jobs = _bare_pool_reference(config, tasks)
        pool_times.append(elapsed)
        pool_sig = _signature(jobs)
        elapsed, jobs, _ = _run_batch(config, tasks)
        supervised_times.append(elapsed)
        supervised_sig = _signature(jobs)
    assert supervised_sig == pool_sig, "supervised results diverged from the pool's"
    pool_best = min(pool_times)
    supervised_best = min(supervised_times)
    overhead = supervised_best / pool_best - 1.0

    # -- recovery latency: one worker crash mid-claim -------------------
    plan = FaultPlan.single("worker_start", action="crash", match="job-1:0")
    elapsed, jobs, stamped = _run_batch(
        config, tasks, fault_plan=plan, retry_backoff=0.05
    )
    assert all(job.state in (JobState.SOLVED, JobState.EXHAUSTED) for job in jobs)
    assert _signature(jobs) == pool_sig, "faulted run diverged from the clean one"

    def first_stamp(kind):
        return next(stamp for stamp, event in stamped if event.kind == kind)

    run_start = stamped[0][0]
    restarted_at = first_stamp("worker_restarted")
    retried_at = first_stamp("job_retry")
    crashed_job_done = next(
        stamp for stamp, event in stamped
        if event.kind == "finished" and event.job_id == "job-1"
    )

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "jobs": JOBS,
        "budget": BUDGET,
        "rounds": ROUNDS,
        "n_workers": N_WORKERS,
        "pool_seconds_best": pool_best,
        "supervised_seconds_best": supervised_best,
        "supervisor_overhead_fraction": overhead,
        "faulted_run_seconds": elapsed,
        "worker_restart_latency_seconds": restarted_at - run_start,
        "job_retry_latency_seconds": retried_at - run_start,
        "crashed_job_completion_seconds": crashed_job_done - run_start,
    }
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # Gate only on quiet machines: shared CI runners are too noisy to
    # fail on a few percent of wall-clock, so the threshold is generous
    # there and the 5% contract is checked locally / recorded always.
    gate = 0.05 if os.environ.get("CI") is None else 0.50
    assert overhead < gate, (
        f"supervisor overhead {overhead:.1%} exceeds the {gate:.0%} gate "
        f"(pool {pool_best:.2f}s vs supervised {supervised_best:.2f}s)"
    )


if __name__ == "__main__":
    test_supervisor_overhead_and_recovery_latency()
