#!/usr/bin/env python
"""Parallel session quickstart: streaming, cancellation, cache merge-back.

This is the multi-worker counterpart of ``examples/quickstart.py`` (and
the driver behind the CI parallel smoke job).  It demonstrates the
serving-path guarantees of the session layer:

1. **Live cross-process streaming** — jobs fanned out over 2 worker
   processes stream their per-generation events back to the parent
   over each worker's own channel; the session listener prints them as
   they happen and the full log is saved as JSON (uploaded as a CI
   artifact).
2. **Worker cancellation** — a deliberately unsolvable job is cancelled
   from the parent while it runs inside a worker; the shared flag stops
   the worker within a generation and the job ends ``CANCELLED`` with no
   ``finished`` event.
3. **A repeat served by the same pool, from merged worker deltas** — the
   session's workers outlive ``run()``, so the repeat runs on the very
   processes of the first run; every job ships the cache entries it
   computed (predicted scores included) back to the parent, which hands
   a repeated task's entries to whichever worker runs it next:
   re-running the same requests finishes with ``cache_misses == 0`` on
   each job's last generation event.
4. **The L3 cache log + warm restart** — each ``run()`` appends one
   frame to ``cache_log/cache.log`` (no whole-file rewrite); a re-opened
   session loads the log (keyed by model hash), and its first run — on
   a fresh 2-worker pool, which gets the persisted entries in its warm
   payload — repeats the requests bit-identically from cache, again
   without a cache miss.

Run with ``python examples/parallel_quickstart.py``; takes well under a
minute.  ``NETSYN_ARTIFACT_DIR`` and ``NETSYN_EVENT_LOG`` override the
artifact directory and the event-log path.

**Chaos mode** (the CI ``chaos-smoke`` job): set ``NETSYN_FAULTS`` to a
``FaultPlan.parse`` spec — e.g.
``"worker_start:crash:job-1#0;l3_append:truncate::1"`` for one worker
crash plus one torn L3 log frame — and the same script must still complete
every phase: the crashed job is retried and solves, the warm restart
skips the torn frame, and the saved event log records the recovery
(``worker_restarted``, ``job_retry``, ``cache_segment_skipped``).  See
``docs/robustness.md``.
"""

import multiprocessing
import os
import time
from pathlib import Path

from repro import NetSynConfig, ServiceConfig, SynthesisService
from repro.core.artifacts import CACHE_LOG_DIR, CACHE_LOG_FILE
from repro.core.service import JobState
from repro.data import make_synthesis_task
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOExample
from repro.events import EventLog
from repro.execution.faults import FaultPlan

#: parent-side bookkeeping kinds interleaved into job streams by the
#: supervisor; the stream-shape assertions below reason about the
#: worker-emitted progress stream only
SUPERVISION_KINDS = {
    "worker_restarted", "job_retry", "job_quarantined",
    "deadline_exceeded", "degraded_serial", "cache_segment_skipped",
}


def impossible_task(template) -> SynthesisTask:
    """Contradictory IO examples: unsolvable, so only cancel() ends it early."""
    return SynthesisTask(
        target=template.target,
        io_set=[
            IOExample(inputs=([1, 2, 3],), output=[1]),
            IOExample(inputs=([1, 2, 3],), output=[2]),
        ],
        length=template.length,
        is_singleton=False,
        task_id="impossible",
    )


def last_generation(job):
    """The job's final ``generation`` progress event."""
    return [event for event in job.events if event.kind == "generation"][-1]


def main() -> None:
    config = NetSynConfig.small(fitness_kind="cf", seed=3)
    artifact_dir = os.environ.get("NETSYN_ARTIFACT_DIR", ".netsyn-artifacts-parallel")
    event_log_path = os.environ.get("NETSYN_EVENT_LOG", "parallel_event_log.json")
    fault_spec = os.environ.get("NETSYN_FAULTS", "")
    fault_plan = FaultPlan.parse(fault_spec) if fault_spec else None
    if fault_plan is not None:
        print(f"CHAOS MODE: injecting {fault_spec!r}")
    service = SynthesisService(
        config,
        service_config=ServiceConfig(
            artifact_dir=artifact_dir,
            progress_every=500,
            fault_plan=fault_plan,
        ),
    )

    print("Phase 1: training (or warm-starting) the CF fitness model ...")
    start = time.time()
    session = service.open_session(methods=("netsyn_cf",))
    print(f"  session ready in {time.time() - start:.1f}s (artifacts: {session.store.names()})")

    tasks = [make_synthesis_task(length=4, seed=s, dsl_config=config.dsl) for s in (101, 103, 107)]
    log = EventLog()
    session.add_listener(log)

    jobs = [session.submit(task, budget=3_000, seed=3) for task in tasks]
    doomed = session.submit(impossible_task(tasks[0]), budget=100_000, seed=5)

    def narrate(event) -> None:
        if event.kind == "generation" and event.generation % 20 == 0:
            print(f"  [{event.job_id} gen {event.generation:3d}] best={event.best_fitness:.3f} "
                  f"cache_hit_rate={event.cache_hit_rate:.0%}")
        if event.job_id == doomed.job_id and event.kind == "generation" and event.generation >= 3:
            if doomed.cancel():
                print(f"  [{doomed.job_id}] cancellation requested from the parent")

    session.add_listener(narrate)

    print("\nPhase 2: 2-worker parallel run with live event streaming ...")
    start = time.time()
    session.run(n_workers=2)
    print(f"  run finished in {time.time() - start:.1f}s")
    first_pids = {process.pid for process in multiprocessing.active_children()}
    for job in jobs + [doomed]:
        print(f"  {job.job_id}: {job.state.value} ({len(job.events)} events streamed)")

    # -- the contract the CI job gates on --------------------------------
    assert all(job.state in (JobState.SOLVED, JobState.EXHAUSTED) for job in jobs)
    assert doomed.state is JobState.CANCELLED
    doomed_kinds = [event.kind for event in doomed.events]
    assert "generation" in doomed_kinds and "finished" not in doomed_kinds
    for job in jobs:
        kinds = [e.kind for e in job.events if e.kind not in SUPERVISION_KINDS]
        assert kinds[0] == "started" and kinds[-1] == "finished"
    if fault_plan is not None and any(f.site == "worker_start" for f in fault_plan.faults):
        # the injected crash was recovered: a replacement worker spawned
        # and the lost job retried — and it still solved (asserted above)
        assert log.of_kind("worker_restarted"), "chaos: no worker_restarted event"
        assert log.of_kind("job_retry"), "chaos: no job_retry event"
        print("  chaos: worker crash recovered "
              f"({len(log.of_kind('worker_restarted'))} restart(s), "
              f"{len(log.of_kind('job_retry'))} retry(s))")

    print("\nRepeat: re-running the same requests from the merged worker deltas ...")
    start = time.time()
    repeats = [session.submit(task, budget=3_000, seed=3) for task in tasks]
    session.run(n_workers=2)
    elapsed = time.time() - start
    for first, again in zip(jobs, repeats):
        assert again.result.found == first.result.found
        assert again.result.candidates_used == first.result.candidates_used
    if fault_plan is None:
        # the pool outlived run 1: the repeat ran on the same workers
        repeat_pids = {process.pid for process in multiprocessing.active_children()}
        assert first_pids and repeat_pids == first_pids, (
            f"the repeat ran on workers {sorted(repeat_pids)}, not {sorted(first_pids)}"
        )
        # run 1's workers shipped every entry they computed home, and each
        # repeated job carries its own task's entries to whichever worker
        # runs it
        for job in repeats:
            assert last_generation(job).cache_misses == 0, f"{job.job_id} missed the cache"
    print(f"  repeated 3 jobs in {elapsed:.1f}s on the same pool, served from merged worker deltas")

    # -- the L3 cache log: appended frames, no whole-file rewrite --------
    log_path = Path(artifact_dir) / CACHE_LOG_DIR / CACHE_LOG_FILE
    persisted = session.store.load_caches(artifact_dir)
    entries = sum(len(rows) for parts in persisted.values() for rows in parts.values())
    assert entries, "each run() should append its new entries to the cache log"
    print(f"  L3 cache log: {entries} entries under {len(persisted)} key(s), "
          f"{log_path.stat().st_size} bytes ({log_path})")

    print("\nWarm restart: re-opening the session from persisted artifacts + cache log ...")
    start = time.time()
    warm = service.open_session(methods=("netsyn_cf",))
    warm.add_listener(log)  # warm startup events (e.g. skipped log frames) too
    warm_jobs = [warm.submit(task, budget=3_000, seed=3) for task in tasks]
    warm.run(n_workers=2)
    elapsed = time.time() - start
    for reference, repeat in zip(jobs, warm_jobs):
        assert repeat.result.found == reference.result.found
        assert repeat.result.candidates_used == reference.result.candidates_used
        if fault_plan is None:
            assert last_generation(repeat).cache_misses == 0, (
                f"the warm restart of {repeat.job_id} missed the cache"
            )
    backend = warm.backend("netsyn_cf")
    assert backend.cache_version() > 0, "persisted caches were not loaded"
    print(f"  repeated {len(warm_jobs)} jobs on a fresh 2-worker pool in {elapsed:.1f}s, "
          "bit-identical to the cold run, served from the persisted cache log")

    if fault_plan is not None and any(f.site == "l3_append" for f in fault_plan.faults):
        # the torn frame was skipped on the warm load — and surfaced as
        # an event — while the repeat above still matched bit-for-bit
        skipped = log.of_kind("cache_segment_skipped")
        assert skipped, "chaos: the torn L3 log frame was not reported"
        print(f"  chaos: torn cache-log frame skipped ({skipped[0].reason})")

    session.close()
    warm.close()
    assert not multiprocessing.active_children(), "close() left worker processes alive"
    log.save(event_log_path)
    print(f"  event log ({len(log)} events) written to {event_log_path}")
    if fault_plan is not None:
        print("\nOK (chaos): every fault recovered; results unchanged.")
    else:
        print("\nOK: streaming, cancellation, worker merge-back and the L3 log all verified.")


if __name__ == "__main__":
    main()
