#!/usr/bin/env python
"""Durable serving quickstart: kill -9 a synthesis server mid-job and lose nothing.

This is the chaos counterpart of ``examples/remote_quickstart.py`` (and
the driver behind the serving half of the CI ``chaos-smoke`` job).  It
runs a real ``python -m repro.serving`` *process* with a job journal,
SIGKILLs it while a job is mid-run, restarts it on the same journal, and
demonstrates the durability guarantees end to end:

1. **Crash-safe recovery** — the restarted server replays its journal
   and re-admits the unfinished jobs under their original ids; settled
   jobs answer from their journaled results without re-running.
2. **Self-healing clients** — the client reconnects with seeded backoff
   and resumes its event streams at ``since=len(job.events)``; the
   resulting streams are **identical** to an uninterrupted run's (the
   script runs one in-process first and compares), with a synthetic
   ``server_recovered`` event delivered to listeners but never entered
   into ``job.events``.
3. **Idempotent resubmission** — resubmitting a settled idempotency key
   after the restart returns the original job, marked ``duplicate``,
   answered from the journal.

Run with ``python examples/serving_recovery_quickstart.py``; takes well
under a minute.  ``NETSYN_EVENT_LOG`` overrides the event-log path and
``NETSYN_JOURNAL_DIR`` the journal directory.  See ``docs/serving.md``
(durability) and ``docs/robustness.md`` (the serving failure matrix).
"""

import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.config import NetSynConfig, ServiceConfig, ServingConfig
from repro.core.artifacts import ArtifactStore
from repro.core.service import SynthesisSession
from repro.data.tasks import SynthesisTask, make_synthesis_task
from repro.dsl.equivalence import IOExample
from repro.events import EventLog, ProgressEvent
from repro.serving import RemoteSynthesisSession, SynthesisServer

EDIT_CONFIG = NetSynConfig.small().replace(
    fitness_kind="edit", fp_guided_mutation=False, seed=3
)


def edit_session() -> SynthesisSession:
    return SynthesisSession(
        EDIT_CONFIG,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(persist_caches=False),
    )


def impossible_task() -> SynthesisTask:
    """Contradictory examples: runs its whole budget, so the kill
    provably lands while the job is mid-run."""
    target = make_synthesis_task(length=3, seed=1).target
    return SynthesisTask(
        target=target,
        io_set=[
            IOExample(inputs=([1, 2, 3],), output=[1]),
            IOExample(inputs=([1, 2, 3],), output=[2]),
        ],
        length=3,
        is_singleton=False,
        task_id="impossible",
    )


def robust_stream(events) -> list:
    """A stream's replay-invariant shape: identity and search trajectory,
    without cache counters (tier warmth may differ across a restart)."""
    return [
        (e.kind, e.task_id, e.generation, e.best_fitness, e.candidates_used, e.found)
        for e in events
    ]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(port: int, journal_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving",
            "--port", str(port), "--journal-dir", str(journal_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("SERVING"):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc


def main() -> None:
    event_log_path = os.environ.get("NETSYN_EVENT_LOG", "recovery_event_log.json")
    journal_dir = Path(
        os.environ.get("NETSYN_JOURNAL_DIR")
        or tempfile.mkdtemp(prefix="netsyn-recovery-journal-")
    )
    tasks = [impossible_task(), make_synthesis_task(length=3, seed=5)]

    print("Phase 1: reference — the same jobs against an uninterrupted server ...")
    start = time.time()
    with SynthesisServer(edit_session(), ServingConfig()) as clean:
        with RemoteSynthesisSession(clean.address) as client:
            reference = [client.submit(t, budget=20_000, seed=1) for t in tasks]
            client.run(reference)
    print(f"  {len(reference)} jobs, "
          f"{sum(len(j.events) for j in reference)} events in {time.time() - start:.1f}s")

    print(f"\nPhase 2: a journaled server process (journal: {journal_dir}) ...")
    port = free_port()
    proc = spawn_server(port, journal_dir)
    print(f"  serving on 127.0.0.1:{port} (pid {proc.pid})")

    log = EventLog()
    restarted: list = []
    killed = threading.Event()

    def kill_then_restart(event: ProgressEvent) -> None:
        log(event)
        if event.generation >= 2 and not killed.is_set():
            killed.set()
            print(f"  >> SIGKILL pid {proc.pid} at generation {event.generation}, "
                  f"restarting on the same journal ...")
            proc.kill()
            proc.wait(timeout=30)
            restarted.append(spawn_server(port, journal_dir))
            print(f"  >> restarted as pid {restarted[-1].pid}")

    client = RemoteSynthesisSession(
        f"127.0.0.1:{port}",
        reconnect_attempts=20, backoff_base=0.2, backoff_cap=1.0,
    )
    try:
        start = time.time()
        jobs = [client.submit(t, budget=20_000, seed=1, idempotency_key=f"demo-{i}")
                for i, t in enumerate(tasks)]
        client.add_listener(kill_then_restart)
        client.run(jobs)
        elapsed = time.time() - start

        assert killed.is_set(), "the server was never killed mid-run"
        assert client.reconnects >= 1, "the client never had to reconnect"
        for job, ref in zip(jobs, reference):
            assert job.done and job.state is ref.state
            assert robust_stream(job.events) == robust_stream(ref.events), (
                f"{job.job_id}: resumed stream differs from the uninterrupted run"
            )
            assert all(e.kind != "server_recovered" for e in job.events)
        markers = [e for e in log.events if e.kind == "server_recovered"]
        assert markers, "no server_recovered marker reached the listeners"
        print(f"  {len(jobs)} jobs survived the kill in {elapsed:.1f}s "
              f"({client.reconnects} reconnects); streams identical to phase 1")
        # saved before phase 3: the duplicate's journal replay below also
        # reaches the listener, and the gated log should hold each stream once
        log.save(event_log_path)
        print(f"  event log ({len(log)} events, {len(markers)} server_recovered "
              f"markers) written to {event_log_path}")

        print("\nPhase 3: resubmitting a settled idempotency key ...")
        settled = client.health()["settled_jobs"]
        dup = client.submit(tasks[0], budget=20_000, seed=1, idempotency_key="demo-0")
        assert dup.duplicate and dup.job_id == jobs[0].job_id
        client.run_job(dup)
        assert dup.state is jobs[0].state
        assert client.health()["settled_jobs"] == settled, "the dup re-ran a job"
        print(f"  {dup.job_id} answered from the journal (duplicate, no re-run)")
    finally:
        client.close()
        for p in [proc] + restarted:
            if p.poll() is None:
                p.kill()
                p.wait(timeout=30)
        if "NETSYN_JOURNAL_DIR" not in os.environ:
            shutil.rmtree(journal_dir, ignore_errors=True)

    print("\nOK: SIGKILL recovery, gap-free resume and idempotent resubmission verified.")


if __name__ == "__main__":
    main()
