#!/usr/bin/env python
"""Remote serving quickstart: the network synthesis service end to end.

This is the network counterpart of ``examples/parallel_quickstart.py``
(and the driver behind the CI ``serving-smoke`` job).  One process plays
both roles — a :class:`~repro.serving.SynthesisServer` wrapping a warm
session, and the clients talking to it over real localhost sockets — to
demonstrate the serving-layer guarantees:

1. **Concurrent remote clients** — two clients connect at once, each
   submitting its own task and streaming its own ordered per-job event
   feed (``started`` … ``generation`` … ``finished``) over the wire
   while the server runs each job on its own worker of a 2-worker pool
   the moment it is admitted.
2. **Stream parity** — the remotely streamed events are the *same
   events* a local session emits: the saved log is byte-compatible with
   ``EventLog`` JSON from any other example.

Run with ``python examples/remote_quickstart.py``; takes well under a
minute.  ``NETSYN_ARTIFACT_DIR`` and ``NETSYN_EVENT_LOG`` override the
artifact directory and the event-log path.  See ``docs/serving.md`` for
the protocol and topology.
"""

import os
import threading
import time

from repro import NetSynConfig, ServiceConfig, SynthesisService
from repro.config import ServingConfig
from repro.core.service import JobState
from repro.data import make_synthesis_task
from repro.events import EventLog
from repro.serving import RemoteSynthesisSession, SynthesisServer


def main() -> None:
    config = NetSynConfig.small(fitness_kind="cf", seed=3)
    artifact_dir = os.environ.get("NETSYN_ARTIFACT_DIR", ".netsyn-artifacts-serving")
    event_log_path = os.environ.get("NETSYN_EVENT_LOG", "serving_event_log.json")
    service = SynthesisService(
        config,
        service_config=ServiceConfig(artifact_dir=artifact_dir, progress_every=500),
    )

    print("Phase 1: training (or warm-starting) the CF fitness model ...")
    start = time.time()
    session = service.open_session(methods=("netsyn_cf",))
    print(f"  session ready in {time.time() - start:.1f}s (artifacts: {session.store.names()})")

    tasks = [
        make_synthesis_task(length=4, seed=seed, dsl_config=config.dsl)
        for seed in (101, 103)
    ]
    log = EventLog()

    with SynthesisServer(session, ServingConfig(n_workers=2)) as server:
        print(f"\nPhase 2: serving on {server.address}; driving 2 concurrent clients ...")
        start = time.time()
        finished: dict = {}
        errors: list = []

        def drive(index: int) -> None:
            try:
                with RemoteSynthesisSession(server.address) as client:
                    client.add_listener(log)
                    job = client.submit(tasks[index], budget=3_000, seed=3)
                    client.run([job])
                    finished[index] = job
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, f"client thread failed: {errors[0]!r}"
        elapsed = time.time() - start
        for index, job in sorted(finished.items()):
            kinds = [event.kind for event in job.events]
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)
            assert kinds[0] == "started" and kinds[-1] == "finished"
            assert len({event.job_id for event in job.events}) == 1, "streams crossed"
            print(f"  client {index}: {job.job_id} {job.state.value} "
                  f"({len(job.events)} events streamed over the wire)")
        print(f"  both clients served in {elapsed:.1f}s")

    log.save(event_log_path)
    print(f"  event log ({len(log)} events) written to {event_log_path}")
    print("\nOK: concurrent serving and stream parity verified.")


if __name__ == "__main__":
    main()
