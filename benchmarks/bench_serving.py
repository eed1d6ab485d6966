"""Serving-layer throughput and latency.

The network synthesis service (``repro/serving/``) moves two things over
localhost sockets: job submissions and the per-job event streams.  This
benchmark measures what they cost as **jobs/s and event latency vs
client count**: a server over a warm ``edit`` session is driven by 1, 4
and 16 concurrent clients, each submitting its own seeded task and
streaming it to completion.  Event latency is wall-clock from the server
session emitting an event to the client receiving its decoded frame
(same process, same clock), folded into p50/p95 across every event of
the round.

Results are appended to ``BENCH_serving.json`` at the repository root so
the trajectory across PRs is preserved.

Scale knobs: ``NETSYN_BENCH_SERVING_BUDGET`` (candidate budget per job,
default 2000), ``NETSYN_BENCH_SERVING_CLIENTS`` (comma-separated client
counts, default ``1,4,16``).
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.config import NetSynConfig, ServiceConfig, ServingConfig
from repro.core import ArtifactStore, JobState, SynthesisSession
from repro.data import make_synthesis_task
from repro.serving import RemoteSynthesisSession, SynthesisServer

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_serving.json"

BUDGET = int(os.environ.get("NETSYN_BENCH_SERVING_BUDGET", "2000"))
CLIENT_COUNTS = tuple(
    int(n) for n in os.environ.get("NETSYN_BENCH_SERVING_CLIENTS", "1,4,16").split(",")
)


def _edit_session() -> SynthesisSession:
    config = NetSynConfig.small("edit", seed=11).replace(fp_guided_mutation=False)
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(persist_caches=False),
    )


def _drive_clients(server: SynthesisServer, n_clients: int) -> dict:
    """One round: n concurrent clients, each one job; returns the numbers."""
    # server-side emission stamps, keyed (job_id, running index per job)
    emitted: dict = {}
    counts: dict = {}
    stamp_lock = threading.Lock()

    def stamp(event) -> None:
        with stamp_lock:
            index = counts.get(event.job_id, 0)
            counts[event.job_id] = index + 1
            emitted[(event.job_id, index)] = time.perf_counter()

    server.session.add_listener(stamp)
    latencies: list = []
    latency_lock = threading.Lock()
    states: list = []
    errors: list = []

    def drive(index: int) -> None:
        try:
            with RemoteSynthesisSession(server.address) as client:
                received = 0
                job = client.submit(
                    make_synthesis_task(length=3, seed=50 + index), budget=BUDGET, seed=index
                )

                def on_event(event, job_id=job.job_id) -> None:
                    nonlocal received
                    sent = emitted.get((job_id, received))
                    received += 1
                    if sent is not None:
                        with latency_lock:
                            latencies.append(time.perf_counter() - sent)

                client.add_listener(on_event)
                client.run([job])
                states.append(job.state)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"client failed: {errors[0]!r}"
    assert all(state in (JobState.SOLVED, JobState.EXHAUSTED) for state in states)
    latencies.sort()
    return {
        "clients": n_clients,
        "jobs_per_second": n_clients / elapsed,
        "round_seconds": elapsed,
        "events": len(latencies),
        "event_latency_p50_ms": 1e3 * statistics.median(latencies),
        "event_latency_p95_ms": 1e3 * latencies[int(0.95 * (len(latencies) - 1))],
    }


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


def test_serving_throughput():
    rounds = []
    with SynthesisServer(
        _edit_session(), ServingConfig(max_pending_jobs=256)
    ) as server:
        for n_clients in CLIENT_COUNTS:
            rounds.append(_drive_clients(server, n_clients))

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "budget": BUDGET,
        "client_rounds": rounds,
    }
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # sanity, not speed, gates: shared runners are too noisy for ratios
    assert all(r["events"] > 0 for r in rounds)


if __name__ == "__main__":
    test_serving_throughput()
