"""Cross-process progress-event throughput: per-event puts vs batching.

At paper-scale budgets (30k generations × many jobs) a parallel session
streams millions of progress events through one multiprocessing queue.
Each unbatched ``put`` pays a pickle, a lock round-trip and a reader
wakeup; the ``ServiceConfig.event_batch_size`` fallback coalesces a
worker's events into one put per batch, and the parent's pump drains
whatever has accumulated per wakeup.  This benchmark measures the queue
ceiling both ways with the *actual* worker-side emitter
(:class:`repro.core.supervisor._EventEmitter`) and the pump's drain pattern.

Results are appended to ``BENCH_event_throughput.json`` at the
repository root so the trajectory across PRs is preserved.

Scale knobs: ``NETSYN_BENCH_EVENTS`` (events per producer run, default
30000), ``NETSYN_BENCH_EVENT_BATCH`` (batched size, default 64).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path
from queue import Empty

from repro.core.supervisor import _EventEmitter
from repro.events import EventLog, ProgressEvent

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_event_throughput.json"

N_EVENTS = int(os.environ.get("NETSYN_BENCH_EVENTS", "30000"))
BATCH = int(os.environ.get("NETSYN_BENCH_EVENT_BATCH", "64"))


def _produce(queue, n_events: int, batch_size: int) -> None:
    """Emit ``n_events`` through the service layer's worker-side emitter."""
    emitter = _EventEmitter(0, "job-1", queue, None, batch_size=batch_size)
    for generation in range(n_events):
        emitter(
            ProgressEvent(
                kind="generation",
                method="bench",
                generation=generation,
                candidates_used=generation * 20,
                budget_limit=n_events * 20,
            )
        )
    emitter.flush()
    queue.put(None)  # producer-done sentinel


def _drain(queue, log: EventLog) -> int:
    """The pump's drain pattern: blocking get + opportunistic batch drain."""
    received = 0
    done = False
    while not done:
        items = [queue.get()]
        for _ in range(256):
            try:
                items.append(queue.get_nowait())
            except Empty:
                break
        for item in items:
            if item is None:
                done = True
                continue
            _job_index, payload = item
            events = payload if isinstance(payload, list) else [payload]
            log.extend(events)
            received += len(events)
    return received


def _run_once(batch_size: int) -> float:
    context = multiprocessing.get_context()
    queue = context.Queue()
    producer = context.Process(target=_produce, args=(queue, N_EVENTS, batch_size))
    log = EventLog()
    start = time.perf_counter()
    producer.start()
    received = _drain(queue, log)
    producer.join(timeout=120)
    elapsed = time.perf_counter() - start
    assert producer.exitcode == 0
    assert received == N_EVENTS == len(log)
    # stream order survives batching
    generations = [event.generation for event in log]
    assert generations == sorted(generations)
    return N_EVENTS / elapsed


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


def test_event_queue_throughput():
    unbatched_eps = _run_once(batch_size=1)
    batched_eps = _run_once(batch_size=BATCH)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "n_events": N_EVENTS,
        "batch_size": BATCH,
        "unbatched_events_per_second": unbatched_eps,
        "batched_events_per_second": batched_eps,
        "batching_speedup": batched_eps / unbatched_eps,
    }
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # Sanity gates only — shared runners are too noisy for a hard
    # speedup assertion; the trajectory file carries the real signal.
    assert unbatched_eps > 0 and batched_eps > 0
    assert batched_eps > 0.5 * unbatched_eps, "batching should never cost 2x"


if __name__ == "__main__":
    test_event_queue_throughput()
