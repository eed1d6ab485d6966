"""Cross-process progress-event throughput over a worker's channel.

At paper-scale budgets (30k generations × many jobs) a parallel session
streams millions of progress events from its workers.  Each worker
writes them to its own pipe (:class:`repro.core.supervisor._Channel`)
through the coalescing emitter
(:class:`repro.core.supervisor._EventEmitter`), which puts up to 64
events per pickle and pipe write; the parent's pump thread wakes on the
pipe and reads at most 256 items per wakeup.  This benchmark times that
path, producer process to parent log, against a bench-local reference
that puts every event on the same channel on its own.

Results are appended to ``BENCH_event_throughput.json`` at the
repository root so the trajectory across PRs is preserved.

Scale knob: ``NETSYN_BENCH_EVENTS`` (events per producer run, default
30000).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from multiprocessing.connection import wait
from pathlib import Path

from repro.core import supervisor
from repro.core.supervisor import _Channel, _EventEmitter
from repro.events import EventLog, ProgressEvent

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_event_throughput.json"

N_EVENTS = int(os.environ.get("NETSYN_BENCH_EVENTS", "30000"))


def _produce(conn, n_events: int, coalesced: bool) -> None:
    """Emit ``n_events`` over one worker channel, then exit (EOF)."""
    channel = _Channel(conn)
    emitter = _EventEmitter(0, "job-1", channel, None)
    for generation in range(n_events):
        event = ProgressEvent(
            kind="generation",
            method="bench",
            generation=generation,
            candidates_used=generation * 20,
            budget_limit=n_events * 20,
        )
        if coalesced:
            emitter(event)
        else:
            event.job_id = "job-1"
            channel.put((0, [event]))
    emitter.flush()
    conn.close()


def _drain(conn, log: EventLog) -> int:
    """The pump's drain pattern: wake on the pipe, read at most 256 items."""
    received = 0
    while True:
        wait([conn])
        try:
            for _ in range(256):
                if not conn.poll():
                    break
                _job_index, events = conn.recv()
                log.extend(events)
                received += len(events)
        except EOFError:
            return received


def _run_once(coalesced: bool) -> float:
    context = multiprocessing.get_context()
    reader, writer = context.Pipe(duplex=False)
    producer = context.Process(target=_produce, args=(writer, N_EVENTS, coalesced))
    log = EventLog()
    start = time.perf_counter()
    producer.start()
    writer.close()  # the producer's exit is then EOF on the reader
    received = _drain(reader, log)
    producer.join(timeout=120)
    elapsed = time.perf_counter() - start
    reader.close()
    assert producer.exitcode == 0
    assert received == N_EVENTS == len(log)
    # stream order survives coalescing
    generations = [event.generation for event in log]
    assert generations == list(range(N_EVENTS))
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


def test_event_channel_throughput():
    per_event_eps = _run_once(coalesced=False)
    coalesced_eps = _run_once(coalesced=True)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "transport": "pipe",
        "n_events": N_EVENTS,
        "batch_size": supervisor._EVENT_BATCH,
        "unbatched_events_per_second": per_event_eps,
        "batched_events_per_second": coalesced_eps,
        "batching_speedup": coalesced_eps / per_event_eps,
    }
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # Sanity gates only — shared runners are too noisy for a hard
    # speedup assertion; the trajectory file carries the real signal.
    assert per_event_eps > 0 and coalesced_eps > 0
    assert coalesced_eps > 0.5 * per_event_eps, "coalescing should never cost 2x"


if __name__ == "__main__":
    test_event_channel_throughput()
