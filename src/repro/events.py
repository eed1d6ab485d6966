"""Progress events streamed out of Phase-2 synthesis runs.

Every :class:`~repro.core.backend.SynthesisBackend` accepts an optional
*listener* — any callable taking one :class:`ProgressEvent` — and emits a
stream of events while it searches:

``"started"``
    Once, before the first candidate is examined.
``"generation"``
    After each GA generation is scored (GA-based backends only): the
    generation index, mean/best population fitness, candidates consumed
    and the execution engine's cache counters.
``"neighborhood"``
    When the restricted local neighborhood search triggers.
``"candidates"``
    Periodically (every ``progress_every`` budget charges) for every
    backend, including the enumerative baselines that have no notion of
    a generation.
``"finished"``
    Once, with the outcome (``found`` / ``found_by``).

Supervised parallel runs additionally emit **supervision events** (never
part of a job's per-generation stream, so serial/parallel stream parity
is unaffected): ``"heartbeat"`` (one per worker per heartbeat interval),
``"worker_restarted"`` (a dead or hung worker was replaced),
``"job_retry"`` (a crashed job was requeued with backoff),
``"job_quarantined"`` (a job exhausted its retries and ends ``failed``),
``"deadline_exceeded"`` (a job hit its wall-clock deadline),
``"degraded_serial"`` (the pool crashed too often and the run fell back
to serial execution), ``"cache_segment_skipped"`` (a corrupt, truncated
or unframed L3 cache-log frame was skipped on load), and a synthesized ``"failed"``
terminal event that settles the stream of a job whose worker died before
flushing its own.  Supervision events carry ``worker_id`` / ``attempt`` /
``reason`` where applicable.

The serving layer adds **durability events**, likewise outside every
job's own stream: ``"journal_record_skipped"`` (a torn or corrupt job
journal record was skipped during recovery), ``"server_recovered"``
(server-side: a restarted server finished re-admitting journaled jobs —
carries the counts in ``reason``; client-side: an interrupted event
stream successfully resumed after a reconnect).

Listeners observe; they never steer the search — with one deliberate
exception: a listener may raise :class:`JobCancelled` to abandon the run,
which is how :class:`~repro.core.service.SynthesisJob` implements
cooperative cancellation.  Because events are emitted outside every
random-number draw, attaching a listener never changes the result of a
seeded run.

This module is intentionally dependency-free (dataclasses only) so any
layer — GA engine, budget accounting, baselines, service — can import it
without cycles.
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional


class JobCancelled(Exception):
    """Raised (by a listener) to abandon a synthesis run cooperatively."""


#: version of the serialized :class:`ProgressEvent` form.  Bump when a
#: field is renamed or its meaning changes; *adding* or *dropping* fields
#: does not need a bump because :meth:`ProgressEvent.from_dict`
#: deterministically drops keys it does not know (an old reader fed a
#: newer event, or a new reader fed an older log carrying a retired
#: field, keeps every field it understands).
EVENT_SCHEMA_VERSION = 1


@dataclass
class ProgressEvent:
    """One observation of a running synthesis job.

    Fields default to the "unknown/not applicable" value so each emitter
    fills only what it can see; the backend enriches engine-level events
    with ``method``/``task_id``/``job_id`` before forwarding them.
    """

    kind: str
    method: str = ""
    task_id: str = ""
    job_id: str = ""
    #: GA generation index (1-based; 0 for non-generation events)
    generation: int = 0
    mean_fitness: Optional[float] = None
    best_fitness: Optional[float] = None
    candidates_used: int = 0
    budget_limit: int = 0
    #: execution-engine cache counters at emission time
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0
    #: retired shared-score-table counters, always 0: they stay in the
    #: v1 schema because existing readers fetch them by name, and go
    #: when the flat cache fields fold into one ``counters`` map (a
    #: schema bump, see ROADMAP.md)
    shared_hits: int = 0
    shared_cross_hits: int = 0
    #: outcome fields ("finished" events only)
    found: Optional[bool] = None
    found_by: str = ""
    #: supervision fields (heartbeat / restart / retry / quarantine /
    #: deadline / degradation events only; -1 / 0 / "" otherwise)
    worker_id: int = -1
    attempt: int = 0
    reason: str = ""

    def to_dict(self) -> dict:
        """JSON-friendly form (for logs and persisted event streams).

        Carries the schema version under ``"v"`` so wire consumers can
        tell what vintage of event they are reading; :meth:`from_dict`
        accepts any version and keeps the fields it understands.
        """
        return {
            "v": EVENT_SCHEMA_VERSION,
            "kind": self.kind,
            "method": self.method,
            "task_id": self.task_id,
            "job_id": self.job_id,
            "generation": self.generation,
            "mean_fitness": self.mean_fitness,
            "best_fitness": self.best_fitness,
            "candidates_used": self.candidates_used,
            "budget_limit": self.budget_limit,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "shared_hits": self.shared_hits,
            "shared_cross_hits": self.shared_cross_hits,
            "found": self.found,
            "found_by": self.found_by,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProgressEvent":
        """Rebuild an event from :meth:`to_dict` output.

        Deterministically tolerant of other schema vintages: the version
        marker (``"v"``) and any keys this build does not know — e.g.
        fields added by a *newer* writer on the other end of a wire
        stream — are dropped, never an error; fields this build knows but
        the writer did not carry keep their defaults.  A record missing
        ``kind`` entirely deserializes as an ``"unknown"`` event rather
        than raising, so one foreign record cannot poison a whole log.
        """
        kept = {key: value for key, value in data.items() if key in _EVENT_FIELDS}
        kept.setdefault("kind", "unknown")
        return cls(**kept)


#: the field names :meth:`ProgressEvent.from_dict` keeps, computed once
_EVENT_FIELDS = frozenset(f.name for f in fields(ProgressEvent))


#: anything that consumes progress events
ProgressListener = Callable[[ProgressEvent], None]


class EventLog:
    """A listener that records every event (the default test/CLI consumer)."""

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []
        #: set by :meth:`load` when the persisted file was cut mid-record
        #: and only the valid prefix could be recovered
        self.truncated: bool = False

    def __call__(self, event: ProgressEvent) -> None:
        self.events.append(event)

    def extend(self, events: List[ProgressEvent]) -> None:
        """Record a coalesced batch in one call, at list-extend cost.

        For consumers that drain event batches directly off a queue
        (e.g. ``benchmarks/bench_event_throughput.py``); a log attached
        via ``session.add_listener`` is still called once per event.
        """
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[ProgressEvent]:
        return [event for event in self.events if event.kind == kind]

    @property
    def last(self) -> Optional[ProgressEvent]:
        return self.events[-1] if self.events else None

    def for_job(self, job_id: str) -> List[ProgressEvent]:
        """Events of one session job, in arrival order.

        Events from one job always arrive in the order they were emitted
        — also across process boundaries, where a single worker produces
        them sequentially into the streaming queue — so this sub-sequence
        is deterministic even when several jobs interleave.
        """
        return [event for event in self.events if event.job_id == job_id]

    def save(self, path) -> None:
        """Persist the log as a JSON array of event dicts."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([event.to_dict() for event in self.events], handle, indent=2)

    @classmethod
    def load(cls, path) -> "EventLog":
        """Reload a log persisted by :meth:`save`.

        Tolerates a truncated or tail-corrupted file (e.g. the writing
        process was killed mid-:meth:`save`): the valid prefix of event
        records is recovered and the returned log's ``truncated`` flag is
        set, instead of the whole load raising.  A file whose very first
        record is unreadable loads as an empty, truncated log.
        """
        log = cls()
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            records = json.loads(text)
            if not isinstance(records, list):
                records, log.truncated = [], True
        except ValueError:
            records, log.truncated = cls._recover_prefix(text), True
        for data in records:
            if isinstance(data, dict):
                log.events.append(ProgressEvent.from_dict(data))
        return log

    @staticmethod
    def _recover_prefix(text: str) -> List[dict]:
        """Every complete event record before the corruption point."""
        decoder = json.JSONDecoder()
        index = text.find("[")
        if index < 0:
            return []
        index += 1
        records: List[dict] = []
        length = len(text)
        while index < length:
            while index < length and text[index] in " \t\r\n,":
                index += 1
            if index >= length or text[index] == "]":
                break
            try:
                record, index = decoder.raw_decode(text, index)
            except ValueError:
                break
            records.append(record)
        return records
