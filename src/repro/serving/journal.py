"""The crash-safe write-ahead job journal of the synthesis server.

Every job the server admits is appended here *before* the client sees
``submitted``, and every terminal outcome is appended when the job
settles — so a server killed at any instant can be restarted on the same
journal directory and lose nothing: unfinished jobs are re-admitted
under their original ids, settled jobs answer idempotent resubmits from
their journaled results, and a cancellation requested for a queued job
survives the crash too.

Record framing (one append-only file, ``journal.log``)::

    MAGIC ("NSJL1\\0") | length:u32 | crc32:u32 | payload (UTF-8 JSON)

framed and scanned by :mod:`repro.utils.frames`, the codec the L3 cache
log in :mod:`repro.core.artifacts` uses too: a writer killed mid-append
leaves a torn record the reader skips with a warning, and a flipped bit
mid-file fails its record's CRC — either way the reader resynchronizes on
the next magic marker, so one bad record costs itself, never the rest of
the journal nor the records a restarted server appends after it.  Payloads
are JSON (the wire forms of :mod:`repro.serving.protocol`), so a journal
is debuggable with ``strings`` and a JSON pretty-printer.

Record kinds:

``admit``
    Full task payload (wire form), method, budget, seed, program length
    and the client-supplied idempotency key.  Present for every admitted
    job; a job with *only* an admit record is unfinished.
``result``
    The settled job's full wire form (state, result, FailureReport,
    error) plus the admission's idempotency key.  Marks the job
    settled; kept through compaction — including the key, so idempotent
    resubmits after a restart answer from the journal even when the
    ``admit`` record was compacted away.
``cancel``
    A cancellation was requested.  An unfinished job with a ``cancel``
    record recovers as ``cancelled`` instead of being re-run.

Durability: appends are flushed to the OS on every record, so the
journal survives the server process being SIGKILLed.  ``fsync=True``
additionally survives a machine crash, at a per-record fsync cost (off
by default — the threat model here is process death, not power loss).

Compaction: past ``compact_bytes`` the journal is rewritten to one
``admit`` record per unfinished job and one ``result`` record per
settled job (most recent ``max_settled`` kept), via write-temp +
``os.replace`` so a crash mid-compaction leaves either the old journal
or the new one, never a hybrid.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.utils.frames import HEADER, frame, scan
from repro.utils.logging import get_logger

logger = get_logger("serving.journal")

#: journal file name inside the journal directory
JOURNAL_FILE = "journal.log"

_MAGIC = b"NSJL1\0"
#: the record header after the magic (tests hand-build records with it)
_HEADER = HEADER

#: default size past which :meth:`JobJournal.maybe_compact` folds the log
DEFAULT_COMPACT_BYTES = 4 * 1024 * 1024

#: settled results kept through compaction (newest first); older settled
#: jobs lose idempotent-replay after a restart, nothing else
DEFAULT_MAX_SETTLED = 10_000


@dataclass
class JournalState:
    """What a journal replay recovers."""

    #: unfinished jobs: job_id -> the ``admit`` payload, admission order
    pending: Dict[str, dict] = field(default_factory=dict)
    #: settled jobs: job_id -> the journaled job wire form
    settled: Dict[str, dict] = field(default_factory=dict)
    #: idempotency dedup map: client key -> job_id
    key_to_job: Dict[str, str] = field(default_factory=dict)
    #: settled job -> its idempotency key (None when it had none); lets
    #: compaction re-emit result records that keep the dedup mapping
    settled_keys: Dict[str, Optional[str]] = field(default_factory=dict)
    #: unfinished jobs whose cancellation was journaled before the crash
    cancelled: List[str] = field(default_factory=list)
    #: records lost to torn tails / CRC failures (already warned about)
    skipped: int = 0


class JobJournal:
    """Append-only journal of one server's job lifecycle (thread-safe)."""

    def __init__(
        self,
        directory,
        compact_bytes: int = DEFAULT_COMPACT_BYTES,
        max_settled: int = DEFAULT_MAX_SETTLED,
        fsync: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILE
        self.compact_bytes = int(compact_bytes)
        self.max_settled = int(max_settled)
        self.fsync = bool(fsync)
        self._lock = threading.RLock()
        self._handle = self.path.open("ab")
        #: appended records since open (read by the health frame / tests)
        self.appends = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # appends

    @staticmethod
    def _frame(payload: dict) -> bytes:
        return frame(_MAGIC, json.dumps(payload, separators=(",", ":")).encode("utf-8"))

    def _append(self, payload: dict) -> None:
        with self._lock:
            if self._handle.closed:  # journal closed mid-shutdown: drop
                return
            self._handle.write(self._frame(payload))
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self.appends += 1

    def admit(
        self,
        job_id: str,
        task_wire: dict,
        method: str,
        budget: int,
        seed: int,
        program_length: Optional[int] = None,
        idempotency_key: Optional[str] = None,
    ) -> None:
        """Journal one admission (call *before* acknowledging the client)."""
        self._append(
            {
                "record": "admit",
                "job_id": job_id,
                "task": task_wire,
                "method": method,
                "budget": int(budget),
                "seed": int(seed),
                "program_length": program_length,
                "idempotency_key": idempotency_key,
            }
        )

    def settle(
        self, job_id: str, job_wire: dict, idempotency_key: Optional[str] = None
    ) -> None:
        """Journal a job's terminal state (its full wire form).

        The admission's ``idempotency_key`` rides along so the dedup
        mapping survives compaction dropping the ``admit`` record.
        """
        self._append(
            {
                "record": "result",
                "job_id": job_id,
                "job": job_wire,
                "idempotency_key": idempotency_key,
            }
        )

    def cancel(self, job_id: str) -> None:
        """Journal a cancellation request for an admitted job."""
        self._append({"record": "cancel", "job_id": job_id})

    # ------------------------------------------------------------------
    # replay

    def replay(
        self, on_skip: Optional[Callable[[str], None]] = None
    ) -> JournalState:
        """Recover the journal's state, skipping (never raising on) damage.

        ``on_skip(reason)`` is called once per unreadable record — a torn
        record left by a crash mid-append, or a CRC-failing record
        mid-file.  The scan resynchronizes on the next magic marker after
        either, so records a restarted server appended after a torn one
        still replay.  An empty or
        absent journal replays to an empty state with no warnings.
        """
        state = JournalState()
        try:
            data = self.path.read_bytes()
        except OSError:
            return state

        def skip(reason: str) -> None:
            state.skipped += 1
            logger.warning("journal: skipped record (%s)", reason)
            if on_skip is not None:
                on_skip(reason)

        for offset, payload, reason in scan(data, _MAGIC):
            if reason is not None:
                skip(f"{reason} at offset {offset}")
                continue
            try:
                record = json.loads(bytes(payload).decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                # a CRC-valid but undecodable record means the writer was
                # broken, not the disk; skip it the same way
                skip(f"undecodable record at offset {offset}")
                continue
            if isinstance(record, dict):
                self._apply(state, record)
        return state

    @staticmethod
    def _apply(state: JournalState, record: dict) -> None:
        kind = record.get("record")
        job_id = str(record.get("job_id", ""))
        if not job_id:
            return
        key = record.get("idempotency_key")
        if kind == "admit":
            state.pending[job_id] = record
            if key:
                state.key_to_job[str(key)] = job_id
        elif kind == "result":
            job = record.get("job")
            if isinstance(job, dict):
                state.settled[job_id] = job
            if key:
                state.key_to_job[str(key)] = job_id
            state.settled_keys[job_id] = str(key) if key else None
            state.pending.pop(job_id, None)
            if job_id in state.cancelled:
                state.cancelled.remove(job_id)
        elif kind == "cancel":
            if job_id in state.pending and job_id not in state.cancelled:
                state.cancelled.append(job_id)

    # ------------------------------------------------------------------
    # compaction

    def size(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def maybe_compact(self) -> bool:
        """Compact when the journal outgrew ``compact_bytes`` (False if not)."""
        with self._lock:
            if self.size() <= self.compact_bytes:
                return False
            self.compact()
            return True

    def compact(self, state: Optional[JournalState] = None) -> None:
        """Fold the journal to its live state (atomic swap, crash-safe).

        Keeps one ``admit`` per unfinished job (plus its journaled
        ``cancel`` when one was recorded) and the most recent
        ``max_settled`` ``result`` records; everything superseded is
        dropped.  The rewrite lands via write-temp + ``os.replace``.
        """
        with self._lock:
            if state is None:
                self._handle.flush()
                state = self.replay()
            settled_ids = list(state.settled)[-self.max_settled :]
            tmp = self.path.with_name(f".{JOURNAL_FILE}.{os.getpid()}.tmp")
            with tmp.open("wb") as handle:
                for job_id, admit in state.pending.items():
                    handle.write(self._frame(admit))
                    if job_id in state.cancelled:
                        handle.write(
                            self._frame({"record": "cancel", "job_id": job_id})
                        )
                for job_id in settled_ids:
                    handle.write(
                        self._frame(
                            {
                                "record": "result",
                                "job_id": job_id,
                                "job": state.settled[job_id],
                                "idempotency_key": state.settled_keys.get(job_id),
                            }
                        )
                    )
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp, self.path)
            self._handle = self.path.open("ab")
            self.compactions += 1
            logger.info(
                "journal compacted to %d pending + %d settled record(s) (%d bytes)",
                len(state.pending), len(settled_ids), self.size(),
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
