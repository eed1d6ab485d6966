"""The synthesis service layer: sessions, jobs, progress streams.

The paper's pipeline is fit-once-serve-many: Phase 1 trains the neural
fitness models once, Phase 2 answers many synthesis requests against
them.  This module turns that shape into an explicit API:

``SynthesisService``
    Owns a :class:`~repro.config.NetSynConfig` and (optionally) a
    persistent artifact directory.  :meth:`SynthesisService.open_session`
    loads Phase-1 artifacts from disk when present, trains whatever is
    missing, persists the result, and returns a session.

``SynthesisSession``
    Holds the trained :class:`~repro.core.artifacts.ArtifactStore` and a
    cache of :class:`~repro.core.backend.SynthesisBackend` instances (one
    per method × program length).  :meth:`SynthesisSession.submit`
    enqueues a job; :meth:`SynthesisSession.run` executes pending jobs
    serially in submission order or fans them out over the supervised
    worker pool of :class:`~repro.core.supervisor.WorkerSupervisor`
    (records identical to a serial run — every job is explicitly seeded).
    Parallel workers stream their per-generation events back through a
    multiprocessing queue drained live by a pump thread, merge the cache
    entries they computed back into the session when each job completes,
    and — with a configured ``artifact_dir`` — the session persists those
    caches next to the artifacts (keyed by model hash) so a re-opened
    session starts warm in a later process.

``SynthesisJob``
    One synthesis request with an observable lifecycle::

        PENDING -> RUNNING -> SOLVED | EXHAUSTED | FAILED | CANCELLED

    Jobs collect their :class:`~repro.events.ProgressEvent` stream and
    support cancellation: pending jobs cancel immediately; running jobs
    cancel cooperatively at the next progress event — locally by the
    session's listener raising :class:`~repro.events.JobCancelled`
    inside the backend, remotely through a shared cancellation flag the
    worker polls at every event it emits.

Seeded runs through this layer are bit-identical to calling
:meth:`~repro.core.netsyn.NetSynBackend.solve_io` directly (tested in
``tests/test_service.py`` and against the golden trajectories of
``tests/golden``).
"""

from __future__ import annotations

import atexit
import enum
import multiprocessing
import os
import pickle
import re
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import NetSynConfig, ServiceConfig
from repro.core.artifacts import ArtifactStore
from repro.core.backend import SynthesisBackend
from repro.core.result import SynthesisResult
from repro.core.supervisor import (
    FailureReport,
    WorkerSupervisor,
    worker_cancel_flags,
    worker_event_queue,
    worker_payload,
)
from repro.data.tasks import SynthesisTask
from repro.events import JobCancelled, ProgressEvent, ProgressListener
from repro.execution import faults
from repro.ga.budget import SearchBudget
from repro.utils.logging import get_logger

logger = get_logger("core.service")


class JobState(str, enum.Enum):
    """Lifecycle of a :class:`SynthesisJob`."""

    PENDING = "pending"
    RUNNING = "running"
    SOLVED = "solved"
    EXHAUSTED = "exhausted"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.SOLVED,
            JobState.EXHAUSTED,
            JobState.FAILED,
            JobState.CANCELLED,
        )


@dataclass
class SynthesisJob:
    """One submitted synthesis request and its observable state."""

    job_id: str
    method: str
    task: SynthesisTask
    seed: int
    budget_limit: int
    program_length: Optional[int] = None
    state: JobState = JobState.PENDING
    result: Optional[SynthesisResult] = None
    error: Optional[str] = None
    #: structured post-mortem when the supervisor gave up on the job
    #: (worker crashes exhausted retries, deadline exceeded); plain
    #: errors raised inside the job only set ``error``
    failure: Optional[FailureReport] = None
    events: List[ProgressEvent] = field(default_factory=list)
    _cancel_requested: bool = field(default=False, repr=False)
    #: set by the session while this job runs remotely: raises the job's
    #: shared cancellation flag so the worker observes the request live
    _remote_cancel: Optional[Callable[[], None]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state.terminal

    def cancel(self) -> bool:
        """Request cancellation (idempotent, safe at any lifecycle point).

        Pending jobs flip to ``CANCELLED`` immediately; running jobs are
        cancelled cooperatively at their next progress event — including
        jobs running in a worker process, where the request travels
        through a shared cancellation flag the worker polls on every
        event it emits.

        A cancel that arrives after the job reached a terminal state —
        the normal case for remote cancels, which can cross the wire
        after the job already settled — is a strict no-op: the terminal
        state is left exactly as it is (observable via ``state``) and no
        flag is raised.  It returns True when the job is (or just
        became) ``CANCELLED``, so repeating a cancel reports the same
        answer as the call that won; cancels landing on any other
        terminal state return False.
        """
        if self.state.terminal:
            return self.state is JobState.CANCELLED
        if self.state is JobState.PENDING:
            self.state = JobState.CANCELLED
            # also raise the flag: a cancel racing the PENDING->RUNNING
            # transition (the runner has read PENDING but not yet flipped
            # the state) must be seen by the runner's post-flip re-check,
            # or the job would run to completion after reporting success
            self._cancel_requested = True
            return True
        self._cancel_requested = True
        # capture once: the runner clears _remote_cancel when the job
        # settles, and a remote cancel racing that settle must not call
        # through a reference that just became None
        remote_cancel = self._remote_cancel
        if remote_cancel is not None:
            remote_cancel()
        return True

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "method": self.method,
            "task_id": self.task.task_id,
            "seed": self.seed,
            "budget_limit": self.budget_limit,
            "state": self.state.value,
            "error": self.error,
            "failure": self.failure.to_dict() if self.failure is not None else None,
            "result": self.result.to_dict() if self.result is not None else None,
            "n_events": len(self.events),
        }


#: picklable description of one job for the parallel workers:
#: (job_index, job_id, method, program_length, task, seed, budget_limit,
#:  progress_every, event_batch_size)
_ServiceJobSpec = Tuple[int, str, str, Optional[int], SynthesisTask, int, int, int, int]

#: what a worker returns per job:
#: (status, result, error, n_events_emitted, cache_delta)
_ServiceJobOutcome = Tuple[str, Optional[SynthesisResult], Optional[str], int, Optional[dict]]

_WORKER_BACKENDS: Dict[Any, Any] = {}

#: per-process memo of attached shared stores, keyed by (directory, token)
#: — the token changes whenever the segment is re-packed, so a process
#: that re-resolves the same directory after a retrain re-attaches
#: instead of serving memmap views laid out for the old file
_ATTACHED_STORES: Dict[Tuple[str, str], ArtifactStore] = {}

#: per-process memo of attached L2 shared score tables, keyed by
#: (path, file identity) — a table recreated for new weights (new inode)
#: re-attaches instead of being served through a stale mapping
_ATTACHED_TABLES: Dict[Tuple[str, str], Any] = {}


def _attach_score_table(path: Optional[str]) -> Any:
    """Attach (memoized per process) the shared score table at ``path``."""
    if not path:
        return None
    try:
        stat = Path(path).stat()
        identity = f"{stat.st_ino}:{stat.st_size}"
    except OSError:
        identity = "missing"
    key = (path, identity)
    if key not in _ATTACHED_TABLES:
        from repro.execution.shared_table import SharedScoreTable

        try:
            faults.fire("table_attach", target=path, path=path)
            _ATTACHED_TABLES[key] = SharedScoreTable.attach(path)
        except (OSError, ValueError) as error:
            # missing/short/torn table file: degrade this process to
            # L1-only caching instead of failing its jobs
            logger.warning("could not attach shared score table %s: %s", path, error)
            _ATTACHED_TABLES[key] = None
    return _ATTACHED_TABLES[key]


def _segment_token(directory: str) -> str:
    """Identity of the packed segment currently on disk (mtime + size)."""
    from repro.core.artifacts import SHARED_WEIGHTS_BIN

    try:
        stat = (Path(directory) / SHARED_WEIGHTS_BIN).stat()
        return f"{stat.st_mtime_ns}:{stat.st_size}"
    except OSError:
        return "missing"

#: name of the pickled cache snapshot inside a shared segment directory
_CACHE_SNAPSHOT = "cache_snapshot.pkl"


def _pickle_atomically(path: Path, snapshots: Dict[str, dict]) -> Path:
    """Pickle ``snapshots`` to ``path`` via a unique temp file + ``os.replace``.

    Sessions sharing a directory may overwrite each other's snapshot, but
    a worker never observes a half-written one.
    """
    handle, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            pickle.dump(snapshots, stream)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _snapshot_key(method: str, program_length: Optional[int]) -> str:
    """The key one backend's caches live under in snapshot dicts.

    Shared by the worker warm-start payload, the merge-back path and the
    persisted cross-session snapshots, so all three speak one format.
    """
    return f"{method}:{program_length}"


@dataclass
class SharedWorkerPayload:
    """What crosses the process boundary under shared-memory serving.

    Instead of pickling every trained model into every worker, the parent
    ships this tiny descriptor; :meth:`resolve_in_worker` (called once
    per worker by its initializer) attaches the packed weight
    segment via ``np.memmap`` — so all workers alias one set of physical
    pages — and loads the optional warm-cache snapshot.
    """

    directory: str
    config: NetSynConfig
    names: Tuple[str, ...] = ()
    snapshot_file: Optional[str] = None
    #: path of the L2 shared mmap score table (None = L2 disabled);
    #: workers attach it once per process and hand it to their backends
    score_table_file: Optional[str] = None
    #: identity of the packed segment (set by the parent at pack time);
    #: part of the attach-memo key so a re-packed segment re-attaches
    token: str = ""
    #: per-process memo of the loaded snapshot file (not part of the
    #: pickled payload; populated lazily by :meth:`cache_snapshots`)
    _loaded_snapshots: Optional[Dict[str, dict]] = field(
        default=None, repr=False, compare=False
    )

    def resolve_in_worker(self) -> "SharedWorkerPayload":
        """Attach the shared store (memoized per process) and return self.

        A missing or torn shared-weight segment (e.g. deleted between
        pack and worker start, or truncated by a crashed packer) does not
        fail the worker: it falls back to loading the per-artifact
        ``.npz`` copies the parent saved next to the segment — slower,
        private pages, same numbers.
        """
        key = (self.directory, self.token)
        if key not in _ATTACHED_STORES:
            try:
                _ATTACHED_STORES[key] = ArtifactStore.attach_shared(
                    self.directory, names=self.names or None
                )
            except (OSError, ValueError, KeyError) as error:
                logger.warning(
                    "shared-weight attach failed in worker (%s); "
                    "falling back to private npz copies from %s",
                    error, self.directory,
                )
                _ATTACHED_STORES[key] = ArtifactStore.load(
                    self.directory, names=self.names or None
                )
        _attach_score_table(self.score_table_file)
        return self

    @property
    def score_table(self) -> Any:
        """This process's handle on the L2 table (None when disabled)."""
        return _attach_score_table(self.score_table_file)

    @property
    def store(self) -> ArtifactStore:
        key = (self.directory, self.token)
        if key not in _ATTACHED_STORES:
            self.resolve_in_worker()
        return _ATTACHED_STORES[key]

    def cache_snapshots(self) -> Dict[str, dict]:
        """The warm-cache snapshot shipped with the segment (may be empty).

        Loaded lazily and memoized on the payload instance — the instance
        lives for the whole worker process, so the pickle is read once
        per worker, not once per job.
        """
        if not self.snapshot_file:
            return {}
        if self._loaded_snapshots is None:
            try:
                with open(self.snapshot_file, "rb") as handle:
                    self._loaded_snapshots = pickle.load(handle)
            except Exception as error:  # noqa: BLE001 - torn/empty/foreign file
                # the snapshot only warms caches: any unreadable file
                # (missing, empty, truncated mid-write) is a cold start
                logger.warning(
                    "unreadable worker cache snapshot %s (%s: %s); starting cold",
                    self.snapshot_file, type(error).__name__, error,
                )
                self._loaded_snapshots = {}
        return self._loaded_snapshots


class _FlagRaiser:
    """Raises one slot of a shared cancellation-flag array (parent side)."""

    def __init__(self, flags: Any, index: int) -> None:
        self._flags = flags
        self._index = index

    def __call__(self) -> None:
        self._flags[self._index] = 1


def _unpack_payload(payload: Any) -> Tuple[ArtifactStore, NetSynConfig, Dict[str, dict]]:
    """Store/config/snapshots from either payload shape (tuple or shared)."""
    if hasattr(payload, "raise_"):  # PayloadResolutionError from the initializer
        payload.raise_()
    if isinstance(payload, SharedWorkerPayload):
        return payload.store, payload.config, payload.cache_snapshots()
    store, config = payload
    return store, config, {}


class _EventEmitter:
    """Streams one job's events to the parent's pump (the worker side).

    Every event is enriched with the job id and streamed to the parent's
    pump thread through ``queue`` *before* the cancellation flag is
    polled, so the event that triggered a cancellation is observed by the
    parent exactly as it is on the serial path.  ``"finished"`` events
    never cancel (mirroring the serial listener: by then the result
    exists and discarding it would waste the run).

    With ``batch_size > 1`` events are coalesced into one
    ``queue.put_many``-style put of a list (the queue-backpressure
    fallback: one pickle + one lock round-trip per batch instead of per
    event).  The buffer is flushed when full, when an event arrives more
    than ``flush_interval`` after the previous flush (the check runs at
    emission time — there is no timer thread, so a buffered event can
    wait out at most one silent generation), before a cancellation is
    raised, and at job end (:meth:`flush` in the worker's ``finally``) —
    per-job stream order and completeness are identical to the unbatched
    path.
    """

    def __init__(
        self,
        job_index: int,
        job_id: str,
        queue: Any,
        flags: Any,
        batch_size: int = 1,
        flush_interval: float = 0.05,
    ) -> None:
        self.job_index = job_index
        self.job_id = job_id
        self.queue = queue
        self.flags = flags
        self.batch_size = max(1, int(batch_size))
        self.flush_interval = flush_interval
        self.emitted = 0
        self._buffer: List[ProgressEvent] = []
        self._last_flush = time.monotonic()

    def _put(self, item: Any, count: int) -> None:
        """One guarded queue put; a broken event pipe disables streaming.

        ``emitted`` counts only events that actually reached the queue —
        it is the exact number the parent's settle phase waits for, so a
        mid-job streaming failure must not inflate it.  The job itself
        keeps running: losing observability is strictly better than
        losing the result.
        """
        if self.queue is None:
            return
        try:
            faults.fire("event_put", target=self.job_id)
            self.queue.put(item)
            self.emitted += count
        except OSError as error:
            logger.warning(
                "event stream broken for %s (%s); job continues unstreamed",
                self.job_id, error,
            )
            self.queue = None
            self._buffer = []

    def flush(self) -> None:
        """Put the coalesced buffer on the queue (no-op when empty)."""
        if self._buffer:
            buffer, self._buffer = self._buffer, []
            self._put((self.job_index, buffer), len(buffer))
        self._last_flush = time.monotonic()

    def __call__(self, event: ProgressEvent) -> None:
        event.job_id = self.job_id
        if self.queue is not None:
            if self.batch_size <= 1:
                self._put((self.job_index, event), 1)
            else:
                self._buffer.append(event)
                if (
                    len(self._buffer) >= self.batch_size
                    or time.monotonic() - self._last_flush >= self.flush_interval
                ):
                    self.flush()
        if (
            self.flags is not None
            and self.flags[self.job_index]
            and event.kind != "finished"
        ):
            if self.queue is not None:
                self.flush()
            raise JobCancelled(self.job_id)


def _run_service_job(spec: _ServiceJobSpec) -> _ServiceJobOutcome:
    """Execute one job in a worker process (or serially as a fallback).

    Backends are built lazily per worker and cached per (method, length),
    mirroring the session's own backend cache, so parallel results are
    byte-identical to serial ones — seeds travel with the spec, never
    with the worker.  Progress events stream back through the runner's
    event queue, the shared cancellation flag is honored both before the
    job starts and at every emitted event, and cache entries added by
    the job (NN-score and evaluation memos) are returned as a snapshot
    delta for the parent to merge.  Failures are returned, not raised,
    so one broken job cannot take down its worker (matching the serial
    path's per-job isolation).
    """
    from repro.baselines.registry import build_backend

    (
        job_index, job_id, method, length, task, seed, budget_limit,
        progress_every, event_batch_size,
    ) = spec
    queue = worker_event_queue()
    flags = worker_cancel_flags()
    emitter = _EventEmitter(
        job_index, job_id, queue, flags, batch_size=event_batch_size
    )
    backend = None
    version_before = 0
    try:
        if flags is not None and flags[job_index]:
            # cancelled before the worker even started the job: don't pay
            # for a single generation (the flag was raised parent-side)
            return ("cancelled", None, None, 0, None)
        payload = worker_payload()
        store, config, snapshots = _unpack_payload(payload)
        if _WORKER_BACKENDS.get("__store__") is not store:
            _WORKER_BACKENDS.clear()
            _WORKER_BACKENDS["__store__"] = store
        key = (method, length)
        backend = _WORKER_BACKENDS.get(key)
        if backend is None:
            backend = build_backend(method, store, config, program_length=length)
            snapshot = snapshots.get(_snapshot_key(method, length))
            if snapshot and hasattr(backend, "load_cache_snapshot"):
                backend.load_cache_snapshot(snapshot)
            _WORKER_BACKENDS[key] = backend
        # the session's L2 shared score table (when enabled): attach it
        # before solving so mid-job forwards publish to — and read from —
        # the table every sibling worker shares
        table = getattr(payload, "score_table", None)
        if table is not None and hasattr(backend, "attach_score_table"):
            backend.attach_score_table(table)
        # mirror the session's own backend setup: the configured event
        # cadence (which is also the budget-hook cancellation cadence)
        # must reach worker backends, not just local ones
        backend.progress_every = progress_every
        if hasattr(backend, "begin_cache_delta"):
            backend.begin_cache_delta()
        version_before = getattr(backend, "cache_version", lambda: 0)()
        result = backend.solve(
            task,
            budget=SearchBudget(limit=budget_limit),
            seed=seed,
            listener=emitter,
        )
    except JobCancelled:
        return ("cancelled", None, None, emitter.emitted, _worker_cache_delta(backend, version_before))
    except Exception as error:  # noqa: BLE001 - job isolation boundary
        return ("failed", None, f"{type(error).__name__}: {error}", emitter.emitted, None)
    finally:
        emitter.flush()
    return ("ok", result, None, emitter.emitted, _worker_cache_delta(backend, version_before))


def _worker_cache_delta(backend: Any, version_before: int) -> Optional[dict]:
    """The entries this job added to the worker backend's caches.

    The merge-back payload for the parent session.  Jobs that ran fully
    warm (every score and evaluation already cached) ship nothing; jobs
    that did work ship only the dirty entries written since the job's
    ``begin_cache_delta()`` window opened — the payload scales with the
    job's new work, not with the cache capacity.  Merging is idempotent:
    every cached value is a deterministic function of its structural key.
    """
    if backend is None or not hasattr(backend, "cache_snapshot"):
        return None
    if getattr(backend, "cache_version", lambda: 0)() == version_before:
        return None
    if hasattr(backend, "begin_cache_delta"):
        delta = backend.cache_snapshot(dirty_only=True)
    else:
        delta = backend.cache_snapshot()
    if delta and getattr(backend, "score_table", None) is not None:
        # L2 is live: every score this job computed is already published
        # in the shared table, and the parent reads its misses from there
        # — don't also ship them through the result pickle
        delta.pop("scores", None)
    return delta or None


class SynthesisSession:
    """A warm set of Phase-1 artifacts serving many synthesis jobs."""

    def __init__(
        self,
        config: NetSynConfig,
        store: ArtifactStore,
        methods: Sequence[str],
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config
        self.store = store
        self.methods = tuple(methods)
        self.service_config = service_config or ServiceConfig()
        self.jobs: List[SynthesisJob] = []
        self._backends: Dict[Tuple[str, Optional[int]], SynthesisBackend] = {}
        self._listeners: List[ProgressListener] = []
        self._next_job_number = 0
        self._shared_dir: Optional[Path] = None
        self._shared_packed = False
        #: the session's L2 shared mmap score table (created lazily by the
        #: first parallel run over shared weights);
        #: the parent attaches it too, so score misses after a parallel
        #: run are read from the table instead of shipped in job deltas
        self._score_table: Any = None
        #: the L4 network score tier (created lazily from
        #: ServiceConfig.remote_score_cache, or attached explicitly via
        #: :meth:`attach_remote_score_tier`); None keeps the session
        #: fully local.  Only the parent process consults it — workers
        #: share through the L2 table and per-job deltas as before.
        self._remote_tier: Any = None
        # Persisted warm caches: snapshots written by a previous process
        # next to the artifacts, keyed by model hash (stale snapshots are
        # discarded by ArtifactStore.load_caches).  Applied lazily as
        # backends are built.
        self._cache_snapshots: Dict[str, dict] = {}
        #: cache-write version at the last persisted snapshot (None =
        #: never persisted this session), so fully-warm runs skip the
        #: model re-hash and full cache re-pickle entirely
        self._persisted_version: Optional[int] = None
        #: recovery events observed before any listener could attach
        #: (e.g. corrupt L3 segments skipped while loading warm caches);
        #: flushed to session listeners at the next :meth:`run`
        self.startup_events: List[ProgressEvent] = []
        if self.service_config.persist_caches and self.service_config.artifact_dir:
            self._cache_snapshots = self.store.load_caches(
                self.service_config.artifact_dir,
                on_skip=self._record_skipped_segment,
            )
            if self._cache_snapshots:
                logger.info(
                    "warm caches: loaded %d persisted snapshot(s) from %s",
                    len(self._cache_snapshots),
                    self.service_config.artifact_dir,
                )

    # ------------------------------------------------------------------
    def _record_skipped_segment(self, name: str, reason: str) -> None:
        """Remember a corrupt/truncated L3 segment skipped during load."""
        logger.warning("cache log: skipped segment %s (%s)", name, reason)
        self.startup_events.append(
            ProgressEvent(kind="cache_segment_skipped", reason=f"{name}: {reason}")
        )

    def add_listener(self, listener: ProgressListener) -> None:
        """Attach a session-wide progress-event consumer."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    @property
    def remote_score_tier(self) -> Any:
        """The attached L4 network score tier (None when fully local)."""
        return self._remote_tier

    def attach_remote_score_tier(self, remote: Any) -> None:
        """Attach an L4 network score tier to this session.

        Every already-built backend (and every backend built later)
        falls through to ``remote`` on local score-cache misses and
        pushes computed scores back.  Values are deterministic per
        structural key, so attaching a tier never changes results.  The
        server side of ``repro.serving`` uses this to publish its own
        session's scores into the served score pool.
        """
        self._remote_tier = remote
        for backend in self._backends.values():
            if hasattr(backend, "attach_remote_tier"):
                backend.attach_remote_tier(remote)

    def _resolve_remote_tier(self) -> Any:
        """The session's L4 tier, built on first use from the config.

        The import is deferred so ``repro.core`` never depends on
        ``repro.serving`` unless a remote cache is actually configured
        (the serving package imports back into core).
        """
        if self._remote_tier is None and self.service_config.remote_score_cache:
            from repro.serving.cache_tier import RemoteScoreTier

            self._remote_tier = RemoteScoreTier(self.service_config.remote_score_cache)
        return self._remote_tier

    def backend(self, method: str, program_length: Optional[int] = None) -> SynthesisBackend:
        """The cached backend for ``method`` (built and bound on first use)."""
        from repro.baselines.registry import build_backend

        key = (method, program_length)
        backend = self._backends.get(key)
        if backend is None:
            backend = build_backend(
                method, self.store, self.config, program_length=program_length
            )
            backend.progress_every = self.service_config.progress_every
            snapshot = self._cache_snapshots.get(_snapshot_key(method, program_length))
            if snapshot and hasattr(backend, "load_cache_snapshot"):
                backend.load_cache_snapshot(snapshot)
            if self._score_table is not None and hasattr(backend, "attach_score_table"):
                backend.attach_score_table(self._score_table)
            remote = self._resolve_remote_tier()
            if remote is not None and hasattr(backend, "attach_remote_tier"):
                backend.attach_remote_tier(remote)
            if hasattr(backend, "begin_cache_delta"):
                # persisted-snapshot loads count as writes; open a fresh
                # dirty window so the next L3 segment holds only entries
                # this session actually computes (or merges from workers)
                backend.begin_cache_delta()
            self._backends[key] = backend
        return backend

    # ------------------------------------------------------------------
    def submit(
        self,
        task: SynthesisTask,
        method: Optional[str] = None,
        budget: Union[SearchBudget, int, None] = None,
        seed: int = 0,
        program_length: Optional[int] = None,
        job_id: Optional[str] = None,
    ) -> SynthesisJob:
        """Enqueue one synthesis job (state ``PENDING``).

        ``budget`` may be a candidate count or a ``SearchBudget``; it
        defaults to the configuration's ``max_search_space``.  Jobs run
        when :meth:`run` is called (or :meth:`run_job` for one job).
        A budget or ``program_length`` below 1 raises ``ValueError``.

        ``job_id`` lets a caller re-admit a recovered job under its
        original id (the serving journal does this after a server
        restart); the default ``job-N`` counter always continues past any
        explicit id of that shape, so fresh ids never collide.
        """
        method = method or self.methods[0]
        if method not in self.methods:
            raise KeyError(
                f"method {method!r} is not part of this session; opened with {self.methods}"
            )
        if isinstance(budget, SearchBudget):
            limit = budget.limit
        elif budget is None:
            limit = self.config.max_search_space
        else:
            limit = int(budget)
        # reject here, not at run time: a job that cannot build its
        # SearchBudget would abort the whole run() batch it lands in
        if limit < 1:
            raise ValueError(f"budget must be a positive candidate count, got {limit}")
        if program_length is not None and program_length < 1:
            raise ValueError(f"program_length must be positive, got {program_length}")
        if job_id is None:
            self._next_job_number += 1
            job_id = f"job-{self._next_job_number}"
        else:
            match = re.fullmatch(r"job-(\d+)", job_id)
            if match:
                self._next_job_number = max(
                    self._next_job_number, int(match.group(1))
                )
        job = SynthesisJob(
            job_id=job_id,
            method=method,
            task=task,
            seed=seed,
            budget_limit=limit,
            program_length=program_length,
        )
        self.jobs.append(job)
        return job

    # ------------------------------------------------------------------
    def _record_events(self, job: SynthesisJob, events: Sequence[ProgressEvent]) -> None:
        """Append ``events`` to the job, keeping the most recent
        ``max_events_per_job`` of them."""
        job.events.extend(events)
        excess = len(job.events) - self.service_config.max_events_per_job
        if excess > 0:
            del job.events[:excess]

    def _job_listener(self, job: SynthesisJob) -> ProgressListener:
        """Record events on the job, fan out to session listeners, and
        honor cooperative cancellation."""

        def listener(event: ProgressEvent) -> None:
            event.job_id = job.job_id
            self._record_events(job, (event,))
            for session_listener in self._listeners:
                session_listener(event)
            # honor cancellation at every event except "finished": by then
            # the result exists, and discarding it would waste the run
            if job._cancel_requested and event.kind != "finished":
                raise JobCancelled(job.job_id)

        return listener

    def run_job(self, job: SynthesisJob) -> SynthesisJob:
        """Execute one pending job to a terminal state (serial path)."""
        if job.state is not JobState.PENDING:
            return job
        if job._cancel_requested:
            # cancel requested before the job ever started (e.g. from a
            # listener thread racing the PENDING->RUNNING transition):
            # honor it here instead of paying for a generation and
            # cancelling at the first progress event
            job.state = JobState.CANCELLED
            return job
        job.state = JobState.RUNNING
        budget = SearchBudget(limit=job.budget_limit)
        try:
            result = self.backend(job.method, job.program_length).solve(
                job.task, budget=budget, seed=job.seed, listener=self._job_listener(job)
            )
        except JobCancelled:
            job.state = JobState.CANCELLED
            logger.info("job %s cancelled after %d candidates", job.job_id, budget.used)
            return job
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            job.state = JobState.FAILED
            job.error = f"{type(error).__name__}: {error}"
            logger.warning("job %s failed: %s", job.job_id, job.error)
            return job
        self._finish(job, result)
        return job

    def _finish(self, job: SynthesisJob, result: SynthesisResult) -> None:
        job.result = result
        job.state = JobState.SOLVED if result.found else JobState.EXHAUSTED

    # ------------------------------------------------------------------
    def _shared_directory(self) -> Path:
        """The directory holding the shared weight segment for workers."""
        if self._shared_dir is None:
            configured = self.service_config.shared_dir or self.service_config.artifact_dir
            if configured:
                self._shared_dir = Path(configured)
            else:
                self._shared_dir = Path(tempfile.mkdtemp(prefix="netsyn-shared-"))
                atexit.register(shutil.rmtree, str(self._shared_dir), ignore_errors=True)
        return self._shared_dir

    def _worker_payload(self) -> Any:
        """Build the cross-process payload for a parallel run.

        With ``shared_weights`` the trained models are persisted once
        (``weights.npz``), packed into a flat mmap-able segment, and only
        a path descriptor crosses the process boundary — each worker
        attaches the segment read-only instead of unpickling its own
        model copies.  The session backends' score/evaluation caches are
        snapshotted next to it (structural keys are process-stable) so
        workers start warm.  Falls back to pickling ``(store, config)``
        when shared serving is disabled.
        """
        if not self.service_config.shared_weights or not self.store.names():
            # nothing trained to share (e.g. an artifact-free edit/oracle
            # session): ship the store directly, it is empty or tiny
            return (self.store, self.config)
        directory = self._shared_directory()
        if not self._shared_packed:
            self.store.save(directory)
            self.store.pack_shared(directory)
            self._shared_packed = True
        snapshot_file = None
        snapshots = {
            _snapshot_key(method, length): snapshot
            for (method, length), backend in self._backends.items()
            for snapshot in [getattr(backend, "cache_snapshot", lambda: None)()]
            if snapshot
        }
        if snapshots:
            snapshot_file = str(_pickle_atomically(directory / _CACHE_SNAPSHOT, snapshots))
        return SharedWorkerPayload(
            directory=str(directory),
            config=self.config,
            names=self.store.names(),
            snapshot_file=snapshot_file,
            score_table_file=self._score_table_file(directory),
            token=_segment_token(str(directory)),
        )

    def _score_table_file(self, directory: Path) -> str:
        """Create/attach the session's L2 shared score table.

        The table lives next to the packed weight segment, keyed by the
        store's model hash: :meth:`SharedScoreTable.ensure` recreates a
        table left behind by a session over different weights, because
        cached scores are functions of the model.  The parent attaches
        the same table it hands the workers — after a parallel run its
        own L1 misses are answered from L2 instead of requiring workers
        to ship score deltas through the result pickle.
        """
        if self._score_table is None:
            from repro.execution.shared_table import SHARED_SCORES_BIN, SharedScoreTable

            self._score_table = SharedScoreTable.ensure(
                directory / SHARED_SCORES_BIN,
                n_slots=self.service_config.table_slots,
                model_hash=self.store.model_hash(),
            )
            for backend in self._backends.values():
                if hasattr(backend, "attach_score_table"):
                    backend.attach_score_table(self._score_table)
        return str(self._score_table.path)

    # ------------------------------------------------------------------
    def _pump_events(
        self,
        queue: Any,
        pending: Sequence[SynthesisJob],
        received: List[int],
        on_control: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        """Drain the workers' event queue live (runs on a daemon thread).

        Each item is ``(job_index, event)``; events are recorded on the
        job and fanned out to session listeners exactly like the serial
        path, while the main thread blocks in the supervisor.  A listener
        raising :class:`JobCancelled` requests cancellation of that job
        (serial semantics translated to the remote flag); any other
        listener exception is logged and swallowed — the pump must keep
        draining or the run would lose events.  A ``None`` sentinel
        (posted by :meth:`run` after all expected events arrived) stops
        the pump.

        Items with a negative job index are **control events** (worker
        heartbeats): they are routed to
        ``on_control`` and never recorded on a job or fanned to listeners
        — per-job streams stay identical to serial runs.  The blocking
        get runs under a short timeout so the pump stays responsive (and
        can never be parked forever on a queue whose writers all died);
        termination is still sentinel-driven.
        """
        from queue import Empty

        stop = False
        while not stop:
            try:
                items = [queue.get(timeout=0.25)]
            except Empty:
                continue
            # batched drain: grab whatever else already crossed the queue
            # before fanning out, so a bursty producer costs one wakeup
            # per burst instead of one per event
            for _ in range(256):
                try:
                    items.append(queue.get_nowait())
                except Empty:
                    break
            for item in items:
                if item is None:
                    stop = True
                    continue
                job_index, payload = item
                if job_index < 0:
                    if on_control is not None and isinstance(payload, ProgressEvent):
                        try:
                            on_control(payload)
                        except Exception:  # noqa: BLE001 - pump must survive
                            logger.exception("control-event handler failed")
                    continue
                # a worker with event batching on puts a coalesced list
                events = payload if isinstance(payload, list) else [payload]
                job = pending[job_index]
                self._record_events(job, events)
                received[job_index] += len(events)
                for event in events:
                    for session_listener in self._listeners:
                        try:
                            session_listener(event)
                        except JobCancelled:
                            job.cancel()
                        except Exception:  # noqa: BLE001 - pump must survive listeners
                            logger.exception("session listener failed on %s", event.kind)

    def _settle_event_stream(
        self,
        queue: Any,
        pump: threading.Thread,
        received: List[int],
        expected: List[int],
        timeout: float = 30.0,
    ) -> None:
        """Wait until every streamed event reached the pump, then stop it.

        The supervisor returning only proves the *results* arrived; events
        travel on a separate queue whose feeder threads may still be
        flushing.  Workers report how many events they emitted per job,
        so the parent waits for exactly that many before posting the
        pump's stop sentinel — making ``run()``'s post-condition "every
        event observable" deterministic rather than racy.
        """
        deadline = time.monotonic() + timeout
        while any(got < want for got, want in zip(received, expected)):
            if time.monotonic() > deadline:  # pragma: no cover - defensive
                logger.warning(
                    "event stream incomplete after %.0fs: received %s of %s",
                    timeout, received, expected,
                )
                break
            time.sleep(0.001)
        queue.put(None)
        pump.join(timeout=5.0)

    def run(
        self,
        jobs: Optional[Sequence[SynthesisJob]] = None,
        n_workers: Optional[int] = None,
    ) -> List[SynthesisJob]:
        """Execute pending jobs, serially (in submission order) or in parallel.

        With ``n_workers > 1`` the pending jobs fan out over supervised
        worker processes (retries, heartbeats, deadlines and serial
        degradation — see :mod:`repro.core.supervisor`); results (and
        the order of the returned list) are identical to a serial run.
        Worker-side progress events stream back live through a
        multiprocessing queue drained by a pump thread, so session
        listeners observe remote jobs per-generation exactly like local
        ones; ``job.cancel()`` reaches running workers through a shared
        cancellation flag, and cache entries computed by workers are
        merged back into this session's backends when each job
        completes.  With a configured ``artifact_dir`` the merged caches
        are persisted for later sessions (``ServiceConfig.persist_caches``).
        """
        if self.service_config.fault_plan is not None:
            # the parent's own instrumented sites (l3_append, table_attach)
            # must observe the plan on serial runs too
            faults.install(self.service_config.fault_plan, role="parent")
        self._flush_startup_events()
        pending = [j for j in (jobs if jobs is not None else self.jobs) if j.state is JobState.PENDING]
        n_workers = self.service_config.n_workers if n_workers is None else int(n_workers)
        if n_workers > 1 and len(pending) > 1:
            self._run_supervised(pending, n_workers)
        else:
            for job in pending:
                self.run_job(job)
        self._persist_caches()
        return pending

    def _flush_startup_events(self) -> None:
        """Deliver pre-listener recovery events (once) to session listeners."""
        if not self.startup_events:
            return
        events, self.startup_events = self.startup_events, []
        for event in events:
            for session_listener in self._listeners:
                try:
                    session_listener(event)
                except Exception:  # noqa: BLE001 - startup flush must not fail the run
                    logger.exception("session listener failed on %s", event.kind)

    def _prepare_fan_out(
        self, pending: List[SynthesisJob], context: Any
    ) -> Tuple[Any, List[_ServiceJobSpec], List[int]]:
        """Fan-out setup: cancel flags, specs, state transitions."""
        # one shared byte per job: the parent raises it, workers poll it
        # at every emitted event (no lock needed for a monotonic flag)
        flags = context.Array("b", len(pending), lock=False)
        specs: List[_ServiceJobSpec] = [
            (index, job.job_id, job.method, job.program_length, job.task, job.seed,
             job.budget_limit, self.service_config.progress_every,
             self.service_config.event_batch_size)
            for index, job in enumerate(pending)
        ]
        received = [0] * len(pending)
        for index, job in enumerate(pending):
            if job.state is not JobState.PENDING:
                # cancelled between collecting the pending list and this
                # fan-out: keep the terminal state and make sure the
                # worker never runs the job
                flags[index] = 1
                continue
            job.state = JobState.RUNNING
            job._remote_cancel = _FlagRaiser(flags, index)
            if job._cancel_requested:  # cancelled between submit and fan-out
                flags[index] = 1
        return flags, specs, received

    def _supervision_listener(
        self, pending: List[SynthesisJob]
    ) -> Callable[[ProgressEvent], None]:
        """Consumer for the supervisor's recovery events.

        Job-scoped events (retries, quarantines, deadlines) are recorded
        on the job like any of its own events; all supervision events fan
        out to session listeners.  A listener raising
        :class:`JobCancelled` on a supervision event cancels that job.
        """
        by_id = {job.job_id: job for job in pending}

        def listener(event: ProgressEvent) -> None:
            job = by_id.get(event.job_id)
            if job is not None:
                self._record_events(job, (event,))
            for session_listener in self._listeners:
                try:
                    session_listener(event)
                except JobCancelled:
                    if job is not None:
                        job.cancel()
                except Exception:  # noqa: BLE001 - supervision must survive listeners
                    logger.exception("session listener failed on %s", event.kind)

        return listener

    def _run_supervised(self, pending: List[SynthesisJob], n_workers: int) -> None:
        """Supervised fan-out: retries, heartbeats, deadlines, degradation."""
        context = multiprocessing.get_context()
        queue = context.Queue()
        flags, specs, received = self._prepare_fan_out(pending, context)
        supervisor = WorkerSupervisor(
            n_workers=n_workers,
            config=self.service_config,
            seed=self.config.seed,
            payload=self._worker_payload(),
            event_queue=queue,
            cancel_flags=flags,
            emit=self._supervision_listener(pending),
            context=context,
        )
        pump = threading.Thread(
            target=self._pump_events,
            args=(queue, pending, received),
            kwargs={"on_control": supervisor.observe_control},
            name="netsyn-event-pump",
            daemon=True,
        )
        pump.start()
        outcomes = None
        try:
            outcomes = supervisor.run(specs)
        finally:
            for job in pending:
                job._remote_cancel = None
            if outcomes is not None:
                # a job's final attempt flushed its events before its
                # outcome message, so n_events is a guaranteed floor;
                # earlier crashed attempts may have streamed more
                # (received can exceed it) and hard-killed workers may
                # have streamed fewer (their outcome reports 0)
                expected = [
                    received[index]
                    if outcome.status == "pending_serial"
                    else max(outcome.n_events, received[index])
                    for index, outcome in enumerate(outcomes)
                ]
            else:
                expected = [0] * len(pending)
            self._settle_event_stream(queue, pump, received, expected)
        serial_rerun: List[SynthesisJob] = []
        for job, outcome in zip(pending, outcomes):
            if outcome.cache_delta:
                backend = self.backend(job.method, job.program_length)
                if hasattr(backend, "load_cache_snapshot"):
                    backend.load_cache_snapshot(outcome.cache_delta)
            if outcome.status == "pending_serial":
                # the pool degraded before this job finished: hand it to
                # the serial path below (same backend, same seed — the
                # result is what the worker would have produced)
                job.state = JobState.PENDING
                serial_rerun.append(job)
            elif outcome.status == "cancelled":
                job.state = JobState.CANCELLED
                logger.info("job %s cancelled in worker", job.job_id)
            elif outcome.status != "ok" or outcome.result is None:
                job.state = JobState.FAILED
                job.error = outcome.error
                job.failure = outcome.failure
                logger.warning("job %s failed: %s", job.job_id, job.error)
                if outcome.failure is not None:
                    # the worker died (or was killed) before it could
                    # flush a terminal event: synthesize one so the job's
                    # stream still settles with an observable ending
                    self._supervision_listener([job])(
                        ProgressEvent(
                            kind="failed",
                            method=job.method,
                            task_id=job.task.task_id,
                            job_id=job.job_id,
                            attempt=outcome.attempts,
                            reason=outcome.failure.kind,
                        )
                    )
            else:
                self._finish(job, outcome.result)
        for job in serial_rerun:
            self.run_job(job)

    # ------------------------------------------------------------------
    def solve(
        self,
        task: SynthesisTask,
        method: Optional[str] = None,
        budget: Union[SearchBudget, int, None] = None,
        seed: int = 0,
        listener: Optional[ProgressListener] = None,
    ) -> SynthesisResult:
        """Submit-and-run convenience for interactive use.

        Raises the job's error (or :class:`~repro.events.JobCancelled`)
        instead of returning a failed job, so callers get either a
        result or an exception.
        """
        job = self.submit(task, method=method, budget=budget, seed=seed)
        if listener is not None:
            self.add_listener(listener)
            try:
                self.run_job(job)
            finally:
                self._listeners.remove(listener)
        else:
            self.run_job(job)
        if job.state is JobState.FAILED:
            raise RuntimeError(f"synthesis job failed: {job.error}")
        if job.state is JobState.CANCELLED:
            raise JobCancelled(job.job_id)
        assert job.result is not None
        return job.result

    def save_artifacts(self, directory) -> None:
        """Persist this session's trained artifacts for later warm starts."""
        self.store.save(directory)

    # ------------------------------------------------------------------
    def save_caches(self, directory=None) -> Optional[Path]:
        """Append this session's new cache entries to the L3 cache log.

        Each call appends one segment under ``<directory>/cache_log/``
        (defaulting to the configured ``artifact_dir``) holding only the
        entries written since the previous persist — the dirty windows
        of every built backend — never the whole accumulated cache.  The
        log is keyed by the store's model hash; entries loaded
        from disk by earlier sessions stay in the log untouched, so
        sessions serving different (method, length) pairs against one
        artifact directory accumulate naturally.  Returns the appended
        segment's path, or None when there is nowhere to write or
        nothing new to save.
        """
        directory = directory or self.service_config.artifact_dir
        if not directory:
            return None
        deltas: Dict[str, dict] = {}
        for (method, length), backend in self._backends.items():
            if not hasattr(backend, "cache_snapshot"):
                continue
            if hasattr(backend, "begin_cache_delta"):
                delta = backend.cache_snapshot(dirty_only=True)
            else:
                delta = backend.cache_snapshot()
            if delta:
                deltas[_snapshot_key(method, length)] = delta
        if not deltas:
            return None
        path = self.store.save_caches(
            directory,
            deltas,
            compact_threshold=self.service_config.cache_log_compact_threshold,
        )
        # the appended entries are durable now: open fresh dirty windows
        # so the next segment only carries work done after this point
        for backend in self._backends.values():
            if hasattr(backend, "begin_cache_delta"):
                backend.begin_cache_delta()
        return path

    def _caches_version(self) -> int:
        """Combined cache-write version of every built backend."""
        return sum(
            getattr(backend, "cache_version", lambda: 0)()
            for backend in self._backends.values()
        )

    def _persist_caches(self) -> None:
        """Append an L3 segment after a run when the configuration asks.

        Skipped when no backend wrote a cache entry since the last save —
        a fully-warm ``run()`` costs no model re-hash and no pickling at
        all.  The appended segment holds only this run's dirty entries
        (see :meth:`save_caches`), so persist cost scales with new work,
        not with the accumulated cache size.
        """
        if not (self.service_config.persist_caches and self.service_config.artifact_dir):
            return
        version = self._caches_version()
        if version == self._persisted_version:
            return
        try:
            self.save_caches(self.service_config.artifact_dir)
            self._persisted_version = version
        except OSError as error:  # pragma: no cover - disk-full etc.
            logger.warning("could not persist cache snapshots: %s", error)


class SynthesisService:
    """Entry point: opens warm-startable sessions over trained artifacts."""

    def __init__(
        self,
        config: Optional[NetSynConfig] = None,
        service_config: Optional[ServiceConfig] = None,
        verbose: bool = False,
    ) -> None:
        self.config = config or NetSynConfig()
        self.config.validate()
        self.service_config = service_config or ServiceConfig()
        self.service_config.validate()
        self.verbose = verbose

    # ------------------------------------------------------------------
    def open_session(
        self,
        methods: Sequence[str] = ("netsyn_cf",),
        store: Optional[ArtifactStore] = None,
    ) -> SynthesisSession:
        """Load-or-train the Phase-1 artifacts for ``methods`` and return a
        session serving them.

        With a configured ``artifact_dir``, previously saved artifacts are
        loaded instead of retrained (warm start) and newly trained ones
        are persisted, so a second process opens the same session without
        paying for Phase 1 again.
        """
        from repro.baselines.registry import ensure_artifacts, required_artifacts

        service_config = self.service_config
        needed = sorted(required_artifacts(methods))
        if store is None:
            store = ArtifactStore()
            if service_config.artifact_dir and ArtifactStore.saved_at(
                service_config.artifact_dir
            ):
                store = ArtifactStore.load(service_config.artifact_dir, names=needed)
                logger.info(
                    "warm start: loaded %s from %s", store.names(), service_config.artifact_dir
                )
        missing = store.missing(needed)
        ensure_artifacts(store, self.config, methods=methods, verbose=self.verbose)
        if service_config.artifact_dir and missing:
            store.save(service_config.artifact_dir)
            logger.info("saved artifacts %s to %s", store.names(), service_config.artifact_dir)
        return SynthesisSession(
            self.config, store, methods=methods, service_config=service_config
        )
