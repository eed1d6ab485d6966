"""The session-lifetime supervised worker pool.

A bare ``multiprocessing.Pool.map`` has no failure story: a worker
killed mid-job (OOM, segfault, SIGKILL) loses its task forever and the
map blocks until the end of time, a job that reliably crashes its worker
is retried nowhere, and a job that silently spins can only be stopped by
killing the whole run.  :class:`WorkerSupervisor` runs explicitly
managed worker processes instead, keeps them for the lifetime of the
:class:`~repro.core.service.SynthesisSession` that owns it, and adds the
failure discipline a serving layer needs:

* **Lifetime.**  The pool is built at a session's first parallel
  ``run()`` (never at session or server start).  Its workers keep their
  backends, L1 caches and persistent tries between runs; every later
  run hands its specs to the same workers.  The pump thread and the
  cancel-flag array live as long as the pool; a flag slot is cleared
  before a new job reuses it.  The session closes
  the pool (``SynthesisSession.close()``, its context manager, or a
  finalizer when it is garbage-collected) and rebuilds it when
  ``n_workers`` changes or after a run that degraded to serial.
* **Shipping.**  Every worker gets one payload, ``(store, config,
  snapshots, service_config)`` from :func:`_worker_payload`: the trained
  weights, the session's warm-cache snapshots and its service config
  without ``artifact_dir``, in memory.  A forked worker inherits
  it; under ``spawn`` it is pickled once per worker.  Each job spec then
  carries only the cache entries merged back from earlier jobs on the
  *same task* — the keys of every memo cache embed the task's
  structural io key, so entries of other tasks could never hit
  (:class:`_TaskCacheRouter`).
* **Channels.**  The parent hands each spec to one idle worker through
  that worker's own task queue, so it always knows which worker holds
  which job: a job is never lost between a claim and its report.  Each
  worker sends its progress events, heartbeats and lifecycle messages
  over its own ordered channel (:class:`_Channel`), which the pump
  thread reads: a job's events are all delivered before its outcome,
  and a worker that dies — even mid-send — leaves no lock or half
  message that another worker's stream depends on.
* **Liveness.**  Every worker runs a daemon heartbeat thread that emits
  a ``"heartbeat"`` event through its channel every
  :data:`~repro.config.HEARTBEAT_INTERVAL` seconds; the supervisor
  watches process sentinels (a dead worker is detected within one tick)
  *and* heartbeat recency (a live-but-frozen worker is detected within
  ``heartbeat_timeout`` and hard-killed).  Heartbeat ages restart at
  every dispatch, so an idle gap between runs is never a hang, and a
  worker that died while idle is replaced at the next dispatch.
* **Retry with backoff.**  A job whose worker died is requeued after
  ``min(retry_backoff · 2^(attempt−1), RETRY_BACKOFF_MAX)`` seconds
  (:data:`~repro.config.RETRY_BACKOFF_MAX`), up to
  ``ServiceConfig.max_job_retries`` times.  The delay needs no
  jitter: a retry only waits for an idle worker of this pool, and its
  result depends only on its seed.  Job results are deterministic
  functions of their spec (seed travels with the job, never the worker),
  so a retried job that completes produces exactly the result the first
  attempt would have.
* **Quarantine.**  A poison job — one that kills every worker that runs
  it — exhausts its retries and ends ``failed`` with a structured
  :class:`FailureReport`; the run continues for every healthy job.
* **Deadlines.**  With ``ServiceConfig.job_deadline`` set, an overdue job
  is first cancelled cooperatively through the shared cancellation-flag
  array (the same flag ``job.cancel()`` raises); a worker that ignores
  the flag for :data:`DEADLINE_GRACE` seconds is hard-killed.  Either
  way the job ends ``failed`` with a ``deadline`` report — deadline
  overruns are not retried.
* **Degradation.**  When one run accumulates more than
  ``ServiceConfig.max_pool_crashes`` worker crashes, the supervisor
  stops feeding the pool, kills the survivors, and hands the remaining
  jobs back to the session to run serially in the parent
  (``"degraded_serial"``) — slower, but immune to whatever was killing
  the workers.  The next parallel run gets a fresh pool.

With no faults and default knobs the supervisor is pure bookkeeping on
the parent side.  Each worker builds one private
:class:`~repro.core.service.SynthesisSession` from the pool's payload
(:func:`_parallel_worker_init`), and :func:`_run_service_job` runs every
job through that session's :meth:`~repro.core.service.SynthesisSession.run_job`
— the serial path's own job runner, with the worker's event emitter as
the session's listener — so seeded parallel runs remain event-for-event
identical to serial ones.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import threading
import time
from collections import OrderedDict, deque
from multiprocessing.connection import wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.config
from repro.config import NetSynConfig, ServiceConfig
from repro.core.artifacts import ArtifactStore
from repro.core.result import SynthesisResult
from repro.core.service import JobState, SynthesisJob, SynthesisSession, _snapshot_key
from repro.data.tasks import SynthesisTask
from repro.events import JobCancelled, ProgressEvent
from repro.execution import faults
from repro.execution.cache import DEFAULT_MAX_ENTRIES, io_set_key
from repro.utils.logging import get_logger

logger = get_logger("core.supervisor")

#: supervisor poll tick: how often worker death / deadlines / heartbeats
#: are re-checked while waiting for results
_TICK = 0.02

#: cancel-flag slots of a new pool; a run with more jobs rebuilds the
#: pool with the next power of two
_FLAG_SLOTS = 256

#: seconds between a job's cooperative deadline cancel and the hard kill
#: of a worker that ignores it
DEADLINE_GRACE = 2.0


@dataclass
class FailureReport:
    """Structured post-mortem of a job the supervisor gave up on."""

    job_id: str
    #: "crash" (worker died, retries exhausted), "deadline" (wall-clock
    #: deadline exceeded), or "hung" (worker stopped heartbeating and the
    #: job's retries were exhausted)
    kind: str
    #: how many times the job was started in total
    attempts: int
    message: str = ""
    #: ids of the workers that died running this job, in order
    worker_ids: Tuple[int, ...] = ()
    #: wall-clock seconds from first start to the terminal decision
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "worker_ids": list(self.worker_ids),
            "elapsed": self.elapsed,
        }

    def __str__(self) -> str:
        return (
            f"{self.kind} after {self.attempts} attempt(s): {self.message}"
            if self.message
            else f"{self.kind} after {self.attempts} attempt(s)"
        )


@dataclass
class SupervisedOutcome:
    """Terminal per-job record the session applies after a supervised run."""

    #: the job's terminal state; ``PENDING`` when a degraded run hands
    #: the unfinished job back to the session's serial path
    state: JobState
    result: Optional[SynthesisResult] = None
    error: Optional[str] = None
    cache_delta: Optional[dict] = None
    failure: Optional[FailureReport] = None
    attempts: int = 1


#: picklable description of one job for the workers:
#: (dispatch_index, job_id, method, program_length, task, seed,
#:  budget_limit, cache_entries).
#: ``dispatch_index`` is unique over the pool's lifetime; the job's
#: cancel flag is slot ``dispatch_index % len(cancel_flags)``
_ServiceJobSpec = Tuple[
    int, str, str, Optional[int], SynthesisTask, int, int, Optional[dict]
]

#: what every worker is handed once: (store, config, warm-cache
#: snapshots keyed by ``_snapshot_key``, the pool's service config with
#: no ``artifact_dir``)
_WorkerPayload = Tuple[ArtifactStore, NetSynConfig, Dict[str, dict], ServiceConfig]

#: what a worker returns per job: (state, result, error, cache_delta)
_ServiceJobOutcome = Tuple[JobState, Optional[SynthesisResult], Optional[str], Optional[dict]]


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Per-process state installed by :func:`_parallel_worker_init` (under
#: ``fork`` the context is inherited; under ``spawn`` it travels via
#: pickling, which the DSL layer supports — see ``DSLFunction.__reduce__``).
_WORKER_STATE: Dict[str, Any] = {}

#: most events one coalesced put carries over a worker's channel
_EVENT_BATCH = 64

#: an event arriving this many seconds after the previous flush flushes
#: the buffer (checked at emission time; there is no timer thread)
_EVENT_FLUSH_S = 0.05


def _parallel_worker_init(
    seed: int, payload: _WorkerPayload, channel: Any = None, cancel_flags: Any = None
) -> None:
    """Initialize one worker: seed its RNGs and build its session.

    The global numpy RNG is seeded per worker (mixed with the PID) as a
    safety net for any library code that touches it; all repo components
    draw from explicitly seeded generators, which is what actually makes
    parallel results byte-identical to serial ones.

    ``payload`` is :func:`_worker_payload`'s ``(store, config,
    snapshots, service_config)``, inherited by a forked worker and
    pickled once for a spawned one.  It becomes the worker's private
    :class:`~repro.core.service.SynthesisSession`, which builds each
    backend on first use from the warm snapshots and keeps it — with its
    L1 caches and tries — for the worker's whole life.  Its service
    config has no ``artifact_dir``, so the worker never touches the
    parent's files.  ``channel`` (anything with ``put``: the worker's
    :class:`_Channel`, or a ``multiprocessing`` queue) and
    ``cancel_flags`` (a shared byte array of job slots) are the
    cross-process progress channel: :func:`_run_service_job` reads them
    back from ``_WORKER_STATE`` to stream ``ProgressEvent``\\ s to the
    parent and to observe cooperative cancellation requests while
    running.
    """
    np.random.seed((int(seed) * 1_000_003 + os.getpid()) % (2**32))
    store, config, snapshots, service_config = payload
    session = SynthesisSession(config, store, methods=(), service_config=service_config)
    # a copy: building a backend releases its snapshot from the session,
    # and replacement workers start from the pool's unchanged payload
    session._cache_snapshots = dict(snapshots)
    _WORKER_STATE["session"] = session
    _WORKER_STATE["channel"] = channel
    _WORKER_STATE["cancel_flags"] = cancel_flags


class _EventEmitter:
    """Streams one job's events to the parent's pump (the worker side).

    Every event is enriched with the job id and buffered; the buffer
    crosses the worker's ``channel`` as one ``(job_index, [events])``
    put, so a batch pays one pickle and one pipe write instead of one per
    event.  The buffer is flushed when it holds :data:`_EVENT_BATCH`
    events, when an event arrives :data:`_EVENT_FLUSH_S` or more after
    the previous flush (so a buffered event waits out at most one silent
    generation), before a cancellation is raised, and at job end
    (:meth:`flush` in the worker's ``finally``).  Per-job stream order
    and completeness are the serial listener's.

    The cancellation flag is polled after the event is buffered, and a
    cancellation flushes first, so the event that triggered it reaches
    the parent exactly as on the serial path.  ``"finished"`` events
    never cancel (mirroring the serial listener: by then the result
    exists and discarding it would waste the run).  The job's flag is
    slot ``job_index % len(flags)`` of the pool's flag array.
    """

    def __init__(self, job_index: int, job_id: str, channel: Any, flags: Any) -> None:
        self.job_index = job_index
        self.job_id = job_id
        self.channel = channel
        self.flags = flags
        self.slot = job_index % len(flags) if flags is not None else 0
        self._buffer: List[ProgressEvent] = []
        self._last_flush = time.monotonic()

    def flush(self) -> None:
        """Put the buffered events on the channel (no put when empty).

        A broken channel disables streaming for the rest of the job; the
        job itself keeps running: losing observability is strictly better
        than losing the result.
        """
        if self._buffer:
            batch, self._buffer = self._buffer, []
            try:
                faults.fire("event_put", target=self.job_id)
                self.channel.put((self.job_index, batch))
            except OSError as error:
                logger.warning(
                    "event stream broken for %s (%s); job continues unstreamed",
                    self.job_id, error,
                )
                self.channel = None
        self._last_flush = time.monotonic()

    def cancelled(self) -> bool:
        """Whether the parent raised this job's cancellation flag."""
        return self.flags is not None and bool(self.flags[self.slot])

    def __call__(self, event: ProgressEvent) -> None:
        event.job_id = self.job_id
        if self.channel is not None:
            self._buffer.append(event)
            if (
                len(self._buffer) >= _EVENT_BATCH
                or time.monotonic() - self._last_flush >= _EVENT_FLUSH_S
            ):
                self.flush()
        if event.kind != "finished" and self.cancelled():
            self.flush()
            raise JobCancelled(self.job_id)


def _run_service_job(spec: _ServiceJobSpec) -> _ServiceJobOutcome:
    """Execute one job in a worker process through its session's ``run_job``.

    The spec becomes a :class:`~repro.core.service.SynthesisJob` of the
    worker's session (:func:`_parallel_worker_init`) and runs through
    :meth:`~repro.core.service.SynthesisSession.run_job`, the serial
    path's job runner: the same backend build, event stream,
    cancellation and per-job failure isolation, so parallel results are
    byte-identical to serial ones — seeds travel with the spec, never
    with the worker.  Its listener is the job's :class:`_EventEmitter`,
    which streams the events back over the worker's channel and turns a
    raised cancellation flag into :class:`~repro.events.JobCancelled`; a
    flag raised before the job started cancels it unrun.

    The spec's cache entries (the merged entries of earlier jobs on the
    same task) are loaded before the job's delta window opens, so they
    are never shipped back.  Returns the job's terminal state, result and
    error, plus the entries the job added to its backend's caches
    (:func:`_worker_cache_delta`) for the parent to merge.
    """
    job_index, job_id, method, length, task, seed, budget_limit, entries = spec
    session: SynthesisSession = _WORKER_STATE["session"]
    emitter = _EventEmitter(
        job_index, job_id, _WORKER_STATE.get("channel"), _WORKER_STATE.get("cancel_flags")
    )
    session._listeners[:] = [emitter]  # the worker's session runs one job at a time
    job = SynthesisJob(job_id, method, task, seed, budget_limit, program_length=length)
    if emitter.cancelled():
        job.cancel()  # the flag was raised parent-side before the job started
    try:
        backend = session.backend(method, length)
    except Exception:  # noqa: BLE001 - run_job rebuilds it and fails the job with the error
        backend = None
    version_before = 0
    if backend is not None:
        if entries:
            backend.load_cache_snapshot(entries)
        backend.begin_cache_delta()
        version_before = backend.cache_version()
    session.run_job(job)
    emitter.flush()
    return (job.state, job.result, job.error, _worker_cache_delta(backend, version_before))


def _worker_cache_delta(backend: Any, version_before: int) -> Optional[dict]:
    """The entries this job added to the worker backend's caches.

    The merge-back payload for the parent session.  Jobs that ran fully
    warm (every score and evaluation already cached) ship nothing; jobs
    that did work ship only the dirty entries written since the job's
    ``begin_cache_delta()`` window opened.  Both the payload and the
    cost of building it scale with the job's new work, not with the
    cache size: the cache reads its dirty window without scanning its
    store (``EvaluationCache.dirty_snapshot``).  Merging is idempotent:
    every cached value is a deterministic function of its structural
    key.
    """
    if backend is None or backend.cache_version() == version_before:
        return None
    return backend.cache_snapshot(dirty_only=True) or None


class _Channel:
    """The write end of one worker's ordered channel to its pool.

    Progress events, heartbeats and lifecycle messages share it, so the
    parent reads a job's events before the outcome that follows them.
    Items are ``(index, payload)``: a dispatch index for the events of a
    job, :data:`_HEARTBEAT` or :data:`_LIFECYCLE` for control items.  Only
    this worker writes to the pipe; the lock serializes its own threads,
    so a worker that dies mid-send leaves no lock another process needs.
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def put(self, item: Any) -> None:
        with self._lock:
            self._conn.send(item)


#: channel indices of the control items (job events use dispatch indices)
_HEARTBEAT = -1
_LIFECYCLE = -2


def _heartbeat_loop(worker_id: int, channel: Any, interval: float,
                    stop: threading.Event) -> None:
    """Emit one ``"heartbeat"`` event per interval until told to stop."""
    while not stop.wait(interval):
        try:
            channel.put((_HEARTBEAT, ProgressEvent(kind="heartbeat", worker_id=worker_id)))
        except Exception:  # noqa: BLE001 - channel torn down: stop beating
            return


def _supervised_worker_main(
    worker_id: int,
    seed: int,
    payload: _WorkerPayload,
    tasks: Any,
    conn: Any,
    cancel_flags: Any,
    heartbeat_interval: float,
    fault_plan: Any,
) -> None:
    """One supervised worker: receive specs, run them, report outcomes.

    Installs the per-process state (:func:`_parallel_worker_init`), then
    runs each spec the parent puts on its own ``tasks`` queue through
    :func:`_run_service_job`, so a supervised job is bit-identical to a
    serial one.  The worker serves every run of its pool until it reads
    the ``None`` sentinel.  Lifecycle messages (``started`` /
    ``outcome``), progress events and heartbeats all travel the worker's
    own :class:`_Channel` over ``conn``, in the order they were sent.
    """
    faults.install(fault_plan, role="worker")
    channel = _Channel(conn)
    stop = threading.Event()
    # beat from the first instant: a worker must look alive throughout,
    # its first backend build included
    threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, channel, heartbeat_interval, stop),
        name=f"netsyn-heartbeat-{worker_id}",
        daemon=True,
    ).start()
    _parallel_worker_init(seed, payload, channel, cancel_flags)
    try:
        while True:
            item = tasks.get()
            if item is None:
                return
            spec, attempt = item
            job_index, job_id = spec[0], spec[1]
            channel.put((_LIFECYCLE, ("started", worker_id, job_index, attempt)))
            target = f"{job_id}:{attempt}"
            faults.fire("worker_start", target=target)
            outcome = _run_service_job(spec)
            faults.fire("pre_merge", target=target)
            channel.put((_LIFECYCLE, ("outcome", worker_id, job_index, attempt, outcome)))
    finally:
        stop.set()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _worker_payload(session: Any) -> _WorkerPayload:
    """The payload every worker of a new pool for ``session`` is handed.

    ``(store, config, snapshots, service_config)``: the session's trained
    store and config, warm-cache snapshots (structural keys are
    process-stable), so workers start warm, and its service config
    without ``artifact_dir`` (a worker's session persists nothing and
    loads nothing from disk).  The snapshots are the persisted ones the
    session loaded at open — a reopened session may not have built the
    backends they belong to yet — each overridden by its built backend's
    current cache, which holds the persisted entries plus everything
    computed or merged since.  The pool keeps the payload for its whole
    life, so a replacement worker starts from the same state as the one
    it replaces.
    """
    snapshots = dict(session._cache_snapshots)
    for (method, length), backend in session._backends.items():
        snapshot = backend.cache_snapshot()
        if snapshot:
            snapshots[_snapshot_key(method, length)] = snapshot
    service_config = dataclasses.replace(session.service_config, artifact_dir=None)
    return (session.store, session.config, snapshots, service_config)


def _task_key(method: str, program_length: Optional[int], task: SynthesisTask) -> Tuple:
    """The routing key of a job: every cache entry it writes carries it."""
    return (method, program_length, io_set_key(task.io_set))


class _TaskCacheRouter:
    """Merged worker deltas, grouped by the task whose entries they hold.

    Every entry a job writes is keyed by its task's structural io key —
    ``(namespace, (program, io))``, or ``(namespace, io)`` for a
    probability map — so the whole delta of a job belongs to
    ``(method, program_length, io)`` and can never hit for another
    task.  A new task is routed nothing; a repeated one gets
    every entry merged for it since the pool started (older entries
    travelled in the pool's warm snapshot).  At most ``bound`` entries
    are held — the capacity of the cache that receives them —
    dropping the least recently used task's oldest delta first.
    """

    def __init__(self, bound: int) -> None:
        self.bound = int(bound)
        self.size = 0
        self._tasks: "OrderedDict[Tuple, List[dict]]" = OrderedDict()

    @staticmethod
    def _count(delta: dict) -> int:
        return sum(len(entries) for entries in delta.values())

    def merge(self, key: Tuple, delta: dict) -> None:
        self._tasks.setdefault(key, []).append(delta)
        self._tasks.move_to_end(key)
        self.size += self._count(delta)
        while self.size > self.bound:
            oldest, deltas = next(iter(self._tasks.items()))
            self.size -= self._count(deltas.pop(0))
            if not deltas:
                del self._tasks[oldest]

    def entries(self, key: Tuple) -> Optional[dict]:
        """The merged entries for one task's spec (None for a new task)."""
        deltas = self._tasks.get(key)
        if not deltas:
            return None
        self._tasks.move_to_end(key)
        if len(deltas) == 1:
            return deltas[0]
        merged: Dict[str, list] = {}
        for delta in deltas:
            for section, items in delta.items():
                merged.setdefault(section, []).extend(items)
        return merged


class _FlagRaiser:
    """Raises one slot of a shared cancellation-flag array (parent side)."""

    def __init__(self, flags: Any, index: int) -> None:
        self._flags = flags
        self._index = index

    def __call__(self) -> None:
        self._flags[self._index] = 1


class _Route:
    """Where the pump delivers one dispatched job's streamed events."""

    __slots__ = ("dispatch", "job", "key", "sink")

    def __init__(self, dispatch: int, job: Any, key: Tuple,
                 sink: Callable[[Any, List[ProgressEvent]], None]) -> None:
        self.dispatch = dispatch
        self.job = job
        #: the job's task key (see :class:`_TaskCacheRouter`)
        self.key = key
        #: the session's event sink: records and fans out (pump thread)
        self.sink = sink


class WorkerSupervisor:
    """The supervised worker pool of one session, serving all its runs.

    Parameters
    ----------
    n_workers:
        Target pool size.  Workers are forked by :meth:`run`, as many as
        the run has specs (up to ``n_workers``), and then kept.
    config:
        The session's :class:`~repro.config.ServiceConfig`: the pool
        reads ``max_job_retries``, ``retry_backoff``,
        ``heartbeat_timeout``, ``job_deadline``, ``max_pool_crashes``
        and ``fault_plan``.
    seed:
        Session seed; mixed with each worker's pid to seed its global
        numpy RNG.
    payload:
        Handed once to every worker's :func:`_parallel_worker_init`:
        :func:`_worker_payload`'s ``(store, config, snapshots,
        service_config)``.
    slots:
        Size of the shared cancellation-flag array: the most jobs one
        run may dispatch.
    route_bound:
        Most merged cache entries held for per-task shipping (see
        :class:`_TaskCacheRouter`).

    The pool owns, for its whole life, its workers — each with its own
    task queue (parent to worker) and :class:`_Channel` (worker to
    parent) — the pump thread that reads every channel, and the flag
    array.  It holds no reference to its session outside
    :meth:`_run_supervised`, so the session's finalizer can close it.
    """

    def __init__(
        self,
        n_workers: int,
        config: ServiceConfig,
        seed: int,
        payload: _WorkerPayload,
        context: Any = None,
        slots: int = _FLAG_SLOTS,
        route_bound: int = 0,
    ) -> None:
        import multiprocessing

        self.config = config
        self.seed = int(seed)
        self.payload = payload
        self._context = context or multiprocessing.get_context()
        self.n_workers = int(n_workers)
        self.degraded = False
        self.closed = False
        self.total_crashes = 0
        # one shared byte per job slot: the parent raises it, workers
        # poll it at every emitted event (no lock needed for a flag)
        self.cancel_flags = self._context.Array("b", int(slots), lock=False)
        #: worker_id -> {"process", "tasks": its own task queue,
        #:               "job": None | (index, attempt, t0),
        #:               "kill_reason": str}; index -1 marks a spec of an
        #:               earlier run still finishing (a raced duplicate)
        self._workers: Dict[int, dict] = {}
        #: read end of each live worker's channel; the pump reads them
        #: and alone closes them, once it has read a worker's last item
        self._channels: Dict[Any, int] = {}
        #: lifecycle messages, forwarded by the pump in channel order
        self._lifecycle: "queue.Queue[Tuple]" = queue.Queue()
        #: worker_id -> last heartbeat (monotonic); fed by the event pump
        self._heartbeats: Dict[int, float] = {}
        self._next_worker_id = 0
        self._next_dispatch = 0
        self._router = _TaskCacheRouter(route_bound)
        #: dispatch_index -> route of the jobs whose events are awaited
        self._routes: Dict[int, _Route] = {}
        self._emit_cb: Optional[Callable[[ProgressEvent], None]] = None
        self._specs: List[Tuple] = []
        self._run_lock = threading.Lock()
        self._owner_pid = os.getpid()
        self._stopping = threading.Event()
        #: wakes the pump when a channel is added or the pool closes
        self._wake, self._waker = self._context.Pipe(duplex=False)
        self._pump = threading.Thread(
            target=self._pump_events, name="netsyn-event-pump", daemon=True
        )
        self._pump.start()

    @classmethod
    def for_session(cls, session: Any, n_workers: int, n_jobs: int) -> "WorkerSupervisor":
        """A new pool for ``session``: its payload, flag slots and route bound."""
        slots = _FLAG_SLOTS
        while slots < n_jobs:
            slots *= 2
        return cls(
            n_workers,
            session.service_config,
            session.config.seed,
            _worker_payload(session),
            slots=slots,
            route_bound=DEFAULT_MAX_ENTRIES,
        )

    def serves(self, n_workers: int, n_jobs: int, config: ServiceConfig) -> bool:
        """Whether this pool can take a run of ``n_jobs`` as configured."""
        return (
            not self.closed
            and not self.degraded
            and self.n_workers == n_workers
            and self.config is config
            and n_jobs <= len(self.cancel_flags)
        )

    def close(self) -> None:
        """Stop and reap the workers, then the pump (idempotent; owner process only).

        Forked workers inherit copies of the parent's objects, so a
        finalizer may fire in one of them: only the process that built
        the pool tears it down.
        """
        if self.closed or os.getpid() != self._owner_pid:
            return
        self.closed = True
        self._shutdown()
        # stop the pump only after the workers are gone: their last
        # heartbeats must drain, or their exit could block on a full pipe
        self._stopping.set()
        self._wake_pump()

    def _wake_pump(self) -> None:
        try:
            self._waker.send_bytes(b"")
        except OSError:  # the pump has already left and closed the pipe
            pass

    # ------------------------------------------------------------------
    # fan-out (the session's side of one run)
    def _prepare_fan_out(self, session: Any, pending: Sequence[Any]) -> Tuple[List[_ServiceJobSpec], List[_Route]]:
        """Specs, event routes, cleared flag slots and state transitions.

        Each spec carries the cache entries merged for its own task; a
        job cancelled before this point gets its flag raised so the
        worker never runs it.  Opens the fan-out: the pump delivers the
        jobs' events to ``session._deliver_events`` until
        :meth:`_run_supervised` removes their routes.
        """
        flags = self.cancel_flags
        specs: List[_ServiceJobSpec] = []
        routes: List[_Route] = []
        for job in pending:
            dispatch = self._next_dispatch
            self._next_dispatch += 1
            slot = dispatch % len(flags)
            flags[slot] = 0
            key = _task_key(job.method, job.program_length, job.task)
            specs.append((
                dispatch, job.job_id, job.method, job.program_length, job.task, job.seed,
                job.budget_limit, self._router.entries(key),
            ))
            route = _Route(dispatch, job, key, session._deliver_events)
            routes.append(route)
            self._routes[dispatch] = route
            if job.state is not JobState.PENDING:
                # cancelled between collecting the pending list and this
                # fan-out: keep the terminal state and make sure the
                # worker never runs the job
                flags[slot] = 1
                continue
            job.state = JobState.RUNNING
            job._remote_cancel = _FlagRaiser(flags, slot)
            if job._cancel_requested:  # cancelled between submit and fan-out
                flags[slot] = 1
        return specs, routes

    def _pump_events(self) -> None:
        """Read every worker's channel live (the pool's daemon thread).

        Each item is ``(index, payload)``; a job's events arrive as
        :class:`_EventEmitter`'s coalesced lists.  Events of a job routed
        by the open fan-out go to the session's sink, which records them on the
        job and fans them out to session listeners exactly like the
        serial path, while the main thread blocks in :meth:`run`; events
        of dispatches no longer routed (a stale duplicate of an earlier
        run) are dropped.  Heartbeats refresh their worker's age and are
        never recorded on a job — per-job streams stay identical to
        serial runs.  Lifecycle messages go on to :meth:`run`.  A
        worker's items are handled in the order it sent them, so a job's
        events are all delivered before its outcome is handed on: when
        :meth:`run` returns, every event of every final attempt has been
        observed.  A new worker's channel and :meth:`close` wake the
        pump through a pipe of its own.
        """
        while not self._stopping.is_set():
            for conn in wait([self._wake, *self._channels]):
                if conn is self._wake:
                    while conn.poll():
                        conn.recv_bytes()
                    continue
                try:
                    # a bounded batch per worker, so a chatty one cannot
                    # starve the others' heartbeats and outcomes
                    for _ in range(256):
                        if not conn.poll():
                            break
                        self._deliver(*conn.recv())
                except (EOFError, OSError):
                    # the worker is gone and everything it sent was read;
                    # a message it died writing is dropped with it
                    del self._channels[conn]
                    conn.close()
        for conn in [self._wake, self._waker, *self._channels]:
            conn.close()

    def _deliver(self, job_index: int, payload: Any) -> None:
        """Route one channel item (a method, so no route outlives its
        call: a route references the session, which must stay collectable)."""
        if job_index == _LIFECYCLE:
            self._lifecycle.put(payload)
            return
        if job_index == _HEARTBEAT:
            self._heartbeats[payload.worker_id] = time.monotonic()
            return
        route = self._routes.get(job_index)
        if route is None:
            return
        try:
            route.sink(route.job, payload)
        except Exception:  # noqa: BLE001 - the pump must keep draining
            logger.exception("event sink failed for %s", route.job.job_id)

    def _run_supervised(self, session: Any, pending: List[Any]) -> None:
        """Fan ``pending`` out over the pool and apply the outcomes to ``session``.

        Cache deltas merge into the session's backends (and into the
        per-task routes of later specs); jobs a degraded run handed back
        run serially in the parent with the same backend and seed.  One
        run at a time: a concurrent caller waits for the pool.
        """
        with self._run_lock:
            specs, routes = self._prepare_fan_out(session, pending)
            self._emit_cb = session._supervision_listener(pending)
            try:
                outcomes = self.run(specs)
            finally:
                self._emit_cb = None
                for route in routes:
                    route.job._remote_cancel = None
                    # every final attempt's events were delivered before
                    # its outcome; whatever still arrives is a cut-short
                    # attempt's and is dropped
                    self._routes.pop(route.dispatch, None)
            for route, outcome in zip(routes, outcomes):
                job = route.job
                if outcome.cache_delta:
                    session.backend(job.method, job.program_length).load_cache_snapshot(
                        outcome.cache_delta
                    )
                    self._router.merge(route.key, outcome.cache_delta)
                job.state, job.result, job.error = outcome.state, outcome.result, outcome.error
                job.failure = outcome.failure
                if job.state is JobState.CANCELLED:
                    logger.info("job %s cancelled in worker", job.job_id)
                elif job.state is JobState.FAILED:
                    logger.warning("job %s failed: %s", job.job_id, job.error)
                    if outcome.failure is not None:
                        # the worker died (or was killed) before it could
                        # flush a terminal event: synthesize one so the job's
                        # stream still settles with an observable ending
                        session._supervision_listener([job])(
                            ProgressEvent(
                                kind="failed",
                                method=job.method,
                                task_id=job.task.task_id,
                                job_id=job.job_id,
                                attempt=outcome.attempts,
                                reason=outcome.failure.kind,
                            )
                        )
            for job in pending:
                if job.state is JobState.PENDING:
                    # the pool degraded before this job finished: run it on
                    # the serial path (same backend, same seed — the result
                    # is what the worker would have produced)
                    session.run_job(job)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, *, job_index: Optional[int] = None,
              worker_id: int = -1, attempt: int = 0, reason: str = "") -> None:
        if self._emit_cb is None:
            return
        event = ProgressEvent(
            kind=kind, worker_id=worker_id, attempt=attempt, reason=reason
        )
        if job_index is not None:
            spec = self._specs[job_index]
            event.job_id = spec[1]
            event.method = spec[2]
            event.task_id = spec[4].task_id
        try:
            self._emit_cb(event)
        except Exception:  # noqa: BLE001 - supervision must survive listeners
            logger.exception("supervision listener failed on %s", kind)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[Tuple]) -> List[SupervisedOutcome]:
        """Execute every spec to a terminal outcome (never hangs).

        Returns one :class:`SupervisedOutcome` per spec, in spec order.
        Workers that died while the pool was idle are replaced first
        (``worker_restarted``), and the pool is topped up to
        ``min(n_workers, len(specs))`` workers; the workers stay alive
        afterwards.  On degradation the workers are shut down and
        unfinished jobs come back ``PENDING`` for the caller to run
        in-process.
        """
        self._specs = list(specs)
        n = len(self._specs)
        #: dispatch_index -> position in this run
        self._index = {spec[0]: index for index, spec in enumerate(self._specs)}
        self._outcomes: List[Optional[SupervisedOutcome]] = [None] * n
        self._attempts = [0] * n
        self._crash_workers: List[List[int]] = [[] for _ in range(n)]
        self._first_start = [0.0] * n
        self._deadline_fired = [False] * n
        self._deadline_kill_at = [0.0] * n
        #: retries waiting out their backoff: (due_time, job_index)
        self._delayed: List[Tuple[float, int]] = []
        #: specs waiting for an idle worker: (job_index, attempt)
        self._ready: "deque[Tuple[int, int]]" = deque()
        self.total_crashes = 0

        now = time.monotonic()
        for worker_id, state in self._workers.items():
            # an idle gap is not a hang: heartbeat ages restart now
            self._heartbeats[worker_id] = now
            if state["job"] is not None:
                # still finishing a raced duplicate of the previous run
                state["job"] = (-1, state["job"][1], state["job"][2])
        for index in range(n):
            self._enqueue(index)
        self._reap_dead_workers()
        while len(self._workers) < min(self.n_workers, max(1, n)):
            self._spawn_worker()
        try:
            self._supervise()
        except BaseException:
            self.close()  # an unfinished run leaves no workers behind
            raise
        if self.degraded:
            self._shutdown()
            for index in range(n):
                if self._outcomes[index] is None:
                    self._outcomes[index] = SupervisedOutcome(
                        state=JobState.PENDING, attempts=self._attempts[index]
                    )
        return [outcome for outcome in self._outcomes]  # all set by now

    # ------------------------------------------------------------------
    def _enqueue(self, job_index: int) -> None:
        self._ready.append((job_index, self._attempts[job_index]))
        self._attempts[job_index] += 1

    def _assign(self) -> None:
        """Hand ready specs to idle workers, one each."""
        idle = [
            state for state in self._workers.values()
            if state["job"] is None and not state["kill_reason"]
        ]
        while idle and self._ready:
            job_index, attempt = self._ready.popleft()
            if self._outcomes[job_index] is not None:
                continue  # decided while it waited (a raced retry)
            state = idle.pop()
            state["tasks"].put((self._specs[job_index], attempt))
            state["job"] = (job_index, attempt, time.monotonic())

    def _spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        tasks = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_supervised_worker_main,
            args=(
                worker_id,
                self.seed,
                self.payload,
                tasks,
                writer,
                self.cancel_flags,
                repro.config.HEARTBEAT_INTERVAL,
                self.config.fault_plan,
            ),
            name=f"netsyn-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # only the worker may hold the write end: its death is then EOF
        writer.close()
        self._channels[reader] = worker_id
        self._wake_pump()
        self._workers[worker_id] = {
            "process": process, "tasks": tasks, "job": None, "kill_reason": "",
        }
        self._heartbeats[worker_id] = time.monotonic()
        return worker_id

    def _pending(self) -> int:
        return sum(1 for outcome in self._outcomes if outcome is None)

    def _backoff(self, attempt: int) -> float:
        """Seconds a job waits before retry ``attempt`` (1-based)."""
        return min(
            self.config.retry_backoff * 2 ** (attempt - 1), repro.config.RETRY_BACKOFF_MAX
        )

    # ------------------------------------------------------------------
    def _drain_results(self) -> None:
        """Handle every lifecycle message that arrives within one tick."""
        try:
            self._handle(self._lifecycle.get(timeout=_TICK))
            while True:
                self._handle(self._lifecycle.get_nowait())
        except queue.Empty:
            pass

    def _supervise(self) -> None:
        self._assign()
        while self._pending() > 0:
            now = time.monotonic()
            # release retries whose backoff expired
            if self._delayed:
                due = [j for (t, j) in self._delayed if t <= now]
                self._delayed = [(t, j) for (t, j) in self._delayed if t > now]
                for job_index in due:
                    self._emit(
                        "job_retry",
                        job_index=job_index,
                        attempt=self._attempts[job_index],
                        reason="backoff_elapsed",
                    )
                    self._enqueue(job_index)
            self._drain_results()
            self._reap_dead_workers()
            self._check_deadlines()
            self._check_heartbeats()
            if self.total_crashes > self.config.max_pool_crashes:
                self._degrade()
                return
            if not self._workers and self._pending() > 0:
                # every worker is gone and none may be replaced: degrade
                # rather than spin forever (can only happen when spawns
                # fail or the crash budget exactly drained the pool)
                self._degrade()  # pragma: no cover - defensive
                return
            self._assign()

    def _handle(self, message: Tuple) -> None:
        kind = message[0]
        # messages name a dispatch index; one this run did not dispatch
        # is a raced duplicate of an earlier run's job finishing late
        if kind == "started":
            _, worker_id, dispatch, attempt = message
            job_index = self._index.get(dispatch, -1)
            state = self._workers.get(worker_id)
            if state is not None:
                # the deadline clock starts when the job does
                state["job"] = (job_index, attempt, time.monotonic())
            self._heartbeats[worker_id] = time.monotonic()
            if job_index >= 0 and self._first_start[job_index] == 0.0:
                self._first_start[job_index] = time.monotonic()
        elif kind == "outcome":
            _, worker_id, dispatch, attempt, outcome = message
            state = self._workers.get(worker_id)
            if state is not None:
                state["job"] = None
            self._heartbeats[worker_id] = time.monotonic()
            job_index = self._index.get(dispatch)
            if job_index is None or self._outcomes[job_index] is not None:
                return  # stale duplicate from a raced retry
            state, result, error, delta = outcome
            if state is JobState.CANCELLED and self._deadline_fired[job_index]:
                # the cancellation the worker observed was the deadline
                # enforcement, not a user request
                self._fail(job_index, "deadline", delta=delta)
                return
            self._outcomes[job_index] = SupervisedOutcome(
                state=state,
                result=result,
                error=error,
                cache_delta=delta,
                attempts=self._attempts[job_index],
            )

    def _fail(self, job_index: int, kind: str, message: str = "",
              delta: Optional[dict] = None) -> None:
        """End ``job_index`` ``FAILED`` with a :class:`FailureReport`.

        ``kind`` is ``"crash"``, ``"hung"`` or ``"deadline"``; a deadline
        report states the deadline, the others carry ``message``.
        """
        if kind == "deadline":
            message = f"exceeded the {self.config.job_deadline:.1f}s wall-clock deadline"
        first_start = self._first_start[job_index]
        report = FailureReport(
            job_id=self._specs[job_index][1],
            kind=kind,
            attempts=self._attempts[job_index],
            message=message,
            worker_ids=tuple(self._crash_workers[job_index]),
            elapsed=time.monotonic() - first_start if first_start else 0.0,
        )
        self._outcomes[job_index] = SupervisedOutcome(
            state=JobState.FAILED,
            error=str(report),
            cache_delta=delta,
            failure=report,
            attempts=report.attempts,
        )

    # ------------------------------------------------------------------
    def _reap_dead_workers(self) -> None:
        dead = [
            (worker_id, state)
            for worker_id, state in self._workers.items()
            if not state["process"].is_alive()
        ]
        for worker_id, state in dead:
            del self._workers[worker_id]
            self._heartbeats.pop(worker_id, None)
            self._release(state)
            reason = state["kill_reason"] or "worker_crash"
            job = state["job"]
            if job is not None and job[0] < 0:
                job = None  # it was finishing an earlier run's duplicate
            self.total_crashes += 1
            if job is not None:
                job_index, attempt, _t0 = job
                if self._outcomes[job_index] is None:
                    self._job_lost(job_index, worker_id, reason)
            # replace the worker while there is (or may be) work left
            if (
                not self.degraded
                and self.total_crashes <= self.config.max_pool_crashes
                and self._pending() > 0
            ):
                new_id = self._spawn_worker()
                self._emit(
                    "worker_restarted",
                    worker_id=new_id,
                    reason=reason,
                    job_index=job[0] if job is not None else None,
                )
                logger.warning(
                    "worker %d died (%s); restarted as worker %d",
                    worker_id, reason, new_id,
                )

    def _job_lost(self, job_index: int, worker_id: int, reason: str) -> None:
        """A worker died while running ``job_index``: retry or give up."""
        self._crash_workers[job_index].append(worker_id)
        if self._deadline_fired[job_index]:
            self._fail(job_index, "deadline")
            return
        attempt = self._attempts[job_index]  # attempts already started
        if attempt > self.config.max_job_retries:
            self._fail(
                job_index,
                "hung" if reason == "heartbeat_timeout" else "crash",
                f"worker died ({reason}) on every attempt; "
                f"quarantined after {attempt} attempt(s)",
            )
            self._emit(
                "job_quarantined",
                job_index=job_index,
                worker_id=worker_id,
                attempt=attempt,
                reason=reason,
            )
            return
        delay = self._backoff(attempt)
        self._delayed.append((time.monotonic() + delay, job_index))
        logger.info(
            "job %s lost to %s (attempt %d); retrying in %.3fs",
            self._specs[job_index][1], reason, attempt, delay,
        )

    def _check_deadlines(self) -> None:
        deadline = self.config.job_deadline
        if deadline is None:
            return
        now = time.monotonic()
        for worker_id, state in list(self._workers.items()):
            job = state["job"]
            if job is None or job[0] < 0:
                continue
            job_index, _attempt, started = job
            if self._outcomes[job_index] is not None:
                continue
            overdue = now - started - deadline
            if overdue <= 0:
                continue
            if not self._deadline_fired[job_index]:
                self._deadline_fired[job_index] = True
                self._deadline_kill_at[job_index] = now + DEADLINE_GRACE
                self.cancel_flags[self._specs[job_index][0] % len(self.cancel_flags)] = 1
                self._emit(
                    "deadline_exceeded",
                    job_index=job_index,
                    worker_id=worker_id,
                    attempt=self._attempts[job_index],
                    reason=f"deadline {deadline:.1f}s",
                )
            elif now >= self._deadline_kill_at[job_index]:
                # the cooperative cancel went unheeded: hard kill; the
                # reaper converts the death into a deadline failure
                state["kill_reason"] = "deadline_kill"
                self._kill(state["process"])

    def _check_heartbeats(self) -> None:
        timeout = self.config.heartbeat_timeout
        now = time.monotonic()
        for worker_id, state in list(self._workers.items()):
            # idle workers are checked too: a worker frozen between
            # claiming a task and its "started" message reaching us looks
            # idle from here, and its heartbeat silence is the only tell
            if state["kill_reason"]:
                continue
            last = self._heartbeats.get(worker_id, now)
            if now - last > timeout:
                state["kill_reason"] = "heartbeat_timeout"
                logger.warning(
                    "worker %d silent for %.1fs; killing it", worker_id, now - last
                )
                self._kill(state["process"])

    @staticmethod
    def _kill(process: Any) -> None:
        try:
            process.kill()  # SIGKILL: also fells SIGSTOPped (frozen) workers
        except Exception:  # noqa: BLE001 - already gone
            pass

    def _degrade(self) -> None:
        self.degraded = True
        self._emit(
            "degraded_serial",
            reason=f"{self.total_crashes} worker crashes exceeded "
            f"max_pool_crashes={self.config.max_pool_crashes}",
        )
        logger.warning(
            "degrading to serial execution after %d worker crashes", self.total_crashes
        )

    @staticmethod
    def _release(state: dict) -> None:
        """Close the task queue of a worker that is gone.

        It is closed without joining the feeder thread: with no reader
        left, a pending put could block it (and exit) forever.  (Its
        channel is the pump's to close.)
        """
        try:
            state["tasks"].cancel_join_thread()
            state["tasks"].close()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass

    def _shutdown(self) -> None:
        """Stop every worker: sentinels first, SIGKILL for stragglers."""
        for state in self._workers.values():
            try:
                state["tasks"].put(None)
            except Exception:  # noqa: BLE001 - queue already broken
                pass
        deadline = time.monotonic() + 2.0
        for state in self._workers.values():
            state["process"].join(timeout=max(0.0, deadline - time.monotonic()))
        for state in self._workers.values():
            if state["process"].is_alive():
                self._kill(state["process"])
                state["process"].join(timeout=1.0)
            self._release(state)
        self._workers.clear()
