"""The session-lifetime supervised worker pool.

A bare ``multiprocessing.Pool.map`` has no failure story: a worker
killed mid-job (OOM, segfault, SIGKILL) loses its task forever and the
map blocks until the end of time, a job that reliably crashes its worker
is retried nowhere, and a job that silently spins can only be stopped by
killing the whole run.  :class:`WorkerSupervisor` runs explicitly
managed worker processes instead, keeps them for the lifetime of the
:class:`~repro.core.service.SynthesisSession` that owns it, and adds the
failure discipline a serving layer needs:

* **One supervise loop.**  :meth:`WorkerSupervisor.run` takes jobs
  from a feed (:class:`~repro.core.service.JobFeed`: a local ``run()``'s
  closed list, or a server's admission queue) only while a worker is
  idle, and returns each job's outcome the moment it lands — no job
  waits for another.  A run is one busy period: the calls from a job
  dispatched to an idle pool until no dispatched job is left unsettled.
* **Lifetime.**  The pool is built at a session's first dispatched job
  (never at session or server start), and a worker is forked when a job
  finds no idle one.  Its workers keep their backends, L1 caches and
  persistent tries between runs; every later run hands its specs to the
  same workers.  The pump thread and the cancel-flag array live as long
  as the pool; a job holds a flag slot from dispatch to settle, and the
  slot is cleared before a new job reuses it.  The session closes the
  pool (``SynthesisSession.close()``, its context manager, or a
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
  stops feeding the pool, kills the survivors, and hands the unfinished
  jobs back to the session to run serially in the parent
  (``"degraded_serial"``) — slower, but immune to whatever was killing
  the workers.  The next job gets a fresh pool.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

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

#: cancel-flag slots of a new pool: the most jobs dispatched and not yet
#: settled at once (a pool never has more than its workers plus the
#: retries waiting out their backoff)
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
    """Terminal per-job record the supervisor applies when a job settles."""

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


class _Live:
    """One dispatched job, from its dispatch to its settle."""

    __slots__ = (
        "job", "key", "spec", "attempts", "crash_workers", "first_start",
        "deadline_fired", "deadline_kill_at",
    )

    def __init__(self, job: Any, key: Tuple, spec: _ServiceJobSpec) -> None:
        self.job = job
        #: the job's task key (see :class:`_TaskCacheRouter`)
        self.key = key
        self.spec = spec
        #: attempts started (or queued to start) so far
        self.attempts = 0
        #: ids of the workers that died running it, in order
        self.crash_workers: List[int] = []
        self.first_start = 0.0
        self.deadline_fired = False
        self.deadline_kill_at = 0.0

    @property
    def dispatch(self) -> int:
        return self.spec[0]


class WorkerSupervisor:
    """The supervised worker pool of one session, serving all its jobs.

    Parameters
    ----------
    n_workers:
        Target pool size.  A worker is forked when a dispatched job finds
        no idle one, up to ``n_workers``, and is then kept.
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
    route_bound:
        Most merged cache entries held for per-task shipping (see
        :class:`_TaskCacheRouter`).

    The pool owns, for its whole life, its workers — each with its own
    task queue (parent to worker) and :class:`_Channel` (worker to
    parent) — the pump thread that reads every channel, and the flag
    array of :data:`_FLAG_SLOTS` slots, the most jobs dispatched at once.
    It holds a reference to its session only while a job is live, so
    the session's finalizer can close it.
    """

    def __init__(
        self,
        n_workers: int,
        config: ServiceConfig,
        seed: int,
        payload: _WorkerPayload,
        context: Any = None,
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
        self.cancel_flags = self._context.Array("b", _FLAG_SLOTS, lock=False)
        #: worker_id -> {"process", "tasks": its own task queue,
        #:               "job": None | (dispatch, attempt, t0),
        #:               "kill_reason": str}
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
        #: dispatch index -> every job dispatched and not yet settled; the
        #: pump routes their streamed events
        self._live: Dict[int, _Live] = {}
        #: retries waiting out their backoff: (due_time, dispatch)
        self._delayed: List[Tuple[float, int]] = []
        #: attempts waiting for an idle worker: (dispatch, attempt)
        self._ready: "deque[Tuple[int, int]]" = deque()
        # set while a job is live: the session's event sink, the feed's
        # bell and the supervision-event sink
        self._sink: Optional[Callable[[Any, List[ProgressEvent]], None]] = None
        self._ring: Optional[Callable[[], None]] = None
        self._emit_cb: Optional[Callable[[ProgressEvent, Any], None]] = None
        #: (job, cache delta) of the jobs settled since run() was entered
        self._settled: List[Tuple[Any, Optional[dict]]] = []
        self._owner_pid = os.getpid()
        self._stopping = threading.Event()
        #: wakes the pump when a channel is added or the pool closes
        self._wake, self._waker = self._context.Pipe(duplex=False)
        self._pump = threading.Thread(
            target=self._pump_events, name="netsyn-event-pump", daemon=True
        )
        self._pump.start()

    @classmethod
    def for_session(cls, session: Any, n_workers: int) -> "WorkerSupervisor":
        """A new pool for ``session``: its payload and route bound."""
        return cls(
            n_workers,
            session.service_config,
            session.config.seed,
            _worker_payload(session),
            route_bound=DEFAULT_MAX_ENTRIES,
        )

    def serves(self, n_workers: int, config: ServiceConfig) -> bool:
        """Whether this pool can take jobs for ``n_workers`` as configured."""
        return (
            not self.closed
            and not self.degraded
            and self.n_workers == n_workers
            and self.config is config
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
    # dispatch and event routing
    def _dispatch(self, job: Any) -> _Live:
        """Give ``job`` a dispatch index, a cleared flag slot and its spec.

        The index is unique over the pool's lifetime and its flag slot
        (``index % len(cancel_flags)``) is held by no other unsettled
        job.  The spec carries the cache entries merged for the job's own
        task.  From here until its settle the pump delivers the job's
        events to the running loop's session.
        """
        flags = self.cancel_flags
        held = {dispatch % len(flags) for dispatch in self._live}
        while self._next_dispatch % len(flags) in held:
            self._next_dispatch += 1
        dispatch = self._next_dispatch
        self._next_dispatch += 1
        slot = dispatch % len(flags)
        flags[slot] = 0
        key = _task_key(job.method, job.program_length, job.task)
        spec = (
            dispatch, job.job_id, job.method, job.program_length, job.task, job.seed,
            job.budget_limit, self._router.entries(key),
        )
        live = _Live(job, key, spec)
        self._live[dispatch] = live
        job.state = JobState.RUNNING
        job._remote_cancel = _FlagRaiser(flags, slot)
        if job._cancel_requested:  # cancelled between the take and this flip
            flags[slot] = 1
        return live

    def _pump_events(self) -> None:
        """Read every worker's channel live (the pool's daemon thread).

        Each item is ``(index, payload)``; a job's events arrive as
        :class:`_EventEmitter`'s coalesced lists.  Events of a dispatched,
        unsettled job go to the running loop's session sink, which
        records them on the job and fans them out to session listeners
        exactly like the serial path; events of a job no longer live (a
        cut-short attempt, a raced duplicate) are dropped.  Heartbeats
        refresh their worker's age and are never recorded on a job —
        per-job streams stay identical to serial runs.  Lifecycle
        messages go on to :meth:`run`, and ring the running loop's feed.
        A worker's items are handled in the order it sent them, so a
        job's events are all delivered before its outcome is handed on:
        when a job settles, every event of its final attempt has been
        observed.  A new worker's channel and :meth:`close` wake the pump
        through a pipe of its own.
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
        call: the sink references the session, which must stay collectable)."""
        if job_index == _LIFECYCLE:
            self._lifecycle.put(payload)
            ring = self._ring
            if ring is not None:
                ring()
            return
        if job_index == _HEARTBEAT:
            self._heartbeats[payload.worker_id] = time.monotonic()
            return
        live = self._live.get(job_index)
        sink = self._sink
        if live is None or sink is None:
            return
        try:
            sink(live.job, payload)
        except Exception:  # noqa: BLE001 - the pump must keep draining
            logger.exception("event sink failed for %s", live.job.job_id)

    # ------------------------------------------------------------------
    def _emit(self, kind: str, *, live: Optional[_Live] = None,
              worker_id: int = -1, attempt: int = 0, reason: str = "") -> None:
        if self._emit_cb is None:
            return
        event = ProgressEvent(
            kind=kind, worker_id=worker_id, attempt=attempt, reason=reason
        )
        job = None
        if live is not None:
            job = live.job
            event.job_id = job.job_id
            event.method = job.method
            event.task_id = job.task.task_id
        try:
            self._emit_cb(event, job)
        except Exception:  # noqa: BLE001 - supervision must survive listeners
            logger.exception("supervision listener failed on %s", kind)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a dispatched job has not settled yet."""
        return bool(self._live)

    def run(self, session: Any, feed: Any, first: Any = None) -> List[Tuple[Any, Optional[dict]]]:
        """Supervise the pool's jobs until one settles; return it at once.

        The one supervise loop (never hangs).  ``first`` (when given) and
        the jobs taken from ``feed`` are dispatched; a job is taken only
        when a worker is idle (or one more may be forked), so the rest
        wait in the feed.  Returns, as soon as at least one job settled,
        every settled job with the cache delta its worker shipped, in the
        order their outcomes landed: each job's terminal state, result,
        error and failure report are already set.  A job taken after it
        was cancelled settles without reaching a worker.  Call again
        while :attr:`busy`; an empty list means no job is live and the
        feed has none ready.

        A call that finds no job live starts a run: workers that died
        while the pool was idle are replaced (``worker_restarted``) and
        heartbeat ages and the crash count restart.  The workers stay
        alive afterwards.  When the pool degrades its workers are shut
        down and its unfinished jobs are returned ``PENDING``, in
        dispatch order, for the caller to run in-process.
        """
        self._settled = []
        try:
            if not self._live:
                self._sink = session._deliver_events
                self._ring = feed.ring
                self._emit_cb = session._supervision_event
                self.total_crashes = 0
                self._delayed.clear()
                self._ready.clear()
                now = time.monotonic()
                for worker_id in self._workers:
                    # an idle gap is not a hang: heartbeat ages restart now
                    self._heartbeats[worker_id] = now
                self._reap_dead_workers(replace=True)
            if first is not None:
                self._take_job(first)
            self._supervise(feed)
        except BaseException:
            self.close()  # an unfinished run leaves no workers behind
            self._live.clear()
            raise
        finally:
            settled, self._settled = self._settled, []
            if self.degraded:
                self._shutdown()
                for live in list(self._live.values()):
                    self._retire(live)
                    live.job.state = JobState.PENDING
                    settled.append((live.job, None))
            if not self._live:
                self._sink = self._ring = self._emit_cb = None
        return settled

    def _supervise(self, feed: Any) -> None:
        while True:
            if self._delayed:
                # release retries whose backoff expired
                now = time.monotonic()
                due = [dispatch for (t, dispatch) in self._delayed if t <= now]
                self._delayed = [(t, dispatch) for (t, dispatch) in self._delayed if t > now]
                for dispatch in due:
                    live = self._live.get(dispatch)
                    if live is None:
                        continue  # settled while it waited (a raced outcome)
                    self._emit(
                        "job_retry", live=live, attempt=live.attempts, reason="backoff_elapsed"
                    )
                    self._enqueue(live)
            self._drain_results()
            self._reap_dead_workers(replace=bool(self._live) or not feed.closed)
            self._check_deadlines()
            self._check_heartbeats()
            if self.total_crashes > self.config.max_pool_crashes:
                self._degrade()
                return
            self._assign()
            self._take(feed)
            if self._settled or not self._live:
                return
            feed.wait(_TICK)

    # ------------------------------------------------------------------
    def _take(self, feed: Any) -> None:
        """Take jobs from ``feed`` while a worker is free for one."""
        while len(self._live) < len(self.cancel_flags):
            idle = sum(
                1 for state in self._workers.values()
                if state["job"] is None and not state["kill_reason"]
            )
            if idle + self.n_workers - len(self._workers) <= len(self._ready):
                return
            job = feed.take()
            if job is None:
                return
            self._take_job(job)
            self._assign()

    def _take_job(self, job: Any) -> None:
        if job.state is not JobState.PENDING:
            # cancelled while it waited in the feed: it never reaches a worker
            self._settled.append((job, None))
            return
        self._enqueue(self._dispatch(job))

    def _enqueue(self, live: _Live) -> None:
        self._ready.append((live.dispatch, live.attempts))
        live.attempts += 1

    def _assign(self) -> None:
        """Hand ready attempts to idle workers, forking one when none is idle."""
        while self._ready:
            state = next(
                (state for state in self._workers.values()
                 if state["job"] is None and not state["kill_reason"]),
                None,
            )
            if state is None:
                if len(self._workers) >= self.n_workers:
                    return
                state = self._workers[self._spawn_worker()]
            dispatch, attempt = self._ready.popleft()
            live = self._live.get(dispatch)
            if live is None:
                continue  # settled while it waited (a raced retry)
            state["tasks"].put((live.spec, attempt))
            state["job"] = (dispatch, attempt, time.monotonic())

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

    def _backoff(self, attempt: int) -> float:
        """Seconds a job waits before retry ``attempt`` (1-based)."""
        return min(
            self.config.retry_backoff * 2 ** (attempt - 1), repro.config.RETRY_BACKOFF_MAX
        )

    # ------------------------------------------------------------------
    def _drain_results(self) -> None:
        """Handle every lifecycle message the pump has forwarded."""
        while True:
            try:
                message = self._lifecycle.get_nowait()
            except queue.Empty:
                return
            self._handle(message)

    def _handle(self, message: Tuple) -> None:
        kind = message[0]
        now = time.monotonic()
        # a message naming a dispatch that is no longer live is a raced
        # duplicate of a job that already settled
        if kind == "started":
            _, worker_id, dispatch, attempt = message
            state = self._workers.get(worker_id)
            if state is not None:
                # the deadline clock starts when the job does
                state["job"] = (dispatch, attempt, now)
            self._heartbeats[worker_id] = now
            live = self._live.get(dispatch)
            if live is not None and live.first_start == 0.0:
                live.first_start = now
        elif kind == "outcome":
            _, worker_id, dispatch, attempt, outcome = message
            state = self._workers.get(worker_id)
            if state is not None:
                state["job"] = None
            self._heartbeats[worker_id] = now
            live = self._live.get(dispatch)
            if live is None:
                return
            job_state, result, error, delta = outcome
            if job_state is JobState.CANCELLED and live.deadline_fired:
                # the cancellation the worker observed was the deadline
                # enforcement, not a user request
                self._fail(live, "deadline", delta=delta)
                return
            self._settle(live, SupervisedOutcome(
                state=job_state, result=result, error=error, cache_delta=delta,
                attempts=live.attempts,
            ))

    def _retire(self, live: _Live) -> None:
        """Stop routing ``live``'s events and free its flag slot."""
        del self._live[live.dispatch]
        live.job._remote_cancel = None

    def _settle(self, live: _Live, outcome: SupervisedOutcome) -> None:
        """Apply ``outcome`` to its job, for :meth:`run` to return it."""
        job = live.job
        self._retire(live)
        job.state, job.result, job.error = outcome.state, outcome.result, outcome.error
        job.failure = outcome.failure
        if job.state is JobState.CANCELLED:
            logger.info("job %s cancelled in worker", job.job_id)
        elif job.state is JobState.FAILED:
            logger.warning("job %s failed: %s", job.job_id, job.error)
            if outcome.failure is not None:
                # the worker died (or was killed) before it could flush a
                # terminal event: synthesize one so the job's stream still
                # settles with an observable ending
                self._emit(
                    "failed", live=live, attempt=outcome.attempts,
                    reason=outcome.failure.kind,
                )
        if outcome.cache_delta:
            self._router.merge(live.key, outcome.cache_delta)
        self._settled.append((job, outcome.cache_delta))

    def _fail(self, live: _Live, kind: str, message: str = "",
              delta: Optional[dict] = None) -> None:
        """Settle ``live`` ``FAILED`` with a :class:`FailureReport`.

        ``kind`` is ``"crash"``, ``"hung"`` or ``"deadline"``; a deadline
        report states the deadline, the others carry ``message``.
        """
        if kind == "deadline":
            message = f"exceeded the {self.config.job_deadline:.1f}s wall-clock deadline"
        report = FailureReport(
            job_id=live.job.job_id,
            kind=kind,
            attempts=live.attempts,
            message=message,
            worker_ids=tuple(live.crash_workers),
            elapsed=time.monotonic() - live.first_start if live.first_start else 0.0,
        )
        self._settle(live, SupervisedOutcome(
            state=JobState.FAILED,
            error=str(report),
            cache_delta=delta,
            failure=report,
            attempts=report.attempts,
        ))

    # ------------------------------------------------------------------
    def _reap_dead_workers(self, replace: bool) -> None:
        """Account for dead workers; replace them while ``replace`` (work
        is, or may come, left) and the crash budget allows."""
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
            live = self._live.get(job[0]) if job is not None else None
            self.total_crashes += 1
            if (
                replace
                and not self.degraded
                and self.total_crashes <= self.config.max_pool_crashes
            ):
                new_id = self._spawn_worker()
                self._emit("worker_restarted", worker_id=new_id, reason=reason, live=live)
                logger.warning(
                    "worker %d died (%s); restarted as worker %d",
                    worker_id, reason, new_id,
                )
            if live is not None:
                self._job_lost(live, worker_id, reason)

    def _job_lost(self, live: _Live, worker_id: int, reason: str) -> None:
        """A worker died while running ``live``: retry or give up."""
        live.crash_workers.append(worker_id)
        if live.deadline_fired:
            self._fail(live, "deadline")
            return
        attempt = live.attempts  # attempts already started
        if attempt > self.config.max_job_retries:
            self._emit(
                "job_quarantined",
                live=live,
                worker_id=worker_id,
                attempt=attempt,
                reason=reason,
            )
            self._fail(
                live,
                "hung" if reason == "heartbeat_timeout" else "crash",
                f"worker died ({reason}) on every attempt; "
                f"quarantined after {attempt} attempt(s)",
            )
            return
        delay = self._backoff(attempt)
        self._delayed.append((time.monotonic() + delay, live.dispatch))
        logger.info(
            "job %s lost to %s (attempt %d); retrying in %.3fs",
            live.job.job_id, reason, attempt, delay,
        )

    def _check_deadlines(self) -> None:
        deadline = self.config.job_deadline
        if deadline is None:
            return
        now = time.monotonic()
        for worker_id, state in list(self._workers.items()):
            job = state["job"]
            live = self._live.get(job[0]) if job is not None else None
            if live is None:
                continue
            overdue = now - job[2] - deadline
            if overdue <= 0:
                continue
            if not live.deadline_fired:
                live.deadline_fired = True
                live.deadline_kill_at = now + DEADLINE_GRACE
                self.cancel_flags[live.dispatch % len(self.cancel_flags)] = 1
                self._emit(
                    "deadline_exceeded",
                    live=live,
                    worker_id=worker_id,
                    attempt=live.attempts,
                    reason=f"deadline {deadline:.1f}s",
                )
            elif now >= live.deadline_kill_at:
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
