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
    serially in submission order or dispatches them to the session's
    supervised worker pool (:class:`~repro.core.supervisor.WorkerSupervisor`;
    records identical to a serial run — every job is explicitly seeded).
    :meth:`SynthesisSession.serve` is the one loop behind the parallel
    path: it takes jobs from a :class:`JobFeed` (a closed list, or a
    server's admission queue) as workers go idle and settles each the
    moment it ends.  The pool is forked at the first dispatched job and
    lives until :meth:`SynthesisSession.close` (or the session's garbage
    collection): its workers keep their warm backends between runs,
    stream per-generation events back live, and ship the cache entries
    they computed back into the session, which hands a repeated task's
    entries to whichever worker runs it next.  With a configured
    ``artifact_dir`` the session persists those caches next to the
    artifacts (keyed by model hash) so a re-opened session starts warm
    in a later process.

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

import enum
import re
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import NetSynConfig, ServiceConfig
from repro.core.artifacts import ArtifactStore
from repro.core.backend import SynthesisBackend
from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.events import JobCancelled, ProgressEvent, ProgressListener
from repro.execution import faults
from repro.ga.budget import SearchBudget
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # the pool module imports this one
    from repro.core.supervisor import FailureReport, WorkerSupervisor

logger = get_logger("core.service")

#: most recent events retained on each job (older ones are dropped so
#: paper-scale budgets cannot grow ``job.events`` without bound)
MAX_EVENTS_PER_JOB = 10_000

#: longest sleep of :meth:`SynthesisSession.serve` on an empty feed that
#: nobody rang (a producer rings the feed when it adds a job or closes)
_FEED_WAIT = 0.5


class JobFeed:
    """The jobs a :meth:`SynthesisSession.serve` loop takes, one at a time.

    :meth:`take` returns the next job, or None when none is ready now;
    :attr:`closed` is True once no job will follow.  A producer calls
    :meth:`ring` after it adds a job or closes the feed, and the worker
    pool rings it when a worker reports, so a loop sleeping in
    :meth:`wait` wakes for either.
    """

    def __init__(self) -> None:
        self._bell = threading.Event()

    def take(self) -> Optional["SynthesisJob"]:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def ring(self) -> None:
        self._bell.set()

    def wait(self, timeout: Optional[float]) -> None:
        """Sleep until rung (or ``timeout``); a ring before the call counts."""
        self._bell.wait(timeout)
        self._bell.clear()


class ListFeed(JobFeed):
    """A closed list of jobs: the feed of a local :meth:`SynthesisSession.run`."""

    def __init__(self, jobs: Sequence["SynthesisJob"]) -> None:
        super().__init__()
        self._jobs = deque(jobs)

    def take(self) -> Optional["SynthesisJob"]:
        return self._jobs.popleft() if self._jobs else None

    @property
    def closed(self) -> bool:
        return not self._jobs


def _snapshot_key(method: str, program_length: Optional[int]) -> str:
    """The key one backend's caches live under in snapshot dicts.

    Shared by the worker warm-start payload, the merge-back path and the
    persisted cross-session snapshots, so all three speak one format.
    """
    return f"{method}:{program_length}"


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
        #: the supervised worker pool (built at the first dispatched job)
        #: and the finalizer that closes it with this session
        self._pool: Optional[WorkerSupervisor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        #: held while the pool has live jobs: one feed drives it at a time
        self._pool_lock = threading.Lock()
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
        #: (e.g. corrupt L3 log frames skipped while loading warm caches);
        #: flushed to session listeners at the next :meth:`run`
        self.startup_events: List[ProgressEvent] = []
        if self.service_config.persist_caches and self.service_config.artifact_dir:
            self._cache_snapshots = self.store.load_caches(
                self.service_config.artifact_dir,
                on_skip=self._record_skipped_frame,
            )
            if self._cache_snapshots:
                logger.info(
                    "warm caches: loaded %d persisted snapshot(s) from %s",
                    len(self._cache_snapshots),
                    self.service_config.artifact_dir,
                )

    # ------------------------------------------------------------------
    def _record_skipped_frame(self, name: str, reason: str) -> None:
        """Remember a corrupt/truncated L3 log frame skipped during load."""
        self.startup_events.append(
            ProgressEvent(kind="cache_segment_skipped", reason=f"{name}: {reason}")
        )

    def add_listener(self, listener: ProgressListener) -> None:
        """Attach a session-wide progress-event consumer."""
        self._listeners.append(listener)

    def close(self) -> None:
        """Shut down this session's worker pool (idempotent).

        The pool's workers are stopped and reaped before this returns.
        The session stays usable: a later parallel :meth:`run` forks a
        new pool.  A session that is garbage-collected (or whose
        interpreter exits) closes its pool the same way.
        """
        if self._pool_finalizer is not None:
            self._pool_finalizer()
        self._pool = None
        self._pool_finalizer = None

    def __enter__(self) -> "SynthesisSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
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
            # released once loaded: from here on the backend's cache holds
            # the entries (and the worker payload snapshots that cache)
            snapshot = self._cache_snapshots.pop(_snapshot_key(method, program_length), None)
            if snapshot:
                backend.load_cache_snapshot(snapshot)
            # persisted-snapshot loads count as writes; open a fresh dirty
            # window so the next L3 frame holds only entries this
            # session actually computes (or merges from workers)
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
        :data:`MAX_EVENTS_PER_JOB` of them."""
        job.events.extend(events)
        excess = len(job.events) - MAX_EVENTS_PER_JOB
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
        try:
            budget = SearchBudget(limit=job.budget_limit)
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
    def run(
        self,
        jobs: Optional[Sequence[SynthesisJob]] = None,
        n_workers: Optional[int] = None,
    ) -> List[SynthesisJob]:
        """Execute pending jobs, serially (in submission order) or in parallel.

        With ``n_workers > 1`` and more than one pending job the jobs go
        through :meth:`serve` over a closed list: each is dispatched to
        the session's supervised worker pool as soon as a worker is idle
        (retries, heartbeats, deadlines and serial degradation — see
        :mod:`repro.core.supervisor`), and settles the moment its own
        outcome lands.  Results (and the order of the returned list) are
        identical to a serial run.  The pool is forked at the first
        dispatched job and serves every later one until :meth:`close`;
        it is rebuilt when ``n_workers`` changes and after it degraded
        to serial.  Worker-side progress events stream back live over
        each worker's channel, so session listeners observe remote jobs
        per-generation exactly like local ones; ``job.cancel()`` reaches
        running workers through a shared cancellation flag, and cache
        entries computed by workers are merged back into this session's
        backends as each job settles.  Each dispatched job carries only
        the merged entries of its own task.  With a configured
        ``artifact_dir`` the merged caches are persisted for later
        sessions (``ServiceConfig.persist_caches``).
        """
        if self.service_config.fault_plan is not None:
            # the parent's own instrumented site (l3_append)
            # must observe the plan on serial runs too
            faults.install(self.service_config.fault_plan, role="parent")
        self._flush_startup_events()
        pending = [j for j in (jobs if jobs is not None else self.jobs) if j.state is JobState.PENDING]
        n_workers = self.service_config.n_workers if n_workers is None else int(n_workers)
        if n_workers > 1 and len(pending) > 1:
            self.serve(ListFeed(pending), n_workers)
        else:
            for job in pending:
                self.run_job(job)
        self._persist_caches()
        return pending

    def serve(
        self,
        feed: "JobFeed",
        n_workers: Optional[int] = None,
        on_settled: Optional[Callable[[SynthesisJob], None]] = None,
    ) -> None:
        """Run every job ``feed`` yields until the feed closes.

        The one scheduling loop of the session.  With ``n_workers > 1``
        each job is dispatched to the worker pool as soon as a worker is
        idle — the pool takes from the feed only as many jobs as it has
        idle workers, so the rest wait in the feed — and settles the
        moment its own outcome lands; otherwise each runs in this thread
        through :meth:`run_job`.  A job that is no longer pending when it
        is taken (cancelled while queued) settles without running.

        Settling a job calls ``on_settled(job)`` first (a server journals
        and publishes the job's end there), then merges the job's worker
        cache delta into this session's backend and appends its L3
        log frame (``ServiceConfig.persist_caches``).  When the pool
        degrades, its unfinished jobs run here serially and the next job
        gets a fresh pool.
        """
        if self.service_config.fault_plan is not None:
            faults.install(self.service_config.fault_plan, role="parent")
        n_workers = self.service_config.n_workers if n_workers is None else int(n_workers)

        def settle(job: SynthesisJob, cache_delta: Optional[dict] = None) -> None:
            if on_settled is not None:
                on_settled(job)
            if cache_delta:
                self.backend(job.method, job.program_length).load_cache_snapshot(cache_delta)
            self._persist_caches()

        while True:
            job = feed.take()
            if job is None:
                if feed.closed:
                    return
                feed.wait(_FEED_WAIT)
                continue
            self._flush_startup_events()
            if n_workers <= 1 or job.state is not JobState.PENDING:
                self.run_job(job)  # a no-op for a job cancelled while queued
                settle(job)
                continue
            with self._pool_lock:
                pool = self._pool_for(n_workers)
                settled = pool.run(self, feed, job)
                while settled:
                    for done, cache_delta in settled:
                        if done.state is JobState.PENDING:
                            # the pool degraded before this job finished:
                            # run it on the serial path (same backend, same
                            # seed — the result is what the worker would
                            # have produced)
                            self.run_job(done)
                        settle(done, cache_delta)
                    if pool.degraded:
                        self.close()  # the next job gets a fresh pool
                        break
                    settled = pool.run(self, feed)

    def _pool_for(self, n_workers: int) -> WorkerSupervisor:
        """The session's pool, (re)built when it cannot serve ``n_workers``."""
        from repro.core.supervisor import WorkerSupervisor

        if self._pool is not None and not self._pool.serves(n_workers, self.service_config):
            self.close()
        if self._pool is None:
            pool = WorkerSupervisor.for_session(self, n_workers)
            self._pool = pool
            self._pool_finalizer = weakref.finalize(self, pool.close)
        return self._pool

    def _fan_out(self, event: ProgressEvent, job: Optional[SynthesisJob]) -> None:
        """Hand one event to every session listener.

        A listener raising :class:`JobCancelled` cancels ``job`` (serial
        semantics translated to the remote flag); on an event with no job
        (a startup event) it is logged like any other exception.  Other
        listener exceptions are logged and swallowed: the pump thread and
        the supervisor must keep going, or the run would lose events.
        """
        for session_listener in self._listeners:
            try:
                session_listener(event)
            except Exception as exc:  # noqa: BLE001 - the run must survive listeners
                if isinstance(exc, JobCancelled) and job is not None:
                    job.cancel()
                else:
                    logger.exception("session listener failed on %s", event.kind)

    def _deliver_events(self, job: SynthesisJob, events: Sequence[ProgressEvent]) -> None:
        """Record worker-streamed events on ``job`` and fan them out.

        Called on the pool's pump thread, exactly like the serial
        listener (see :meth:`_fan_out`).
        """
        self._record_events(job, events)
        for event in events:
            self._fan_out(event, job)

    def _flush_startup_events(self) -> None:
        """Deliver pre-listener recovery events (once) to session listeners."""
        events, self.startup_events = self.startup_events, []
        for event in events:
            self._fan_out(event, None)

    def _supervision_event(self, event: ProgressEvent, job: Optional[SynthesisJob]) -> None:
        """Consume one of the supervisor's recovery events.

        A job-scoped event (retry, quarantine, deadline, restart) is
        recorded on ``job`` like any of its own events; every supervision
        event fans out to session listeners.  A listener raising
        :class:`JobCancelled` on a job-scoped event cancels that job.
        """
        if job is not None:
            self._record_events(job, (event,))
        self._fan_out(event, job)

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

    # ------------------------------------------------------------------
    def save_caches(self, directory=None) -> Optional[Path]:
        """Append this session's new cache entries to the L3 cache log.

        Each call appends one frame to ``<directory>/cache_log/cache.log``
        (defaulting to the configured ``artifact_dir``) holding only the
        entries written since the previous persist — the dirty windows
        of every built backend — never the whole accumulated cache.
        Reading those windows costs O(new entries) too: no cache store is
        scanned.  The
        log is keyed by the store's model hash; entries loaded
        from disk by earlier sessions stay in the log untouched, so
        sessions serving different (method, length) pairs against one
        artifact directory accumulate naturally.  Returns the log's
        path, or None when there is nowhere to write or
        nothing new to save.
        """
        directory = directory or self.service_config.artifact_dir
        if not directory:
            return None
        deltas: Dict[str, dict] = {}
        for (method, length), backend in self._backends.items():
            delta = backend.cache_snapshot(dirty_only=True)
            if delta:
                deltas[_snapshot_key(method, length)] = delta
        if not deltas:
            return None
        path = self.store.save_caches(directory, deltas)
        # the appended entries are durable now: open fresh dirty windows
        # so the next frame only carries work done after this point
        for backend in self._backends.values():
            backend.begin_cache_delta()
        return path

    def _caches_version(self) -> int:
        """Combined cache-write version of every built backend."""
        return sum(backend.cache_version() for backend in self._backends.values())

    def _persist_caches(self) -> None:
        """Append an L3 log frame after a run when the configuration asks.

        Skipped when no backend wrote a cache entry since the last save —
        a fully-warm ``run()`` costs no model re-hash and no pickling at
        all.  The appended frame holds only this run's dirty entries
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
