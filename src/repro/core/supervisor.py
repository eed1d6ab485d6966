"""Supervised parallel execution: the fault-tolerant worker pool.

A bare ``multiprocessing.Pool.map`` has no failure story: a worker
killed mid-job (OOM, segfault, SIGKILL) loses its task forever and the
map blocks until the end of time, a job that reliably crashes its worker
is retried nowhere, and a job that silently spins can only be stopped by
killing the whole run.  :class:`WorkerSupervisor` runs explicitly
managed worker processes instead and adds the failure discipline a
serving layer needs:

* **Liveness.**  Every worker runs a daemon heartbeat thread that emits
  ``"heartbeat"`` events through the session's existing event queue; the
  supervisor watches process sentinels (a dead worker is detected within
  one tick) *and* heartbeat recency (a live-but-frozen worker is detected
  within ``heartbeat_timeout`` and hard-killed).  Jobs whose claim died
  with a worker that never reported starting — the claim/report window —
  are recovered once the pool has been quiet for an orphan grace period.
* **Retry with backoff.**  A job whose worker died is requeued with
  seeded exponential backoff and jitter, up to
  ``ServiceConfig.max_job_retries`` times.  Job results are deterministic
  functions of their spec (seed travels with the job, never the worker),
  so a retried job that completes produces exactly the result the first
  attempt would have.
* **Quarantine.**  A poison job — one that kills every worker that runs
  it — exhausts its retries and ends ``failed`` with a structured
  :class:`FailureReport`; the run continues for every healthy job.
* **Deadlines.**  With ``ServiceConfig.job_deadline`` set, an overdue job
  is first cancelled cooperatively through the shared cancellation-flag
  array (the same flag ``job.cancel()`` raises); a worker that ignores
  the flag past ``deadline_grace`` is hard-killed.  Either way the job
  ends ``failed`` with a ``deadline`` report — deadline overruns are not
  retried.
* **Degradation.**  When the pool accumulates more than
  ``ServiceConfig.max_pool_crashes`` worker crashes, the supervisor stops
  feeding it, kills the survivors, and hands the remaining jobs back to
  the session to run serially in the parent (``"degraded_serial"``) —
  slower, but immune to whatever was killing the workers.

With no faults and default knobs the supervisor is pure bookkeeping on
the parent side: every job runs in the session's worker function
(``_run_service_job``) with the per-process state installed by
:func:`_parallel_worker_init`, so seeded parallel runs remain
event-for-event identical to serial ones.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ServiceConfig
from repro.events import ProgressEvent
from repro.utils.logging import get_logger

logger = get_logger("core.supervisor")

#: supervisor poll tick: how often worker death / deadlines / heartbeats
#: are re-checked while waiting for results
_TICK = 0.02


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

    #: "ok" | "cancelled" | "failed" | "pending_serial" (degraded runs
    #: hand unfinished jobs back to the session's serial path)
    status: str
    result: Any = None
    error: Optional[str] = None
    #: events the final attempt emitted (what the settle phase waits for)
    n_events: int = 0
    cache_delta: Optional[dict] = None
    failure: Optional[FailureReport] = None
    #: worker crashes this job survived (its stream may hold partial
    #: attempts, so the settle phase must not wait for exact counts)
    crashes: int = 0
    attempts: int = 1


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: Per-process state installed by :func:`_parallel_worker_init` (under
#: ``fork`` the context is inherited; under ``spawn`` it travels via
#: pickling, which the DSL layer supports — see ``DSLFunction.__reduce__``).
_WORKER_STATE: Dict[str, Any] = {}


class PayloadResolutionError:
    """Marker carrying a worker-side payload attachment failure.

    Raising while a worker initializes would kill it before it claims a
    job, so resolution failures are captured and re-raised lazily by
    whichever job first consumes the payload — that job fails cleanly
    instead of taking the worker down.
    """

    def __init__(self, error: BaseException) -> None:
        self.message = f"worker payload resolution failed: {type(error).__name__}: {error}"

    def raise_(self) -> None:
        raise RuntimeError(self.message)


def _resolve_payload(payload: Any) -> Any:
    """Give payload descriptors a chance to attach per-process resources.

    A payload exposing ``resolve_in_worker()`` (e.g. the service layer's
    ``SharedWorkerPayload``) is resolved exactly once per process — this
    is where shared-memory model serving mmaps the packed weight segment
    instead of unpickling model objects into the worker.
    """
    resolve = getattr(payload, "resolve_in_worker", None)
    if not callable(resolve):
        return payload
    try:
        return resolve()
    except Exception as error:  # noqa: BLE001 - must not kill the worker
        return PayloadResolutionError(error)


def _parallel_worker_init(
    seed: int, payload: Any, event_queue: Any = None, cancel_flags: Any = None
) -> None:
    """Initialize one worker: seed its RNGs and stash the shared payload.

    The global numpy RNG is seeded per worker (mixed with the PID) as a
    safety net for any library code that touches it; all repo components
    draw from explicitly seeded generators, which is what actually makes
    parallel results byte-identical to serial ones.

    ``event_queue`` (a ``multiprocessing`` queue) and ``cancel_flags`` (a
    shared byte array, one slot per job) are the service layer's
    cross-process progress channel: job functions read them back via
    :func:`worker_event_queue` / :func:`worker_cancel_flags` to stream
    ``ProgressEvent``\\ s to the parent and to observe cooperative
    cancellation requests while running.
    """
    np.random.seed((int(seed) * 1_000_003 + os.getpid()) % (2**32))
    _WORKER_STATE["payload"] = _resolve_payload(payload)
    _WORKER_STATE["event_queue"] = event_queue
    _WORKER_STATE["cancel_flags"] = cancel_flags


def worker_payload() -> Any:
    """The payload this worker process was initialized with."""
    return _WORKER_STATE.get("payload")


def worker_event_queue() -> Any:
    """This worker's cross-process progress-event queue (or None)."""
    return _WORKER_STATE.get("event_queue")


def worker_cancel_flags() -> Any:
    """This worker's shared per-job cancellation flags (or None)."""
    return _WORKER_STATE.get("cancel_flags")


def _heartbeat_loop(worker_id: int, event_queue: Any, interval: float,
                    stop: threading.Event) -> None:
    """Emit one ``"heartbeat"`` event per interval until told to stop."""
    while not stop.wait(interval):
        try:
            event_queue.put((-1, ProgressEvent(kind="heartbeat", worker_id=worker_id)))
        except Exception:  # noqa: BLE001 - queue torn down: stop beating
            return


def _supervised_worker_main(
    worker_id: int,
    seed: int,
    payload: Any,
    task_queue: Any,
    result_queue: Any,
    event_queue: Any,
    cancel_flags: Any,
    heartbeat_interval: float,
    fault_plan: Any,
) -> None:
    """One supervised worker: claim specs, run them, report outcomes.

    Installs the per-process state (:func:`_parallel_worker_init`), then
    runs each claimed spec through the session's job function
    (:func:`repro.core.service._run_service_job`), so a supervised job is
    bit-identical to a serial one.  Lifecycle
    messages (``started`` / ``outcome``) travel a dedicated result queue;
    progress events and heartbeats travel the session's event queue.
    """
    from repro.core.service import _run_service_job
    from repro.execution import faults

    faults.install(fault_plan, role="worker")
    stop = threading.Event()
    if event_queue is not None and heartbeat_interval > 0:
        # beat from the first instant: payload resolution below can be
        # slow (model weights), and a worker must look alive throughout
        threading.Thread(
            target=_heartbeat_loop,
            args=(worker_id, event_queue, heartbeat_interval, stop),
            name=f"netsyn-heartbeat-{worker_id}",
            daemon=True,
        ).start()
    _parallel_worker_init(seed, payload, event_queue, cancel_flags)
    try:
        while True:
            item = task_queue.get()
            if item is None:
                return
            spec, attempt = item
            job_index, job_id = spec[0], spec[1]
            result_queue.put(("started", worker_id, job_index, attempt))
            target = f"{job_id}:{attempt}"
            faults.fire("worker_start", target=target)
            outcome = _run_service_job(spec)
            faults.fire("pre_merge", target=target)
            result_queue.put(("outcome", worker_id, job_index, attempt, outcome))
    finally:
        stop.set()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class WorkerSupervisor:
    """Runs one batch of job specs over supervised worker processes.

    Parameters
    ----------
    n_workers:
        Target pool size (capped at the number of specs).
    config:
        The session's :class:`~repro.config.ServiceConfig` (retry,
        heartbeat, deadline and degradation knobs).
    seed:
        Session seed; with the fault plan's seed it derives the
        deterministic retry jitter and the per-worker RNG init.
    payload / event_queue / cancel_flags:
        Handed to every worker's :func:`_parallel_worker_init`: the
        worker payload descriptor, the streaming event queue (or None)
        and the shared per-job cancellation-flag array.
    emit:
        Callback receiving supervision :class:`ProgressEvent`\\ s
        (restarts, retries, quarantines, deadline and degradation
        events) for session-listener fan-out.
    """

    def __init__(
        self,
        n_workers: int,
        config: ServiceConfig,
        seed: int,
        payload: Any,
        event_queue: Any,
        cancel_flags: Any,
        emit: Optional[Callable[[ProgressEvent], None]] = None,
        context: Any = None,
    ) -> None:
        import multiprocessing

        self.config = config
        self.seed = int(seed)
        self.payload = payload
        self.event_queue = event_queue
        self.cancel_flags = cancel_flags
        self._emit_cb = emit
        self._context = context or multiprocessing.get_context()
        self.n_workers = int(n_workers)
        self.degraded = False
        self.total_crashes = 0
        #: worker_id -> {"process", "job": None | (job_index, attempt, t0),
        #:               "kill_reason": str}
        self._workers: Dict[int, dict] = {}
        #: worker_id -> last heartbeat (monotonic); fed by the event pump
        self._heartbeats: Dict[int, float] = {}
        self._next_worker_id = 0
        self._task_queue: Any = None
        self._result_queue: Any = None

    # ------------------------------------------------------------------
    def observe_control(self, event: ProgressEvent) -> None:
        """Hook the event pump calls with control-channel events."""
        if event.kind == "heartbeat" and event.worker_id >= 0:
            self._heartbeats[event.worker_id] = time.monotonic()

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
        On degradation, unfinished jobs come back ``pending_serial`` for
        the caller to run in-process.
        """
        self._specs = list(specs)
        n = len(self._specs)
        self._outcomes: List[Optional[SupervisedOutcome]] = [None] * n
        self._attempts = [0] * n
        self._crashes = [0] * n
        self._crash_workers: List[List[int]] = [[] for _ in range(n)]
        self._first_start = [0.0] * n
        self._deadline_fired = [False] * n
        self._deadline_kill_at = [0.0] * n
        #: retries waiting out their backoff: (due_time, job_index)
        self._delayed: List[Tuple[float, int]] = []
        self._queued = 0  # specs handed to the task queue, not yet started

        self._task_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        for index in range(n):
            self._enqueue(index)
        for _ in range(min(self.n_workers, max(1, n))):
            self._spawn_worker()
        try:
            self._supervise()
        finally:
            self._shutdown()
        if self.degraded:
            for index in range(n):
                if self._outcomes[index] is None:
                    self._outcomes[index] = SupervisedOutcome(
                        status="pending_serial",
                        crashes=self._crashes[index],
                        attempts=self._attempts[index],
                    )
        return [outcome for outcome in self._outcomes]  # all set by now

    # ------------------------------------------------------------------
    def _enqueue(self, job_index: int) -> None:
        self._task_queue.put((self._specs[job_index], self._attempts[job_index]))
        self._attempts[job_index] += 1
        self._queued += 1

    def _spawn_worker(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._context.Process(
            target=_supervised_worker_main,
            args=(
                worker_id,
                self.seed,
                self.payload,
                self._task_queue,
                self._result_queue,
                self.event_queue,
                self.cancel_flags,
                self.config.heartbeat_interval,
                self.config.fault_plan,
            ),
            name=f"netsyn-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = {"process": process, "job": None, "kill_reason": ""}
        self._heartbeats[worker_id] = time.monotonic()
        return worker_id

    def _pending(self) -> int:
        return sum(1 for outcome in self._outcomes if outcome is None)

    def _backoff(self, job_index: int, attempt: int) -> float:
        base = self.config.retry_backoff * (2 ** max(0, attempt - 1))
        delay = min(base, self.config.retry_backoff_max)
        plan_seed = getattr(self.config.fault_plan, "seed", 0) or 0
        rng = random.Random((self.seed * 1_000_003 + plan_seed) ^ (job_index << 17) ^ attempt)
        return delay * (1.0 + self.config.retry_jitter * rng.random())

    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        from queue import Empty

        # how long a fully quiet pool (idle workers, nothing draining, no
        # scheduled retries, jobs still unaccounted) is trusted before the
        # unaccounted jobs are declared orphaned.  A worker silent that
        # long is dead by the heartbeat policy anyway, so re-enqueuing
        # cannot double-run a job that is merely slow.
        if self.event_queue is not None:
            orphan_grace = max(2.0, self.config.heartbeat_timeout)
        else:
            orphan_grace = 5.0
        last_progress = time.monotonic()
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
                if due:
                    last_progress = now
            # drain every queued lifecycle message
            drained = False
            try:
                self._handle(self._result_queue.get(timeout=_TICK))
                drained = True
                while True:
                    self._handle(self._result_queue.get_nowait())
            except Empty:
                pass
            if drained:
                last_progress = time.monotonic()
            crashes_before = self.total_crashes
            self._reap_dead_workers()
            self._check_deadlines()
            self._check_heartbeats()
            if self.total_crashes != crashes_before:
                last_progress = time.monotonic()
            if self.total_crashes > self.config.max_pool_crashes:
                self._degrade()
                return
            if not drained and not self._workers and self._pending() > 0 and not self._delayed:
                # every worker is gone and nothing is scheduled: degrade
                # rather than spin forever (can only happen when spawns
                # fail or the crash budget exactly drained the pool)
                self._degrade()  # pragma: no cover - defensive
                return
            if (
                not drained
                and not self._delayed
                and self._pending() > 0
                and all(
                    state["job"] is None and not state["kill_reason"]
                    for state in self._workers.values()
                )
                and time.monotonic() - last_progress > orphan_grace
            ):
                self._recover_orphans()
                last_progress = time.monotonic()

    def _recover_orphans(self) -> None:
        """Requeue jobs whose task-queue claim died with an unreported worker.

        A worker can die (or freeze) in the window between claiming a
        task and its ``started`` message reaching the parent; from here
        that worker looked idle, so its death attributed no job loss and
        the job would otherwise wait forever.  When the pool has been
        fully quiet for the orphan grace period — every live worker idle,
        no retries scheduled, nothing draining — any job still without an
        outcome can only be such an orphan (an idle worker claims a
        genuinely queued task within milliseconds), so each one re-enters
        the normal lost-job path: backoff retry, or quarantine once its
        retries are spent.
        """
        for job_index in range(len(self._specs)):
            if self._outcomes[job_index] is None and not self._deadline_fired[job_index]:
                logger.warning(
                    "job %s orphaned (claimed by a worker that died unreported); recovering",
                    self._specs[job_index][1],
                )
                self._job_lost(job_index, worker_id=-1, reason="orphaned")
            elif self._outcomes[job_index] is None:
                self._outcomes[job_index] = self._deadline_outcome(job_index)

    def _handle(self, message: Tuple) -> None:
        kind = message[0]
        if kind == "started":
            _, worker_id, job_index, attempt = message
            state = self._workers.get(worker_id)
            if state is not None:
                state["job"] = (job_index, attempt, time.monotonic())
            self._queued -= 1
            self._heartbeats[worker_id] = time.monotonic()
            if self._first_start[job_index] == 0.0:
                self._first_start[job_index] = time.monotonic()
        elif kind == "outcome":
            _, worker_id, job_index, attempt, outcome = message
            state = self._workers.get(worker_id)
            if state is not None:
                state["job"] = None
            self._heartbeats[worker_id] = time.monotonic()
            if self._outcomes[job_index] is not None:
                return  # stale duplicate from a raced retry
            status, result, error, n_events, delta = outcome
            if status == "cancelled" and self._deadline_fired[job_index]:
                # the cancellation the worker observed was the deadline
                # enforcement, not a user request
                self._outcomes[job_index] = self._deadline_outcome(
                    job_index, n_events=n_events, delta=delta
                )
                return
            self._outcomes[job_index] = SupervisedOutcome(
                status=status,
                result=result,
                error=error,
                n_events=n_events,
                cache_delta=delta,
                crashes=self._crashes[job_index],
                attempts=self._attempts[job_index],
            )

    def _deadline_outcome(self, job_index: int, n_events: int = 0,
                          delta: Optional[dict] = None) -> SupervisedOutcome:
        spec = self._specs[job_index]
        report = FailureReport(
            job_id=spec[1],
            kind="deadline",
            attempts=self._attempts[job_index],
            message=f"exceeded the {self.config.job_deadline:.1f}s wall-clock deadline",
            worker_ids=tuple(self._crash_workers[job_index]),
            elapsed=time.monotonic() - self._first_start[job_index]
            if self._first_start[job_index]
            else 0.0,
        )
        return SupervisedOutcome(
            status="failed",
            error=str(report),
            n_events=n_events,
            cache_delta=delta,
            failure=report,
            crashes=self._crashes[job_index],
            attempts=self._attempts[job_index],
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
            reason = state["kill_reason"] or "worker_crash"
            job = state["job"]
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
        self._crashes[job_index] += 1
        self._crash_workers[job_index].append(worker_id)
        spec = self._specs[job_index]
        if self._deadline_fired[job_index]:
            self._outcomes[job_index] = self._deadline_outcome(job_index)
            return
        attempt = self._attempts[job_index]  # attempts already started
        if attempt > self.config.max_job_retries:
            report = FailureReport(
                job_id=spec[1],
                kind="hung" if reason == "heartbeat_timeout" else "crash",
                attempts=attempt,
                message=(
                    f"worker died ({reason}) on every attempt; "
                    f"quarantined after {attempt} attempt(s)"
                ),
                worker_ids=tuple(self._crash_workers[job_index]),
                elapsed=time.monotonic() - self._first_start[job_index]
                if self._first_start[job_index]
                else 0.0,
            )
            self._outcomes[job_index] = SupervisedOutcome(
                status="failed",
                error=str(report),
                failure=report,
                crashes=self._crashes[job_index],
                attempts=attempt,
            )
            self._emit(
                "job_quarantined",
                job_index=job_index,
                worker_id=worker_id,
                attempt=attempt,
                reason=reason,
            )
            return
        delay = self._backoff(job_index, attempt)
        self._delayed.append((time.monotonic() + delay, job_index))
        logger.info(
            "job %s lost to %s (attempt %d); retrying in %.3fs",
            spec[1], reason, attempt, delay,
        )

    def _check_deadlines(self) -> None:
        deadline = self.config.job_deadline
        if deadline is None:
            return
        now = time.monotonic()
        for worker_id, state in list(self._workers.items()):
            job = state["job"]
            if job is None:
                continue
            job_index, _attempt, started = job
            if self._outcomes[job_index] is not None:
                continue
            overdue = now - started - deadline
            if overdue <= 0:
                continue
            if not self._deadline_fired[job_index]:
                self._deadline_fired[job_index] = True
                self._deadline_kill_at[job_index] = now + self.config.deadline_grace
                if self.cancel_flags is not None:
                    self.cancel_flags[job_index] = 1
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
        if self.event_queue is None:
            return  # heartbeats ride the event queue; without it rely on sentinels
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

    def _shutdown(self) -> None:
        for _ in self._workers:
            try:
                self._task_queue.put(None)
            except Exception:  # noqa: BLE001 - queue already broken
                break
        deadline = time.monotonic() + 2.0
        for state in self._workers.values():
            state["process"].join(timeout=max(0.0, deadline - time.monotonic()))
        for state in self._workers.values():
            if state["process"].is_alive():
                self._kill(state["process"])
                state["process"].join(timeout=1.0)
        self._workers.clear()
        try:
            self._result_queue.close()
            self._task_queue.close()
        except Exception:  # noqa: BLE001 - best-effort cleanup
            pass
