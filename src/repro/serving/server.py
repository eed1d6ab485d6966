"""The asyncio synthesis server: one warm session, many connections.

Architecture (three kinds of thread, one asyncio loop)::

    asyncio loop (netsyn-serving-loop)
        accepts connections, parses frames, answers control requests,
        writes event streams.  Never runs synthesis.
    scheduler thread (netsyn-serving-scheduler)
        runs :meth:`~repro.core.service.SynthesisSession.serve` over the
        admission queue: each admitted job goes to the session's worker
        pool as soon as a worker is idle (or runs in this thread with
        ``n_workers=1``) and settles the moment its own outcome lands —
        no job waits for another.
    the session's own machinery
        the supervised worker pool, event pump and caches of
        :class:`~repro.core.service.SynthesisSession` — unchanged; the
        server is a network shell around it.

Event routing: the server registers one session listener.  Every event
carries its ``job_id``; the listener appends it (in emission order) to
that job's stream buffer and wakes each subscribed connection through
``loop.call_soon_threadsafe`` — once per burst: a subscriber already
woken is not woken again until it has read the buffer, and then writes
every frame it has not sent yet with one write and one drain.  Because
the buffer holds the complete ordered stream, a client may subscribe
before, during or after the run — late subscribers replay the backlog
first, so the observed per-job stream is identical regardless of timing,
and a disconnected client can reconnect and resume from any sequence
number.

Backpressure is rejection, not stalling: a ``submit`` beyond
``max_pending_jobs`` unsettled jobs is answered with an
``over_capacity`` error carrying ``retry_after`` — the accept loop and
running jobs are never blocked by an overeager client.

Durability (``ServingConfig.journal_dir``): every admission is appended
to a crash-safe :class:`~repro.serving.journal.JobJournal` *before* the
client sees ``submitted``, and every terminal outcome (and cancellation)
is journaled when it happens.  A server killed at any instant — SIGKILL
included — restarts on the same journal directory with nothing lost:
unfinished jobs are re-admitted into the warm session under their
original job ids and re-run (seeded synthesis is deterministic, so the
regenerated event stream is the one the client was reading), settled
jobs answer ``status``/``events``/idempotent resubmits straight from
their journaled results, and a client that retries a ``submit`` under
the same idempotency key after an ambiguous failure is deduplicated
instead of double-running the task.  SIGTERM (via
:meth:`install_sigterm_handler`) triggers a graceful drain: admissions
stop (``server_draining`` errors), running jobs finish, and queued
leftovers stay journaled for the next server run.
"""

from __future__ import annotations

import asyncio
import queue
import signal
import threading
import time
from typing import Any, Dict, List, Optional

from repro.config import ServingConfig
from repro.core.service import JobFeed, JobState, SynthesisJob, SynthesisSession
from repro.events import ProgressEvent
from repro.serving import protocol
from repro.serving.journal import JobJournal
from repro.utils.logging import get_logger

logger = get_logger("serving.server")


class _Subscriber:
    """One connection reading a job's stream."""

    __slots__ = ("loop", "ready", "woken")

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        #: set (on the loop) when the stream has frames it has not read
        self.ready = asyncio.Event()
        #: a wake is on its way (guarded by the stream's lock)
        self.woken = False


class _JobStream:
    """The buffered, subscribable event stream of one job."""

    __slots__ = ("lock", "frames", "subscribers", "terminal", "settling")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: ordered ``event`` frames (wire form), seq == index
        self.frames: List[dict] = []
        #: live consumers, woken via call_soon_threadsafe
        self.subscribers: List[_Subscriber] = []
        #: the ``end`` frame once the job settled (None while running)
        self.terminal: Optional[dict] = None
        #: the job's settle has begun (it settles once)
        self.settling = False

    def unwoken(self) -> List[_Subscriber]:
        """Subscribers to wake now, marked woken (call under the lock)."""
        wake = [subscriber for subscriber in self.subscribers if not subscriber.woken]
        for subscriber in wake:
            subscriber.woken = True
        return wake


def _wake(subscribers: List[_Subscriber]) -> None:
    for subscriber in subscribers:
        try:
            subscriber.loop.call_soon_threadsafe(subscriber.ready.set)
        except RuntimeError:  # that connection's loop is gone
            pass


class _AdmissionFeed(JobFeed):
    """The admission queue as the session's job feed.

    Closed once the server drains or stops: the jobs still queued then
    stay in the queue (journaled, or settled as cancelled).  Remembers
    the jobs it handed out until they settle.
    """

    def __init__(self, jobs: "queue.Queue[SynthesisJob]", draining: threading.Event) -> None:
        super().__init__()
        self._jobs = jobs
        self._draining = draining
        #: job_id -> job taken and not yet settled
        self.taken: Dict[str, SynthesisJob] = {}

    def take(self) -> Optional[SynthesisJob]:
        if self.closed:
            return None
        try:
            job = self._jobs.get_nowait()
        except queue.Empty:
            return None
        self.taken[job.job_id] = job
        return job

    @property
    def closed(self) -> bool:
        return self._draining.is_set()


class SynthesisServer:
    """Serve one :class:`SynthesisSession` to concurrent network clients."""

    def __init__(
        self,
        session: SynthesisSession,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.session = session
        self.config = config or ServingConfig()
        session.add_listener(self._on_event)
        self._jobs: Dict[str, SynthesisJob] = {}
        self._streams: Dict[str, _JobStream] = {}
        self._registry_lock = threading.Lock()
        #: admitted-but-unsettled job count (the admission bound)
        self._active = 0
        self._admission_lock = threading.Lock()
        self._queue: "queue.Queue[SynthesisJob]" = queue.Queue()
        self._stopping = threading.Event()
        #: set while draining: admissions and side requests answer
        #: ``server_draining``; event streams of running jobs keep flowing
        self._draining = threading.Event()
        self._feed = _AdmissionFeed(self._queue, self._draining)
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._main_task: Optional["asyncio.Task[None]"] = None
        self._shutdown_task: Optional["asyncio.Task[None]"] = None
        self._scheduler: Optional[threading.Thread] = None
        self._thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None
        self._started_at = time.monotonic()
        #: count of quick (non-stream) dispatches currently answering;
        #: shutdown waits briefly for this to reach zero so in-flight
        #: side requests settle with a frame instead of a reset
        self._busy = 0
        # -- durability state (all journal-backed, empty without one) --
        #: settled jobs answerable from the journal: job_id -> wire form
        self._settled_wire: Dict[str, dict] = {}
        #: idempotency dedup: client key -> job_id (live or settled)
        self._key_to_job: Dict[str, str] = {}
        #: live job_id -> its idempotency key (to journal the settle)
        self._job_keys: Dict[str, Optional[str]] = {}
        #: admitted-but-unsettled job ids present in the journal
        self._journal_pending: set = set()
        #: job ids re-admitted from the journal at startup
        self.recovered_jobs: List[str] = []
        #: recovery-time events (``server_recovered``,
        #: ``journal_record_skipped``) — also appended to the session's
        #: ``startup_events`` so attached listeners see them at next run
        self.recovery_events: List[ProgressEvent] = []
        self._journal: Optional[JobJournal] = None
        if self.config.journal_dir:
            self._journal = JobJournal(
                self.config.journal_dir,
                fsync=self.config.journal_fsync,
            )
            self._recover()

    # ------------------------------------------------------------------
    # journal recovery (runs in __init__, before the server listens)

    def _record_recovery_event(self, event: ProgressEvent) -> None:
        self.recovery_events.append(event)
        # session.startup_events flush to attached listeners at the next
        # run, so server-side logs record the recovery too
        self.session.startup_events.append(event)

    def _recover(self) -> None:
        """Replay the journal: re-admit unfinished jobs, index settled ones."""
        assert self._journal is not None

        def on_skip(reason: str) -> None:
            self._record_recovery_event(
                ProgressEvent(kind="journal_record_skipped", reason=reason)
            )

        state = self._journal.replay(on_skip=on_skip)
        self._settled_wire = dict(state.settled)
        self._key_to_job = dict(state.key_to_job)
        for job_id, key in state.settled_keys.items():
            self._job_keys.setdefault(job_id, key)
        for job_id, admit in state.pending.items():
            try:
                task = protocol.task_from_wire(admit.get("task") or {})
                job = self.session.submit(
                    task,
                    method=admit.get("method") or None,
                    budget=admit.get("budget"),
                    seed=int(admit.get("seed", 0)),
                    program_length=admit.get("program_length"),
                    job_id=job_id,
                )
            except (protocol.ProtocolError, KeyError, TypeError, ValueError) as error:
                # an unfinished job whose admit record no longer parses is
                # damage, not work: skip it like a torn record
                on_skip(f"unrecoverable admit record for {job_id}: {error}")
                continue
            key = admit.get("idempotency_key")
            self._job_keys[job.job_id] = str(key) if key else None
            self._jobs[job.job_id] = job
            self._streams[job.job_id] = _JobStream()
            self._journal_pending.add(job.job_id)
            self.recovered_jobs.append(job.job_id)
            with self._admission_lock:
                self._active += 1
            if job_id in state.cancelled:
                # the cancellation was journaled before the crash: honor
                # it without re-running (pending jobs cancel immediately)
                job.cancel()
                self._settle(job)
            else:
                self._queue.put(job)
                self._feed.ring()
        if self.recovered_jobs or state.skipped:
            self._record_recovery_event(
                ProgressEvent(
                    kind="server_recovered",
                    reason=(
                        f"re-admitted {len(self.recovered_jobs)} unfinished job(s), "
                        f"{len(self._settled_wire)} settled job(s) answerable from "
                        f"the journal, {state.skipped} record(s) skipped"
                    ),
                )
            )
            logger.info("journal recovery: %s", self.recovery_events[-1].reason)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> "SynthesisServer":
        """Bind and start serving on the current asyncio loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="netsyn-serving-scheduler", daemon=True
        )
        self._scheduler.start()
        self._started.set()
        logger.info("synthesis server listening on %s:%d", self.config.host, self.port)
        return self

    async def _serve_forever(self) -> None:
        self._main_task = asyncio.current_task()
        await self.start()
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    def start_background(self) -> "SynthesisServer":
        """Run the server on a daemon thread; returns once it listens."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve_forever()),
            name="netsyn-serving-loop",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("synthesis server failed to start")
        return self

    @property
    def address(self) -> str:
        """The ``host:port`` clients connect to (after :meth:`start`)."""
        if self.port is None:
            raise RuntimeError("server not started")
        return f"{self.config.host}:{self.port}"

    def _request_stop(self) -> None:
        """Initiate shutdown without joining (safe from any thread)."""
        self._draining.set()  # in-flight side requests answer server_draining
        self._stopping.set()
        self._feed.ring()
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._schedule_graceful_shutdown)
            except RuntimeError:  # loop already closed
                pass

    def _schedule_graceful_shutdown(self) -> None:
        # once: a stop() after a remote shutdown schedules this again, and
        # a second task created while asyncio.run() finalizes never runs
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._graceful_shutdown())

    async def _graceful_shutdown(self) -> None:
        """Stop accepting, let in-flight quick dispatches answer, then die.

        Side requests (``status``/``cancel``/``submit``) caught mid-flight
        by the shutdown settle with a ``server_draining`` frame instead
        of a bare connection reset; streams blocked waiting for events
        are cancelled with the loop (their clients reconnect).
        """
        if self._server is not None:
            self._server.close()
        for _ in range(50):
            if not self._busy:
                break
            await asyncio.sleep(0.01)
        if self._main_task is not None:
            self._main_task.cancel()

    def request_drain(self) -> None:
        """Begin a graceful drain (safe from any thread, idempotent).

        Admissions and side requests start answering ``server_draining``;
        the scheduler dispatches no further job, lets the running ones
        finish and exits; queued jobs that never ran stay journaled for
        the next server run (with no journal they are settled as
        cancelled so no client hangs).
        """
        if self._draining.is_set():
            return
        self._draining.set()
        logger.info("drain requested: admissions stopped, running jobs finishing")
        self._feed.ring()

    def drain_and_stop(self) -> None:
        """Graceful SIGTERM path: drain, bounded wait, then stop.

        Waits up to ``ServingConfig.drain_timeout`` for running jobs to
        finish; whatever is still unfinished past that stays journaled
        and the server stops anyway.
        """
        self.request_drain()
        if self._scheduler is not None and self._scheduler is not threading.current_thread():
            self._scheduler.join(timeout=self.config.drain_timeout)
            if self._scheduler.is_alive():
                logger.warning(
                    "drain timed out after %.1fs; unfinished jobs stay journaled",
                    self.config.drain_timeout,
                )
        self.stop()

    def install_sigterm_handler(self) -> bool:
        """Route SIGTERM to :meth:`drain_and_stop` (main thread only).

        Returns False (and changes nothing) when not called from the
        main thread — signal handlers can only be installed there.
        """

        def handler(signum: int, _frame: Any) -> None:
            logger.info("SIGTERM: draining before shutdown")
            # the drain blocks on running jobs; do it off the handler so
            # the signal returns immediately
            threading.Thread(
                target=self.drain_and_stop, name="netsyn-serving-drain", daemon=True
            ).start()

        try:
            signal.signal(signal.SIGTERM, handler)
        except ValueError:  # not the main thread
            return False
        return True

    def stop(self) -> None:
        """Shut down the server and join its threads (idempotent).

        No queued job is dispatched after the stop; the running ones
        finish (the join waits up to 30 s for them).  Jobs still queued
        are settled as cancelled when the server has no journal (so no
        client hangs); with one they stay journaled as pending and the
        next server run re-admits them.  :meth:`drain_and_stop` waits
        ``drain_timeout`` instead.
        """
        self._request_stop()
        if self._scheduler is not None and self._scheduler is not threading.current_thread():
            self._scheduler.join(timeout=30.0)
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=30.0)
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "SynthesisServer":
        return self.start_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # event routing (called on the session's pump/scheduler threads)

    def _on_event(self, event: ProgressEvent) -> None:
        stream = self._streams.get(event.job_id)
        if stream is None:  # session-scope events (startup recovery etc.)
            return
        frame = {"type": "event", "seq": 0, "event": protocol.event_to_wire(event)}
        with stream.lock:
            frame["seq"] = len(stream.frames)
            stream.frames.append(frame)
            wake = stream.unwoken()
        _wake(wake)

    def _settle(self, job: SynthesisJob) -> None:
        """Publish a job's terminal frame and release its admission slot.

        Called once the job is terminal, from the scheduler thread (or
        the loop thread, for a job cancelled while queued); a job settles
        once, whoever calls first.  With a journal, the terminal outcome
        is made durable *before* subscribers see the end frame — a crash
        between the two costs a re-delivery (the journaled result answers
        the resumed stream), never a lost result.
        """
        self._feed.taken.pop(job.job_id, None)
        stream = self._streams.get(job.job_id)
        if stream is not None:
            with stream.lock:
                if stream.settling:
                    return
                stream.settling = True
        end = {"type": "end", "job": protocol.job_to_wire(job)}
        if self._journal is not None:
            try:
                self._journal.settle(
                    job.job_id, end["job"], idempotency_key=self._job_keys.get(job.job_id)
                )
            except OSError as error:  # journal on a full/broken disk:
                logger.warning("journal settle of %s failed: %s", job.job_id, error)
            self._settled_wire[job.job_id] = end["job"]
            self._journal_pending.discard(job.job_id)
            try:
                self._journal.maybe_compact()
            except OSError as error:
                logger.warning("journal compaction failed: %s", error)
        if stream is not None:
            with stream.lock:
                stream.terminal = end
                wake = stream.unwoken()
            _wake(wake)
        with self._admission_lock:
            self._active -= 1

    # ------------------------------------------------------------------
    # scheduling (the scheduler thread)

    def _schedule_loop(self) -> None:
        while True:
            try:
                self.session.serve(
                    self._feed, n_workers=self.config.n_workers, on_settled=self._settle
                )
                break
            except Exception as error:  # noqa: BLE001 - the server must survive it
                logger.exception("scheduling failed; failing its unsettled jobs")
                for job in list(self._feed.taken.values()):
                    if not job.done:
                        job.state = JobState.FAILED
                        job.error = f"{type(error).__name__}: {error}"
                    self._settle(job)
        # leftovers still queued: with a journal they stay pending on
        # disk — the next server run re-admits them — so their work is
        # never discarded; without one they are settled as cancelled so
        # no client hangs on a stream that will never end
        leftover = 0
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if self._journal is not None and not job.done:
                leftover += 1
                continue
            if not job.done:
                job.state = JobState.CANCELLED
            self._settle(job)
        if leftover:
            logger.info(
                "%d queued job(s) left journaled for the next server run", leftover
            )

    # ------------------------------------------------------------------
    # connections (the asyncio loop)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # client went away between frames: normal
                except protocol.ProtocolError as error:
                    # answer loudly, then drop the connection: after a
                    # malformed frame the byte stream cannot be trusted
                    await protocol.write_frame(
                        writer, protocol.error_frame("bad_frame", str(error)),
                    )
                    break
                if await self._dispatch(frame, writer):
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # mid-write disconnect or server shutdown: nothing to save
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # a shutdown-time cancel landing inside this close is
                # absorbed so the task ends cleanly (asyncio's stream
                # callback logs spurious errors for cancelled tasks)
                pass

    async def _dispatch(self, frame: dict, writer: asyncio.StreamWriter) -> bool:
        """Handle one request frame; True closes the connection."""
        kind = frame.get("type")
        if kind == "events":
            # streams run long and must keep flowing during a drain so
            # clients can finish reading their running jobs
            await self._handle_events(frame, writer)
            return False
        self._busy += 1  # loop-thread only; shutdown waits for zero
        try:
            return await self._dispatch_quick(kind, frame, writer)
        finally:
            self._busy -= 1

    async def _dispatch_quick(
        self, kind: Any, frame: dict, writer: asyncio.StreamWriter
    ) -> bool:
        if kind in ("submit", "status", "cancel") and (
            self._draining.is_set() or self._stopping.is_set()
        ):
            # a draining server settles side requests with a structured
            # answer, never a bare connection reset; clients retry
            # against the restarted server (the journal keeps their jobs)
            await protocol.write_frame(
                writer,
                protocol.error_frame(
                    "server_draining",
                    "server is draining; running jobs finish, queued jobs stay journaled",
                    retry_after=self.config.retry_after,
                ),
            )
            return False
        if kind == "submit":
            await protocol.write_frame(writer, self._handle_submit(frame))
        elif kind == "health":
            await protocol.write_frame(writer, self._health_frame())
        elif kind == "status":
            await protocol.write_frame(writer, self._job_frame(frame, cancel=False))
        elif kind == "cancel":
            await protocol.write_frame(writer, self._job_frame(frame, cancel=True))
        elif kind == "ping":
            with self._admission_lock:
                active = self._active
            await protocol.write_frame(
                writer,
                {
                    "type": "pong",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "active_jobs": active,
                },
            )
        elif kind == "shutdown":
            if not self.config.allow_remote_shutdown:
                await protocol.write_frame(
                    writer, protocol.error_frame("forbidden", "remote shutdown is disabled"),
                )
                return True
            await protocol.write_frame(writer, {"type": "bye"})
            self._request_stop()
            return True
        else:
            await protocol.write_frame(
                writer, protocol.error_frame("unknown_type", f"unknown frame type {kind!r}"),
            )
        return False

    def _health_frame(self) -> dict:
        """The ``health`` answer: one frame summarizing server vitals."""
        with self._admission_lock:
            active = self._active
        if self._stopping.is_set():
            state = "stopping"
        elif self._draining.is_set():
            state = "draining"
        else:
            state = "serving"
        journal = None
        if self._journal is not None:
            journal = {
                "appends": self._journal.appends,
                "compactions": self._journal.compactions,
                "bytes": self._journal.size(),
            }
        return {
            "type": "health",
            "state": state,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime": time.monotonic() - self._started_at,
            "active_jobs": active,
            "queue_depth": self._queue.qsize(),
            "journaled_pending": len(self._journal_pending),
            "settled_jobs": len(self._settled_wire),
            "recovered_jobs": len(self.recovered_jobs),
            "methods": list(self.session.methods),
            "journal": journal,
        }

    # -- submit ---------------------------------------------------------

    def _handle_submit(self, frame: dict) -> dict:
        key = frame.get("idempotency_key")
        key = str(key) if key else None
        if key is not None:
            # dedup BEFORE the admission bound: answering for work the
            # server already owns costs nothing and must never be
            # rejected, or a retrying client could double-run its task
            with self._registry_lock:
                existing = self._key_to_job.get(key)
            if existing is not None:
                live = self._jobs.get(existing)
                settled = self._settled_wire.get(existing)
                method = live.method if live is not None else (settled or {}).get("method", "")
                if live is not None or settled is not None:
                    return {
                        "type": "submitted",
                        "job_id": existing,
                        "method": method,
                        "duplicate": True,
                    }
        with self._admission_lock:
            if self._active >= self.config.max_pending_jobs:
                return protocol.error_frame(
                    "over_capacity",
                    f"{self._active} unsettled job(s) at the {self.config.max_pending_jobs}-job bound",
                    retry_after=self.config.retry_after,
                )
            self._active += 1
        try:
            task_wire = frame.get("task") or {}
            task = protocol.task_from_wire(task_wire)
            budget = frame.get("budget")
            program_length = frame.get("program_length")
            job = self.session.submit(
                task,
                method=frame.get("method") or None,
                budget=int(budget) if budget is not None else None,
                seed=int(frame.get("seed", 0)),
                program_length=int(program_length) if program_length is not None else None,
            )
            if self._journal is not None:
                # durable before acknowledged: once the client sees
                # ``submitted``, no crash may lose the admission
                self._journal.admit(
                    job.job_id,
                    task_wire,
                    method=job.method,
                    budget=job.budget_limit,
                    seed=job.seed,
                    program_length=job.program_length,
                    idempotency_key=key,
                )
                self._journal_pending.add(job.job_id)
        except (protocol.ProtocolError, KeyError, TypeError, ValueError, OSError) as error:
            with self._admission_lock:
                self._active -= 1
            return protocol.error_frame("bad_frame", f"rejected submit: {error}")
        with self._registry_lock:
            self._jobs[job.job_id] = job
            self._streams[job.job_id] = _JobStream()
            self._job_keys[job.job_id] = key
            if key is not None:
                self._key_to_job[key] = job.job_id
        self._queue.put(job)
        self._feed.ring()
        return {"type": "submitted", "job_id": job.job_id, "method": job.method}

    # -- status / cancel ------------------------------------------------

    def _job_frame(self, frame: dict, cancel: bool) -> dict:
        job_id = str(frame.get("job_id"))
        job = self._jobs.get(job_id)
        if job is None:
            # a job settled before a restart is still answerable — its
            # terminal wire form was journaled with the settle
            settled = self._settled_wire.get(job_id)
            if settled is not None:
                response = {"type": "job", "job": settled}
                if cancel:
                    response["accepted"] = settled.get("state") == JobState.CANCELLED.value
                return response
            return protocol.error_frame("unknown_job", f"no job {job_id!r}")
        response = {"type": "job", "job": None}
        if cancel:
            was_terminal = job.done
            was_queued = job.state is JobState.PENDING
            response["accepted"] = job.cancel()
            if was_queued and job.state is JobState.CANCELLED:
                # cancelled while queued: it ends now and never reaches a
                # worker (the scheduler skips it when it comes up)
                self._settle(job)
            if self._journal is not None and not was_terminal and not job.done:
                # the job is live and now carries a cancel request: make
                # the request durable so a crash before it lands still
                # recovers the job as cancelled (terminal transitions
                # are journaled by the settle itself)
                try:
                    self._journal.cancel(job.job_id)
                except OSError as error:
                    logger.warning("journal cancel of %s failed: %s", job.job_id, error)
        response["job"] = protocol.job_to_wire(job)
        return response

    # -- event streaming ------------------------------------------------

    async def _handle_events(self, frame: dict, writer: asyncio.StreamWriter) -> None:
        job_id = str(frame.get("job_id"))
        stream = self._streams.get(job_id)
        if stream is None:
            # a job that settled before a restart has no live stream, but
            # its journaled terminal form still ends the client's wait
            # (the intermediate events are not journaled — resuming after
            # the settle yields the outcome, not a replay)
            settled = self._settled_wire.get(job_id)
            if settled is not None:
                await protocol.write_frame(writer, {"type": "end", "job": settled})
                return
            await protocol.write_frame(
                writer, protocol.error_frame("unknown_job", f"no job {job_id!r}"),
            )
            return
        since = frame.get("since", 0)
        since = since if isinstance(since, int) and since >= 0 else 0
        subscriber = _Subscriber(asyncio.get_running_loop())
        # the cursor indexes stream.frames (seq == index), so a recovered
        # job's re-run, which regenerates its stream from seq 0, is not
        # re-sent to a client resuming with since= from before the crash
        # (the regenerated events are identical: seeded synthesis is
        # deterministic).  Reading the buffer and (re-)arming the wake
        # under one lock keeps the stream gap-free and duplicate-free
        # regardless of subscribe timing.
        cursor = since
        with stream.lock:
            if stream.terminal is None:
                stream.subscribers.append(subscriber)
        try:
            while True:
                with stream.lock:
                    subscriber.woken = False
                    pending = stream.frames[cursor:]
                    terminal = stream.terminal
                cursor += len(pending)
                if terminal is not None:
                    pending.append(terminal)
                if pending:
                    await self._write_frames(writer, pending)
                if terminal is not None:
                    return
                await subscriber.ready.wait()
                subscriber.ready.clear()
        finally:
            with stream.lock:
                if subscriber in stream.subscribers:
                    stream.subscribers.remove(subscriber)

    @staticmethod
    async def _write_frames(writer: asyncio.StreamWriter, frames: List[dict]) -> None:
        """Send ``frames`` with one write and one drain."""
        writer.write(b"".join(protocol.encode_frame(frame) for frame in frames))
        await writer.drain()
