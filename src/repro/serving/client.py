"""The blocking client: a self-healing remote session mirroring the local API.

:class:`RemoteSynthesisSession` exposes the same surface the in-process
:class:`~repro.core.service.SynthesisSession` does — ``submit`` /
``run`` / ``run_job`` / ``add_listener`` / job objects with ``state``,
``result``, ``events`` and ``cancel()`` — so code written against a
local session (the evaluation runner, the examples) targets a server
with a one-line change: point it at ``host:port`` instead of opening a
session.

``run`` subscribes to each job's wire-streamed events in submission
order and replays them through the attached listeners as they arrive;
per-job event order is byte-identical to a local run (the server buffers
the complete ordered stream, so subscribe timing cannot reorder it).  A
listener raising :class:`~repro.events.JobCancelled` cancels the job on
the server, exactly like the local session's cooperative cancellation.

Control requests that must not wait behind a long event stream
(``cancel``, ``status``, ``health``) travel on short-lived side
connections — the server handles every connection concurrently, so a
cancel lands while the stream is still flowing.

Self-healing
------------
The session survives the server it talks to dying and coming back:

* Every connection loss triggers reconnection with seeded exponential
  backoff plus jitter (``backoff_base`` doubling up to ``backoff_cap``,
  at most ``reconnect_attempts`` tries per operation).  The jitter RNG
  is seeded (``reconnect_seed``) so retry schedules are reproducible.
* Event streams resume via the protocol's ``since=`` cursor at
  ``len(job.events)`` — the events already consumed — so a stream
  interrupted by a server restart continues **gap-free and
  duplicate-free**: against a journalling server the recovered job
  regenerates the identical deterministic stream and the client picks it
  up exactly where it left off.  After a successful resume the session
  emits a synthetic ``server_recovered`` event to its listeners (never
  into ``job.events``, which stays byte-identical to an uninterrupted
  run).
* Submits carry an idempotency key (auto-generated unless supplied), so
  retrying a submit whose ack was lost cannot double-admit the job; the
  server answers the retry with the original job id.  ``submit`` also
  honours ``over_capacity``/``server_draining`` rejections by waiting
  the server-suggested ``retry_after`` and resubmitting, up to
  ``submit_attempts`` total tries.
* An idle event stream is kept honest with keepalive pings: instead of
  blocking forever on a read, the client wakes every
  ``keepalive_interval`` seconds, pings the server on a side connection,
  and tears the stream down for a reconnect when the ping fails — a
  silently dead server is detected in bounded time.
"""

from __future__ import annotations

import socket
import time
import uuid
from dataclasses import dataclass, field
from random import Random
from typing import Any, List, Optional, Sequence, Union

from repro.config import parse_address
from repro.core.result import SynthesisResult
from repro.core.service import JobState
from repro.core.supervisor import FailureReport
from repro.data.tasks import SynthesisTask
from repro.events import JobCancelled, ProgressEvent, ProgressListener
from repro.serving import protocol
from repro.utils.logging import get_logger

logger = get_logger("serving.client")

#: most bytes one read of the main connection takes off the socket
_RECV_BYTES = 64 * 1024


class RemoteError(RuntimeError):
    """The server answered with an ``error`` frame."""

    def __init__(self, code: str, message: str, retry_after: float = 0.0) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.retry_after = float(retry_after)


class ServerOverloaded(RemoteError):
    """Submit rejected at the admission bound; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__("over_capacity", message, retry_after=retry_after)


class StreamTimeout(RemoteError):
    """No stream frame arrived within ``stream_timeout`` (server alive but
    silent — distinct from a dead connection, which reconnects instead)."""

    def __init__(self, message: str) -> None:
        super().__init__("stream_timeout", message)


def _raise_on_error(frame: dict) -> dict:
    if frame.get("type") == "error":
        code = str(frame.get("code", "error"))
        message = str(frame.get("message", ""))
        retry_after = float(frame.get("retry_after", 0.0) or 0.0)
        if code == "over_capacity":
            raise ServerOverloaded(message, retry_after=retry_after)
        raise RemoteError(code, message, retry_after=retry_after)
    return frame


@dataclass
class RemoteJob:
    """Client-side mirror of one server job (same observable surface)."""

    job_id: str
    method: str
    task: SynthesisTask
    seed: int
    budget_limit: int
    program_length: Optional[int] = None
    state: JobState = JobState.PENDING
    result: Optional[SynthesisResult] = None
    error: Optional[str] = None
    failure: Optional[FailureReport] = None
    events: List[ProgressEvent] = field(default_factory=list)
    #: the submit's idempotency key (resubmitting it is always safe)
    idempotency_key: Optional[str] = None
    #: True when the server answered this submit from an earlier admission
    duplicate: bool = False
    _session: Any = field(default=None, repr=False, compare=False)

    @property
    def done(self) -> bool:
        return self.state.terminal

    def cancel(self) -> bool:
        """Cancel on the server (idempotent; safe mid-stream — travels on
        a side connection, see the module docstring)."""
        if self.state.terminal:
            return self.state is JobState.CANCELLED
        if self._session is None:
            raise RuntimeError("job is not bound to a session")
        return self._session._cancel_remote(self)

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


class RemoteSynthesisSession:
    """A synthesis session living in a server process, driven over TCP.

    Parameters
    ----------
    address:
        ``host:port`` of a running :class:`~repro.serving.server.SynthesisServer`.
    timeout:
        Socket timeout (seconds) for control exchanges; event streams use
        ``stream_timeout`` between frames (None = wait forever, the
        default — generations can legitimately be slow; keepalive pings
        still detect a *dead* server, see below).
    submit_attempts:
        Total tries ``submit`` makes when the server answers
        ``over_capacity`` or ``server_draining`` (waiting the suggested
        ``retry_after`` between tries).  1 disables the retry loop and
        restores raise-on-first-rejection.
    reconnect_attempts:
        Reconnections attempted per operation after a connection loss
        before giving up with ``ConnectionError``.
    backoff_base / backoff_cap / reconnect_seed:
        Reconnect delay schedule: ``base * 2**attempt`` capped at
        ``cap``, each scaled by seeded jitter in [0.5, 1.0).
    keepalive_interval:
        How often an *idle* event stream verifies the server is alive
        with a side-connection ping.  None disables keepalives (an idle
        stream then blocks until ``stream_timeout``, possibly forever).
    """

    def __init__(
        self,
        address: str,
        timeout: float = 30.0,
        stream_timeout: Optional[float] = None,
        submit_attempts: int = 6,
        reconnect_attempts: int = 8,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        reconnect_seed: int = 0,
        keepalive_interval: Optional[float] = 15.0,
    ) -> None:
        self.host, self.port = parse_address(address)
        self.timeout = float(timeout)
        self.stream_timeout = stream_timeout
        self.submit_attempts = max(1, int(submit_attempts))
        self.reconnect_attempts = max(0, int(reconnect_attempts))
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.keepalive_interval = (
            None if keepalive_interval is None else max(0.05, float(keepalive_interval))
        )
        self._rng = Random(reconnect_seed)
        self.jobs: List[RemoteJob] = []
        #: successful stream resumes after a connection loss (telemetry)
        self.reconnects = 0
        self._listeners: List[ProgressListener] = []
        self._sock: Optional[socket.socket] = None
        #: bytes read off the main connection and not yet parsed
        self._buffer = bytearray()

    # ------------------------------------------------------------------
    # plumbing

    def _backoff(self, attempt: int) -> float:
        """Delay before reconnect ``attempt`` (0-based): seeded, jittered,
        exponential, capped."""
        base = min(self.backoff_base * (2.0**attempt), self.backoff_cap)
        return base * (0.5 + 0.5 * self._rng.random())

    def _connection(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        return self._sock

    def _request(self, frame: dict) -> dict:
        """One request/response on the main connection, reconnecting with
        backoff on connection loss.  Safe to retry for every frame the
        session sends here: submits are idempotent under their key, and
        the rest are reads or idempotent controls."""
        attempt = 0
        while True:
            try:
                sock = self._connection()
                sock.settimeout(self.timeout)
                protocol.send_frame(sock, dict(frame))
                return _raise_on_error(self._next_frame(sock))
            except (ConnectionError, OSError) as error:
                self.close()
                if attempt >= self.reconnect_attempts:
                    raise ConnectionError(
                        f"server {self.host}:{self.port} unreachable after "
                        f"{attempt + 1} attempt(s): {error}"
                    ) from error
                time.sleep(self._backoff(attempt))
                attempt += 1

    def _side_request(self, frame: dict) -> dict:
        """One request/response on a short-lived side connection (same
        reconnect-with-backoff discipline as ``_request``)."""
        attempt = 0
        while True:
            try:
                with socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                ) as sock:
                    protocol.send_frame(sock, dict(frame))
                    return _raise_on_error(protocol.recv_frame(sock))
            except (ConnectionError, OSError) as error:
                if attempt >= self.reconnect_attempts:
                    raise ConnectionError(
                        f"server {self.host}:{self.port} unreachable after "
                        f"{attempt + 1} attempt(s): {error}"
                    ) from error
                time.sleep(self._backoff(attempt))
                attempt += 1

    def _server_alive(self) -> bool:
        """Keepalive probe: one ping on a fresh connection, no retries."""
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                protocol.send_frame(sock, {"type": "ping"})
                protocol.recv_frame(sock)
            return True
        except (ConnectionError, OSError, protocol.ProtocolError):
            return False

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self._buffer = bytearray()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "RemoteSynthesisSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the session surface

    def add_listener(self, listener: ProgressListener) -> None:
        """Attach a session-wide progress-event consumer."""
        self._listeners.append(listener)

    def ping(self) -> dict:
        """Server liveness: protocol version and active job count."""
        return self._request({"type": "ping"})

    def health(self) -> dict:
        """The server's health frame: lifecycle state, queue depth,
        journaled-pending count, uptime, journal counters."""
        return self._side_request({"type": "health"})

    def submit(
        self,
        task: SynthesisTask,
        method: Optional[str] = None,
        budget: Union[int, Any, None] = None,
        seed: int = 0,
        program_length: Optional[int] = None,
        idempotency_key: Optional[str] = None,
    ) -> RemoteJob:
        """Enqueue one job on the server (mirrors ``SynthesisSession.submit``).

        The submit travels under ``idempotency_key`` (auto-generated when
        not supplied) so connection-loss retries cannot double-admit.
        ``over_capacity`` / ``server_draining`` rejections are retried up
        to ``submit_attempts`` times, honouring the server's
        ``retry_after``; :class:`ServerOverloaded` (or the draining
        :class:`RemoteError`) is raised once tries are exhausted.
        """
        limit = budget.limit if hasattr(budget, "limit") else budget
        key = idempotency_key or f"c-{uuid.uuid4().hex}"
        frame = {
            "type": "submit",
            "task": protocol.task_to_wire(task),
            "method": method,
            "budget": int(limit) if limit is not None else None,
            "seed": int(seed),
            "program_length": program_length,
            "idempotency_key": key,
        }
        attempt = 0
        while True:
            try:
                response = self._request(frame)
                break
            except ServerOverloaded as error:
                attempt += 1
                if attempt >= self.submit_attempts:
                    raise
                delay = error.retry_after if error.retry_after > 0 else self._backoff(attempt - 1)
                logger.info(
                    "submit rejected (%s), retrying in %.2fs (%d/%d)",
                    error.code, delay, attempt + 1, self.submit_attempts,
                )
                time.sleep(delay)
            except RemoteError as error:
                if error.code != "server_draining":
                    raise
                attempt += 1
                if attempt >= self.submit_attempts:
                    raise
                delay = max(error.retry_after, self._backoff(attempt - 1))
                logger.info(
                    "submit rejected (server draining), retrying in %.2fs (%d/%d)",
                    delay, attempt + 1, self.submit_attempts,
                )
                time.sleep(delay)
        job = RemoteJob(
            job_id=str(response["job_id"]),
            method=str(response.get("method") or method or ""),
            task=task,
            seed=int(seed),
            budget_limit=int(limit) if limit is not None else 0,
            program_length=program_length,
            idempotency_key=key,
            duplicate=bool(response.get("duplicate", False)),
            _session=self,
        )
        self.jobs.append(job)
        return job

    def run(self, jobs: Optional[Sequence[RemoteJob]] = None) -> List[RemoteJob]:
        """Stream every pending job to its terminal state, in order.

        Events are replayed through the attached listeners as they
        arrive; each job's stream is consumed completely (through its
        ``end`` frame) before the next job's begins, so listener-observed
        per-job order matches a local serial run.
        """
        pending = [job for job in (jobs if jobs is not None else self.jobs) if not job.done]
        for job in pending:
            self._stream_job(job)
        return pending

    def run_job(self, job: RemoteJob) -> RemoteJob:
        """Stream one job to its terminal state (mirrors the local API)."""
        if not job.done:
            self._stream_job(job)
        return job

    def status(self, job: RemoteJob) -> RemoteJob:
        """Refresh a job's state from the server without streaming."""
        response = self._side_request({"type": "status", "job_id": job.job_id})
        self._apply_job_frame(job, response["job"])
        return job

    # ------------------------------------------------------------------
    # internals

    def _cancel_remote(self, job: RemoteJob) -> bool:
        response = self._side_request({"type": "cancel", "job_id": job.job_id})
        # don't overwrite local state mid-stream: the authoritative
        # terminal state arrives with the stream's own end frame
        return bool(response.get("accepted", False))

    def _apply_job_frame(self, job: RemoteJob, data: dict) -> None:
        job.state = JobState(data["state"])
        job.error = data.get("error")
        job.failure = protocol.failure_from_wire(data.get("failure"))
        job.result = protocol.result_from_wire(data.get("result"))

    def _emit(self, event: ProgressEvent, job: Optional[RemoteJob] = None) -> None:
        for listener in self._listeners:
            try:
                listener(event)
            except JobCancelled:
                if job is not None:
                    job.cancel()
            except Exception:  # noqa: BLE001 - mirror the pump's tolerance
                logger.exception("session listener failed on %s", event.kind)

    def _next_frame(self, sock: socket.socket, stream: bool = False) -> dict:
        """The next frame of the main connection, parsed out of buffered reads.

        One read takes up to :data:`_RECV_BYTES` off the socket, and
        every frame it completes is served from the buffer without
        another read.  A frame that has started arriving must finish
        within the control ``timeout``.  On a ``stream`` read, an empty
        buffer waits with keepalive: instead of blocking forever, it
        wakes every ``keepalive_interval`` and pings the server on a side
        connection.  A failed ping means the server is gone — raise
        ``ConnectionError`` so the stream loop reconnects.
        ``stream_timeout`` (server alive but silent too long) raises
        :class:`StreamTimeout` instead, which is terminal; a server
        stalling *mid-frame* counts as dead.
        """
        deadline = (
            None if not stream or self.stream_timeout is None
            else time.monotonic() + self.stream_timeout
        )
        while True:
            frame = protocol.pop_frame(self._buffer)
            if frame is not None:
                return frame
            if self._buffer or not stream:
                sock.settimeout(self.timeout)
                try:
                    chunk = sock.recv(_RECV_BYTES)
                except socket.timeout as error:
                    if stream:
                        raise ConnectionError(f"server stalled mid-frame: {error}") from error
                    raise
            else:
                wait = self.keepalive_interval
                if deadline is not None:
                    remaining = max(deadline - time.monotonic(), 0.001)
                    wait = remaining if wait is None else min(wait, remaining)
                sock.settimeout(wait)
                try:
                    chunk = sock.recv(_RECV_BYTES)
                except socket.timeout:
                    if deadline is not None and time.monotonic() >= deadline:
                        raise StreamTimeout(
                            f"no stream frame within stream_timeout={self.stream_timeout}s"
                        ) from None
                    if not self._server_alive():
                        raise ConnectionError("keepalive ping failed on idle stream") from None
                    continue
            if not chunk:
                raise ConnectionError(
                    "connection closed mid-frame" if self._buffer else "connection closed mid-stream"
                )
            self._buffer += chunk

    def _stream_job(self, job: RemoteJob) -> None:
        """Stream ``job`` to its terminal state, transparently resuming
        across connection losses (see the module docstring)."""
        if job.state is JobState.PENDING:
            job.state = JobState.RUNNING
        attempt = 0
        interrupted = False
        while True:
            try:
                sock = self._connection()
                sock.settimeout(self.timeout)
                protocol.send_frame(
                    sock,
                    {"type": "events", "job_id": job.job_id, "since": len(job.events)},
                )
                while True:
                    frame = _raise_on_error(self._next_frame(sock, stream=True))
                    if interrupted:
                        # the resumed stream is flowing again: surface the
                        # outage to listeners without touching job.events
                        interrupted = False
                        attempt = 0
                        self.reconnects += 1
                        self._emit(
                            ProgressEvent(
                                kind="server_recovered",
                                method=job.method,
                                task_id=job.task.task_id,
                                job_id=job.job_id,
                                reason=f"stream resumed at event {len(job.events)}",
                            )
                        )
                    kind = frame.get("type")
                    if kind == "event":
                        event = protocol.event_from_wire(frame.get("event"))
                        job.events.append(event)
                        self._emit(event, job)
                    elif kind == "end":
                        self._apply_job_frame(job, frame["job"])
                        return
                    else:
                        raise RemoteError(
                            "bad_frame", f"unexpected frame {kind!r} in event stream"
                        )
            except StreamTimeout:
                raise
            except (ConnectionError, OSError) as error:
                self.close()
                if attempt >= self.reconnect_attempts:
                    raise ConnectionError(
                        f"lost the event stream of {job.job_id} and could not "
                        f"reconnect after {attempt + 1} attempt(s): {error}"
                    ) from error
                interrupted = True
                delay = self._backoff(attempt)
                logger.info(
                    "stream of %s interrupted (%s); reconnecting in %.2fs (%d/%d)",
                    job.job_id, error, delay, attempt + 1, self.reconnect_attempts + 1,
                )
                time.sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # conveniences

    def solve(
        self,
        task: SynthesisTask,
        method: Optional[str] = None,
        budget: Union[int, Any, None] = None,
        seed: int = 0,
        program_length: Optional[int] = None,
    ) -> RemoteJob:
        """Submit one task and stream it to completion."""
        return self.run_job(
            self.submit(task, method=method, budget=budget, seed=seed, program_length=program_length)
        )

    def shutdown_server(self) -> bool:
        """Ask the server to stop (requires ``allow_remote_shutdown``)."""
        try:
            response = self._side_request({"type": "shutdown"})
        except RemoteError as error:
            if error.code == "forbidden":
                return False
            raise
        return response.get("type") == "bye"
