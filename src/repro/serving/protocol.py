"""The synthesis service's wire protocol: length-prefixed JSON frames.

A **frame** is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object with a ``"type"`` key.  The
format is deliberately boring: debuggable with ``nc`` and a JSON
pretty-printer, no schema compiler, and forward-compatible the same way
the event log is — readers drop keys they do not know.

Request frames (client -> server)
---------------------------------
``submit``     task + method/budget/seed/program_length -> ``submitted``
``status``     job_id -> ``job``
``cancel``     job_id -> ``job`` (the post-cancel state)
``events``     job_id [+ since] -> ``event``* then ``end`` (a stream)
``ping``       -> ``pong``
``health``     -> ``health`` (lifecycle state, queue depth, journal stats)
``shutdown``   -> ``bye`` (honoured only with ``allow_remote_shutdown``)

``submit`` optionally carries an ``idempotency_key``: resubmitting the
same key returns the original job (``submitted`` with ``duplicate``
true) instead of admitting a second copy — on a journalling server the
dedup survives restarts, so a client that lost the ack to a crash can
safely retry.

Response frames (server -> client)
----------------------------------
``submitted``    job_id the server assigned
``job``          full job state (:func:`job_to_wire`)
``event``        one ProgressEvent + its per-job sequence number
``end``          terminal frame of an event stream (carries the job)
``health``       lifecycle state (``serving``/``draining``/``stopping``),
                 uptime, queue depth, journaled-pending count, journal
                 append/compaction counters
``error``        code (``bad_frame`` | ``unknown_job`` | ``over_capacity``
                 | ``unknown_type`` | ``forbidden`` | ``server_draining``)
                 + message; ``over_capacity`` and ``server_draining``
                 errors carry ``retry_after`` seconds
``pong`` / ``bye``

Every frame carries the protocol version under ``"v"`` on the wire;
mismatched *major* versions are rejected loudly rather than guessed at.

Serialization helpers for the domain objects (tasks, results, events,
failures, jobs) live here too, so server and client cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, List, Optional

from repro.core.result import SynthesisResult
from repro.core.supervisor import FailureReport
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOExample
from repro.dsl.program import Program
from repro.events import ProgressEvent

#: version of the frame layout and the frame vocabulary above.  Bump on
#: an incompatible change (renamed/retyped keys, changed framing); adding
#: frame types or optional keys does not need a bump.
PROTOCOL_VERSION = 1

#: hard bound on one frame, in both directions: a larger frame is a
#: protocol error, and the server answers it ``bad_frame`` and closes
#: the connection
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")


class ProtocolError(Exception):
    """A malformed, oversized or version-incompatible frame."""


# ---------------------------------------------------------------------------
# framing


def encode_frame(message: Dict[str, Any], max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame (length prefix + JSON payload)."""
    message.setdefault("v", PROTOCOL_VERSION)
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds the {max_frame_bytes}-byte bound")
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse a frame payload, validating shape and protocol version."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame must be a JSON object with a 'type' key")
    version = message.get("v", PROTOCOL_VERSION)
    if not isinstance(version, int) or version < 1 or version > PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r}")
    return message


def pop_frame(buffer: bytearray, max_frame_bytes: int = MAX_FRAME_BYTES) -> Optional[Dict[str, Any]]:
    """Decode and remove the first frame of ``buffer``; None until it is complete.

    Lets a reader parse every frame out of one buffered read.  An
    oversized length header raises :class:`ProtocolError` as soon as it
    is buffered, before any of the body is waited for.
    """
    if len(buffer) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(buffer)
    if length > max_frame_bytes:
        raise ProtocolError(f"incoming frame of {length} bytes exceeds the {max_frame_bytes}-byte bound")
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_LENGTH.size:end])
    del buffer[:end]
    return decode_payload(payload)


# -- blocking-socket side (the client) --------------------------------------


def send_frame(sock: socket.socket, message: Dict[str, Any],
               max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    sock.sendall(encode_frame(message, max_frame_bytes))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket, max_frame_bytes: int = MAX_FRAME_BYTES,
               prefix: bytes = b"") -> Dict[str, Any]:
    """Receive one frame.  ``prefix`` holds bytes the caller already read
    off the socket (a keepalive-timeout peek, see the client's idle-stream
    handling) — they are consumed as the frame's leading bytes so framing
    stays intact."""
    header = prefix
    if len(header) < _LENGTH.size:
        header += _recv_exact(sock, _LENGTH.size - len(header))
    (length,) = _LENGTH.unpack(header[: _LENGTH.size])
    if length > max_frame_bytes:
        raise ProtocolError(f"incoming frame of {length} bytes exceeds the {max_frame_bytes}-byte bound")
    payload = header[_LENGTH.size :]
    if len(payload) < length:
        payload += _recv_exact(sock, length - len(payload))
    return decode_payload(payload[:length])


# -- asyncio side (the server) ----------------------------------------------


async def read_frame(reader: asyncio.StreamReader,
                     max_frame_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(f"incoming frame of {length} bytes exceeds the {max_frame_bytes}-byte bound")
    return decode_payload(await reader.readexactly(length))


async def write_frame(writer: asyncio.StreamWriter, message: Dict[str, Any],
                      max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    writer.write(encode_frame(message, max_frame_bytes))
    await writer.drain()


# ---------------------------------------------------------------------------
# domain-object serialization


def task_to_wire(task: SynthesisTask) -> dict:
    return {
        "target": list(task.target.function_ids),
        "io_set": [
            {"inputs": list(example.inputs), "output": example.output}
            for example in task.io_set
        ],
        "length": task.length,
        "is_singleton": task.is_singleton,
        "task_id": task.task_id,
    }


def task_from_wire(data: dict) -> SynthesisTask:
    try:
        return SynthesisTask(
            target=Program(data["target"]),
            io_set=[
                IOExample(inputs=tuple(example["inputs"]), output=example["output"])
                for example in data["io_set"]
            ],
            length=int(data["length"]),
            is_singleton=bool(data["is_singleton"]),
            task_id=str(data.get("task_id", "")),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(f"malformed task: {error}") from None


def result_to_wire(result: SynthesisResult) -> dict:
    """Full-fidelity result form (unlike ``SynthesisResult.to_dict``,
    the fitness histories ride along so a remote job is as inspectable
    as a local one)."""
    return {
        "found": result.found,
        "program": list(result.program.function_ids) if result.program else None,
        "candidates_used": result.candidates_used,
        "budget_limit": result.budget_limit,
        "generations": result.generations,
        "wall_time_seconds": result.wall_time_seconds,
        "found_by": result.found_by,
        "method": result.method,
        "task_id": result.task_id,
        "neighborhood_invocations": result.neighborhood_invocations,
        "average_fitness_history": list(result.average_fitness_history),
        "best_fitness_history": list(result.best_fitness_history),
    }


def result_from_wire(data: Optional[dict]) -> Optional[SynthesisResult]:
    if data is None:
        return None
    program = data.get("program")
    return SynthesisResult(
        found=bool(data.get("found", False)),
        program=Program(program) if program is not None else None,
        candidates_used=int(data.get("candidates_used", 0)),
        budget_limit=int(data.get("budget_limit", 0)),
        generations=int(data.get("generations", 0)),
        wall_time_seconds=float(data.get("wall_time_seconds", 0.0)),
        found_by=str(data.get("found_by", "none")),
        method=str(data.get("method", "")),
        task_id=str(data.get("task_id", "")),
        neighborhood_invocations=int(data.get("neighborhood_invocations", 0)),
        average_fitness_history=list(data.get("average_fitness_history", [])),
        best_fitness_history=list(data.get("best_fitness_history", [])),
    )


def failure_to_wire(failure: Optional[FailureReport]) -> Optional[dict]:
    return None if failure is None else failure.to_dict()


def failure_from_wire(data: Optional[dict]) -> Optional[FailureReport]:
    if data is None:
        return None
    return FailureReport(
        job_id=str(data.get("job_id", "")),
        kind=str(data.get("kind", "crash")),
        attempts=int(data.get("attempts", 0)),
        message=str(data.get("message", "")),
        worker_ids=tuple(data.get("worker_ids", ())),
        elapsed=float(data.get("elapsed", 0.0)),
    )


def event_to_wire(event: ProgressEvent) -> dict:
    return event.to_dict()


def event_from_wire(data: dict) -> ProgressEvent:
    if not isinstance(data, dict):
        raise ProtocolError("event frames carry a JSON object")
    return ProgressEvent.from_dict(data)


def job_to_wire(job: Any) -> dict:
    """Full job state: identity, terminal fields, result and failure.

    ``job`` is a ``SynthesisJob`` (duck-typed to avoid importing the
    service layer here — protocol stays a leaf module).
    """
    return {
        "job_id": job.job_id,
        "method": job.method,
        "task_id": job.task.task_id,
        "seed": job.seed,
        "budget_limit": job.budget_limit,
        "program_length": job.program_length,
        "state": job.state.value,
        "error": job.error,
        "failure": failure_to_wire(job.failure),
        "result": result_to_wire(job.result) if job.result is not None else None,
        "n_events": len(job.events),
    }


def error_frame(code: str, message: str, **extra: Any) -> dict:
    frame = {"type": "error", "code": code, "message": message}
    frame.update(extra)
    return frame
