"""The network synthesis service (server, client, wire protocol).

One :class:`~repro.serving.server.SynthesisServer` owns a warm
:class:`~repro.core.service.SynthesisSession` and serves many concurrent
clients over a small length-prefixed JSON protocol: job submission with
bounded admission, live wire-streamed progress events and cancellation.
Score caching stays inside the served session (its per-process L1 cache
plus the persistent L3 cache log, see ``docs/execution.md``): jobs from
every client share that one warm session, so they share its caches.

Typical topology: one server process per trained model, N client
processes (interactive sessions, evaluation runners) that submit jobs.

Durability (configure ``ServingConfig.journal_dir``): every admission
and terminal outcome is appended to a crash-safe write-ahead
:class:`~repro.serving.journal.JobJournal`; a killed server restarted on
the same journal re-admits unfinished jobs under their original ids and
answers idempotent resubmits from journaled results, while the
self-healing client reconnects with backoff and resumes event streams
gap-free via the ``since=`` cursor.

Everything here is standard-library only (asyncio + sockets + json);
importing ``repro.serving`` never pulls optional dependencies.
"""

from repro.serving.client import (
    RemoteError,
    RemoteJob,
    RemoteSynthesisSession,
    ServerOverloaded,
    StreamTimeout,
)
from repro.serving.journal import JobJournal, JournalState
from repro.serving.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serving.server import SynthesisServer

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "RemoteJob",
    "RemoteSynthesisSession",
    "ServerOverloaded",
    "StreamTimeout",
    "JobJournal",
    "JournalState",
    "SynthesisServer",
]
