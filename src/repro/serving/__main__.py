"""Run a synthesis server from the command line.

``python -m repro.serving --port 7777 --journal-dir ./journal`` starts a
:class:`~repro.serving.server.SynthesisServer` over a warm session and
serves until stopped.  SIGTERM triggers the graceful drain (admissions
stop, running jobs finish, queued leftovers stay journaled); SIGKILL is
survivable too when a journal directory is configured — restart on the
same ``--journal-dir`` and the unfinished jobs are re-admitted under
their original ids.

This is the entry point the durability tests, the chaos example and
``benchmarks/bench_serving_recovery.py`` use to get a real server
*process* they can kill; it is equally the shape of a production
deployment (one process per trained model, supervised by systemd or a
container runtime that restarts it on the same journal volume).

``--fitness edit`` (the default) serves the artifact-free edit-distance
backend — no training, ready in milliseconds.  ``--fitness cf`` trains
(or warm-starts from ``--artifact-dir``) the small CF model first.

The line ``SERVING host:port`` is printed to stdout once the socket
listens, so a parent process can wait for readiness by reading it.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import NetSynConfig, ServiceConfig, ServingConfig
from repro.core.artifacts import ArtifactStore
from repro.core.service import SynthesisService, SynthesisSession
from repro.serving.server import SynthesisServer


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving", description="Run a network synthesis server."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks an ephemeral port")
    parser.add_argument(
        "--fitness", choices=("edit", "cf"), default="edit",
        help="edit = artifact-free (instant); cf = train/warm-start the small CF model",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--artifact-dir", default=None, help="persisted Phase-1 artifacts (cf only)"
    )
    parser.add_argument(
        "--journal-dir", default=None,
        help="crash-safe job journal directory (enables durability)",
    )
    parser.add_argument("--journal-fsync", action="store_true")
    parser.add_argument("--n-workers", type=int, default=1)
    parser.add_argument("--max-pending-jobs", type=int, default=64)
    parser.add_argument("--drain-timeout", type=float, default=30.0)
    parser.add_argument("--allow-remote-shutdown", action="store_true")
    return parser


def open_session(args: argparse.Namespace) -> SynthesisSession:
    if args.fitness == "edit":
        config = NetSynConfig.small().replace(
            fitness_kind="edit", fp_guided_mutation=False, seed=args.seed
        )
        return SynthesisSession(
            config,
            ArtifactStore(),
            methods=("edit",),
            service_config=ServiceConfig(persist_caches=False),
        )
    config = NetSynConfig.small(fitness_kind="cf", seed=args.seed)
    service = SynthesisService(
        config, service_config=ServiceConfig(artifact_dir=args.artifact_dir)
    )
    return service.open_session(methods=("netsyn_cf",))


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    session = open_session(args)
    server = SynthesisServer(
        session,
        ServingConfig(
            host=args.host,
            port=args.port,
            n_workers=args.n_workers,
            max_pending_jobs=args.max_pending_jobs,
            journal_dir=args.journal_dir,
            journal_fsync=args.journal_fsync,
            drain_timeout=args.drain_timeout,
            allow_remote_shutdown=args.allow_remote_shutdown,
        ),
    )
    server.start_background()
    server.install_sigterm_handler()
    print(f"SERVING {server.address}", flush=True)
    try:
        while server._thread is not None and server._thread.is_alive():
            server._thread.join(timeout=0.5)
    except KeyboardInterrupt:
        server.drain_and_stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
