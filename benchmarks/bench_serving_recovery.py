"""What durability costs: journal overhead, recovery and resume latency.

The serving tier's durability guarantees (``docs/serving.md``,
``docs/robustness.md``) are bought with a write-ahead job journal and a
self-healing client.  This benchmark prices all three purchases:

* **journal append overhead** — the same concurrent-client workload is
  driven against a plain server and a journaled one in interleaved
  rounds; the jobs/s ratio is the steady-state price of crash safety.
  The contract is <10% — gated on quiet machines, recorded always (the
  journal adds two flushed appends per job to a workload that runs a
  whole synthesis search per job, so it should be far below that).
* **recovery latency vs journal size** — servers are constructed on
  authored journals holding N settled jobs plus a few journaled
  cancellations; construction time (which includes the replay and the
  re-admissions) is exactly what a restart adds before the socket
  listens.
* **reconnect-resume latency** — a real ``python -m repro.serving``
  process is SIGKILLed mid-job and restarted on its journal; the
  client-observed stream outage (kill to first resumed event, which
  covers detection, seeded-backoff reconnect, server restart and the
  ``since=`` catch-up) is what a deploy restart costs a live client.

Results are appended to ``BENCH_serving_recovery.json`` at the
repository root so the trajectory across PRs is preserved.

Scale knobs: ``NETSYN_BENCH_RECOVERY_BUDGET`` (candidate budget per job,
default 2000), ``NETSYN_BENCH_RECOVERY_CLIENTS`` (concurrent clients in
the overhead rounds, default 4), ``NETSYN_BENCH_RECOVERY_ROUNDS``
(interleaved overhead sample pairs, default 3),
``NETSYN_BENCH_RECOVERY_COUNTS`` (journaled-job counts for the recovery
sweep, default ``16,128,1024``), ``NETSYN_BENCH_RECOVERY_RESUMES``
(kill/restart rounds, default 2).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.config import NetSynConfig, ServiceConfig, ServingConfig
from repro.core import ArtifactStore, JobState, SynthesisSession
from repro.data.tasks import SynthesisTask, make_synthesis_task
from repro.dsl.equivalence import IOExample
from repro.serving import JobJournal, RemoteSynthesisSession, SynthesisServer
from repro.serving import protocol

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_serving_recovery.json"

BUDGET = int(os.environ.get("NETSYN_BENCH_RECOVERY_BUDGET", "2000"))
CLIENTS = int(os.environ.get("NETSYN_BENCH_RECOVERY_CLIENTS", "4"))
ROUNDS = int(os.environ.get("NETSYN_BENCH_RECOVERY_ROUNDS", "3"))
COUNTS = tuple(
    int(n) for n in os.environ.get("NETSYN_BENCH_RECOVERY_COUNTS", "16,128,1024").split(",")
)
RESUMES = int(os.environ.get("NETSYN_BENCH_RECOVERY_RESUMES", "2"))


def _edit_session() -> SynthesisSession:
    config = NetSynConfig.small("edit", seed=11).replace(fp_guided_mutation=False)
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(persist_caches=False),
    )


def _impossible_task() -> SynthesisTask:
    """Contradictory examples: runs its whole budget, so the kill in the
    resume rounds provably lands while the job is mid-run."""
    target = make_synthesis_task(length=3, seed=1).target
    return SynthesisTask(
        target=target,
        io_set=[
            IOExample(inputs=([1, 2, 3],), output=[1]),
            IOExample(inputs=([1, 2, 3],), output=[2]),
        ],
        length=3,
        is_singleton=False,
        task_id="impossible",
    )


# ---------------------------------------------------------------------------
# journal append overhead
# ---------------------------------------------------------------------------


def _drive_round(server: SynthesisServer) -> float:
    """CLIENTS concurrent clients, one job each; returns the elapsed wall."""
    errors: list = []

    def drive(index: int) -> None:
        try:
            with RemoteSynthesisSession(server.address) as client:
                job = client.submit(
                    make_synthesis_task(length=3, seed=50 + index),
                    budget=BUDGET,
                    seed=index,
                )
                client.run([job])
                assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"client failed: {errors[0]!r}"
    return elapsed


def _journal_overhead() -> dict:
    """Interleaved plain/journaled rounds over per-variant warm sessions."""
    plain_session = _edit_session()
    journal_session = _edit_session()
    plain_times, journal_times = [], []
    appends = size = 0
    with tempfile.TemporaryDirectory() as journal_root:
        for sample in range(ROUNDS):
            with SynthesisServer(
                plain_session, ServingConfig()
            ) as server:
                plain_times.append(_drive_round(server))
            journal_dir = Path(journal_root) / f"round-{sample}"
            with SynthesisServer(
                journal_session, ServingConfig(journal_dir=journal_dir)
            ) as server:
                journal_times.append(_drive_round(server))
                appends = server._journal.appends
                size = server._journal.size()
    overhead = min(journal_times) / min(plain_times) - 1.0
    return {
        "clients": CLIENTS,
        "budget": BUDGET,
        "rounds": ROUNDS,
        "plain_seconds_best": min(plain_times),
        "journaled_seconds_best": min(journal_times),
        "plain_jobs_per_second": CLIENTS / min(plain_times),
        "journaled_jobs_per_second": CLIENTS / min(journal_times),
        "journal_overhead_fraction": overhead,
        "journal_appends_per_round": appends,
        "journal_bytes_per_round": size,
    }


# ---------------------------------------------------------------------------
# recovery latency vs journaled-job count
# ---------------------------------------------------------------------------


def _settled_template() -> tuple:
    """One real settled (admit payload, job wire form) pair to replicate."""
    with tempfile.TemporaryDirectory() as journal_dir:
        with SynthesisServer(
            _edit_session(), ServingConfig(journal_dir=journal_dir)
        ) as server:
            with RemoteSynthesisSession(server.address) as client:
                client.run([client.submit(
                    make_synthesis_task(length=3, seed=5), budget=BUDGET, seed=1
                )])
            state = server._journal.replay()
    (job_id, job_wire), = state.settled.items()
    return job_id, job_wire


def _recovery_latency() -> list:
    """Construction time of a server on journals of growing size.

    Settled records are replicas of one real journaled outcome (distinct
    ids and idempotency keys); four journaled-cancelled admissions ride
    along so the re-admission path is exercised without re-running."""
    _, job_wire = _settled_template()
    task_wire = protocol.task_to_wire(make_synthesis_task(length=3, seed=5))
    sweep = []
    for count in COUNTS:
        with tempfile.TemporaryDirectory() as journal_root:
            with JobJournal(journal_root) as journal:
                for index in range(count):
                    wire = dict(job_wire, job_id=f"job-{index}")
                    journal.admit(
                        f"job-{index}", task_wire, "edit", BUDGET, 1,
                        idempotency_key=f"bench-{index}",
                    )
                    journal.settle(f"job-{index}", wire, f"bench-{index}")
                for index in range(count, count + 4):
                    journal.admit(f"job-{index}", task_wire, "edit", BUDGET, 1)
                    journal.cancel(f"job-{index}")
                journal_bytes = journal.size()
            start = time.perf_counter()
            server = SynthesisServer(
                _edit_session(),
                ServingConfig(journal_dir=journal_root),
            )
            elapsed = time.perf_counter() - start
            try:
                assert len(server._settled_wire) == count + 4, "recovery lost jobs"
                assert server.recovery_events, "no server_recovered event"
            finally:
                server.stop()
        sweep.append(
            {
                "journaled_jobs": count,
                "journal_bytes": journal_bytes,
                "recovery_seconds": elapsed,
            }
        )
    return sweep


# ---------------------------------------------------------------------------
# reconnect-resume latency (kill -9, restart, client-observed outage)
# ---------------------------------------------------------------------------


def _spawn_server(port: int, journal_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving",
            "--port", str(port), "--journal-dir", journal_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("SERVING"):
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _resume_round() -> dict:
    port = _free_port()
    with tempfile.TemporaryDirectory() as journal_dir:
        proc = _spawn_server(port, journal_dir)
        procs = [proc]
        stamps: dict = {}

        def kill_then_restart(event) -> None:
            if event.generation >= 2 and "killed" not in stamps:
                stamps["killed"] = time.perf_counter()
                proc.kill()
                proc.wait(timeout=30)
                procs.append(_spawn_server(port, journal_dir))
                stamps["restarted"] = time.perf_counter()
            elif event.kind == "server_recovered":
                stamps["resumed"] = time.perf_counter()

        client = RemoteSynthesisSession(
            f"127.0.0.1:{port}",
            reconnect_attempts=20, backoff_base=0.2, backoff_cap=1.0,
        )
        try:
            job = client.submit(_impossible_task(), budget=20_000, seed=1)
            client.add_listener(kill_then_restart)
            client.run([job])
            assert job.done and "resumed" in stamps, "the stream never resumed"
            assert client.reconnects >= 1
        finally:
            client.close()
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait(timeout=30)
    return {
        "server_restart_seconds": stamps["restarted"] - stamps["killed"],
        "stream_outage_seconds": stamps["resumed"] - stamps["killed"],
    }


# ---------------------------------------------------------------------------


def _append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY_PATH.exists():
        try:
            history = json.loads(TRAJECTORY_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def test_serving_recovery_costs():
    overhead = _journal_overhead()
    recovery = _recovery_latency()
    resumes = [_resume_round() for _ in range(RESUMES)]

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "journal_overhead": overhead,
        "recovery_latency": recovery,
        "reconnect_resume": {
            "rounds": RESUMES,
            "server_restart_seconds_best": min(r["server_restart_seconds"] for r in resumes),
            "stream_outage_seconds_best": min(r["stream_outage_seconds"] for r in resumes),
        },
    }
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # Gate only on quiet machines: shared CI runners are too noisy to
    # fail on wall-clock ratios, so the threshold is generous there and
    # the 10% contract is checked locally / recorded always.
    gate = 0.10 if os.environ.get("CI") is None else 0.50
    assert overhead["journal_overhead_fraction"] < gate, (
        f"journal overhead {overhead['journal_overhead_fraction']:.1%} exceeds "
        f"the {gate:.0%} gate (plain {overhead['plain_seconds_best']:.2f}s vs "
        f"journaled {overhead['journaled_seconds_best']:.2f}s)"
    )
    # recovery is an index-and-readmit pass: even the largest journal in
    # the sweep must recover in single-digit seconds
    assert all(point["recovery_seconds"] < 10.0 for point in recovery)


if __name__ == "__main__":
    test_serving_recovery_costs()
