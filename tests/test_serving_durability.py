"""Durability tests of the serving tier (``repro.serving`` + journal).

Covers, bottom-up:

* the crash-safe job journal itself — append/replay round trips, torn
  tails, CRC-failing records mid-file, empty journals, compaction
  preserving pending jobs, settled results and idempotency keys;
* server recovery — a server constructed on an existing journal
  re-admits unfinished jobs under their original ids, honours journaled
  cancellations without re-running, answers settled jobs and idempotent
  resubmits from the journal, and surfaces damage as
  ``journal_record_skipped`` events without losing settled jobs;
* graceful drain — admissions answer structured ``server_draining``
  errors while running jobs finish and their event streams keep flowing;
* the self-healing client — idempotent duplicate submits, reconnect
  exhaustion surfacing as ``ConnectionError``;
* the acceptance end-to-end: a real server *process* SIGKILLed mid-job,
  restarted on the same journal directory and port, with every job
  reaching its terminal state through a client event stream identical
  to an uninterrupted run's.

The end-to-end tests drive ``python -m repro.serving`` as a subprocess
(the only way to genuinely SIGKILL a server); everything else runs
in-process against ephemeral-port servers on 127.0.0.1.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import NetSynConfig, ServiceConfig, ServingConfig
from repro.core.artifacts import ArtifactStore
from repro.core.service import JobState, SynthesisSession
from repro.data.tasks import SynthesisTask, make_synthesis_task
from repro.dsl.equivalence import IOExample
from repro.events import EventLog, ProgressEvent
from repro.serving import (
    JobJournal,
    RemoteError,
    RemoteSynthesisSession,
    ServerOverloaded,
    SynthesisServer,
)
from repro.serving import protocol
from repro.serving.journal import JOURNAL_FILE, _HEADER, _MAGIC


EDIT_CONFIG = NetSynConfig.small().replace(fitness_kind="edit", fp_guided_mutation=False)


#: the edit config without its generation cap: an impossible_task() then
#: searches until its budget is spent or it is cancelled, which is how a
#: test holds a job unsettled
HOLD_CONFIG = EDIT_CONFIG.replace(
    ga=dataclasses.replace(EDIT_CONFIG.ga, max_generations=1_000_000)
)


def edit_session(config: NetSynConfig = EDIT_CONFIG) -> SynthesisSession:
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(persist_caches=False),
    )


def impossible_task(task_id: str = "impossible") -> SynthesisTask:
    """Contradictory examples: runs until its budget is gone."""
    target = make_synthesis_task(length=3, seed=1).target
    return SynthesisTask(
        target=target,
        io_set=[
            IOExample(inputs=([1, 2, 3],), output=[1]),
            IOExample(inputs=([1, 2, 3],), output=[2]),
        ],
        length=3,
        is_singleton=False,
        task_id=task_id,
    )


def robust_stream(events) -> list:
    """A stream's replay-invariant shape: identity and search trajectory,
    without cache counters (which may differ with tier warmth across a
    restart) and without job ids (server-side numbering)."""
    return [
        (e.kind, e.task_id, e.generation, e.best_fitness, e.candidates_used, e.found)
        for e in events
    ]


def wire_task(seed: int = 1) -> dict:
    return protocol.task_to_wire(make_synthesis_task(length=3, seed=seed))


# ---------------------------------------------------------------------------
# the journal itself
# ---------------------------------------------------------------------------


def replayed(directory, on_skip=None):
    """The state a fresh journal on ``directory`` replays (then closed)."""
    with JobJournal(directory) as journal:
        return journal.replay(on_skip=on_skip)


class TestJobJournal:
    def test_empty_or_absent_journal_replays_empty(self, tmp_path):
        journal = JobJournal(tmp_path)
        state = journal.replay()
        assert state.pending == {} and state.settled == {}
        assert state.skipped == 0
        journal.close()
        # absent file (fresh directory, never opened)
        fresh = JobJournal(tmp_path / "nested")
        (tmp_path / "nested" / JOURNAL_FILE).unlink()
        assert fresh.replay().skipped == 0
        fresh.close()

    def test_admit_settle_cancel_roundtrip(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", wire_task(1), method="edit", budget=100, seed=0,
                          idempotency_key="k1")
            journal.admit("job-2", wire_task(2), method="edit", budget=200, seed=1)
            journal.admit("job-3", wire_task(3), method="edit", budget=300, seed=2)
            journal.settle("job-1", {"state": "solved", "job_id": "job-1"},
                           idempotency_key="k1")
            journal.cancel("job-2")
        state = replayed(tmp_path)
        assert sorted(state.pending) == ["job-2", "job-3"]
        assert state.pending["job-2"]["budget"] == 200
        assert state.cancelled == ["job-2"]
        assert state.settled == {"job-1": {"state": "solved", "job_id": "job-1"}}
        assert state.key_to_job == {"k1": "job-1"}
        assert state.skipped == 0

    def test_torn_tail_skipped_with_warning(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", wire_task(1), method="edit", budget=100, seed=0)
            journal.admit("job-2", wire_task(2), method="edit", budget=100, seed=0)
        path = tmp_path / JOURNAL_FILE
        data = path.read_bytes()
        # tear the last record mid-payload (a crash mid-append)
        path.write_bytes(data[:-7])
        skips = []
        state = replayed(tmp_path, on_skip=skips.append)
        assert list(state.pending) == ["job-1"]
        assert state.skipped == 1 and len(skips) == 1
        assert "torn" in skips[0]

    def test_torn_header_skipped(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", wire_task(1), method="edit", budget=100, seed=0)
        path = tmp_path / JOURNAL_FILE
        path.write_bytes(path.read_bytes() + _MAGIC + b"\x05")  # header cut short
        state = replayed(tmp_path)
        assert list(state.pending) == ["job-1"]
        assert state.skipped == 1

    def test_crc_corruption_mid_file_resyncs(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", wire_task(1), method="edit", budget=100, seed=0)
            journal.admit("job-2", wire_task(2), method="edit", budget=100, seed=0)
            journal.admit("job-3", wire_task(3), method="edit", budget=100, seed=0)
        path = tmp_path / JOURNAL_FILE
        data = bytearray(path.read_bytes())
        # flip one payload byte of the *second* record
        second = data.index(_MAGIC, len(_MAGIC))
        payload_at = second + len(_MAGIC) + _HEADER.size + 5
        data[payload_at] ^= 0xFF
        path.write_bytes(bytes(data))
        skips = []
        state = replayed(tmp_path, on_skip=skips.append)
        # the bad record costs itself; the scan resynchronizes on job-3
        assert sorted(state.pending) == ["job-1", "job-3"]
        assert state.skipped == 1
        assert "CRC" in skips[0]

    def test_leading_garbage_resyncs_to_first_record(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", wire_task(1), method="edit", budget=100, seed=0)
        path = tmp_path / JOURNAL_FILE
        path.write_bytes(b"\x00garbage\x01" + path.read_bytes())
        state = replayed(tmp_path)
        assert list(state.pending) == ["job-1"]
        assert state.skipped == 1

    def test_compaction_preserves_state_and_shrinks(self, tmp_path):
        journal = JobJournal(tmp_path)
        for i in range(30):
            journal.admit(f"job-{i}", wire_task(1), method="edit", budget=100,
                          seed=i, idempotency_key=f"k{i}")
        for i in range(28):  # all but the last two settle
            journal.settle(f"job-{i}", {"state": "solved", "job_id": f"job-{i}"},
                           idempotency_key=f"k{i}")
        journal.cancel("job-29")
        before = journal.size()
        journal.compact()
        assert journal.size() < before
        assert journal.compactions == 1
        state = replayed(tmp_path)
        assert sorted(state.pending) == ["job-28", "job-29"]
        assert state.cancelled == ["job-29"]
        assert len(state.settled) == 28
        # idempotency keys survive compaction for settled AND pending jobs
        assert state.key_to_job["k3"] == "job-3"
        assert state.key_to_job["k28"] == "job-28"
        journal.close()

    def test_maybe_compact_honours_threshold(self, tmp_path):
        journal = JobJournal(tmp_path, compact_bytes=200_000)
        journal.admit("job-1", wire_task(1), method="edit", budget=100, seed=0)
        assert journal.maybe_compact() is False
        journal.compact_bytes = 10
        assert journal.maybe_compact() is True
        assert replayed(tmp_path).pending.keys() == {"job-1"}
        journal.close()


# ---------------------------------------------------------------------------
# server recovery (in-process: journals written directly, then served)
# ---------------------------------------------------------------------------


def serving_config(tmp_path, **kwargs) -> ServingConfig:
    kwargs.setdefault("journal_dir", str(tmp_path))
    return ServingConfig(**kwargs)


class TestServerRecovery:
    def test_unfinished_job_readmitted_and_completed(self, tmp_path):
        task = make_synthesis_task(length=3, seed=5)
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", protocol.task_to_wire(task), method="edit",
                          budget=2000, seed=1, idempotency_key="key-a")
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server:
            assert server.recovered_jobs == ["job-1"]
            with RemoteSynthesisSession(server.address) as client:
                # resubmitting the journaled key dedups to the recovered job
                dup = client.submit(task, budget=2000, seed=1, idempotency_key="key-a")
                assert dup.job_id == "job-1" and dup.duplicate
                client.run([dup])
                assert dup.done
                terminal = dup.state
                assert dup.events[0].kind == "started"
                assert dup.events[-1].kind == "finished"
            # the settle was journaled: a third server run answers from it
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server2:
            assert server2.recovered_jobs == []
            with RemoteSynthesisSession(server2.address) as client:
                again = client.submit(task, budget=2000, seed=1, idempotency_key="key-a")
                assert again.job_id == "job-1" and again.duplicate
                client.run_job(again)
                assert again.state is terminal
                assert again.result is not None

    def test_recovered_stream_matches_uninterrupted_run(self, tmp_path):
        """A job admitted before a 'crash' (journal written, never run)
        re-runs to the stream an uninterrupted server produces — the
        property the client's since= resume relies on."""
        import socket as socketlib

        task = make_synthesis_task(length=3, seed=5)
        with SynthesisServer(edit_session(), ServingConfig()) as clean:
            with RemoteSynthesisSession(clean.address) as client:
                reference = client.submit(task, budget=2000, seed=1)
                client.run([reference])
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", protocol.task_to_wire(task), method="edit",
                          budget=2000, seed=1)
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server:
            # stream the recovered job itself (raw, from seq 0) to its end
            with socketlib.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
                protocol.send_frame(sock, {"type": "events", "job_id": "job-1", "since": 0})
                replayed = []
                while True:
                    frame = protocol.recv_frame(sock)
                    if frame["type"] == "end":
                        end = frame["job"]
                        break
                    replayed.append(protocol.event_from_wire(frame["event"]))
        assert end["state"] == reference.state.value
        assert robust_stream(replayed) == robust_stream(reference.events)

    def test_journaled_cancel_recovers_without_rerun(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", protocol.task_to_wire(impossible_task()),
                          method="edit", budget=10_000_000, seed=0)
            journal.cancel("job-1")
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server:
            assert server.recovered_jobs == ["job-1"]
            with RemoteSynthesisSession(server.address) as client:
                response = client._side_request({"type": "status", "job_id": "job-1"})
                assert response["job"]["state"] == JobState.CANCELLED.value

    def test_corrupt_journal_surfaces_skips_and_keeps_settled(self, tmp_path):
        task = make_synthesis_task(length=3, seed=5)
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server:
            with RemoteSynthesisSession(server.address) as client:
                job = client.submit(task, budget=2000, seed=1, idempotency_key="kk")
                client.run([job])
                settled_id = job.job_id
                settled_state = job.state.value
        # simulate a crash mid-append after the settle
        path = tmp_path / JOURNAL_FILE
        with path.open("ab") as handle:
            handle.write(_MAGIC + _HEADER.pack(500, 0) + b"torn")
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server2:
            skipped = [e for e in server2.recovery_events
                       if e.kind == "journal_record_skipped"]
            assert len(skipped) == 1 and "torn" in skipped[0].reason
            recovered_marker = [e for e in server2.recovery_events
                                if e.kind == "server_recovered"]
            assert len(recovered_marker) == 1
            # the settled job survived the damage
            with RemoteSynthesisSession(server2.address) as client:
                response = client._side_request({"type": "status", "job_id": settled_id})
                assert response["job"]["state"] == settled_state
                dup = client.submit(task, budget=2000, seed=1, idempotency_key="kk")
                assert dup.job_id == settled_id and dup.duplicate

    def test_health_frame_reports_vitals(self, tmp_path):
        with SynthesisServer(edit_session(), serving_config(tmp_path)) as server:
            with RemoteSynthesisSession(server.address) as client:
                health = client.health()
                assert health["state"] == "serving"
                assert health["uptime"] >= 0.0
                assert health["journaled_pending"] == 0
                assert health["journal"]["appends"] == 0
                job = client.submit(make_synthesis_task(length=3, seed=5), budget=2000)
                client.run([job])
                health = client.health()
                assert health["settled_jobs"] == 1
                assert health["journal"]["appends"] >= 2  # admit + result


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------


class TestGracefulDrain:
    def test_drain_rejects_submits_but_streams_flow(self, tmp_path):
        task = make_synthesis_task(length=3, seed=5)
        serving = serving_config(tmp_path)
        with SynthesisServer(edit_session(), serving) as server:
            with RemoteSynthesisSession(server.address, submit_attempts=1) as client:
                job = client.submit(task, budget=2000, seed=1)
                # a drain dispatches nothing more: let the job leave the queue
                while client.status(job).state is JobState.PENDING:
                    time.sleep(0.01)
                server.request_drain()
                health = client.health()
                assert health["state"] in ("draining", "stopping")
                with pytest.raises(RemoteError) as excinfo:
                    client.submit(make_synthesis_task(length=3, seed=6), budget=500)
                assert excinfo.value.code == "server_draining"
                assert excinfo.value.retry_after > 0
                # the admitted job still finishes and its stream flows
                client.run([job])
                assert job.done and job.state is not JobState.CANCELLED
                assert job.events[-1].kind == "finished"

    def test_draining_submit_retries_then_raises(self, tmp_path):
        serving = serving_config(tmp_path, retry_after=0.05)
        with SynthesisServer(edit_session(), serving) as server:
            server.request_drain()
            with RemoteSynthesisSession(server.address, submit_attempts=3) as client:
                started = time.monotonic()
                with pytest.raises(RemoteError) as excinfo:
                    client.submit(make_synthesis_task(length=3, seed=5), budget=500)
                assert excinfo.value.code == "server_draining"
                # it actually waited between the 3 attempts
                assert time.monotonic() - started >= 0.1


# ---------------------------------------------------------------------------
# self-healing client
# ---------------------------------------------------------------------------


class TestClientResilience:
    def test_duplicate_submit_same_live_job(self):
        with SynthesisServer(edit_session(HOLD_CONFIG), ServingConfig()) as server:
            with RemoteSynthesisSession(server.address) as client:
                task = impossible_task()
                first = client.submit(task, budget=50_000, seed=0, idempotency_key="dup")
                second = client.submit(task, budget=50_000, seed=0, idempotency_key="dup")
                assert second.job_id == first.job_id
                assert not first.duplicate and second.duplicate
                assert first.cancel()
                client.run([first])
                assert first.state is JobState.CANCELLED

    def test_reconnect_exhaustion_raises_connection_error(self):
        with SynthesisServer(edit_session(), ServingConfig()) as server:
            address = server.address
            client = RemoteSynthesisSession(
                address, reconnect_attempts=2, backoff_base=0.02, backoff_cap=0.05
            )
            job = client.submit(make_synthesis_task(length=3, seed=5), budget=2000, seed=1)
        # server gone for good: the stream reconnect loop must give up
        started = time.monotonic()
        with pytest.raises(ConnectionError):
            client.run([job])
        assert time.monotonic() - started < 30
        client.close()

    def test_submit_retry_waits_out_capacity(self):
        """over_capacity while the first job holds the only slot resolves
        once that job settles; the retrying submit then lands."""
        serving = ServingConfig(max_pending_jobs=1, retry_after=0.2)
        with SynthesisServer(edit_session(HOLD_CONFIG), serving) as server:
            with RemoteSynthesisSession(server.address, submit_attempts=20) as client:
                # an unsolvable job at a large budget holds the slot until
                # the rejection below cancels it
                first = client.submit(impossible_task(), budget=50_000, seed=1)
                request = client._request

                def cancel_first_when_rejected(frame):
                    try:
                        return request(frame)
                    except ServerOverloaded:
                        first.cancel()
                        raise

                client._request = cancel_first_when_rejected
                # second submit hits the bound, retries until the slot frees
                second = client.submit(make_synthesis_task(length=3, seed=6),
                                       budget=2000, seed=1)
                client.run([first, second])
                assert first.done and second.done
                assert first.state is JobState.CANCELLED


# ---------------------------------------------------------------------------
# end-to-end: SIGKILL the server process, restart on the same journal
# ---------------------------------------------------------------------------


def _spawn_server(port: int, journal_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving",
            "--port", str(port), "--journal-dir", str(journal_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("SERVING"):
        _stop_server(proc)
        raise RuntimeError(f"server failed to start: {line!r}")
    return proc


def _stop_server(proc: subprocess.Popen) -> None:
    """Kill a spawned server if it still runs, reap it, close its pipe."""
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=30)
    proc.stdout.close()


def _free_port() -> int:
    import socket as socketlib

    with socketlib.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestKillRestartEndToEnd:
    def test_sigkill_mid_job_resumes_gap_free(self, tmp_path):
        """The acceptance test: kill -9 mid-batch, restart on the same
        journal, and every job reaches its terminal state with an event
        stream identical to an uninterrupted run's.

        The first job is unsolvable so it runs its whole budget — the
        kill provably lands while it is mid-run (generation 2 of ~50)."""
        tasks = [impossible_task(), make_synthesis_task(length=3, seed=5)]
        # reference: an uninterrupted run of the same grid
        with SynthesisServer(edit_session(), ServingConfig()) as clean:
            with RemoteSynthesisSession(clean.address) as client:
                reference = [client.submit(t, budget=20_000, seed=1) for t in tasks]
                client.run(reference)

        port = _free_port()
        journal_dir = tmp_path / "journal"
        proc = _spawn_server(port, journal_dir)
        restarted: list = []
        killed = threading.Event()
        log = EventLog()

        def kill_then_restart(event: ProgressEvent) -> None:
            log(event)
            # kill once the first job's stream is flowing
            if event.generation >= 2 and not killed.is_set():
                killed.set()
                proc.kill()
                proc.wait(timeout=30)
                restarted.append(_spawn_server(port, journal_dir))

        client = RemoteSynthesisSession(
            f"127.0.0.1:{port}",
            reconnect_attempts=20, backoff_base=0.2, backoff_cap=1.0,
        )
        try:
            jobs = [client.submit(t, budget=20_000, seed=1, idempotency_key=f"e2e-{i}")
                    for i, t in enumerate(tasks)]
            client.add_listener(kill_then_restart)
            client.run(jobs)

            assert killed.is_set(), "the server was never killed mid-run"
            assert client.reconnects >= 1
            # every job reached its terminal state...
            for job, ref in zip(jobs, reference):
                assert job.done
                assert job.state is ref.state
                # ...with a stream identical to the uninterrupted run's
                assert robust_stream(job.events) == robust_stream(ref.events)
                # the resume marker reached listeners but never the stream
                assert all(e.kind != "server_recovered" for e in job.events)
            assert any(e.kind == "server_recovered" for e in log.events)

            # resubmitting a settled idempotency key answers from the
            # journal without re-running
            health_before = client.health()
            dup = client.submit(tasks[0], budget=20_000, seed=1,
                                idempotency_key="e2e-0")
            assert dup.duplicate and dup.job_id == jobs[0].job_id
            client.run_job(dup)
            assert dup.state is jobs[0].state
            assert client.health()["settled_jobs"] == health_before["settled_jobs"]
        finally:
            client.close()
            for p in [proc] + restarted:
                _stop_server(p)

    def test_sigterm_drains_gracefully(self, tmp_path):
        """SIGTERM: the running job finishes, its stream ends cleanly,
        and the process exits on its own."""
        port = _free_port()
        proc = _spawn_server(port, tmp_path / "journal")
        client = RemoteSynthesisSession(f"127.0.0.1:{port}")
        try:
            # unsolvable: still running when the SIGTERM lands, so the
            # drain provably overlaps a live job
            job = client.submit(impossible_task(), budget=20_000, seed=1)
            terminated = threading.Event()

            def sigterm_once(event: ProgressEvent) -> None:
                if event.generation >= 2 and not terminated.is_set():
                    terminated.set()
                    proc.send_signal(signal.SIGTERM)

            client.add_listener(sigterm_once)
            client.run([job])
            assert terminated.is_set()
            assert job.done
            assert job.events[-1].kind == "finished"
            assert proc.wait(timeout=60) == 0
        finally:
            client.close()
            _stop_server(proc)
