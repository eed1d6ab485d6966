"""Tests of the network synthesis service (``repro.serving``).

Covers the wire protocol (framing + domain serialization round trips),
the server/client end-to-end path against localhost — stream parity with
a local session, concurrent clients, mid-stream disconnects, admission
rejection, cancellation, server-side worker crashes surfacing as
structured FailureReports.

Everything network-bound runs against an ephemeral-port server on
127.0.0.1 with the artifact-free ``edit`` fitness.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetSynConfig, ServiceConfig, ServingConfig, parse_address
from repro.core.artifacts import ArtifactStore
from repro.core.result import SynthesisResult
from repro.core.service import JobState, SynthesisSession
from repro.core.supervisor import FailureReport, WorkerSupervisor
from repro.data.tasks import SynthesisTask, make_synthesis_task
from repro.dsl.equivalence import IOExample
from repro.dsl.program import Program
from repro.events import EVENT_SCHEMA_VERSION, EventLog, ProgressEvent
from repro.execution.faults import Fault, FaultPlan
from repro.serving import (
    ProtocolError,
    RemoteSynthesisSession,
    ServerOverloaded,
    SynthesisServer,
)
from repro.serving import protocol
from repro.serving import server as serving_server
from repro.serving.client import RemoteError, RemoteJob
from repro.serving.journal import JobJournal


EDIT_CONFIG = NetSynConfig.small().replace(fitness_kind="edit", fp_guided_mutation=False)

#: the edit config without its generation cap: an impossible_task() then
#: searches until its budget is spent or it is cancelled, which is how a
#: test holds a job unsettled
HOLD_CONFIG = EDIT_CONFIG.replace(
    ga=dataclasses.replace(EDIT_CONFIG.ga, max_generations=1_000_000)
)


def edit_session(config: NetSynConfig = EDIT_CONFIG, **service_kwargs) -> SynthesisSession:
    service_kwargs.setdefault("persist_caches", False)
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(**service_kwargs),
    )


def impossible_task(task_id: str = "impossible") -> SynthesisTask:
    """A task no program can solve (contradictory examples) — runs until
    its budget is gone, which is what the cancel/admission tests need."""
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


# ---------------------------------------------------------------------------
# protocol: framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_encode_decode_roundtrip(self):
        frame = protocol.encode_frame({"type": "ping", "extra": [1, 2.5, None]})
        (length,) = struct.unpack("!I", frame[:4])
        assert length == len(frame) - 4
        message = protocol.decode_payload(frame[4:])
        assert message["type"] == "ping"
        assert message["extra"] == [1, 2.5, None]
        assert message["v"] == protocol.PROTOCOL_VERSION

    def test_oversized_frame_rejected_on_send(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"type": "x", "blob": "a" * 2048}, max_frame_bytes=1024)

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b'"a bare string"')
        with pytest.raises(ProtocolError):
            protocol.decode_payload(b'{"no_type_key": 1}')

    def test_future_version_rejected(self):
        payload = json.dumps({"type": "ping", "v": protocol.PROTOCOL_VERSION + 1}).encode()
        with pytest.raises(ProtocolError):
            protocol.decode_payload(payload)

    def test_blocking_socket_roundtrip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, {"type": "ping", "n": 7})
            message = protocol.recv_frame(right)
            assert message == {"type": "ping", "n": 7, "v": protocol.PROTOCOL_VERSION}
        finally:
            left.close()
            right.close()

    def test_recv_rejects_oversized_header(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", 10_000) + b"x" * 16)
            with pytest.raises(ProtocolError):
                protocol.recv_frame(right, max_frame_bytes=1024)
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# protocol: domain objects
# ---------------------------------------------------------------------------


class TestWireForms:
    def _json_roundtrip(self, data: dict) -> dict:
        return json.loads(json.dumps(data))

    def test_task_roundtrip(self):
        task = make_synthesis_task(length=3, seed=4)
        back = protocol.task_from_wire(self._json_roundtrip(protocol.task_to_wire(task)))
        assert back.target.function_ids == task.target.function_ids
        assert back.io_set == task.io_set
        assert back.length == task.length
        assert back.is_singleton == task.is_singleton
        assert back.task_id == task.task_id

    def test_malformed_task_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            protocol.task_from_wire({"target": [0]})  # io_set missing

    def test_result_roundtrip(self):
        result = SynthesisResult(
            found=True,
            program=Program([1, 2, 3]),
            candidates_used=123,
            budget_limit=1000,
            generations=7,
            wall_time_seconds=0.25,
            found_by="ga",
            method="edit",
            task_id="t-1",
            neighborhood_invocations=2,
            average_fitness_history=[0.1, 0.2],
            best_fitness_history=[0.3, 0.4],
        )
        back = protocol.result_from_wire(self._json_roundtrip(protocol.result_to_wire(result)))
        assert back == result
        assert protocol.result_from_wire(None) is None

    def test_failure_roundtrip(self):
        failure = FailureReport(
            job_id="job-1", kind="crash", attempts=3, message="boom",
            worker_ids=(0, 1), elapsed=1.5,
        )
        back = protocol.failure_from_wire(self._json_roundtrip(protocol.failure_to_wire(failure)))
        assert back == failure
        assert protocol.failure_from_wire(None) is None

    def test_event_roundtrip_is_exact(self):
        event = ProgressEvent(
            kind="generation", method="edit", task_id="t", job_id="job-1",
            generation=3, mean_fitness=0.123456789012345, best_fitness=None,
            candidates_used=42, budget_limit=100, cache_hits=5, cache_misses=7,
            cache_hit_rate=5 / 12, shared_hits=1, shared_cross_hits=1,
        )
        back = protocol.event_from_wire(self._json_roundtrip(protocol.event_to_wire(event)))
        assert back == event  # floats survive JSON bit-exactly (repr round trip)

    def test_parse_address_forms(self):
        assert parse_address("127.0.0.1:7777") == ("127.0.0.1", 7777)
        assert parse_address("[::1]:80") == ("::1", 80)
        for bad in ("nohost", "host:", "host:notaport", ":1", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# event schema versioning (EventLog persistence forward-compat)
# ---------------------------------------------------------------------------


class TestEventSchema:
    def test_to_dict_carries_schema_version(self):
        assert ProgressEvent(kind="started").to_dict()["v"] == EVENT_SCHEMA_VERSION

    def test_from_dict_drops_unknown_fields(self):
        data = ProgressEvent(kind="generation", generation=2).to_dict()
        data["from_the_future"] = {"nested": True}
        # retired fields, as carried by logs and journals written before
        # they were dropped
        data["fused_dispatches"] = 3
        data["remote_hits"] = 2
        event = ProgressEvent.from_dict(data)
        assert event.kind == "generation"
        assert event.generation == 2
        assert not hasattr(event, "from_the_future")
        assert not hasattr(event, "fused_dispatches")
        assert not hasattr(event, "remote_hits")

    def test_from_dict_without_kind_is_unknown(self):
        assert ProgressEvent.from_dict({"generation": 1}).kind == "unknown"

    def test_from_dict_round_trips_every_field(self):
        event = ProgressEvent(
            kind="finished", method="netsyn_cf", task_id="t-3", job_id="job-9",
            generation=4, mean_fitness=0.25, best_fitness=0.75, candidates_used=120,
            budget_limit=500, cache_hits=11, cache_misses=13, cache_hit_rate=11 / 24,
            shared_hits=2, shared_cross_hits=1, found=True, found_by="neighborhood",
            worker_id=1, attempt=2, reason="retried",
        )
        default = ProgressEvent(kind="")
        names = {f.name for f in dataclasses.fields(ProgressEvent)}
        # every field is set away from its default, and to_dict carries it
        assert all(getattr(event, name) != getattr(default, name) for name in names)
        data = event.to_dict()
        assert set(data) == names | {"v"}
        assert ProgressEvent.from_dict(data) == event
        # the version marker and unknown keys are dropped, repeatedly
        for _ in range(2):
            noisy = dict(data, v=EVENT_SCHEMA_VERSION + 1, from_the_future=[1])
            assert ProgressEvent.from_dict(noisy) == event
        assert ProgressEvent.from_dict({"v": 1, "job_id": "job-2"}) == ProgressEvent(
            kind="unknown", job_id="job-2"
        )

    def test_event_log_reloads_newer_records(self, tmp_path):
        log = EventLog()
        log(ProgressEvent(kind="started", method="edit"))
        log(ProgressEvent(kind="finished", found=True))
        path = tmp_path / "events.json"
        log.save(path)
        # simulate a newer writer: inject fields this build doesn't know
        records = json.loads(path.read_text())
        for record in records:
            record["v"] = EVENT_SCHEMA_VERSION
            record["brand_new_field"] = 1
        path.write_text(json.dumps(records))
        reloaded = EventLog.load(path)
        assert not reloaded.truncated
        assert reloaded.kinds() == ["started", "finished"]
        assert reloaded.events[0].method == "edit"
        assert reloaded.events[1].found is True


# ---------------------------------------------------------------------------
# cancel idempotence on terminal jobs
# ---------------------------------------------------------------------------


class TestCancelIdempotence:
    def test_cancel_pending_then_repeat(self):
        session = edit_session()
        job = session.submit(make_synthesis_task(length=3, seed=1), budget=100)
        assert job.cancel() is True
        assert job.state is JobState.CANCELLED
        assert job.cancel() is True  # repeat reports the same answer
        assert job.state is JobState.CANCELLED

    def test_cancel_after_terminal_is_noop(self):
        session = edit_session()
        job = session.submit(make_synthesis_task(length=3, seed=2), budget=2000)
        session.run([job])
        terminal = job.state
        assert terminal in (JobState.SOLVED, JobState.EXHAUSTED)
        result = job.result
        assert job.cancel() is False  # non-CANCELLED terminal state: no-op
        assert job.state is terminal
        assert job.result is result


# ---------------------------------------------------------------------------
# server round trips (edit sessions: artifact-free, fast)
# ---------------------------------------------------------------------------


SERVING_FAST = ServingConfig()


class TestServerRoundTrip:
    def test_remote_stream_matches_local_serial_stream(self):
        task = make_synthesis_task(length=3, seed=5)
        local = edit_session()
        local_job = local.submit(task, budget=2000, seed=1)
        local.run([local_job])

        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                remote_job = client.submit(task, budget=2000, seed=1)
                client.run([remote_job])

        assert remote_job.state is local_job.state
        assert remote_job.result.program == local_job.result.program
        assert remote_job.result.candidates_used == local_job.result.candidates_used
        local_events = [e.to_dict() for e in local_job.events]
        remote_events = [e.to_dict() for e in remote_job.events]
        for record in local_events + remote_events:
            record.pop("job_id")  # server-side numbering differs, nothing else
        assert remote_events == local_events

    def test_listener_sees_live_events_in_order(self):
        task = make_synthesis_task(length=3, seed=6)
        log = EventLog()
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                client.add_listener(log)
                job = client.submit(task, budget=1500, seed=0)
                client.run([job])
        assert log.kinds() == [e.kind for e in job.events]
        assert log.kinds()[0] == "started"
        assert log.kinds()[-1] == "finished"

    def test_concurrent_clients_coalesce_and_settle(self):
        tasks = [make_synthesis_task(length=3, seed=s) for s in (10, 11)]
        results: dict = {}
        errors: list = []
        with SynthesisServer(edit_session(), ServingConfig(n_workers=2)) as server:

            def drive(index: int) -> None:
                try:
                    with RemoteSynthesisSession(server.address) as client:
                        job = client.submit(tasks[index], budget=1500, seed=index)
                        client.run([job])
                        results[index] = job
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not errors
        assert sorted(results) == [0, 1]
        for index, job in results.items():
            assert job.done
            assert job.events[-1].kind == "finished"
            # each stream belongs to its own job only
            assert len({e.job_id for e in job.events}) == 1

    def test_status_ping_and_unknown_job(self):
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                pong = client.ping()
                assert pong["type"] == "pong"
                assert pong["protocol"] == protocol.PROTOCOL_VERSION
                job = client.submit(make_synthesis_task(length=3, seed=1), budget=500)
                client.run([job])
                refreshed = client.status(job)
                assert refreshed.done
                with pytest.raises(RemoteError) as excinfo:
                    client._side_request({"type": "status", "job_id": "job-999"})
                assert excinfo.value.code == "unknown_job"

    @pytest.mark.parametrize(
        "frame",
        [
            struct.pack("!I", 16) + b"this is not json",
            # an oversized header alone: the server must refuse it
            # without waiting for (or reading) a body
            struct.pack("!I", protocol.MAX_FRAME_BYTES + 1),
        ],
        ids=["garbage", "oversized"],
    )
    def test_malformed_frame_answered_then_closed(self, frame):
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                sock.sendall(frame)
                response = protocol.recv_frame(sock)
                assert response["type"] == "error"
                assert response["code"] == "bad_frame"
                sock.settimeout(10)
                assert sock.recv(1) == b""  # server closed the connection
            # the server is still alive and serving
            with RemoteSynthesisSession(server.address) as client:
                assert client.ping()["type"] == "pong"

    def test_unknown_frame_type_is_an_error(self):
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                # cache_get / cache_put are not part of the protocol
                for kind in ("frobnicate", "cache_get", "cache_put"):
                    with pytest.raises(RemoteError) as excinfo:
                        client._side_request({"type": kind, "key": 1, "entries": [[1, 0.5]]})
                    assert excinfo.value.code == "unknown_type", kind

    def test_disconnect_mid_stream_leaves_server_healthy(self):
        task = make_synthesis_task(length=3, seed=5)
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                job = client.submit(task, budget=2000, seed=1)
                # subscribe raw, read a couple of frames, vanish abruptly
                rude = socket.create_connection(("127.0.0.1", server.port), timeout=30)
                protocol.send_frame(rude, {"type": "events", "job_id": job.job_id, "since": 0})
                seen = [protocol.recv_frame(rude) for _ in range(2)]
                assert all(frame["type"] == "event" for frame in seen)
                rude.close()
                # the same client (and any other) still gets the complete
                # stream: the buffer replays from the start
                client.run([job])
            assert job.done
            assert job.events[0].kind == "started"
            assert job.events[-1].kind == "finished"

    def test_resume_stream_with_since(self):
        task = make_synthesis_task(length=3, seed=5)
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                job = client.submit(task, budget=1500, seed=1)
                client.run([job])
                total = len(job.events)
                assert total > 4
                # a fresh subscription from the middle yields only the tail
                with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                    protocol.send_frame(
                        sock, {"type": "events", "job_id": job.job_id, "since": total - 2}
                    )
                    tail = []
                    while True:
                        frame = protocol.recv_frame(sock)
                        if frame["type"] == "end":
                            break
                        tail.append(frame)
                assert [f["seq"] for f in tail] == [total - 2, total - 1]

    def test_cancel_mid_run(self):
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                job = client.submit(impossible_task(), budget=200_000, seed=0)
                cancelled = threading.Event()

                def cancel_after_progress(event: ProgressEvent) -> None:
                    if event.generation >= 2 and not cancelled.is_set():
                        cancelled.set()
                        assert job.cancel() is True

                client.add_listener(cancel_after_progress)
                client.run([job])
        assert cancelled.is_set()
        assert job.state is JobState.CANCELLED
        assert job.result is None

    def test_admission_rejection_with_retry_after(self):
        serving = ServingConfig(max_pending_jobs=1, retry_after=0.75)
        with SynthesisServer(edit_session(HOLD_CONFIG), serving) as server:
            # submit_attempts=1 disables the client's automatic retry loop:
            # this test asserts the raw rejection surface
            with RemoteSynthesisSession(server.address, submit_attempts=1) as client:
                # an unsolvable job at a large budget holds the only slot
                first = client.submit(impossible_task(), budget=50_000)
                with pytest.raises(ServerOverloaded) as excinfo:
                    client.submit(make_synthesis_task(length=3, seed=2), budget=200)
                assert excinfo.value.retry_after == pytest.approx(0.75)
                assert first.job_id  # the admitted job is unaffected
                assert first.cancel() is True

    def test_shutdown_forbidden_by_default(self):
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                assert client.shutdown_server() is False
                assert client.ping()["type"] == "pong"

    def test_remote_shutdown_when_allowed(self):
        serving = ServingConfig(allow_remote_shutdown=True)
        server = SynthesisServer(edit_session(), serving).start_background()
        with RemoteSynthesisSession(server.address) as client:
            assert client.shutdown_server() is True
        server.stop()  # idempotent; joins the already-stopping threads
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port), timeout=2).close()


class TestServerFailurePaths:
    def test_worker_crash_surfaces_failure_report(self):
        session = edit_session(
            fault_plan=FaultPlan.parse("worker_start:crash:job-1#0"),
            max_job_retries=0,
            heartbeat_timeout=5.0,
        )
        serving = ServingConfig(n_workers=2)
        tasks = [make_synthesis_task(length=3, seed=s) for s in (20, 21)]
        with SynthesisServer(session, serving) as server:
            with RemoteSynthesisSession(server.address) as client:
                victim = client.submit(tasks[0], budget=1500, seed=0)
                bystander = client.submit(tasks[1], budget=1500, seed=0)
                client.run([victim, bystander])
        assert victim.state is JobState.FAILED
        assert isinstance(victim.failure, FailureReport)
        assert victim.failure.kind == "crash"
        assert victim.failure.attempts == 1
        assert victim.error
        # the stream still settled with an observable terminal event
        assert victim.events[-1].kind == "failed"
        # the job running beside it is untouched
        assert bystander.state in (JobState.SOLVED, JobState.EXHAUSTED)
        assert bystander.result is not None

    def test_bad_submit_releases_admission_slot(self):
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            with RemoteSynthesisSession(server.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client._request({"type": "submit", "task": {"target": [0]}})
                assert excinfo.value.code == "bad_frame"
                assert client.ping()["active_jobs"] == 0

    def test_non_positive_budget_rejected_before_journal(self, tmp_path):
        task = make_synthesis_task(length=3, seed=22)
        serving = ServingConfig(journal_dir=str(tmp_path))
        with SynthesisServer(edit_session(), serving) as server:
            with RemoteSynthesisSession(server.address) as good_client:
                good = good_client.submit(task, budget=1500, seed=0)
                # a second client's bad submit lands while the good job is
                # admitted and unsettled
                with RemoteSynthesisSession(server.address) as bad_client:
                    with pytest.raises(RemoteError) as excinfo:
                        bad_client.submit(task, budget=0, seed=0)
                    assert excinfo.value.code == "bad_frame"
                good_client.run([good])
        assert good.state in (JobState.SOLVED, JobState.EXHAUSTED)
        with JobJournal(tmp_path) as journal:
            state = journal.replay()
        # only the valid job was ever admitted
        assert not state.pending
        assert list(state.settled) == [good.job_id]


# ---------------------------------------------------------------------------
# per-job scheduling: dispatch when a worker is idle, settle on the outcome
# ---------------------------------------------------------------------------


#: budget of a job held unsettled (an impossible_task() on HOLD_CONFIG);
#: every test that submits one cancels it
HOLD_BUDGET = 1_000_000


def _wait_until_running(client: RemoteSynthesisSession, job: RemoteJob) -> None:
    """Poll the job's server-side state until it left the queue."""
    while client.status(job).state is JobState.PENDING:
        time.sleep(0.01)


class TestPerJobScheduling:
    def test_short_job_settles_while_a_long_one_runs(self):
        with SynthesisServer(edit_session(HOLD_CONFIG), ServingConfig(n_workers=2)) as server:
            with RemoteSynthesisSession(server.address) as client:
                long = client.submit(impossible_task(), budget=HOLD_BUDGET, seed=0)
                short = client.submit(make_synthesis_task(length=3, seed=5), budget=1500, seed=1)
                client.run([short])
                assert short.state in (JobState.SOLVED, JobState.EXHAUSTED)
                assert short.events[-1].kind == "finished"
                # the short job did not wait for the long one to settle
                assert client.status(long).state is JobState.RUNNING
                assert long.cancel() is True
                client.run([long])
        assert long.state is JobState.CANCELLED

    def test_lone_job_runs_on_the_pool(self):
        session = edit_session()
        with SynthesisServer(session, ServingConfig(n_workers=2)) as server:
            with RemoteSynthesisSession(server.address) as client:
                job = client.submit(make_synthesis_task(length=3, seed=5), budget=1500, seed=1)
                client.run([job])
            assert session._pool is not None
        assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)
        assert job.events[-1].kind == "finished"

    def test_job_cancelled_while_queued_never_reaches_a_worker(self, monkeypatch):
        dispatched = []
        dispatch = WorkerSupervisor._dispatch

        def recording_dispatch(pool, job):
            dispatched.append(job.job_id)
            return dispatch(pool, job)

        monkeypatch.setattr(WorkerSupervisor, "_dispatch", recording_dispatch)
        with SynthesisServer(edit_session(HOLD_CONFIG), ServingConfig(n_workers=2)) as server:
            with RemoteSynthesisSession(server.address) as client:
                holders = [
                    client.submit(impossible_task(f"hold-{n}"), budget=HOLD_BUDGET, seed=n)
                    for n in range(2)
                ]
                for holder in holders:
                    _wait_until_running(client, holder)
                # both workers are busy: the next job waits in the queue
                queued = client.submit(make_synthesis_task(length=3, seed=5), budget=1500)
                assert client.health()["queue_depth"] == 1
                assert queued.cancel() is True
                client.run([queued])
                assert queued.state is JobState.CANCELLED
                assert queued.events == [] and queued.result is None
                for holder in holders:
                    assert holder.cancel() is True
                client.run(holders)
                assert all(holder.state is JobState.CANCELLED for holder in holders)
            assert server._streams[queued.job_id].terminal["job"]["state"] == "cancelled"
        assert sorted(dispatched) == sorted(holder.job_id for holder in holders)

    def test_drain_finishes_running_jobs_and_keeps_queued_ones_journaled(self, tmp_path):
        serving = ServingConfig(journal_dir=str(tmp_path))
        with SynthesisServer(edit_session(HOLD_CONFIG), serving) as server:
            with RemoteSynthesisSession(server.address, submit_attempts=1) as client:
                # exhausts its budget on its own, after the drain begins
                running = client.submit(impossible_task(), budget=50_000, seed=0)
                _wait_until_running(client, running)
                queued = client.submit(make_synthesis_task(length=3, seed=5), budget=1500)
                server.request_drain()
                client.run([running])
                assert running.state is JobState.EXHAUSTED
                assert running.events[-1].kind == "finished"
            assert server.session.jobs[-1].state is JobState.PENDING
        with JobJournal(tmp_path) as journal:
            state = journal.replay()
        assert list(state.pending) == [queued.job_id]
        assert state.settled[running.job_id]["state"] == JobState.EXHAUSTED.value

    def test_degraded_pool_hands_back_its_jobs_and_the_next_job_gets_a_fresh_pool(
        self, monkeypatch
    ):
        pools = []
        for_session = WorkerSupervisor.for_session.__func__

        def recording_for_session(cls, session, n_workers):
            pools.append(for_session(cls, session, n_workers))
            return pools[-1]

        monkeypatch.setattr(WorkerSupervisor, "for_session", classmethod(recording_for_session))
        tasks = [make_synthesis_task(length=3, seed=s) for s in (20, 21, 22)]
        serial = edit_session()
        reference = [serial.submit(task, budget=1500, seed=0) for task in tasks]
        serial.run()
        plan = FaultPlan(faults=[
            Fault("worker_start", action="crash", match="job-1:", count=100),
            Fault("worker_start", action="crash", match="job-2:", count=100),
        ])
        session = edit_session(fault_plan=plan, max_pool_crashes=1)
        log = EventLog()
        session.add_listener(log)
        with SynthesisServer(session, ServingConfig(n_workers=2)) as server:
            with RemoteSynthesisSession(server.address) as client:
                doomed = [client.submit(task, budget=1500, seed=0) for task in tasks[:2]]
                client.run(doomed)
                after = client.submit(tasks[2], budget=1500, seed=0)
                client.run([after])
        assert log.of_kind("degraded_serial")
        assert len(pools) == 2 and pools[0].degraded and pools[0].closed
        assert not pools[1].degraded
        served = doomed + [after]
        assert [job.state for job in served] == [job.state for job in reference]
        assert [job.result.candidates_used for job in served] == [
            job.result.candidates_used for job in reference
        ]
        assert all(job.events[-1].kind == "finished" for job in served)


# ---------------------------------------------------------------------------
# the client parses frames out of buffered reads
# ---------------------------------------------------------------------------


class _ChunkedStreamServer:
    """Answers two ``events`` requests for one job over real sockets.

    The stream is sent in ``chunks``-sized pieces, so frames arrive
    coalesced and split at arbitrary byte offsets.  The first connection
    is cut after ``cut`` bytes; the second resumes from the request's
    ``since`` and ends the stream.
    """

    def __init__(self, events, end, cut, chunks):
        self.frames = [
            protocol.encode_frame({"type": "event", "seq": seq, "event": event.to_dict()})
            for seq, event in enumerate(events)
        ]
        self.end = protocol.encode_frame({"type": "end", "job": end})
        self.cut = cut
        self.chunks = chunks
        self.requests = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for connection in range(2):
            conn, _address = self.listener.accept()
            with conn:
                request = protocol.recv_frame(conn)
                self.requests.append(request)
                payload = b"".join(self.frames[request["since"]:]) + self.end
                if connection == 0:
                    payload = payload[: self.cut]
                offset, n = 0, 0
                while offset < len(payload):
                    size = self.chunks[n % len(self.chunks)]
                    conn.sendall(payload[offset:offset + size])
                    offset += size
                    n += 1

    def close(self):
        self.thread.join(timeout=30)
        self.listener.close()
        assert not self.thread.is_alive()


class TestBufferedStreamReads:
    @settings(max_examples=25, deadline=None)
    @given(
        n_events=st.integers(min_value=1, max_value=40),
        cut_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        chunks=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=6),
    )
    def test_split_and_coalesced_frames_resume_without_gap_or_duplicate(
        self, n_events, cut_fraction, chunks
    ):
        events = [ProgressEvent(kind="started", job_id="job-1")] + [
            ProgressEvent(kind="generation", job_id="job-1", generation=g, best_fitness=g / 7)
            for g in range(1, n_events)
        ] + [ProgressEvent(kind="finished", job_id="job-1", found=False)]
        task = make_synthesis_task(length=3, seed=5)
        end = {
            "job_id": "job-1", "method": "edit", "task_id": task.task_id, "seed": 0,
            "budget_limit": 10, "program_length": None, "state": "exhausted",
            "error": None, "failure": None, "result": None, "n_events": len(events),
        }
        sizes = [
            len(protocol.encode_frame({"type": "event", "seq": seq, "event": e.to_dict()}))
            for seq, e in enumerate(events)
        ]
        cut = int(cut_fraction * sum(sizes))
        server = _ChunkedStreamServer(events, end, cut, chunks)
        seen = []
        try:
            with RemoteSynthesisSession(
                f"127.0.0.1:{server.port}", keepalive_interval=None,
                backoff_base=0.001, backoff_cap=0.002,
            ) as client:
                client.add_listener(seen.append)
                job = RemoteJob("job-1", "edit", task, 0, 10, _session=client)
                client.run_job(job)
        finally:
            server.close()
        assert [e.to_dict() for e in job.events] == [e.to_dict() for e in events]
        assert [e.to_dict() for e in seen if e.kind != "server_recovered"] == [
            e.to_dict() for e in events
        ]
        assert job.state is JobState.EXHAUSTED
        # the resume asked for exactly the events the cut connection
        # delivered whole
        whole = sum(1 for n in range(len(sizes)) if sum(sizes[: n + 1]) <= cut)
        assert [request["since"] for request in server.requests] == [0, whole]


class TestStreamWakeStress:
    def test_every_subscriber_reads_each_stream_once_in_order(self):
        """Publisher threads append to job streams and settle them while
        raw subscribers (from seq 0 or mid-stream) read them; with a
        tiny switch interval and more threads than cores, a lost wake
        would hang a subscriber and a race on the cursor would skip or
        repeat a frame."""
        n_jobs, n_events = 4, 300
        task = make_synthesis_task(length=3, seed=5)
        interval = sys.getswitchinterval()
        with SynthesisServer(edit_session(), SERVING_FAST) as server:
            jobs = [server.session.submit(task, budget=100) for _ in range(n_jobs)]
            for job in jobs:
                job.state = JobState.EXHAUSTED  # settled by the publisher below
                server._streams[job.job_id] = serving_server._JobStream()
            received: dict = {}

            def publish(job):
                stream = server._streams[job.job_id]
                while len(stream.subscribers) < 2:  # both subscribers wait live
                    time.sleep(0.001)
                for generation in range(n_events):
                    server._on_event(
                        ProgressEvent(kind="generation", job_id=job.job_id, generation=generation)
                    )
                    if generation % 25 == 0:
                        time.sleep(0)  # let the subscribers read mid-stream
                server._settle(job)

            def subscribe(job, since):
                with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
                    protocol.send_frame(
                        sock, {"type": "events", "job_id": job.job_id, "since": since}
                    )
                    seqs = []
                    while True:
                        frame = protocol.recv_frame(sock)
                        if frame["type"] == "end":
                            break
                        seqs.append(frame["seq"])
                received[(job.job_id, since)] = seqs

            threads = [
                threading.Thread(target=subscribe, args=(job, since))
                for job in jobs for since in (0, n_events // 2)
            ] + [threading.Thread(target=publish, args=(job,)) for job in jobs]
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert len(received) == 2 * n_jobs
        for (_job_id, since), seqs in received.items():
            assert seqs == list(range(since, n_events))
