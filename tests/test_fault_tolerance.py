"""Fault-tolerant execution: the supervised pool and crash-safe caches.

The fault matrix exercised here (via the deterministic
``repro.execution.faults`` injection harness):

* a worker crashing mid-job — before the job runs (``worker_start``) and
  at the worst point, after the work is done but before the outcome is
  reported (``pre_merge``) — is detected, the worker is replaced, the
  job is retried with backoff and completes with exactly the result a
  fault-free run produces;
* a poison job that kills every worker that touches it is quarantined
  after ``1 + max_job_retries`` attempts with a structured
  :class:`FailureReport`, and every healthy job still completes;
* a pool whose crash count exceeds ``max_pool_crashes`` degrades to
  serial execution in the parent and still finishes every job;
* a frozen worker (SIGSTOP — alive for ``is_alive``, silent for
  heartbeats) is detected by heartbeat timeout, hard-killed, and its job
  retried;
* a job exceeding its wall-clock deadline is cancelled cooperatively and
  ends ``failed`` with a ``deadline`` report while its siblings finish;
* a truncated L3 cache-log segment is skipped (with a
  ``cache_segment_skipped`` event), never crashing a load;
* a torn/truncated L2 shared score table is rejected by ``attach`` and
  recreated by ``ensure``; attach failures downgrade a process to
  L1-only caching;
* a missing shared-weights segment downgrades workers to private npz
  copies instead of failing their jobs;
* an empty or truncated worker warm-cache snapshot is a cold start for
  the workers, never a failed job.

Every parallel run is wrapped in a wall-clock guard: the historical
failure mode of ``Pool.map`` under a worker crash was an infinite hang,
so "completes at all" is itself an assertion.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import threading
from pathlib import Path

import pytest

from repro.config import ServiceConfig
from repro.core import ArtifactStore, JobState, SynthesisSession
from repro.core.artifacts import CACHE_LOG_DIR, CACHE_LOG_MANIFEST
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOExample
from repro.events import EventLog, ProgressEvent
from repro.execution import faults
from repro.execution.faults import Fault, FaultInjected, FaultPlan
from repro.execution.shared_table import SharedScoreTable


@pytest.fixture(autouse=True)
def _isolated_fault_state():
    """No fault plan leaks between tests (module-global installation)."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def edit_config(tiny_netsyn_config):
    return tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)


def _edit_session(config, **service_kwargs):
    service_kwargs.setdefault("retry_backoff", 0.01)
    service_kwargs.setdefault("retry_backoff_max", 0.05)
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(**service_kwargs),
    )


def _impossible_task(template, task_id="impossible"):
    """Contradictory examples: the search can never terminate early."""
    return SynthesisTask(
        target=template.target,
        io_set=[
            IOExample(inputs=([1, 2, 3],), output=[1]),
            IOExample(inputs=([1, 2, 3],), output=[2]),
        ],
        length=template.length,
        is_singleton=False,
        task_id=task_id,
    )


def run_guarded(fn, timeout=90.0):
    """Run ``fn`` with a hard wall-clock bound (deadlock = test failure)."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"run did not complete within {timeout}s (deadlock)")
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def _result_signature(job):
    return (
        job.state,
        job.result.found if job.result else None,
        job.result.candidates_used if job.result else None,
        job.result.found_by if job.result else None,
    )


# ---------------------------------------------------------------------------
# The fault-injection harness itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "worker_start:crash:job-1#0;l3_append:truncate::2:3", seed=7
        )
        assert plan.seed == 7
        assert plan.faults[0] == Fault("worker_start", "crash", "job-1:0", 1, 1)
        assert plan.faults[1] == Fault("l3_append", "truncate", "", 2, 3)

    def test_parse_rejects_unknown_site_and_action(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("not_a_site:crash")
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.parse("worker_start:explode")
        with pytest.raises(ValueError, match="site:action"):
            FaultPlan.parse("worker_start")

    def test_nth_and_count_select_arrivals(self):
        plan = FaultPlan.single("l3_append", action="raise", nth=2, count=2)
        faults.install(plan, role="parent")
        faults.fire("l3_append", target="a")  # arrival 1: no fire
        with pytest.raises(FaultInjected):
            faults.fire("l3_append", target="b")  # arrival 2: fires
        with pytest.raises(FaultInjected):
            faults.fire("l3_append", target="c")  # arrival 3: fires
        faults.fire("l3_append", target="d")  # arrival 4: past the window
        assert [target for _, _, target in faults.fired()] == ["b", "c"]

    def test_match_filters_targets(self):
        plan = FaultPlan.single("worker_start", action="raise", match="job-2:")
        faults.install(plan, role="parent")
        faults.fire("worker_start", target="job-1:0")
        with pytest.raises(FaultInjected):
            faults.fire("worker_start", target="job-2:0")

    def test_crash_degrades_to_raise_outside_worker_role(self):
        """A crash fault firing in the parent must not kill the process
        whose survival is under test."""
        plan = FaultPlan.single("worker_start", action="crash")
        faults.install(plan, role="parent")
        with pytest.raises(FaultInjected):
            faults.fire("worker_start", target="job-1:0")

    def test_reinstalling_same_plan_keeps_counters(self):
        plan = FaultPlan.single("l3_append", action="raise", nth=1, count=1)
        faults.install(plan, role="parent")
        with pytest.raises(FaultInjected):
            faults.fire("l3_append", target="a")
        faults.install(plan, role="parent")  # e.g. a warm session restart
        faults.fire("l3_append", target="b")  # one-shot fault stays spent
        faults.install(FaultPlan.single("l3_append", action="raise"), role="parent")
        with pytest.raises(FaultInjected):  # a new plan starts fresh
            faults.fire("l3_append", target="c")

    def test_injected_fault_is_an_oserror(self):
        assert issubclass(FaultInjected, OSError)


# ---------------------------------------------------------------------------
# ServiceConfig validates at construction
# ---------------------------------------------------------------------------


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"table_slots": 0},
            {"table_slots": -8},
            {"table_slots": 1000},  # not a power of two
            {"event_batch_size": 0},
            {"cache_log_compact_threshold": 0},
            {"n_workers": 0},
            {"max_job_retries": -1},
            {"retry_backoff": -0.1},
            {"retry_backoff": 1.0, "retry_backoff_max": 0.5},
            {"retry_jitter": 1.5},
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": 1.0, "heartbeat_timeout": 0.5},
            {"job_deadline": 0.0},
            {"deadline_grace": -1.0},
            {"max_pool_crashes": 0},
        ],
    )
    def test_bad_knobs_fail_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)

    def test_fault_plan_is_validated_too(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            ServiceConfig(fault_plan=FaultPlan(faults=[Fault("nope")]))

    def test_defaults_are_valid(self):
        ServiceConfig().validate()


# ---------------------------------------------------------------------------
# EventLog tolerates truncated persisted files
# ---------------------------------------------------------------------------


class TestEventLogTruncation:
    def _saved_log(self, tmp_path, n=6):
        log = EventLog()
        for index in range(n):
            log(ProgressEvent(kind="generation", generation=index + 1, job_id="job-1"))
        path = tmp_path / "events.json"
        log.save(path)
        return path

    def test_intact_file_loads_untruncated(self, tmp_path):
        path = self._saved_log(tmp_path)
        loaded = EventLog.load(path)
        assert len(loaded) == 6
        assert loaded.truncated is False

    def test_mid_record_cut_recovers_valid_prefix(self, tmp_path):
        path = self._saved_log(tmp_path)
        text = path.read_text()
        # cut inside the 4th record: keep a valid prefix of 3 records
        cut = text.find('"generation": 4')
        assert cut > 0
        path.write_text(text[:cut])
        loaded = EventLog.load(path)
        assert loaded.truncated is True
        assert [event.generation for event in loaded.events] == [1, 2, 3]

    def test_garbage_file_loads_empty_and_truncated(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text("\x00\x01 not json at all")
        loaded = EventLog.load(path)
        assert loaded.truncated is True
        assert len(loaded) == 0


# ---------------------------------------------------------------------------
# Worker crashes: restart, retry, quarantine, degradation, freeze
# ---------------------------------------------------------------------------


class TestWorkerCrashRecovery:
    def _run(self, config, fault_plan=None, tasks=(), budget=250, seed=3, **kwargs):
        session = _edit_session(config, fault_plan=fault_plan, **kwargs)
        log = EventLog()
        session.add_listener(log)
        jobs = [session.submit(task, budget=budget, seed=seed) for task in tasks]
        run_guarded(lambda: session.run(n_workers=2))
        return jobs, log

    def test_pre_merge_crash_is_retried_with_identical_results(
        self, edit_config, tiny_suite
    ):
        """The worst crash point: the job finished its work, the worker
        died before reporting it.  The retry must reproduce the result
        bit-for-bit and no healthy job may be disturbed."""
        tasks = list(tiny_suite)
        baseline, _ = self._run(edit_config, tasks=tasks)
        plan = FaultPlan.single("pre_merge", action="crash", match="job-2:0")
        faulted, log = self._run(edit_config, fault_plan=plan, tasks=tasks)
        assert [_result_signature(j) for j in faulted] == [
            _result_signature(j) for j in baseline
        ]
        assert log.of_kind("worker_restarted"), "dead worker was not replaced"
        retries = log.of_kind("job_retry")
        assert retries and retries[0].job_id == "job-2"
        assert not log.of_kind("job_quarantined")

    def test_worker_start_crash_is_retried(self, edit_config, tiny_suite):
        tasks = list(tiny_suite)
        baseline, _ = self._run(edit_config, tasks=tasks)
        plan = FaultPlan.single("worker_start", action="crash", match="job-1:0")
        faulted, log = self._run(edit_config, fault_plan=plan, tasks=tasks)
        assert [_result_signature(j) for j in faulted] == [
            _result_signature(j) for j in baseline
        ]
        assert faulted[0].state in (JobState.SOLVED, JobState.EXHAUSTED)
        assert log.of_kind("job_retry")

    def test_poison_job_is_quarantined_and_run_continues(
        self, edit_config, tiny_suite
    ):
        """A job that kills every worker that runs it ends ``failed``
        with a structured report after 1 + max_job_retries attempts."""
        tasks = list(tiny_suite)
        plan = FaultPlan.single("worker_start", action="crash", match="job-2:")
        session = _edit_session(
            edit_config, fault_plan=plan, max_job_retries=2, max_pool_crashes=10
        )
        log = EventLog()
        session.add_listener(log)
        jobs = [session.submit(task, budget=250, seed=3) for task in tasks]
        run_guarded(lambda: session.run(n_workers=2))

        poison = jobs[1]
        assert poison.state is JobState.FAILED
        assert poison.failure is not None
        assert poison.failure.kind == "crash"
        assert poison.failure.attempts == 3
        assert len(poison.failure.worker_ids) == 3
        assert "quarantined" in poison.error
        assert poison.to_dict()["failure"]["attempts"] == 3
        quarantined = log.of_kind("job_quarantined")
        assert quarantined and quarantined[0].job_id == "job-2"
        # the synthesized terminal event settles the poison job's stream
        assert poison.events and poison.events[-1].kind == "failed"
        assert poison.events[-1].reason == "crash"
        for job in jobs[:1] + jobs[2:]:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)

    def test_crash_storm_degrades_to_serial_and_finishes(
        self, edit_config, tiny_suite
    ):
        """Crashing every worker start exceeds max_pool_crashes=1 almost
        immediately; the session must fall back to in-process serial
        execution and still finish every job correctly (the fault sites
        are worker-only, so the serial reruns are clean)."""
        tasks = list(tiny_suite)
        baseline, _ = self._run(edit_config, tasks=tasks)
        plan = FaultPlan.single("worker_start", action="crash", count=1000)
        faulted, log = self._run(
            edit_config, fault_plan=plan, tasks=tasks, max_pool_crashes=1
        )
        assert log.of_kind("degraded_serial")
        assert [_result_signature(j) for j in faulted] == [
            _result_signature(j) for j in baseline
        ]

    def test_frozen_worker_is_killed_and_job_retried(self, edit_config, tiny_suite):
        """SIGSTOP leaves the process alive for the sentinel check but
        silent for heartbeats: only the heartbeat deadline catches it."""
        tasks = list(tiny_suite)
        plan = FaultPlan.single("worker_start", action="freeze", match="job-1:0")
        faulted, log = self._run(
            edit_config,
            fault_plan=plan,
            tasks=tasks,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.5,
        )
        assert faulted[0].state in (JobState.SOLVED, JobState.EXHAUSTED)
        restarted = log.of_kind("worker_restarted")
        assert restarted and restarted[0].reason == "heartbeat_timeout"
        for job in faulted:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)


class TestDeadlines:
    def test_overdue_job_fails_with_deadline_report(
        self, edit_config, tiny_task, tiny_suite
    ):
        # the doomed job must still be searching when the deadline hits:
        # lift the generation cap so only the budget/deadline can stop it
        config = edit_config.replace(
            ga=dataclasses.replace(edit_config.ga, max_generations=1_000_000)
        )
        session = _edit_session(config, job_deadline=0.4, deadline_grace=5.0)
        log = EventLog()
        session.add_listener(log)
        doomed = session.submit(
            _impossible_task(tiny_task), budget=100_000_000, seed=2
        )
        normal = [session.submit(task, budget=250, seed=0) for task in tiny_suite[:2]]
        run_guarded(lambda: session.run(n_workers=2))

        assert doomed.state is JobState.FAILED
        assert doomed.failure is not None
        assert doomed.failure.kind == "deadline"
        assert "deadline" in doomed.error
        exceeded = log.of_kind("deadline_exceeded")
        assert exceeded and exceeded[0].job_id == doomed.job_id
        assert doomed.events[-1].kind == "failed"
        assert doomed.events[-1].reason == "deadline"
        for job in normal:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)

    def test_unheeded_deadline_is_enforced_by_hard_kill(
        self, edit_config, tiny_task, tiny_suite
    ):
        """A worker that ignores the cooperative cancel (here: hung in a
        sleep, so it never polls the flag) is hard-killed after
        deadline_grace and the job still ends with a deadline failure,
        not a hang."""
        plan = FaultPlan.single("worker_start", action="hang", match="job-1:0")
        session = _edit_session(
            edit_config,
            fault_plan=plan,
            job_deadline=0.3,
            deadline_grace=0.3,
            heartbeat_interval=0.05,
            heartbeat_timeout=60.0,  # heartbeats must not beat the deadline here
        )
        doomed = session.submit(
            _impossible_task(tiny_task), budget=100_000_000, seed=2
        )
        normal = session.submit(tiny_suite[0], budget=250, seed=0)
        run_guarded(lambda: session.run(n_workers=2))
        assert doomed.state is JobState.FAILED
        assert doomed.failure is not None and doomed.failure.kind == "deadline"
        assert normal.state in (JobState.SOLVED, JobState.EXHAUSTED)


# ---------------------------------------------------------------------------
# Crash-safe cache tiers (L3 segment log, L2 shared table, shared weights)
# ---------------------------------------------------------------------------


def _tiny_snapshot(tag: int) -> dict:
    return {"edit:None": {"evaluation": [((tag,), tag)]}}


class TestCrashSafeCacheLog:
    def test_truncated_segment_is_skipped_not_fatal(self, tmp_path):
        store = ArtifactStore()
        store.save_caches(tmp_path, _tiny_snapshot(1))
        path = store.save_caches(tmp_path, _tiny_snapshot(2))
        # tear the newest segment mid-write
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        skipped = []
        loaded = store.load_caches(tmp_path, on_skip=lambda name, status: skipped.append((name, status)))
        assert skipped == [(path.name, "corrupt")]
        assert loaded["edit:None"]["evaluation"] == [((1,), 1)]

    def test_l3_truncate_fault_surfaces_startup_event(self, edit_config, tmp_path, tiny_suite):
        """End to end: a session whose L3 append is torn by the truncate
        fault; the next session over the same directory skips the torn
        segment and reports it as a ``cache_segment_skipped`` event."""
        plan = FaultPlan.single("l3_append", action="truncate")
        config = ServiceConfig(artifact_dir=str(tmp_path), fault_plan=plan)
        first = SynthesisSession(
            edit_config, ArtifactStore(), methods=("edit",), service_config=config
        )
        jobs = [first.submit(task, budget=200, seed=0) for task in tiny_suite[:2]]
        run_guarded(lambda: first.run())  # serial: the torn append happens here
        assert all(job.done for job in jobs)

        faults.reset()
        second = SynthesisSession(
            edit_config,
            ArtifactStore(),
            methods=("edit",),
            service_config=ServiceConfig(artifact_dir=str(tmp_path)),
        )
        assert second.startup_events
        assert second.startup_events[0].kind == "cache_segment_skipped"
        log = EventLog()
        second.add_listener(log)
        followup = [second.submit(task, budget=200, seed=0) for task in tiny_suite[:2]]
        run_guarded(lambda: second.run())
        assert all(job.done for job in followup)
        assert log.of_kind("cache_segment_skipped"), "startup event not flushed"
        assert not second.startup_events, "startup events must flush once"

    def test_unframed_segment_is_skipped_as_corrupt(self, tmp_path):
        store = ArtifactStore()
        path = store.save_caches(tmp_path, _tiny_snapshot(1))
        store.save_caches(tmp_path, _tiny_snapshot(2))
        # an unframed segment (a bare pickle, no magic/length/CRC header)
        path.write_bytes(pickle.dumps({"format_version": 2, "snapshots": _tiny_snapshot(1)}))
        skipped = []
        loaded = store.load_caches(tmp_path, on_skip=lambda name, status: skipped.append((name, status)))
        assert skipped == [(path.name, "corrupt")]
        assert loaded["edit:None"]["evaluation"] == [((2,), 2)]

    def test_manifest_write_is_atomic_no_tmp_left(self, tmp_path):
        store = ArtifactStore()
        store.save_caches(tmp_path, _tiny_snapshot(1))
        leftovers = list((tmp_path / CACHE_LOG_DIR).glob("*.tmp"))
        assert leftovers == []

    def test_compaction_racing_concurrent_save(self, tmp_path):
        """Two sessions over one cache_log/: one compacting, one
        appending.  Exclusive segment creation plus the reconcile-merge
        manifest swap must leave a consistent log — every load succeeds
        and the last writer's entries are present."""
        store_a = ArtifactStore()
        store_b = ArtifactStore()
        for index in range(4):
            store_a.save_caches(tmp_path, _tiny_snapshot(index))
        errors = []
        barrier = threading.Barrier(2)

        def compact_loop():
            try:
                barrier.wait()
                for _ in range(8):
                    store_a.compact_cache_log(tmp_path)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def append_loop():
            try:
                barrier.wait()
                for index in range(8):
                    store_b.save_caches(tmp_path, _tiny_snapshot(100 + index))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=compact_loop),
            threading.Thread(target=append_loop),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert errors == []
        # the log is loadable and holds the final appended entry; missing
        # segments (compacted away mid-race) were retried, not raised
        loaded = store_a.load_caches(tmp_path)
        entries = dict(loaded.get("edit:None", {}).get("evaluation", []))
        assert entries.get((107,)) == 107
        manifest = json.loads((tmp_path / CACHE_LOG_DIR / CACHE_LOG_MANIFEST).read_text())
        for record in manifest["segments"]:
            assert (tmp_path / CACHE_LOG_DIR / record["file"]).stat().st_size > 0


class TestSharedTableRecovery:
    def test_attach_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "scores.bin"
        SharedScoreTable.create(path, n_slots=1 << 8)
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(ValueError, match="truncated"):
            SharedScoreTable.attach(path)

    def test_ensure_recreates_torn_header(self, tmp_path):
        path = tmp_path / "scores.bin"
        SharedScoreTable.create(path, n_slots=1 << 8)
        with path.open("r+b") as handle:
            handle.write(b"\xff" * 16)  # tear the header in place
        table = SharedScoreTable.ensure(path, n_slots=1 << 8)
        assert table.n_slots == 1 << 8
        assert table.occupancy() == 0
        table.put(1234, 0.5)
        assert table.get(1234)[0] == 0.5

    def test_ensure_recreates_truncated_file(self, tmp_path):
        path = tmp_path / "scores.bin"
        SharedScoreTable.create(path, n_slots=1 << 8)
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(size // 2)
        table = SharedScoreTable.ensure(path, n_slots=1 << 8)
        assert table.occupancy() == 0

    def test_table_attach_fault_downgrades_to_l1(self, tmp_path):
        """A worker-side attach failure (injected) must yield None — the
        L1-only downgrade — not an exception."""
        from repro.core import service as service_module

        path = tmp_path / "scores.bin"
        SharedScoreTable.create(path, n_slots=1 << 8)
        plan = FaultPlan.single("table_attach", action="raise")
        faults.install(plan, role="parent")
        try:
            assert service_module._attach_score_table(str(path)) is None
        finally:
            service_module._ATTACHED_TABLES.clear()

    def test_session_survives_garbage_table_file(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite, tmp_path
    ):
        """A leftover garbage shared_scores.bin is recreated by ensure()
        and the parallel session completes normally."""
        from repro.execution.shared_table import SHARED_SCORES_BIN

        (tmp_path / SHARED_SCORES_BIN).write_bytes(b"\xde\xad\xbe\xef" * 8)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = SynthesisSession(
            tiny_netsyn_config,
            store,
            methods=("netsyn_cf",),
            service_config=ServiceConfig(
                table_slots=1 << 12,
                shared_dir=str(tmp_path),
                persist_caches=False,
            ),
        )
        jobs = [session.submit(task, budget=300, seed=1) for task in list(tiny_suite)[:2]]
        run_guarded(lambda: session.run(n_workers=2))
        assert all(job.state in (JobState.SOLVED, JobState.EXHAUSTED) for job in jobs)


class TestSharedWeightsFallback:
    def test_missing_segment_falls_back_to_npz(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite, tmp_path
    ):
        from repro.core.artifacts import SHARED_WEIGHTS_BIN

        def build(shared_dir):
            store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
            return SynthesisSession(
                tiny_netsyn_config,
                store,
                methods=("netsyn_cf",),
                service_config=ServiceConfig(
                    shared_dir=shared_dir, persist_caches=False
                ),
            )

        baseline_session = build(str(tmp_path / "baseline"))
        baseline = [
            baseline_session.submit(task, budget=300, seed=1)
            for task in list(tiny_suite)[:2]
        ]
        run_guarded(lambda: baseline_session.run(n_workers=2))

        session = build(str(tmp_path / "broken"))
        session._worker_payload()  # packs the segment
        (tmp_path / "broken" / SHARED_WEIGHTS_BIN).unlink()
        jobs = [session.submit(task, budget=300, seed=1) for task in list(tiny_suite)[:2]]
        run_guarded(lambda: session.run(n_workers=2))
        assert [_result_signature(j) for j in jobs] == [
            _result_signature(j) for j in baseline
        ]


def _tear(data: bytes, how: str) -> bytes:
    return b"" if how == "empty" else data[: len(data) // 2]


class TestTornWorkerSnapshot:
    """An unreadable worker warm-cache snapshot is a cold start, never a
    failed job."""

    @pytest.mark.parametrize("how", ["empty", "truncated"])
    def test_unreadable_snapshot_loads_empty(self, tiny_netsyn_config, tmp_path, how):
        from repro.core.service import SharedWorkerPayload

        path = tmp_path / "cache_snapshot.pkl"
        path.write_bytes(_tear(pickle.dumps(_tiny_snapshot(1)), how))
        payload = SharedWorkerPayload(
            directory=str(tmp_path), config=tiny_netsyn_config, snapshot_file=str(path)
        )
        assert payload.cache_snapshots() == {}

    def test_snapshot_write_is_atomic_no_tmp_left(self, tmp_path):
        from repro.core.service import _pickle_atomically

        path = tmp_path / "cache_snapshot.pkl"
        _pickle_atomically(path, _tiny_snapshot(1))
        _pickle_atomically(path, _tiny_snapshot(2))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert pickle.loads(path.read_bytes()) == _tiny_snapshot(2)

    @pytest.mark.parametrize("how", ["empty", "truncated"])
    def test_parallel_run_over_torn_snapshot_matches_serial(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite,
        tmp_path, monkeypatch, how,
    ):
        tasks = list(tiny_suite)[:3]

        def build(shared_dir):
            store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
            return SynthesisSession(
                tiny_netsyn_config,
                store,
                methods=("netsyn_cf",),
                service_config=ServiceConfig(shared_dir=shared_dir, persist_caches=False),
            )

        baseline_session = build(str(tmp_path / "baseline"))
        baseline = [baseline_session.submit(task, budget=300, seed=1) for task in tasks[1:]]
        baseline_session.run()

        session = build(str(tmp_path / "torn"))
        session.submit(tasks[0], budget=300, seed=1)
        session.run()  # warms the backend, so the parallel run ships a snapshot
        torn = []
        build_payload = SynthesisSession._worker_payload

        def torn_payload(self):
            payload = build_payload(self)
            if payload.snapshot_file:
                path = Path(payload.snapshot_file)
                path.write_bytes(_tear(path.read_bytes(), how))
                torn.append(path)
            return payload

        monkeypatch.setattr(SynthesisSession, "_worker_payload", torn_payload)
        jobs = [session.submit(task, budget=300, seed=1) for task in tasks[1:]]
        run_guarded(lambda: session.run(n_workers=2))
        assert torn, "the parallel run shipped no snapshot to tear"
        assert [_result_signature(j) for j in jobs] == [
            _result_signature(j) for j in baseline
        ]
