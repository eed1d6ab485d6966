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
* a broken worker event pipe stops that job's stream where it broke,
  while the job itself and every other job's stream complete;
* a torn L3 cache-log frame is skipped (with a
  ``cache_segment_skipped`` event), never crashing a load, and costs only
  its own entries;
* between runs the pool is idle, not hung: an idle gap longer than
  ``heartbeat_timeout`` kills no worker, a worker killed while idle is
  replaced at the next run (``worker_restarted``), and a run that
  degraded to serial leaves the next run a fresh pool.

Every parallel run is wrapped in a wall-clock guard: the historical
failure mode of ``Pool.map`` under a worker crash was an infinite hang,
so "completes at all" is itself an assertion.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

import repro.config
from repro.config import ServiceConfig
from repro.core import ArtifactStore, JobState, SynthesisSession, supervisor
from repro.core.artifacts import _CACHE_LOG_MAGIC
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOExample
from repro.events import EventLog, ProgressEvent
from repro.execution import faults
from repro.execution.faults import Fault, FaultInjected, FaultPlan
from repro.utils.frames import frame


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
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(**service_kwargs),
    )


def _impossible_task(template, task_id="impossible", inputs=(1, 2, 3)):
    """Contradictory examples: the search can never terminate early."""
    return SynthesisTask(
        target=template.target,
        io_set=[
            IOExample(inputs=(list(inputs),), output=[1]),
            IOExample(inputs=(list(inputs),), output=[2]),
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
        plan = FaultPlan.parse("worker_start:crash:job-1#0;l3_append:truncate::2:3")
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
            {"progress_every": 0},
            {"n_workers": 0},
            {"max_job_retries": -1},
            {"retry_backoff": -0.1},
            {"retry_backoff": repro.config.RETRY_BACKOFF_MAX + 0.5},
            {"retry_backoff": float("inf")},
            {"heartbeat_timeout": 0.0},
            {"heartbeat_timeout": repro.config.HEARTBEAT_INTERVAL},
            {"job_deadline": 0.0},
            {"job_deadline": -1.0},
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


class TestRetrySchedule:
    def test_backoff_doubles_up_to_the_cap_whatever_the_seeds(self):
        """Retry ``a`` waits ``min(retry_backoff * 2**(a-1), RETRY_BACKOFF_MAX)``:
        no jitter, so the session seed does not move it."""
        expected = [
            min(0.05 * 2 ** (attempt - 1), repro.config.RETRY_BACKOFF_MAX)
            for attempt in range(1, 9)
        ]
        assert expected[-1] == repro.config.RETRY_BACKOFF_MAX  # the cap binds
        for seed in (0, 7, 123):
            pool = supervisor.WorkerSupervisor(
                1,
                ServiceConfig(retry_backoff=0.05, fault_plan=FaultPlan()),
                seed=seed,
                payload=None,
            )
            try:
                assert [pool._backoff(attempt) for attempt in range(1, 9)] == expected
            finally:
                pool.close()


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

    def test_frozen_worker_is_killed_and_job_retried(
        self, edit_config, tiny_suite, monkeypatch
    ):
        """SIGSTOP leaves the process alive for the sentinel check but
        silent for heartbeats: only the heartbeat deadline catches it."""
        monkeypatch.setattr(repro.config, "HEARTBEAT_INTERVAL", 0.05)
        tasks = list(tiny_suite)
        plan = FaultPlan.single("worker_start", action="freeze", match="job-1:0")
        faulted, log = self._run(
            edit_config,
            fault_plan=plan,
            tasks=tasks,
            heartbeat_timeout=0.5,
        )
        assert faulted[0].state in (JobState.SOLVED, JobState.EXHAUSTED)
        restarted = log.of_kind("worker_restarted")
        assert restarted and restarted[0].reason == "heartbeat_timeout"
        for job in faulted:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)


class TestDeadlines:
    def test_overdue_job_fails_with_deadline_report(
        self, edit_config, tiny_task, tiny_suite, monkeypatch
    ):
        # the doomed job must still be searching when the deadline hits:
        # lift the generation cap so only the budget/deadline can stop it
        config = edit_config.replace(
            ga=dataclasses.replace(edit_config.ga, max_generations=1_000_000)
        )
        monkeypatch.setattr(supervisor, "DEADLINE_GRACE", 5.0)
        session = _edit_session(config, job_deadline=0.4)
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
        self, edit_config, tiny_task, tiny_suite, monkeypatch
    ):
        """A worker that ignores the cooperative cancel (here: hung in a
        sleep, so it never polls the flag) is hard-killed after
        DEADLINE_GRACE and the job still ends with a deadline failure,
        not a hang."""
        monkeypatch.setattr(supervisor, "DEADLINE_GRACE", 0.3)
        monkeypatch.setattr(repro.config, "HEARTBEAT_INTERVAL", 0.05)
        plan = FaultPlan.single("worker_start", action="hang", match="job-1:0")
        session = _edit_session(
            edit_config,
            fault_plan=plan,
            job_deadline=0.3,
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
# A broken worker event pipe
# ---------------------------------------------------------------------------


class TestBrokenEventPipe:
    def test_broken_pipe_cuts_only_its_own_stream(self, edit_config, tiny_task):
        """``event_put`` fires once per coalesced put.  Breaking the faulted
        job's second put loses the rest of its stream, not its result, and
        leaves the other job's stream whole."""
        # distinct io sets: neither job can hit the other's cache entries
        tasks = [
            _impossible_task(tiny_task, "doomed-a"),
            _impossible_task(tiny_task, "doomed-b", inputs=(4, 5, 6)),
        ]

        def run(n_workers, fault_plan=None):
            session = _edit_session(edit_config, progress_every=10, fault_plan=fault_plan)
            jobs = [session.submit(task, budget=2_000, seed=4) for task in tasks]
            run_guarded(lambda: session.run(n_workers=n_workers))
            session.close()
            return jobs

        serial = run(1)
        # more than one batch per job, so the second put happens mid-stream
        assert all(len(job.events) > supervisor._EVENT_BATCH for job in serial)
        faulted_job, healthy_job = run(
            2, FaultPlan.single("event_put", "raise", match="job-1", nth=2)
        )
        assert [_result_signature(j) for j in (faulted_job, healthy_job)] == [
            _result_signature(j) for j in serial
        ]
        streamed = [event.to_dict() for event in faulted_job.events]
        expected = [event.to_dict() for event in serial[0].events]
        assert 0 < len(streamed) < len(expected)
        assert streamed == expected[: len(streamed)]
        assert "finished" not in [event.kind for event in faulted_job.events]
        assert [event.to_dict() for event in healthy_job.events] == [
            event.to_dict() for event in serial[1].events
        ]


# ---------------------------------------------------------------------------
# The idle pool between runs: gaps, deaths, degradation scope
# ---------------------------------------------------------------------------


def _pool_pids(session):
    return {state["process"].pid for state in session._pool._workers.values()}


class TestIdlePool:
    def _baseline(self, config, batches):
        session = _edit_session(config)
        jobs = [session.submit(task, budget=250, seed=3) for batch in batches for task in batch]
        session.run(n_workers=1)
        return [_result_signature(job) for job in jobs]

    def test_idle_gap_longer_than_heartbeat_timeout_kills_no_worker(
        self, edit_config, tiny_suite, monkeypatch
    ):
        monkeypatch.setattr(repro.config, "HEARTBEAT_INTERVAL", 0.1)
        batches = [tiny_suite[0:2], tiny_suite[2:4]]
        with _edit_session(edit_config, heartbeat_timeout=0.5) as session:
            log = EventLog()
            session.add_listener(log)
            first = [session.submit(task, budget=250, seed=3) for task in batches[0]]
            run_guarded(lambda: session.run(first, n_workers=2))
            pids = _pool_pids(session)
            time.sleep(1.0)
            second = [session.submit(task, budget=250, seed=3) for task in batches[1]]
            run_guarded(lambda: session.run(second, n_workers=2))
            assert _pool_pids(session) == pids
        assert not log.of_kind("worker_restarted")
        assert [_result_signature(j) for j in first + second] == self._baseline(
            edit_config, batches
        )

    def test_worker_killed_while_idle_is_replaced_at_next_run(
        self, edit_config, tiny_suite
    ):
        batches = [tiny_suite[0:2], tiny_suite[2:4]]
        with _edit_session(edit_config) as session:
            log = EventLog()
            session.add_listener(log)
            first = [session.submit(task, budget=250, seed=3) for task in batches[0]]
            run_guarded(lambda: session.run(first, n_workers=2))
            victim, survivor = sorted(_pool_pids(session))
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            assert not log.of_kind("worker_restarted")  # nobody watches an idle pool
            second = [session.submit(task, budget=250, seed=3) for task in batches[1]]
            run_guarded(lambda: session.run(second, n_workers=2))
            pids = _pool_pids(session)
            assert survivor in pids and victim not in pids and len(pids) == 2
        restarted = log.of_kind("worker_restarted")
        assert len(restarted) == 1 and restarted[0].reason == "worker_crash"
        assert not log.of_kind("job_retry")
        assert [_result_signature(j) for j in first + second] == self._baseline(
            edit_config, batches
        )

    def test_degradation_scopes_to_its_run(self, edit_config, tiny_suite):
        """A crash storm degrades run k only: run k+1 gets a fresh pool."""
        plan = FaultPlan(
            faults=[
                Fault("worker_start", action="crash", match="job-1:", count=100),
                Fault("worker_start", action="crash", match="job-2:", count=100),
            ]
        )
        batches = [tiny_suite[0:2], tiny_suite[2:4]]
        with _edit_session(edit_config, fault_plan=plan, max_pool_crashes=1) as session:
            log = EventLog()
            session.add_listener(log)
            first = [session.submit(task, budget=250, seed=3) for task in batches[0]]
            run_guarded(lambda: session.run(first, n_workers=2))
            assert log.of_kind("degraded_serial")
            assert session._pool is None  # the degraded pool is gone
            second = [session.submit(task, budget=250, seed=3) for task in batches[1]]
            run_guarded(lambda: session.run(second, n_workers=2))
            assert len(_pool_pids(session)) == 2
        assert len(log.of_kind("degraded_serial")) == 1
        assert [_result_signature(j) for j in first + second] == self._baseline(
            edit_config, batches
        )


# ---------------------------------------------------------------------------
# Crash-safe persisted state (the L3 cache log)
# ---------------------------------------------------------------------------


def _tiny_snapshot(tag: int) -> dict:
    return {"edit:None": {"evaluation": [((tag,), tag)]}}


def _append_tiny_snapshots(directory, first_tag: int, count: int) -> None:
    """One appender of the concurrency test: ``count`` one-entry frames."""
    store = ArtifactStore()
    for tag in range(first_tag, first_tag + count):
        store.save_caches(directory, _tiny_snapshot(tag))


class TestCrashSafeCacheLog:
    def test_truncated_segment_is_skipped_not_fatal(self, tmp_path):
        store = ArtifactStore()
        path = store.save_caches(tmp_path, _tiny_snapshot(1))
        start = path.stat().st_size
        store.save_caches(tmp_path, _tiny_snapshot(2))
        # tear the newest frame mid-write
        data = path.read_bytes()
        path.write_bytes(data[: (start + len(data)) // 2])
        skipped = []
        loaded = store.load_caches(tmp_path, on_skip=lambda name, reason: skipped.append((name, reason)))
        assert skipped == [(path.name, f"torn frame at offset {start}")]
        assert loaded["edit:None"]["evaluation"] == [((1,), 1)]

    def test_truncate_fault_tears_only_the_appended_frame(self, tmp_path):
        """The ``l3_append`` truncate halves the frame just appended: the
        frames before it still load, the torn one is reported once, and
        a later append lands after it and loads too."""
        store = ArtifactStore()
        path = store.save_caches(tmp_path, _tiny_snapshot(1))
        start = path.stat().st_size
        faults.install(FaultPlan.single("l3_append", action="truncate"), role="parent")
        store.save_caches(tmp_path, _tiny_snapshot(2))
        assert faults.fired() == [("l3_append", "truncate", path.name)]
        assert start < path.stat().st_size
        faults.reset()
        store.save_caches(tmp_path, _tiny_snapshot(3))
        skipped = []
        loaded = store.load_caches(tmp_path, on_skip=lambda name, reason: skipped.append((name, reason)))
        assert len(skipped) == 1 and skipped[0][1].endswith(f"at offset {start}")
        assert loaded["edit:None"]["evaluation"] == [((1,), 1), ((3,), 3)]

    def test_l3_truncate_fault_surfaces_startup_event(self, edit_config, tmp_path, tiny_suite):
        """End to end: a session whose L3 append is torn by the truncate
        fault; the next session over the same directory skips the torn
        frame and reports it as a ``cache_segment_skipped`` event."""
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
        unframed_at = path.stat().st_size
        # a bare pickle (no magic/length/CRC header), then a CRC-valid
        # frame whose payload is not a pickle
        bare = pickle.dumps({"format_version": 2, "snapshots": _tiny_snapshot(9)})
        with path.open("ab") as handle:
            handle.write(bare)
            handle.write(frame(_CACHE_LOG_MAGIC, b"not a pickle"))
        store.save_caches(tmp_path, _tiny_snapshot(2))
        skipped = []
        loaded = store.load_caches(tmp_path, on_skip=lambda name, reason: skipped.append((name, reason)))
        assert skipped == [
            (path.name, f"unframed bytes at offset {unframed_at}"),
            (path.name, f"unreadable payload at offset {unframed_at + len(bare)}"),
        ]
        assert loaded["edit:None"]["evaluation"] == [((1,), 1), ((2,), 2)]

    def test_concurrent_appenders_lose_nothing(self, tmp_path):
        """Four threads and two processes append 25 frames each to one
        log at once: the exclusive lock serializes the appends, so all
        150 entries load, each appender's in its own order, with no
        frame skipped."""
        context = multiprocessing.get_context("spawn")  # no fork under threads
        processes = [
            context.Process(target=_append_tiny_snapshots, args=(str(tmp_path), first, 25))
            for first in (1000, 2000)
        ]
        for process in processes:
            process.start()
        threads = [
            threading.Thread(target=_append_tiny_snapshots, args=(tmp_path, first, 25))
            for first in (0, 100, 200, 300)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        skipped = []
        loaded = ArtifactStore().load_caches(tmp_path, on_skip=lambda *skip: skipped.append(skip))
        assert skipped == []
        tags = [tag for (tag,), _ in loaded["edit:None"]["evaluation"]]
        for first in (0, 100, 200, 300, 1000, 2000):
            assert [tag for tag in tags if first <= tag < first + 25] == list(
                range(first, first + 25)
            )
        assert len(tags) == 150
