"""Live cross-process progress streaming and worker cancellation.

The contract under test:

* a 2-worker parallel session streams every worker-side event (started /
  generation / neighborhood / candidates / finished) back to the parent
  live, and for a seeded run each job's event sequence — kinds,
  generation indices, candidate counts, per-run cache-counter deltas —
  equals the serial session's, event for event;
* events arrive ordered per job (one worker produces a job's events
  sequentially into the queue, so the per-job sub-sequence is
  deterministic even though jobs interleave);
* ``job.cancel()`` reaches a *running* worker through the shared
  cancellation flag: the job ends ``CANCELLED`` with no ``finished``
  event, well before its budget, and the session stays healthy for
  subsequent parallel runs;
* a cancel requested before a job starts never pays for a generation —
  neither on the serial path (``run_job`` checks the flag at job start)
  nor in a worker (the flag is polled before the backend is invoked).
"""

from __future__ import annotations

import pytest

from repro.config import ServiceConfig
from repro.core import ArtifactStore, JobState, SynthesisSession
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOExample
from repro.events import EventLog


@pytest.fixture
def edit_config(tiny_netsyn_config):
    return tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)


def _edit_session(config, **service_kwargs):
    return SynthesisSession(
        config,
        ArtifactStore(),
        methods=("edit",),
        service_config=ServiceConfig(**service_kwargs),
    )


def _impossible_task(template, task_id="impossible"):
    """Contradictory examples: no program satisfies both, so the GA can
    never terminate early and cancellation timing is the only exit."""
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


def _event_fingerprints(job):
    """The comparable content of one job's event stream.

    Everything the events carry is compared — kind, generation index,
    candidate accounting and the per-run cache-counter deltas — which is
    exactly the "same telemetry serial or parallel" contract.
    """
    return [event.to_dict() for event in job.events]


# ---------------------------------------------------------------------------
# Parity: parallel event streams equal serial ones, job for job
# ---------------------------------------------------------------------------


class TestParallelEventParity:
    def test_edit_parallel_stream_equals_serial(self, edit_config, tiny_suite):
        def run(n_workers):
            session = _edit_session(edit_config)
            log = EventLog()
            session.add_listener(log)
            jobs = [session.submit(task, budget=250, seed=3) for task in tiny_suite]
            session.run(n_workers=n_workers)
            return jobs, log

        serial_jobs, _ = run(1)
        parallel_jobs, parallel_log = run(2)

        for serial, parallel in zip(serial_jobs, parallel_jobs):
            assert serial.state == parallel.state
            assert _event_fingerprints(parallel) == _event_fingerprints(serial)
            # the live session listener saw exactly what the job recorded
            assert [e.to_dict() for e in parallel_log.for_job(parallel.job_id)] == (
                _event_fingerprints(parallel)
            )

    def test_cf_parallel_stream_equals_serial(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        def run(n_workers):
            store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
            session = SynthesisSession(
                tiny_netsyn_config, store, methods=("netsyn_cf",)
            )
            jobs = [session.submit(task, budget=300, seed=1) for task in list(tiny_suite)[:2]]
            session.run(n_workers=n_workers)
            return jobs

        serial_jobs = run(1)
        parallel_jobs = run(2)
        for serial, parallel in zip(serial_jobs, parallel_jobs):
            assert serial.state == parallel.state
            assert _event_fingerprints(parallel) == _event_fingerprints(serial)
            kinds = [event.kind for event in parallel.events]
            assert kinds[0] == "started"
            assert kinds[-1] == "finished"
            if parallel.result.generations:
                assert "generation" in kinds

    def test_configured_progress_cadence_reaches_workers(self, edit_config, tiny_suite):
        """ServiceConfig.progress_every governs worker backends too."""

        def run(n_workers):
            session = _edit_session(edit_config, progress_every=10)
            jobs = [session.submit(task, budget=250, seed=3) for task in tiny_suite]
            session.run(n_workers=n_workers)
            return jobs

        serial_jobs = run(1)
        parallel_jobs = run(2)
        for serial, parallel in zip(serial_jobs, parallel_jobs):
            assert _event_fingerprints(parallel) == _event_fingerprints(serial)
            candidates = [e for e in parallel.events if e.kind == "candidates"]
            if parallel.result.candidates_used >= 20:
                assert len(candidates) >= parallel.result.candidates_used // 10 - 1


# ---------------------------------------------------------------------------
# Event batching: coalesced queue puts, identical streams
# ---------------------------------------------------------------------------


class TestEventBatching:
    def test_batched_stream_equals_serial_event_for_event(self, edit_config, tiny_suite):
        """event_batch_size > 1 coalesces queue puts without changing
        stream content, order or completeness."""

        def run(n_workers, batch):
            session = _edit_session(edit_config, event_batch_size=batch)
            log = EventLog()
            session.add_listener(log)
            jobs = [session.submit(task, budget=250, seed=3) for task in tiny_suite]
            session.run(n_workers=n_workers)
            return jobs, log

        serial_jobs, _ = run(1, 1)
        batched_jobs, batched_log = run(2, 32)
        for serial, batched in zip(serial_jobs, batched_jobs):
            assert serial.state == batched.state
            assert _event_fingerprints(batched) == _event_fingerprints(serial)
            assert [e.to_dict() for e in batched_log.for_job(batched.job_id)] == (
                _event_fingerprints(batched)
            )

    def test_cancellation_still_reaches_batched_workers(self, edit_config, tiny_task, tiny_suite):
        session = _edit_session(edit_config, event_batch_size=64)
        doomed = session.submit(_impossible_task(tiny_task), budget=100_000, seed=2)

        def cancel_after_two_generations(event):
            if (
                event.job_id == doomed.job_id
                and event.kind == "generation"
                and event.generation >= 2
            ):
                doomed.cancel()

        session.add_listener(cancel_after_two_generations)
        normal = session.submit(tiny_suite[0], budget=250, seed=0)
        session.run(n_workers=2)
        assert doomed.state is JobState.CANCELLED
        kinds = [event.kind for event in doomed.events]
        assert "finished" not in kinds
        generations = [e.generation for e in doomed.events if e.kind == "generation"]
        # batching delays parent-side observation (the timer flushes every
        # 50 ms), so the worker runs a little past the request — but still
        # nowhere near the submitted budget
        assert generations and generations[-1] < 2_000
        assert normal.state in (JobState.SOLVED, JobState.EXHAUSTED)


# ---------------------------------------------------------------------------
# The L2 shared score table across a parallel session
# ---------------------------------------------------------------------------


class TestSharedScoreTableSession:
    def _session(self, config, store, **service_kwargs):
        return SynthesisSession(
            config,
            store,
            methods=("netsyn_cf",),
            service_config=ServiceConfig(table_slots=1 << 12, **service_kwargs),
        )

    def test_parallel_with_table_equals_serial(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        def run(n_workers):
            store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
            session = self._session(tiny_netsyn_config, store)
            jobs = [session.submit(task, budget=300, seed=1) for task in list(tiny_suite)[:2]]
            session.run(n_workers=n_workers)
            return jobs

        # a serial run never creates the table; the parallel run shares it
        serial = run(1)
        parallel = run(2)
        for a, b in zip(serial, parallel):
            assert a.state == b.state
            assert a.result.found == b.result.found
            assert a.result.candidates_used == b.result.candidates_used
            assert a.result.found_by == b.result.found_by

    def test_second_run_hits_cross_worker_entries(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        """Entries published by run 1's workers serve run 2's fresh pool
        (different pids), so every L2 score hit is a cross-worker hit —
        and the parent, whose L1 never saw the scores (workers omit them
        from the merge delta when the table is live), reads its misses
        from L2 on a serial re-run."""
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = self._session(tiny_netsyn_config, store)
        tasks = list(tiny_suite)[:2]
        first = [session.submit(task, budget=300, seed=1) for task in tasks]
        session.run(n_workers=2)
        assert session._score_table is not None
        assert session._score_table.occupancy() > 0

        second = [session.submit(task, budget=300, seed=1) for task in tasks]
        session.run(n_workers=2)
        for a, b in zip(first, second):
            assert a.result.candidates_used == b.result.candidates_used
        cross = sum(
            event.shared_cross_hits
            for job in second
            for event in job.events
            if event.kind in ("generation", "neighborhood")
        )
        assert cross > 0, "run 2's workers should hit run 1's published scores"

        # the parent reads its L1 score misses from L2 instead of paying
        # NN forwards (the merge path shipped maps/evaluation only)
        third = [session.submit(task, budget=300, seed=1) for task in tasks]
        session.run(n_workers=1)
        for a, b in zip(first, third):
            assert a.result.candidates_used == b.result.candidates_used
        backend = session.backend("netsyn_cf")
        stats = backend.backend._score_cache.stats
        assert stats.shared_cross_hits > 0

    def test_worker_delta_omits_scores_when_table_live(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = self._session(tiny_netsyn_config, store)
        jobs = [session.submit(task, budget=300, seed=1) for task in list(tiny_suite)[:2]]
        session.run(n_workers=2)
        assert all(job.done for job in jobs)
        backend = session.backend("netsyn_cf")
        # maps/evaluation merged back; scores live in L2 only
        assert backend.cache_version() > 0
        inner = backend.backend
        assert inner._map_cache is not None and len(inner._map_cache) > 0
        assert inner._score_cache is None or len(inner._score_cache) == 0


# ---------------------------------------------------------------------------
# Ordering: per-job event sub-sequences are well-formed
# ---------------------------------------------------------------------------


class TestEventOrdering:
    def test_events_arrive_ordered_per_job(self, edit_config, tiny_suite):
        session = _edit_session(edit_config)
        log = EventLog()
        session.add_listener(log)
        jobs = [session.submit(task, budget=250, seed=5) for task in tiny_suite]
        session.run(n_workers=2)

        for job in jobs:
            events = log.for_job(job.job_id)
            assert events, f"no streamed events for {job.job_id}"
            kinds = [event.kind for event in events]
            assert kinds[0] == "started"
            assert kinds[-1] == "finished"
            assert kinds.count("started") == kinds.count("finished") == 1
            generations = [e.generation for e in events if e.kind == "generation"]
            assert generations == sorted(generations)
            assert len(set(generations)) == len(generations)
            candidates = [e.candidates_used for e in events if e.kind != "started"]
            assert candidates == sorted(candidates)

    def test_job_events_carry_job_and_task_identity(self, edit_config, tiny_suite):
        session = _edit_session(edit_config)
        jobs = [session.submit(task, budget=200, seed=2) for task in tiny_suite]
        session.run(n_workers=2)
        for job in jobs:
            assert job.events
            assert all(event.job_id == job.job_id for event in job.events)
            assert all(event.task_id == job.task.task_id for event in job.events)
            assert all(event.method == "edit" for event in job.events)


# ---------------------------------------------------------------------------
# Cancellation: reaching running workers, and never paying for a cancel
# ---------------------------------------------------------------------------


class TestWorkerCancellation:
    def test_cancel_stops_running_worker(self, edit_config, tiny_task, tiny_suite):
        session = _edit_session(edit_config)
        doomed = session.submit(_impossible_task(tiny_task), budget=100_000, seed=2)
        normal = session.submit(tiny_suite[0], budget=250, seed=0)

        def cancel_after_two_generations(event):
            if (
                event.job_id == doomed.job_id
                and event.kind == "generation"
                and event.generation >= 2
            ):
                doomed.cancel()

        session.add_listener(cancel_after_two_generations)
        session.run(n_workers=2)

        assert doomed.state is JobState.CANCELLED
        assert doomed.result is None
        kinds = [event.kind for event in doomed.events]
        assert "finished" not in kinds
        generations = [e.generation for e in doomed.events if e.kind == "generation"]
        # the worker stopped shortly after the flag was raised: nowhere
        # near the thousands of generations the submitted budget allows
        assert generations and generations[-1] < 500
        assert normal.state in (JobState.SOLVED, JobState.EXHAUSTED)

        # the session stays healthy: a subsequent parallel run completes
        followup = [session.submit(task, budget=200, seed=1) for task in tiny_suite[:2]]
        session.run(n_workers=2)
        assert all(job.state in (JobState.SOLVED, JobState.EXHAUSTED) for job in followup)

    def test_cancel_requested_before_start_skips_worker_run(
        self, edit_config, tiny_task, tiny_suite
    ):
        session = _edit_session(edit_config)
        first = session.submit(_impossible_task(tiny_task, "impossible-1"), budget=100_000, seed=2)
        last = session.submit(_impossible_task(tiny_task, "impossible-2"), budget=100_000, seed=3)

        def cancel_both_early(event):
            if event.kind == "generation" and event.generation >= 2:
                first.cancel()
                last.cancel()

        session.add_listener(cancel_both_early)
        session.run(n_workers=2)
        assert first.state is JobState.CANCELLED
        assert last.state is JobState.CANCELLED
        assert all("finished" not in [e.kind for e in job.events] for job in (first, last))

    def test_serial_cancel_before_start_runs_nothing(self, edit_config, tiny_task):
        session = _edit_session(edit_config)
        job = session.submit(tiny_task, budget=100_000, seed=0)
        # simulate a cancel() that raced the PENDING->RUNNING transition
        # (e.g. from a listener on another thread)
        job._cancel_requested = True
        session.run_job(job)
        assert job.state is JobState.CANCELLED
        assert job.events == []
        assert job.result is None


# ---------------------------------------------------------------------------
# Failure isolation still holds with the streaming path active
# ---------------------------------------------------------------------------


class TestStreamingFailureIsolation:
    def test_failed_job_streams_partial_events_and_isolates(self, edit_config, tiny_suite):
        session = _edit_session(edit_config)
        jobs = [session.submit(task, budget=200, seed=0) for task in tiny_suite]
        jobs[1].budget_limit = -1  # worker-side SearchBudget constructor raises
        session.run(n_workers=2)
        assert jobs[1].state is JobState.FAILED
        assert "ValueError" in jobs[1].error
        for job in jobs[:1] + jobs[2:]:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)
            assert job.events[-1].kind == "finished"
