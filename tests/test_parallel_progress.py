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
  nor in a worker (the flag is polled before the backend is invoked);
* the worker pool lives as long as its session: the same worker
  processes serve successive runs, ``close()`` reaps them, a new
  ``n_workers`` resizes the pool, a cancel flag raised in one run never
  cancels the job that reuses its slot in the next, and each job spec
  ships only the cache entries merged for its own task;
* every worker is handed the session's store, config and warm-cache
  snapshots in memory: starting a pool writes no file.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import tempfile
import time

import pytest

from repro.config import ServiceConfig
from repro.core import ArtifactStore, JobState, SynthesisSession, supervisor
from repro.core.supervisor import WorkerSupervisor
from repro.execution import io_set_key
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOExample
from repro.events import EventLog, JobCancelled, ProgressEvent


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
# Event batching: coalesced channel puts, identical streams
# ---------------------------------------------------------------------------


class TestEventBatching:
    def test_batched_stream_equals_serial_event_for_event(
        self, edit_config, tiny_task, tiny_suite
    ):
        """Workers coalesce their events into batched channel puts without
        changing stream content, order or completeness."""

        def run(n_workers):
            session = _edit_session(edit_config)
            log = EventLog()
            session.add_listener(log)
            jobs = [session.submit(task, budget=250, seed=3) for task in tiny_suite]
            # a long job streams more than one full batch
            jobs.append(session.submit(_impossible_task(tiny_task), budget=4_000, seed=3))
            session.run(n_workers=n_workers)
            return jobs, log

        serial_jobs, _ = run(1)
        batched_jobs, batched_log = run(2)
        assert len(batched_jobs[-1].events) > supervisor._EVENT_BATCH
        for serial, batched in zip(serial_jobs, batched_jobs):
            assert serial.state == batched.state
            assert _event_fingerprints(batched) == _event_fingerprints(serial)
            assert [e.to_dict() for e in batched_log.for_job(batched.job_id)] == (
                _event_fingerprints(batched)
            )

    def test_cancellation_still_reaches_batched_workers(self, edit_config, tiny_task, tiny_suite):
        session = _edit_session(edit_config)
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


class _ListChannel:
    """A worker channel that records its puts."""

    def __init__(self):
        self.puts = []

    def put(self, item):
        self.puts.append(item)


class _Clock:
    """Stands in for the ``time`` module of the supervisor."""

    def __init__(self):
        self.now = 100.0

    def monotonic(self):
        return self.now


class TestEventEmitter:
    """The worker-side emitter, over a list-backed channel and a fake clock."""

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = _Clock()
        monkeypatch.setattr(supervisor, "time", clock)
        return clock

    @staticmethod
    def _emitter(flags=None):
        channel = _ListChannel()
        return supervisor._EventEmitter(5, "job-7", channel, flags), channel

    @staticmethod
    def _event(generation, kind="generation"):
        return ProgressEvent(kind=kind, generation=generation)

    def test_flushes_at_the_batch_size(self, clock):
        emitter, channel = self._emitter()
        for generation in range(supervisor._EVENT_BATCH - 1):
            emitter(self._event(generation))
        assert channel.puts == []
        emitter(self._event(supervisor._EVENT_BATCH - 1))
        [(index, batch)] = channel.puts
        assert index == 5 and len(batch) == supervisor._EVENT_BATCH == 64

    def test_flushes_when_an_event_arrives_after_the_interval(self, clock):
        emitter, channel = self._emitter()
        emitter(self._event(0))
        clock.now += 0.049
        emitter(self._event(1))
        assert channel.puts == []
        clock.now += 0.001  # 50 ms since the emitter's last flush
        emitter(self._event(2))
        assert [len(batch) for _index, batch in channel.puts] == [3]
        clock.now += 0.049  # the interval restarts at every flush
        emitter(self._event(3))
        assert len(channel.puts) == 1

    def test_flushes_before_raising_a_cancellation(self, clock):
        flags = [0, 0, 0, 0]
        emitter, channel = self._emitter(flags)
        emitter(self._event(0))
        flags[5 % len(flags)] = 1
        with pytest.raises(JobCancelled):
            emitter(self._event(1))
        # the event that met the raised flag crossed before the raise
        assert [[e.generation for e in batch] for _index, batch in channel.puts] == [[0, 1]]

    def test_flush_puts_the_buffer_once(self, clock):
        emitter, channel = self._emitter()
        emitter(self._event(0))
        emitter(self._event(1))
        emitter.flush()
        emitter.flush()  # nothing buffered: no put
        assert [[e.generation for e in batch] for _index, batch in channel.puts] == [[0, 1]]

    def test_finished_never_cancels(self, clock):
        flags = [1]
        emitter, channel = self._emitter(flags)
        emitter(self._event(0, kind="finished"))
        emitter.flush()
        assert [[e.kind for e in batch] for _index, batch in channel.puts] == [["finished"]]

    def test_order_is_preserved_across_flushes(self, clock):
        emitter, channel = self._emitter()
        n = 3 * supervisor._EVENT_BATCH + 7
        for generation in range(n):
            if generation % 50 == 0:
                clock.now += 0.05
            emitter(self._event(generation))
        emitter.flush()
        streamed = [event for _index, batch in channel.puts for event in batch]
        assert [event.generation for event in streamed] == list(range(n))
        assert {event.job_id for event in streamed} == {"job-7"}
        assert len(channel.puts) > 3


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


# ---------------------------------------------------------------------------
# The session-lifetime pool
# ---------------------------------------------------------------------------


def _child_pids():
    return {process.pid for process in multiprocessing.active_children()}


@pytest.fixture
def stray_pids():
    """Worker pids alive before the test (other sessions' pools)."""
    gc.collect()
    return _child_pids()


def _signature(job):
    """What must not depend on the execution shape."""
    result = job.result
    return (
        job.state,
        None if result is None else (result.found, result.found_by,
                                     result.candidates_used, result.generations),
        [event.kind for event in job.events],
    )


def _serial_signatures(config, batches, budget=200, seed=1):
    session = _edit_session(config)
    jobs = [session.submit(task, budget=budget, seed=seed) for batch in batches for task in batch]
    session.run(n_workers=1)
    return [_signature(job) for job in jobs]


def _run_batches(session, batches, budget=200, seed=1, n_workers=2):
    """Run each batch as its own ``run()``; the pool's worker pids after each."""
    jobs, pids = [], []
    for batch in batches:
        submitted = [session.submit(task, budget=budget, seed=seed) for task in batch]
        session.run(submitted, n_workers=n_workers)
        jobs += submitted
        pids.append(_child_pids())
    return jobs, pids


def _kill_and_reap(pids):
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while _child_pids() & set(pids) and time.monotonic() < deadline:
        time.sleep(0.01)


class TestPoolLifetime:
    def test_workers_survive_between_runs(self, edit_config, tiny_suite, stray_pids):
        batches = [tiny_suite[0:2], tiny_suite[2:4], tiny_suite[0:2]]
        with _edit_session(edit_config) as session:
            jobs, pids = _run_batches(session, batches)
            workers = [run_pids - stray_pids for run_pids in pids]
            assert len(workers[0]) == 2
            assert workers[1] == workers[0] and workers[2] == workers[0]
        assert [_signature(job) for job in jobs] == _serial_signatures(edit_config, batches)

    def test_close_leaves_no_worker_alive(self, edit_config, tiny_suite, stray_pids):
        session = _edit_session(edit_config)
        jobs, pids = _run_batches(session, [tiny_suite[0:2]])
        assert pids[0] - stray_pids
        session.close()
        assert not (_child_pids() - stray_pids)
        session.close()  # idempotent
        # the session stays usable: the next parallel run forks a new pool
        more, again = _run_batches(session, [tiny_suite[2:4]])
        assert again[0] - stray_pids and not (again[0] & pids[0])
        session.close()
        assert not (_child_pids() - stray_pids)
        assert [_signature(job) for job in jobs + more] == _serial_signatures(
            edit_config, [tiny_suite[0:2], tiny_suite[2:4]]
        )

    def test_garbage_collected_session_closes_its_pool(self, edit_config, tiny_suite, stray_pids):
        session = _edit_session(edit_config)
        _run_batches(session, [tiny_suite[0:2]])
        assert _child_pids() - stray_pids
        del session
        gc.collect()
        assert not (_child_pids() - stray_pids)

    def test_changing_n_workers_resizes_the_pool(self, edit_config, tiny_suite, stray_pids):
        with _edit_session(edit_config) as session:
            two, pids_two = _run_batches(session, [tiny_suite[0:2]], n_workers=2)
            three, pids_three = _run_batches(session, [tiny_suite[1:4]], n_workers=3)
            assert len(pids_two[0] - stray_pids) == 2
            assert len(pids_three[0] - stray_pids) == 3
            assert not (pids_two[0] - stray_pids) & pids_three[0]
        assert [_signature(job) for job in two + three] == _serial_signatures(
            edit_config, [tiny_suite[0:2], tiny_suite[1:4]]
        )

    def test_cancel_flag_never_leaks_into_the_slot_reuser(
        self, edit_config, tiny_task, tiny_suite, monkeypatch
    ):
        # two flag slots: the second run's jobs reuse the first run's slots
        monkeypatch.setattr(supervisor, "_FLAG_SLOTS", 2)
        with _edit_session(edit_config) as session:
            normal = session.submit(tiny_suite[0], budget=200, seed=1)
            doomed = session.submit(_impossible_task(tiny_task), budget=100_000, seed=2)

            def cancel_doomed(event):
                if event.job_id == doomed.job_id and event.kind == "generation":
                    doomed.cancel()

            session.add_listener(cancel_doomed)
            session.run(n_workers=2)
            assert doomed.state is JobState.CANCELLED
            assert len(session._pool.cancel_flags) == 2
            assert session._pool.cancel_flags[1] == 1  # still raised after run k
            reusers = [session.submit(task, budget=200, seed=1) for task in tiny_suite[1:3]]
            session.run(reusers, n_workers=2)
        assert [_signature(job) for job in [normal] + reusers] == _serial_signatures(
            edit_config, [tiny_suite[0:3]]
        )

    def test_a_run_larger_than_the_flag_array_reuses_slots(
        self, edit_config, tiny_suite, monkeypatch
    ):
        # a slot is held from a job's dispatch to its settle only, so a
        # run of more jobs than slots waits for a free one on the same pool
        monkeypatch.setattr(supervisor, "_FLAG_SLOTS", 2)
        with _edit_session(edit_config) as session:
            small, _ = _run_batches(session, [tiny_suite[0:2]])
            first = session._pool
            large, _ = _run_batches(session, [tiny_suite[1:4]])
            assert session._pool is first and not first.closed
            assert len(session._pool.cancel_flags) == 2
        assert [_signature(job) for job in small + large] == _serial_signatures(
            edit_config, [tiny_suite[0:2], tiny_suite[1:4]]
        )


class TestPerTaskShipping:
    """Each spec carries only the merged cache entries of its own task."""

    def test_routed_entries_stay_within_the_bound(self):
        router = supervisor._TaskCacheRouter(bound=5)
        router.merge("a", {"scores": [(1, 1.0), (2, 2.0)]})
        router.merge("b", {"scores": [(3, 3.0)], "evaluation": [(4, True)]})
        router.merge("a", {"scores": [(5, 5.0)]})
        assert router.size == 5 and router.entries("new") is None
        # over the bound: the least recently used task's oldest delta goes
        router.merge("c", {"maps": [(6, 0.5)]})
        assert router.size == 4 and router.entries("b") is None
        assert router.entries("a") == {"scores": [(1, 1.0), (2, 2.0), (5, 5.0)]}
        # a delta larger than the whole bound is not kept at all
        router.merge("d", {"scores": [(7, 7.0)] * 6})
        assert router.size <= 5 and router.entries("d") is None

    def test_specs_ship_exactly_the_entries_of_their_task(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite,
        stray_pids, monkeypatch,
    ):
        runs = []  # the specs each session.run() dispatched
        original_dispatch = WorkerSupervisor._dispatch

        def recording_dispatch(self, job):
            live = original_dispatch(self, job)
            runs[-1].append(live.spec)
            return live

        monkeypatch.setattr(WorkerSupervisor, "_dispatch", recording_dispatch)
        deltas = {}
        original_router_merge = supervisor._TaskCacheRouter.merge

        def recording_merge(self, key, delta):
            deltas.setdefault(key, delta)
            return original_router_merge(self, key, delta)

        monkeypatch.setattr(supervisor._TaskCacheRouter, "merge", recording_merge)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        log = EventLog()
        with SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",),
            service_config=ServiceConfig(persist_caches=False),
        ) as session:
            session.add_listener(log)
            tasks = list(tiny_suite)
            first = [session.submit(task, budget=300, seed=1) for task in tasks[:3]]
            runs.append([])
            session.run(n_workers=2)
            # the workers that computed task 0 die while idle: whoever runs
            # its repeat starts from the pool's (empty) warm snapshot
            _kill_and_reap(_child_pids() - stray_pids)
            repeat = session.submit(tasks[0], budget=300, seed=1)
            fresh = session.submit(tasks[3], budget=300, seed=1)
            runs.append([])
            session.run([repeat, fresh], n_workers=2)

        def shipped(spec):
            return sum(len(entries) for entries in (spec[-1] or {}).values())

        # N distinct tasks: nothing to ship to any of them
        assert [shipped(spec) for spec in runs[0]] == [0, 0, 0]
        repeat_spec, fresh_spec = runs[1]
        assert shipped(fresh_spec) == 0
        # the repeat carries exactly its task's merged delta, all of it
        # keyed by the task's io key
        delta = deltas[supervisor._task_key("netsyn_cf", None, tasks[0])]
        assert shipped(repeat_spec) == sum(len(entries) for entries in delta.values()) > 0
        io_key = io_set_key(tasks[0].io_set)
        for (namespace, key), _value in repeat_spec[-1]["evaluation"]:
            # a probability map is keyed by the spec alone
            assert (key if namespace.startswith("probability_map:") else key[1]) == io_key
        assert log.of_kind("worker_restarted")
        last = [event for event in repeat.events if event.kind == "generation"][-1]
        assert last.cache_misses == 0
        assert _signature(repeat) == _signature(first[0])


class TestWorkerPayload:
    """Every worker is handed ``(store, config, snapshots, service_config)``
    in memory."""

    @staticmethod
    def _cf_session(artifacts, **service_kwargs):
        config, trace, fp = artifacts
        return SynthesisSession(
            config, ArtifactStore(cf=trace, fp=fp), methods=("netsyn_cf",),
            service_config=ServiceConfig(**service_kwargs),
        )

    @pytest.fixture
    def artifacts(self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts):
        return tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts

    def test_warm_snapshot_ships_in_memory(self, artifacts, tiny_suite):
        tasks = list(tiny_suite)[:2]
        with self._cf_session(artifacts, persist_caches=False) as reference:
            serial = [reference.submit(task, budget=300, seed=1) for task in tasks]
            reference.run()
        with self._cf_session(artifacts, persist_caches=False) as session:
            # a serial run warms the parent, so the pool's payload carries
            # the parent's caches; no spec ships them (a new pool routes nothing)
            for task in tasks:
                session.submit(task, budget=300, seed=1)
            session.run()
            jobs = [session.submit(task, budget=300, seed=1) for task in tasks]
            session.run(n_workers=2)
            _store, _config, snapshots, _service_config = session._pool.payload
        assert set(snapshots) == {"netsyn_cf:None"}
        assert [_signature(job) for job in jobs] == [_signature(job) for job in serial]
        generations = [e for job in jobs for e in job.events if e.kind == "generation"]
        assert generations and all(e.cache_hits > 0 for e in generations)

    def test_pool_start_writes_no_files(self, artifacts, tiny_suite, tmp_path, monkeypatch):
        from repro.core.artifacts import SHARED_WEIGHTS_BIN, SHARED_WEIGHTS_MANIFEST

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        artifact_dir = tmp_path / "artifacts"
        artifact_dir.mkdir()
        for directory in (str(artifact_dir), None):
            with self._cf_session(artifacts, artifact_dir=directory) as session:
                session.submit(tiny_suite[0], budget=300, seed=1)
                session.run()  # warm: the pool has a snapshot to ship
                for task in list(tiny_suite)[:2]:
                    session.submit(task, budget=300, seed=1)
                session.run(n_workers=2)
                # a worker's session never reads or writes the parent's files
                assert session._pool.payload[3].artifact_dir is None
        written = {path.name for path in artifact_dir.rglob("*")}
        assert not written & {SHARED_WEIGHTS_BIN, SHARED_WEIGHTS_MANIFEST, "cache_snapshot.pkl"}
        assert not list(scratch.glob("netsyn-shared-*"))


# ---------------------------------------------------------------------------
# One job runner for every backend
# ---------------------------------------------------------------------------


class TestPoolRunsAnyBackend:
    """Pool workers run every job through their session's ``run_job``."""

    def test_pushgp_pool_matches_serial_and_writes_no_cache_log(
        self, tiny_netsyn_config, tiny_suite, tmp_path
    ):
        """A backend without memo caches (the base class's no-op
        warm-cache methods) through the pool: the parent snapshots it for
        the payload, the workers open delta windows and ship nothing, and
        nothing reaches the L3 cache log."""
        tasks = list(tiny_suite)
        service_config = ServiceConfig(artifact_dir=str(tmp_path))
        with SynthesisSession(
            tiny_netsyn_config, ArtifactStore(), methods=("pushgp",),
            service_config=service_config,
        ) as session:
            serial = [session.submit(task, budget=300, seed=2) for task in tasks]
            session.run()  # builds the parent's backend, so the payload snapshots it
            pooled = [session.submit(task, budget=300, seed=2) for task in tasks]
            session.run(n_workers=2)
            assert session._pool is not None
        assert [_signature(job) for job in pooled] == [_signature(job) for job in serial]
        assert all(job.events[-1].kind == "finished" for job in pooled)
        assert not (tmp_path / "cache_log").exists()

    def test_backend_build_failure_fails_only_its_job(self, tiny_netsyn_config, tiny_suite):
        """A worker whose backend cannot be built ends the job ``FAILED``
        with the serial path's error; the worker serves the next job."""
        def run(n_workers):
            with SynthesisSession(
                tiny_netsyn_config, ArtifactStore(), methods=("deepcoder", "pushgp"),
            ) as session:
                jobs = [
                    session.submit(task, method=method, budget=200, seed=0)
                    for task in list(tiny_suite)[:2]
                    for method in ("deepcoder", "pushgp")
                ]
                session.run(n_workers=n_workers)
            return jobs

        serial, pooled = run(1), run(2)
        for jobs in (serial, pooled):
            assert [job.state is JobState.FAILED for job in jobs] == [True, False] * 2
            assert jobs[0].error.startswith("MissingArtifactError: ")
        assert [(job.state, job.error) for job in pooled] == [
            (job.state, job.error) for job in serial
        ]
