"""The unified backend API, the session/service layer and artifact persistence."""

import numpy as np
import pytest

from repro.baselines import (
    DeepCoderSynthesizer,
    PCCoderSynthesizer,
    PushGPSynthesizer,
    RobustFillSynthesizer,
    build_backend,
    train_decoder_model,
    train_step_model,
)
from repro.config import NetSynConfig, ServiceConfig
from repro.core import (
    ArtifactStore,
    MissingArtifactError,
    NetSynBackend,
    Phase1Artifacts,
    SynthesisBackend,
    SynthesisService,
    SynthesisSession,
    JobState,
    service,
)
from repro.events import EventLog, JobCancelled, ProgressEvent
from repro.fitness.functions import (
    LearnedTraceFitness,
    ProbabilityMapFitness,
    trace_score_namespace,
)
from repro.ga.budget import SearchBudget


@pytest.fixture(scope="module")
def tiny_step_artifacts(tiny_training_config, tiny_nn_config, tiny_dsl_config):
    return train_step_model(training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config)


@pytest.fixture(scope="module")
def tiny_decoder_artifacts(tiny_training_config, tiny_nn_config, tiny_dsl_config):
    return train_decoder_model(training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config)


@pytest.fixture
def edit_config(tiny_netsyn_config):
    return tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)


@pytest.fixture
def edit_session(edit_config):
    return SynthesisSession(edit_config, ArtifactStore(), methods=("edit",))


# ---------------------------------------------------------------------------
# Phase-1 artifact persistence
# ---------------------------------------------------------------------------


class TestArtifactRoundTrip:
    def test_trace_artifacts_reload_bit_identical(self, tmp_path, tiny_trace_artifacts, tiny_suite):
        tiny_trace_artifacts.save(tmp_path / "cf")
        reloaded = Phase1Artifacts.load(tmp_path / "cf")
        # identical parameters ...
        original_state = tiny_trace_artifacts.model.state_dict()
        reloaded_state = reloaded.model.state_dict()
        assert set(original_state) == set(reloaded_state)
        for name in original_state:
            assert np.array_equal(original_state[name], reloaded_state[name])
        # ... and bit-identical fitness scores on real candidates
        task = tiny_suite[0]
        programs = [t.target for t in tiny_suite]
        before = LearnedTraceFitness(
            tiny_trace_artifacts.model, kind="cf", encoder=tiny_trace_artifacts.encoder
        ).score(programs, task.io_set)
        after = LearnedTraceFitness(
            reloaded.model, kind="cf", encoder=reloaded.encoder
        ).score(programs, task.io_set)
        assert np.array_equal(before, after)

    def test_fp_artifacts_reload_bit_identical(self, tmp_path, tiny_fp_artifacts, tiny_suite):
        tiny_fp_artifacts.save(tmp_path / "fp")
        reloaded = Phase1Artifacts.load(tmp_path / "fp")
        task = tiny_suite[0]
        programs = [t.target for t in tiny_suite]
        before = ProbabilityMapFitness(
            tiny_fp_artifacts.model, encoder=tiny_fp_artifacts.encoder
        ).score(programs, task.io_set)
        after = ProbabilityMapFitness(reloaded.model, encoder=reloaded.encoder).score(
            programs, task.io_set
        )
        assert np.array_equal(before, after)
        assert np.array_equal(
            ProbabilityMapFitness(tiny_fp_artifacts.model, encoder=tiny_fp_artifacts.encoder)
            .probability_map(task.io_set),
            ProbabilityMapFitness(reloaded.model, encoder=reloaded.encoder)
            .probability_map(task.io_set),
        )

    def test_step_and_decoder_artifacts_round_trip(
        self, tmp_path, tiny_step_artifacts, tiny_decoder_artifacts
    ):
        tiny_step_artifacts.save(tmp_path / "step")
        tiny_decoder_artifacts.save(tmp_path / "decoder")
        for directory, original in (
            (tmp_path / "step", tiny_step_artifacts),
            (tmp_path / "decoder", tiny_decoder_artifacts),
        ):
            reloaded = Phase1Artifacts.load(directory)
            assert type(reloaded.model).__name__ == type(original.model).__name__
            for name, value in original.model.state_dict().items():
                assert np.array_equal(value, reloaded.model.state_dict()[name])

    def test_history_and_metrics_survive(self, tmp_path, tiny_fp_artifacts):
        tiny_fp_artifacts.save(tmp_path / "fp")
        reloaded = Phase1Artifacts.load(tmp_path / "fp")
        assert reloaded.history.epochs == tiny_fp_artifacts.history.epochs
        assert reloaded.history.train_loss == pytest.approx(tiny_fp_artifacts.history.train_loss)
        assert reloaded.validation_metrics.keys() == tiny_fp_artifacts.validation_metrics.keys()
        assert reloaded.encoder.max_value_length == tiny_fp_artifacts.encoder.max_value_length


class TestArtifactStore:
    def test_save_load_round_trip(self, tmp_path, tiny_trace_artifacts, tiny_fp_artifacts):
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(tmp_path)
        loaded = ArtifactStore.load(tmp_path)
        assert loaded.names() == ("cf", "fp")
        assert ArtifactStore.saved_at(tmp_path)

    def test_partial_load_by_name(self, tmp_path, tiny_trace_artifacts, tiny_fp_artifacts):
        ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts).save(tmp_path)
        loaded = ArtifactStore.load(tmp_path, names=["fp", "step"])
        assert loaded.names() == ("fp",)

    def test_missing_artifact_error_message(self, tiny_fp_artifacts):
        store = ArtifactStore(fp=tiny_fp_artifacts)
        with pytest.raises(MissingArtifactError) as excinfo:
            store.get("cf")
        message = str(excinfo.value)
        assert "no trained artifact 'cf'" in message
        assert "'fp'" in message
        # still a KeyError for old callers
        with pytest.raises(KeyError):
            store.get("cf")

    def test_unknown_name_rejected_eagerly(self):
        store = ArtifactStore()
        with pytest.raises(ValueError):
            store.get("bogus")
        with pytest.raises(ValueError):
            store.set("bogus", None)

    def test_save_merges_with_existing_manifest(
        self, tmp_path, tiny_trace_artifacts, tiny_fp_artifacts
    ):
        """Sessions sharing one artifact_dir must not clobber each other."""
        ArtifactStore(fp=tiny_fp_artifacts).save(tmp_path)
        ArtifactStore(cf=tiny_trace_artifacts).save(tmp_path)
        loaded = ArtifactStore.load(tmp_path)
        assert loaded.names() == ("cf", "fp")


# ---------------------------------------------------------------------------
# The unified backend protocol: all five methods, with progress events
# ---------------------------------------------------------------------------


class TestBackendProtocol:
    def _solve_with_events(self, backend, task, limit=200):
        log = EventLog()
        result = backend.solve(task, budget=SearchBudget(limit=limit), seed=0, listener=log)
        kinds = log.kinds()
        assert kinds[0] == "started"
        assert kinds[-1] == "finished"
        assert log.last.found == result.found
        assert all(event.method == backend.name for event in log)
        return result, log

    def test_netsyn_backend_streams_generations(self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task):
        backend = NetSynBackend(tiny_netsyn_config)
        backend.set_models(trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts)
        assert isinstance(backend, SynthesisBackend)
        assert backend.requires == ("cf", "fp")
        result, log = self._solve_with_events(backend, tiny_task, limit=400)
        generations = log.of_kind("generation")
        if result.generations:
            assert len(generations) >= result.generations
            event = generations[0]
            assert event.generation == 1
            assert event.best_fitness is not None and event.mean_fitness is not None
            assert event.candidates_used > 0
            assert event.cache_hits + event.cache_misses > 0
            assert 0.0 <= event.cache_hit_rate <= 1.0
            assert event.task_id == tiny_task.task_id

    def test_all_four_baselines_stream_events(
        self, tiny_fp_artifacts, tiny_step_artifacts, tiny_decoder_artifacts, tiny_task
    ):
        backends = [
            DeepCoderSynthesizer(tiny_fp_artifacts, program_length=3),
            PCCoderSynthesizer(tiny_step_artifacts, program_length=3, initial_beam_width=4),
            RobustFillSynthesizer(tiny_decoder_artifacts, program_length=3),
            PushGPSynthesizer(program_length=3, population_size=20),
        ]
        for backend in backends:
            assert isinstance(backend, SynthesisBackend)
            result, log = self._solve_with_events(backend, tiny_task, limit=150)
            # every method reports candidate-level progress via the budget hook
            assert result.found or log.of_kind("candidates")

    def test_listener_does_not_change_seeded_result(self, edit_config, tiny_task):
        backend = NetSynBackend(edit_config).set_models()
        silent = backend.solve(tiny_task, budget=SearchBudget(limit=500), seed=5)
        observed = backend.solve(
            tiny_task, budget=SearchBudget(limit=500), seed=5, listener=EventLog()
        )
        assert silent.found == observed.found
        assert silent.candidates_used == observed.candidates_used
        assert silent.generations == observed.generations
        assert silent.best_fitness_history == observed.best_fitness_history

    def test_build_backend_binds_requirements(self, tiny_netsyn_config, tiny_fp_artifacts, tiny_task):
        store = ArtifactStore(fp=tiny_fp_artifacts)
        backend = build_backend("deepcoder", store, tiny_netsyn_config, program_length=3)
        result = backend.solve(tiny_task, budget=SearchBudget(limit=100), seed=0)
        assert result.method == "deepcoder"

    def test_build_backend_missing_artifact(self, tiny_netsyn_config):
        with pytest.raises(MissingArtifactError):
            build_backend("pccoder", ArtifactStore(), tiny_netsyn_config)


# ---------------------------------------------------------------------------
# Bit-identity: service path vs a bare NetSynBackend
# ---------------------------------------------------------------------------


def _score_misses(backend):
    """Misses of a backend's predicted-score namespace so far."""
    namespace = trace_score_namespace(backend.config.fitness_kind, "netsyn")
    return backend._executor().cache.stats.by_namespace.get(namespace, (0, 0))[1]


def _results_equal(a, b):
    assert a.found == b.found
    assert a.candidates_used == b.candidates_used
    assert a.generations == b.generations
    assert a.found_by == b.found_by
    assert (a.program.function_ids if a.found else None) == (
        b.program.function_ids if b.found else None
    )
    assert a.average_fitness_history == b.average_fitness_history
    assert a.best_fitness_history == b.best_fitness_history


class TestServiceBitIdentity:
    def test_edit_fitness_matches_legacy_path(self, edit_config, tiny_task):
        direct = NetSynBackend(edit_config).solve_io(
            tiny_task.io_set, budget=SearchBudget(limit=600), seed=11, task_id=tiny_task.task_id
        )
        session = SynthesisSession(edit_config, ArtifactStore(), methods=("edit",))
        service_result = session.solve(tiny_task, method="edit", budget=600, seed=11)
        _results_equal(direct, service_result)

    def test_nn_ff_fitness_matches_legacy_path(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        backend = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        direct = backend.solve_io(
            tiny_task.io_set, budget=SearchBudget(limit=400), seed=11, task_id=tiny_task.task_id
        )
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = SynthesisSession(tiny_netsyn_config, store, methods=("netsyn_cf",))
        service_result = session.solve(tiny_task, method="netsyn_cf", budget=400, seed=11)
        _results_equal(direct, service_result)

    def test_reloaded_artifacts_match_in_memory_run(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        """Warm-started sessions reproduce the original session's runs."""
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(tmp_path)
        warm = SynthesisSession(
            tiny_netsyn_config, ArtifactStore.load(tmp_path), methods=("netsyn_cf",)
        )
        cold = SynthesisSession(tiny_netsyn_config, store, methods=("netsyn_cf",))
        _results_equal(
            cold.solve(tiny_task, budget=300, seed=7), warm.solve(tiny_task, budget=300, seed=7)
        )


# ---------------------------------------------------------------------------
# Jobs: states, cancellation, failure isolation
# ---------------------------------------------------------------------------


class TestJobLifecycle:
    def test_submit_run_terminal_states(self, edit_session, tiny_suite):
        jobs = [edit_session.submit(task, budget=300, seed=1) for task in tiny_suite]
        assert all(job.state is JobState.PENDING for job in jobs)
        assert [job.job_id for job in jobs] == [f"job-{i + 1}" for i in range(len(jobs))]
        edit_session.run()
        for job in jobs:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)
            assert job.done
            assert job.result is not None
            assert job.state.value == job.result.status
            assert job.events[-1].kind == "finished"
            assert all(event.job_id == job.job_id for event in job.events)

    def test_submit_unknown_method_rejected(self, edit_session, tiny_task):
        with pytest.raises(KeyError):
            edit_session.submit(tiny_task, method="pushgp")

    def test_submit_rejects_non_positive_budget_and_length(self, edit_session, tiny_suite):
        task = tiny_suite[0]
        good = edit_session.submit(task, budget=300, seed=1)
        for bad in (dict(budget=0), dict(budget=-5), dict(program_length=0)):
            with pytest.raises(ValueError):
                edit_session.submit(task, seed=1, **bad)
        after = edit_session.submit(tiny_suite[1], budget=300, seed=1)
        # rejected submits never reach the queue or consume a job id
        assert edit_session.jobs == [good, after]
        assert [good.job_id, after.job_id] == ["job-1", "job-2"]
        edit_session.run()
        for job in (good, after):
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)

    def test_cancel_pending_job(self, edit_session, tiny_task):
        job = edit_session.submit(tiny_task, budget=300)
        assert job.cancel()
        assert job.state is JobState.CANCELLED
        edit_session.run()
        assert job.state is JobState.CANCELLED and job.result is None
        # re-cancelling an already-cancelled job is an idempotent no-op
        # reporting the same outcome as the cancel that won
        assert job.cancel()
        assert job.state is JobState.CANCELLED

    def test_cooperative_cancel_mid_run(self, edit_session, tiny_task):
        # contradictory examples: no program satisfies both, so the GA can
        # never terminate early and cancellation is deterministic
        from repro.data.tasks import SynthesisTask
        from repro.dsl.equivalence import IOExample

        impossible = SynthesisTask(
            target=tiny_task.target,
            io_set=[
                IOExample(inputs=([1, 2, 3],), output=[1]),
                IOExample(inputs=([1, 2, 3],), output=[2]),
            ],
            length=tiny_task.length,
            is_singleton=False,
            task_id="impossible",
        )
        job = edit_session.submit(impossible, budget=100_000, seed=2)

        def cancel_after_two_generations(event):
            if event.kind == "generation" and event.generation >= 2:
                job.cancel()

        edit_session.add_listener(cancel_after_two_generations)
        edit_session.run()
        assert job.state is JobState.CANCELLED
        assert job.result is None
        # the search stopped early: well under the submitted budget
        generations = [e for e in job.events if e.kind == "generation"]
        assert generations and generations[-1].generation <= 3

    def test_failed_job_is_isolated(self, edit_session, tiny_task):
        class ExplodingBackend(SynthesisBackend):
            name = "edit"

            def solve(self, task, budget=None, seed=0, listener=None):
                raise RuntimeError("boom")

        edit_session._backends[("edit", None)] = ExplodingBackend()
        failed = edit_session.submit(tiny_task, budget=100)
        edit_session.run()
        assert failed.state is JobState.FAILED
        assert "boom" in failed.error
        assert failed.result is None

    def test_session_solve_raises_on_failure(self, edit_session, tiny_task):
        class ExplodingBackend(SynthesisBackend):
            name = "edit"

            def solve(self, task, budget=None, seed=0, listener=None):
                raise RuntimeError("boom")

        edit_session._backends[("edit", None)] = ExplodingBackend()
        with pytest.raises(RuntimeError, match="boom"):
            edit_session.solve(tiny_task, budget=100)

    def test_progress_every_reaches_netsyn_backend(self, edit_config, tiny_task):
        session = SynthesisSession(
            edit_config,
            ArtifactStore(),
            methods=("edit",),
            service_config=ServiceConfig(progress_every=10),
        )
        backend = session.backend("edit")
        assert isinstance(backend, NetSynBackend)
        assert backend.progress_every == 10
        job = session.submit(tiny_task, budget=500, seed=4)
        session.run()
        candidates = [e for e in job.events if e.kind == "candidates"]
        if job.result.candidates_used >= 20:
            assert len(candidates) >= job.result.candidates_used // 10 - 1

    def test_event_retention_is_bounded(self, edit_config, tiny_task, monkeypatch):
        monkeypatch.setattr(service, "MAX_EVENTS_PER_JOB", 25)
        session = SynthesisSession(
            edit_config,
            ArtifactStore(),
            methods=("edit",),
            service_config=ServiceConfig(progress_every=1),
        )
        job = session.submit(tiny_task, budget=1000, seed=6)
        session.run()
        assert len(job.events) <= 25
        assert job.events[-1].kind == "finished"

    def test_supervision_events_respect_the_retention_bound(
        self, edit_config, tiny_task, monkeypatch
    ):
        monkeypatch.setattr(service, "MAX_EVENTS_PER_JOB", 2)
        session = SynthesisSession(edit_config, ArtifactStore(), methods=("edit",))
        job = session.submit(tiny_task, budget=200, seed=0)
        for attempt in (1, 2, 3):
            session._supervision_event(
                ProgressEvent(kind="job_retry", job_id=job.job_id, attempt=attempt), job
            )
        assert [event.attempt for event in job.events] == [2, 3]

    def test_parallel_worker_failure_marks_job_failed(self, edit_config, tiny_suite):
        session = SynthesisSession(edit_config, ArtifactStore(), methods=("edit",))
        jobs = [session.submit(task, budget=200, seed=0) for task in tiny_suite]
        # an invalid budget makes the worker-side SearchBudget constructor
        # raise for one job only; the rest of the batch must still finish
        jobs[1].budget_limit = -1
        session.run(n_workers=2)
        assert jobs[1].state is JobState.FAILED
        assert "ValueError" in jobs[1].error
        for job in jobs[:1] + jobs[2:]:
            assert job.state in (JobState.SOLVED, JobState.EXHAUSTED)

    def test_job_to_dict(self, edit_session, tiny_task):
        job = edit_session.submit(tiny_task, budget=200, seed=3)
        edit_session.run()
        data = job.to_dict()
        assert data["state"] in ("solved", "exhausted")
        assert data["budget_limit"] == 200
        assert data["n_events"] == len(job.events)


# ---------------------------------------------------------------------------
# Service: warm starts and parallel job execution
# ---------------------------------------------------------------------------


class TestSynthesisService:
    def test_open_session_trains_missing_and_persists(self, tmp_path, tiny_netsyn_config):
        service = SynthesisService(
            tiny_netsyn_config,
            service_config=ServiceConfig(artifact_dir=str(tmp_path / "artifacts")),
        )
        session = service.open_session(methods=("netsyn_fp",))
        assert session.store.has("fp")
        assert ArtifactStore.saved_at(tmp_path / "artifacts")

    def test_second_service_warm_starts_without_training(self, tmp_path, tiny_netsyn_config, monkeypatch):
        config_dir = str(tmp_path / "artifacts")
        SynthesisService(
            tiny_netsyn_config, service_config=ServiceConfig(artifact_dir=config_dir)
        ).open_session(methods=("netsyn_fp",))

        import repro.baselines.registry as registry

        def _no_training(**kwargs):
            raise AssertionError("warm start must not retrain")

        monkeypatch.setitem(registry._TRAINERS, "fp", _no_training)
        warm = SynthesisService(
            tiny_netsyn_config, service_config=ServiceConfig(artifact_dir=config_dir)
        ).open_session(methods=("netsyn_fp",))
        assert warm.store.has("fp")

    def test_session_parallel_matches_serial(self, edit_config, tiny_suite):
        def jobs_for(session):
            return [
                session.submit(task, budget=250, seed=run)
                for task in tiny_suite
                for run in range(2)
            ]

        serial_session = SynthesisSession(edit_config, ArtifactStore(), methods=("edit",))
        serial_jobs = jobs_for(serial_session)
        serial_session.run(n_workers=1)

        parallel_session = SynthesisSession(edit_config, ArtifactStore(), methods=("edit",))
        parallel_jobs = jobs_for(parallel_session)
        parallel_session.run(n_workers=2)

        for serial, parallel in zip(serial_jobs, parallel_jobs):
            assert serial.state == parallel.state
            _results_equal(serial.result, parallel.result)
            assert parallel.events[-1].kind == "finished"

    def test_evaluation_runner_exposes_session(self, tiny_netsyn_config):
        from repro.config import ExperimentConfig
        from repro.evaluation.runner import EvaluationRunner

        experiment = ExperimentConfig(
            lengths=(3,), n_test_programs=1, n_runs=1, max_search_space=200,
            methods=("edit",), seed=0,
        )
        runner = EvaluationRunner(experiment, tiny_netsyn_config)
        report = runner.run()
        assert isinstance(runner.session, SynthesisSession)
        assert len(report.records) == 1
        assert runner.session.jobs[0].state in (JobState.SOLVED, JobState.EXHAUSTED)


# ---------------------------------------------------------------------------
# Legacy surface still works (deprecation layer)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Worker cache merge-back and persisted cross-session warm starts
# ---------------------------------------------------------------------------


class TestWorkerCacheMergeBack:
    def test_worker_deltas_warm_the_parent(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = SynthesisSession(tiny_netsyn_config, store, methods=("netsyn_cf",))
        tasks = list(tiny_suite)[:2]
        first = [session.submit(task, budget=300, seed=1) for task in tasks]
        session.run(n_workers=2)
        assert all(job.state in (JobState.SOLVED, JobState.EXHAUSTED) for job in first)

        # the parent session never ran these jobs locally, yet its backend
        # now holds the workers' cache entries: predicted scores, maps and
        # evaluation entries all merge back through the result pickle
        backend = session.backend("netsyn_cf")
        assert backend.cache_version() > 0

        # a repeated serial run of the same jobs is answered from the
        # merged entries: results identical, and not one score lookup of
        # the re-run misses (no NN forward is paid again)
        second = [session.submit(task, budget=300, seed=1) for task in tasks]
        session.run(n_workers=1)
        for a, b in zip(first, second):
            _results_equal(a.result, b.result)
        assert _score_misses(backend) == 0


class TestPersistedSessionCaches:
    def _service_config(self, tmp_path):
        return ServiceConfig(artifact_dir=str(tmp_path / "artifacts"))

    def test_reopened_session_pays_zero_scoring_forwards(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        service_config = self._service_config(tmp_path)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(service_config.artifact_dir)

        first_session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        first = first_session.submit(tiny_task, budget=400, seed=3)
        first_session.run()
        assert ArtifactStore.caches_saved_at(service_config.artifact_dir)

        # "new process": everything — weights and caches — comes off disk
        reopened_store = ArtifactStore.load(service_config.artifact_dir)
        second_session = SynthesisSession(
            tiny_netsyn_config,
            reopened_store,
            methods=("netsyn_cf",),
            service_config=service_config,
        )
        forwards = []
        for name in ("cf", "fp"):
            model = reopened_store.get(name).model
            original = model.predict_fitness if name == "cf" else model.predict_probability_map
            def counted(batch, _original=original, _name=name):
                forwards.append(_name)
                return _original(batch)
            if name == "cf":
                model.predict_fitness = counted
            else:
                model.predict_probability_map = counted

        second = second_session.submit(tiny_task, budget=400, seed=3)
        second_session.run()
        _results_equal(first.result, second.result)
        # every (program, io_set) score and the spec's probability map
        # were persisted — the re-opened session never touches the NN
        assert forwards == []

    def test_reopen_after_parallel_run_is_fully_warm(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        """Scores computed in workers reach the cache log: a session
        reopened after a 2-worker run repeats the same seeded jobs
        serially without a single cache miss."""
        service_config = self._service_config(tmp_path)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(service_config.artifact_dir)
        tasks = list(tiny_suite)[:3]

        parallel_session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        first = [parallel_session.submit(task, budget=300, seed=1) for task in tasks]
        parallel_session.run(n_workers=2)
        assert all(job.state in (JobState.SOLVED, JobState.EXHAUSTED) for job in first)

        reopened = SynthesisSession(
            tiny_netsyn_config,
            ArtifactStore.load(service_config.artifact_dir),
            methods=("netsyn_cf",),
            service_config=service_config,
        )
        second = [reopened.submit(task, budget=300, seed=1) for task in tasks]
        reopened.run(n_workers=1)
        for a, b in zip(first, second):
            _results_equal(a.result, b.result)
            generations = [e for e in b.events if e.kind == "generation"]
            assert generations and generations[-1].cache_misses == 0
        assert _score_misses(reopened.backend("netsyn_cf")) == 0

    def test_reopened_session_ships_persisted_entries_to_its_first_pool(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        """A reopened session has built no backend when its first parallel
        run starts its pool: the persisted entries must still reach the
        workers, so the repeat runs without a cache miss."""
        service_config = self._service_config(tmp_path)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(service_config.artifact_dir)
        tasks = list(tiny_suite)[:3]

        first_session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        first = [first_session.submit(task, budget=300, seed=1) for task in tasks]
        first_session.run()

        with SynthesisSession(
            tiny_netsyn_config,
            ArtifactStore.load(service_config.artifact_dir),
            methods=("netsyn_cf",),
            service_config=service_config,
        ) as reopened:
            assert not reopened._backends
            second = [reopened.submit(task, budget=300, seed=1) for task in tasks]
            reopened.run(n_workers=2)
        for a, b in zip(first, second):
            _results_equal(a.result, b.result)
            generations = [e for e in b.events if e.kind == "generation"]
            assert generations and generations[-1].cache_misses == 0

    def test_building_a_backend_releases_its_persisted_snapshot(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        """A reopened session keeps a persisted snapshot only until the
        backend it belongs to is built: then the backend's cache holds the
        entries and the session holds no second copy."""
        service_config = self._service_config(tmp_path)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(service_config.artifact_dir)
        first_session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        first_session.submit(tiny_task, budget=300, seed=0)
        first_session.run()

        reopened = SynthesisSession(
            tiny_netsyn_config,
            ArtifactStore.load(service_config.artifact_dir),
            methods=("netsyn_cf",),
            service_config=service_config,
        )
        persisted = reopened._cache_snapshots["netsyn_cf:None"]["evaluation"]
        assert persisted
        backend = reopened.backend("netsyn_cf")
        assert "netsyn_cf:None" not in reopened._cache_snapshots
        assert backend.cache_snapshot()["evaluation"] == persisted

    def test_stale_weights_fall_back_to_cold_start(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        service_config = self._service_config(tmp_path)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        first_session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        first_session.submit(tiny_task, budget=300, seed=0)
        first_session.run()
        assert ArtifactStore.caches_saved_at(service_config.artifact_dir)
        # a session over different weights ignores the persisted snapshot
        stale = SynthesisSession(
            tiny_netsyn_config,
            ArtifactStore(cf=tiny_trace_artifacts),  # fp model missing -> new hash
            methods=("netsyn_cf",),
            service_config=service_config,
        )
        assert stale._cache_snapshots == {}

    def test_sessions_accumulate_snapshots_per_method(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        service_config = self._service_config(tmp_path)
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        cf_session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        cf_session.submit(tiny_suite[0], budget=300, seed=0)
        cf_session.run()
        fp_session = SynthesisSession(
            tiny_netsyn_config.replace(fitness_kind="fp"),
            store,
            methods=("netsyn_fp",),
            service_config=service_config,
        )
        fp_session.submit(tiny_suite[1], budget=300, seed=0)
        fp_session.run()
        # the second session carried the first one's snapshot forward
        merged = store.load_caches(service_config.artifact_dir)
        assert "netsyn_cf:None" in merged
        assert "netsyn_fp:None" in merged

