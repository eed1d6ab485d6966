"""NetSyn backend, Phase-1 training, corpus builder, tasks and suites."""

import numpy as np
import pytest

from repro import NetSynBackend, NetSynConfig, SearchBudget
from repro.config import DSLConfig, TrainingConfig
from repro.core.phase1 import train_fp_model, train_trace_model
from repro.core.result import SynthesisResult
from repro.data import make_benchmark_suite, make_synthesis_task
from repro.data.corpus import CorpusBuilder
from repro.dsl import Interpreter, Program, satisfies_io_set
from repro.fitness.ideal import common_functions, lcs_length


class TestCorpusBuilder:
    def test_trace_samples_are_labelled_and_balanced(self, tiny_corpus_builder):
        samples = tiny_corpus_builder.build_trace_samples(kind="cf", count=40)
        assert 0 < len(samples) <= 40
        labels = [s.label for s in samples]
        assert all(0 <= label <= 3 for label in labels)
        # balancing should produce at least three distinct label values
        assert len(set(labels)) >= 3

    def test_trace_sample_traces_match_candidate_execution(self, tiny_corpus_builder):
        sample = tiny_corpus_builder.build_trace_samples(kind="cf", count=1)[0]
        interpreter = Interpreter()
        candidate = Program(sample.function_ids)
        trace = interpreter.run(candidate, sample.io_inputs[0])
        assert list(sample.traces[0]) == trace.intermediate_outputs

    def test_trace_sample_labels_are_correct_metric_values(self, tiny_corpus_builder):
        # labels must equal CF(candidate, target) for *some* target consistent
        # with the IO set; at minimum they are within the valid range and the
        # candidate length bound.
        samples = tiny_corpus_builder.build_trace_samples(kind="lcs", count=10)
        for sample in samples:
            assert 0 <= sample.label <= len(sample.function_ids)

    def test_fp_data_shapes(self, tiny_corpus_builder):
        io_sets, memberships = tiny_corpus_builder.build_fp_data(count=12)
        assert len(io_sets) == 12
        assert memberships.shape == (12, 41)
        assert set(np.unique(memberships)) <= {0.0, 1.0}
        # membership has between 1 and program_length distinct functions
        assert np.all(memberships.sum(axis=1) >= 1)
        assert np.all(memberships.sum(axis=1) <= 3)

    def test_invalid_kind_rejected(self, tiny_corpus_builder):
        with pytest.raises(ValueError):
            tiny_corpus_builder.build_trace_samples(kind="bogus")


class TestTasksAndSuites:
    def test_task_is_consistent(self, tiny_dsl_config):
        task = make_synthesis_task(length=3, seed=2, dsl_config=tiny_dsl_config)
        assert task.length == 3
        assert task.n_examples == tiny_dsl_config.n_io_examples
        assert satisfies_io_set(task.target, task.io_set)
        assert task.is_singleton == task.target.produces_singleton()

    def test_task_generation_is_reproducible(self, tiny_dsl_config):
        first = make_synthesis_task(length=3, seed=9, dsl_config=tiny_dsl_config)
        second = make_synthesis_task(length=3, seed=9, dsl_config=tiny_dsl_config)
        assert first.target == second.target
        assert first.io_set == second.io_set

    def test_singleton_flag_controls_output_type(self, tiny_dsl_config):
        singleton = make_synthesis_task(length=3, seed=1, dsl_config=tiny_dsl_config, singleton=True)
        listy = make_synthesis_task(length=3, seed=1, dsl_config=tiny_dsl_config, singleton=False)
        assert singleton.is_singleton
        assert not listy.is_singleton

    def test_suite_split(self, tiny_dsl_config):
        suite = make_benchmark_suite(length=3, n_programs=6, seed=0, dsl_config=tiny_dsl_config)
        assert len(suite) == 6
        assert len(suite.singleton_tasks) == 3
        assert len(suite.list_tasks) == 3
        assert len({t.task_id for t in suite}) == 6
        assert suite[0].task_id.startswith("len3-")

    def test_suite_validation(self):
        with pytest.raises(ValueError):
            make_benchmark_suite(length=3, n_programs=0)
        with pytest.raises(ValueError):
            make_benchmark_suite(length=3, n_programs=4, singleton_fraction=2.0)


class TestPhase1:
    def test_trace_training_produces_history(self, tiny_trace_artifacts):
        assert tiny_trace_artifacts.history.epochs >= 1
        assert "accuracy" in (tiny_trace_artifacts.validation_metrics or tiny_trace_artifacts.history.train_metrics[-1])
        assert tiny_trace_artifacts.model.n_classes == 4

    def test_fp_training_produces_history(self, tiny_fp_artifacts):
        assert tiny_fp_artifacts.history.epochs >= 1
        probabilities = tiny_fp_artifacts.model.predict_probability_map(
            tiny_fp_artifacts.encoder.encode_io_batch(
                [make_synthesis_task(length=3, seed=3).io_set[:2]]
            )
        )
        assert probabilities.shape == (1, 41)

    def test_training_rejects_empty_samples(self, tiny_training_config, tiny_nn_config, tiny_dsl_config):
        with pytest.raises(ValueError):
            train_trace_model(
                kind="cf", training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config, samples=[]
            )


class TestNetSynFacade:
    """The single-search entry points of :class:`NetSynBackend`."""

    def test_requires_fit_before_synthesize(self, tiny_netsyn_config, tiny_task):
        netsyn = NetSynBackend(tiny_netsyn_config)
        with pytest.raises(RuntimeError):
            netsyn.solve_io(tiny_task.io_set)

    def test_fit_with_prebuilt_artifacts(self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task):
        netsyn = NetSynBackend(tiny_netsyn_config)
        netsyn.set_models(trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts)
        result = netsyn.solve_io(tiny_task.io_set, seed=0, task_id=tiny_task.task_id)
        assert isinstance(result, SynthesisResult)
        assert result.method == "netsyn_cf"
        assert result.task_id == tiny_task.task_id
        assert 0 < result.candidates_used <= tiny_netsyn_config.max_search_space
        assert 0.0 <= result.search_space_fraction <= 1.0
        if result.found:
            assert satisfies_io_set(result.program, tiny_task.io_set)

    def test_oracle_variant_finds_program(self, tiny_netsyn_config, tiny_task):
        config = tiny_netsyn_config.replace(
            fitness_kind="oracle_lcs", fp_guided_mutation=False, max_search_space=4000
        )
        netsyn = NetSynBackend(config)
        netsyn.set_models()
        result = netsyn.solve_io(tiny_task.io_set, target=tiny_task.target, seed=0)
        assert result.found
        assert satisfies_io_set(result.program, tiny_task.io_set)

    def test_oracle_requires_target(self, tiny_netsyn_config, tiny_task):
        config = tiny_netsyn_config.replace(fitness_kind="oracle_cf", fp_guided_mutation=False)
        netsyn = NetSynBackend(config)
        netsyn.set_models()
        with pytest.raises(ValueError):
            netsyn.solve_io(tiny_task.io_set, seed=0)

    def test_edit_variant_needs_no_training(self, tiny_netsyn_config, tiny_task):
        config = tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)
        netsyn = NetSynBackend(config)
        assert not netsyn.needs_trace_model and not netsyn.needs_fp_model
        result = netsyn.solve_io(tiny_task.io_set, seed=1)
        assert isinstance(result, SynthesisResult)

    def test_budget_is_respected(self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task):
        netsyn = NetSynBackend(tiny_netsyn_config)
        netsyn.set_models(trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts)
        budget = SearchBudget(limit=200)
        result = netsyn.solve_io(tiny_task.io_set, budget=budget, seed=0)
        assert result.candidates_used <= 200
        assert result.budget_limit == 200

    def test_result_serialization(self, tiny_netsyn_config, tiny_task):
        config = tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)
        netsyn = NetSynBackend(config)
        result = netsyn.solve_io(tiny_task.io_set, seed=1, task_id="t")
        data = result.to_dict()
        assert data["task_id"] == "t"
        assert isinstance(data["candidates_used"], int)

    def test_fit_trains_required_models_only(self, tiny_netsyn_config):
        fp_only = NetSynBackend(tiny_netsyn_config.replace(fitness_kind="fp", fp_guided_mutation=True))
        assert fp_only.needs_fp_model and not fp_only.needs_trace_model
        edit_only = NetSynBackend(tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False))
        assert not edit_only.needs_fp_model and not edit_only.needs_trace_model
