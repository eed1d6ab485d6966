"""Baseline synthesizers and the method registry."""

import numpy as np
import pytest

from repro.baselines import (
    DeepCoderSynthesizer,
    METHOD_NAMES,
    PCCoderSynthesizer,
    PushGPSynthesizer,
    RobustFillSynthesizer,
    build_backend,
    ensure_artifacts,
    train_decoder_model,
    train_step_model,
)
from repro.baselines.registry import required_artifacts
from repro.config import NetSynConfig
from repro.core.artifacts import ArtifactStore
from repro.data import make_synthesis_task
from repro.dsl import satisfies_io_set
from repro.ga.budget import SearchBudget


@pytest.fixture(scope="module")
def tiny_step_artifacts(tiny_training_config, tiny_nn_config, tiny_dsl_config):
    return train_step_model(training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config)


@pytest.fixture(scope="module")
def tiny_decoder_artifacts(tiny_training_config, tiny_nn_config, tiny_dsl_config):
    return train_decoder_model(training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config)


def _check_result(result, task, budget_limit):
    assert 0 <= result.candidates_used <= budget_limit
    assert result.budget_limit == budget_limit
    assert result.task_id == task.task_id
    if result.found:
        assert satisfies_io_set(result.program, task.io_set)
    else:
        assert result.program is None


class TestDeepCoder:
    def test_synthesize_within_budget(self, tiny_fp_artifacts, tiny_task):
        synthesizer = DeepCoderSynthesizer(tiny_fp_artifacts, program_length=3)
        result = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=300), seed=0)
        assert result.method == "deepcoder"
        _check_result(result, tiny_task, 300)

    def test_enumeration_examines_many_distinct_candidates(self, tiny_fp_artifacts, tiny_task):
        synthesizer = DeepCoderSynthesizer(tiny_fp_artifacts, program_length=3)
        result = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=150), seed=0)
        assert result.candidates_used == 150 or result.found

    def test_invalid_length(self, tiny_fp_artifacts):
        with pytest.raises(ValueError):
            DeepCoderSynthesizer(tiny_fp_artifacts, program_length=0)


class TestPCCoder:
    def test_step_model_trains(self, tiny_step_artifacts):
        assert tiny_step_artifacts.history.epochs >= 1

    def test_synthesize_within_budget(self, tiny_step_artifacts, tiny_task):
        synthesizer = PCCoderSynthesizer(
            tiny_step_artifacts, program_length=3, initial_beam_width=4
        )
        result = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=120), seed=0)
        assert result.method == "pccoder"
        _check_result(result, tiny_task, 120)

    def test_invalid_length(self, tiny_step_artifacts):
        with pytest.raises(ValueError):
            PCCoderSynthesizer(tiny_step_artifacts, program_length=0)


class TestRobustFill:
    def test_decoder_model_trains(self, tiny_decoder_artifacts):
        assert tiny_decoder_artifacts.history.epochs >= 1

    def test_synthesize_within_budget(self, tiny_decoder_artifacts, tiny_task):
        synthesizer = RobustFillSynthesizer(tiny_decoder_artifacts, program_length=3)
        result = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=80), seed=0)
        assert result.method == "robustfill"
        _check_result(result, tiny_task, 80)

    def test_sampling_is_seed_dependent_but_valid(self, tiny_decoder_artifacts, tiny_task):
        synthesizer = RobustFillSynthesizer(tiny_decoder_artifacts, program_length=3)
        first = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=40), seed=1)
        second = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=40), seed=1)
        assert first.candidates_used == second.candidates_used

    def test_invalid_parameters(self, tiny_decoder_artifacts):
        with pytest.raises(ValueError):
            RobustFillSynthesizer(tiny_decoder_artifacts, program_length=0)
        with pytest.raises(ValueError):
            RobustFillSynthesizer(tiny_decoder_artifacts, program_length=3, temperature=0)


class TestPushGP:
    def test_synthesize_within_budget(self, tiny_task):
        synthesizer = PushGPSynthesizer(program_length=3, population_size=20)
        result = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=400), seed=0)
        assert result.method == "pushgp"
        _check_result(result, tiny_task, 400)

    def test_found_program_may_have_different_length(self, tiny_task):
        # PushGP genomes are variable length: if it finds a program it only
        # needs to satisfy the IO examples, not match the target length.
        synthesizer = PushGPSynthesizer(program_length=3, population_size=30)
        result = synthesizer.synthesize(tiny_task, budget=SearchBudget(limit=2000), seed=3)
        if result.found:
            assert 1 <= len(result.program) <= 6

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            PushGPSynthesizer(program_length=0)


class TestGAAdapters:
    """``edit`` and ``oracle`` are NetSyn's GA served directly."""

    def test_edit_adapter(self, tiny_netsyn_config, tiny_task):
        backend = build_backend("edit", ArtifactStore(), tiny_netsyn_config)
        assert backend.config.fitness_kind == "edit" and not backend.config.fp_guided_mutation
        result = backend.solve(tiny_task, budget=SearchBudget(limit=500), seed=0)
        assert result.method == "edit"
        _check_result(result, tiny_task, 500)

    def test_oracle_adapter_finds_program(self, tiny_netsyn_config, tiny_task):
        backend = build_backend("oracle", ArtifactStore(), tiny_netsyn_config)
        assert backend.config.fitness_kind == "oracle_lcs" and not backend.config.fp_guided_mutation
        result = backend.solve(tiny_task, budget=SearchBudget(limit=4000), seed=0)
        assert result.method == "oracle"
        assert result.found


class TestRegistry:
    def test_required_artifacts(self):
        assert required_artifacts(["edit", "pushgp", "oracle"]) == set()
        assert required_artifacts(["netsyn_cf"]) == {"cf", "fp"}
        assert required_artifacts(["deepcoder", "pccoder"]) == {"fp", "step"}
        with pytest.raises(KeyError):
            required_artifacts(["bogus"])

    def test_build_context_trains_only_what_is_needed(self, tiny_netsyn_config):
        store = ensure_artifacts(ArtifactStore(), tiny_netsyn_config, methods=["edit", "oracle", "pushgp"])
        assert store.names() == ()
        with pytest.raises(KeyError):
            store.get("fp")

    def test_build_context_and_synthesizers_for_learned_methods(self, tiny_netsyn_config, tiny_task):
        store = ensure_artifacts(ArtifactStore(), tiny_netsyn_config, methods=["netsyn_fp", "deepcoder"])
        assert store.names() == ("fp",)
        for name in ("netsyn_fp", "deepcoder"):
            backend = build_backend(name, store, tiny_netsyn_config)
            result = backend.solve(tiny_task, budget=SearchBudget(limit=150), seed=0)
            assert result.method in (name, "netsyn_fp", "deepcoder")
            assert result.candidates_used <= 150

    def test_build_synthesizer_rejects_unknown_method(self, tiny_netsyn_config):
        with pytest.raises(KeyError):
            build_backend("bogus", ArtifactStore(), tiny_netsyn_config)

    def test_every_registered_method_has_requirements_entry(self):
        assert set(METHOD_NAMES) == set(required_artifacts.__globals__["_REQUIREMENTS"].keys())
