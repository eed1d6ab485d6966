"""Configuration validation, presets, RNG factory, serialization, timing."""

import os

import numpy as np
import pytest

from repro.config import (
    DSLConfig,
    ExperimentConfig,
    GAConfig,
    NNConfig,
    NeighborhoodConfig,
    NetSynConfig,
    TrainingConfig,
)
from repro.utils import (
    RngFactory,
    Stopwatch,
    ensure_rng,
    format_seconds,
    load_json,
    load_npz,
    save_json,
    save_npz,
    spawn_rngs,
)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        NetSynConfig().validate()
        ExperimentConfig().validate()

    def test_presets_are_valid(self):
        NetSynConfig.small().validate()
        NetSynConfig.paper().validate()

    def test_paper_preset_matches_appendix_b(self):
        config = NetSynConfig.paper()
        assert config.ga.population_size == 100
        assert config.ga.elite_count == 5
        assert config.ga.crossover_rate == 0.40
        assert config.ga.mutation_rate == 0.30
        assert config.ga.max_generations == 30_000
        assert config.max_search_space == 3_000_000
        assert config.dsl.n_io_examples == 5

    @pytest.mark.parametrize(
        "bad",
        [
            dict(population_size=1),
            dict(elite_count=100),
            dict(crossover_rate=1.5),
            dict(crossover_rate=0.8, mutation_rate=0.5),
            dict(max_generations=0),
        ],
    )
    def test_ga_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            GAConfig(**bad).validate()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(strategy="beam"),
            dict(top_n=0),
            dict(window=0),
            dict(cooldown=-1),
        ],
    )
    def test_neighborhood_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            NeighborhoodConfig(**bad).validate()

    @pytest.mark.parametrize(
        "bad",
        [dict(embedding_dim=0), dict(encoder="transformer"), dict(dropout=1.0)],
    )
    def test_nn_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            NNConfig(**bad).validate()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(corpus_size=0),
            dict(program_length=0),
            dict(epochs=0),
            dict(learning_rate=0.0),
            dict(validation_fraction=1.0),
        ],
    )
    def test_training_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad).validate()

    def test_dsl_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DSLConfig(min_input_length=5, max_input_length=2).validate()
        with pytest.raises(ValueError):
            DSLConfig(n_io_examples=0).validate()

    def test_netsyn_config_rejects_bad_fitness_kind(self):
        with pytest.raises(ValueError):
            NetSynConfig(fitness_kind="bogus").validate()

    def test_replace_returns_modified_copy(self):
        config = NetSynConfig.small()
        other = config.replace(fitness_kind="lcs", max_search_space=99)
        assert other.fitness_kind == "lcs" and other.max_search_space == 99
        assert config.fitness_kind == "cf"

    def test_experiment_scaling_env_var(self, monkeypatch):
        monkeypatch.setenv("NETSYN_SCALE", "2.0")
        scaled = ExperimentConfig(n_test_programs=3, n_runs=1, max_search_space=100).scaled()
        assert scaled.n_test_programs == 6
        assert scaled.max_search_space == 200

    def test_experiment_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lengths=()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(methods=()).validate()
        with pytest.raises(ValueError):
            ExperimentConfig(n_runs=0).validate()


class TestRng:
    def test_ensure_rng_accepts_seed_generator_none(self):
        assert isinstance(ensure_rng(3), np.random.Generator)
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_factory_streams_are_reproducible_and_distinct(self):
        factory = RngFactory(42)
        first = factory.get("stream").integers(0, 1_000_000, size=5)
        second = RngFactory(42).get("stream").integers(0, 1_000_000, size=5)
        other = RngFactory(42).get("other").integers(0, 1_000_000, size=5)
        assert list(first) == list(second)
        assert list(first) != list(other)

    def test_factory_child_differs_from_parent(self):
        factory = RngFactory(1)
        child = factory.child("x")
        assert child.seed != factory.seed

    def test_spawn_rngs(self):
        generators = spawn_rngs(0, 3)
        assert len(generators) == 3
        draws = [g.integers(0, 10**9) for g in generators]
        assert len(set(draws)) == 3


class TestSerializationAndTiming:
    def test_json_round_trip_with_numpy_types(self, tmp_path):
        data = {"a": np.int64(3), "b": np.array([1.5, 2.5]), "c": [np.float64(1.0)]}
        path = tmp_path / "x.json"
        save_json(path, data)
        loaded = load_json(path)
        assert loaded["a"] == 3 and loaded["b"] == [1.5, 2.5]

    def test_npz_round_trip(self, tmp_path):
        path = tmp_path / "arrays.npz"
        save_npz(path, {"w": np.arange(4).reshape(2, 2)})
        loaded = load_npz(path)
        assert np.array_equal(loaded["w"], np.arange(4).reshape(2, 2))

    def test_stopwatch_measures_elapsed(self):
        with Stopwatch() as stopwatch:
            sum(range(10_000))
        assert stopwatch.elapsed >= 0.0
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_format_seconds(self):
        assert format_seconds(0.2) == "<1s"
        assert format_seconds(65) == "65s"
        assert "m" in format_seconds(600)
        assert "h" in format_seconds(100_000)


class TestPackageSurface:
    def test_lazy_top_level_exports(self):
        import repro

        assert repro.NetSynConfig is NetSynConfig
        assert hasattr(repro, "__version__")
        with pytest.raises(AttributeError):
            repro.does_not_exist
        assert "NetSynBackend" in dir(repro)
        assert "NetSyn" not in dir(repro)

    def test_model_state_dict_round_trip_via_npz(self, tmp_path, tiny_trace_artifacts):
        from repro.fitness.models import TraceFitnessModel

        model = tiny_trace_artifacts.model
        path = tmp_path / "model.npz"
        save_npz(path, model.state_dict())
        clone = TraceFitnessModel(n_classes=model.n_classes, config=model.config)
        clone.load_state_dict(load_npz(path))
        assert np.allclose(
            clone.parameters()[0].data, model.parameters()[0].data
        )
