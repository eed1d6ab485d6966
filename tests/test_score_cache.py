"""Batched, memoized NN-FF scoring and shared-memory model serving.

The contract under test, layer by layer:

* the LRU primitives bound the fitness-layer caches and count traffic;
* the encoder/model path is batch-shape-invariant — fixed padding widths
  and never-singleton GEMM batches make a program's predicted score
  independent of batch composition, bit for bit;
* therefore score memoization (forwarding only genuinely new genes) is
  bit-identical to the historical score-everything path, across batch
  sizes, for CF and LCS, cold and warm;
* elites and survivors hit the score cache in later generations, and the
  hit/miss counters surface through ``generation`` progress events;
* Phase-1 weights attach read-only from a packed mmap segment with
  bit-identical values, and parallel session runs over shared weights
  equal serial runs record for record.
"""

from __future__ import annotations

import numpy as np
import pytest

from controls import UnmemoizedNetSynBackend
from repro.config import ServiceConfig
from repro.core.artifacts import ArtifactStore
from repro.core.netsyn import NetSynBackend
from repro.core.service import SynthesisSession
from repro.events import EventLog
from repro.execution import LRUCache, ScoreCache, io_set_key
from repro.fitness.features import sample_from_execution
from repro.fitness.functions import LearnedTraceFitness, ProbabilityMapFitness
from repro.ga.budget import SearchBudget
from repro.ga.operators import GeneOperators


# ---------------------------------------------------------------------------
# LRU primitives
# ---------------------------------------------------------------------------


class TestLRUCache:
    def test_put_get_and_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_capacity_bound_evicts_least_recently_used(self):
        cache = LRUCache(capacity=3)
        for key in "abc":
            cache.put(key, key)
        cache.get("a")  # refresh "a"; "b" is now least recently used
        cache.put("d", "d")
        assert len(cache) == 3
        assert "b" not in cache
        assert "a" in cache and "d" in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None
        assert not cache.enabled

    def test_peek_does_not_touch_counters_or_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.stats.lookups == 0
        cache.put("c", 3)  # "a" was not refreshed by peek -> evicted first
        assert "a" not in cache

    def test_snapshot_round_trip(self):
        cache = LRUCache(capacity=8)
        for i in range(5):
            cache.put(("k", i), float(i))
        other = LRUCache(capacity=8)
        assert other.load(cache.items()) == 5
        assert other.peek(("k", 3)) == 3.0


class TestScoreCache:
    def test_partition_separates_hits_and_first_occurrence_pending(self, tiny_task):
        ops = GeneOperators(program_length=3, rng=np.random.default_rng(0))
        a, b, c = (ops.random_gene() for _ in range(3))
        io_key = io_set_key(tiny_task.io_set)
        cache = ScoreCache(capacity=16)
        cache.put(a, io_key, 1.5)
        scores, pending = cache.partition([a, b, c, b, a], io_key)
        assert scores[0] == 1.5 and scores[4] == 1.5
        # b and c pending once each, in first-occurrence order, with both
        # positions of the duplicated b recorded
        keys = list(pending)
        assert keys == [b.function_ids, c.function_ids]
        assert pending[b.function_ids][1] == [1, 3]

    def test_snapshot_round_trip(self, tiny_task):
        ops = GeneOperators(program_length=3, rng=np.random.default_rng(1))
        gene = ops.random_gene()
        io_key = io_set_key(tiny_task.io_set)
        cache = ScoreCache(capacity=4)
        cache.put(gene, io_key, 2.25)
        other = ScoreCache(capacity=4)
        other.load_snapshot(cache.snapshot())
        assert other.get(gene, io_key) == 2.25


class TestEvaluationCacheLoadSnapshot:
    def test_retained_count_respects_the_bound(self):
        from repro.execution import EvaluationCache

        small = EvaluationCache(max_entries=4)
        items = [(("ns", i), i) for i in range(10)]
        retained = small.load_snapshot(items)
        assert retained == len(small) <= 4
        disabled = EvaluationCache(max_entries=0)
        assert disabled.load_snapshot(items) == 0


class TestDirtyDeltaJournals:
    def test_lru_dirty_window_tracks_only_new_writes(self):
        cache = LRUCache(capacity=8)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear_dirty()
        assert cache.dirty_items() == []
        cache.put("c", 3)
        cache.get("a")  # reads never dirty an entry
        assert cache.dirty_items() == [("c", 3)]

    def test_evaluation_cache_dirty_window_and_namespaces(self):
        from repro.execution import EvaluationCache

        cache = EvaluationCache(max_entries=16)
        cache.put("outputs", "k1", [1])
        cache.clear_dirty()
        cache.put("solutions", "k2", True)
        cache.put("traces", "k3", "heavy")
        assert cache.dirty_snapshot(("outputs", "solutions")) == [(("solutions", "k2"), True)]
        assert len(cache.dirty_snapshot()) == 2

    def test_backend_delta_snapshot_excludes_previous_jobs(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task, tiny_suite
    ):
        backend = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        backend.begin_cache_delta()
        backend.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        first_delta = backend.cache_snapshot(dirty_only=True)
        assert first_delta and first_delta["scores"]
        # the next job's delta window contains none of the first job's work
        backend.begin_cache_delta()
        backend.solve_io(tiny_suite[0].io_set, budget=SearchBudget(limit=600), seed=0)
        second_delta = backend.cache_snapshot(dirty_only=True) or {}
        first_keys = {key for key, _ in first_delta["scores"]}
        second_keys = {key for key, _ in second_delta.get("scores", [])}
        assert not (first_keys & second_keys)
        # and the full snapshot still carries everything
        full_keys = {key for key, _ in backend.cache_snapshot()["scores"]}
        assert first_keys | second_keys <= full_keys


# ---------------------------------------------------------------------------
# batch-shape invariance and score memoization bit-identity
# ---------------------------------------------------------------------------


def _population(n, length=3, seed=11):
    ops = GeneOperators(program_length=length, rng=np.random.default_rng(seed))
    genes = [ops.random_gene() for _ in range(n)]
    # realistic population shape: duplicates from elitism/reproduction
    return genes + genes[:5]


class TestScoreMemoizationBitIdentity:
    @pytest.mark.parametrize("batch_size", [1, 32, 128])
    def test_memoized_equals_legacy_across_batch_sizes(
        self, tiny_trace_artifacts, tiny_task, batch_size
    ):
        programs = _population(40)
        legacy = LearnedTraceFitness(
            tiny_trace_artifacts.model,
            kind="cf",
            encoder=tiny_trace_artifacts.encoder,
            batch_size=batch_size,
            memoize=False,
        )
        memoized = LearnedTraceFitness(
            tiny_trace_artifacts.model,
            kind="cf",
            encoder=tiny_trace_artifacts.encoder,
            batch_size=batch_size,
            memoize=True,
            program_length=3,
        )
        expected = legacy.score(programs, tiny_task.io_set)
        cold = memoized.score(programs, tiny_task.io_set)
        warm = memoized.score(programs, tiny_task.io_set)
        np.testing.assert_array_equal(cold, expected)
        np.testing.assert_array_equal(warm, expected)
        # the warm pass is answered entirely from the cache
        assert memoized.score_cache.stats.hits >= len(programs)

    def test_scores_do_not_depend_on_batch_composition(self, tiny_trace_artifacts, tiny_task):
        programs = _population(40)
        fitness = LearnedTraceFitness(
            tiny_trace_artifacts.model,
            kind="cf",
            encoder=tiny_trace_artifacts.encoder,
            memoize=True,
            program_length=3,
        )
        full = fitness.score(programs, tiny_task.io_set)
        # a fresh instance scoring arbitrary subsets must reproduce the
        # full-batch values bit for bit (this is what makes skipping
        # cached programs safe)
        for subset in ([7], [3, 30], list(range(17)), list(range(5, 40, 3))):
            fresh = LearnedTraceFitness(
                tiny_trace_artifacts.model,
                kind="cf",
                encoder=tiny_trace_artifacts.encoder,
                memoize=True,
                program_length=3,
            )
            got = fresh.score([programs[i] for i in subset], tiny_task.io_set)
            np.testing.assert_array_equal(got, full[subset])

    def test_fixed_width_encoding_matches_dynamic(self, tiny_trace_artifacts, tiny_task):
        import dataclasses

        programs = _population(12)
        dynamic = LearnedTraceFitness(
            tiny_trace_artifacts.model,
            kind="cf",
            encoder=tiny_trace_artifacts.encoder,
            memoize=False,
        )
        samples = [
            sample_from_execution(program, tiny_task.io_set, dynamic.executor.traces(program, tiny_task.io_set))
            for program in programs
        ]
        wide = dataclasses.replace(
            tiny_trace_artifacts.encoder, pad_value_width=16, pad_program_length=3
        )
        batch_dynamic = dynamic.encoder.encode_trace_batch(samples)
        batch_fixed = wide.encode_trace_batch(samples)
        assert batch_fixed["input_tokens"].shape[1] == 16
        np.testing.assert_array_equal(
            tiny_trace_artifacts.model.predict_fitness(batch_dynamic),
            tiny_trace_artifacts.model.predict_fitness(batch_fixed),
        )


class TestRunBitIdentity:
    @pytest.mark.parametrize("kind", ["cf", "lcs"])
    def test_seeded_runs_match_legacy_path(
        self, tiny_netsyn_config, tiny_training_config, tiny_nn_config, tiny_dsl_config, tiny_suite, kind
    ):
        from repro.core.phase1 import train_fp_model, train_trace_model

        config = tiny_netsyn_config.replace(fitness_kind=kind)
        trace = train_trace_model(
            kind=kind, training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config
        )
        fp = train_fp_model(
            training=tiny_training_config, nn=tiny_nn_config, dsl=tiny_dsl_config
        )
        memo = NetSynBackend(config).set_models(trace_artifacts=trace, fp_artifacts=fp)
        for task in list(tiny_suite)[:2]:
            for seed in (0, 3):
                # a fresh control per job: no engine or cache outlives its run
                legacy = UnmemoizedNetSynBackend(config).set_models(
                    trace_artifacts=trace, fp_artifacts=fp
                )
                got = memo.solve_io(task.io_set, budget=SearchBudget(limit=600), seed=seed)
                want = legacy.solve_io(task.io_set, budget=SearchBudget(limit=600), seed=seed)
                assert got.found == want.found
                assert got.candidates_used == want.candidates_used
                assert got.generations == want.generations
                assert got.average_fitness_history == want.average_fitness_history
                assert got.best_fitness_history == want.best_fitness_history

    def test_elites_hit_the_score_cache_across_generations(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        backend = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        result = backend.solve_io(tiny_task.io_set, budget=SearchBudget(limit=800), seed=0)
        stats = backend._score_cache.stats
        if result.generations >= 2:
            # every elite survives into generation 2's scoring pass as a hit
            assert stats.hits >= tiny_netsyn_config.ga.elite_count
        assert stats.hit_rate > 0.0

    def test_generation_events_surface_fitness_cache_counters(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        backend = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        log = EventLog()
        backend.solve(tiny_task, budget=SearchBudget(limit=800), seed=0, listener=log)
        generations = log.of_kind("generation")
        assert generations
        last = generations[-1]
        assert last.cache_hits + last.cache_misses > 0
        assert 0.0 <= last.cache_hit_rate <= 1.0
        if len(generations) >= 2:
            # the fold includes score-cache traffic, so hits must exceed
            # what the execution cache alone would report at generation 1
            assert last.cache_hits > generations[0].cache_hits


class TestBoundedFitnessCaches:
    def test_probability_map_cache_is_bounded(self, tiny_fp_artifacts, tiny_dsl_config):
        from repro.data import make_synthesis_task

        fitness = ProbabilityMapFitness(
            tiny_fp_artifacts.model, encoder=tiny_fp_artifacts.encoder, map_cache_size=2
        )
        tasks = [make_synthesis_task(length=3, seed=s, dsl_config=tiny_dsl_config) for s in range(4)]
        for task in tasks:
            fitness.probability_map(task.io_set)
        assert len(fitness._cache) == 2
        assert fitness._cache.stats.misses == 4
        # repeat lookups on a cached spec are hits and surface in cache_stats
        fitness.probability_map(tasks[-1].io_set)
        assert fitness.cache_stats()[0].hits == 1


# ---------------------------------------------------------------------------
# shared-memory model serving
# ---------------------------------------------------------------------------


class TestSharedMemoryServing:
    def test_pack_and_attach_round_trip_bitwise(
        self, tmp_path, tiny_trace_artifacts, tiny_fp_artifacts
    ):
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        store.save(tmp_path)
        store.pack_shared(tmp_path)
        assert ArtifactStore.shared_at(tmp_path)
        attached = ArtifactStore.attach_shared(tmp_path)
        for name in store.names():
            original = store.get(name).model.state_dict()
            shared = attached.get(name).model.state_dict()
            assert set(original) == set(shared)
            for key in original:
                np.testing.assert_array_equal(original[key], shared[key])
        # attached parameters are read-only views, not private copies
        parameter = attached.get("cf").model.parameters()[0]
        assert not parameter.data.flags.writeable

    def test_pack_requires_saved_store(self, tmp_path, tiny_fp_artifacts):
        store = ArtifactStore(fp=tiny_fp_artifacts)
        with pytest.raises(FileNotFoundError):
            store.pack_shared(tmp_path / "nowhere")

    def test_attached_model_scores_bitwise_identical(
        self, tmp_path, tiny_trace_artifacts, tiny_task
    ):
        store = ArtifactStore(cf=tiny_trace_artifacts)
        store.save(tmp_path)
        store.pack_shared(tmp_path)
        attached = ArtifactStore.attach_shared(tmp_path)
        programs = _population(10)
        original = LearnedTraceFitness(
            tiny_trace_artifacts.model, kind="cf", encoder=tiny_trace_artifacts.encoder
        ).score(programs, tiny_task.io_set)
        served = LearnedTraceFitness(
            attached.get("cf").model, kind="cf", encoder=attached.get("cf").encoder
        ).score(programs, tiny_task.io_set)
        np.testing.assert_array_equal(original, served)

    def test_parallel_equals_serial_with_shared_weights(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        def run(n_workers, shared):
            store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
            session = SynthesisSession(
                tiny_netsyn_config,
                store,
                methods=("netsyn_cf",),
                service_config=ServiceConfig(shared_weights=shared),
            )
            jobs = [session.submit(task, budget=400, seed=1) for task in tiny_suite]
            session.run(n_workers=n_workers)
            return [
                (
                    job.state.value,
                    job.result.found,
                    job.result.candidates_used,
                    job.result.generations,
                    tuple(job.result.program.function_ids) if job.result.program else None,
                )
                for job in jobs
            ]

        serial = run(1, shared=False)
        assert run(2, shared=True) == serial

    def test_worker_cache_snapshot_round_trip(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        warm = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        warm.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        snapshot = warm.cache_snapshot()
        assert snapshot and "scores" in snapshot

        cold = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        cold.load_cache_snapshot(snapshot)
        # the preloaded backend reproduces the warm run exactly, answering
        # repeat scoring from the shipped cache
        preloaded = cold.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        reference = warm.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        assert preloaded.candidates_used == reference.candidates_used
        assert preloaded.average_fitness_history == reference.average_fitness_history
        assert cold._score_cache.stats.hits > 0

    def test_refit_resets_model_dependent_caches(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        backend = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        backend.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        assert backend._score_cache is not None and len(backend._score_cache)
        # rebinding (possibly different weights) must drop every memoized
        # prediction — cached scores are functions of the model
        backend.set_models(trace_artifacts=tiny_trace_artifacts)
        assert backend._score_cache is None
        assert backend._shared_executor is None and backend._map_cache is None

    def test_repacked_segment_reattaches(self, tmp_path, tiny_fp_artifacts):
        from repro.core.service import SharedWorkerPayload, _segment_token

        store = ArtifactStore(fp=tiny_fp_artifacts)
        store.save(tmp_path)
        store.pack_shared(tmp_path)
        first = SharedWorkerPayload(
            directory=str(tmp_path), config=None, token=_segment_token(str(tmp_path))
        ).store
        # re-pack (e.g. after a retrain in the same process): the token
        # changes, so the memo must attach fresh views, not serve stale ones
        import os, time

        time.sleep(0.01)
        store.pack_shared(tmp_path)
        os.utime(tmp_path / "shared_weights.bin")
        second_token = _segment_token(str(tmp_path))
        second = SharedWorkerPayload(
            directory=str(tmp_path), config=None, token=second_token
        ).store
        assert second is not first

    def test_shared_weights_skipped_for_empty_store(self, tiny_netsyn_config, tiny_suite):
        # artifact-free methods (edit) must not try to pack/attach a segment
        session = SynthesisSession(
            tiny_netsyn_config.replace(fitness_kind="edit"),
            ArtifactStore(),
            methods=("edit",),
            service_config=ServiceConfig(shared_weights=True),
        )
        jobs = [session.submit(task, budget=200, seed=0) for task in tiny_suite]
        session.run(n_workers=2)
        assert all(job.state.value in ("solved", "exhausted") for job in jobs)


# ---------------------------------------------------------------------------
# persistent cross-session cache snapshots (keyed by model hash)
# ---------------------------------------------------------------------------


def _snapshots_equal(a, b):
    """Deep equality of cache_snapshot dicts (maps hold numpy arrays)."""
    assert set(a) == set(b)
    for section in a:
        if section == "maps":
            assert len(a[section]) == len(b[section])
            for (key_a, value_a), (key_b, value_b) in zip(a[section], b[section]):
                assert key_a == key_b
                np.testing.assert_array_equal(value_a, value_b)
        else:
            assert a[section] == b[section]


class TestPersistentCacheSnapshots:
    def _warm_backend(self, config, trace, fp, task):
        backend = NetSynBackend(config).set_models(trace_artifacts=trace, fp_artifacts=fp)
        backend.solve_io(task.io_set, budget=SearchBudget(limit=600), seed=0)
        return backend

    def test_save_load_round_trip_bit_identical(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        backend = self._warm_backend(
            tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
        )
        snapshots = {"netsyn_cf:None": backend.cache_snapshot()}
        path = store.save_caches(tmp_path, snapshots)
        assert path.is_file()
        assert ArtifactStore.caches_saved_at(tmp_path)
        reloaded = store.load_caches(tmp_path)
        assert set(reloaded) == {"netsyn_cf:None"}
        _snapshots_equal(reloaded["netsyn_cf:None"], snapshots["netsyn_cf:None"])
        # and the reloaded snapshot warm-starts a fresh backend exactly
        # like the in-memory one
        cold = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        cold.load_cache_snapshot(reloaded["netsyn_cf:None"])
        again = cold.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        reference = backend.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        assert again.candidates_used == reference.candidates_used
        assert again.average_fitness_history == reference.average_fitness_history

    def test_stale_model_hash_invalidates(
        self, tmp_path, tiny_trace_artifacts, tiny_fp_artifacts
    ):
        full = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        full.save_caches(tmp_path, {"netsyn_cf:None": {"scores": [(("k",), 1.0)]}})
        # a store holding different weights must not serve the snapshot
        partial = ArtifactStore(cf=tiny_trace_artifacts)
        assert partial.model_hash() != full.model_hash()
        assert partial.load_caches(tmp_path) == {}
        # the matching store still does
        assert full.load_caches(tmp_path) != {}

    def test_missing_or_corrupt_snapshot_is_a_cold_start(self, tmp_path, tiny_fp_artifacts):
        store = ArtifactStore(fp=tiny_fp_artifacts)
        assert store.load_caches(tmp_path) == {}
        # the retired whole-file pickle is not a cache log: still cold
        (tmp_path / "cache_snapshots.pkl").write_bytes(b"not a pickle")
        assert store.load_caches(tmp_path) == {}
        assert not ArtifactStore.caches_saved_at(tmp_path)

    def test_model_hash_tracks_weights(self, tiny_trace_artifacts, tiny_fp_artifacts):
        a = ArtifactStore(cf=tiny_trace_artifacts)
        b = ArtifactStore(cf=tiny_trace_artifacts)
        assert a.model_hash() == b.model_hash()
        assert ArtifactStore().model_hash() == ArtifactStore().model_hash()
        assert a.model_hash() != ArtifactStore(fp=tiny_fp_artifacts).model_hash()


# ---------------------------------------------------------------------------
# the L3 tier: the append-only cache log
# ---------------------------------------------------------------------------


def _score_entries(start, count):
    """Synthetic structural score entries (key, value)."""
    return [(((start + i,), ("io",)), float(start + i)) for i in range(count)]


class TestCacheLog:
    def _manifest(self, directory):
        import json

        from repro.core.artifacts import CACHE_LOG_DIR, CACHE_LOG_MANIFEST

        path = directory / CACHE_LOG_DIR / CACHE_LOG_MANIFEST
        return json.loads(path.read_text()) if path.is_file() else None

    def test_each_save_appends_a_segment(self, tmp_path):
        store = ArtifactStore()
        for round_index in range(3):
            path = store.save_caches(
                tmp_path,
                {"m:None": {"scores": _score_entries(round_index * 10, 4)}},
            )
            assert path.is_file()
        manifest = self._manifest(tmp_path)
        assert len(manifest["segments"]) == 3
        assert [record["entries"] for record in manifest["segments"]] == [4, 4, 4]
        merged = store.load_caches(tmp_path)
        assert len(merged["m:None"]["scores"]) == 12
        # appended segments concatenate oldest first: a reload's LRU ends
        # with the newest entries most recent
        assert merged["m:None"]["scores"][-1] == _score_entries(20, 4)[-1]

    def test_log_is_keyed_by_model_hash(self, tmp_path, tiny_fp_artifacts):
        empty = ArtifactStore()
        empty.save_caches(tmp_path, {"m:None": {"scores": _score_entries(0, 2)}})
        other = ArtifactStore(fp=tiny_fp_artifacts)
        assert other.load_caches(tmp_path) == {}
        # appending under the new weights resets the log instead of
        # serving the stale entries
        other.save_caches(tmp_path, {"m:None": {"scores": _score_entries(50, 1)}})
        merged = other.load_caches(tmp_path)
        assert merged["m:None"]["scores"] == _score_entries(50, 1)
        assert empty.load_caches(tmp_path) == {}

    def test_compaction_folds_and_dedupes_newest_wins(self, tmp_path):
        store = ArtifactStore()
        # the same key re-written every round, plus one fresh key
        for round_index in range(10):
            snapshots = {
                "m:None": {
                    "scores": [((("hot",), ("io",)), float(round_index))]
                    + _score_entries(100 + round_index, 1)
                }
            }
            store.save_caches(tmp_path, snapshots, compact_threshold=4)
        manifest = self._manifest(tmp_path)
        assert len(manifest["segments"]) <= 5
        merged = store.load_caches(tmp_path)
        scores = dict(merged["m:None"]["scores"])
        # newest value of the re-written key survived compaction
        assert scores[(("hot",), ("io",))] == 9.0
        # and every distinct fresh key survived
        assert all(scores[((100 + i,), ("io",))] == float(100 + i) for i in range(10))

    def test_corrupt_manifest_or_segment_is_a_cold_start(self, tmp_path):
        from repro.core.artifacts import CACHE_LOG_DIR, CACHE_LOG_MANIFEST

        store = ArtifactStore()
        store.save_caches(tmp_path, {"m:None": {"scores": _score_entries(0, 2)}})
        segment = next((tmp_path / CACHE_LOG_DIR).glob("segment-*.pkl"))
        segment.write_bytes(b"not a pickle")
        assert store.load_caches(tmp_path) == {}
        (tmp_path / CACHE_LOG_DIR / CACHE_LOG_MANIFEST).write_text("{broken")
        assert store.load_caches(tmp_path) == {}

    def test_session_runs_append_segments_not_rewrites(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        service_config = ServiceConfig(artifact_dir=str(tmp_path))
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        session.submit(tiny_suite[0], budget=300, seed=0)
        session.run()
        manifest = self._manifest(tmp_path)
        assert len(manifest["segments"]) == 1
        # new work appends; the existing segment is never rewritten
        first_segment_bytes = (
            tmp_path / "cache_log" / manifest["segments"][0]["file"]
        ).read_bytes()
        session.submit(tiny_suite[1], budget=300, seed=0)
        session.run()
        manifest = self._manifest(tmp_path)
        assert len(manifest["segments"]) == 2
        assert (
            tmp_path / "cache_log" / manifest["segments"][0]["file"]
        ).read_bytes() == first_segment_bytes
        # a fully-warm run appends nothing
        session.submit(tiny_suite[0], budget=300, seed=0)
        session.run()
        assert len(self._manifest(tmp_path)["segments"]) == 2


class TestBoundedSnapshotLoad:
    def test_lru_load_keeps_newest_without_materializing(self):
        """An oversized snapshot streams through a capacity-bounded stage."""
        capacity = 8

        def entries():
            for i in range(10_000):
                yield (("k", i), i)

        cache = LRUCache(capacity=capacity)
        retained = cache.load(entries())  # a generator: nothing pre-listed
        assert retained == len(cache) == capacity
        # the newest entries survived, oldest-first recency inside
        assert cache.items() == [(("k", i), i) for i in range(9992, 10_000)]

    def test_score_cache_load_snapshot_is_bounded(self):
        cache = ScoreCache(capacity=4)
        items = [(((i,), ("io",)), float(i)) for i in range(100)]
        retained = cache.load_snapshot(iter(items))
        assert retained == len(cache) == 4
        assert cache._lru.peek(((99,), ("io",))) == 99.0

    def test_disabled_cache_drains_the_iterable(self):
        cache = LRUCache(capacity=0)
        consumed = []

        def entries():
            for i in range(5):
                consumed.append(i)
                yield (i, i)

        assert cache.load(entries()) == 0
        assert len(cache) == 0 and consumed == list(range(5))
