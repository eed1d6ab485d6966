"""Batched, memoized NN-FF scoring and shared-memory model serving.

The contract under test, layer by layer:

* the evaluation cache's bounded loads and delta windows, which carry
  every memo of a backend (predicted scores and probability maps too);
* the encoder/model path is batch-shape-invariant — fixed padding widths
  and never-singleton GEMM batches make a program's predicted score
  independent of batch composition, bit for bit;
* therefore score memoization (forwarding only genuinely new genes) is
  bit-identical to the historical score-everything path, across batch
  sizes, for CF and LCS, cold and warm;
* elites and survivors hit the score namespace in later generations, and
  the hit/miss counters surface through ``generation`` progress events;
* Phase-1 weights attach read-only from a packed mmap segment with
  bit-identical values, and parallel session runs (whose workers get the
  trained store in memory) equal serial runs record for record.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from controls import UnmemoizedNetSynBackend
from repro.config import ServiceConfig
from repro.core.artifacts import CACHE_LOG_DIR, CACHE_LOG_FILE, ArtifactStore
from repro.core.netsyn import NetSynBackend
from repro.core.service import SynthesisSession
from repro.events import EventLog
from repro.execution import EvaluationCache
from repro.fitness.features import sample_from_execution
from repro.fitness.functions import LearnedTraceFitness, trace_score_namespace
from repro.ga.budget import SearchBudget
from repro.ga.operators import GeneOperators


# ---------------------------------------------------------------------------
# the evaluation cache: bounded loads and delta windows
# ---------------------------------------------------------------------------


def _score_counters(backend):
    """(hits, misses) of a backend's predicted-score namespace so far."""
    namespace = trace_score_namespace(backend.config.fitness_kind, "netsyn")
    return backend._executor().cache.stats.by_namespace.get(namespace, (0, 0))


def _trace_score_entries(snapshot):
    """The predicted-score entries of a backend cache snapshot."""
    return [
        (full_key, value)
        for full_key, value in snapshot["evaluation"]
        if full_key[0].startswith("score:nnff_")
    ]


class TestEvaluationCacheLoadSnapshot:
    def test_retained_count_respects_the_bound(self):
        small = EvaluationCache(max_entries=4)
        items = [(("ns", i), i) for i in range(10)]
        retained = small.load_snapshot(items)
        assert retained == len(small) <= 4
        disabled = EvaluationCache(max_entries=0)
        assert disabled.load_snapshot(items) == 0


class TestDirtyDeltaJournals:
    def test_evaluation_cache_dirty_window_and_namespaces(self):
        cache = EvaluationCache(max_entries=16)
        cache.put("outputs", "k1", [1])
        cache.clear_dirty()
        cache.put("solutions", "k2", True)
        cache.put("traces", "k3", "heavy")
        cache.get("outputs", "k1")  # reads never dirty an entry
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
        assert first_delta and _trace_score_entries(first_delta)
        # the next job's delta window contains none of the first job's work
        backend.begin_cache_delta()
        backend.solve_io(tiny_suite[0].io_set, budget=SearchBudget(limit=600), seed=0)
        second_delta = backend.cache_snapshot(dirty_only=True) or {"evaluation": []}
        first_keys = {key for key, _ in first_delta["evaluation"]}
        second_keys = {key for key, _ in second_delta["evaluation"]}
        assert not (first_keys & second_keys)
        # and the full snapshot still carries everything
        full_keys = {key for key, _ in backend.cache_snapshot()["evaluation"]}
        assert first_keys | second_keys <= full_keys


class _ScanOracle:
    """Oracle for ``dirty_snapshot``: a full store scan.

    Records every key ``put`` since ``clear_dirty`` and answers the delta
    by scanning the whole store in order, keeping the recorded keys.
    """

    def __init__(self, cache) -> None:
        self.cache = cache
        self.dirty = set()

    def put(self, namespace, key, value) -> None:
        self.cache.put(namespace, key, value)
        if self.cache.enabled:
            self.dirty.add((namespace, key))

    def clear_dirty(self) -> None:
        self.cache.clear_dirty()
        self.dirty.clear()

    def clear(self) -> None:
        self.cache.clear()
        self.dirty.clear()

    def evaluation_delta(self, namespaces=None):
        return [
            (key, value)
            for key, value in self.cache.snapshot()
            if key in self.dirty and (namespaces is None or key[0] in namespaces)
        ]


class TestEvaluationCacheDeltaExport:
    def _cache(self, max_entries):
        return _ScanOracle(EvaluationCache(max_entries=max_entries))

    def _assert_matches(self, oracle):
        cache = oracle.cache
        assert cache.dirty_snapshot() == oracle.evaluation_delta()
        for namespaces in (("outputs",), ("solutions",), ("outputs", "solutions"), ()):
            assert cache.dirty_snapshot(namespaces) == oracle.evaluation_delta(namespaces)

    def test_inserts_and_in_window_rewrites(self):
        oracle = self._cache(64)
        for i in range(5):
            oracle.put("outputs", i, [i])
        oracle.clear_dirty()
        self._assert_matches(oracle)
        for i in range(5, 9):
            oracle.put("outputs" if i % 2 else "solutions", i, i)
        oracle.put("outputs", 5, 5)  # a rewrite of a key first written in the window
        oracle.put("traces", 9, "heavy")
        self._assert_matches(oracle)
        assert [key for key, _ in oracle.cache.dirty_snapshot()] == [
            ("outputs", 5), ("solutions", 6), ("outputs", 7), ("solutions", 8), ("traces", 9)
        ]

    def test_eviction_eating_into_the_window(self):
        oracle = self._cache(8)
        for i in range(6):
            oracle.put("outputs", i, i)
        oracle.clear_dirty()
        # 12 new keys into a cache of 8: quarter sweeps evict every old
        # key, then the window's own oldest entries
        for i in range(100, 112):
            oracle.put("solutions", i, True)
            self._assert_matches(oracle)
        delta = oracle.cache.dirty_snapshot()
        assert len(delta) == len(oracle.cache) < 12
        assert delta[-1] == (("solutions", 111), True)

    def test_window_larger_than_capacity(self):
        oracle = self._cache(4)
        oracle.clear_dirty()
        for i in range(25):
            oracle.put("outputs", i % 9, i)
            self._assert_matches(oracle)
        assert len(oracle.cache.dirty_snapshot()) == len(oracle.cache)

    def test_clear_empties_the_window(self):
        oracle = self._cache(16)
        for i in range(4):
            oracle.put("outputs", i, i)
        oracle.clear()
        assert oracle.cache.dirty_snapshot() == [] == oracle.evaluation_delta()
        oracle.put("solutions", 1, False)
        self._assert_matches(oracle)

    def test_disabled_cache_exports_nothing(self):
        oracle = self._cache(0)
        oracle.put("outputs", 1, 1)
        assert oracle.cache.dirty_snapshot() == [] == oracle.evaluation_delta()

    def test_rewrite_of_a_pre_window_key_is_not_re_exported(self):
        """The one divergence from the scan: values are deterministic per
        key, so a rewrite stores the value the key already held and the
        receiving cache already has it from an earlier delta."""
        cache = EvaluationCache(max_entries=16)
        cache.put("outputs", "old", [1, 2])
        cache.clear_dirty()
        cache.put("outputs", "old", [1, 2])
        cache.put("outputs", "new", [3])
        assert cache.dirty_snapshot() == [(("outputs", "new"), [3])]


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
        assert memoized.executor.cache.stats.hits >= len(programs)

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
        hits, misses = _score_counters(backend)
        if result.generations >= 2:
            # every elite survives into generation 2's scoring pass as a hit
            assert hits >= tiny_netsyn_config.ga.elite_count
        assert hits > 0 and misses > 0

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
            # the counters include score-namespace traffic, so hits must
            # exceed what generation 1 reported
            assert last.cache_hits > generations[0].cache_hits


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
        def run(n_workers):
            store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
            session = SynthesisSession(tiny_netsyn_config, store, methods=("netsyn_cf",))
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

        assert run(2) == run(1)

    def test_worker_cache_snapshot_round_trip(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        warm = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        warm.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        snapshot = warm.cache_snapshot()
        assert snapshot and _trace_score_entries(snapshot)

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
        assert _score_counters(cold)[0] > 0

    def test_refit_resets_model_dependent_caches(
        self, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        backend = NetSynBackend(tiny_netsyn_config).set_models(
            trace_artifacts=tiny_trace_artifacts, fp_artifacts=tiny_fp_artifacts
        )
        backend.solve_io(tiny_task.io_set, budget=SearchBudget(limit=600), seed=0)
        assert _trace_score_entries(backend.cache_snapshot())
        # rebinding (possibly different weights) must drop every memoized
        # prediction — cached scores and maps are functions of the model
        backend.set_models(trace_artifacts=tiny_trace_artifacts)
        assert backend._shared_executor is None and backend.cache_snapshot() is None

    def test_shared_weights_skipped_for_empty_store(self, tiny_netsyn_config, tiny_suite):
        # artifact-free methods (edit) serve from an empty store
        session = SynthesisSession(
            tiny_netsyn_config.replace(fitness_kind="edit"),
            ArtifactStore(),
            methods=("edit",),
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
        assert len(a[section]) == len(b[section])
        for (key_a, value_a), (key_b, value_b) in zip(a[section], b[section]):
            assert key_a == key_b
            if key_a[0].startswith("probability_map:"):
                np.testing.assert_array_equal(value_a, value_b)
            else:
                assert value_a == value_b


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
        full.save_caches(tmp_path, {"netsyn_cf:None": {"evaluation": _score_entries(0, 1)}})
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
    """Synthetic predicted-score entries ``((namespace, key), value)``."""
    return [(("score:m", ((start + i,), ("io",))), float(start + i)) for i in range(count)]


#: the full key of a score entry the tests re-write
_HOT = ("score:m", (("hot",), ("io",)))


def _load_newest(entries, capacity=100):
    """What a session holds after a bounded load of ``entries``."""
    cache = EvaluationCache(max_entries=capacity)
    cache.load_snapshot(entries)
    return dict(cache.snapshot())


class TestCacheLog:
    """The L3 cache log: one append-only file of CRC frames."""

    @staticmethod
    def _log(directory):
        return directory / CACHE_LOG_DIR / CACHE_LOG_FILE

    def test_appends_never_rewrite_earlier_bytes(self, tmp_path):
        store = ArtifactStore()
        before = b""
        for round_index in range(3):
            path = store.save_caches(
                tmp_path,
                {"m:None": {"evaluation": _score_entries(round_index * 10, 4)}},
            )
            assert path == self._log(tmp_path)
            data = path.read_bytes()
            assert data.startswith(before) and len(data) > len(before)
            before = data
        assert [p.name for p in (tmp_path / CACHE_LOG_DIR).iterdir()] == [CACHE_LOG_FILE]
        # frames load oldest first: a reload ends with the newest entries
        merged = store.load_caches(tmp_path)
        assert merged["m:None"]["evaluation"] == (
            _score_entries(0, 4) + _score_entries(10, 4) + _score_entries(20, 4)
        )

    def test_log_is_keyed_by_model_hash(self, tmp_path, tiny_fp_artifacts):
        empty = ArtifactStore()
        empty.save_caches(tmp_path, {"m:None": {"evaluation": _score_entries(0, 2)}})
        other = ArtifactStore(fp=tiny_fp_artifacts)
        assert other.load_caches(tmp_path) == {}
        # appending under the new weights resets the log instead of
        # serving the stale entries
        other.save_caches(tmp_path, {"m:None": {"evaluation": _score_entries(50, 1)}})
        merged = other.load_caches(tmp_path)
        assert merged["m:None"]["evaluation"] == _score_entries(50, 1)
        assert empty.load_caches(tmp_path) == {}

    def test_newest_wins_at_load(self, tmp_path):
        store = ArtifactStore()
        # the same key re-written every round, plus one fresh key
        for round_index in range(10):
            snapshots = {
                "m:None": {
                    "evaluation": [(_HOT, float(round_index))]
                    + _score_entries(100 + round_index, 1)
                }
            }
            store.save_caches(tmp_path, snapshots)
        scores = _load_newest(store.load_caches(tmp_path)["m:None"]["evaluation"])
        assert scores[_HOT] == 9.0
        assert all(
            scores[("score:m", ((100 + i,), ("io",)))] == float(100 + i) for i in range(10)
        )

    def test_corrupt_manifest_or_segment_is_a_cold_start(self, tmp_path):
        """A ``cache_log/`` of the earlier layout (``manifest.json`` plus
        ``segment-*.pkl`` files, intact or broken) and a log whose header
        is damaged both load as a cold start; the next save starts over."""
        import json
        import pickle
        import struct
        import zlib

        store = ArtifactStore()
        log_dir = tmp_path / CACHE_LOG_DIR
        log_dir.mkdir()
        payload = pickle.dumps(
            {"format_version": 3, "snapshots": {"m:None": {"evaluation": _score_entries(0, 2)}}}
        )
        (log_dir / "segment-000001.pkl").write_bytes(
            b"NSL3SEG1" + struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload
        )
        (log_dir / "segment-000002.pkl").write_bytes(b"not a pickle")
        manifest = {
            "format_version": 1,
            "model_hash": store.model_hash(),
            "next_seq": 3,
            "segments": [
                {"file": "segment-000001.pkl", "entries": 2},
                {"file": "segment-000002.pkl", "entries": 0},
            ],
        }
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        assert store.load_caches(tmp_path) == {}
        assert not ArtifactStore.caches_saved_at(tmp_path)
        (log_dir / "manifest.json").write_text("{broken")
        assert store.load_caches(tmp_path) == {}

        store.save_caches(tmp_path, {"m:None": {"evaluation": _score_entries(5, 1)}})
        assert store.load_caches(tmp_path) == {"m:None": {"evaluation": _score_entries(5, 1)}}
        # one flipped bit in the header frame: the log is not trusted
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.load_caches(tmp_path) == {}
        store.save_caches(tmp_path, {"m:None": {"evaluation": _score_entries(7, 1)}})
        assert store.load_caches(tmp_path) == {"m:None": {"evaluation": _score_entries(7, 1)}}

    def test_session_runs_append_segments_not_rewrites(
        self, tmp_path, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_suite
    ):
        service_config = ServiceConfig(artifact_dir=str(tmp_path))
        store = ArtifactStore(cf=tiny_trace_artifacts, fp=tiny_fp_artifacts)
        session = SynthesisSession(
            tiny_netsyn_config, store, methods=("netsyn_cf",), service_config=service_config
        )
        path = self._log(tmp_path)
        session.submit(tiny_suite[0], budget=300, seed=0)
        session.run()
        first = path.read_bytes()
        # new work appends; the bytes already in the log are never rewritten
        session.submit(tiny_suite[1], budget=300, seed=0)
        session.run()
        second = path.read_bytes()
        assert second.startswith(first) and len(second) > len(first)
        # a fully-warm run appends nothing
        session.submit(tiny_suite[0], budget=300, seed=0)
        session.run()
        assert path.read_bytes() == second

    def test_a_torn_frame_costs_only_its_own_entries(self, tmp_path):
        """Five appends, the third torn by a crash mid-write before the
        last two: the load skips the torn frame alone, and the entries of
        the others load in append order with the newest value winning."""
        store = ArtifactStore()
        rounds = [
            {"m:None": {"evaluation": [(_HOT, 0.0)] + _score_entries(0, 3)
                        + [(("outputs", (1, 2)), [4])]}},
            {"m:None": {"evaluation": [(_HOT, 1.0)] + _score_entries(3, 2)},
             "m:5": {"evaluation": _score_entries(50, 2)}},
            {"m:None": {"evaluation": [(_HOT, 9.0)] + _score_entries(90, 2)}},
            {"m:None": {"evaluation": _score_entries(5, 2)
                        + [(("solutions", (1, 2)), True)]}},
            {"m:None": {"evaluation": [(_HOT, 2.0)] + _score_entries(7, 1)}},
        ]
        path = self._log(tmp_path)
        for index, snapshots in enumerate(rounds):
            start = path.stat().st_size if path.exists() else 0
            store.save_caches(tmp_path, snapshots)
            if index == 2:
                torn_at = start
                with path.open("r+b") as handle:
                    handle.truncate(start + (path.stat().st_size - start) // 2)
        skipped = []
        merged = store.load_caches(tmp_path, on_skip=lambda *skip: skipped.append(skip))
        # the later appends outrun the torn frame's declared length, so its
        # CRC fails; the scan resynchronizes on the fourth frame's magic
        assert skipped == [(CACHE_LOG_FILE, f"CRC mismatch at offset {torn_at}")]
        good = [rounds[i] for i in (0, 1, 3, 4)]
        assert list(merged) == ["m:None", "m:5"]
        assert merged["m:None"]["evaluation"] == [
            entry for snapshots in good for entry in snapshots["m:None"]["evaluation"]
        ]
        assert merged["m:5"]["evaluation"] == _score_entries(50, 2)
        assert _load_newest(merged["m:None"]["evaluation"])[_HOT] == 2.0

    def test_trailing_bytes_cost_no_frame(self, tmp_path):
        store = ArtifactStore()
        first = {"m:None": {"evaluation": _score_entries(0, 2)}}
        path = store.save_caches(tmp_path, first)
        path.write_bytes(path.read_bytes() + b"NSL3")
        skipped = []
        assert store.load_caches(tmp_path, on_skip=lambda *skip: skipped.append(skip)) == first
        assert len(skipped) == 1 and skipped[0][1].startswith("unframed bytes")
        # a later append lands after the stray bytes and still loads
        store.save_caches(tmp_path, {"m:None": {"evaluation": _score_entries(10, 1)}})
        skipped.clear()
        merged = store.load_caches(tmp_path, on_skip=lambda *skip: skipped.append(skip))
        assert merged["m:None"]["evaluation"] == _score_entries(0, 2) + _score_entries(10, 1)
        assert len(skipped) == 1


class TestBoundedSnapshotLoad:
    def test_load_keeps_newest_without_materializing(self):
        """An oversized snapshot streams through a bound-sized stage."""
        bound = 8

        def entries():
            for i in range(10_000):
                yield (("outputs", i), i)

        cache = EvaluationCache(max_entries=bound)
        retained = cache.load_snapshot(entries())  # a generator: nothing pre-listed
        assert retained == len(cache) == bound
        # the newest entries survived, oldest first
        assert cache.snapshot() == [(("outputs", i), i) for i in range(9992, 10_000)]

    def test_score_cache_load_snapshot_is_bounded(self):
        """Predicted scores load under the same bound as every other entry."""
        cache = EvaluationCache(max_entries=4)
        items = [(("score:m", ((i,), ("io",))), float(i)) for i in range(100)]
        retained = cache.load_snapshot(iter(items))
        assert retained == len(cache) == 4
        assert cache.peek("score:m", ((99,), ("io",))) == 99.0

    def test_disabled_cache_drains_the_iterable(self):
        cache = EvaluationCache(max_entries=0)
        consumed = []

        def entries():
            for i in range(5):
                consumed.append(i)
                yield (("outputs", i), i)

        assert cache.load_snapshot(entries()) == 0
        assert len(cache) == 0 and consumed == list(range(5))
