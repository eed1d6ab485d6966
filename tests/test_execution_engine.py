"""Tests for the execution subsystem: compiler, cache, engine, parallel runner.

The load-bearing properties:

* the compiled execution path agrees with the reference interpreter on
  outputs *and* full traces over hundreds of random programs;
* caching never changes results — a cached GA run is bit-identical to an
  uncached one (and to one driven by the reference interpreter);
* the parallel evaluation runner reproduces the serial report exactly.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import GAConfig, NeighborhoodConfig
from repro.data import make_synthesis_task
from repro.dsl import (
    Interpreter,
    Program,
    REGISTRY,
    clear_compile_cache,
    compile_cache_size,
    compile_program,
    input_signature,
)
from repro.dsl.equivalence import IOExample
from repro.dsl.types import DSLType, values_equal
from repro.execution import (
    BatchExecutionEngine,
    EvaluationCache,
    ExecutionEngine,
    freeze_value,
    io_set_key,
    program_key,
    uncached_engine,
)
from repro.fitness.functions import EditDistanceFitness
from repro.ga.engine import GeneticAlgorithm
from repro.ga.budget import SearchBudget
from repro.ga.neighborhood import NeighborhoodSearch
from repro.ga.operators import GeneOperators


def _random_program(rng: np.random.Generator) -> Program:
    length = int(rng.integers(1, 9))
    return Program([int(fid) for fid in rng.integers(1, 42, size=length)])


def _random_inputs(rng: np.random.Generator) -> list:
    inputs = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.random() < 0.15:
            inputs.append(int(rng.integers(-64, 65)))
        else:
            size = int(rng.integers(0, 9))
            inputs.append([int(v) for v in rng.integers(-64, 65, size=size)])
    return inputs


class TestCompiledExecution:
    def test_compiled_matches_reference_on_500_random_programs(self):
        """Property: outputs and full traces agree with the reference."""
        rng = np.random.default_rng(2024)
        reference = Interpreter(trace=True, compiled=False)
        compiled = Interpreter(trace=True, compiled=True)
        for _ in range(500):
            program = _random_program(rng)
            inputs = _random_inputs(rng)
            expected = reference.run_reference(program, inputs)
            actual = compiled.run(program, inputs)
            assert actual.output == expected.output
            assert actual.inputs == expected.inputs
            assert len(actual.steps) == len(expected.steps)
            for got, want in zip(actual.steps, expected.steps):
                assert (got.index, got.fid, got.name) == (want.index, want.fid, want.name)
                assert got.args == want.args
                assert got.output == want.output

    def test_compiled_output_only_matches_reference(self):
        rng = np.random.default_rng(7)
        reference = Interpreter(trace=False, compiled=False)
        fast = Interpreter(trace=False, compiled=True)
        for _ in range(100):
            program = _random_program(rng)
            inputs = _random_inputs(rng)
            assert fast.output_of(program, inputs) == reference.output_of(program, inputs)

    def test_empty_program_output_defaults_to_int(self):
        program = Program([])
        assert Interpreter(compiled=True).output_of(program, [[1, 2]]) == 0
        assert Interpreter(compiled=False).output_of(program, [[1, 2]]) == 0

    def test_compilation_is_memoized_per_signature(self):
        clear_compile_cache()
        program = Program.from_names(["SORT", "REVERSE"])
        first = compile_program(program, input_signature([[1, 2]]))
        again = compile_program(program, input_signature([[9]]))
        assert first is again
        assert compile_cache_size() == 1
        other = compile_program(program, input_signature([[1], 5]))
        assert other is not first
        assert compile_cache_size() == 2

    def test_intermediate_outputs_match_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            program = _random_program(rng)
            inputs = _random_inputs(rng)
            compiled = compile_program(program, input_signature(inputs))
            trace = compiled.run(inputs, trace=True)
            assert compiled.intermediate_outputs(inputs) == trace.intermediate_outputs

    def test_compile_cache_is_lru_not_fifo(self, monkeypatch):
        # a cache hit must refresh recency: the GA's hottest genes
        # (elites compiled thousands of times) have to survive the
        # eviction sweep while stale one-off compilations are dropped
        from repro.dsl import compiler as compiler_mod

        clear_compile_cache()
        monkeypatch.setattr(compiler_mod, "COMPILE_CACHE_MAX", 4)
        signature = input_signature([[1, 2]])
        hot = Program([1])
        cold = [Program([fid]) for fid in (2, 3, 4)]
        hot_compiled = compile_program(hot, signature)
        cold_compiled = [compile_program(program, signature) for program in cold]
        # touch the oldest entry: under LRU it becomes the most recent
        assert compile_program(hot, signature) is hot_compiled
        # overflow: the sweep evicts the least-recently-used entry,
        # which now is the untouched first cold program — not the hot gene
        compile_program(Program([5]), signature)
        assert compile_program(hot, signature) is hot_compiled
        assert compiler_mod.compile_cache_size() <= 4
        # the swept-out cold program recompiles to a fresh object
        assert compile_program(cold[0], signature) is not cold_compiled[0]
        clear_compile_cache()


class TestInterpreterNoTraceMode:
    def test_no_trace_run_allocates_no_step_records(self, example_program, example_input):
        quick = Interpreter(trace=False)
        trace = quick.run(example_program, example_input)
        assert trace.steps == []
        assert trace.output == [20, 10, 6, 4]

    def test_no_trace_reference_run_allocates_no_step_records(self, example_program, example_input):
        quick = Interpreter(trace=False, compiled=False)
        trace = quick.run(example_program, example_input)
        assert trace.steps == []
        assert trace.output == [20, 10, 6, 4]


class TestStructuralKeys:
    def test_io_set_key_is_structural_and_stable(self):
        a = [IOExample(inputs=([1, 2, 3],), output=[2, 4, 6])]
        b = [IOExample(inputs=((1, 2, 3),), output=(2, 4, 6))]
        assert io_set_key(a) == io_set_key(b)
        assert io_set_key(a) == (((((1, 2, 3),)), (2, 4, 6)),)

    def test_io_set_key_distinguishes_different_specs(self):
        a = [IOExample(inputs=([1, 2],), output=3)]
        b = [IOExample(inputs=([1, 2],), output=4)]
        assert io_set_key(a) != io_set_key(b)

    def test_freeze_value(self):
        assert freeze_value([1, 2]) == (1, 2)
        assert freeze_value(7) == 7

    def test_program_key(self):
        program = Program([3, 1, 4])
        assert program_key(program) == (3, 1, 4)


class TestEvaluationCache:
    def test_hit_miss_accounting(self):
        cache = EvaluationCache(max_entries=10)
        assert cache.get("ns", "k") is None
        cache.put("ns", "k", 42)
        assert cache.get("ns", "k") == 42
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_namespaces_do_not_collide(self):
        cache = EvaluationCache(max_entries=10)
        cache.put("a", "k", 1)
        cache.put("b", "k", 2)
        assert cache.get("a", "k") == 1
        assert cache.get("b", "k") == 2

    def test_zero_capacity_disables_storage(self):
        cache = EvaluationCache(max_entries=0)
        cache.put("ns", "k", 1)
        assert cache.get("ns", "k") is None
        assert len(cache) == 0

    def test_eviction_bounds_size(self):
        cache = EvaluationCache(max_entries=8)
        for i in range(50):
            cache.put("ns", i, i)
        assert len(cache) <= 8
        assert cache.stats.evictions > 0


class TestExecutionEngine:
    def test_solution_check_shares_execution_with_outputs(self, tiny_task):
        engine = ExecutionEngine()
        program = tiny_task.target
        outputs = engine.outputs(program, tiny_task.io_set)
        assert engine.satisfies(program, tiny_task.io_set)
        assert engine.outputs(program, tiny_task.io_set) == outputs
        # second outputs call and the satisfies-derived lookup were hits
        assert engine.stats.hits >= 1

    def test_outputs_derive_from_cached_traces(self, tiny_task):
        engine = ExecutionEngine()
        program = tiny_task.target
        traces = engine.traces(program, tiny_task.io_set)
        outputs = engine.outputs(program, tiny_task.io_set)
        assert outputs == tuple(t.output for t in traces)

    def test_trace_derived_outputs_count_as_hits(self, tiny_task):
        # deriving outputs from already-cached traces avoids an execution,
        # so it must be recorded as an outputs-namespace *hit*: the
        # hit-rate feeding benchmarks and progress events counts
        # executions avoided, not which namespace answered
        engine = ExecutionEngine()
        program = tiny_task.target
        engine.traces(program, tiny_task.io_set)
        hits_before = engine.stats.hits
        misses_before = engine.stats.misses
        engine.outputs(program, tiny_task.io_set)
        assert engine.stats.hits == hits_before + 1
        assert engine.stats.misses == misses_before
        # a genuinely cold program still records an outputs miss
        cold = Program([1, 2])
        engine.outputs(cold, tiny_task.io_set)
        assert engine.stats.misses == misses_before + 1

    def test_engine_agrees_with_reference_interpreter(self, tiny_task):
        rng = np.random.default_rng(11)
        reference = Interpreter(trace=False, compiled=False)
        engine = ExecutionEngine()
        for _ in range(25):
            program = _random_program(rng)
            expected = tuple(
                reference.output_of(program, example.inputs) for example in tiny_task.io_set
            )
            assert engine.outputs(program, tiny_task.io_set) == expected

    def test_uncached_engine_never_stores(self, tiny_task):
        engine = uncached_engine()
        engine.outputs(tiny_task.target, tiny_task.io_set)
        assert len(engine.cache) == 0


def _reference_verdicts(programs, io_set) -> list:
    """Verdicts from reference-interpreter outputs and ``values_equal`` alone."""
    reference = Interpreter(trace=False, compiled=False)
    return [
        all(values_equal(reference.output_of(program, ex.inputs), ex.output) for ex in io_set)
        for program in programs
    ]


class TestStaticOutputTypeVerdict:
    """A non-empty program whose last function's ``return_type`` cannot
    equal every example's output is answered False before any cache
    lookup or execution; every verdict still equals the reference's."""

    INPUTS = ([[3, -1, 4, 1, -5]], [[2, 7, -1]], [[0, 6]])
    LIST_TARGET = Program.from_names(["FILTER(>0)", "SORT"])
    INT_TARGET = Program.from_names(["SORT", "HEAD"])

    def _spec(self, outputs) -> list:
        return [IOExample(inputs=tuple(i), output=o) for i, o in zip(self.INPUTS, outputs)]

    def _outputs(self, program) -> list:
        reference = Interpreter(trace=False, compiled=False)
        return [reference.output_of(program, inputs) for inputs in self.INPUTS]

    def _io_sets(self) -> dict:
        list_outputs, int_outputs = self._outputs(self.LIST_TARGET), self._outputs(self.INT_TARGET)
        return {
            "list": self._spec(list_outputs),
            "int": self._spec(int_outputs),
            # the empty program outputs the default int on every example
            "zeros": self._spec([0, 0, 0]),
            "mixed": self._spec([list_outputs[0], int_outputs[1], list_outputs[2]]),
            "no examples": [],
        }

    def _population(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        population = [_random_program(rng) for _ in range(40)]
        population += [self.LIST_TARGET, self.INT_TARGET, Program([]), self.LIST_TARGET, Program([])]
        return population

    @staticmethod
    def _engines() -> list:
        return [
            ExecutionEngine(),
            ExecutionEngine(cache=EvaluationCache(max_entries=0), compiled=False),
            BatchExecutionEngine(),
            BatchExecutionEngine(cache=EvaluationCache(max_entries=0)),
        ]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_both_engines_match_reference_verdicts(self, seed):
        population = self._population(seed)
        kinds = {program.output_type() for program in population if len(program)}
        assert kinds == {DSLType.INT, DSLType.LIST}
        for name, io_set in self._io_sets().items():
            expected = _reference_verdicts(population, io_set)
            if name == "mixed":
                assert not any(expected)
            else:
                assert any(expected), name
            for engine in self._engines():
                # twice: the second batch is answered from whatever the
                # first one cached
                for _ in range(2):
                    assert engine.satisfies_batch(population, io_set) == expected, (name, engine)
                assert [engine.satisfies(p, io_set) for p in population] == expected, (name, engine)

    @pytest.mark.parametrize("spec, last_names", [("list", ["SUM"]), ("mixed", ["SUM", "SORT"])])
    def test_wrong_typed_batch_touches_no_counter(self, spec, last_names):
        io_set = self._io_sets()[spec]
        rng = np.random.default_rng(21)
        wrong = [
            Program([int(fid) for fid in rng.integers(1, 42, size=3)] + [REGISTRY.by_name(name).fid])
            for _ in range(15)
            for name in last_names
        ]
        for engine in (ExecutionEngine(), BatchExecutionEngine()):
            # warm: the cache holds entries and the trie has levels
            engine.satisfies_batch(self._population(5), io_set)
            before_stats = engine.stats.to_dict()
            before_kernels = engine.kernel_stats() if isinstance(engine, BatchExecutionEngine) else {}
            entries = len(engine.cache)
            assert engine.satisfies_batch(wrong, io_set) == [False] * len(wrong)
            assert not any(engine.satisfies(p, io_set) for p in wrong)
            assert len(engine.cache) == entries
            after_stats = engine.stats.to_dict()
            for counter in ("hits", "misses", "stores", "by_namespace"):
                assert after_stats[counter] == before_stats[counter], counter
            if before_kernels:
                after_kernels = engine.kernel_stats()
                for counter in ("trie_nodes_inserted", "dispatch_count", "trie_leaf_lookups"):
                    assert after_kernels[counter] == before_kernels[counter], counter

    def test_wrong_typed_programs_are_still_traced(self):
        # CF scores every gene, including the ones the check rejected
        # without running: their traces come from the trie all the same
        io_set = self._io_sets()["list"]
        batch = [self.INT_TARGET, Program.from_names(["SORT", "SUM"]), self.LIST_TARGET]
        engine = BatchExecutionEngine()
        assert engine.satisfies_batch(batch, io_set) == [False, False, True]
        got = engine.traces_batch(batch, io_set)
        want = ExecutionEngine(compiled=False).traces_batch(batch, io_set)
        for name in ("fids", "lengths", "values", "sizes"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert engine.kernel_stats()["dispatch_count"] > 0


def _make_ga(executor: ExecutionEngine, with_ns: bool = True):
    """A small deterministic GA wired explicitly (mirrors the seed layout)."""
    fitness = EditDistanceFitness(executor=executor)
    operators = GeneOperators(program_length=3, rng=np.random.default_rng(99))
    neighborhood = None
    if with_ns:
        neighborhood = NeighborhoodSearch(
            config=NeighborhoodConfig(top_n=2, window=3, cooldown=2),
            fitness=fitness,
            executor=executor,
        )
    return GeneticAlgorithm(
        fitness=fitness,
        operators=operators,
        config=GAConfig(population_size=16, elite_count=2, max_generations=25),
        neighborhood=neighborhood,
        rng=np.random.default_rng(4321),
        executor=executor,
    )


class TestCachedGABitIdentical:
    def test_cached_run_equals_uncached_run(self, tiny_task):
        """Caching must not change any field of the EvolutionResult."""
        cached = _make_ga(ExecutionEngine())
        uncached = _make_ga(uncached_engine())
        result_cached = cached.run(tiny_task.io_set, SearchBudget(limit=1200))
        result_uncached = uncached.run(tiny_task.io_set, SearchBudget(limit=1200))
        assert result_cached == result_uncached
        assert cached.executor.stats.hits > 0

    def test_compiled_cached_run_equals_reference_interpreter_run(self, tiny_task):
        """The full modern stack reproduces the seed-era reference stack."""
        modern = _make_ga(ExecutionEngine())
        legacy = _make_ga(uncached_engine(compiled=False))
        result_modern = modern.run(tiny_task.io_set, SearchBudget(limit=1200))
        result_legacy = legacy.run(tiny_task.io_set, SearchBudget(limit=1200))
        assert result_modern == result_legacy

    def test_seeded_netsyn_synthesize_is_reproducible(self, tiny_netsyn_config, tiny_task):
        from repro.core.netsyn import NetSynBackend

        config = tiny_netsyn_config.replace(
            fitness_kind="edit", fp_guided_mutation=False, max_search_space=800
        )
        first = NetSynBackend(config).solve_io(tiny_task.io_set, seed=13, task_id="t")
        second = NetSynBackend(config).solve_io(tiny_task.io_set, seed=13, task_id="t")
        assert first.found == second.found
        assert first.program == second.program
        assert first.candidates_used == second.candidates_used
        assert first.generations == second.generations


class TestMutationScoresSkip:
    def test_fitness_base_declares_no_mutation_scores(self):
        fitness = EditDistanceFitness()
        assert fitness.provides_mutation_scores is False

    def test_engine_skips_mutation_scores_when_not_provided(self, tiny_task):
        calls = []

        class CountingFitness(EditDistanceFitness):
            def mutation_scores(self, program, io_set):
                calls.append(program)
                return None

        fitness = CountingFitness()
        engine = GeneticAlgorithm(
            fitness=fitness,
            operators=GeneOperators(program_length=3, rng=np.random.default_rng(5)),
            config=GAConfig(population_size=10, elite_count=1, max_generations=6),
            rng=np.random.default_rng(6),
        )
        engine.run(tiny_task.io_set, SearchBudget(limit=250))
        assert calls == []

    def test_engine_calls_mutation_scores_when_declared(self, tiny_task):
        calls = []

        class ScoringFitness(EditDistanceFitness):
            provides_mutation_scores = True

            def mutation_scores(self, program, io_set):
                calls.append(program)
                return None

        fitness = ScoringFitness()
        engine = GeneticAlgorithm(
            fitness=fitness,
            operators=GeneOperators(program_length=3, rng=np.random.default_rng(5)),
            config=GAConfig(population_size=10, elite_count=1, max_generations=6),
            rng=np.random.default_rng(6),
        )
        engine.run(tiny_task.io_set, SearchBudget(limit=250))
        assert len(calls) > 0


class TestPicklability:
    def test_program_roundtrip_restores_default_registry(self):
        program = Program([1, 35, 29])
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert clone.registry is REGISTRY

    def test_function_roundtrip(self):
        fn = REGISTRY.by_id(19)
        clone = pickle.loads(pickle.dumps(fn))
        assert clone is fn

    def test_task_roundtrip_preserves_semantics(self):
        task = make_synthesis_task(length=4, seed=3)
        clone = pickle.loads(pickle.dumps(task))
        assert clone.target == task.target
        assert clone.io_set == task.io_set


class TestParallelTaskRunner:
    """The evaluation grid fanned out over the session's worker pool."""

    def test_parallel_evaluation_identical_to_serial(self):
        from repro.config import ExperimentConfig, NetSynConfig
        from repro.evaluation.runner import EvaluationRunner

        experiment = ExperimentConfig(
            lengths=(3,),
            n_test_programs=2,
            n_runs=2,
            max_search_space=500,
            methods=("edit",),
            seed=7,
        )
        config = NetSynConfig.small(fitness_kind="edit", seed=7)
        serial = EvaluationRunner(experiment, config, n_workers=1).run()
        parallel = EvaluationRunner(experiment, config, n_workers=2).run()
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert (a.method, a.length, a.task_id, a.run_index) == (
                b.method,
                b.length,
                b.task_id,
                b.run_index,
            )
            assert a.result.found == b.result.found
            assert a.result.program == b.result.program
            assert a.result.candidates_used == b.result.candidates_used
            assert a.result.generations == b.result.generations
            assert a.result.found_by == b.result.found_by
