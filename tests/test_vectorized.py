"""Tests for the columnar population evaluator and the batch engine.

The load-bearing properties:

* the vectorized evaluator is value- and trace-identical to the compiled
  and reference-interpreter paths on random populations (shared
  prefixes, mixed signatures, empty programs, default-argument steps) —
  checked by hand-rolled sweeps and a hypothesis property test;
* :class:`BatchExecutionEngine` feeds the same cache namespaces with the
  same values as the serial engine, so every tier and snapshot observes
  identical state;
* seeded GA runs are bit-identical between the columnar engine and the
  per-candidate control (``tests/controls.py``), serially and through
  the parallel runner;
* non-catalog registries (0-ary and 3-ary functions) execute correctly
  through both the compiled hot path and the columnar scalar fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetSynConfig
from repro.dsl import Interpreter, Program, REGISTRY, compile_program, input_signature
from repro.dsl.equivalence import IOExample
from repro.dsl.functions import DSLFunction, FunctionRegistry
from repro.dsl.types import DSLType
from repro.execution import (
    BatchExecutionEngine,
    ColumnarEvaluator,
    EvaluationCache,
    ExecutionEngine,
)

INT, LIST = DSLType.INT, DSLType.LIST


def _reference_outputs(program, example_inputs):
    reference = Interpreter(trace=False, compiled=False)
    return [reference.output_of(program, inputs) for inputs in example_inputs]


def _reference_traces(program, example_inputs):
    reference = Interpreter(trace=True, compiled=False)
    return [reference.run(program, inputs) for inputs in example_inputs]


def _assert_columns_match(columns, population, traces):
    """``columns`` hold exactly the reference ``traces[b][e]``: function
    ids, and every step's intermediate output (ints as one-cell rows,
    zero padding past each value and each program)."""
    assert len(columns) == len(population)
    for b, (program, per_example) in enumerate(zip(population, traces)):
        length = len(program.function_ids)
        assert columns.lengths[b] == length
        assert not columns.fids[b, length:].any()
        for e, trace in enumerate(per_example):
            assert columns.fids[b, :length].tolist() == trace.function_ids
            for k in range(columns.values.shape[2]):
                size = int(columns.sizes[b, e, k])
                row = columns.values[b, e, k]
                if k < length:
                    want = trace.intermediate_outputs[k]
                    assert row[:size].tolist() == (list(want) if isinstance(want, (list, tuple)) else [want])
                else:
                    assert size == 0
                assert not row[size:].any()


def _population(rng: np.random.Generator, size: int, alphabet=None) -> list:
    """Random programs over a small alphabet, so prefixes collide often."""
    alphabet = alphabet or [int(f) for f in rng.integers(1, 42, size=6)]
    population = []
    for _ in range(size):
        length = int(rng.integers(0, 7))
        population.append(Program([int(rng.choice(alphabet)) for _ in range(length)]))
    return population


class TestColumnarEvaluator:
    def test_outputs_match_reference_on_random_populations(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            example_inputs = [
                [[int(v) for v in rng.integers(-64, 65, size=int(rng.integers(0, 9)))]]
                for _ in range(4)
            ]
            population = _population(rng, 40)
            evaluator = ColumnarEvaluator(example_inputs)
            batch = evaluator.outputs(population)
            for program, got in zip(population, batch):
                assert got == _reference_outputs(program, example_inputs)

    def test_traces_match_reference_field_by_field(self):
        rng = np.random.default_rng(11)
        example_inputs = [
            [[int(v) for v in rng.integers(-30, 31, size=6)]],
            [[int(v) for v in rng.integers(-30, 31, size=3)]],
        ]
        population = _population(rng, 25)
        evaluator = ColumnarEvaluator(example_inputs)
        columns = evaluator.trace_columns(population)
        reference = [_reference_traces(program, example_inputs) for program in population]
        _assert_columns_match(columns, population, reference)

    def test_mixed_signatures_split_into_blocks(self):
        # one evaluator, examples of different input signatures: each
        # signature group becomes its own trie and results interleave back
        example_inputs = [
            [[3, 1, 2]],
            [5, [4, 4]],
            [[9, -2, 7, 0]],
            [1, [0]],
        ]
        rng = np.random.default_rng(13)
        population = _population(rng, 20)
        evaluator = ColumnarEvaluator(example_inputs)
        batch = evaluator.outputs(population)
        for program, got in zip(population, batch):
            assert got == _reference_outputs(program, example_inputs)

    def test_empty_programs_and_empty_lists(self):
        example_inputs = [[[1, 2, 3]], [[]]]
        population = [Program([]), Program([1]), Program([]), Program([35, 1])]
        evaluator = ColumnarEvaluator(example_inputs)
        batch = evaluator.outputs(population)
        for program, got in zip(population, batch):
            assert got == _reference_outputs(program, example_inputs)

    def test_default_argument_steps(self):
        # signature (LIST,): an INT-consuming head step reads no INT slot
        # and must fall back to the compiled default of 0
        take = REGISTRY.by_name("TAKE").fid
        example_inputs = [[[5, 6, 7]]]
        population = [Program([take]), Program([take, take])]
        evaluator = ColumnarEvaluator(example_inputs)
        batch = evaluator.outputs(population)
        for program, got in zip(population, batch):
            assert got == _reference_outputs(program, example_inputs)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_identical_to_compiled_and_reference(self, data):
        value = st.integers(min_value=-255, max_value=255)
        input_value = st.one_of(value, st.lists(value, min_size=0, max_size=8))
        example_inputs = data.draw(
            st.lists(st.lists(input_value, min_size=1, max_size=2), min_size=1, max_size=3),
            label="example_inputs",
        )
        alphabet = data.draw(
            st.lists(st.integers(min_value=1, max_value=41), min_size=1, max_size=6),
            label="alphabet",
        )
        population = [
            Program(fids)
            for fids in data.draw(
                st.lists(
                    st.lists(st.sampled_from(alphabet), min_size=0, max_size=6),
                    min_size=1,
                    max_size=12,
                ),
                label="population",
            )
        ]
        evaluator = ColumnarEvaluator(example_inputs)
        outputs = evaluator.outputs(population)
        for program, out in zip(population, outputs):
            assert out == _reference_outputs(program, example_inputs)
            compiled_out = [
                compile_program(program, input_signature(inputs)).output(inputs)
                for inputs in example_inputs
            ]
            assert out == compiled_out
        reference = [_reference_traces(program, example_inputs) for program in population]
        _assert_columns_match(evaluator.trace_columns(population), population, reference)


class TestBatchExecutionEngine:
    def _io_set(self, seed=5, m=4):
        rng = np.random.default_rng(seed)
        examples = []
        for _ in range(m):
            inputs = ([int(v) for v in rng.integers(-50, 51, size=6)],)
            examples.append(IOExample(inputs=inputs, output=0))
        return examples

    def test_batch_results_equal_serial(self):
        rng = np.random.default_rng(17)
        io_set = self._io_set()
        population = _population(rng, 30)
        serial = ExecutionEngine(cache=EvaluationCache(max_entries=0))
        batch = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        expected_outputs = [serial.outputs(p, io_set) for p in population]
        assert batch.outputs_batch(population, io_set) == expected_outputs
        expected_verdicts = [serial.satisfies(p, io_set) for p in population]
        assert batch.satisfies_batch(population, io_set) == expected_verdicts
        reference = [serial.traces(program, io_set) for program in population]
        _assert_columns_match(batch.traces_batch(population, io_set), population, reference)

    def test_batch_fills_the_same_cache_namespaces(self):
        rng = np.random.default_rng(19)
        io_set = self._io_set()
        population = _population(rng, 15)
        serial = ExecutionEngine()
        batch = BatchExecutionEngine()
        serial_out = [serial.outputs(p, io_set) for p in population]
        batch_out = batch.outputs_batch(population, io_set)
        assert batch_out == serial_out
        # every (namespace, key) the serial engine stored is present with
        # the same value, so snapshots and tier merges are equivalent
        assert dict(serial.cache._store) == dict(batch.cache._store)

    def test_batch_serves_cached_programs_without_reexecution(self):
        rng = np.random.default_rng(23)
        io_set = self._io_set()
        population = _population(rng, 10)
        engine = BatchExecutionEngine()
        first = engine.outputs_batch(population, io_set)
        hits_before = engine.stats.hits
        second = engine.outputs_batch(population, io_set)
        assert second == first
        assert engine.stats.hits == hits_before + len(population)

    def test_duplicates_inside_one_batch_execute_once(self):
        io_set = self._io_set()
        program = Program([35, 1])
        twin = Program([35, 1])
        engine = BatchExecutionEngine()
        outputs = engine.outputs_batch([program, twin, program], io_set)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_single_program_batch_uses_serial_path(self):
        io_set = self._io_set()
        engine = BatchExecutionEngine()
        program = Program([29, 5, 1])
        assert engine.outputs_batch([program], io_set) == [engine.outputs(program, io_set)]


class TestNonCatalogRegistries:
    def _registry(self):
        def const_seven():
            return 7

        def clamp3(lo, hi, xs):
            lo, hi = min(lo, hi), max(lo, hi)
            return [min(max(v, lo), hi) for v in xs]

        functions = (
            DSLFunction(fid=1, name="CONST7", arg_types=(), return_type=INT, impl=const_seven),
            DSLFunction(
                fid=2, name="CLAMP3", arg_types=(INT, INT, LIST), return_type=LIST, impl=clamp3
            ),
            DSLFunction(
                fid=3, name="LEN", arg_types=(LIST,), return_type=INT, impl=lambda xs: len(xs)
            ),
        )
        return FunctionRegistry(functions)

    def test_compiled_output_handles_any_arity(self):
        registry = self._registry()
        inputs = [[4, -9, 12, 3]]
        for fids in ([1], [2], [3], [1, 1, 2], [3, 2, 1], [1, 3, 2, 2]):
            program = Program(fids, registry=registry)
            compiled = compile_program(program, input_signature(inputs))
            reference = Interpreter(trace=False, compiled=False).output_of(program, inputs)
            assert compiled.output(inputs) == reference
            assert compiled.run(inputs, trace=True).output == reference

    def test_default_registry_arity_sweep(self):
        # every catalog function must execute through the unrolled hot
        # path; a registry change that introduces a new arity has to keep
        # output() total (the generic fallback), never crash it
        inputs = [[3, -2, 8, 0, 5]]
        reference = Interpreter(trace=False, compiled=False)
        for fn in REGISTRY.functions:
            program = Program([fn.fid])
            compiled = compile_program(program, input_signature(inputs))
            assert compiled.output(inputs) == reference.output_of(program, inputs)

    def test_vectorized_scalar_fallback_matches_reference(self):
        registry = self._registry()
        io_examples = [
            IOExample(inputs=([2, 5, -3, 8],), output=0),
            IOExample(inputs=([1],), output=0),
        ]
        population = [
            Program(fids, registry=registry)
            for fids in ([1], [2], [1, 2], [3, 2, 1], [1, 1, 2, 3], [])
        ]
        engine = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        outputs = engine.outputs_batch(population, io_examples)
        reference = Interpreter(trace=False, compiled=False)
        for program, got in zip(population, outputs):
            expected = tuple(
                reference.output_of(program, example.inputs) for example in io_examples
            )
            assert tuple(got) == expected


class TestVectorizedBitIdentity:
    def _solve(self, vectorized: bool, seed: int):
        from controls import ScalarNetSynBackend
        from repro.core.netsyn import NetSynBackend
        from repro.data import make_synthesis_task

        config = NetSynConfig.small(fitness_kind="edit", seed=seed)
        config.fp_guided_mutation = False
        config.max_search_space = 3_000
        backend = (NetSynBackend if vectorized else ScalarNetSynBackend)(config)
        task = make_synthesis_task(length=4, seed=seed + 11)
        return backend.solve_io(task.io_set, target=task.target, seed=seed)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_seeded_runs_identical_with_and_without_vectorization(self, seed):
        fast = self._solve(True, seed)
        control = self._solve(False, seed)
        assert fast.found == control.found
        assert fast.program == control.program
        assert fast.generations == control.generations
        assert fast.candidates_used == control.candidates_used
        assert fast.found_by == control.found_by
        assert fast.average_fitness_history == control.average_fitness_history
        assert fast.best_fitness_history == control.best_fitness_history

    def test_parallel_equals_serial_with_vectorization(self):
        from repro.config import ExperimentConfig
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
            assert a.result.found == b.result.found
            assert a.result.program == b.result.program
            assert a.result.candidates_used == b.result.candidates_used


class TestPersistentTrie:
    """Incremental tries: warm results identical to cold, explicit
    invalidation, registry swaps, and budget-bounded eviction."""

    def _inputs(self, seed=3, m=4):
        rng = np.random.default_rng(seed)
        return [
            [[int(v) for v in rng.integers(-40, 41, size=int(rng.integers(1, 7)))]]
            for _ in range(m)
        ]

    def test_warm_batches_equal_cold_rebuilds(self):
        rng = np.random.default_rng(23)
        example_inputs = self._inputs()
        warm = ColumnarEvaluator(example_inputs)
        survivors = _population(rng, 20)
        for _generation in range(4):
            # survivors + fresh children, the converged-GA batch shape
            batch = survivors + _population(rng, 10)
            got = warm.outputs(batch)
            cold = ColumnarEvaluator(example_inputs).outputs(batch)
            assert got == cold
            survivors = batch[:20]

    def test_repeated_batch_hits_the_leaf_memo(self):
        example_inputs = self._inputs(seed=9)
        evaluator = ColumnarEvaluator(example_inputs)
        population = _population(np.random.default_rng(31), 30)
        first = evaluator.outputs(population)
        inserted = evaluator.stats()["trie_nodes_inserted"]
        assert inserted > 0
        second = evaluator.outputs(population)
        stats = evaluator.stats()
        assert second == first
        # the repeat inserted nothing and answered every leaf from memo
        assert stats["trie_nodes_inserted"] == inserted
        assert stats["trie_leaf_hits"] >= len(population)
        assert stats["reuse_ratio"] > 0

    def test_invalidate_drops_tries_and_stays_correct(self):
        example_inputs = self._inputs(seed=17)
        evaluator = ColumnarEvaluator(example_inputs)
        population = _population(np.random.default_rng(5), 25)
        first = evaluator.outputs(population)
        evaluator.invalidate()
        stats = evaluator.stats()
        assert stats["trie_evictions"] > 0
        assert evaluator.outputs(population) == first

    def test_registry_swap_rebuilds_the_trie(self):
        example_inputs = [[[4, 5, 6]], [[1]]]
        evaluator = ColumnarEvaluator(example_inputs)
        reverse = REGISTRY.by_name("REVERSE").fid
        sort = REGISTRY.by_name("SORT").fid
        population = [Program([reverse]), Program([reverse, sort]), Program([sort])]
        assert evaluator.outputs(population) == [
            _reference_outputs(p, example_inputs) for p in population
        ]
        # same fids resolved against a different registry object: the
        # (block, registry) key changes, so results follow the new registry
        doubled = FunctionRegistry([
            DSLFunction(reverse, "R2", (LIST,), LIST, lambda xs: list(xs) + list(xs)),
            DSLFunction(sort, "S2", (LIST,), LIST, lambda xs: sorted(xs, reverse=True)),
        ])
        swapped = [Program(p.function_ids, registry=doubled) for p in population]
        expected = [_reference_outputs(p, example_inputs) for p in swapped]
        assert evaluator.outputs(swapped) == expected
        # and the original registry's trie still answers correctly
        assert evaluator.outputs(population) == [
            _reference_outputs(p, example_inputs) for p in population
        ]

    def test_small_node_budget_evicts_and_rebuilds(self):
        example_inputs = self._inputs(seed=29)
        evaluator = ColumnarEvaluator(example_inputs, trie_node_budget=40)
        rng = np.random.default_rng(41)
        for _round in range(5):
            population = _population(rng, 25)
            expected = [_reference_outputs(p, example_inputs) for p in population]
            assert evaluator.outputs(population) == expected
        assert evaluator.stats()["trie_evictions"] > 0

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_property_incremental_equals_cold_over_generation_sequences(self, data):
        value = st.integers(min_value=-127, max_value=127)
        input_value = st.one_of(value, st.lists(value, min_size=0, max_size=6))
        example_inputs = data.draw(
            st.lists(st.lists(input_value, min_size=1, max_size=2), min_size=1, max_size=3),
            label="example_inputs",
        )
        alphabet = data.draw(
            st.lists(st.integers(min_value=1, max_value=41), min_size=1, max_size=5),
            label="alphabet",
        )
        program_lists = data.draw(
            st.lists(  # a sequence of generations, overlapping by chance
                st.lists(
                    st.lists(st.sampled_from(alphabet), min_size=0, max_size=5),
                    min_size=1,
                    max_size=10,
                ),
                min_size=1,
                max_size=4,
            ),
            label="generations",
        )
        warm = ColumnarEvaluator(example_inputs)
        for fids_list in program_lists:
            generation = [Program(fids) for fids in fids_list]
            incremental = warm.outputs(generation)
            cold = ColumnarEvaluator(example_inputs).outputs(generation)
            assert incremental == cold
