"""Tests for the columnar population evaluator and the batch engine.

The load-bearing properties:

* the vectorized evaluator, and the batch engine around it, are value-
  and trace-identical to the compiled and reference-interpreter paths on
  random populations (shared prefixes, mixed signatures, empty programs,
  default-argument steps) — checked by hand-rolled sweeps and a
  hypothesis property test;
* :class:`BatchExecutionEngine` feeds the same cache namespaces with the
  same values as the serial engine, so every tier and snapshot observes
  identical state;
* seeded GA runs are bit-identical between the columnar engine and the
  per-candidate control (``tests/controls.py``), serially and through
  the parallel runner;
* non-catalog registries (0-ary and 3-ary functions) execute correctly
  through the compiled hot path, and whatever the trie cannot serve
  (examples of two signatures, inputs past the int64-safe bound,
  registries without kernels or with fids outside the packed range)
  takes the batch engine's per-program path with the reference engine's
  outputs, traces and verdicts and no kernel dispatch;
* persistent tries grown by many small GA-shaped rounds equal a cold
  rebuild, a registry swap rebuilds the IO set's trie, and the engine's
  bounded evaluator set keeps verdicts and cumulative kernel counters
  across evictions;
* on the throughput benchmark's reduced workload, the columnar engine
  dispatches fewer kernels than the per-candidate path runs programs, and
  a warm trie inserts fewer nodes than cold rebuilds (the benchmark's
  timing gates, as counts).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetSynConfig
from repro.dsl import Interpreter, Program, REGISTRY, compile_program, input_signature
from repro.dsl.equivalence import IOExample
from repro.dsl.functions import DSLFunction, FunctionRegistry
from repro.dsl.types import DSLType
from repro.dsl.vector_ops import SAFE_INT_BOUND
from repro.execution import (
    BatchExecutionEngine,
    ColumnarEvaluator,
    EvaluationCache,
    ExecutionEngine,
    vectorized,
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


def _io_set(example_inputs, target):
    """Examples whose outputs are ``target``'s, so some verdicts are True."""
    reference = Interpreter(trace=False, compiled=False)
    return [
        IOExample(inputs=tuple(inputs), output=reference.output_of(target, inputs))
        for inputs in example_inputs
    ]


def _assert_engine_matches_reference(population, io_set):
    """A cache-less :class:`BatchExecutionEngine` gives ``population`` the
    outputs, verdicts and trace columns (which saturate ints beyond
    ``SAFE_INT_BOUND``) of ``ExecutionEngine(compiled=False)``; returns
    the batch engine."""
    reference = ExecutionEngine(cache=EvaluationCache(max_entries=0), compiled=False)
    engine = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
    assert engine.outputs_batch(population, io_set) == reference.outputs_batch(population, io_set)
    assert engine.satisfies_batch(population, io_set) == reference.satisfies_batch(population, io_set)
    got = engine.traces_batch(population, io_set)
    want = reference.traces_batch(population, io_set)
    for name in ("fids", "lengths", "values", "sizes"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    return engine


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
        # examples of two input signatures: no single trie serves them, so
        # the engine answers every batch on its per-program path
        example_inputs = [
            [[3, 1, 2]],
            [5, [4, 4]],
            [[9, -2, 7, 0]],
            [1, [0]],
        ]
        rng = np.random.default_rng(13)
        population = _population(rng, 20)
        with pytest.raises(ValueError):
            ColumnarEvaluator(example_inputs)
        engine = _assert_engine_matches_reference(population, _io_set(example_inputs, population[0]))
        assert engine.kernel_stats()["dispatch_count"] == 0

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
        # through the engine: one trie when the examples share a signature,
        # the per-program path when they do not
        engine = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        io_set = _io_set(example_inputs, population[0])
        outputs = engine.outputs_batch(population, io_set)
        for program, out in zip(population, outputs):
            assert list(out) == _reference_outputs(program, example_inputs)
            compiled_out = [
                compile_program(program, input_signature(inputs)).output(inputs)
                for inputs in example_inputs
            ]
            assert list(out) == compiled_out
        reference = [_reference_traces(program, example_inputs) for program in population]
        _assert_columns_match(engine.traces_batch(population, io_set), population, reference)


class TestBatchExecutionEngine:
    def _io_set(self, seed=5, m=4):
        rng = np.random.default_rng(seed)
        examples = []
        for _ in range(m):
            inputs = ([int(v) for v in rng.integers(-50, 51, size=6)],)
            examples.append(IOExample(inputs=inputs, output=0))
        return examples

    def test_batch_results_equal_serial(self):
        """The batch engine's and the scalar engines' batch methods equal
        the per-program results of the reference interpreter."""
        rng = np.random.default_rng(17)
        io_set = self._io_set()
        population = _population(rng, 30)
        serial = ExecutionEngine(cache=EvaluationCache(max_entries=0), compiled=False)
        expected_outputs = [serial.outputs(p, io_set) for p in population]
        expected_verdicts = [serial.satisfies(p, io_set) for p in population]
        reference = [serial.traces(program, io_set) for program in population]
        engines = (
            serial,
            ExecutionEngine(cache=EvaluationCache(max_entries=0)),
            BatchExecutionEngine(cache=EvaluationCache(max_entries=0)),
        )
        for engine in engines:
            assert engine.outputs_batch(population, io_set) == expected_outputs
            assert engine.satisfies_batch(population, io_set) == expected_verdicts
            columns = engine.traces_batch(population, io_set)
            _assert_columns_match(columns, population, reference)
        assert engines[-1].kernel_stats()["dispatch_count"] > 0

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

    def test_empty_batch_is_not_a_cache_hit(self):
        engine = BatchExecutionEngine()
        io_set = self._io_set()
        assert engine.satisfies_batch([], io_set) == []
        assert engine.outputs_batch([], io_set) == []
        assert engine.kernel_stats()["batch_full_hits"] == 0

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
        # registries whose functions have no kernel get no trie; the engine
        # runs them per program, including a constant past the int64-safe
        # range
        big = FunctionRegistry([
            DSLFunction(1, "BIG", (), INT, lambda: 2 ** 40),
            DSLFunction(2, "DBL", (LIST,), LIST, lambda xs: [2 * v for v in xs]),
            DSLFunction(3, "LEN", (LIST,), INT, lambda xs: len(xs)),
        ])
        cases = [
            (self._registry(), [[2, 5, -3, 8]], [[1]], ([1], [2], [1, 2], [3, 2, 1], [1, 1, 2, 3], [])),
            (big, [[1, 2, 3]], [[4, -5]], ([1], [2, 1], [2, 3], [2], [2, 2, 3], [3])),
        ]
        for registry, *example_inputs, fid_lists in cases:
            population = [Program(fids, registry=registry) for fids in fid_lists]
            io_set = _io_set(example_inputs, population[1])
            engine = _assert_engine_matches_reference(population, io_set)
            assert engine.kernel_stats()["dispatch_count"] == 0

    @pytest.mark.parametrize("odd_fid", [-1, 2 ** 20])
    def test_negative_function_ids_take_the_compiled_path(self, odd_fid):
        # packed (parent, fid) codes need fids in [0, 2**20): a negative fid
        # would alias another node's code and a larger one overflows the
        # packing, so such a registry gets no trie and every batch over it,
        # even one using only in-range fids, runs on the compiled path
        registry = FunctionRegistry([
            DSLFunction(odd_fid, "NEG", (LIST,), LIST, lambda xs: [-v for v in xs]),
            DSLFunction(2, "DBL", (LIST,), LIST, lambda xs: [2 * v for v in xs]),
            DSLFunction(3, "REV", (LIST,), LIST, lambda xs: list(reversed(xs))),
        ])
        example_inputs = [[[1, 2, 3]], [[4, -5]]]
        population = [
            Program(fids, registry=registry)
            for fids in ([2, odd_fid, 3], [2, 3], [odd_fid], [3, odd_fid, odd_fid])
        ]
        in_range = [Program(fids, registry=registry) for fids in ([2, 3], [3, 2, 2], [3])]
        io_set = _io_set(example_inputs, population[1])
        engine = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        assert engine.outputs_batch([population[0]], io_set) == [([-6, -4, -2], [10, -8])]
        for batch in (population, in_range):
            checked = _assert_engine_matches_reference(batch, io_set)
            _assert_columns_match(
                checked.traces_batch(batch, io_set),
                batch,
                [_reference_traces(p, example_inputs) for p in batch],
            )
            assert checked.kernel_stats()["dispatch_count"] == 0

    def test_mixed_registries_take_the_per_program_path(self):
        # equal fids name different functions in the two registries, so a
        # batch mixing them cannot share one trie (the fid sequences differ:
        # the engine dedups a batch by fid sequence)
        custom = self._registry()
        example_inputs = [[[4, -9, 12, 3]], [[7]]]
        population = [Program(fids) for fids in ([1], [2, 3], [3, 3])] + [
            Program(fids, registry=custom) for fids in ([3, 1, 2], [2, 2], [1, 3], [2])
        ]
        engine = _assert_engine_matches_reference(population, _io_set(example_inputs, population[2]))
        assert engine.kernel_stats()["dispatch_count"] == 0

    def test_equal_fids_of_two_registries_keep_their_own_outputs(self):
        # Program([1]) is ACCESS over REGISTRY and CONST7 over the custom
        # registry: one batch must not dedup them into one evaluation
        custom = self._registry()
        example_inputs = [[[4, -9, 12, 3]], [[7]]]
        ours, theirs = Program([1]), Program([1], registry=custom)
        io_set = _io_set(example_inputs, ours)
        engine = BatchExecutionEngine()
        expected = [tuple(_reference_outputs(p, example_inputs)) for p in (ours, theirs, ours)]
        assert expected[0] != expected[1]
        assert engine.outputs_batch([ours, theirs, ours], io_set) == expected

    def test_inputs_past_the_safe_bound_take_the_compiled_path(self):
        # an input the int64 columns cannot hold exactly: no trie serves
        # the IO set, so no kernel is dispatched
        example_inputs = [[[SAFE_INT_BOUND + 1, 2, -3]], [[4, -(2 ** 40)]]]
        rng = np.random.default_rng(37)
        population = _population(rng, 20)
        with pytest.raises(ValueError):
            ColumnarEvaluator(example_inputs)
        engine = _assert_engine_matches_reference(population, _io_set(example_inputs, population[0]))
        assert engine.kernel_stats()["dispatch_count"] == 0


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

    @pytest.mark.parametrize("method", ["edit", "netsyn_cf"])
    def test_input_past_the_safe_bound_solves_like_the_scalar_engine(
        self, method, tiny_netsyn_config, tiny_trace_artifacts, tiny_fp_artifacts, tiny_task
    ):
        # a served task may carry any int (protocol.task_from_wire): an
        # input no int64 column can hold sends the IO set to the batch
        # engine's per-program path, which must run the scalar engine's job
        from controls import ScalarNetSynBackend
        from repro.core.netsyn import NetSynBackend
        from repro.ga.budget import SearchBudget

        first, *rest = tiny_task.io_set
        inputs = list(first.inputs)
        inputs[0] = [2 ** 64] + inputs[0][1:] if isinstance(inputs[0], list) else 2 ** 64
        output = Interpreter(trace=False, compiled=False).output_of(tiny_task.target, inputs)
        io_set = [IOExample(inputs=tuple(inputs), output=output)] + rest
        if method == "edit":
            config = tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)
            trace = None
        else:
            config, trace = tiny_netsyn_config, tiny_trace_artifacts
        runs = []
        for backend_class in (NetSynBackend, ScalarNetSynBackend):
            backend = backend_class(config).set_models(trace_artifacts=trace, fp_artifacts=tiny_fp_artifacts)
            result = backend.solve_io(
                io_set, target=tiny_task.target, budget=SearchBudget(limit=600), seed=1
            )
            runs.append((backend, result))
        (batch_backend, fast), (_scalar_backend, control) = runs
        assert fast.generations > 0
        assert fast.found == control.found
        assert fast.program == control.program
        assert fast.found_by == control.found_by
        assert fast.generations == control.generations
        assert fast.candidates_used == control.candidates_used
        assert fast.average_fitness_history == control.average_fitness_history
        assert fast.best_fitness_history == control.best_fitness_history
        assert batch_backend._executor().kernel_stats()["dispatch_count"] == 0

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
    """Incremental tries: warm results identical to cold, registry swaps,
    and budget-bounded eviction."""

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

    def test_registry_swap_rebuilds_the_trie(self):
        example_inputs = [[[4, 5, 6]], [[1]]]
        io_set = [IOExample(inputs=tuple(inputs), output=0) for inputs in example_inputs]
        # no cache: program keys are fid sequences, so every batch must
        # reach the engine's evaluator
        engine = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        reverse = REGISTRY.by_name("REVERSE").fid
        sort = REGISTRY.by_name("SORT").fid
        population = [Program([reverse]), Program([reverse, sort]), Program([sort])]

        def check(batch):
            assert engine.outputs_batch(batch, io_set) == [
                tuple(_reference_outputs(p, example_inputs)) for p in batch
            ]
            return engine.kernel_stats()["trie_nodes_inserted"]

        assert check(population) == 3
        # same fids resolved against a different registry object without
        # kernels: results follow the new registry, on the per-program path
        doubled = FunctionRegistry([
            DSLFunction(reverse, "R2", (LIST,), LIST, lambda xs: list(xs) + list(xs)),
            DSLFunction(sort, "S2", (LIST,), LIST, lambda xs: sorted(xs, reverse=True)),
        ])
        swapped = [Program(p.function_ids, registry=doubled) for p in population]
        assert check(swapped) == 3
        # a servable registry object (a catalog subset) gets a trie of its
        # own, and swapping back rebuilds the original registry's trie
        subset = FunctionRegistry([REGISTRY.by_id(reverse), REGISTRY.by_id(sort)])
        assert check([Program(p.function_ids, registry=subset) for p in population]) == 6
        assert check(population) == 9
        assert len(engine._evaluators) == 1

    def test_small_node_budget_evicts_and_rebuilds(self, monkeypatch):
        monkeypatch.setattr(vectorized, "TRIE_NODE_BUDGET", 40)
        example_inputs = self._inputs(seed=29)
        evaluator = ColumnarEvaluator(example_inputs)
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
        # through cache-less engines: one trie when the examples share a
        # signature, the per-program path when they do not
        io_set = [IOExample(inputs=tuple(inputs), output=0) for inputs in example_inputs]
        warm = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        for fids_list in program_lists:
            generation = [Program(fids) for fids in fids_list]
            incremental = warm.outputs_batch(generation, io_set)
            cold = BatchExecutionEngine(cache=EvaluationCache(max_entries=0)).outputs_batch(generation, io_set)
            assert incremental == cold
            assert incremental == [tuple(_reference_outputs(p, example_inputs)) for p in generation]

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_property_ga_shaped_growth_equals_a_cold_rebuild(self, data):
        # GA traffic: dozens of batches of a few programs, each round adding
        # a few nodes per level, so every level's buffers outgrow their
        # capacity several times.  With one list input, ZIPWITH's second
        # argument binds the empty default, so programs that start with it
        # store zero-width lists; int-only rounds follow those list rounds,
        # and a late round starting with a full-width list step is wider
        # than anything stored before it.
        value = st.integers(min_value=-20, max_value=20)
        signature = data.draw(st.sampled_from([(LIST,), (LIST, INT), (INT, LIST)]), label="sig")
        example = st.tuples(
            *(st.lists(value, min_size=1, max_size=6) if t is LIST else value for t in signature)
        ).map(list)
        example_inputs = data.draw(st.lists(example, min_size=1, max_size=4), label="examples")

        def fids(*names):
            return [REGISTRY.by_name(name).fid for name in names]

        starts = {
            "narrow": fids("ZIPWITH(+)", "ZIPWITH(min)"),
            "ints": fids("SUM", "MAXIMUM", "COUNT(even)", "LAST", "ACCESS"),
            "wide": fids("SORT", "REVERSE", "MAP(*2)", "SCANL1(+)"),
        }
        tails = {
            "narrow": fids("FILTER(>0)", "TAKE", "DROP", "HEAD", "COUNT(>0)", "SORT", "MAP(-1)"),
            "ints": starts["ints"],
            "wide": fids("FILTER(odd)", "TAKE", "SUM", "REVERSE", "ZIPWITH(+)", "MAP(*2)"),
        }
        phases = ["narrow"] * data.draw(st.integers(12, 20), label="narrow rounds")
        phases += ["ints"] * data.draw(st.integers(4, 8), label="int rounds")
        phases += ["wide"] + ["narrow", "ints", "wide"] * data.draw(st.integers(2, 4), label="tail")
        warm = ColumnarEvaluator(example_inputs)
        reference = Interpreter(trace=True, compiled=False)
        seen = {phase: [] for phase in starts}
        prefixes = set()
        widths = []
        for phase in phases:
            batch = []
            for _ in range(data.draw(st.integers(1, 8), label="batch size")):
                # extend a program an earlier round of this phase built, or
                # start a fresh one
                if seen[phase] and data.draw(st.booleans(), label="extend"):
                    head = list(data.draw(st.sampled_from(seen[phase])).function_ids)[:4]
                else:
                    head = [data.draw(st.sampled_from(starts[phase]), label="start")]
                tail = data.draw(st.lists(st.sampled_from(tails[phase]), max_size=3), label="tail")
                batch.append(Program((head + tail)[:5]))
            seen[phase] += batch
            traces = [[reference.run(p, inputs) for inputs in example_inputs] for p in batch]
            assert warm.outputs(batch) == [[t.output for t in per] for per in traces]
            assert warm.outputs(batch) == ColumnarEvaluator(example_inputs).outputs(batch)
            columns = warm.trace_columns(batch)
            _assert_columns_match(columns, batch, traces)
            cold = ColumnarEvaluator(example_inputs).trace_columns(batch)
            for name in ("fids", "lengths", "values", "sizes"):
                assert np.array_equal(getattr(columns, name), getattr(cold, name))
            for program in batch:
                seq = program.function_ids
                prefixes.update(seq[: k + 1] for k in range(len(seq)))
            widths.append(warm.levels[0].list_vals.shape[1])
        # the scenario under test happened: level 0 stored only zero-width
        # lists until the first wide round, which widened its buffer
        first_wide = phases.index("wide")
        assert widths[first_wide - 1] == 0 < widths[first_wide]
        stats = warm.stats()
        assert stats["trie_evictions"] == 0
        # one trie, holding every distinct prefix once
        assert stats["trie_nodes_inserted"] == len(prefixes)


class TestEvaluatorBound:
    """The batch engine keeps a bounded set of evaluators (one per IO set)
    and its kernel counters stay cumulative across evictions."""

    COUNTERS = (
        "dispatch_count",
        "fused_group_count",
        "trie_leaf_lookups",
        "trie_leaf_hits",
        "trie_nodes_inserted",
        "trie_evictions",
    )

    def _io_set(self, seed: int):
        rng = np.random.default_rng(seed)
        return [
            IOExample(inputs=([int(v) for v in rng.integers(-30, 31, size=5)],), output=0)
            for _ in range(3)
        ]

    def test_kernel_stats_stay_cumulative_past_the_bound(self):
        population = _population(np.random.default_rng(7), 30)
        engine = BatchExecutionEngine(cache=EvaluationCache())
        expected = dict.fromkeys(self.COUNTERS, 0)
        previous = engine.kernel_stats()
        for k in range(40):
            io_set = self._io_set(100 + k)
            engine.satisfies_batch(population, io_set)
            # a distinct IO set gets a new evaluator: its counters are what
            # the same batch costs a fresh engine
            alone = BatchExecutionEngine(cache=EvaluationCache())
            alone.satisfies_batch(population, io_set)
            for field in self.COUNTERS:
                expected[field] += alone.kernel_stats()[field]
            now = engine.kernel_stats()
            for field in self.COUNTERS:
                assert now[field] >= previous.get(field, 0), (k, field)
            previous = now
        assert {field: previous[field] for field in self.COUNTERS} == expected

    def test_evicted_io_sets_recheck_identically(self):
        bound = BatchExecutionEngine.MAX_EVALUATORS
        rng = np.random.default_rng(11)
        population = _population(rng, 25)
        io_sets = []
        for k in range(bound + 3):
            io_set = self._io_set(200 + k)
            # a target some program meets, so verdicts are not all False
            target = Interpreter(trace=False, compiled=False)
            io_sets.append([
                IOExample(inputs=ex.inputs, output=target.output_of(population[k], ex.inputs))
                for ex in io_set
            ])
        serial = ExecutionEngine(cache=EvaluationCache(max_entries=0))
        expected = [[serial.satisfies(p, io_set) for p in population] for io_set in io_sets]
        # no cache: every check reaches the evaluators
        engine = BatchExecutionEngine(cache=EvaluationCache(max_entries=0))
        previous = engine.kernel_stats()
        inserted = []
        for _sweep in range(2):
            for io_set, verdicts in zip(io_sets, expected):
                assert engine.satisfies_batch(population, io_set) == verdicts
                assert len(engine._evaluators) <= bound
                now = engine.kernel_stats()
                for field in self.COUNTERS:
                    assert now[field] >= previous.get(field, 0)
                previous = now
            inserted.append(previous["trie_nodes_inserted"])
        assert any(any(verdicts) for verdicts in expected)
        # more IO sets than the bound, cycled in order: every set was evicted
        # before its re-check, which rebuilt its trie from empty
        assert inserted[1] == 2 * inserted[0] > 0


class TestReducedWorkloadCounts:
    """The count analogues of the throughput benchmark's wall-clock gates,
    on its seeded reduced workload (4 islands x 75 genes, 3 rounds).

    ``benchmarks/bench_execution_throughput.py`` times the cold columnar
    engine against the per-candidate compiled path, and the warm trie
    against a cold rebuild per generation.  Those ratios depend on
    machine load; the work each strategy does does not.
    """

    ROUNDS = 3

    @pytest.fixture(scope="class")
    def workload(self):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_execution_throughput.py"
        spec = importlib.util.spec_from_file_location("bench_execution_throughput", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        return bench._generation_stream(n_islands=4, island_size=75)

    @staticmethod
    def _cold_engine():
        return BatchExecutionEngine(cache=EvaluationCache(max_entries=0))

    def test_columnar_dispatches_below_per_candidate_evaluations(self, workload):
        generations, io_set = workload
        programs = generations[-1]
        engine = self._cold_engine()
        serial = ExecutionEngine(cache=EvaluationCache(max_entries=0))
        assert engine.outputs_batch(programs, io_set) == serial.outputs_batch(programs, io_set)
        # the per-candidate path runs every (program, example) pair once
        assert engine.kernel_stats()["dispatch_count"] < len(programs) * len(io_set)

    def test_warm_trie_inserts_below_cold_rebuilds(self, workload):
        generations, io_set = workload
        warm = self._cold_engine()
        cold_inserted = 0
        for _round in range(self.ROUNDS):
            for population in generations:
                cold = self._cold_engine()
                assert warm.outputs_batch(population, io_set) == cold.outputs_batch(population, io_set)
                cold_inserted += cold.kernel_stats()["trie_nodes_inserted"]
        warm_inserted = warm.kernel_stats()["trie_nodes_inserted"]
        assert 0 < warm_inserted < cold_inserted
