"""The execution engine: compiled, cached program evaluation.

:class:`ExecutionEngine` defines the interface the GA engine, the fitness
functions and the neighborhood search use to execute candidate programs
against an IO specification: the population methods ``outputs_batch``,
``traces_batch`` and ``satisfies_batch``.  This engine answers them with
a plain loop over its per-program methods, which makes it the oracle the
columnar :class:`~repro.execution.BatchExecutionEngine` is checked
against, and the per-program path that engine inherits for whatever its
trie cannot serve.  It combines

* the compile-once execution path (:mod:`repro.dsl.compiler`), and
* an :class:`~repro.execution.cache.EvaluationCache` memoizing outputs,
  execution traces and solution verdicts per ``(program, io_set)``,

so one candidate is interpreted at most once per specification no matter
how many layers ask about it.  Traces subsume outputs: when a trace is
already cached, outputs are derived from it instead of re-executing.

All results are deterministic functions of ``(program, io_set)``, so
caching never changes the semantics of a run — seeded GA runs are
bit-identical with and without the cache (tested in
``tests/test_execution_engine.py``).

The solution check starts with a static verdict: every DSL function's
implementation returns its declared ``return_type``, so a non-empty
program's output type is its last function's, and a program whose
output type cannot equal every example's output is rejected without
running it, looking it up or caching anything (:func:`output_types`).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.dsl.compiler import compile_program, input_signature
from repro.dsl.equivalence import IOSet
from repro.dsl.interpreter import ExecutionTrace
from repro.dsl.program import Program
from repro.dsl.types import DSLType, INT, LIST, Value, values_equal
from repro.execution.cache import EvaluationCache, io_set_key, program_key

#: cache namespaces (defined here only; the columnar engine and the
#: backend's snapshot export import them)
_NS_OUTPUTS = "outputs"
_NS_TRACES = "traces"
_NS_SOLUTIONS = "solutions"


def output_types(io_set: IOSet) -> FrozenSet[DSLType]:
    """The output types a program needs to reproduce every example.

    ``values_equal`` never equals an int to a list, so a program can only
    satisfy ``io_set`` when its output type is the type of every example
    output: the one type they share, none when they mix ints and lists,
    and either type for an IO set without examples.
    """
    kinds = {LIST if isinstance(example.output, (list, tuple)) else INT for example in io_set}
    if not kinds:
        return frozenset((INT, LIST))
    return frozenset(kinds) if len(kinds) == 1 else frozenset()


def may_satisfy(program: Program, matchable: FrozenSet[DSLType]) -> bool:
    """False when ``program`` cannot satisfy an IO set whose
    :func:`output_types` are ``matchable``: a non-empty program outputs
    its last function's declared ``return_type``.  The empty program
    outputs the default int and is left to the execution path."""
    return not program.function_ids or program.output_type() in matchable


class ExecutionEngine:
    """Compiled + cached evaluation of programs against IO specifications.

    Parameters
    ----------
    cache:
        The shared :class:`EvaluationCache`; a fresh bounded cache is
        created when omitted.  Pass ``EvaluationCache(max_entries=0)``
        for an uncached engine (results are still compiled).
    compiled:
        When False, execute on the reference interpreter instead (the
        control the compiled and columnar paths are checked against).
    """

    def __init__(self, cache: Optional[EvaluationCache] = None, compiled: bool = True) -> None:
        self.cache = cache if cache is not None else EvaluationCache()
        self.compiled = bool(compiled)
        # identity-keyed memo of io_set -> (structural key, output types);
        # a run touches a handful of specifications, each looked up
        # thousands of times.  Holding the io_set strongly pins its id, so
        # ids cannot be reused.
        self._io_memo: List[Tuple[IOSet, Tuple, FrozenSet[DSLType]]] = []

    # ------------------------------------------------------------------
    def _io_entry(self, io_set: IOSet) -> Tuple[IOSet, Tuple, FrozenSet[DSLType]]:
        """``(io_set, io_key, output_types)`` of ``io_set``, memoized."""
        for entry in self._io_memo:
            if entry[0] is io_set:
                return entry
        entry = (io_set, io_set_key(io_set), output_types(io_set))
        if len(self._io_memo) >= 32:
            del self._io_memo[0]
        self._io_memo.append(entry)
        return entry

    def io_key(self, io_set: IOSet) -> Tuple:
        """The structural key of ``io_set`` (exposed for fitness caches)."""
        return self._io_entry(io_set)[1]

    # ------------------------------------------------------------------
    def _execute_output(self, program: Program, inputs: Sequence[Value]) -> Value:
        if self.compiled:
            return compile_program(program, input_signature(inputs)).output(inputs)
        from repro.dsl.interpreter import Interpreter

        return Interpreter(trace=False, compiled=False).output_of(program, inputs)

    def _execute_trace(self, program: Program, inputs: Sequence[Value]) -> ExecutionTrace:
        if self.compiled:
            return compile_program(program, input_signature(inputs)).run(inputs, trace=True)
        from repro.dsl.interpreter import Interpreter

        return Interpreter(trace=True, compiled=False).run(program, inputs)

    # ------------------------------------------------------------------
    def outputs(self, program: Program, io_set: IOSet, io_key: Optional[Tuple] = None) -> Tuple[Value, ...]:
        """Final output of ``program`` on every example of ``io_set``.

        A result derived from already-cached execution traces counts as a
        cache *hit*: no execution happened, and the hit-rate feeding the
        benchmarks and progress events must reflect executions avoided,
        not which namespace happened to answer.
        """
        key = (program_key(program), self.io_key(io_set) if io_key is None else io_key)
        cached = self.cache.peek(_NS_OUTPUTS, key)
        if cached is not None:
            self.cache.stats.record(_NS_OUTPUTS, hit=True)
            return cached
        traces = self.cache.peek(_NS_TRACES, key)
        if traces is not None:
            self.cache.stats.record(_NS_OUTPUTS, hit=True)
            outputs = tuple(trace.output for trace in traces)
        else:
            self.cache.stats.record(_NS_OUTPUTS, hit=False)
            outputs = tuple(self._execute_output(program, example.inputs) for example in io_set)
        self.cache.put(_NS_OUTPUTS, key, outputs)
        return outputs

    def traces(self, program: Program, io_set: IOSet, io_key: Optional[Tuple] = None) -> List[ExecutionTrace]:
        """Full execution traces of ``program`` on every example."""
        key = (program_key(program), self.io_key(io_set) if io_key is None else io_key)
        cached = self.cache.get(_NS_TRACES, key)
        if cached is not None:
            return cached
        traces = [self._execute_trace(program, example.inputs) for example in io_set]
        self.cache.put(_NS_TRACES, key, traces)
        return traces

    def satisfies(self, program: Program, io_set: IOSet, io_key: Optional[Tuple] = None) -> bool:
        """True when ``program`` reproduces every example of ``io_set``.

        This is the GA's solution check.  A non-empty program whose
        output type (its last function's declared ``return_type``, which
        every DSL function's implementation returns) cannot equal every
        example's output is answered False first, with no cache lookup,
        execution or store.  Otherwise it shares the cached outputs with
        fitness scoring, so checking a candidate that a fitness function
        already executed costs one dictionary lookup.
        """
        _, key, matchable = self._io_entry(io_set)
        if not may_satisfy(program, matchable):
            return False
        return self._checked(program, io_set, key if io_key is None else io_key)

    def _checked(self, program: Program, io_set: IOSet, resolved: Tuple) -> bool:
        """The cached verdict of a program that passed :func:`may_satisfy`."""
        key = (program_key(program), resolved)
        cached = self.cache.get(_NS_SOLUTIONS, key)
        if cached is not None:
            return cached
        outputs = self.outputs(program, io_set, io_key=resolved)
        verdict = all(
            values_equal(output, example.output) for output, example in zip(outputs, io_set)
        )
        self.cache.put(_NS_SOLUTIONS, key, verdict)
        return verdict

    # ------------------------------------------------------------------
    # the population interface every consumer calls: one program at a time
    def outputs_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> List[Tuple[Value, ...]]:
        """:meth:`outputs` for each of ``programs``."""
        resolved = self.io_key(io_set) if io_key is None else io_key
        return [self.outputs(program, io_set, io_key=resolved) for program in programs]

    def traces_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> "TraceColumns":
        """:meth:`traces` for each of ``programs``, packed as
        :class:`~repro.execution.TraceColumns` (one row per program)."""
        from repro.execution.vectorized import TraceColumns

        resolved = self.io_key(io_set) if io_key is None else io_key
        traces = [self.traces(program, io_set, io_key=resolved) for program in programs]
        return TraceColumns.from_traces(programs, traces)

    def satisfies_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> List[bool]:
        """:meth:`satisfies` for each of ``programs``: the static verdict
        rejects wrong-typed programs before any cache lookup."""
        _, key, matchable = self._io_entry(io_set)
        resolved = key if io_key is None else io_key
        return [
            may_satisfy(program, matchable) and self._checked(program, io_set, resolved)
            for program in programs
        ]

    # ------------------------------------------------------------------
    # generic per-(program, io_set) memo slots for the fitness layer
    def get_cached(self, namespace: str, program: Program, io_key: Tuple):
        """Fitness-layer memo lookup (``None`` on a miss)."""
        return self.cache.get(namespace, (program_key(program), io_key))

    def put_cached(self, namespace: str, program: Program, io_key: Tuple, value) -> None:
        """Fitness-layer memo store."""
        self.cache.put(namespace, (program_key(program), io_key), value)

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Hit/miss counters of the underlying cache."""
        return self.cache.stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionEngine(compiled={self.compiled}, cache={self.cache!r})"


def uncached_engine(compiled: bool = True) -> ExecutionEngine:
    """An engine that never memoizes — the control for identity tests."""
    return ExecutionEngine(cache=EvaluationCache(max_entries=0), compiled=compiled)
