"""Concrete fitness functions the genetic algorithm can use.

* :class:`LearnedTraceFitness` — the paper's NN-FF for CF or LCS.
* :class:`ProbabilityMapFitness` — the FP fitness (and the probability
  map used to guide mutation).
* :class:`EditDistanceFitness` — the hand-crafted baseline the paper
  criticizes (output edit distance).
* :class:`OracleFitness` — the ideal upper bound that peeks at the target
  program (row "Oracle" of Tables 3 and 4).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsl.equivalence import IOSet
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.interpreter import Interpreter
from repro.dsl.program import Program
from repro.execution import ExecutionEngine, LRUCache, ScoreCache, TraceColumns, io_set_key
from repro.execution.cache import CacheStats
from repro.fitness.base import FitnessFunction
# sample_from_execution stays importable here (perfbench/tracing.py times
# sample assembly under this name); scoring itself encodes trace columns
from repro.fitness.features import FeatureEncoder, sample_from_execution  # noqa: F401
from repro.fitness.ideal import (
    common_functions,
    fp_score,
    ideal_fitness,
    lcs_length,
    output_edit_distance,
)
from repro.fitness.models import FunctionProbabilityModel, TraceFitnessModel


def _io_set_key(io_set: IOSet) -> Tuple:
    """Hashable key for an IO specification (used for caching).

    Delegates to the structural :func:`repro.execution.io_set_key`: the
    key is the frozen content of the examples, not Python's process-salted
    ``hash()``, so it is stable (and shareable) across worker processes.
    """
    return io_set_key(io_set)


class LearnedTraceFitness(FitnessFunction):
    """NN-FF fitness: a trained :class:`TraceFitnessModel` scores candidates.

    The score of a candidate is the model's *expected* class value (a soft
    version of the predicted CF/LCS), which gives the Roulette Wheel
    smoother weights than the hard argmax.

    A scoring pass asks the executor for the candidates' traces as
    :class:`~repro.execution.TraceColumns` — a batch engine gathers them
    from the trie its solution check already filled, a serial engine's
    per-program traces are packed into the same columns — and encodes
    them together with the specification's IO rows, which are encoded
    once per ``io_set`` and broadcast to every candidate.

    Scoring is memoized per ``(program, io_set)`` by default: the encoder
    pads every batch to fixed, config-derived widths and forward batches
    are never singletons (a lone gene is doubled and the first row kept),
    so a program's predicted score does not depend on which other genes
    share its batch — which is what makes skipping already-scored genes
    safe.  Elites, reproduced survivors and re-visited neighbors then cost
    one :class:`~repro.execution.ScoreCache` lookup instead of a forward
    pass.  ``memoize=False`` restores the historical
    score-everything-every-generation path (the bit-identity control).
    """

    #: specifications whose encoded IO rows are kept (a run scores one)
    _IO_ROWS_KEPT = 32

    def __init__(
        self,
        model: TraceFitnessModel,
        kind: str = "cf",
        encoder: Optional[FeatureEncoder] = None,
        interpreter: Optional[Interpreter] = None,
        batch_size: int = 128,
        executor: Optional[ExecutionEngine] = None,
        memoize: bool = True,
        score_cache: Optional[ScoreCache] = None,
        score_cache_size: int = 100_000,
        program_length: Optional[int] = None,
    ) -> None:
        if kind not in ("cf", "lcs"):
            raise ValueError("kind must be 'cf' or 'lcs'")
        self.model = model
        self.kind = kind
        self.encoder = encoder or FeatureEncoder(registry=model.registry)
        self.interpreter = interpreter or Interpreter()
        self.batch_size = int(batch_size)
        self.name = f"nnff_{kind}"
        # a default engine honors the interpreter's execution mode
        self.executor = executor or ExecutionEngine(compiled=self.interpreter.compiled)
        self.score_cache: Optional[ScoreCache] = None
        if memoize:
            # explicit None check: an empty cache is falsy (len() == 0)
            if score_cache is None:
                score_cache = ScoreCache(capacity=score_cache_size, namespace=f"score:{self.name}")
            self.score_cache = score_cache
            # Batch-shape invariance: pad value sequences and the step
            # dimension to fixed widths derived from configuration (the
            # encoder's own truncation bound and the run's program
            # length), never from whichever genes happen to need scoring.
            self.encoder = dataclasses.replace(
                self.encoder,
                pad_value_width=self.encoder.pad_value_width or self.encoder.max_value_length,
                pad_program_length=program_length or self.encoder.pad_program_length,
            )
        #: ``io_key`` -> the specification's encoded IO rows
        self._io_rows: Dict[Tuple, Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _columns(self, programs: Sequence[Program], io_set: IOSet, io_key: Tuple) -> TraceColumns:
        """The candidates' traces on every example, as step columns."""
        if getattr(self.executor, "is_batch", False):
            return self.executor.traces_batch(programs, io_set, io_key=io_key)
        traces = [self.executor.traces(program, io_set, io_key=io_key) for program in programs]
        return TraceColumns.from_traces(programs, traces)

    def _io_for(self, io_set: IOSet, io_key: Tuple) -> Dict[str, np.ndarray]:
        """The specification's encoded IO rows (memoized per ``io_key``)."""
        rows = self._io_rows.get(io_key)
        if rows is None:
            if len(self._io_rows) >= self._IO_ROWS_KEPT:
                self._io_rows.clear()
            rows = self.encoder.encode_io_batch([io_set])
            self._io_rows[io_key] = rows
        return rows

    def _forward(self, programs: Sequence[Program], io_set: IOSet, io_key: Tuple, pad_singletons: bool) -> np.ndarray:
        """Predicted fitness per program, in ``batch_size`` chunks.

        With ``pad_singletons`` a 1-program chunk is encoded twice and the
        first prediction kept: BLAS routes single-row matmuls through a
        different (gemv) kernel whose rounding can differ from the batched
        one, and a 2-row batch restores the batched kernel — keeping every
        score identical to the value the gene would get inside any larger
        batch.  (``batch_size=1`` scoring never pads: there the historical
        contract is one single-row forward per gene.)
        """
        columns = self._columns(programs, io_set, io_key)
        io = self._io_for(io_set, io_key)
        total = len(columns)
        scores = np.zeros(total)
        for start in range(0, total, self.batch_size):
            stop = min(start + self.batch_size, total)
            if pad_singletons and stop - start == 1:
                batch = self.encoder.encode_trace_batch(columns.take([start, start]), io)
                scores[start] = self.model.predict_fitness(batch)[0]
            else:
                chunk = columns if stop - start == total else columns.take(np.arange(start, stop))
                batch = self.encoder.encode_trace_batch(chunk, io)
                scores[start:stop] = self.model.predict_fitness(batch)
        return scores

    def score(self, programs: Sequence[Program], io_set: IOSet) -> np.ndarray:
        if not programs:
            return np.zeros(0)
        io_key = self.executor.io_key(io_set)
        if self.score_cache is None:
            # historical path: forward the entire population every call
            return self._forward(programs, io_set, io_key, False)
        scores, pending = self.score_cache.partition(programs, io_key)
        if pending:
            fresh = [program for program, _ in pending.values()]
            values = self._forward(fresh, io_set, io_key, self.batch_size > 1)
            for (key, (_, positions)), value in zip(pending.items(), values):
                self.score_cache.put_key(key, io_key, value)
                scores[positions] = value
        return scores

    def cache_stats(self) -> List[CacheStats]:
        return [] if self.score_cache is None else [self.score_cache.stats]

    def mutation_scores(self, program: Program, io_set: IOSet) -> Optional[np.ndarray]:
        """Score each position by how much removing confidence it carries.

        The paper selects the mutation point using the learned NN-FF.  We
        approximate "how wrong is position k" by how much the predicted
        fitness *improves* when the position is replaced by each candidate
        being equally likely — cheaply estimated as the drop in predicted
        fitness attributable to that position via leave-one-out masking is
        too expensive per generation, so instead we return a uniform prior
        here and let :class:`ProbabilityMapFitness` provide sharper
        guidance when FP mutation is enabled.
        """
        return None


class ProbabilityMapFitness(FitnessFunction):
    """FP fitness: sum of predicted membership probabilities of a gene's functions."""

    def __init__(
        self,
        model: FunctionProbabilityModel,
        encoder: Optional[FeatureEncoder] = None,
        registry: FunctionRegistry = REGISTRY,
        executor: Optional[ExecutionEngine] = None,
        cache_tag: Optional[str] = None,
        map_cache: Optional[LRUCache] = None,
        map_cache_size: int = 512,
    ) -> None:
        self.model = model
        self.encoder = encoder or FeatureEncoder(registry=registry)
        self.registry = registry
        self.name = "nnff_fp"
        self.executor = executor or ExecutionEngine()
        # score cache namespace is model-specific: executors are shared
        # across fitness instances, and two FP models must never read
        # each other's cached scores.  A caller-supplied tag makes the
        # namespace process-stable, which is what lets cache snapshots
        # cross worker boundaries (id() is process-local).
        self._score_ns = f"score:nnff_fp:{cache_tag or id(self.model)}"
        # probability maps are one small vector per specification, but a
        # long-lived serving session sees unboundedly many specs — LRU
        self._cache = map_cache if map_cache is not None else LRUCache(map_cache_size)

    # ------------------------------------------------------------------
    def probability_map(self, io_set: IOSet) -> np.ndarray:
        """The predicted probability map for a specification (LRU-cached)."""
        key = self.executor.io_key(io_set)
        cached = self._cache.get(key, namespace="probability_map")
        if cached is None:
            batch = self.encoder.encode_io_batch([io_set])
            cached = self.model.predict_probability_map(batch)[0]
            self._cache.put(key, cached)
        return cached

    def score(self, programs: Sequence[Program], io_set: IOSet) -> np.ndarray:
        if not programs:
            return np.zeros(0)
        prob_map = self.probability_map(io_set)
        io_key = self.executor.io_key(io_set)
        scores = np.zeros(len(programs))
        for index, program in enumerate(programs):
            cached = self.executor.get_cached(self._score_ns, program, io_key)
            if cached is None:
                cached = float(fp_score(program, prob_map, self.registry))
                self.executor.put_cached(self._score_ns, program, io_key, cached)
            scores[index] = cached
        return scores

    def cache_stats(self) -> List[CacheStats]:
        return [self._cache.stats]


class EditDistanceFitness(FitnessFunction):
    """Hand-crafted baseline: similarity of candidate outputs to target outputs.

    The fitness is ``Σ_j 1 / (1 + edit_distance(Pζ(I_j), O_j))`` so that a
    perfect candidate scores ``m`` and scores decrease smoothly with the
    output mismatch — the standard fitness the paper argues is misleading.
    """

    def __init__(
        self,
        interpreter: Optional[Interpreter] = None,
        executor: Optional[ExecutionEngine] = None,
    ) -> None:
        self.interpreter = interpreter or Interpreter(trace=False)
        self.name = "edit"
        # a default engine honors the interpreter's execution mode
        self.executor = executor or ExecutionEngine(compiled=self.interpreter.compiled)

    def score(self, programs: Sequence[Program], io_set: IOSet) -> np.ndarray:
        io_key = self.executor.io_key(io_set)
        scores = np.zeros(len(programs))
        pending: List[int] = []
        for index, program in enumerate(programs):
            cached = self.executor.get_cached("score:edit", program, io_key)
            if cached is None:
                pending.append(index)
            else:
                scores[index] = cached
        if pending:
            # batch-capable executors evaluate every unscored candidate in
            # one columnar pass; either way outputs come from (and land in)
            # the same evaluation cache the GA's solution check uses
            if getattr(self.executor, "is_batch", False):
                outputs_list = self.executor.outputs_batch(
                    [programs[i] for i in pending], io_set, io_key=io_key
                )
            else:
                outputs_list = [
                    self.executor.outputs(programs[i], io_set, io_key=io_key) for i in pending
                ]
            for index, outputs in zip(pending, outputs_list):
                value = float(
                    sum(
                        1.0 / (1.0 + output_edit_distance(output, example.output))
                        for output, example in zip(outputs, io_set)
                    )
                )
                self.executor.put_cached("score:edit", programs[index], io_key, value)
                scores[index] = value
        return scores


class OracleFitness(FitnessFunction):
    """Ideal fitness that compares candidates directly against the target program.

    Impossible in practice (the target is unknown); used as the upper
    bound ``Oracle_{LCS|CF}`` in the paper's Tables 3 and 4.
    """

    def __init__(
        self,
        target: Program,
        kind: str = "lcs",
        executor: Optional[ExecutionEngine] = None,
    ) -> None:
        if kind not in ("cf", "lcs"):
            raise ValueError("kind must be 'cf' or 'lcs'")
        self.target = target
        self.kind = kind
        self.name = f"oracle_{kind}"
        self.executor = executor or ExecutionEngine()
        # oracle scores depend on the target, not the IO examples
        self._target_key = ("target",) + tuple(target.function_ids)

    def score(self, programs: Sequence[Program], io_set: IOSet) -> np.ndarray:
        scores = np.zeros(len(programs))
        for index, program in enumerate(programs):
            cached = self.executor.get_cached(self.name, program, self._target_key)
            if cached is None:
                cached = float(ideal_fitness(self.kind, program, self.target))
                self.executor.put_cached(self.name, program, self._target_key, cached)
            scores[index] = cached
        return scores

    def probability_map(self, io_set: IOSet) -> np.ndarray:
        """The exact membership vector of the target (a perfect FP map)."""
        from repro.fitness.ideal import function_membership

        return function_membership(self.target, self.target.registry)
