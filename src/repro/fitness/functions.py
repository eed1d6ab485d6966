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
from repro.dsl.program import Program
from repro.execution import ExecutionEngine, program_key
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

_MISSING = object()


def trace_score_namespace(kind: str, tag) -> str:
    """Evaluation-cache namespace of one trace model's predicted scores."""
    return f"score:nnff_{kind}:{tag}"


def probability_map_namespace(tag) -> str:
    """Evaluation-cache namespace of one FP model's probability maps."""
    return f"probability_map:{tag}"


class LearnedTraceFitness(FitnessFunction):
    """NN-FF fitness: a trained :class:`TraceFitnessModel` scores candidates.

    The score of a candidate is the model's *expected* class value (a soft
    version of the predicted CF/LCS), which gives the Roulette Wheel
    smoother weights than the hard argmax.

    A scoring pass asks the executor for the candidates' traces as
    :class:`~repro.execution.TraceColumns` — the batch engine gathers them
    from the trie its solution check already filled — and encodes them
    together with the specification's IO rows, which are encoded
    once per ``io_set`` and broadcast to every candidate.

    Scoring is memoized per ``(program, io_set)`` by default: the encoder
    pads every batch to fixed, config-derived widths and forward batches
    are never singletons (a lone gene is doubled and the first row kept),
    so a program's predicted score does not depend on which other genes
    share its batch — which is what makes skipping already-scored genes
    safe.  Elites, reproduced survivors and re-visited neighbors then cost
    one lookup in the executor's
    :class:`~repro.execution.EvaluationCache` instead of a forward pass.
    The score namespace is model-specific (``cache_tag`` or the model's
    ``id``), like :class:`ProbabilityMapFitness`'s.  ``memoize=False``
    restores the historical score-everything-every-generation path (the
    bit-identity control).
    """

    #: specifications whose encoded IO rows are kept (a run scores one)
    _IO_ROWS_KEPT = 32

    def __init__(
        self,
        model: TraceFitnessModel,
        kind: str = "cf",
        encoder: Optional[FeatureEncoder] = None,
        batch_size: int = 128,
        executor: Optional[ExecutionEngine] = None,
        memoize: bool = True,
        cache_tag: Optional[str] = None,
        program_length: Optional[int] = None,
    ) -> None:
        if kind not in ("cf", "lcs"):
            raise ValueError("kind must be 'cf' or 'lcs'")
        self.model = model
        self.kind = kind
        self.encoder = encoder or FeatureEncoder(registry=model.registry)
        self.batch_size = int(batch_size)
        self.name = f"nnff_{kind}"
        self.executor = executor or ExecutionEngine()
        self.memoize = bool(memoize)
        self._score_ns = trace_score_namespace(kind, cache_tag or id(self.model))
        if memoize:
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
        columns = self.executor.traces_batch(programs, io_set, io_key=io_key)
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
        if not self.memoize:
            # historical path: forward the entire population every call
            return self._forward(programs, io_set, io_key, False)
        # one lookup per gene; each distinct uncached gene is forwarded
        # once (in first-occurrence order, so forward batches are
        # deterministic) and fanned out to every position it holds
        cache = self.executor.cache
        namespace = self._score_ns
        scores = np.zeros(len(programs))
        pending: Dict[Tuple[int, ...], Tuple[Program, List[int]]] = {}
        for index, program in enumerate(programs):
            key = program_key(program)
            cached = cache.get(namespace, (key, io_key), _MISSING)
            if cached is not _MISSING:
                scores[index] = cached
            elif key in pending:
                pending[key][1].append(index)
            else:
                pending[key] = (program, [index])
        if pending:
            fresh = [program for program, _ in pending.values()]
            values = self._forward(fresh, io_set, io_key, self.batch_size > 1)
            for (key, (_, positions)), value in zip(pending.items(), values):
                cache.put(namespace, (key, io_key), float(value))
                scores[positions] = value
        return scores

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
    ) -> None:
        self.model = model
        self.encoder = encoder or FeatureEncoder(registry=registry)
        self.registry = registry
        self.name = "nnff_fp"
        self.executor = executor or ExecutionEngine()
        # both namespaces are model-specific: executors are shared across
        # fitness instances, and two FP models must never read each
        # other's cached scores or maps.  A caller-supplied tag makes the
        # namespaces process-stable, which is what lets cache snapshots
        # cross worker boundaries (id() is process-local).
        tag = cache_tag or id(self.model)
        self._score_ns = f"score:nnff_fp:{tag}"
        self._map_ns = probability_map_namespace(tag)

    # ------------------------------------------------------------------
    def probability_map(self, io_set: IOSet) -> np.ndarray:
        """The predicted probability map for a specification (memoized per
        specification in the executor's cache)."""
        key = self.executor.io_key(io_set)
        cached = self.executor.cache.get(self._map_ns, key)
        if cached is None:
            batch = self.encoder.encode_io_batch([io_set])
            cached = self.model.predict_probability_map(batch)[0]
            self.executor.cache.put(self._map_ns, key, cached)
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


class EditDistanceFitness(FitnessFunction):
    """Hand-crafted baseline: similarity of candidate outputs to target outputs.

    The fitness is ``Σ_j 1 / (1 + edit_distance(Pζ(I_j), O_j))`` so that a
    perfect candidate scores ``m`` and scores decrease smoothly with the
    output mismatch — the standard fitness the paper argues is misleading.
    """

    def __init__(self, executor: Optional[ExecutionEngine] = None) -> None:
        self.name = "edit"
        self.executor = executor or ExecutionEngine()

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
            # every unscored candidate in one call; outputs come from (and
            # land in) the same evaluation cache the GA's solution check uses
            outputs_list = self.executor.outputs_batch(
                [programs[i] for i in pending], io_set, io_key=io_key
            )
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
