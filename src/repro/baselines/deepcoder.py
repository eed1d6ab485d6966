"""DeepCoder-like baseline: probability-guided enumerative search.

DeepCoder (Balog et al., 2017) trains a model that predicts, from the IO
examples, the probability of each DSL function appearing in the target
program, and uses those probabilities to order an enumerative search.
This reimplementation reuses the same
:class:`~repro.fitness.models.FunctionProbabilityModel` NetSyn trains for
its FP fitness and performs a best-first enumeration over complete
programs of the target length: programs are dequeued in order of
decreasing sum of log-probabilities of their functions, charged against
the candidate budget, and checked against the IO examples.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.base import Synthesizer
from repro.core.phase1 import Phase1Artifacts
from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.dsl.dce import has_dead_code
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.interpreter import Interpreter
from repro.dsl.program import Program
from repro.fitness.functions import ProbabilityMapFitness
from repro.ga.budget import SearchBudget
from repro.utils.timing import Stopwatch


class DeepCoderSynthesizer(Synthesizer):
    """Best-first enumeration ordered by a learned function-probability map."""

    name = "deepcoder"
    requires = ("fp",)

    def __init__(
        self,
        fp_artifacts: Phase1Artifacts,
        program_length: int,
        registry: FunctionRegistry = REGISTRY,
        max_frontier: int = 200_000,
        skip_dead_code: bool = True,
    ) -> None:
        if program_length <= 0:
            raise ValueError("program_length must be positive")
        self.fp_fitness = ProbabilityMapFitness(fp_artifacts.model, encoder=fp_artifacts.encoder)
        self.program_length = program_length
        self.registry = registry
        self.max_frontier = max_frontier
        self.skip_dead_code = skip_dead_code

    # ------------------------------------------------------------------
    def synthesize(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
    ) -> SynthesisResult:
        budget = budget or SearchBudget(limit=10_000)
        interpreter = Interpreter(trace=False)
        stopwatch = Stopwatch()
        stopwatch.start()

        probability_map = self.fp_fitness.probability_map(task.io_set)
        log_probs = np.log(np.clip(probability_map, 1e-6, 1.0))
        ids = list(self.registry.ids)

        # Best-first search over prefixes: priority = negated sum of log-probs
        # plus an optimistic bound (best possible extension), which makes the
        # order equivalent to enumerating complete programs by score.
        best_log = float(log_probs.max())
        counter = itertools.count()
        frontier: List[Tuple[float, int, Tuple[int, ...]]] = []
        heapq.heappush(frontier, (-best_log * self.program_length, next(counter), ()))

        found: Optional[Program] = None
        while frontier and not budget.exhausted:
            priority, _, prefix = heapq.heappop(frontier)
            if len(prefix) == self.program_length:
                candidate = Program(prefix, self.registry)
                if self.skip_dead_code and has_dead_code(candidate):
                    continue
                if self._check(candidate, task, budget, interpreter):
                    found = candidate
                    break
                continue
            # expand one position
            prefix_score = sum(log_probs[self.registry.index_of(f)] for f in prefix)
            remaining = self.program_length - len(prefix) - 1
            for fid in ids:
                score = prefix_score + log_probs[self.registry.index_of(fid)] + remaining * best_log
                heapq.heappush(frontier, (-score, next(counter), prefix + (fid,)))
            if len(frontier) > self.max_frontier:
                # keep only the most promising prefixes to bound memory
                frontier = heapq.nsmallest(self.max_frontier // 2, frontier)
                heapq.heapify(frontier)

        stopwatch.stop()
        return self._result(task, budget, stopwatch, program=found, found_by="search")
