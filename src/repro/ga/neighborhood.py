"""Restricted local neighborhood search (Section 4.2.2, Algorithm 1).

When the GA's average fitness saturates, NetSyn takes the top-``N``
scoring genes and examines their 1-edit neighborhoods — every gene that
differs in exactly one position — looking for a program equivalent to the
target under the IO examples.  Two constructions are provided:

* **BFS** — the neighborhood of a gene is scanned breadth-first: every
  position, every alternative operation.
* **DFS** — positions are processed depth-first; after scanning one
  position the best-scoring neighbor replaces the gene before descending
  to the next position, so later positions are explored relative to the
  improved gene.

The complexity per gene is ``O(len(ζ) · |ΣDSL|)`` candidate programs,
each charged against the shared :class:`~repro.ga.budget.SearchBudget`.
Each 1-edit sweep is solution-checked in one ``satisfies_batch`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import NeighborhoodConfig
from repro.dsl.equivalence import IOSet
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.program import Program
from repro.execution import ExecutionEngine
from repro.fitness.base import FitnessFunction
from repro.ga.budget import SearchBudget


@dataclass
class NeighborhoodStats:
    """Counters describing the neighborhood searches performed so far."""

    invocations: int = 0
    candidates_examined: int = 0
    successes: int = 0


class NeighborhoodSearch:
    """BFS/DFS restricted local search around top-scoring genes."""

    def __init__(
        self,
        config: Optional[NeighborhoodConfig] = None,
        fitness: Optional[FitnessFunction] = None,
        registry: FunctionRegistry = REGISTRY,
        executor: Optional[ExecutionEngine] = None,
    ) -> None:
        self.config = config or NeighborhoodConfig()
        self.config.validate()
        self.fitness = fitness
        self.registry = registry
        # Shared with the GA engine: neighbors the GA already executed
        # (or will execute) hit the same cache.
        self.executor = executor or ExecutionEngine()
        self.stats = NeighborhoodStats()
        if self.config.strategy == "dfs" and fitness is None:
            raise ValueError("DFS neighborhood search requires a fitness function")

    # ------------------------------------------------------------------
    def should_trigger(self, average_fitness_history: Sequence[float]) -> bool:
        """Saturation test: mean fitness of the last ``w`` generations has
        not improved over the mean of all earlier generations."""
        window = self.config.window
        history = list(average_fitness_history)
        if len(history) < 2 * window:
            return False
        recent = float(np.mean(history[-window:]))
        earlier = float(np.mean(history[:-window]))
        return recent <= earlier

    # ------------------------------------------------------------------
    def search(
        self, top_genes: Sequence[Program], io_set: IOSet, budget: SearchBudget
    ) -> Optional[Program]:
        """Search the neighborhoods of ``top_genes`` for an exact solution."""
        self.stats.invocations += 1
        genes = list(top_genes)[: self.config.top_n]
        if self.config.strategy == "bfs":
            found = self._search_bfs(genes, io_set, budget)
        else:
            found = self._search_dfs(genes, io_set, budget)
        if found is not None:
            self.stats.successes += 1
        return found

    # ------------------------------------------------------------------
    def _neighbors_at(self, gene: Program, position: int) -> List[Program]:
        """All genes obtained by replacing ``position`` with a different op."""
        current = gene.function_ids[position]
        return [
            gene.with_replacement(position, fid)
            for fid in self.registry.ids
            if fid != current
        ]

    def _sweep(
        self, candidates: Sequence[Program], io_set: IOSet, budget: SearchBudget
    ) -> Tuple[Optional[Program], bool]:
        """Charge ``candidates`` in order until one solves the task.

        A neighborhood is the ideal columnar batch — every candidate
        shares its prefix with the gene it came from — so the candidates
        the budget can still pay for are checked in one call up front.
        Returns the solution, if any, and whether the budget ran out
        before the sweep was done.
        """
        chargeable = list(candidates)[: budget.remaining]
        verdicts = self.executor.satisfies_batch(chargeable, io_set)
        for candidate, verdict in zip(chargeable, verdicts):
            budget.charge(1)
            self.stats.candidates_examined += 1
            if verdict:
                return candidate, False
        return None, len(chargeable) < len(candidates)

    # ------------------------------------------------------------------
    def _search_bfs(
        self, genes: Sequence[Program], io_set: IOSet, budget: SearchBudget
    ) -> Optional[Program]:
        for gene in genes:
            candidates = [
                candidate
                for position in range(len(gene))
                for candidate in self._neighbors_at(gene, position)
            ]
            found, cut_short = self._sweep(candidates, io_set, budget)
            if found is not None or cut_short:
                return found
        return None

    def _search_dfs(
        self, genes: Sequence[Program], io_set: IOSet, budget: SearchBudget
    ) -> Optional[Program]:
        for gene in genes:
            current = gene
            for position in range(len(current)):
                neighborhood = self._neighbors_at(current, position)
                found, cut_short = self._sweep(neighborhood, io_set, budget)
                if found is not None or cut_short:
                    return found
                # descend: adopt the best-scoring neighbor at this depth
                scores = self.fitness.score(neighborhood, io_set)
                best = int(np.argmax(scores))
                if scores[best] > self.fitness.score_one(current, io_set):
                    current = neighborhood[best]
        return None
