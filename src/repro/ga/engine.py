"""The genetic-algorithm evolution engine (Section 4.2).

One :class:`GeneticAlgorithm` instance runs one synthesis attempt: it
evolves a population of candidate programs under a fitness function until
a program equivalent to the target (under the IO examples) is found, the
candidate budget is exhausted, or the generation limit is reached.

Candidate accounting: every *newly created* gene — the initial random
population, crossover offspring and mutants — is charged against the
shared :class:`~repro.ga.budget.SearchBudget` and checked against the IO
examples, so the reported "search space used" counts candidate programs
exactly as the paper's metric does.  The checks run population-at-a-time:
a brood is created first, its chargeable newcomers are verified in one
``satisfies_batch`` call, and the verdicts are consumed in creation order
while the budget is charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GAConfig
from repro.dsl.equivalence import IOSet
from repro.dsl.program import Program
from repro.events import ProgressEvent, ProgressListener
from repro.execution import ExecutionEngine
from repro.fitness.base import FitnessFunction
from repro.ga.budget import SearchBudget
from repro.ga.neighborhood import NeighborhoodSearch
from repro.ga.operators import GeneOperators
from repro.ga.population import Population
from repro.ga.selection import RouletteWheel, roulette_wheel_indices
from repro.utils.logging import get_logger

logger = get_logger("ga.engine")


@dataclass
class EvolutionResult:
    """Outcome of one GA synthesis attempt."""

    found: bool
    program: Optional[Program]
    generations: int
    candidates_used: int
    found_by: str = "none"  # "init", "ga", "ns" or "none"
    neighborhood_invocations: int = 0
    average_fitness_history: List[float] = field(default_factory=list)
    best_fitness_history: List[float] = field(default_factory=list)


class GeneticAlgorithm:
    """Evolves candidate programs under a (possibly learned) fitness function."""

    def __init__(
        self,
        fitness: FitnessFunction,
        operators: GeneOperators,
        config: Optional[GAConfig] = None,
        neighborhood: Optional[NeighborhoodSearch] = None,
        fp_guided_mutation: bool = False,
        rng: Optional[np.random.Generator] = None,
        executor: Optional[ExecutionEngine] = None,
    ) -> None:
        self.fitness = fitness
        self.operators = operators
        self.config = config or GAConfig()
        self.config.validate()
        self.neighborhood = neighborhood
        self.fp_guided_mutation = fp_guided_mutation
        self.rng = rng or np.random.default_rng(0)
        # Shared execution engine: the solution check below and the fitness
        # scoring reuse one cached execution per (candidate, io_set).
        self.executor = executor or ExecutionEngine()
        self._stats_base = (0, 0)

    # ------------------------------------------------------------------
    def _cache_counters(self) -> Tuple[int, int]:
        """(hits, misses) of the executor's cache, which also holds the
        fitness layer's memos (predicted scores, probability maps)."""
        return self.executor.stats.hits, self.executor.stats.misses

    # ------------------------------------------------------------------
    def _admit(
        self, brood: Sequence[Tuple[Program, bool]], io_set: IOSet, budget: SearchBudget
    ) -> Tuple[Optional[List[Program]], Optional[Program]]:
        """Solution-check a staged brood of ``(child, is_new)`` pairs.

        The newcomers the budget can still pay for are checked in one
        ``satisfies_batch`` call; the brood is then taken in creation
        order, each newcomer charged as it is taken.  Returns
        ``(children, None)`` when the whole brood was taken, and
        ``(None, solution)`` when a newcomer solves the task or
        ``(None, None)`` when the budget runs out first.
        """
        fresh = [child for child, is_new in brood if is_new]
        verdicts = iter(self.executor.satisfies_batch(fresh[: budget.remaining], io_set))
        children: List[Program] = []
        for child, is_new in brood:
            if is_new:
                if budget.exhausted:
                    return None, None
                budget.charge(1)
                if next(verdicts):
                    return None, child
            children.append(child)
        return children, None

    def _result(
        self,
        generation: int,
        budget: SearchBudget,
        avg_history: List[float],
        best_history: List[float],
        program: Optional[Program] = None,
        found_by: str = "none",
    ) -> EvolutionResult:
        """The run's outcome: ``program`` is the solution, if one was found."""
        return EvolutionResult(
            found=program is not None,
            program=program,
            generations=generation,
            candidates_used=budget.used,
            found_by=found_by if program is not None else "none",
            neighborhood_invocations=(
                self.neighborhood.stats.invocations if self.neighborhood else 0
            ),
            average_fitness_history=avg_history,
            best_fitness_history=best_history,
        )

    # ------------------------------------------------------------------
    def _emit_generation(
        self,
        listener: Optional[ProgressListener],
        kind: str,
        generation: int,
        budget: SearchBudget,
        avg_history: List[float],
        best_history: List[float],
    ) -> None:
        """Stream one per-generation observation to ``listener``.

        Emitted strictly between random draws (after scoring, before
        selection), so attaching a listener never perturbs a seeded run.
        Listener exceptions (notably ``JobCancelled``) propagate and
        abandon the search — these emission points are the engine's
        cooperative cancellation points, and they are what bounds how
        long a cancelled job keeps running: at most one generation (plus
        at most ``progress_every`` candidates to the next budget-hook
        event), locally and in worker processes alike.
        """
        if listener is None:
            return
        # The executor's cache holds every memoization layer (executions,
        # predicted scores, probability maps); its counters are reported
        # as deltas since run() started: the cache persists across a
        # backend's runs, and cumulative totals would drown the current
        # run's behaviour in previous runs' traffic.
        hits, misses = self._cache_counters()
        base_hits, base_misses = self._stats_base
        hits -= base_hits
        misses -= base_misses
        listener(
            ProgressEvent(
                kind=kind,
                generation=generation,
                mean_fitness=avg_history[-1] if avg_history else None,
                best_fitness=best_history[-1] if best_history else None,
                candidates_used=budget.used,
                budget_limit=budget.limit,
                cache_hits=hits,
                cache_misses=misses,
                cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            )
        )

    # ------------------------------------------------------------------
    def run(
        self,
        io_set: IOSet,
        budget: SearchBudget,
        listener: Optional[ProgressListener] = None,
    ) -> EvolutionResult:
        """Run the evolutionary search for a program satisfying ``io_set``."""
        cfg = self.config
        avg_history: List[float] = []
        best_history: List[float] = []
        ns_cooldown = 0
        # baseline for per-run cache-counter deltas in progress events
        self._stats_base = self._cache_counters()

        # -- initial population ------------------------------------------------
        initial = [(self.operators.random_gene(), True) for _ in range(cfg.population_size)]
        members, solution = self._admit(initial, io_set, budget)
        if members is None:
            return self._result(0, budget, avg_history, best_history, solution, "init")
        population = Population(members)

        probability_map = (
            self.fitness.probability_map(io_set) if self.fp_guided_mutation else None
        )
        # Skip the per-mutation mutation_scores round-trip when the fitness
        # declares it always returns None (e.g. LearnedTraceFitness).
        use_mutation_scores = getattr(self.fitness, "provides_mutation_scores", False)

        # -- generations ---------------------------------------------------------
        for generation in range(1, cfg.max_generations + 1):
            population.set_scores(self.fitness.score(population.members, io_set))
            avg_history.append(population.mean_score())
            best_history.append(population.max_score())
            self._emit_generation(
                listener, "generation", generation, budget, avg_history, best_history
            )

            # neighborhood search on fitness saturation
            if (
                self.neighborhood is not None
                and ns_cooldown <= 0
                and self.neighborhood.should_trigger(avg_history)
            ):
                ns_cooldown = self.neighborhood.config.cooldown
                top = population.top(self.neighborhood.config.top_n)
                found = self.neighborhood.search(top, io_set, budget)
                self._emit_generation(
                    listener, "neighborhood", generation, budget, avg_history, best_history
                )
                if found is not None:
                    return self._result(
                        generation, budget, avg_history, best_history, found, "ns"
                    )
                if budget.exhausted:
                    break
            ns_cooldown -= 1

            # -- build the next generation ------------------------------------
            elites: List[Program] = population.top(cfg.elite_count)
            # one wheel per generation; every draw still goes through the
            # module-level roulette_wheel_indices, which perfbench/tracing.py
            # wraps by name as ga.select
            wheel = RouletteWheel(population.scores)

            def spawn_child() -> Tuple[Program, bool]:
                """One selection draw: a (child, is_newly_created) pair."""
                draw = self.rng.random()
                if draw < cfg.crossover_rate:
                    parents = roulette_wheel_indices(wheel, 2, self.rng)
                    child = self.operators.crossover(
                        population[int(parents[0])], population[int(parents[1])]
                    )
                    return child, True
                if draw < cfg.crossover_rate + cfg.mutation_rate:
                    parent = int(roulette_wheel_indices(wheel, 1, self.rng)[0])
                    gene = population[parent]
                    position_scores = (
                        self.fitness.mutation_scores(gene, io_set) if use_mutation_scores else None
                    )
                    child = self.operators.mutate(
                        gene,
                        probability_map=probability_map,
                        position_scores=position_scores,
                    )
                    return child, True
                parent = int(roulette_wheel_indices(wheel, 1, self.rng)[0])
                return population[parent], False

            # stage the whole brood, then check its newcomers in one call
            brood = [spawn_child() for _ in range(cfg.population_size - len(elites))]
            children, solution = self._admit(brood, io_set, budget)
            if children is None:
                return self._result(
                    generation, budget, avg_history, best_history, solution, "ga"
                )
            population = Population(elites + children)
            if budget.exhausted:
                break

        return self._result(
            generation if cfg.max_generations else 0, budget, avg_history, best_history
        )
