"""The genetic-algorithm evolution engine (Section 4.2).

One :class:`GeneticAlgorithm` instance runs one synthesis attempt: it
evolves a population of candidate programs under a fitness function until
a program equivalent to the target (under the IO examples) is found, the
candidate budget is exhausted, or the generation limit is reached.

Candidate accounting: every *newly created* gene — the initial random
population, crossover offspring and mutants — is charged against the
shared :class:`~repro.ga.budget.SearchBudget` and immediately checked
against the IO examples, so the reported "search space used" counts
candidate programs exactly as the paper's metric does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GAConfig
from repro.dsl.equivalence import IOSet
from repro.dsl.interpreter import Interpreter
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
        interpreter: Optional[Interpreter] = None,
        executor: Optional[ExecutionEngine] = None,
    ) -> None:
        self.fitness = fitness
        self.operators = operators
        self.config = config or GAConfig()
        self.config.validate()
        self.neighborhood = neighborhood
        self.fp_guided_mutation = fp_guided_mutation
        self.rng = rng or np.random.default_rng(0)
        self.interpreter = interpreter or Interpreter(trace=False)
        # Shared execution engine: the solution check below and the fitness
        # scoring reuse one cached execution per (candidate, io_set).  A
        # default engine honors the interpreter's execution mode, so passing
        # a reference interpreter still yields reference semantics.
        self.executor = executor or ExecutionEngine(compiled=self.interpreter.compiled)
        self._stats_base = (0, 0, 0, 0, 0)

    # ------------------------------------------------------------------
    def _cache_counters(self) -> tuple:
        """Combined (hits, misses, shared_hits, shared_cross_hits,
        remote_hits) of the executor and fitness caches — shared_* are
        the L2 tier's counters (always zero when no shared score table is
        attached) and remote_hits the L4 network tier's (zero offline)."""
        hits = self.executor.stats.hits
        misses = self.executor.stats.misses
        shared_hits = getattr(self.executor.stats, "shared_hits", 0)
        shared_cross = getattr(self.executor.stats, "shared_cross_hits", 0)
        remote_hits = getattr(self.executor.stats, "remote_hits", 0)
        for stats in self.fitness.cache_stats():
            hits += stats.hits
            misses += stats.misses
            shared_hits += getattr(stats, "shared_hits", 0)
            shared_cross += getattr(stats, "shared_cross_hits", 0)
            remote_hits += getattr(stats, "remote_hits", 0)
        return hits, misses, shared_hits, shared_cross, remote_hits

    # ------------------------------------------------------------------
    def _is_solution(self, candidate: Program, io_set: IOSet) -> bool:
        return self.executor.satisfies(candidate, io_set)

    def _charge_and_check(
        self, candidate: Program, io_set: IOSet, budget: SearchBudget
    ) -> Optional[bool]:
        """Charge one candidate; returns True if it solves the task, None if
        the budget was already exhausted."""
        if budget.exhausted:
            return None
        budget.charge(1)
        return self._is_solution(candidate, io_set)

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
        # Fold the fitness layer's own memo counters (score cache, sample
        # cache, probability maps) into the executor's, so the event's
        # cache_hit_rate reflects every memoization layer — reported as
        # deltas since run() started: the engine/score caches persist
        # across a backend's runs, and cumulative totals would drown the
        # current run's behaviour in previous runs' traffic.
        hits, misses, shared_hits, shared_cross, remote_hits = self._cache_counters()
        base_hits, base_misses, base_shared, base_cross, base_remote = self._stats_base
        hits -= base_hits
        misses -= base_misses
        shared_hits -= base_shared
        shared_cross -= base_cross
        remote_hits -= base_remote
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
                shared_hits=shared_hits,
                shared_cross_hits=shared_cross,
                remote_hits=remote_hits,
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

        # Batch-capable executors check candidates population-at-a-time:
        # candidates are created first (same rng draw order as the serial
        # path), then verified in one columnar pass, and the verdicts are
        # consumed in creation order with identical budget semantics —
        # found/generations/candidates_used match the serial path exactly.
        batch = getattr(self.executor, "is_batch", False)

        # -- initial population ------------------------------------------------
        members: List[Program] = []
        staged_genes: Optional[List[Program]] = None
        staged_verdicts: List[bool] = []
        if batch:
            staged_genes = [self.operators.random_gene() for _ in range(cfg.population_size)]
            chargeable = staged_genes[: budget.remaining]
            if chargeable:
                staged_verdicts = self.executor.satisfies_batch(chargeable, io_set)
        for k in range(cfg.population_size):
            if staged_genes is not None:
                gene = staged_genes[k]
                members.append(gene)
                if budget.exhausted:
                    verdict = None
                else:
                    budget.charge(1)
                    verdict = staged_verdicts[k]
            else:
                gene = self.operators.random_gene()
                members.append(gene)
                verdict = self._charge_and_check(gene, io_set, budget)
            if verdict:
                return EvolutionResult(
                    found=True,
                    program=gene,
                    generations=0,
                    candidates_used=budget.used,
                    found_by="init",
                    average_fitness_history=avg_history,
                    best_fitness_history=best_history,
                )
            if verdict is None:
                return EvolutionResult(
                    found=False,
                    program=None,
                    generations=0,
                    candidates_used=budget.used,
                    average_fitness_history=avg_history,
                    best_fitness_history=best_history,
                )
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
                    return EvolutionResult(
                        found=True,
                        program=found,
                        generations=generation,
                        candidates_used=budget.used,
                        found_by="ns",
                        neighborhood_invocations=self.neighborhood.stats.invocations,
                        average_fitness_history=avg_history,
                        best_fitness_history=best_history,
                    )
                if budget.exhausted:
                    break
            ns_cooldown -= 1

            # -- build the next generation ------------------------------------
            next_members: List[Program] = population.top(cfg.elite_count)
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

            # batch path: stage the whole brood (same draws, same order),
            # solution-check the chargeable newcomers in one columnar pass
            staged = None
            verdicts: List[bool] = []
            consumed = 0
            if batch:
                brood = [spawn_child() for _ in range(cfg.population_size - len(next_members))]
                fresh = [child for child, is_new in brood if is_new]
                chargeable = fresh[: budget.remaining]
                if chargeable:
                    verdicts = self.executor.satisfies_batch(chargeable, io_set)
                staged = iter(brood)
            while len(next_members) < cfg.population_size:
                child, is_new = next(staged) if staged is not None else spawn_child()
                if is_new:
                    if staged is not None:
                        if budget.exhausted:
                            verdict = None
                        else:
                            budget.charge(1)
                            verdict = verdicts[consumed]
                            consumed += 1
                    else:
                        verdict = self._charge_and_check(child, io_set, budget)
                    if verdict:
                        return EvolutionResult(
                            found=True,
                            program=child,
                            generations=generation,
                            candidates_used=budget.used,
                            found_by="ga",
                            neighborhood_invocations=(
                                self.neighborhood.stats.invocations if self.neighborhood else 0
                            ),
                            average_fitness_history=avg_history,
                            best_fitness_history=best_history,
                        )
                    if verdict is None:
                        return EvolutionResult(
                            found=False,
                            program=None,
                            generations=generation,
                            candidates_used=budget.used,
                            neighborhood_invocations=(
                                self.neighborhood.stats.invocations if self.neighborhood else 0
                            ),
                            average_fitness_history=avg_history,
                            best_fitness_history=best_history,
                        )
                next_members.append(child)

            population = Population(next_members)
            if budget.exhausted:
                break

        return EvolutionResult(
            found=False,
            program=None,
            generations=generation if cfg.max_generations else 0,
            candidates_used=budget.used,
            neighborhood_invocations=(
                self.neighborhood.stats.invocations if self.neighborhood else 0
            ),
            average_fitness_history=avg_history,
            best_fitness_history=best_history,
        )
