"""PushGP-like baseline: classic genetic programming with edit-distance fitness.

The paper compares against PushGP (Perkis, 1994), a stack-based GP
system.  The published NetSyn evaluation gives no implementation details
beyond the citation, so this reimplementation evolves programs of NetSyn's
own DSL instead of Push's stack instructions (both searches then spend one
budget on the same candidate space) and keeps the aspects that make
PushGP's search behave differently from NetSyn's GA:

* variable-length linear genomes (between 1 and twice the target length),
* tournament selection instead of Roulette Wheel,
* splice crossover and insert/delete/replace mutation,
* a hand-crafted output edit-distance fitness (no learned models),
* no dead-code rejection and no neighborhood search.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import Synthesizer
from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.interpreter import Interpreter
from repro.dsl.program import Program
from repro.fitness.functions import EditDistanceFitness
from repro.ga.budget import SearchBudget
from repro.utils.rng import RngFactory
from repro.utils.timing import Stopwatch


class PushGPSynthesizer(Synthesizer):
    """Variable-length GP over the DSL with output edit-distance fitness."""

    name = "pushgp"
    requires = ()

    def __init__(
        self,
        program_length: int,
        registry: FunctionRegistry = REGISTRY,
        population_size: int = 100,
        tournament_size: int = 3,
        crossover_rate: float = 0.6,
        mutation_rate: float = 0.3,
        elite_count: int = 2,
        max_generations: int = 100_000,
    ) -> None:
        if program_length <= 0:
            raise ValueError("program_length must be positive")
        self.program_length = program_length
        self.max_length = max(2, 2 * program_length)
        self.registry = registry
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.elite_count = elite_count
        self.max_generations = max_generations
        self.fitness = EditDistanceFitness()

    # ------------------------------------------------------------------
    def _random_genome(self, rng: np.random.Generator) -> Program:
        length = int(rng.integers(1, self.max_length + 1))
        ids = [int(fid) for fid in rng.choice(self.registry.ids, size=length)]
        return Program(ids, self.registry)

    def _tournament(self, population: List[Program], scores: np.ndarray, rng: np.random.Generator) -> Program:
        contenders = rng.integers(0, len(population), size=self.tournament_size)
        best = max(contenders, key=lambda index: scores[index])
        return population[int(best)]

    def _crossover(self, a: Program, b: Program, rng: np.random.Generator) -> Program:
        cut_a = int(rng.integers(0, len(a) + 1))
        cut_b = int(rng.integers(0, len(b) + 1))
        ids = list(a.function_ids[:cut_a]) + list(b.function_ids[cut_b:])
        ids = ids[: self.max_length] or [int(rng.choice(self.registry.ids))]
        return Program(ids, self.registry)

    def _mutate(self, genome: Program, rng: np.random.Generator) -> Program:
        ids = list(genome.function_ids)
        action = rng.integers(0, 3)
        if action == 0 and len(ids) < self.max_length:  # insert
            position = int(rng.integers(0, len(ids) + 1))
            ids.insert(position, int(rng.choice(self.registry.ids)))
        elif action == 1 and len(ids) > 1:  # delete
            position = int(rng.integers(0, len(ids)))
            del ids[position]
        else:  # replace
            position = int(rng.integers(0, len(ids)))
            ids[position] = int(rng.choice(self.registry.ids))
        return Program(ids, self.registry)

    # ------------------------------------------------------------------
    def synthesize(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
    ) -> SynthesisResult:
        budget = budget or SearchBudget(limit=10_000)
        rng = RngFactory(seed).get("pushgp")
        interpreter = Interpreter(trace=False)
        stopwatch = Stopwatch()
        stopwatch.start()

        population: List[Program] = []
        found: Optional[Program] = None
        generations = 0
        for _ in range(self.population_size):
            genome = self._random_genome(rng)
            population.append(genome)
            if self._check(genome, task, budget, interpreter):
                found = genome
                break
            if budget.exhausted:
                break

        while found is None and not budget.exhausted and generations < self.max_generations:
            generations += 1
            scores = self.fitness.score(population, task.io_set)
            order = np.argsort(scores)[::-1]
            next_population: List[Program] = [population[int(i)] for i in order[: self.elite_count]]
            while len(next_population) < self.population_size and not budget.exhausted:
                draw = rng.random()
                if draw < self.crossover_rate:
                    child = self._crossover(
                        self._tournament(population, scores, rng),
                        self._tournament(population, scores, rng),
                        rng,
                    )
                elif draw < self.crossover_rate + self.mutation_rate:
                    child = self._mutate(self._tournament(population, scores, rng), rng)
                else:
                    child = self._tournament(population, scores, rng)
                    next_population.append(child)
                    continue
                if self._check(child, task, budget, interpreter):
                    found = child
                    break
                next_population.append(child)
            if found is not None:
                break
            population = next_population
            if len(population) < 2:
                break

        stopwatch.stop()
        return self._result(
            task, budget, stopwatch, program=found, found_by="ga", generations=generations
        )
