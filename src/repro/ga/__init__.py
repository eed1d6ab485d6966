"""Genetic algorithm core: evolution engine and neighborhood search.

The GA follows Section 4.2 of the paper: a population of fixed-length
genes (candidate programs), a learned fitness function, elitism, Roulette
Wheel selection, single-point crossover, (optionally FP-guided) mutation,
dead-code rejection, and a restricted local neighborhood search triggered
when the average fitness saturates.
"""

from repro.ga.budget import SearchBudget, BudgetExhausted
from repro.ga.population import Population
from repro.ga.selection import RouletteWheel, roulette_wheel_indices, roulette_wheel_probabilities
from repro.ga.operators import GeneOperators
from repro.ga.neighborhood import NeighborhoodSearch
from repro.ga.engine import EvolutionResult, GeneticAlgorithm

__all__ = [
    "SearchBudget",
    "BudgetExhausted",
    "Population",
    "RouletteWheel",
    "roulette_wheel_indices",
    "roulette_wheel_probabilities",
    "GeneOperators",
    "NeighborhoodSearch",
    "EvolutionResult",
    "GeneticAlgorithm",
]
