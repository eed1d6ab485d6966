"""Genetic operators: random genes, crossover and mutation with DCE rejection.

All operators keep gene length fixed at the configured program length
``L`` and reject offspring containing dead code (Section 4.2: "If dead
code is present, we repeat crossover and mutation until a gene without
dead code is produced").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dsl.dce import has_dead_code
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.program import Program
from repro.dsl.types import DSLType, LIST
from repro.utils.rng import ensure_rng


@dataclass
class GeneOperators:
    """Factory of random genes and genetic operators over them.

    Parameters
    ----------
    program_length:
        Fixed gene length ``L``.
    registry:
        DSL function registry (``ΣDSL``).
    rng:
        Random generator driving every stochastic choice.
    forbid_dead_code:
        Reject genes containing dead code (paper default).
    max_attempts:
        Bound on DCE rejection sampling; when exceeded the last candidate
        is returned even if it still contains dead code, so the GA cannot
        dead-lock on pathological inputs.
    """

    program_length: int
    registry: FunctionRegistry = field(default_factory=lambda: REGISTRY)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    forbid_dead_code: bool = True
    max_attempts: int = 50
    input_types: Tuple[DSLType, ...] = (LIST,)

    def __post_init__(self) -> None:
        if self.program_length <= 0:
            raise ValueError("program_length must be positive")
        if len(self.registry) < 2:
            raise ValueError("mutation needs a registry of at least 2 functions")
        self.rng = ensure_rng(self.rng)
        self._all_ids = np.array(self.registry.ids)
        # the replacement table of the last probability map, keyed by its bytes
        self._table_key: Optional[bytes] = None
        self._table: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _accept(self, program: Program) -> bool:
        return not (self.forbid_dead_code and has_dead_code(program, self.input_types))

    def random_gene(self) -> Program:
        """A uniformly random gene of length ``L`` without dead code."""
        for _ in range(self.max_attempts):
            ids = [int(fid) for fid in self.rng.choice(self._all_ids, size=self.program_length)]
            program = Program(ids, self.registry)
            if self._accept(program):
                return program
        return program

    def random_population(self, size: int) -> list:
        """``size`` independent random genes."""
        if size <= 0:
            raise ValueError("population size must be positive")
        return [self.random_gene() for _ in range(size)]

    # ------------------------------------------------------------------
    def crossover(self, parent_a: Program, parent_b: Program) -> Program:
        """Single-point crossover preserving gene length.

        A cut point is chosen uniformly; the child takes the prefix of
        ``parent_a`` and the suffix of ``parent_b``.  Offspring with dead
        code are rejected and the operation retried with fresh cut points.
        """
        if len(parent_a) != len(parent_b):
            raise ValueError("parents must have the same length")
        length = len(parent_a)
        child = parent_a
        for _ in range(self.max_attempts):
            cut = int(self.rng.integers(1, length)) if length > 1 else 0
            ids = parent_a.function_ids[:cut] + parent_b.function_ids[cut:]
            child = Program(ids, self.registry)
            if self._accept(child):
                return child
        return child

    # ------------------------------------------------------------------
    def mutate(
        self,
        gene: Program,
        probability_map: Optional[np.ndarray] = None,
        position_scores: Optional[np.ndarray] = None,
    ) -> Program:
        """Point mutation: replace one function with a different one.

        Parameters
        ----------
        gene:
            The gene to mutate.
        probability_map:
            Optional per-function probabilities (the learned FP map).  When
            given, the replacement function is drawn with Roulette Wheel
            probabilities proportional to the map (MutationFP); otherwise
            the replacement is uniform over ``ΣDSL \\ {current}``.
        position_scores:
            Optional per-position weights; higher means the position is
            more likely to be chosen as the mutation point.  Defaults to a
            uniform choice.
        """
        length = len(gene)
        if length == 0:
            raise ValueError("cannot mutate an empty gene")
        table = None if probability_map is None else self._replacement_table(probability_map)
        mutated = gene
        for _ in range(self.max_attempts):
            position = self._choose_position(length, position_scores)
            current = gene.function_ids[position]
            replacement = self._choose_replacement(current, table)
            mutated = gene.with_replacement(position, replacement)
            if self._accept(mutated):
                return mutated
        return mutated

    # ------------------------------------------------------------------
    def _choose_position(self, length: int, position_scores: Optional[np.ndarray]) -> int:
        if position_scores is None:
            return int(self.rng.integers(0, length))
        weights = np.asarray(position_scores, dtype=np.float64)
        if weights.shape != (length,):
            raise ValueError("position_scores must have one entry per gene position")
        weights = weights - weights.min() + 1e-3
        weights = weights / weights.sum()
        return int(self.rng.choice(length, p=weights))

    def _replacement_table(self, probability_map: np.ndarray) -> np.ndarray:
        """One replacement CDF per current function, for ``probability_map``.

        Row ``registry.index_of(fid)`` is the CDF ``Generator.choice`` would
        build from the map's weights with ``fid``'s own entry zeroed, so a
        ``searchsorted`` into it draws exactly what ``choice`` drew.  The
        table is rebuilt whenever the map's contents change, including an
        in-place edit of the same array.
        """
        weights = np.asarray(probability_map, dtype=np.float64)
        if weights.shape != self._all_ids.shape:
            raise ValueError("probability_map must have one entry per DSL function")
        key = weights.tobytes()
        if key != self._table_key:
            if not np.isfinite(weights).all():
                raise ValueError("probability_map must be finite")
            rows = np.tile(np.clip(weights, 0.0, None) + 1e-6, (weights.size, 1))
            np.fill_diagonal(rows, 0.0)
            rows /= rows.sum(axis=1, keepdims=True)
            table = rows.cumsum(axis=1)
            table /= table[:, -1:]
            self._table_key, self._table = key, table
        return self._table

    def _choose_replacement(self, current: int, table: Optional[np.ndarray]) -> int:
        ids = self._all_ids
        if table is None:
            choice = current
            while choice == current:
                choice = int(self.rng.choice(ids))
            return choice
        cdf = table[self.registry.index_of(current)]
        return int(ids[cdf.searchsorted(self.rng.random(), side="right")])
