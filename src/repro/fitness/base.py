"""The fitness-function interface consumed by the genetic algorithm."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.dsl.equivalence import IOSet
from repro.dsl.program import Program


@dataclass(frozen=True)
class ScoredProgram:
    """A candidate program together with its fitness score."""

    program: Program
    score: float

    def __lt__(self, other: "ScoredProgram") -> bool:
        return self.score < other.score


class FitnessFunction(abc.ABC):
    """Scores candidate programs against an IO specification.

    Higher scores mean "closer to the target program".  Implementations
    must be *batched* — the GA scores the whole population at once, which
    is where the neural models recover vectorized efficiency.
    """

    #: human-readable name used in experiment reports
    name: str = "fitness"

    #: Whether :meth:`mutation_scores` can return anything but ``None``.
    #: The GA engine skips the call entirely when this is False, saving a
    #: per-mutation round-trip (and, for trace-based implementations, a
    #: wasted trace collection).  Implementations that override
    #: :meth:`mutation_scores` to return real scores must set this True.
    provides_mutation_scores: bool = False

    @abc.abstractmethod
    def score(self, programs: Sequence[Program], io_set: IOSet) -> np.ndarray:
        """Fitness of each program in ``programs`` against ``io_set``."""

    # ------------------------------------------------------------------
    def score_one(self, program: Program, io_set: IOSet) -> float:
        """Convenience wrapper scoring a single program."""
        return float(self.score([program], io_set)[0])

    def rank(self, programs: Sequence[Program], io_set: IOSet) -> List[ScoredProgram]:
        """Programs sorted by descending fitness."""
        scores = self.score(programs, io_set)
        scored = [ScoredProgram(p, float(s)) for p, s in zip(programs, scores)]
        return sorted(scored, key=lambda sp: sp.score, reverse=True)

    def probability_map(self, io_set: IOSet) -> Optional[np.ndarray]:
        """Function-probability map for this specification, if the fitness
        function can provide one (used by FP-guided mutation); else None."""
        return None

    def mutation_scores(self, program: Program, io_set: IOSet) -> Optional[np.ndarray]:
        """Optional per-position scores used to bias the mutation point.

        The paper selects the mutation point "based on the same learned
        NN-FF"; implementations may return a vector of length
        ``len(program)`` where *higher* values mean the position is more
        likely to be wrong (and hence a better mutation point).  Returning
        None means the mutation point is chosen uniformly.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
