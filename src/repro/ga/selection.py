"""Roulette Wheel (fitness proportionate) selection (Goldberg, 1989)."""

from __future__ import annotations

from typing import Union

import numpy as np


def roulette_wheel_probabilities(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Selection probabilities proportional to (shifted) fitness scores.

    Scores may be negative or all equal; they are shifted so the minimum
    maps to a small positive baseline, which keeps every gene selectable
    while still favouring higher fitness.  Non-finite scores raise
    ``ValueError``: they have no place on the wheel.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    shifted = scores - scores.min()
    spread = shifted.max()
    if spread <= 0:
        return np.full(scores.size, 1.0 / scores.size)
    # baseline keeps the worst gene at a small but non-zero probability
    weights = (shifted / spread) ** (1.0 / temperature) + 1e-3
    return weights / weights.sum()


class RouletteWheel:
    """The cumulative selection probabilities of one scored population.

    Built once per generation; every draw is then one ``searchsorted``.
    The CDF is computed exactly as ``Generator.choice(p=...)`` computes
    it, and :meth:`draw` consumes the generator exactly as ``choice``
    does, so a wheel draws the same indices as
    ``rng.choice(n, size=count, p=probabilities)`` and leaves ``rng`` in
    the same state.
    """

    __slots__ = ("probabilities", "cdf")

    def __init__(self, scores: np.ndarray, temperature: float = 1.0) -> None:
        self.probabilities = roulette_wheel_probabilities(scores, temperature=temperature)
        cdf = self.probabilities.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` indices drawn with replacement."""
        return self.cdf.searchsorted(rng.random(count), side="right")


def roulette_wheel_indices(
    scores: Union[np.ndarray, RouletteWheel],
    count: int,
    rng: np.random.Generator,
    temperature: float = 1.0,
    replace: bool = True,
) -> np.ndarray:
    """Select ``count`` indices with probability proportional to fitness.

    ``scores`` is either the fitness scores or a :class:`RouletteWheel`
    already built from them (``temperature`` is then the wheel's own).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    wheel = scores if isinstance(scores, RouletteWheel) else RouletteWheel(scores, temperature)
    if not replace:
        return rng.choice(wheel.cdf.size, size=count, replace=False, p=wheel.probabilities)
    return wheel.draw(count, rng)
