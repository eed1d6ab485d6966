"""Bit-identity controls: the historical execution paths, kept test-side.

The product backend always runs the columnar batch engine and memoized
NN-FF scoring.  The tests that prove those fast paths change nothing
compare them against the paths they replaced, rebuilt here from the
reference components the library still ships:

* :class:`ScalarNetSynBackend` — the per-candidate
  :class:`~repro.execution.ExecutionEngine` instead of the columnar one;
* :class:`UnmemoizedNetSynBackend` — CF/LCS fitness that scores every
  gene every generation (``LearnedTraceFitness(memoize=False)``).

For a cold-cache control, solve each job on a fresh backend: a backend
shares its execution engine and score caches across its own runs only.
"""

from __future__ import annotations

from repro.core.netsyn import NetSynBackend
from repro.execution import ExecutionEngine
from repro.fitness.functions import LearnedTraceFitness


class ScalarNetSynBackend(NetSynBackend):
    """NetSyn on the per-candidate execution engine."""

    def _make_executor(self) -> ExecutionEngine:
        return ExecutionEngine()


class UnmemoizedNetSynBackend(NetSynBackend):
    """NetSyn whose CF/LCS fitness forwards every gene every generation."""

    def build_fitness(self, target=None, executor=None):
        if not self.needs_trace_model:
            return super().build_fitness(target=target, executor=executor)
        return LearnedTraceFitness(
            self._trace_artifacts.model,
            kind=self.config.fitness_kind,
            encoder=self._trace_artifacts.encoder,
            executor=executor,
            memoize=False,
        )
