"""The common synthesizer interface.

:class:`Synthesizer` is the pre-service ABC every baseline implements
(``synthesize(task, budget, seed)``).  It now subclasses the unified
:class:`~repro.core.backend.SynthesisBackend` protocol and provides a
default :meth:`Synthesizer.solve` that wraps ``synthesize`` with the
progress-event stream (``started`` / periodic ``candidates`` / ``finished``),
so every baseline participates in the session/service layer without
per-method glue.  Candidate-level events ride on the shared
:class:`~repro.ga.budget.SearchBudget` ``on_charge`` hook — the one
choke point all methods already charge through.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.backend import SynthesisBackend
from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.dsl.interpreter import Interpreter
from repro.dsl.equivalence import satisfies_io_set
from repro.events import ProgressListener
from repro.ga.budget import SearchBudget
from repro.utils.timing import Stopwatch


class Synthesizer(SynthesisBackend):
    """A program synthesizer evaluated under the candidate-budget metric."""

    #: registry name of the method (e.g. ``"deepcoder"``)
    name: str = "synthesizer"

    @abc.abstractmethod
    def synthesize(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
    ) -> SynthesisResult:
        """Attempt to synthesize ``task`` within ``budget`` candidates."""

    # ------------------------------------------------------------------
    def solve(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        listener: Optional[ProgressListener] = None,
    ) -> SynthesisResult:
        """Unified-protocol entry point: ``synthesize`` plus progress events.

        With no listener this is exactly ``synthesize`` (zero overhead);
        with one, the budget's charge hook emits a ``"candidates"`` event
        every ``progress_every`` candidates examined, bracketed by
        ``"started"``/``"finished"`` events.
        """
        budget = budget or SearchBudget(limit=self.default_budget_limit)
        self._start_events(task, budget, listener)
        result = self.synthesize(task, budget=budget, seed=seed)
        self._finish_events(task, result, listener)
        return result

    # ------------------------------------------------------------------
    def _check(self, program, task: SynthesisTask, budget: SearchBudget, interpreter: Interpreter) -> bool:
        """Charge one candidate and test it against the task's IO examples."""
        if budget.exhausted:
            return False
        budget.charge(1)
        return satisfies_io_set(program, task.io_set, interpreter)

    def _result(
        self,
        task: SynthesisTask,
        budget: SearchBudget,
        stopwatch: Stopwatch,
        program=None,
        found_by: str = "search",
        generations: int = 0,
    ) -> SynthesisResult:
        """Assemble a :class:`SynthesisResult` with the shared bookkeeping."""
        return SynthesisResult(
            found=program is not None,
            program=program,
            candidates_used=budget.used,
            budget_limit=budget.limit,
            generations=generations,
            wall_time_seconds=stopwatch.elapsed,
            found_by=found_by if program is not None else "none",
            method=self.name,
            task_id=task.task_id,
        )
