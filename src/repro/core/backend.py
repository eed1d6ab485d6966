"""The unified synthesis backend protocol.

Every synthesis method in this repository — NetSyn's GA variants and the
four baselines (DeepCoder, PCCoder, RobustFill, PushGP) — implements one
interface: :class:`SynthesisBackend`.  A backend

* declares which Phase-1 artifacts it ``requires`` (by canonical name),
* can be ``bind()``-ed to an :class:`~repro.core.artifacts.ArtifactStore`
  holding those artifacts,
* ``solve()``-s one :class:`~repro.data.tasks.SynthesisTask` under a
  :class:`~repro.ga.budget.SearchBudget`, optionally streaming
  :class:`~repro.events.ProgressEvent`\\ s to a listener, and
* exposes its warm memo caches through ``cache_snapshot`` /
  ``load_cache_snapshot`` / ``cache_version`` / ``begin_cache_delta``
  (no-ops for a backend without caches).

The service layer (:mod:`repro.core.service`) schedules jobs over
backends; the old ``Synthesizer`` ABC in :mod:`repro.baselines.base` is a
subclass of this protocol, so every pre-existing method participates
without per-method glue.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.events import ProgressEvent, ProgressListener
from repro.ga.budget import SearchBudget


def attach_candidate_listener(
    budget: SearchBudget,
    listener: ProgressListener,
    method: str = "",
    task_id: str = "",
    every: int = 50,
) -> None:
    """Emit a ``"candidates"`` event every ``every`` budget charges.

    Installed on the budget's ``on_charge`` hook, this gives *every*
    backend — including the enumerative baselines that have no generation
    loop — a uniform progress stream keyed to the paper's search-space
    metric.  Any previously installed hook keeps firing first.
    """
    every = max(1, int(every))
    state = {"next": every}
    previous = budget.on_charge

    def hook(charged_budget: SearchBudget) -> None:
        if previous is not None:
            previous(charged_budget)
        if charged_budget.used >= state["next"] or charged_budget.exhausted:
            state["next"] = charged_budget.used + every
            listener(
                ProgressEvent(
                    kind="candidates",
                    method=method,
                    task_id=task_id,
                    candidates_used=charged_budget.used,
                    budget_limit=charged_budget.limit,
                )
            )

    budget.on_charge = hook


class SynthesisBackend(abc.ABC):
    """One program-synthesis method behind the uniform service API."""

    #: registry name of the method (e.g. ``"deepcoder"``, ``"netsyn_cf"``)
    name: str = "backend"
    #: canonical names of the Phase-1 artifacts this backend needs
    requires: Tuple[str, ...] = ()
    #: budget charges between two ``"candidates"`` progress events
    progress_every: int = 50
    #: budget limit used when ``solve`` is called without a budget
    default_budget_limit: int = 10_000

    # ------------------------------------------------------------------
    def bind(self, store) -> "SynthesisBackend":
        """Attach Phase-1 artifacts from ``store``; no-op for model-free
        backends.  Returns ``self`` for chaining."""
        return self

    # -- the warm-cache contract -----------------------------------------
    # The service layer ships warm caches between processes and sessions
    # through these four methods: snapshots to start pool workers warm,
    # per-job deltas merged back from workers, and L3 log frames.  A
    # backend without memo caches keeps these no-op defaults, so it has
    # nothing to ship and every cache path skips it.
    def cache_snapshot(self, dirty_only: bool = False) -> Optional[dict]:
        """Picklable snapshot of the warm caches (None when there is none).

        With ``dirty_only`` only entries written since the last
        :meth:`begin_cache_delta` are exported.
        """
        return None

    def load_cache_snapshot(self, data: Optional[dict]) -> None:
        """Warm-start the caches from :meth:`cache_snapshot` output."""

    def cache_version(self) -> int:
        """Monotone count of cache writes (0 for a backend without caches)."""
        return 0

    def begin_cache_delta(self) -> None:
        """Open a fresh delta window for ``cache_snapshot(dirty_only=True)``."""

    @abc.abstractmethod
    def solve(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        listener: Optional[ProgressListener] = None,
    ) -> SynthesisResult:
        """Synthesize ``task`` within ``budget`` candidates.

        ``listener`` receives the progress-event stream documented in
        :mod:`repro.events`; passing one never changes the (seeded)
        search outcome.  A listener may raise
        :class:`~repro.events.JobCancelled` to abandon the run.
        """

    # ------------------------------------------------------------------
    def _start_events(
        self,
        task: SynthesisTask,
        budget: SearchBudget,
        listener: Optional[ProgressListener],
    ) -> None:
        """Emit ``"started"`` and install the per-candidate budget hook."""
        if listener is None:
            return
        listener(
            ProgressEvent(
                kind="started", method=self.name, task_id=task.task_id, budget_limit=budget.limit
            )
        )
        attach_candidate_listener(
            budget, listener, method=self.name, task_id=task.task_id, every=self.progress_every
        )

    def _finish_events(
        self,
        task: SynthesisTask,
        result: SynthesisResult,
        listener: Optional[ProgressListener],
    ) -> None:
        if listener is None:
            return
        listener(
            ProgressEvent(
                kind="finished",
                method=self.name,
                task_id=task.task_id,
                candidates_used=result.candidates_used,
                budget_limit=result.budget_limit,
                found=result.found,
                found_by=result.found_by,
            )
        )
