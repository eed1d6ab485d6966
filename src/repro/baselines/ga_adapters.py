"""Adapters exposing NetSyn's GA variants through the Synthesizer interface.

These adapters let the evaluation harness treat the NetSyn variants
(learned CF/LCS/FP fitness), the hand-crafted edit-distance GA and the
oracle GA exactly like the external baselines.  They are thin shells
around :class:`~repro.core.netsyn.NetSynBackend`, which implements the
unified :class:`~repro.core.backend.SynthesisBackend` protocol —
``solve`` streams per-generation progress events straight from the GA
engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines.base import Synthesizer
from repro.config import NetSynConfig
from repro.core.netsyn import NetSynBackend
from repro.core.phase1 import Phase1Artifacts
from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.events import ProgressListener
from repro.ga.budget import SearchBudget


class NetSynSynthesizer(Synthesizer):
    """Wraps a fitted :class:`NetSynBackend`."""

    def __init__(self, backend: NetSynBackend, name: Optional[str] = None) -> None:
        self.backend = backend
        if name is not None:
            self.backend.name = name
        self.name = self.backend.name

    # ------------------------------------------------------------------
    @property
    def requires(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self.backend.requires

    @property
    def default_budget_limit(self) -> int:  # type: ignore[override]
        return self.backend.config.max_search_space

    @property
    def progress_every(self) -> int:  # type: ignore[override]
        return self.backend.progress_every

    @progress_every.setter
    def progress_every(self, value: int) -> None:
        # solve() delegates to the inner backend, so the event cadence
        # must live there, not on this wrapper
        self.backend.progress_every = value

    def bind(self, store) -> "NetSynSynthesizer":
        self.backend.bind(store)
        return self

    # -- warm-cache surface (delegated so the service layer's snapshot /
    # merge-back / persistence paths see the inner backend's caches) ----
    def cache_snapshot(self, dirty_only: bool = False):
        return self.backend.cache_snapshot(dirty_only=dirty_only)

    def load_cache_snapshot(self, data) -> None:
        self.backend.load_cache_snapshot(data)

    def cache_version(self) -> int:
        return self.backend.cache_version()

    def begin_cache_delta(self) -> None:
        self.backend.begin_cache_delta()

    # ------------------------------------------------------------------
    def synthesize(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
    ) -> SynthesisResult:
        budget = budget or SearchBudget(limit=self.backend.config.max_search_space)
        return self.backend.solve_io(
            task.io_set, target=task.target, budget=budget, seed=seed, task_id=task.task_id
        )

    def solve(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        listener: Optional[ProgressListener] = None,
    ) -> SynthesisResult:
        """Delegate to the backend so GA generation events are streamed."""
        return self.backend.solve(task, budget=budget, seed=seed, listener=listener)


class EditGASynthesizer(NetSynSynthesizer):
    """NetSyn's GA with the hand-crafted output edit-distance fitness."""

    def __init__(self, config: Optional[NetSynConfig] = None) -> None:
        config = (config or NetSynConfig()).replace(
            fitness_kind="edit", fp_guided_mutation=False
        )
        backend = NetSynBackend(config, name="edit")
        backend.set_models()  # no learned models required
        super().__init__(backend)


class OracleGASynthesizer(NetSynSynthesizer):
    """NetSyn's GA with the ideal (oracle) fitness — the paper's upper bound."""

    def __init__(self, config: Optional[NetSynConfig] = None, kind: str = "lcs") -> None:
        if kind not in ("cf", "lcs"):
            raise ValueError("kind must be 'cf' or 'lcs'")
        config = (config or NetSynConfig()).replace(
            fitness_kind=f"oracle_{kind}", fp_guided_mutation=False
        )
        backend = NetSynBackend(config, name="oracle")
        backend.set_models()
        super().__init__(backend)


def make_netsyn_synthesizer(
    kind: str,
    config: NetSynConfig,
    trace_artifacts: Optional[Phase1Artifacts] = None,
    fp_artifacts: Optional[Phase1Artifacts] = None,
) -> NetSynSynthesizer:
    """Build a NetSyn variant that reuses pre-trained Phase-1 artifacts."""
    variant = config.replace(fitness_kind=kind)
    backend = NetSynBackend(variant)
    backend.set_models(trace_artifacts=trace_artifacts, fp_artifacts=fp_artifacts)
    return NetSynSynthesizer(backend)
