"""NetSyn core: Phase-1 model training, Phase-2 GA-based synthesis, and the
session/service layer that serves both behind the unified backend API."""

from repro.ga.budget import SearchBudget, BudgetExhausted
from repro.core.result import SynthesisResult
from repro.core.phase1 import (
    Phase1Artifacts,
    register_model_builder,
    train_fp_model,
    train_trace_model,
)
from repro.core.artifacts import ARTIFACT_NAMES, ArtifactStore, MissingArtifactError
from repro.core.backend import SynthesisBackend
from repro.core.netsyn import NetSynBackend
from repro.core.service import (
    JobState,
    SynthesisJob,
    SynthesisService,
    SynthesisSession,
)
from repro.core.supervisor import FailureReport, WorkerSupervisor

__all__ = [
    "SearchBudget",
    "BudgetExhausted",
    "SynthesisResult",
    "Phase1Artifacts",
    "register_model_builder",
    "train_fp_model",
    "train_trace_model",
    "ARTIFACT_NAMES",
    "ArtifactStore",
    "MissingArtifactError",
    "SynthesisBackend",
    "NetSynBackend",
    "JobState",
    "SynthesisJob",
    "SynthesisService",
    "SynthesisSession",
    "FailureReport",
    "WorkerSupervisor",
]
