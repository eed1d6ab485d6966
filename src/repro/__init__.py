"""NetSyn reproduction: learned fitness functions for GA-based program synthesis.

This package reproduces *"Learning Fitness Functions for Machine
Programming"* (MLSys 2021).  The public API is organised as:

* :mod:`repro.dsl` — the 41-function list DSL, interpreter, traces, DCE.
* :mod:`repro.nn` — a from-scratch numpy neural-network substrate
  (embedding, LSTM, dense layers, Adam) used by the learned fitness models.
* :mod:`repro.fitness` — ideal fitness metrics (CF/LCS/FP/edit/oracle) and
  the neural-network fitness functions trained to predict them.
* :mod:`repro.ga` — the genetic algorithm: selection, crossover, mutation,
  elitism, and restricted local neighborhood search.
* :mod:`repro.core` — the NetSyn backend (Phase 1 training + Phase 2
  search), search-budget accounting and the session/service layer that
  serves both.
* :mod:`repro.baselines` — DeepCoder-, PCCoder-, RobustFill-, PushGP-like
  baselines plus edit-distance and oracle GAs, under one interface.
* :mod:`repro.data` — corpus and benchmark-suite generation.
* :mod:`repro.evaluation` — metrics, tables and figure series for every
  experiment in the paper's evaluation section.

Quickstart::

    from repro import NetSynConfig, SynthesisService
    from repro.data import make_synthesis_task

    task = make_synthesis_task(length=4, seed=7)
    service = SynthesisService(NetSynConfig.small())
    session = service.open_session(methods=("netsyn_cf",))  # Phase 1 (once)
    result = session.solve(task)                            # Phase 2: GA search
    print(result.found, result.program)

The top-level names below are resolved lazily so that ``import repro``
stays cheap and subpackages can be imported independently.
"""

from repro.version import __version__

__all__ = [
    "__version__",
    "DSLConfig",
    "GAConfig",
    "NeighborhoodConfig",
    "NNConfig",
    "TrainingConfig",
    "NetSynConfig",
    "ExperimentConfig",
    "ServiceConfig",
    "NetSynBackend",
    "SynthesisBackend",
    "SynthesisResult",
    "SearchBudget",
    "ArtifactStore",
    "SynthesisService",
    "SynthesisSession",
    "SynthesisJob",
    "JobState",
    "ProgressEvent",
    "EventLog",
    "JobCancelled",
]

_CONFIG_NAMES = {
    "DSLConfig",
    "GAConfig",
    "NeighborhoodConfig",
    "NNConfig",
    "TrainingConfig",
    "NetSynConfig",
    "ExperimentConfig",
    "ServiceConfig",
}
_CORE_NAMES = {
    "NetSynBackend",
    "SynthesisBackend",
    "SynthesisResult",
    "SearchBudget",
    "ArtifactStore",
    "SynthesisService",
    "SynthesisSession",
    "SynthesisJob",
    "JobState",
}
_EVENT_NAMES = {"ProgressEvent", "EventLog", "JobCancelled"}


def __getattr__(name: str):
    if name in _CONFIG_NAMES:
        import repro.config as _config

        return getattr(_config, name)
    if name in _CORE_NAMES:
        import repro.core as _core

        return getattr(_core, name)
    if name in _EVENT_NAMES:
        import repro.events as _events

        return getattr(_events, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
