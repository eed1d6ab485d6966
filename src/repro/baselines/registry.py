"""Method registry used by the service layer and the evaluation harness.

``ensure_artifacts`` trains every Phase-1 model a set of methods needs —
exactly once, into a typed :class:`~repro.core.artifacts.ArtifactStore` —
and ``build_backend`` instantiates a named method against that store, so
all methods in one experiment see the same trained models and the same
configuration.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.baselines.deepcoder import DeepCoderSynthesizer
from repro.baselines.pccoder import PCCoderSynthesizer, train_step_model
from repro.baselines.pushgp import PushGPSynthesizer
from repro.baselines.robustfill import RobustFillSynthesizer, train_decoder_model
from repro.config import NetSynConfig
from repro.core.artifacts import ArtifactStore
from repro.core.backend import SynthesisBackend
from repro.core.netsyn import NetSynBackend
from repro.core.phase1 import train_fp_model, train_trace_model
from repro.utils.logging import get_logger

logger = get_logger("baselines.registry")

#: every method name the evaluation harness understands
METHOD_NAMES = (
    "netsyn_cf",
    "netsyn_lcs",
    "netsyn_fp",
    "edit",
    "oracle",
    "pushgp",
    "deepcoder",
    "pccoder",
    "robustfill",
)

#: Phase-1 artifacts required by each method
_REQUIREMENTS: Dict[str, Sequence[str]] = {
    "netsyn_cf": ("cf", "fp"),
    "netsyn_lcs": ("lcs", "fp"),
    "netsyn_fp": ("fp",),
    "edit": (),
    "oracle": (),
    "pushgp": (),
    "deepcoder": ("fp",),
    "pccoder": ("step",),
    "robustfill": ("decoder",),
}


def required_artifacts(methods: Iterable[str]) -> set:
    """Names of every Phase-1 artifact the given methods need."""
    needed: set = set()
    for method in methods:
        if method not in _REQUIREMENTS:
            raise KeyError(f"unknown method {method!r}; known: {METHOD_NAMES}")
        needed.update(_REQUIREMENTS[method])
    return needed


#: trainer per canonical artifact name (all share TrainingConfig/NNConfig/DSLConfig)
_TRAINERS = {
    "cf": lambda **kw: train_trace_model(kind="cf", **kw),
    "lcs": lambda **kw: train_trace_model(kind="lcs", **kw),
    "fp": train_fp_model,
    "step": train_step_model,
    "decoder": train_decoder_model,
}


def ensure_artifacts(
    store: ArtifactStore,
    config: NetSynConfig,
    methods: Iterable[str] = METHOD_NAMES,
    verbose: bool = False,
) -> ArtifactStore:
    """Train (in place) every artifact the given methods need and the store
    does not already hold — the fit-once half of fit-once-serve-many.

    Artifacts already present (warm-started from disk via
    :meth:`ArtifactStore.load`, or trained for an earlier session) are
    left untouched.
    """
    config.validate()
    needed = sorted(required_artifacts(methods))
    for name in store.missing(needed):
        logger.info("training %s model", name)
        store.set(
            name,
            _TRAINERS[name](
                training=config.training, nn=config.nn, dsl=config.dsl, verbose=verbose
            ),
        )
    return store


def build_backend(
    name: str,
    store: ArtifactStore,
    config: NetSynConfig,
    program_length: Optional[int] = None,
) -> SynthesisBackend:
    """Instantiate the named method against a prepared artifact store.

    Every returned object implements the unified
    :class:`~repro.core.backend.SynthesisBackend` protocol (``solve`` with
    progress events); the GA methods (``netsyn_*``, ``edit``, ``oracle``)
    are :class:`~repro.core.netsyn.NetSynBackend`\\ s.  Artifact lookups
    go through the typed store, so a missing model fails with a precise
    :class:`~repro.core.artifacts.MissingArtifactError`.
    """
    if name not in _REQUIREMENTS:
        raise KeyError(f"unknown method {name!r}; known: {METHOD_NAMES}")
    length = program_length or config.program_length
    config = config.replace(program_length=length)

    if name in ("netsyn_cf", "netsyn_lcs", "netsyn_fp"):
        kind = name.split("_", 1)[1]
        trace = store.get_optional(kind) if kind in ("cf", "lcs") else None
        fp = store.get_optional("fp")
        return NetSynBackend(config.replace(fitness_kind=kind)).set_models(
            trace_artifacts=trace, fp_artifacts=fp
        )
    if name in ("edit", "oracle"):
        # NetSyn's GA with the hand-crafted edit-distance fitness, or with
        # the ideal (oracle) LCS fitness -- the paper's upper bound; neither
        # needs a learned model
        kind = "edit" if name == "edit" else "oracle_lcs"
        variant = config.replace(fitness_kind=kind, fp_guided_mutation=False)
        return NetSynBackend(variant, name=name).set_models()
    if name == "pushgp":
        return PushGPSynthesizer(program_length=length)
    if name == "deepcoder":
        return DeepCoderSynthesizer(store.get("fp"), program_length=length)
    if name == "pccoder":
        return PCCoderSynthesizer(store.get("step"), program_length=length)
    if name == "robustfill":
        return RobustFillSynthesizer(store.get("decoder"), program_length=length)
    raise KeyError(name)  # pragma: no cover - guarded above

