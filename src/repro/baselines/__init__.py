"""Baseline synthesizers the paper compares against.

All baselines implement the same :class:`Synthesizer` interface and share
the same DSL, IO-example format and candidate-budget accounting as
NetSyn, so the evaluation harness can compare them on the paper's
"search space used" metric.

* :class:`DeepCoderSynthesizer` — probability-guided best-first
  enumeration (DeepCoder-like): a learned function-probability model
  orders an enumerative search over complete programs.
* :class:`PCCoderSynthesizer` — step-wise beam search (PCCoder-like): a
  learned next-function model extends partial programs, with iteratively
  widened beams (CAB-style restarts).
* :class:`RobustFillSynthesizer` — autoregressive sampling
  (RobustFill-like): a learned decoder generates whole candidate programs
  conditioned on the IO examples.
* :class:`PushGPSynthesizer` — stack-style genetic programming with
  variable-length genes and output edit-distance fitness.
* :class:`NetSynSynthesizer`, :class:`EditGASynthesizer`,
  :class:`OracleGASynthesizer` — adapters exposing NetSyn and its
  hand-crafted/oracle fitness variants through the same interface.
* :func:`build_backend` / :func:`ensure_artifacts` — the method registry
  used by the service layer and the evaluation harness.
"""

from repro.baselines.base import Synthesizer
from repro.baselines.deepcoder import DeepCoderSynthesizer
from repro.baselines.pccoder import PCCoderSynthesizer, StepPredictorModel, train_step_model
from repro.baselines.robustfill import RobustFillSynthesizer, ProgramDecoderModel, train_decoder_model
from repro.baselines.pushgp import PushGPSynthesizer
from repro.baselines.ga_adapters import (
    EditGASynthesizer,
    NetSynSynthesizer,
    OracleGASynthesizer,
)
from repro.baselines.registry import (
    METHOD_NAMES,
    build_backend,
    ensure_artifacts,
    required_artifacts,
)

__all__ = [
    "Synthesizer",
    "DeepCoderSynthesizer",
    "PCCoderSynthesizer",
    "StepPredictorModel",
    "train_step_model",
    "RobustFillSynthesizer",
    "ProgramDecoderModel",
    "train_decoder_model",
    "PushGPSynthesizer",
    "EditGASynthesizer",
    "NetSynSynthesizer",
    "OracleGASynthesizer",
    "METHOD_NAMES",
    "build_backend",
    "ensure_artifacts",
    "required_artifacts",
]
