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
* :func:`build_backend` / :func:`ensure_artifacts` — the method registry
  used by the service layer and the evaluation harness.  NetSyn's GA
  variants (``netsyn_cf``/``netsyn_lcs``/``netsyn_fp``, and the
  hand-crafted ``edit`` and ``oracle`` fitness GAs) are served directly
  as :class:`~repro.core.netsyn.NetSynBackend`\\ s: it implements the
  same :class:`~repro.core.backend.SynthesisBackend` protocol.
"""

from repro.baselines.base import Synthesizer
from repro.baselines.deepcoder import DeepCoderSynthesizer
from repro.baselines.pccoder import PCCoderSynthesizer, StepPredictorModel, train_step_model
from repro.baselines.robustfill import RobustFillSynthesizer, ProgramDecoderModel, train_decoder_model
from repro.baselines.pushgp import PushGPSynthesizer
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
    "METHOD_NAMES",
    "build_backend",
    "ensure_artifacts",
    "required_artifacts",
]
