"""Neural fitness models and the encoder stack every NN shares.

:class:`TraceFitnessModel` is the NN-FF of Figure 2: per IO example it
encodes the input, the output and the candidate's execution trace
(function embedding + encoded intermediate value per step), combines them
into a hidden vector ``H_i``, aggregates the per-example vectors and
predicts the ideal fitness value (CF or LCS) as a multiclass output.

:class:`FunctionProbabilityModel` is the FP model (and the DeepCoder-style
predictor): it looks only at the IO examples and predicts, for each of the
41 DSL functions, the probability that the function appears in the target
program.

Every model reads its inputs through one of two shared paths:

* :meth:`TraceFitnessModel.hidden` (the trace encoder): the NN-FF and the
  ablations ``RegressionFitnessModel``, ``PairwiseRankingModel`` and
  ``TwoTierFitnessModel`` of :mod:`repro.fitness.ablations`;
* :func:`encode_examples` (the IO-example block): ``hidden`` itself, the
  FP model, ``BigramMembershipModel``, PCCoder's ``StepPredictorModel``
  and RobustFill's ``ProgramDecoderModel.encode_context``.

Differences from the paper:

* per-example vectors are combined by averaging instead of a second LSTM:
  the IO examples are an unordered set, so an order over them carries no
  information, and the mean is invariant to it;
* a faster mean-pool encoder can replace the LSTM encoders via
  ``NNConfig.encoder = "pooled"`` for quick experiments and tests;
  ``"lstm"`` (the default) is Figure 2's encoder.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import NNConfig
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.nn.autograd import Tensor, concat, no_grad
from repro.nn.layers import Dense, Dropout, Embedding, active_length, masked_mean
from repro.nn.losses import (
    sigmoid_binary_cross_entropy,
    softmax_cross_entropy,
    softmax_probabilities,
)
from repro.nn.lstm import LSTM
from repro.nn.module import Module
from repro.nn.encoders import make_sequence_encoder
from repro.fitness.features import value_vocabulary_size


class _PooledStepEncoder(Module):
    """Masked mean over step feature vectors followed by a dense projection."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.projection = Dense(input_dim, hidden_dim, activation="tanh", rng=rng)

    def forward(self, features: Tensor, mask: np.ndarray) -> Tensor:
        return self.projection(masked_mean(features, mask))


def encode_examples(model: Module, batch: Dict[str, np.ndarray], *extra: Tensor) -> Tensor:
    """Per-example vectors ``(B, m, fc_dim)``: ``model.example_dense`` over
    the encoded input, the encoded output and any ``extra`` ``(B*m, ·)``
    features of each example (the trace model passes its trace vector)."""
    b, m = (int(x) for x in batch["shape"][:2])
    enc_input = model.value_encoder(batch["input_tokens"], batch["input_mask"])
    enc_output = model.value_encoder(batch["output_tokens"], batch["output_mask"])
    example_vec = model.example_dense(concat([enc_input, enc_output, *extra], axis=-1))
    return example_vec.reshape(b, m, model.config.fc_dim)


class TraceFitnessModel(Module):
    """Multiclass NN-FF predicting the CF or LCS value of a candidate program.

    Parameters
    ----------
    n_classes:
        Number of fitness classes (``program_length + 1``: values 0..L).
    config:
        Architecture hyper-parameters.
    registry:
        DSL function registry (defines the function-embedding vocabulary).
    rng:
        Generator used for weight initialization.
    """

    def __init__(
        self,
        n_classes: int,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        self.config = config or NNConfig()
        self.config.validate()
        self.registry = registry
        self.n_classes = n_classes
        rng = rng or np.random.default_rng(0)

        emb = self.config.embedding_dim
        hidden = self.config.hidden_dim
        fc = self.config.fc_dim
        vocab = value_vocabulary_size()

        self.value_encoder = make_sequence_encoder(self.config.encoder, vocab, emb, hidden, rng=rng)
        self.function_embedding = Embedding(len(registry), emb, rng=rng)
        step_input = emb + hidden
        if self.config.encoder == "lstm":
            self.step_encoder = LSTM(step_input, hidden, rng=rng)
        else:
            self.step_encoder = _PooledStepEncoder(step_input, hidden, rng=rng)
        self.example_dense = Dense(3 * hidden, fc, activation="tanh", rng=rng)
        self.dropout = Dropout(self.config.dropout, rng=rng)
        self.hidden_head = Dense(fc, fc, activation="relu", rng=rng)
        self.output_head = Dense(fc, n_classes, rng=rng)

    # ------------------------------------------------------------------
    def hidden(self, batch: Dict[str, np.ndarray]) -> Tensor:
        """Pre-head vector ``(B, fc_dim)`` of a trace batch; every head over
        the trace encoder (``output_head``, the ablation heads) reads it."""
        b, m, length = (int(x) for x in batch["shape"])
        hidden = self.config.hidden_dim

        # The encoder may pad the step dimension to a fixed, batch-independent
        # width; trailing steps masked for *every* sample are exact no-ops
        # (masked LSTM steps keep their state, masked mean weights are zero),
        # so they are sliced off before any encoding work is spent on them.
        step_mask = batch["step_mask"]
        step_value_tokens = batch["step_value_tokens"]
        step_value_mask = batch["step_value_mask"]
        step_functions = batch["step_functions"]
        effective = active_length(step_mask, length)
        if effective < length:
            step_mask = step_mask[:, :effective]
            step_functions = step_functions[:, :effective]
            width = step_value_tokens.shape[1]
            step_value_tokens = step_value_tokens.reshape(b * m, length, width)[
                :, :effective, :
            ].reshape(b * m * effective, width)
            step_value_mask = step_value_mask.reshape(b * m, length, width)[
                :, :effective, :
            ].reshape(b * m * effective, width)
            length = effective

        enc_steps = self.value_encoder(step_value_tokens, step_value_mask).reshape(b * m, length, hidden)
        func_embedded = self.function_embedding(step_functions)  # (B*m, L, emb)
        trace_vec = self.step_encoder(concat([func_embedded, enc_steps], axis=-1), step_mask)
        example_vec = self.dropout(encode_examples(self, batch, trace_vec))
        return self.hidden_head(example_vec.mean(axis=1))

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        """Logits ``(B, n_classes)`` for an encoded trace batch."""
        return self.output_head(self.hidden(batch))

    # ------------------------------------------------------------------
    def compute_loss(self, batch: Dict[str, np.ndarray]) -> Tuple[Tensor, Dict[str, float]]:
        """Cross-entropy loss plus accuracy metrics for the trainer."""
        if "labels" not in batch:
            raise ValueError("batch has no labels")
        logits = self.forward(batch)
        labels = batch["labels"]
        loss = softmax_cross_entropy(logits, labels)
        predictions = logits.data.argmax(axis=1)
        accuracy = float((predictions == labels).mean())
        # "close" accuracy: prediction within one class of the label, the
        # notion of usable accuracy discussed around Figure 7
        close = float((np.abs(predictions - labels) <= 1).mean())
        return loss, {"accuracy": accuracy, "close_accuracy": close}

    # ------------------------------------------------------------------
    def predict_probabilities(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Class probabilities ``(B, n_classes)`` without building a graph."""
        with no_grad():
            logits = self.forward(batch)
        return softmax_probabilities(logits)

    def predict_fitness(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Expected fitness value per sample (soft-argmax over classes)."""
        probabilities = self.predict_probabilities(batch)
        classes = np.arange(self.n_classes, dtype=np.float64)
        return probabilities @ classes

    def predict_classes(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Hard class predictions per sample."""
        return self.predict_probabilities(batch).argmax(axis=1)


class FunctionProbabilityModel(Module):
    """Multi-label model predicting function membership from IO examples only."""

    def __init__(
        self,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
        pos_weight: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.config = config or NNConfig()
        self.config.validate()
        self.registry = registry
        rng = rng or np.random.default_rng(0)
        # Positive-class weight for the BCE loss: a length-L program covers
        # only a handful of the 41 functions, so positives are up-weighted
        # by roughly the inverse class ratio unless a value is supplied.
        self.pos_weight = float(pos_weight) if pos_weight is not None else None

        emb = self.config.embedding_dim
        hidden = self.config.hidden_dim
        fc = self.config.fc_dim
        vocab = value_vocabulary_size()

        self.value_encoder = make_sequence_encoder(self.config.encoder, vocab, emb, hidden, rng=rng)
        self.example_dense = Dense(2 * hidden, fc, activation="tanh", rng=rng)
        self.dropout = Dropout(self.config.dropout, rng=rng)
        self.hidden_head = Dense(fc, fc, activation="relu", rng=rng)
        self.output_head = Dense(fc, len(registry), rng=rng)

    # ------------------------------------------------------------------
    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:
        """Logits ``(B, |ΣDSL|)`` for an encoded IO batch."""
        example_vec = self.dropout(encode_examples(self, batch))
        return self.output_head(self.hidden_head(example_vec.mean(axis=1)))

    # ------------------------------------------------------------------
    def compute_loss(self, batch: Dict[str, np.ndarray]) -> Tuple[Tensor, Dict[str, float]]:
        """Binary cross-entropy plus the paper's positive-accuracy metric."""
        if "fp_targets" not in batch:
            raise ValueError("batch has no fp_targets")
        logits = self.forward(batch)
        targets = batch["fp_targets"]
        if self.pos_weight is not None:
            pos_weight = self.pos_weight
        else:
            positive_fraction = max(float((targets >= 0.5).mean()), 1e-3)
            pos_weight = (1.0 - positive_fraction) / positive_fraction
        loss = sigmoid_binary_cross_entropy(logits, targets, pos_weight=pos_weight)
        probabilities = 1.0 / (1.0 + np.exp(-logits.data))
        predictions = probabilities >= 0.5
        accuracy = float((predictions == (targets >= 0.5)).mean())
        positives = targets >= 0.5
        positive_accuracy = (
            float(predictions[positives].mean()) if positives.any() else 0.0
        )
        return loss, {"accuracy": accuracy, "positive_accuracy": positive_accuracy}

    # ------------------------------------------------------------------
    def predict_probability_map(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Per-function membership probabilities ``(B, |ΣDSL|)``."""
        with no_grad():
            logits = self.forward(batch)
        return 1.0 / (1.0 + np.exp(-logits.data))
