"""Alternative fitness-model designs discussed in Section 5.3.1.

The paper reports trying (and mostly rejecting) several model variants in
addition to the multiclass CF/LCS classifier.  Each is implemented here so
the ablation benchmark can measure the same comparisons:

* :class:`RegressionFitnessModel` — predicts the fitness value as a scalar
  regression target instead of a class (the paper found it regresses
  towards the median of the training labels).
* :class:`TwoTierFitnessModel` — a first network decides whether the
  fitness is zero; a second network predicts the non-zero value (the paper
  found first-tier mispredictions eliminate good genes).
* :class:`PairwiseRankingModel` — predicts which of two candidates is
  closer to the target (the correctness *ordering* the Roulette Wheel
  actually needs); trained on pairs of samples.
* :class:`BigramMembershipModel` — predicts which ordered pairs of DSL
  functions appear adjacently in the target program (a 41×41 multi-label
  output, over 99% of which is zero).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import NNConfig
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.program import Program
from repro.fitness.features import FeatureEncoder, FitnessSample, value_vocabulary_size
from repro.fitness.models import TraceFitnessModel, encode_examples
from repro.nn.autograd import Tensor, concat, no_grad
from repro.nn.layers import Dense
from repro.nn.losses import mse_loss, sigmoid_binary_cross_entropy, softmax_cross_entropy
from repro.nn.module import Module
from repro.nn.encoders import make_sequence_encoder


class RegressionFitnessModel(TraceFitnessModel):
    """Trace model with a scalar regression head instead of a classifier.

    Reuses the whole Figure-2 encoder stack from
    :class:`~repro.fitness.models.TraceFitnessModel`; only the output head
    and the loss change.
    """

    def __init__(
        self,
        max_fitness: int,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        # n_classes is irrelevant for the regression head but the parent
        # needs a valid value to build its (unused) classification head.
        super().__init__(n_classes=max_fitness + 1, config=config, registry=registry, rng=rng)
        self.max_fitness = max_fitness
        rng = rng or np.random.default_rng(0)
        self.regression_head = Dense(self.config.fc_dim, 1, rng=rng)

    def forward(self, batch: Dict[str, np.ndarray]) -> Tensor:  # type: ignore[override]
        return self.regression_head(self.hidden(batch))

    def compute_loss(self, batch: Dict[str, np.ndarray]):  # type: ignore[override]
        predictions = self.forward(batch)
        labels = batch["labels"].astype(np.float64)
        loss = mse_loss(predictions, labels)
        rounded = np.clip(np.round(predictions.data.reshape(-1)), 0, self.max_fitness)
        accuracy = float((rounded == batch["labels"]).mean())
        return loss, {"accuracy": accuracy, "mae": float(np.abs(predictions.data.reshape(-1) - labels).mean())}

    def predict_fitness(self, batch: Dict[str, np.ndarray]) -> np.ndarray:  # type: ignore[override]
        with no_grad():
            predictions = self.forward(batch)
        return np.clip(predictions.data.reshape(-1), 0.0, float(self.max_fitness))


class TwoTierFitnessModel(Module):
    """Tier 1 predicts "is the fitness zero?"; tier 2 predicts the non-zero value."""

    def __init__(
        self,
        n_classes: int,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        seeds = rng.integers(0, 2**31 - 1, size=2)
        self.zero_detector = TraceFitnessModel(
            n_classes=2, config=config, registry=registry, rng=np.random.default_rng(int(seeds[0]))
        )
        # tier 2 predicts classes 1..n_classes-1 (shifted down by one)
        self.value_predictor = TraceFitnessModel(
            n_classes=max(2, n_classes - 1),
            config=config,
            registry=registry,
            rng=np.random.default_rng(int(seeds[1])),
        )
        self.n_classes = n_classes

    def compute_loss(self, batch: Dict[str, np.ndarray]):
        labels = batch["labels"]
        zero_batch = dict(batch)
        zero_batch["labels"] = (labels > 0).astype(np.int64)
        zero_loss, zero_metrics = self.zero_detector.compute_loss(zero_batch)

        nonzero_mask = labels > 0
        metrics = {"zero_accuracy": zero_metrics["accuracy"]}
        if nonzero_mask.any():
            indices = np.nonzero(nonzero_mask)[0]
            sub_batch = _subset_trace_batch(batch, indices)
            sub_batch["labels"] = labels[indices] - 1
            value_loss, value_metrics = self.value_predictor.compute_loss(sub_batch)
            metrics["value_accuracy"] = value_metrics["accuracy"]
            loss = zero_loss + value_loss
        else:
            loss = zero_loss
        return loss, metrics

    def predict_fitness(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Zero when tier 1 says so, otherwise tier 2's expected value + 1."""
        zero_probabilities = self.zero_detector.predict_probabilities(batch)
        nonzero_probability = zero_probabilities[:, 1]
        values = self.value_predictor.predict_fitness(batch) + 1.0
        return np.where(nonzero_probability >= 0.5, values, 0.0)


def _subset_trace_batch(batch: Dict[str, np.ndarray], indices: np.ndarray) -> Dict[str, np.ndarray]:
    """Select a subset of samples from an encoded trace batch."""
    b, m, length = (int(x) for x in batch["shape"])
    indices = np.asarray(indices, dtype=np.int64)
    example_rows = (indices[:, None] * m + np.arange(m)[None, :]).reshape(-1)
    step_rows = (example_rows[:, None] * length + np.arange(length)[None, :]).reshape(-1)
    subset = {
        "input_tokens": batch["input_tokens"][example_rows],
        "input_mask": batch["input_mask"][example_rows],
        "output_tokens": batch["output_tokens"][example_rows],
        "output_mask": batch["output_mask"][example_rows],
        "step_functions": batch["step_functions"][example_rows],
        "step_mask": batch["step_mask"][example_rows],
        "step_value_tokens": batch["step_value_tokens"][step_rows],
        "step_value_mask": batch["step_value_mask"][step_rows],
        "shape": np.array([len(indices), m, length], dtype=np.int64),
    }
    if "labels" in batch:
        subset["labels"] = batch["labels"][indices]
    return subset


class PairwiseRankingModel(Module):
    """Predicts which of two candidate programs is closer to the target.

    The two candidates share the same IO specification; each is encoded by
    the same trace encoder and a small head classifies "first is better",
    mirroring the relative-ordering experiment in Section 5.3.1.
    """

    def __init__(
        self,
        n_classes: int,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.encoder_model = TraceFitnessModel(
            n_classes=n_classes, config=config, registry=registry, rng=rng
        )
        fc = self.encoder_model.config.fc_dim
        self.comparison_head = Dense(2 * fc, 2, rng=rng)

    def forward(self, batch_a: Dict[str, np.ndarray], batch_b: Dict[str, np.ndarray]) -> Tensor:
        """Logits ``(B, 2)``; class 1 is "the first candidate is better"."""
        hidden = concat([self.encoder_model.hidden(batch_a), self.encoder_model.hidden(batch_b)], axis=-1)
        return self.comparison_head(hidden)

    def compute_loss(self, batch_pair: Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], np.ndarray]):
        batch_a, batch_b, labels = batch_pair
        logits = self.forward(batch_a, batch_b)
        loss = softmax_cross_entropy(logits, labels)
        accuracy = float((logits.data.argmax(axis=1) == labels).mean())
        return loss, {"accuracy": accuracy}

    def predict_first_better(self, batch_a, batch_b) -> np.ndarray:
        with no_grad():
            logits = self.forward(batch_a, batch_b)
        return logits.data.argmax(axis=1) == 1


class PairwiseRankingDataset:
    """Pairs of trace samples labelled by which has the higher ideal fitness."""

    def __init__(
        self,
        samples: Sequence[FitnessSample],
        rng: np.random.Generator,
        n_pairs: Optional[int] = None,
        encoder: Optional[FeatureEncoder] = None,
    ) -> None:
        labelled = [s for s in samples if s.label is not None]
        if len(labelled) < 2:
            raise ValueError("need at least two labelled samples to build pairs")
        self.encoder = encoder or FeatureEncoder()
        n_pairs = n_pairs or len(labelled)
        self.pairs: List[Tuple[FitnessSample, FitnessSample, int]] = []
        attempts = 0
        while len(self.pairs) < n_pairs and attempts < n_pairs * 50:
            attempts += 1
            a, b = rng.choice(len(labelled), size=2, replace=False)
            sample_a, sample_b = labelled[int(a)], labelled[int(b)]
            if sample_a.label == sample_b.label:
                continue
            self.pairs.append((sample_a, sample_b, int(sample_a.label > sample_b.label)))

    def __len__(self) -> int:
        return len(self.pairs)

    def get_batch(self, indices: np.ndarray):
        chosen = [self.pairs[int(i)] for i in indices]
        batch_a = self.encoder.encode_trace_batch([p[0] for p in chosen])
        batch_b = self.encoder.encode_trace_batch([p[1] for p in chosen])
        labels = np.array([p[2] for p in chosen], dtype=np.int64)
        return batch_a, batch_b, labels


class BigramMembershipModel(Module):
    """Predicts which adjacent function bigrams occur in the target program."""

    def __init__(
        self,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config or NNConfig()
        self.config.validate()
        self.registry = registry
        rng = rng or np.random.default_rng(0)
        emb, hidden, fc = self.config.embedding_dim, self.config.hidden_dim, self.config.fc_dim
        vocab = value_vocabulary_size()
        self.n_functions = len(registry)
        self.value_encoder = make_sequence_encoder(self.config.encoder, vocab, emb, hidden, rng=rng)
        self.example_dense = Dense(2 * hidden, fc, activation="tanh", rng=rng)
        self.hidden_head = Dense(fc, fc, activation="relu", rng=rng)
        self.output_head = Dense(fc, self.n_functions * self.n_functions, rng=rng)

    @staticmethod
    def bigram_target(program: Program, registry: FunctionRegistry = REGISTRY) -> np.ndarray:
        """Flattened 41×41 indicator of adjacent function pairs in ``program``."""
        n = len(registry)
        matrix = np.zeros((n, n), dtype=np.float64)
        ids = program.function_ids
        for first, second in zip(ids, ids[1:]):
            matrix[registry.index_of(first), registry.index_of(second)] = 1.0
        return matrix.reshape(-1)

    def forward(self, batch: Dict[str, np.ndarray]):
        return self.output_head(self.hidden_head(encode_examples(self, batch).mean(axis=1)))

    def compute_loss(self, batch: Dict[str, np.ndarray]):
        if "bigram_targets" not in batch:
            raise ValueError("batch has no bigram_targets")
        logits = self.forward(batch)
        targets = batch["bigram_targets"]
        positive_fraction = max(float((targets >= 0.5).mean()), 1e-4)
        loss = sigmoid_binary_cross_entropy(
            logits, targets, pos_weight=(1.0 - positive_fraction) / positive_fraction
        )
        probabilities = 1.0 / (1.0 + np.exp(-logits.data))
        positives = targets >= 0.5
        positive_accuracy = float((probabilities[positives] >= 0.5).mean()) if positives.any() else 0.0
        return loss, {"positive_accuracy": positive_accuracy, "sparsity": float(positives.mean())}

    def predict_bigram_map(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        with no_grad():
            logits = self.forward(batch)
        return (1.0 / (1.0 + np.exp(-logits.data))).reshape(-1, self.n_functions, self.n_functions)
