"""Basic layers: Dense, Embedding, Dropout and activation modules."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.autograd import Tensor, embedding_lookup
from repro.nn.module import Module, Parameter


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def active_length(mask: Optional[np.ndarray], time: int) -> int:
    """Number of leading timesteps that carry at least one unmasked row.

    Sequence layers use this to skip trailing all-padding columns: a
    fully-masked timestep leaves LSTM states untouched and contributes
    exact zeros to masked means, so dropping the trailing all-masked
    region never changes the result — which is what lets the feature
    encoder pad every batch to a fixed, batch-independent width for free.
    Always at least 1 so degenerate all-masked batches keep a well-defined
    time dimension.
    """
    if mask is None:
        return time
    mask = np.asarray(mask)
    active = np.flatnonzero(mask.any(axis=0))
    return int(active[-1]) + 1 if active.size else 1


def masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of ``values`` ``(batch, time, features)`` over each row's unmasked
    timesteps; a row with no unmasked timestep pools to zeros."""
    mask = np.asarray(mask, dtype=np.float64)
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
    weights = mask / counts
    return (values * Tensor(weights[:, :, None])).sum(axis=1)


class Dense(Module):
    """A fully connected layer ``y = x W + b`` with optional activation.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    activation:
        One of ``None``, ``"tanh"``, ``"sigmoid"``, ``"relu"``.
    rng:
        Generator used for weight initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        if activation not in (None, "tanh", "sigmoid", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = Parameter(_glorot(rng, in_features, out_features, (in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight + self.bias
        if self.activation == "tanh":
            out = out.tanh()
        elif self.activation == "sigmoid":
            out = out.sigmoid()
        elif self.activation == "relu":
            out = out.relu()
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features}, activation={self.activation})"


class Embedding(Module):
    """A lookup table mapping integer ids to dense vectors.

    Used for DSL integer values (shifted into ``[0, vocab)``) and for
    function identifiers.
    """

    def __init__(
        self, vocab_size: int, embedding_dim: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        if vocab_size <= 0 or embedding_dim <= 0:
            raise ValueError("vocab_size and embedding_dim must be positive")
        rng = rng or np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.embedding_dim = embedding_dim
        self.weight = Parameter(rng.normal(0.0, 0.1, size=(vocab_size, embedding_dim)))

    def forward(self, indices) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise IndexError(
                f"embedding indices out of range [0, {self.vocab_size}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return embedding_lookup(self.weight, indices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Embedding({self.vocab_size}, {self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)


class Tanh(Module):
    """Element-wise tanh activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Element-wise sigmoid activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class ReLU(Module):
    """Element-wise ReLU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()
