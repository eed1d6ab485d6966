"""Sequence encoders used by the neural fitness models.

Both encoders map a padded batch of integer token sequences
``(batch, time)`` plus a boolean mask to a fixed-size vector per sequence:

* :class:`LSTMSequenceEncoder` — embedding followed by an LSTM, as in the
  paper's Figure 2.
* :class:`MeanPoolEncoder` — embedding followed by a masked mean and a
  dense projection; a much faster drop-in used for quick experiments and
  as an ablation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.layers import Dense, Embedding, active_length, masked_mean
from repro.nn.lstm import LSTM
from repro.nn.module import Module


def _trim_padding(tokens: np.ndarray, mask: Optional[np.ndarray]):
    """Drop trailing all-masked columns from a padded (tokens, mask) pair.

    The feature encoder may pad every batch to a fixed width so encoded
    arrays are batch-shape-invariant; the trailing all-padding region is
    an exact no-op for both encoders (masked LSTM steps keep their state,
    masked mean weights are zero), so it is sliced off before any work is
    done on it.
    """
    if mask is None:
        return tokens, mask
    width = active_length(mask, tokens.shape[1])
    if width < tokens.shape[1]:
        return tokens[:, :width], mask[:, :width]
    return tokens, mask


class LSTMSequenceEncoder(Module):
    """Embedding + LSTM encoder producing the final hidden state."""

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.lstm = LSTM(embedding_dim, hidden_dim, rng=rng)

    def forward(self, tokens: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError("tokens must be (batch, time)")
        tokens, mask = _trim_padding(tokens, mask)
        embedded = self.embedding(tokens)  # (batch, time, embedding_dim)
        return self.lstm(embedded, mask=mask)


class MeanPoolEncoder(Module):
    """Embedding + masked mean pooling + dense projection."""

    def __init__(
        self,
        vocab_size: int,
        embedding_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.projection = Dense(embedding_dim, hidden_dim, activation="tanh", rng=rng)

    def forward(self, tokens: np.ndarray, mask: Optional[np.ndarray] = None) -> Tensor:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 2:
            raise ValueError("tokens must be (batch, time)")
        tokens, mask = _trim_padding(tokens, mask)
        embedded = self.embedding(tokens)  # (batch, time, embedding_dim)
        if mask is None:
            mask = np.ones(tokens.shape)
        return self.projection(masked_mean(embedded, mask))


def make_sequence_encoder(
    kind: str,
    vocab_size: int,
    embedding_dim: int,
    hidden_dim: int,
    rng: Optional[np.random.Generator] = None,
) -> Module:
    """Factory selecting between the LSTM and pooled encoders."""
    if kind == "lstm":
        return LSTMSequenceEncoder(vocab_size, embedding_dim, hidden_dim, rng=rng)
    if kind == "pooled":
        return MeanPoolEncoder(vocab_size, embedding_dim, hidden_dim, rng=rng)
    raise ValueError(f"unknown encoder kind {kind!r}")
