"""Mini-batch training loop shared by all learned fitness models.

The loop is deliberately generic: a *dataset* is any object exposing
``__len__`` and ``get_batch(indices)``, and a *model* is any
:class:`~repro.nn.module.Module` exposing
``compute_loss(batch) -> (loss_tensor, metrics_dict)``.  The fitness
models in :mod:`repro.fitness` implement exactly that pair of hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Protocol

import numpy as np

from repro.nn.module import Module
from repro.nn.optimizers import Optimizer
from repro.utils.logging import get_logger

logger = get_logger("nn.training")


class BatchDataset(Protocol):
    """Anything the trainer can draw mini-batches from."""

    def __len__(self) -> int: ...

    def get_batch(self, indices: np.ndarray): ...


def iterate_minibatches(
    n_items: int, batch_size: int, rng: Optional[np.random.Generator] = None, shuffle: bool = True
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(n_items)`` in batches."""
    if n_items <= 0:
        return
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    order = np.arange(n_items)
    if shuffle:
        rng = rng or np.random.default_rng()
        rng.shuffle(order)
    for start in range(0, n_items, batch_size):
        yield order[start : start + batch_size]


@dataclass
class TrainingHistory:
    """Per-epoch training and validation metrics."""

    train_loss: List[float] = field(default_factory=list)
    train_metrics: List[Dict[str, float]] = field(default_factory=list)
    val_metrics: List[Dict[str, float]] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def last(self) -> Dict[str, float]:
        """Flat summary of the most recent epoch."""
        summary: Dict[str, float] = {}
        if self.train_loss:
            summary["train_loss"] = self.train_loss[-1]
        if self.train_metrics:
            summary.update({f"train_{k}": v for k, v in self.train_metrics[-1].items()})
        if self.val_metrics:
            summary.update({f"val_{k}": v for k, v in self.val_metrics[-1].items()})
        return summary

    def metric_series(self, name: str, split: str = "val") -> List[float]:
        """Time series of one metric, e.g. accuracy over epochs (Figure 7c)."""
        records = self.val_metrics if split == "val" else self.train_metrics
        return [float(r.get(name, float("nan"))) for r in records]


class Trainer:
    """Runs epochs of mini-batch optimization over a dataset."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        max_grad_norm: float = 5.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.max_grad_norm = max_grad_norm
        self.rng = rng or np.random.default_rng(0)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: BatchDataset,
        epochs: int,
        batch_size: int,
        validation: Optional[BatchDataset] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs; returns the accumulated history."""
        for epoch in range(epochs):
            self.model.train()
            epoch_losses: List[float] = []
            metric_sums: Dict[str, float] = {}
            metric_counts: Dict[str, int] = {}
            for indices in iterate_minibatches(len(dataset), batch_size, rng=self.rng):
                batch = dataset.get_batch(indices)
                self.model.zero_grad()
                loss, metrics = self.model.compute_loss(batch)
                loss.backward()
                if self.max_grad_norm:
                    self.optimizer.clip_gradients(self.max_grad_norm)
                self.optimizer.step()
                epoch_losses.append(loss.item())
                for key, value in metrics.items():
                    metric_sums[key] = metric_sums.get(key, 0.0) + float(value)
                    metric_counts[key] = metric_counts.get(key, 0) + 1

            train_metrics = {
                key: metric_sums[key] / metric_counts[key] for key in metric_sums
            }
            self.history.train_loss.append(float(np.mean(epoch_losses)) if epoch_losses else 0.0)
            self.history.train_metrics.append(train_metrics)

            if validation is not None and len(validation) > 0:
                val_metrics = self.evaluate(validation, batch_size)
                self.history.val_metrics.append(val_metrics)
            else:
                self.history.val_metrics.append({})

            if verbose:  # pragma: no cover - logging only
                logger.info(
                    "epoch %d/%d: loss=%.4f %s",
                    epoch + 1,
                    epochs,
                    self.history.train_loss[-1],
                    self.history.last(),
                )
        return self.history

    # ------------------------------------------------------------------
    def evaluate(self, dataset: BatchDataset, batch_size: int) -> Dict[str, float]:
        """Average the model's metrics over ``dataset`` without optimizing."""
        self.model.eval()
        metric_sums: Dict[str, float] = {}
        metric_counts: Dict[str, int] = {}
        total_loss = 0.0
        n_batches = 0
        from repro.nn.autograd import no_grad

        with no_grad():
            for indices in iterate_minibatches(
                len(dataset), batch_size, rng=self.rng, shuffle=False
            ):
                batch = dataset.get_batch(indices)
                loss, metrics = self.model.compute_loss(batch)
                total_loss += loss.item()
                n_batches += 1
                for key, value in metrics.items():
                    metric_sums[key] = metric_sums.get(key, 0.0) + float(value)
                    metric_counts[key] = metric_counts.get(key, 0) + 1
        result = {key: metric_sums[key] / metric_counts[key] for key in metric_sums}
        if n_batches:
            result["loss"] = total_loss / n_batches
        self.model.train()
        return result
