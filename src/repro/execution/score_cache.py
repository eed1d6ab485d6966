"""Memoization of predicted NN-FF fitness per ``(program, io_set)``.

The GA re-scores its whole population every generation, but most members
— elites, reproduced survivors, genes re-visited by the neighborhood
search — were already scored in an earlier generation.  Pre-memoization
the NN forward pass could not skip them: padding widths (and the BLAS
kernels selected for the batch) depended on batch composition, so the
same program could score differently depending on who it shared a batch
with.  With the batch-shape-invariant encoder/model path (fixed padding
widths, trailing-pad trimming, never-singleton GEMM batches) a program's
predicted fitness is one well-defined number, and this module caches it:

* :class:`LRUCache` — a generic bounded least-recently-used store with
  hit/miss/eviction counters (also used to bound the fitness layer's
  sample and probability-map caches).
* :class:`ScoreCache` — an LRU of predicted fitness values keyed by the
  structural ``(program, io_set)`` keys of :mod:`repro.execution.cache`
  (process-stable, so contents can be snapshotted across workers), plus
  the batch-partitioning helper the fitness layer uses to forward only
  genuinely new genes.

Memoized values are deterministic functions of ``(program, io_set)``, so
— exactly like the :class:`~repro.execution.cache.EvaluationCache` —
the cache can never change the result of a run, only its cost.

A process holds one :class:`ScoreCache` per scoring model (the L1 tier).
Parallel workers ship the entries a job wrote (:meth:`ScoreCache.dirty_snapshot`)
back to the parent session, which appends its own dirty window to the
persistent cache log (the L3 tier, ``repro.core.artifacts``) and loads
that log back at the next session open (see ``docs/execution.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsl.program import Program
from repro.execution.cache import CacheStats, program_key, stage_newest

_MISSING = object()


class LRUCache:
    """A bounded least-recently-used mapping with hit/miss counters.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  When the bound is reached the least
        recently *used* (read or written) entry is evicted.  ``0``
        disables storage entirely: every ``get`` misses and ``put`` is a
        no-op, which is how the bit-identity controls are built.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: keys written since the last :meth:`clear_dirty`, in the store's
        #: recency order — the delta journal parallel workers export
        #: instead of the whole cache.  It mirrors both of the store's
        #: reorderings (a ``put``, and a ``get`` of a journaled key) and
        #: its evictions, so reading it never scans the store
        self._dirty: "OrderedDict[Hashable, None]" = OrderedDict()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable, default: Any = None, namespace: str = "lru") -> Any:
        """Cached value (marking it most-recently-used) or ``default``."""
        value = self._store.get(key, _MISSING)
        hit = value is not _MISSING
        self.stats.record(namespace, hit)
        if not hit:
            return default
        self._store.move_to_end(key)
        if key in self._dirty:
            self._dirty.move_to_end(key)
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but touching neither counters nor recency."""
        value = self._store.get(key, _MISSING)
        return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least recently used entry if full."""
        if not self.enabled:
            return
        if key in self._store:
            self._store.move_to_end(key)
        elif len(self._store) >= self.capacity:
            evicted, _ = self._store.popitem(last=False)
            self._dirty.pop(evicted, None)
            self.stats.evictions += 1
        self._store[key] = value
        self._dirty[key] = None
        self._dirty.move_to_end(key)
        self.stats.stores += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._store.clear()
        self._dirty.clear()

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Snapshot of the entries, least recently used first."""
        return list(self._store.items())

    # ------------------------------------------------------------------
    def clear_dirty(self) -> None:
        """Start a fresh delta window (e.g. at the start of a worker job)."""
        self._dirty.clear()

    def dirty_items(self) -> List[Tuple[Hashable, Any]]:
        """Entries written since :meth:`clear_dirty`, in store order.

        Keys evicted after being written are silently absent — a delta
        only ships values that still exist.  This is what bounds the
        merge-back payload of a parallel job to the entries *that job*
        computed rather than the whole cache.  It is read from the
        journal, so it costs O(entries written), not O(cache size).
        """
        store = self._store
        return [(key, store[key]) for key in self._dirty]

    def load(self, items: Sequence[Tuple[Hashable, Any]]) -> int:
        """Bulk-insert snapshot entries (e.g. from another process).

        Returns the number of entries retained after the bound is applied
        (a snapshot larger than the capacity keeps only its newest
        entries; a disabled cache retains nothing).  Existing entries are
        overwritten — values are deterministic per key, so this can only
        refresh recency.

        The input streams through a staging dict bounded by ``capacity``:
        loading a snapshot (or a whole L3 cache log) never materializes
        more than ``capacity`` entries at once, no matter how large the
        source is.  Any iterable works, oldest entry first.
        """
        if not self.enabled:
            # drain the iterable without storing anything (parity with a
            # put loop on a disabled cache)
            for _ in items:
                pass
            return 0
        staged = stage_newest(items, self.capacity)
        for key, value in staged.items():
            self.put(key, value)
        # count after the fact: staged entries can still evict each other's
        # survivors when the cache already held other keys
        return sum(1 for key in staged if key in self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(entries={len(self._store)}, capacity={self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )


class ScoreCache:
    """Predicted-fitness memo keyed by structural ``(program, io_set)`` keys.

    One instance serves one scoring model (the namespace keeps two models
    from ever reading each other's values).  Keys are process-stable, so
    snapshots taken with :meth:`snapshot` can warm-start the score cache
    of a worker process (see ``docs/execution.md``).
    """

    def __init__(self, capacity: int = 100_000, namespace: str = "score") -> None:
        self.namespace = namespace
        self._lru = LRUCache(capacity)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._lru.capacity

    @property
    def enabled(self) -> bool:
        return self._lru.enabled

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    # ------------------------------------------------------------------
    def get(self, program: Program, io_key: Tuple) -> Optional[float]:
        """Cached predicted fitness of ``program`` on the spec, or ``None``."""
        return self._lru.get((program_key(program), io_key), namespace=self.namespace)

    def put(self, program: Program, io_key: Tuple, value: float) -> None:
        self._lru.put((program_key(program), io_key), float(value))

    def put_key(self, key: Tuple[int, ...], io_key: Tuple, value: float) -> None:
        """Store by precomputed program key (used by the batch fill path)."""
        self._lru.put((key, io_key), float(value))

    # ------------------------------------------------------------------
    def partition(
        self, programs: Sequence[Program], io_key: Tuple
    ) -> Tuple[np.ndarray, "OrderedDict[Tuple[int, ...], Tuple[Program, List[int]]]"]:
        """Split a population into cached scores and genes still to forward.

        Returns ``(scores, pending)`` where ``scores[i]`` is filled for
        every cache hit and ``pending`` maps each *distinct* uncached
        program key — in first-occurrence order, so forward batches are
        deterministic — to ``(program, positions)``; duplicated genes are
        forwarded once and fanned out to every position.
        """
        scores = np.zeros(len(programs))
        pending: "OrderedDict[Tuple[int, ...], Tuple[Program, List[int]]]" = OrderedDict()
        for index, program in enumerate(programs):
            key = program_key(program)
            cached = self._lru.get((key, io_key), _MISSING, namespace=self.namespace)
            if cached is not _MISSING:
                scores[index] = cached
            elif key in pending:
                pending[key][1].append(index)
            else:
                pending[key] = (program, [index])
        return scores, pending

    # ------------------------------------------------------------------
    def snapshot(self) -> List[Tuple[Hashable, float]]:
        """Picklable contents (keys are structural, so cross-process safe)."""
        return self._lru.items()

    def clear_dirty(self) -> None:
        """Start a fresh delta window (see :meth:`LRUCache.clear_dirty`)."""
        self._lru.clear_dirty()

    def dirty_snapshot(self) -> List[Tuple[Hashable, float]]:
        """Entries written since :meth:`clear_dirty` (the merge-back delta)."""
        return self._lru.dirty_items()

    def load_snapshot(self, items: Sequence[Tuple[Hashable, float]]) -> int:
        """Warm-start from a snapshot taken in another process."""
        return self._lru.load(items)

    def clear(self) -> None:
        self._lru.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoreCache(namespace={self.namespace!r}, entries={len(self)}, "
            f"capacity={self.capacity}, hit_rate={self.stats.hit_rate:.3f})"
        )

