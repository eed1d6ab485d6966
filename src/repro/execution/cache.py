"""Cross-layer evaluation cache for candidate-program executions.

Phase 2 of NetSyn evaluates the same candidate program on the same IO
specification several times per generation: once for the solution check,
once per fitness scoring, and again whenever the gene survives into the
next generation (elitism, reproduction).  The :class:`EvaluationCache`
memoizes those executions under **structural** keys so that

* the solution check and fitness scoring share one execution, and
* elite/survivor evaluations are reused across generations, and
* keys are stable across worker processes (no reliance on Python's
  process-salted ``hash()``), which makes cache contents shareable and
  keeps parallel runs reproducible.

The cache is namespaced (``"outputs"``, ``"traces"``, ``"solutions"``,
and the fitness layer's ``"score:<fitness>…"`` and
``"probability_map:<tag>"`` memos) so independent layers never collide,
and bounded: when full, the oldest entries are evicted first (insertion
order).  A
``max_entries`` of 0 disables storage entirely, which is how the
bit-identical cached-vs-uncached tests construct their baseline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.dsl.equivalence import IOSet
from repro.dsl.program import Program
from repro.dsl.types import Value

_MISSING = object()

#: default bound of an :class:`EvaluationCache` (entries across namespaces)
DEFAULT_MAX_ENTRIES = 200_000


def freeze_value(value: Value) -> Hashable:
    """Hashable, structural form of a DSL value (lists become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return int(value)


def io_set_key(io_set: IOSet) -> Tuple:
    """Stable structural key of an IO specification.

    Unlike keys built from Python's builtin ``hash()`` (which is salted
    per process for strings and can collide across objects), this key is
    the full frozen structure of the examples: equal specifications map
    to equal keys in every process, and distinct specifications map to
    distinct keys.
    """
    return tuple(
        (tuple(freeze_value(v) for v in example.inputs), freeze_value(example.output))
        for example in io_set
    )


def program_key(program: Program) -> Tuple[int, ...]:
    """Stable structural key of a program (its function-id sequence)."""
    return program.function_ids


def stage_newest(items, bound: int) -> "OrderedDict[Hashable, Any]":
    """Stream ``(key, value)`` pairs through a ``bound``-sized staging dict.

    The engine behind the bounded snapshot load
    (:meth:`EvaluationCache.load_snapshot`): iterating any oldest-first
    iterable, it keeps only the newest ``bound`` distinct keys — each
    holding its last value — without ever materializing more than
    ``bound`` entries, no matter how large the source (e.g. a whole L3
    cache log) is.
    """
    staged: "OrderedDict[Hashable, Any]" = OrderedDict()
    for key, value in items:
        if key in staged:
            staged.move_to_end(key)
        elif len(staged) >= bound:
            staged.popitem(last=False)
        staged[key] = value
    return staged


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`EvaluationCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    by_namespace: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def record(self, namespace: str, hit: bool) -> None:
        h, m = self.by_namespace.get(namespace, (0, 0))
        if hit:
            self.hits += 1
            self.by_namespace[namespace] = (h + 1, m)
        else:
            self.misses += 1
            self.by_namespace[namespace] = (h, m + 1)

    def record_many(self, namespace: str, hits: int, misses: int) -> None:
        """Bulk counterpart of :meth:`record` for batch lookups."""
        h, m = self.by_namespace.get(namespace, (0, 0))
        self.hits += hits
        self.misses += misses
        self.by_namespace[namespace] = (h + hits, m + misses)

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "by_namespace": {k: {"hits": v[0], "misses": v[1]} for k, v in self.by_namespace.items()},
        }


class EvaluationCache:
    """Bounded, namespaced memo store keyed by structural program/IO keys.

    Parameters
    ----------
    max_entries:
        Maximum number of entries held across all namespaces.  When the
        bound is reached, the oldest quarter of the entries is evicted in
        one sweep.  ``0`` disables caching (every ``get`` misses and
        ``put`` is a no-op) — useful as an uncached control.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = int(max_entries)
        self._store: Dict[Tuple[str, Hashable], Any] = {}
        #: how many keys were first inserted since the last
        #: :meth:`clear_dirty`.  Eviction only removes a prefix of the
        #: insertion-ordered store, so the survivors among them are always
        #: its last ``min(_fresh, len(_store))`` entries
        self._fresh = 0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def get(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        """Cached value for ``(namespace, key)`` or ``default`` on a miss."""
        value = self._store.get((namespace, key), _MISSING)
        hit = value is not _MISSING
        self.stats.record(namespace, hit)
        return value if hit else default

    def peek(self, namespace: str, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching the hit/miss counters."""
        value = self._store.get((namespace, key), _MISSING)
        return default if value is _MISSING else value

    def put(self, namespace: str, key: Hashable, value: Any) -> None:
        """Store ``value``; evicts oldest entries when the bound is hit."""
        if not self.enabled:
            return
        full_key = (namespace, key)
        if full_key not in self._store:
            if len(self._store) >= self.max_entries:
                evict = max(1, self.max_entries // 4)
                for stale in list(islice(self._store, evict)):
                    del self._store[stale]
                self.stats.evictions += evict
            self._fresh += 1
        self._store[full_key] = value
        self.stats.stores += 1

    def clear(self) -> None:
        """Drop every entry (the stats object is preserved)."""
        self._store.clear()
        self._fresh = 0

    # ------------------------------------------------------------------
    def snapshot(self, namespaces: Optional[Tuple[str, ...]] = None) -> list:
        """Picklable ``((namespace, key), value)`` pairs, oldest first.

        Keys are structural (process-stable), so a snapshot taken in one
        process can warm-start the cache of another; ``namespaces``
        restricts the export (e.g. to the compact ``outputs`` /
        ``solutions`` entries, leaving heavyweight traces behind).
        """
        if namespaces is None:
            return list(self._store.items())
        wanted = set(namespaces)
        return [(key, value) for key, value in self._store.items() if key[0] in wanted]

    def clear_dirty(self) -> None:
        """Start a fresh delta window (e.g. at the start of a worker job)."""
        self._fresh = 0

    def dirty_snapshot(self, namespaces: Optional[Tuple[str, ...]] = None) -> list:
        """Entries first inserted since :meth:`clear_dirty`, store order.

        The per-job merge-back payload and the parent's L3 log frame: it
        reads only the store's newest entries, so it costs O(new entries),
        not O(cache size).  Evicted-after-write keys are absent.  A
        rewrite of a key already resident before the window is not
        re-exported: values are deterministic per key, so the rewrite
        stored the value the key already had.  ``namespaces`` restricts
        the export like :meth:`snapshot`.
        """
        if not self._fresh:
            return []
        wanted = None if namespaces is None else set(namespaces)
        newest = islice(reversed(self._store.items()), self._fresh)
        items = [
            (key, value) for key, value in newest if wanted is None or key[0] in wanted
        ]
        items.reverse()
        return items

    def load_snapshot(self, items) -> int:
        """Bulk-insert snapshot pairs; returns how many were retained.

        Values are deterministic per key, so loading a snapshot can never
        change results — existing entries are simply overwritten with the
        identical value.  This is also the cross-process merge primitive:
        worker cache deltas merged back into a parent (or a persisted
        snapshot reloaded in a later process) land here, and merging is
        idempotent.  A disabled cache retains nothing and reports 0.

        The input streams through a staging dict bounded by
        ``max_entries``, so loading a snapshot far larger than the cache
        (e.g. a long-lived L3 log) keeps only the newest entries without
        ever materializing the whole snapshot in memory.  A list with no
        duplicate key that fits beside the stored entries (a worker's
        per-job delta) is inserted with one ``dict.update`` instead: no
        entry can be evicted then, so the result is the same.
        """
        if not self.enabled:
            for _ in items:
                pass
            return 0
        if isinstance(items, list) and len(self._store) + len(items) <= self.max_entries:
            delta = dict(items)
            if len(delta) == len(items):
                before = len(self._store)
                self._store.update(delta)
                self._fresh += len(self._store) - before
                self.stats.stores += len(delta)
                return len(delta)
        staged = stage_newest(items, self.max_entries)
        for (namespace, key), value in staged.items():
            self.put(namespace, key, value)
        # count after the fact: staged entries can still be swept out by
        # the oldest-quarter eviction when the cache already held others
        return sum(1 for full_key in staged if full_key in self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvaluationCache(entries={len(self._store)}, max={self.max_entries}, "
            f"hit_rate={self.stats.hit_rate:.3f})"
        )
