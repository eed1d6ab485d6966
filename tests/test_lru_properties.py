"""Property test: ``EvaluationCache`` against a dict reference model.

The evaluation cache holds every memo of a backend — executions,
predicted scores, probability maps — so its contract is checked on its
own.  The reference model is an insertion-ordered ``dict``: a rewrite
keeps a key's position, and inserting a new key into a full store first
sweeps out its oldest quarter (at least one entry).  There is no
recency: reads never reorder the store.  The delta window holds the keys
first inserted since the last ``clear_dirty`` that are still resident.
Random operation sequences over several namespaces drive both, and every
observable — contents in store order, the bound, ``get``/``peek``
results, ``dirty_snapshot`` with and without a namespace filter,
``load_snapshot``'s retained count and the hit/miss/eviction/store
counters — must agree at every step, ``max_entries=0`` included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution import EvaluationCache

_NAMESPACES = ("outputs", "solutions", "score:nnff_cf:t")

#: a small key space forces collisions, sweeps and re-insertions
_FULL_KEYS = st.tuples(st.sampled_from(_NAMESPACES), st.integers(min_value=0, max_value=7))

_NAMESPACE_FILTERS = st.sampled_from(
    [None, (), ("outputs",), ("solutions", "score:nnff_cf:t"), _NAMESPACES]
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _FULL_KEYS, st.integers()),
        st.tuples(st.just("get"), _FULL_KEYS),
        st.tuples(st.just("peek"), _FULL_KEYS),
        st.tuples(st.just("clear_dirty")),
        st.tuples(st.just("clear")),
        st.tuples(
            st.just("load"), st.lists(st.tuples(_FULL_KEYS, st.integers()), max_size=12)
        ),
    ),
    max_size=120,
)

_MISS = object()


class _ReferenceStore:
    """Obviously-correct model of the cache contract."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.data: dict = {}
        self.fresh: set = set()
        self.hits = self.misses = self.evictions = self.stores = 0
        self.by_namespace: dict = {}

    def _record(self, namespace: str, hit: bool) -> None:
        h, m = self.by_namespace.get(namespace, (0, 0))
        self.by_namespace[namespace] = (h + hit, m + (not hit))
        self.hits += hit
        self.misses += not hit

    def put(self, full_key, value) -> None:
        if self.max_entries == 0:
            return
        if full_key not in self.data:
            if len(self.data) >= self.max_entries:
                sweep = max(1, self.max_entries // 4)
                for stale in list(self.data)[:sweep]:
                    del self.data[stale]
                    self.fresh.discard(stale)
                self.evictions += sweep
            self.fresh.add(full_key)
        self.data[full_key] = value
        self.stores += 1

    def get(self, full_key):
        hit = full_key in self.data
        self._record(full_key[0], hit)
        return self.data[full_key] if hit else _MISS

    def load(self, items) -> int:
        if self.max_entries == 0:
            return 0
        staged: dict = {}
        for full_key, value in items:
            staged.pop(full_key, None)  # the last occurrence decides the order
            staged[full_key] = value
        staged = dict(list(staged.items())[-self.max_entries:])
        for full_key, value in staged.items():
            self.put(full_key, value)
        return sum(1 for full_key in staged if full_key in self.data)

    def delta(self, namespaces=None):
        return [
            (full_key, value)
            for full_key, value in self.data.items()
            if full_key in self.fresh and (namespaces is None or full_key[0] in namespaces)
        ]


@settings(max_examples=300, deadline=None)
@given(max_entries=st.integers(min_value=0, max_value=8), ops=_OPS, filters=_NAMESPACE_FILTERS)
def test_evaluation_cache_matches_reference_model(max_entries, ops, filters):
    cache = EvaluationCache(max_entries=max_entries)
    model = _ReferenceStore(max_entries)
    for op in ops:
        kind = op[0]
        if kind == "put":
            (namespace, key), value = op[1], op[2]
            cache.put(namespace, key, value)
            model.put(op[1], value)
        elif kind == "get":
            assert cache.get(*op[1], _MISS) == model.get(op[1])
        elif kind == "peek":
            assert cache.peek(*op[1], _MISS) == model.data.get(op[1], _MISS)
        elif kind == "clear_dirty":
            cache.clear_dirty()
            model.fresh.clear()
        elif kind == "clear":
            cache.clear()
            model.data.clear()
            model.fresh.clear()
        else:
            assert cache.load_snapshot(iter(op[1])) == model.load(op[1])
        # the bound holds after every operation ...
        assert len(cache) <= max_entries
        # ... and contents, oldest first, and the delta window agree
        assert cache.snapshot() == list(model.data.items())
        assert cache.dirty_snapshot() == model.delta()
        assert cache.dirty_snapshot(filters) == model.delta(filters)
        if filters is not None:
            assert cache.snapshot(filters) == [
                (full_key, value) for full_key, value in model.data.items()
                if full_key[0] in filters
            ]
    stats = cache.stats
    assert (stats.hits, stats.misses) == (model.hits, model.misses)
    assert (stats.evictions, stats.stores) == (model.evictions, model.stores)
    assert stats.by_namespace == model.by_namespace


@settings(max_examples=100, deadline=None)
@given(
    max_entries=st.integers(min_value=0, max_value=6),
    items=st.lists(st.tuples(_FULL_KEYS, st.integers()), max_size=30),
)
def test_load_snapshot_reports_surviving_entries(max_entries, items):
    """``load_snapshot`` returns how many snapshot keys survive the bound."""
    cache = EvaluationCache(max_entries=max_entries)
    retained = cache.load_snapshot(items)
    survivors = {full_key for full_key, _ in items if cache.peek(*full_key, _MISS) is not _MISS}
    assert retained == len(survivors)
    assert len(cache) <= max_entries
    # the survivors hold the *last* snapshot value per key
    expected = dict(items)
    for full_key in survivors:
        assert cache.peek(*full_key) == expected[full_key]


@settings(max_examples=300, deadline=None)
@given(
    max_entries=st.integers(min_value=1, max_value=10),
    before=st.lists(st.tuples(_FULL_KEYS, st.integers()), max_size=12),
    window=st.lists(st.tuples(_FULL_KEYS, st.integers()), max_size=6),
    items=st.lists(st.tuples(_FULL_KEYS, st.integers()), max_size=12),
)
def test_bulk_delta_load_matches_the_per_entry_path(max_entries, before, window, items):
    """A list without duplicate keys that fits beside the stored entries
    is inserted with one ``dict.update``; every other input streams
    through ``stage_newest`` and ``put``.  An iterator always takes the
    second path, so loading the same items as a list and as an iterator
    into equal caches must leave equal caches: store order, the open
    delta window (``_fresh``), ``stores``, ``evictions`` and the return
    value.  Duplicate keys and loads past ``max_entries`` are drawn
    too, and the dirty window is already open when the load lands."""
    caches = []
    for as_list in (True, False):
        cache = EvaluationCache(max_entries=max_entries)
        for (namespace, key), value in before:
            cache.put(namespace, key, value)
        cache.clear_dirty()
        for (namespace, key), value in window:
            cache.put(namespace, key, value)
        retained = cache.load_snapshot(list(items) if as_list else iter(items))
        caches.append((cache, retained))
    (bulk, bulk_retained), (per_entry, per_entry_retained) = caches
    assert bulk_retained == per_entry_retained
    assert bulk.snapshot() == per_entry.snapshot()
    assert bulk._fresh == per_entry._fresh
    assert bulk.dirty_snapshot() == per_entry.dirty_snapshot()
    assert (bulk.stats.stores, bulk.stats.evictions) == (
        per_entry.stats.stores, per_entry.stats.evictions
    )
