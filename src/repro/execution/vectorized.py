"""Columnar population-level evaluation: the vectorized execution path.

The serial engine executes one ``(candidate, example)`` pair per
interpreter pass.  A GA generation, however, asks one question about a
whole *population* against one IO specification — and populations built
by crossover, mutation and reproduction share long function-id prefixes
(and outright duplicates).  This module exploits both redundancies:

1. **Prefix sharing.**  Candidates are deduplicated into a trie over
   ``program.function_ids``.  Argument bindings depend only on the input
   type signature and the fid prefix (:mod:`repro.dsl.compiler`), so
   every candidate sharing a prefix shares the prefix's intermediate
   values exactly.  Each unique prefix is computed once, no matter how
   many candidates extend it.
2. **Example batching.**  A trie level stores its values as numpy
   columns of shape ``[unique prefixes x examples]`` (lists as padded
   2-D blocks with per-row lengths).  Prefixes applying the same DSL
   function with the same bindings are grouped so each group runs as
   *one* kernel dispatch (:mod:`repro.dsl.vector_ops`) — one dispatch
   per unique ``(step, binding shape)`` instead of one interpreter step
   per ``(function, candidate, example)``.

A :class:`ColumnarEvaluator` is one such trie over one example set (of
one input signature) and one registry, kept alive between calls: it
finds a batch's novel nodes through a ``dict`` per level over packed
``parent-prefix x fid`` codes and appends them into capacity-buffered
columns, so an insert pays only for its new nodes.  Argument bindings
are derived from a per-prefix *type bitmask* instead of compiling each
candidate: bit ``k`` records whether history slot ``k`` holds a list,
which is all the backwards type-scan of the compiler depends on.
Bindings are memoized per ``(registry, history length, mask, fid)`` in a
module-level cache — the analog of the compiler's compile cache, warm
across calls.

:class:`BatchExecutionEngine` wraps the evaluator behind the
:class:`~repro.execution.engine.ExecutionEngine` contract: batch outputs
and verdicts land in the same ``outputs``/``solutions`` cache namespaces
with the same per-program hit/miss accounting, so the per-process cache,
the L3 cache log, snapshots and the fitness layer see vectorized traffic
exactly like serial traffic.  Traces come back as :class:`TraceColumns`,
gathered from the trie levels the solution check already filled (plus
the wrong-typed programs it rejected without running), never decoded
into ``StepRecord`` objects.  Values and traces are
bit-identical to the compiled and reference paths
(``tests/test_vectorized.py``).  The engine decides once per IO set and
registry whether the trie can serve: every example has the same input
signature, every input lies within ``SAFE_INT_BOUND``, every registry
function has a kernel and an id in ``[0, 2**20)``, and the batch has a
single registry.  Anything else (served tasks arrive with arbitrary
ints and signatures) runs on the engine's inherited per-program path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsl.compiler import input_signature, normalize_inputs
from repro.dsl.equivalence import IOSet
from repro.dsl.functions import REGISTRY, FunctionRegistry
from repro.dsl.interpreter import ExecutionTrace
from repro.dsl.program import Program
from repro.dsl.types import DSLType, Value, default_for, values_equal
from repro.dsl.vector_ops import SAFE_INT_BOUND, batch_impl_for
from repro.execution.cache import EvaluationCache, program_key
from repro.execution.engine import (
    _NS_OUTPUTS,
    _NS_SOLUTIONS,
    _NS_TRACES,
    ExecutionEngine,
    may_satisfy,
)

_INT = DSLType.INT
_DEFAULT_INT = default_for(_INT)

#: ``fid -> (kernel, arg_types, returns_list)`` of one registry
_FnInfo = Tuple[Callable, Tuple[DSLType, ...], bool]

#: a registry with a function id outside ``[0, _MAX_PACKED_FID)`` gets no
#: trie; inside it, (parent, fid) pairs pack into int64 codes
_MAX_PACKED_FID = 1 << 20

#: resident trie nodes past which an evaluator drops its trie after a
#: call; the next batch rebuilds it incrementally from empty
TRIE_NODE_BUDGET = 200_000

# ---------------------------------------------------------------------------
# Per-registry memo tables (kernels and bindings), module-level like the
# compile cache: warm across evaluators, pinned by holding the registry.
# ---------------------------------------------------------------------------

_REGISTRY_TABLES: Dict[int, Tuple[FunctionRegistry, Optional[Dict[int, _FnInfo]], Dict]] = {}


def _tables_for(registry: FunctionRegistry) -> Tuple[Optional[Dict[int, _FnInfo]], Dict]:
    """``(fn_table, bind_cache)`` of ``registry``.  ``fn_table`` is None
    when no trie can serve the registry: a function without a kernel, or
    with an id outside ``[0, _MAX_PACKED_FID)``."""
    entry = _REGISTRY_TABLES.get(id(registry))
    if entry is None or entry[0] is not registry:
        if len(_REGISTRY_TABLES) >= 64:
            _REGISTRY_TABLES.clear()
        fn_table: Optional[Dict[int, _FnInfo]] = {}
        for fn in registry.functions:
            kernel = batch_impl_for(fn)
            if kernel is None or not 0 <= fn.fid < _MAX_PACKED_FID:
                fn_table = None
                break
            fn_table[fn.fid] = (kernel, fn.arg_types, fn.return_type is not _INT)
        entry = (registry, fn_table, {})
        _REGISTRY_TABLES[id(registry)] = entry
    return entry[1], entry[2]


@dataclass
class KernelStats:
    """Kernel-level telemetry for one :class:`ColumnarEvaluator`.

    ``dispatches`` counts actual numpy-kernel invocations,
    ``fused_groups`` the extra ``(function, binding)`` groups that rode an
    already-counted dispatch.  The ``leaf_*`` / ``nodes_inserted``
    counters describe the persistent trie: a leaf hit is a program
    answered entirely from trie-resident state.  ``trie_evictions``
    counts tries dropped past ``TRIE_NODE_BUDGET``.
    """

    dispatches: int = 0
    fused_groups: int = 0
    leaf_lookups: int = 0
    leaf_hits: int = 0
    nodes_inserted: int = 0
    trie_evictions: int = 0

    def add(self, other: "KernelStats") -> None:
        """Fold ``other``'s counters into this one."""
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))

    @property
    def reuse_ratio(self) -> float:
        """Fraction of requested programs served from existing trie leaves."""
        return self.leaf_hits / self.leaf_lookups if self.leaf_lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "dispatch_count": self.dispatches,
            "fused_group_count": self.fused_groups,
            "trie_leaf_lookups": self.leaf_lookups,
            "trie_leaf_hits": self.leaf_hits,
            "trie_nodes_inserted": self.nodes_inserted,
            "trie_evictions": self.trie_evictions,
            "reuse_ratio": self.reuse_ratio,
        }


def _resolve_pairs(
    pairs: np.ndarray,
    stride: int,
    history_len: int,
    fn_table: Dict[int, _FnInfo],
    bind_cache: Dict,
):
    """Bindings and fid-major dispatch groups for unique ``(mask, fid)`` pairs.

    Returns ``(pair_gid, pair_ret, group_meta)``: the dispatch group of
    each pair (renumbered fid-major so same-function groups sit on
    adjacent ranges and fuse), whether it returns a list, and the
    per-group ``(fid, bindings, returns_list)`` metadata.
    """
    n_pairs = len(pairs)
    pair_gid = np.empty(n_pairs, dtype=np.int64)
    pair_ret = np.empty(n_pairs, dtype=np.int64)
    group_meta: List[Tuple[int, Tuple[int, ...], bool]] = []
    group_of: Dict[Tuple, int] = {}
    pair_mask_list = (pairs // stride).tolist()
    pair_fid_list = (pairs % stride).tolist()
    for u in range(n_pairs):
        fid = pair_fid_list[u]
        bind_key = (history_len, pair_mask_list[u], fid)
        entry = bind_cache.get(bind_key)
        if entry is None:
            if len(bind_cache) >= 65536:
                bind_cache.clear()
            _kernel, arg_types, returns_list = fn_table[fid]
            bind = _compute_bindings(pair_mask_list[u], history_len, arg_types)
            entry = (bind, (fid,) + bind, returns_list)
            bind_cache[bind_key] = entry
        bind, group_key, ret_is_list = entry
        gid = group_of.get(group_key)
        if gid is None:
            gid = len(group_meta)
            group_of[group_key] = gid
            group_meta.append((fid, bind, bool(ret_is_list)))
        pair_gid[u] = gid
        pair_ret[u] = 1 if ret_is_list else 0
    n_groups = len(group_meta)
    if n_groups > 1:
        order_g = sorted(range(n_groups), key=lambda g: (group_meta[g][0], group_meta[g][1]))
        remap = np.empty(n_groups, dtype=np.int64)
        for new_gid, g in enumerate(order_g):
            remap[g] = new_gid
        pair_gid = remap[pair_gid]
        group_meta = [group_meta[g] for g in order_g]
    return pair_gid, pair_ret, group_meta


def _concat_cols(parts):
    """Stack per-group argument columns for a fused same-function dispatch.

    Int columns concatenate directly; list columns are padded to the span's
    widest source (pad cells stay zero, preserving the column invariant).
    """
    if not isinstance(parts[0], tuple):
        return np.concatenate(parts)
    width = 0
    total = 0
    for values, _lengths in parts:
        total += values.shape[0]
        if values.shape[1] > width:
            width = values.shape[1]
    vals = np.zeros((total, width), dtype=np.int64)
    lens = np.empty(total, dtype=np.int64)
    offset = 0
    for values, lengths in parts:
        rows = values.shape[0]
        vals[offset : offset + rows, : values.shape[1]] = values
        lens[offset : offset + rows] = lengths
        offset += rows
    return vals, lens


def _compute_bindings(mask: int, history_len: int, arg_types: Tuple[DSLType, ...]) -> Tuple[int, ...]:
    """The compiler's backwards type-scan, driven by a type bitmask.

    ``mask`` has bit ``k`` set when history slot ``k`` holds a list.  Each
    argument binds to the highest available slot of its type; two
    arguments of the same type exclude each other's slot, exactly like
    :meth:`repro.dsl.compiler.CompiledProgram._bind`.
    """
    full = (1 << history_len) - 1
    pools = {True: mask & full, False: ~mask & full}
    bindings = []
    for arg_type in arg_types:
        wants_list = arg_type is not _INT
        pool = pools[wants_list]
        slot = pool.bit_length() - 1
        if slot >= 0:
            pools[wants_list] = pool & ~(1 << slot)
        bindings.append(slot)
    return tuple(bindings)


@dataclass
class TraceColumns:
    """The execution traces of a batch of programs, as step-value columns.

    The tensor form of a batch's traces: what
    :meth:`BatchExecutionEngine.traces_batch` returns and
    :meth:`repro.fitness.features.FeatureEncoder.encode_trace_batch`
    turns into model tokens.  For ``B`` programs over ``m`` examples,
    padded to ``L`` steps and ``W`` cells per step value (all ``int64``):

    * ``fids [B, L]`` — each program's function ids, 0 past its end;
    * ``lengths [B]`` — each program's step count;
    * ``values [B, m, L, W]`` — step ``k``'s output on example ``e``: an
      int as a one-cell row, a list as its elements, zero-padded;
    * ``sizes [B, m, L]`` — how many cells of that row hold the value: 1
      for an int step, the list's length for a list step, 0 past the
      program's end (the lengths ``flatten_value`` gives).

    ``L`` is the longest program and ``W`` the longest step value.
    """

    fids: np.ndarray
    lengths: np.ndarray
    values: np.ndarray
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)

    def take(self, indices) -> "TraceColumns":
        """The rows ``indices`` (in that order, repeats allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return TraceColumns(
            self.fids[indices], self.lengths[indices], self.values[indices], self.sizes[indices]
        )

    @classmethod
    def from_steps(
        cls, function_ids: Sequence[Sequence[int]], steps: Sequence[Sequence[Sequence[Value]]]
    ) -> "TraceColumns":
        """Columns from Python values: ``steps[b][e]`` lists the step
        outputs of program ``b`` (function ids ``function_ids[b]``) on
        example ``e``.  Steps past a program's length are ignored, and
        ints beyond ``SAFE_INT_BOUND`` saturate to it (the token range
        lies far inside)."""
        batch = len(function_ids)
        m = len(steps[0]) if batch else 0
        max_len = max((len(seq) for seq in function_ids), default=0)
        fids = np.zeros((batch, max_len), dtype=np.int64)
        lengths = np.zeros(batch, dtype=np.int64)
        rows: List[list] = []
        positions: List[int] = []
        for b, (seq, per_example) in enumerate(zip(function_ids, steps)):
            length = len(seq)
            lengths[b] = length
            fids[b, :length] = seq
            if len(per_example) != m:
                raise ValueError("every program needs one trace per example")
            for e, outputs in enumerate(per_example):
                base = (b * m + e) * max_len
                for k, value in enumerate(outputs[:length]):
                    rows.append(list(value) if isinstance(value, (list, tuple)) else [value])
                    positions.append(base + k)
        row_sizes = [len(row) for row in rows]
        width = max(row_sizes, default=0)
        values = np.zeros((batch * m * max_len, width), dtype=np.int64)
        sizes = np.zeros(batch * m * max_len, dtype=np.int64)
        if rows:
            padded = [row + [0] * (width - len(row)) for row in rows]
            try:
                block = np.array(padded, dtype=np.int64)
            except OverflowError:
                block = np.array(
                    [[max(-SAFE_INT_BOUND, min(SAFE_INT_BOUND, v)) for v in row] for row in padded],
                    dtype=np.int64,
                )
            np.clip(block, -SAFE_INT_BOUND, SAFE_INT_BOUND, out=block)
            values[positions] = block
            sizes[positions] = row_sizes
        return cls(
            fids,
            lengths,
            values.reshape(batch, m, max_len, width),
            sizes.reshape(batch, m, max_len),
        )

    @classmethod
    def from_traces(
        cls, programs: Sequence[Program], traces: Sequence[Sequence[ExecutionTrace]]
    ) -> "TraceColumns":
        """Columns of per-program traces (``traces[b][e]``: program ``b``
        on example ``e``) — the per-program path's packing."""
        return cls.from_steps(
            [program.function_ids for program in programs],
            [[trace.intermediate_outputs for trace in per_example] for per_example in traces],
        )


def _input_column(values: List[Value]):
    """One input slot over every example: an ``int64`` vector for ints, a
    zero-padded ``[examples, width]`` block plus lengths for lists.
    Raises ``ValueError`` for a value past ``SAFE_INT_BOUND``."""
    if not isinstance(values[0], list):
        if any(abs(v) > SAFE_INT_BOUND for v in values):
            raise ValueError("an input lies past SAFE_INT_BOUND")
        return np.array(values, dtype=np.int64)
    if any(abs(v) > SAFE_INT_BOUND for row in values for v in row):
        raise ValueError("an input lies past SAFE_INT_BOUND")
    width = max(len(row) for row in values)
    block = np.zeros((len(values), width), dtype=np.int64)
    lengths = np.zeros(len(values), dtype=np.int64)
    for r, row in enumerate(values):
        block[r, : len(row)] = row
        lengths[r] = len(row)
    return block, lengths


class _LevelStore:
    """One persistent trie level: node metadata plus value columns.

    Nodes are identified by stable integer ids (append order); value rows
    of node ``p`` live at ``[p * m, (p + 1) * m)``.  Every column is a
    capacity buffer grown geometrically, so a round writes only its own
    rows; rows past ``count`` and cells past a row's length stay zero.
    ``index`` maps each node's packed ``parent * stride + fid`` code to
    its id.
    """

    __slots__ = (
        "m", "count", "index", "parent", "masks", "is_list", "int_vals", "lens", "list_vals"
    )

    def __init__(self, m: int) -> None:
        self.m = m
        self.count = 0
        self.index: Dict[int, int] = {}
        self._resize(0, 0)

    def _resize(self, capacity: int, width: int) -> None:
        """Move every column into zeroed buffers of ``capacity`` nodes
        whose list rows hold ``width`` cells."""
        rows = capacity * self.m
        for name, shape, dtype in (
            ("parent", (capacity,), np.int64),
            ("masks", (capacity,), np.int64),
            ("is_list", (capacity,), bool),
            ("int_vals", (rows,), np.int64),
            ("lens", (rows,), np.int64),
            ("list_vals", (rows, width), np.int64),
        ):
            column = np.zeros(shape, dtype=dtype)
            old = getattr(self, name, None)
            if old is not None:
                column[tuple(slice(0, n) for n in old.shape)] = old
            setattr(self, name, column)

    def append_round(
        self,
        codes: np.ndarray,
        parent: np.ndarray,
        masks: np.ndarray,
        payloads: List[Tuple[int, int, bool, object]],
        list_width: int,
    ) -> None:
        """Store one fully-computed insertion round: new node ids are
        ``count .. count + len(codes)`` in the round's row order, and each
        payload covers round rows ``[start, end)`` of one dispatch."""
        m = self.m
        base = self.count
        end = base + len(codes)
        capacity = len(self.parent)
        if end > capacity:
            capacity = max(end, 2 * capacity)
        width = max(self.list_vals.shape[1], list_width)
        if capacity > len(self.parent) or width > self.list_vals.shape[1]:
            self._resize(capacity, width)
        self.parent[base:end] = parent
        self.masks[base:end] = masks
        for s, e, returns_list, payload in payloads:
            self.is_list[base + s : base + e] = returns_list
            rows = slice((base + s) * m, (base + e) * m)
            if returns_list:
                values, lens = payload
                self.list_vals[rows, : values.shape[1]] = values
                self.lens[rows] = lens
            else:
                self.int_vals[rows] = payload
        self.index.update(zip(codes.tolist(), range(base, end)))
        self.count = end


class ColumnarEvaluator:
    """One persistent prefix trie over one example set and one registry.

    Bound to the *inputs* of an IO specification (outputs play no role in
    execution) and to ``registry``; :meth:`outputs` and
    :meth:`trace_columns` accept any batch of that registry's programs.
    The constructor raises ``ValueError`` when one trie cannot serve: the
    examples do not share exactly one input type signature, an input lies
    past ``SAFE_INT_BOUND``, or a registry function has no kernel or an id
    outside ``[0, 2**20)``.

    The trie stays alive between calls: programs already evaluated are
    answered by a structural-key leaf lookup, and only novel suffixes are
    inserted and executed.  An insert walks the batch level by level
    through each level's ``dict`` index, hands the missing codes (sorted)
    to one execution round, and writes that round's rows into the level's
    capacity buffers.  Adjacent GA generations overlap heavily (survivors
    plus a minority of fresh children), so the steady state is a handful
    of rounds of a few nodes each per generation, and a round costs O(its
    new nodes).

    Every inserted node is computed (a node dead for this batch may be an
    ancestor of the next batch's leaves, so there is no dead-code
    elimination).  Since every node's values stay resident, traces are
    read off the levels too: a program's steps are its leaf and the
    leaf's ancestors, so a population the solution check already
    inserted yields its trace columns without executing anything.  Past ``TRIE_NODE_BUDGET``
    resident nodes the trie is dropped after the call; the next batch
    rebuilds it incrementally from empty.
    """

    def __init__(
        self, example_inputs: Sequence[Sequence[Value]], registry: FunctionRegistry = REGISTRY
    ) -> None:
        fn_table, bind_cache = _tables_for(registry)
        if fn_table is None:
            raise ValueError("a registry function has no kernel or an id outside [0, 2**20)")
        norm_inputs = [normalize_inputs(inputs) for inputs in example_inputs]
        signatures = {input_signature(inputs) for inputs in norm_inputs}
        if len(signatures) != 1:
            raise ValueError("the examples need exactly one input signature")
        (signature,) = signatures
        self.m = len(norm_inputs)
        self.n_inputs = len(signature)
        self.root_mask = sum(1 << k for k, slot_type in enumerate(signature) if slot_type is not _INT)
        self.columns = [
            _input_column([inputs[slot] for inputs in norm_inputs]) for slot in range(self.n_inputs)
        ]
        self.stride = max(fn_table) + 1
        self._fn_table = fn_table
        self._bind_cache = bind_cache
        self._stats = KernelStats()
        self._erange = np.arange(self.m, dtype=np.int64)
        self._tiles: Dict[int, tuple] = {}
        self._empty_trie()

    def _empty_trie(self) -> None:
        self.levels: List[_LevelStore] = []
        self.node_count = 0
        #: ``program.function_ids`` -> leaf node id (the structural key)
        self._leaves: Dict[Tuple[int, ...], int] = {}

    # ------------------------------------------------------------------
    def outputs(self, programs: Sequence[Program]) -> List[List[Value]]:
        """Final outputs, ``[program][example]``; inserts any program not
        yet resident before decoding all of them in bulk."""
        self._admit(programs)
        leaves = self._leaves
        results: List[List[Value]] = [[] for _ in programs]
        # level -> (leaf nodes, their positions in ``results``)
        by_level: Dict[int, Tuple[List[int], List[int]]] = {}
        for index, program in enumerate(programs):
            fids = program.function_ids
            if fids:
                nodes, positions = by_level.setdefault(len(fids) - 1, ([], []))
                nodes.append(leaves[fids])
                positions.append(index)
            else:
                results[index] = [_DEFAULT_INT] * self.m
        self._bulk_decode(by_level, results)
        self._enforce_budget()
        return results

    def trace_columns(self, programs: Sequence[Program]) -> TraceColumns:
        """Every program's trace on every example, as :class:`TraceColumns`;
        inserts any program not yet resident first.

        Each length group walks ``parent`` up from its leaves, reading one
        level per step.  A node's cells in the other kind's columns are
        zero (an int node has list length 0, a list node int value 0), so
        a step's first cell is ``list_vals + int_vals`` and its size
        ``lens + (not is_list)`` without masking.
        """
        self._admit(programs)
        m = self.m
        n = len(programs)
        leaves = self._leaves
        lengths = np.fromiter((len(p.function_ids) for p in programs), dtype=np.int64, count=n)
        max_len = int(lengths.max(initial=0))
        fids = np.zeros((n, max_len), dtype=np.int64)
        for i, program in enumerate(programs):
            fids[i, : len(program.function_ids)] = program.function_ids
        leaf_ids = np.fromiter(
            (leaves[p.function_ids] if p.function_ids else -1 for p in programs),
            dtype=np.int64,
            count=n,
        )
        sizes = np.zeros((n, m, max_len), dtype=np.int64)
        steps = []
        uniform = n > 0 and int(lengths.min()) == max_len
        for length in np.unique(lengths).tolist():
            if length == 0:
                continue
            members = slice(None) if uniform else np.nonzero(lengths == length)[0]
            node = leaf_ids[members]
            for j in range(length - 1, -1, -1):
                level = self.levels[j]
                rows = (node[:, None] * m + self._erange).ravel()
                step_sizes = np.repeat(~level.is_list[node], m) + level.lens[rows]
                sizes[members, :, j] = step_sizes.reshape(-1, m)
                steps.append((members, j, level, rows))
                node = level.parent[node]
        width = int(sizes.max(initial=0))
        values = np.zeros((n, m, max_len, width), dtype=np.int64)
        if width:
            for members, j, level, rows in steps:
                w = min(width, level.list_vals.shape[1])
                if w:
                    values[members, :, j, :w] = level.list_vals[rows, :w].reshape(-1, m, w)
                values[members, :, j, 0] += level.int_vals[rows].reshape(-1, m)
        self._enforce_budget()
        return TraceColumns(fids, lengths, values, sizes)

    def stats(self) -> dict:
        """Kernel + trie telemetry accumulated over this evaluator's life."""
        return self._stats.snapshot()

    # ------------------------------------------------------------------
    def _admit(self, programs: Sequence[Program]) -> None:
        """Count the batch's leaf lookups and insert every non-empty
        program not yet resident."""
        leaves = self._leaves
        novel = [p for p in programs if p.function_ids and p.function_ids not in leaves]
        self._stats.leaf_lookups += len(programs)
        self._stats.leaf_hits += len(programs) - len(novel)
        if novel:
            self._insert(novel)

    def _enforce_budget(self) -> None:
        if self.node_count > TRIE_NODE_BUDGET:
            self._stats.trie_evictions += 1
            self._empty_trie()

    def _insert(self, programs: Sequence[Program]) -> None:
        """Insert every (non-empty) program's missing nodes, level by level.

        The walk is plain Python over each level's ``index``; only the
        round's missing codes reach numpy, sorted (the order ``np.unique``
        gives), so a round costs O(its new nodes), not O(resident nodes).
        """
        seqs = [p.function_ids for p in programs]
        stride = self.stride
        levels = self.levels
        leaves = self._leaves
        prev = [0] * len(seqs)
        alive = list(range(len(seqs)))
        j = 0
        while alive:
            if len(levels) <= j:
                levels.append(_LevelStore(self.m))
            level = levels[j]
            index = level.index
            codes = [prev[i] * stride + seqs[i][j] for i in alive]
            missing = {code for code in codes if code not in index}
            if missing:
                self._insert_nodes(j, level, np.array(sorted(missing), dtype=np.int64))
            still = []
            for i, code in zip(alive, codes):
                node = index[code]
                if len(seqs[i]) == j + 1:
                    leaves[seqs[i]] = node
                else:
                    prev[i] = node
                    still.append(i)
            alive = still
            j += 1

    def _insert_nodes(self, j: int, level: _LevelStore, new_codes: np.ndarray) -> None:
        stride = self.stride
        m = self.m
        stats = self._stats
        fn_table = self._fn_table
        parent_u = new_codes // stride
        fid_u = new_codes % stride
        if j == 0:
            parent_masks = np.full(len(new_codes), self.root_mask, dtype=np.int64)
        else:
            parent_masks = self.levels[j - 1].masks[parent_u]
        history_len = self.n_inputs + j
        pair_codes = parent_masks * stride + fid_u
        pairs, pair_inv = np.unique(pair_codes, return_inverse=True)
        pair_gid, pair_ret, group_meta = _resolve_pairs(
            pairs, stride, history_len, fn_table, self._bind_cache
        )
        gids = pair_gid[pair_inv]
        count = len(new_codes)
        order = np.argsort(gids, kind="stable")
        codes_s = new_codes[order]
        parent_s = parent_u[order]
        masks_s = (parent_masks | (pair_ret[pair_inv] << history_len))[order]
        n_groups = len(group_meta)
        bounds_list = np.bincount(gids, minlength=n_groups).cumsum().tolist()

        # execute every group of the round (consecutive groups of one
        # function fused into one dispatch), then store the round's rows
        # with one capacity check
        anc_cache: Dict[int, np.ndarray] = {}
        src_cols: Dict[Tuple[int, bool], object] = {}
        payloads = []
        list_width = 0
        gid = 0
        start = 0
        while gid < n_groups:
            fid = group_meta[gid][0]
            kernel, arg_types, returns_list = fn_table[fid]
            stop = gid + 1
            while stop < n_groups and group_meta[stop][0] == fid:
                stop += 1
            span_args: List[list] = []
            s = start
            for g in range(gid, stop):
                e = bounds_list[g]
                span_args.append(
                    [
                        self._arg(j, parent_s, anc_cache, src_cols, arg_type, binding, s, e)
                        for arg_type, binding in zip(arg_types, group_meta[g][1])
                    ]
                )
                s = e
            end = bounds_list[stop - 1]
            if stop - gid == 1:
                payload = kernel(*span_args[0])
            else:
                payload = kernel(*[_concat_cols(cols) for cols in zip(*span_args)])
                stats.fused_groups += stop - gid - 1
            stats.dispatches += 1
            if returns_list and payload[0].shape[1] > list_width:
                list_width = payload[0].shape[1]
            payloads.append((start, end, returns_list, payload))
            start = end
            gid = stop

        level.append_round(codes_s, parent_s, masks_s, payloads, list_width)
        stats.nodes_inserted += count
        self.node_count += count

    def _arg(
        self,
        j: int,
        parent_s: np.ndarray,
        anc_cache: Dict[int, np.ndarray],
        src_cols: Dict[Tuple[int, bool], object],
        arg_type: DSLType,
        binding: int,
        start: int,
        end: int,
    ):
        """Argument column for round rows ``start*m .. end*m`` of a group."""
        m = self.m
        if binding < 0:
            g = end - start
            if arg_type is _INT:
                return np.zeros(g * m, dtype=np.int64)
            return (np.zeros((g * m, 0), dtype=np.int64), np.zeros(g * m, dtype=np.int64))
        n_inputs = self.n_inputs
        if binding < n_inputs:
            tile = self._tile(binding, end)
            if len(tile) == 3:
                return tile[1][start * m : end * m], tile[2][start * m : end * m]
            return tile[1][start * m : end * m]
        src_j = binding - n_inputs
        cache_key = (src_j, arg_type is _INT)
        col = src_cols.get(cache_key)
        if col is None:
            anc = anc_cache.get(src_j)
            if anc is None:
                anc = parent_s
                for t in range(j - 1, src_j, -1):
                    anc = self.levels[t].parent[anc]
                anc_cache[src_j] = anc
            src = self.levels[src_j]
            rows = (anc[:, None] * m + self._erange).ravel()
            if arg_type is _INT:
                col = src.int_vals[rows]
            else:
                col = (src.list_vals[rows], src.lens[rows])
            src_cols[cache_key] = col
        if isinstance(col, tuple):
            return col[0][start * m : end * m], col[1][start * m : end * m]
        return col[start * m : end * m]

    def _tile(self, slot: int, min_prefixes: int) -> tuple:
        """Input column ``slot`` repeated per round row, grown by doubling
        and kept across insertion rounds."""
        entry = self._tiles.get(slot)
        if entry is None or entry[0] < min_prefixes:
            capacity = min_prefixes if entry is None else max(min_prefixes, entry[0] * 2)
            column = self.columns[slot]
            if isinstance(column, tuple):
                values, lengths = column
                entry = (capacity, np.tile(values, (capacity, 1)), np.tile(lengths, capacity))
            else:
                entry = (capacity, np.tile(column, capacity))
            self._tiles[slot] = entry
        return entry

    def _bulk_decode(
        self, by_level: Dict[int, Tuple[List[int], List[int]]], results: List[List[Value]]
    ) -> None:
        """Decode the requested leaves to Python lists, one gather and one
        ``tolist`` per (level, kind), straight into their ``results`` slots."""
        m = self.m
        for j, (nodes, positions) in by_level.items():
            level = self.levels[j]
            nodes_arr = np.array(nodes, dtype=np.int64)
            positions_arr = np.array(positions, dtype=np.int64)
            node_is_list = level.is_list[nodes_arr]
            int_nodes = nodes_arr[~node_is_list]
            list_nodes = nodes_arr[node_is_list]
            if int_nodes.size:
                rows = (int_nodes[:, None] * m + self._erange).ravel()
                flat = level.int_vals[rows].tolist()
                for k, index in enumerate(positions_arr[~node_is_list].tolist()):
                    results[index] = flat[k * m : (k + 1) * m]
            if list_nodes.size:
                rows = (list_nodes[:, None] * m + self._erange).ravel()
                vals = level.list_vals[rows].tolist()
                lens = level.lens[rows].tolist()
                for k, index in enumerate(positions_arr[node_is_list].tolist()):
                    base = k * m
                    results[index] = [
                        row[:ln] for row, ln in zip(vals[base : base + m], lens[base : base + m])
                    ]


class BatchExecutionEngine(ExecutionEngine):
    """An :class:`ExecutionEngine` whose population methods run columnar.

    ``outputs_batch`` / ``satisfies_batch`` answer for a whole population
    in one call: ``satisfies_batch`` first rejects every non-empty
    program whose output type cannot match (as
    :meth:`ExecutionEngine.satisfies` does), cached programs are served
    from the usual namespaces (with the same hit/miss accounting as the
    serial methods), the misses — deduplicated by registry and program
    key — are evaluated in one columnar pass, and the results are stored
    back so every cache tier, snapshot and sibling consumer observes
    exactly what a serial run would have produced.  ``traces_batch``
    returns :class:`TraceColumns` read off the same persistent trie and
    caches nothing.

    One :class:`ColumnarEvaluator` per IO set serves a batch when every
    example has the same input signature, every input lies within
    ``SAFE_INT_BOUND``, every registry function has a kernel and an id in
    ``[0, 2**20)``, and the batch has a single registry.  The engine
    decides once per IO set and registry.  Everything else runs on the
    inherited per-program path: outputs through ``_execute_output`` (the
    path single-program batches always take), traces through
    :meth:`ExecutionEngine.traces_batch`, which caches them like the
    scalar engine does.

    Batch results are value- and trace-identical to the scalar engine's
    plain loops; only cache *counter* trajectories may differ (a
    duplicate inside one batch counts as one miss per occurrence, where
    serial evaluation would turn the second occurrence into a hit).
    """

    #: evaluators (one per IO set) kept alive, least recently used out
    #: first.  A session runs its jobs one after another and a job
    #: searches one IO set, so older tries are dead weight: a repeated
    #: program is answered by the evaluation cache above them.
    MAX_EVALUATORS = 4

    def __init__(self, cache: Optional[EvaluationCache] = None) -> None:
        super().__init__(cache=cache)
        #: ``io_key -> (registry, evaluator)``; a None evaluator marks an
        #: IO set and registry no trie can serve
        self._evaluators: "OrderedDict[Tuple, Tuple[FunctionRegistry, Optional[ColumnarEvaluator]]]" = (
            OrderedDict()
        )
        #: the counters of evicted evaluators, so kernel_stats() only grows
        self._evicted_stats = KernelStats()
        #: batches that needed no execution (answered from cache or by
        #: the static output-type verdict), short-circuited before any
        #: dedup bookkeeping or trie packing
        self.batch_full_hits = 0

    # ------------------------------------------------------------------
    def kernel_stats(self) -> dict:
        """:meth:`ColumnarEvaluator.stats` summed over every evaluator this
        engine has built, evicted ones included, plus the engine-level
        ``batch_full_hits`` counter."""
        totals = KernelStats()
        totals.add(self._evicted_stats)
        for _registry, evaluator in self._evaluators.values():
            if evaluator is not None:
                totals.add(evaluator._stats)
        snapshot = totals.snapshot()
        snapshot["batch_full_hits"] = self.batch_full_hits
        return snapshot

    def _evaluator_for(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Tuple
    ) -> Optional[ColumnarEvaluator]:
        """The evaluator serving ``programs`` on ``io_set``, or None when no
        trie can (see the class docstring)."""
        registry = programs[0].registry
        if any(program.registry is not registry for program in programs):
            return None
        evaluators = self._evaluators
        entry = evaluators.get(io_key)
        if entry is not None and entry[0] is registry:
            evaluators.move_to_end(io_key)
            return entry[1]
        if entry is not None:
            # a registry swap: the IO set's evaluator follows the new registry
            self._retire(evaluators.pop(io_key))
        elif len(evaluators) >= self.MAX_EVALUATORS:
            self._retire(evaluators.popitem(last=False)[1])
        try:
            evaluator: Optional[ColumnarEvaluator] = ColumnarEvaluator(
                [example.inputs for example in io_set], registry
            )
        except ValueError:
            evaluator = None
        evaluators[io_key] = (registry, evaluator)
        return evaluator

    def _retire(self, entry: Tuple[FunctionRegistry, Optional[ColumnarEvaluator]]) -> None:
        if entry[1] is not None:
            self._evicted_stats.add(entry[1]._stats)

    def _batch_outputs(self, programs: List[Program], io_set: IOSet, io_key: Tuple) -> List[List[Value]]:
        evaluator = self._evaluator_for(programs, io_set, io_key) if len(programs) > 1 else None
        if evaluator is None:
            return [
                [self._execute_output(program, example.inputs) for example in io_set]
                for program in programs
            ]
        return evaluator.outputs(programs)

    # ------------------------------------------------------------------
    def outputs_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> List[Tuple[Value, ...]]:
        """:meth:`~ExecutionEngine.outputs` for a whole population."""
        if not programs:
            return []
        resolved = self.io_key(io_set) if io_key is None else io_key
        results: List[Optional[Tuple[Value, ...]]] = [None] * len(programs)
        # in-batch dedup by registry and fids: equal fids of two registries
        # name different programs.  The cache key stays the fids alone.
        pending: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        pending_programs: List[Program] = []
        cache = self.cache
        peek = cache.peek
        # an empty cache cannot answer any peek; nothing is stored until
        # after this loop, so the emptiness check holds for all programs
        check_cache = len(cache) > 0
        n_hits = 0
        for idx, program in enumerate(programs):
            pkey = program_key(program)
            if check_cache:
                key = (pkey, resolved)
                cached = peek(_NS_OUTPUTS, key)
                if cached is not None:
                    n_hits += 1
                    results[idx] = cached
                    continue
                traces = peek(_NS_TRACES, key)
                if traces is not None:
                    # derived from a cached trace: an execution avoided is a hit
                    n_hits += 1
                    outputs = tuple(trace.output for trace in traces)
                    cache.put(_NS_OUTPUTS, key, outputs)
                    results[idx] = outputs
                    continue
            dedup = (id(program.registry), pkey)
            positions = pending.get(dedup)
            if positions is None:
                pending[dedup] = [idx]
                pending_programs.append(program)
            else:
                positions.append(idx)
        cache.stats.record_many(_NS_OUTPUTS, n_hits, len(programs) - n_hits)
        if not pending_programs:
            # full-hit batch: nothing to dedup, pack or dispatch
            self.batch_full_hits += 1
            return results
        evaluated = self._batch_outputs(pending_programs, io_set, resolved)
        for ((_registry, pkey), positions), out in zip(pending.items(), evaluated):
            outputs = tuple(out)
            self.cache.put(_NS_OUTPUTS, (pkey, resolved), outputs)
            for idx in positions:
                results[idx] = outputs
        return results

    def traces_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> TraceColumns:
        """:meth:`~ExecutionEngine.traces` for a whole population, as
        :class:`TraceColumns` (one row per program, duplicates included).

        The columns are gathered from the persistent trie the solution
        check (:meth:`satisfies_batch`) has already filled, so tracing a
        checked population executes only the programs that check rejected
        by output type without running them.  Nothing is stored in the
        evaluation cache: regathering is a few array reads, and the
        fitness layer memoizes its predicted scores above this call.
        Where no trie can serve, the inherited per-program method answers
        (and caches its traces, as the scalar engine does).
        """
        resolved = self.io_key(io_set) if io_key is None else io_key
        evaluator = self._evaluator_for(programs, io_set, resolved) if programs else None
        if evaluator is None:
            return super().traces_batch(programs, io_set, io_key=resolved)
        return evaluator.trace_columns(programs)

    def satisfies_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> List[bool]:
        """:meth:`~ExecutionEngine.satisfies` for a whole population.

        Wrong-typed programs are answered False before any cache lookup,
        trie insert or kernel dispatch, so they add no ``outputs`` or
        ``solutions`` entry (nor a worker delta or L3 log entry).
        """
        if not programs:
            return []
        _, key, matchable = self._io_entry(io_set)
        resolved = key if io_key is None else io_key
        results: List[Optional[bool]] = [None] * len(programs)
        pending: List[int] = []
        get = self.cache.get
        for idx, program in enumerate(programs):
            if not may_satisfy(program, matchable):
                results[idx] = False
                continue
            cached = get(_NS_SOLUTIONS, (program_key(program), resolved))
            if cached is not None:
                results[idx] = cached
            else:
                pending.append(idx)
        if not pending:
            self.batch_full_hits += 1
            return results
        outputs = self.outputs_batch([programs[i] for i in pending], io_set, io_key=resolved)
        for idx, out in zip(pending, outputs):
            verdict = all(
                values_equal(value, example.output) for value, example in zip(out, io_set)
            )
            self.cache.put(_NS_SOLUTIONS, (program_key(programs[idx]), resolved), verdict)
            results[idx] = verdict
        return results
