"""Columnar population-level evaluation: the vectorized execution path.

The serial engine executes one ``(candidate, example)`` pair per
interpreter pass.  A GA generation, however, asks one question about a
whole *population* against one IO specification — and populations built
by crossover, mutation and reproduction share long function-id prefixes
(and outright duplicates).  This module exploits both redundancies:

1. **Prefix sharing.**  Candidates are deduplicated into a trie over
   ``program.function_ids``, per input type signature.  Argument bindings
   depend only on the signature and the fid prefix
   (:mod:`repro.dsl.compiler`), so every candidate sharing a prefix
   shares the prefix's intermediate values exactly.  Each unique prefix
   is computed once, no matter how many candidates extend it.
2. **Example batching.**  A trie level stores its values as numpy
   columns of shape ``[unique prefixes x examples]`` (lists as padded
   2-D blocks with per-row lengths).  Prefixes applying the same DSL
   function with the same bindings are grouped so each group runs as
   *one* kernel dispatch (:mod:`repro.dsl.vector_ops`) — one dispatch
   per unique ``(step, binding shape)`` instead of one interpreter step
   per ``(function, candidate, example)``.

The trie itself is built with numpy (one ``np.unique`` per level over
``parent-prefix x fid`` codes), and argument bindings are derived from a
per-prefix *type bitmask* instead of compiling each candidate: bit ``k``
records whether history slot ``k`` holds a list, which is all the
backwards type-scan of the compiler depends on.  Bindings are memoized
per ``(registry, history length, mask, fid)`` in a module-level cache —
the analog of the compiler's compile cache, warm across calls.

:class:`BatchExecutionEngine` wraps the evaluator behind the
:class:`~repro.execution.engine.ExecutionEngine` contract: batch outputs
and verdicts land in the same ``outputs``/``solutions`` cache namespaces
with the same per-program hit/miss accounting, so the L1-L3 cache tiers,
snapshots and the fitness layer see vectorized traffic exactly like
serial traffic.  Traces come back as :class:`TraceColumns`, gathered from
the trie levels the solution check already filled, never decoded into
``StepRecord`` objects.  Values and traces are bit-identical to the
compiled and reference paths (``tests/test_vectorized.py``); functions
without a vectorized kernel (extended registries) fall back to their
scalar ``impl`` row by row, and inputs outside the int64-safe range route
the whole signature block to the serial compiled path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsl.compiler import compile_program, input_signature, normalize_inputs
from repro.dsl.equivalence import IOSet
from repro.dsl.functions import DSLFunction, FunctionRegistry
from repro.dsl.interpreter import ExecutionTrace
from repro.dsl.program import Program
from repro.dsl.types import DSLType, Value, default_for, values_equal
from repro.dsl.vector_ops import SAFE_INT_BOUND, batch_impl_for
from repro.execution.cache import EvaluationCache, program_key
from repro.execution.engine import ExecutionEngine

_NS_OUTPUTS = "outputs"
_NS_TRACES = "traces"
_NS_SOLUTIONS = "solutions"

_INT = DSLType.INT
_DEFAULT_INT = default_for(_INT)

#: ``fid -> (function, kernel, arg_types, returns_list)``, memoized per registry
_FnInfo = Tuple[DSLFunction, object, Tuple[DSLType, ...], bool]

#: function ids above this bound take the (exact but slower) dict-based
#: trie build; below it, (parent, fid) pairs pack into int64 codes
_MAX_PACKED_FID = 1 << 20

# ---------------------------------------------------------------------------
# Per-registry memo tables (bindings and kernels), module-level like the
# compile cache: warm across evaluators, pinned by holding the registry.
# ---------------------------------------------------------------------------

_REGISTRY_TABLES: Dict[int, Tuple[FunctionRegistry, Dict[int, _FnInfo], Dict]] = {}


def _tables_for(registry: FunctionRegistry):
    entry = _REGISTRY_TABLES.get(id(registry))
    if entry is None or entry[0] is not registry:
        if len(_REGISTRY_TABLES) >= 64:
            _REGISTRY_TABLES.clear()
        entry = (registry, {}, {})
        _REGISTRY_TABLES[id(registry)] = entry
    return entry


@dataclass
class KernelStats:
    """Kernel-level telemetry for one :class:`ColumnarEvaluator`.

    ``dispatches`` counts actual numpy-kernel (and scalar-fallback)
    invocations, ``fused_groups`` the extra ``(function, binding)`` groups
    that rode an already-counted dispatch, ``bucketed_dispatches`` the
    dispatches issued by the width-bucketing split.  The ``leaf_*`` /
    ``nodes_inserted`` counters describe the persistent tries: a leaf hit
    is a program answered entirely from trie-resident state.
    """

    dispatches: int = 0
    fused_groups: int = 0
    bucketed_dispatches: int = 0
    leaf_lookups: int = 0
    leaf_hits: int = 0
    nodes_inserted: int = 0
    trie_evictions: int = 0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of requested programs served from existing trie leaves."""
        return self.leaf_hits / self.leaf_lookups if self.leaf_lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "dispatch_count": self.dispatches,
            "fused_group_count": self.fused_groups,
            "bucketed_dispatch_count": self.bucketed_dispatches,
            "trie_leaf_lookups": self.leaf_lookups,
            "trie_leaf_hits": self.leaf_hits,
            "trie_nodes_inserted": self.nodes_inserted,
            "trie_evictions": self.trie_evictions,
            "reuse_ratio": self.reuse_ratio,
        }


#: Width-bucketing crossover, measured on the dev container (reduced-scale
#: sweep in ``benchmarks/bench_execution_throughput.py``): a bucketed
#: dispatch pays one gather + scatter per bucket, so it only wins once the
#: row block is large, the dense width is non-trivial and the power-of-2
#: buckets drop at least half of the padded cells.  The per-bucket
#: overhead is fixed (~100us of fancy indexing) while the savings scale
#: with the cells dropped, so groups below an absolute dense-cell floor
#: always dispatch dense regardless of their padding ratio.  Below the
#: crossover the group stays on the single dense dispatch.
WIDTH_BUCKET_MIN_ROWS = 64
WIDTH_BUCKET_MIN_WIDTH = 8
WIDTH_BUCKET_MIN_CELLS = 65536
WIDTH_BUCKET_CELL_RATIO = 2.0


def _dispatch_group(kernel, args, stats: KernelStats):
    """One group dispatch: dense, or split into power-of-2 width buckets.

    List columns are padded to the widest row of their group; when a group
    mixes short and long rows the padding cells dominate the kernel's
    work.  Rows are bucketed by the power-of-2 ceiling of their effective
    width (the max length across the group's list arguments) and each
    bucket dispatches densely at its own width.  Every kernel is
    value-exact under trailing zero padding (the column invariant), so
    bucketed and dense dispatches are bit-identical.
    """
    list_args = [arg for arg in args if isinstance(arg, tuple)]
    if not list_args:
        stats.dispatches += 1
        return kernel(*args)
    rows = list_args[0][1].shape[0]
    full_width = max(arg[0].shape[1] for arg in list_args)
    if (
        rows < WIDTH_BUCKET_MIN_ROWS
        or full_width < WIDTH_BUCKET_MIN_WIDTH
        or rows * full_width < WIDTH_BUCKET_MIN_CELLS
    ):
        stats.dispatches += 1
        return kernel(*args)
    need = list_args[0][1]
    for arg in list_args[1:]:
        need = np.maximum(need, arg[1])
    exp = np.ceil(np.log2(np.maximum(need, 1))).astype(np.int64)
    bucket_cells = int(np.left_shift(1, exp).sum())
    if bucket_cells * WIDTH_BUCKET_CELL_RATIO >= rows * full_width:
        stats.dispatches += 1
        return kernel(*args)
    out_int: Optional[np.ndarray] = None
    out_lens: Optional[np.ndarray] = None
    list_parts: List[Tuple[np.ndarray, tuple]] = []
    out_width = 0
    for e in np.unique(exp).tolist():
        rows_idx = np.nonzero(exp == e)[0]
        w = min(1 << e, full_width)
        sub = []
        for arg in args:
            if isinstance(arg, tuple):
                values, lengths = arg
                sub.append((values[rows_idx, : min(w, values.shape[1])], lengths[rows_idx]))
            else:
                sub.append(arg[rows_idx])
        stats.dispatches += 1
        stats.bucketed_dispatches += 1
        payload = kernel(*sub)
        if isinstance(payload, tuple):
            if out_lens is None:
                out_lens = np.zeros(rows, dtype=np.int64)
            list_parts.append((rows_idx, payload))
            if payload[0].shape[1] > out_width:
                out_width = payload[0].shape[1]
        else:
            if out_int is None:
                out_int = np.zeros(rows, dtype=np.int64)
            out_int[rows_idx] = payload
    if out_int is not None:
        return out_int
    out_vals = np.zeros((rows, out_width), dtype=np.int64)
    for rows_idx, (values, lens) in list_parts:
        out_vals[rows_idx, : values.shape[1]] = values
        out_lens[rows_idx] = lens
    return out_vals, out_lens


def _fn_info_of(fid: int, registry: FunctionRegistry, fn_table: Dict[int, _FnInfo]) -> _FnInfo:
    info = fn_table.get(fid)
    if info is None:
        fn = registry.by_id(fid)
        info = (fn, batch_impl_for(fn), fn.arg_types, fn.return_type is not _INT)
        fn_table[fid] = info
    return info


def _resolve_pairs(
    pairs: np.ndarray,
    stride: int,
    history_len: int,
    fn_info: Callable[[int], _FnInfo],
    bind_cache: Dict,
):
    """Bindings and fid-major dispatch groups for unique ``(mask, fid)`` pairs.

    Returns ``(pair_gid, pair_ret, pair_binds, group_meta)``: the dispatch
    group of each pair (renumbered fid-major so same-function groups sit
    on adjacent ranges and fuse), whether it returns a list, its binding
    tuple, and the per-group ``(fid, bindings, returns_list)`` metadata.
    """
    n_pairs = len(pairs)
    pair_gid = np.empty(n_pairs, dtype=np.int64)
    pair_ret = np.empty(n_pairs, dtype=np.int64)
    pair_binds: List[Tuple[int, ...]] = []
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
            info = fn_info(fid)
            bind = _compute_bindings(pair_mask_list[u], history_len, info[2])
            entry = (bind, (fid,) + bind, info[3])
            bind_cache[bind_key] = entry
        bind, group_key, ret_is_list = entry
        gid = group_of.get(group_key)
        if gid is None:
            gid = len(group_meta)
            group_of[group_key] = gid
            group_meta.append((fid, bind, bool(ret_is_list)))
        pair_gid[u] = gid
        pair_ret[u] = 1 if ret_is_list else 0
        pair_binds.append(bind)
    n_groups = len(group_meta)
    if n_groups > 1:
        order_g = sorted(range(n_groups), key=lambda g: (group_meta[g][0], group_meta[g][1]))
        remap = np.empty(n_groups, dtype=np.int64)
        for new_gid, g in enumerate(order_g):
            remap[g] = new_gid
        pair_gid = remap[pair_gid]
        group_meta = [group_meta[g] for g in order_g]
    return pair_gid, pair_ret, pair_binds, group_meta


def _scalar_group(fn, arg_types, returns_list, args, rows: int):
    """Row-by-row fallback through ``fn.impl`` for non-catalog functions."""
    decoded = []
    for arg_type, column in zip(arg_types, args):
        if arg_type is _INT:
            decoded.append(column.tolist())
        else:
            values, lengths = column
            block = values.tolist()
            decoded.append([row[:n] for row, n in zip(block, lengths.tolist())])
    outputs = [fn.impl(*(column[r] for column in decoded)) for r in range(rows)]
    if not returns_list:
        if any(abs(v) > SAFE_INT_BOUND for v in outputs):
            raise _ColumnarUnsupported(fn.name)
        return np.array(outputs, dtype=np.int64)
    if any(abs(v) > SAFE_INT_BOUND for row in outputs for v in row):
        raise _ColumnarUnsupported(fn.name)
    width = max((len(row) for row in outputs), default=0)
    values = np.zeros((rows, width), dtype=np.int64)
    lengths = np.zeros(rows, dtype=np.int64)
    for r, row in enumerate(outputs):
        values[r, : len(row)] = row
        lengths[r] = len(row)
    return values, lengths


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


class _ColumnarUnsupported(Exception):
    """Raised when a batch cannot be evaluated columnar-exactly (e.g. a
    scalar-fallback function produced values outside the int64-safe range);
    the caller reverts to the serial compiled path."""


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
        on example ``e``) — the path for whatever the trie cannot serve."""
        return cls.from_steps(
            [program.function_ids for program in programs],
            [[trace.intermediate_outputs for trace in per_example] for per_example in traces],
        )


class _SignatureBlock:
    """The examples of one input type signature, encoded as columns."""

    __slots__ = (
        "signature",
        "example_indices",
        "norm_inputs",
        "n_inputs",
        "m",
        "vector_ok",
        "columns",
        "root_mask",
    )

    def __init__(self, signature: Tuple[DSLType, ...]) -> None:
        self.signature = signature
        self.example_indices: List[int] = []
        self.norm_inputs: List[List[Value]] = []
        self.n_inputs = len(signature)
        self.m = 0
        self.vector_ok = True
        self.columns: List = []
        self.root_mask = 0
        for k, slot_type in enumerate(signature):
            if slot_type is not _INT:
                self.root_mask |= 1 << k

    def encode(self) -> None:
        self.m = len(self.example_indices)
        for slot, slot_type in enumerate(self.signature):
            if slot_type is _INT:
                values = [inputs[slot] for inputs in self.norm_inputs]
                if any(abs(v) > SAFE_INT_BOUND for v in values):
                    self.vector_ok = False
                    return
                self.columns.append(np.array(values, dtype=np.int64))
            else:
                rows = [inputs[slot] for inputs in self.norm_inputs]
                if any(abs(v) > SAFE_INT_BOUND for row in rows for v in row):
                    self.vector_ok = False
                    return
                width = max((len(row) for row in rows), default=0)
                values = np.zeros((self.m, width), dtype=np.int64)
                lengths = np.zeros(self.m, dtype=np.int64)
                for r, row in enumerate(rows):
                    values[r, : len(row)] = row
                    lengths[r] = len(row)
                self.columns.append((values, lengths))


class _Level:
    """One trie level: columns over ``[unique prefixes x examples]`` rows."""

    __slots__ = (
        "fid_arr",
        "pair_idx",
        "pair_binds",
        "group_meta",
        "bounds",
        "glive",
        "anc",
        "int_vals",
        "list_vals",
        "lens",
        "is_list",
    )

    def __init__(self) -> None:
        self.fid_arr: Optional[np.ndarray] = None  # fid per prefix
        #: prefix -> index into ``pair_binds`` (bindings per (mask, fid) pair)
        self.pair_idx: Optional[np.ndarray] = None
        self.pair_binds: List[Tuple[int, ...]] = []
        #: per group: (fid, bindings, returns_list)
        self.group_meta: List[Tuple[int, Tuple[int, ...], bool]] = []
        #: cumulative group sizes; group ``g`` spans ``[bounds[g-1], bounds[g])``
        self.bounds: Optional[np.ndarray] = None
        #: per group: does any live prefix need this group's values?
        self.glive: List[bool] = []
        #: earlier-level index -> ancestor prefix id per prefix of this level
        self.anc: Dict[int, np.ndarray] = {}
        self.int_vals: Optional[np.ndarray] = None
        self.list_vals: Optional[np.ndarray] = None
        self.lens: Optional[np.ndarray] = None
        self.is_list: Optional[np.ndarray] = None


class _TrieRun(object):
    """One columnar evaluation: a batch of programs over one signature block.

    Builds the prefix trie level by level; at each level prefixes are
    ordered so that groups sharing ``(fid, bindings)`` occupy contiguous
    rows, each group executing as a single kernel dispatch.
    """

    def __init__(
        self,
        block: _SignatureBlock,
        programs: Sequence[Program],
        registry: FunctionRegistry,
        fn_table: Dict[int, _FnInfo],
        bind_cache: Dict,
        stats: Optional[KernelStats] = None,
    ) -> None:
        self.block = block
        self.programs = programs
        self.registry = registry
        self.fn_table = fn_table
        self.bind_cache = bind_cache
        self.stats = stats if stats is not None else KernelStats()
        self.m = block.m
        self.levels: List[_Level] = []
        self.paths: Optional[np.ndarray] = None  # [program, level] prefix ids
        self.paths_list: List[List[int]] = []
        self.seq_lens: List[int] = [len(p.function_ids) for p in programs]
        self._erange = np.arange(self.m, dtype=np.int64)
        self._tiles: Dict[int, tuple] = {}
        self._level_raw: Dict[int, tuple] = {}
        self._run()

    # -- trie construction + execution ---------------------------------
    def _fn_info(self, fid: int) -> _FnInfo:
        return _fn_info_of(fid, self.registry, self.fn_table)

    def _run(self) -> None:
        n = len(self.programs)
        seq_lens = self.seq_lens
        max_len = max(seq_lens, default=0)
        if n == 0 or max_len == 0:
            self.paths = np.full((n, max(max_len, 1)), -1, dtype=np.int64)
            self.paths_list = self.paths.tolist()
            return
        fid_matrix = np.zeros((n, max_len), dtype=np.int64)
        for i, program in enumerate(self.programs):
            seq = program.function_ids
            fid_matrix[i, : len(seq)] = seq
        max_fid = int(fid_matrix.max())
        if max_fid >= _MAX_PACKED_FID or max_fid < 0:
            raise _ColumnarUnsupported("function ids outside packed-code range")
        stride = max_fid + 1

        lengths = np.array(seq_lens, dtype=np.int64)
        paths = np.full((n, max_len), -1, dtype=np.int64)
        prev = np.zeros(n, dtype=np.int64)
        masks_prev = np.array([self.block.root_mask], dtype=np.int64)
        alive = np.arange(n)
        n_inputs = self.block.n_inputs
        bind_cache = self.bind_cache
        levels = self.levels

        # -- phase 1: build the trie level by level (no execution yet) --
        for j in range(max_len):
            history_len = n_inputs + j
            alive = alive[lengths[alive] > j]
            codes = prev[alive] * stride + fid_matrix[alive, j]
            uniq, inverse = np.unique(codes, return_inverse=True)
            parent_u = uniq // stride
            fid_u = uniq % stride
            parent_masks = masks_prev[parent_u]

            # bindings depend only on the (type mask, fid) pair; resolve
            # each distinct pair once (memoized across runs in bind_cache),
            # with groups renumbered fid-major so same-function groups sit
            # on adjacent row ranges phase 3 fuses into one dispatch
            pair_codes = parent_masks * stride + fid_u
            pairs, pair_inv = np.unique(pair_codes, return_inverse=True)
            pair_gid, pair_ret, pair_binds, group_meta = _resolve_pairs(
                pairs, stride, history_len, self._fn_info, bind_cache
            )

            # order prefixes so each group's rows are contiguous
            gids = pair_gid[pair_inv]
            count = len(uniq)
            order = np.argsort(gids, kind="stable")
            rank = np.empty(count, dtype=np.int64)
            rank[order] = np.arange(count, dtype=np.int64)
            final = rank[inverse]
            paths[alive, j] = final
            prev[alive] = final

            level = _Level()
            level.fid_arr = fid_u[order]
            level.pair_idx = pair_inv[order]
            level.pair_binds = pair_binds
            level.group_meta = group_meta
            level.bounds = np.bincount(gids, minlength=len(group_meta)).cumsum()
            parent_final = parent_u[order]
            if j > 0:
                level.anc[j - 1] = parent_final
                for d, arr in levels[j - 1].anc.items():
                    level.anc[d] = arr[parent_final]
            levels.append(level)
            masks_prev = (parent_masks | (pair_ret[pair_inv] << history_len))[order]

        self.paths = paths
        self.paths_list = paths.tolist()

        # -- phase 2: liveness — skip any group whose value no live prefix
        # (a leaf, or an argument of a live group) ever reads
        live = [np.zeros(len(level.fid_arr), dtype=bool) for level in levels]
        for length in np.unique(lengths):
            if length == 0:
                continue
            rows = np.nonzero(lengths == length)[0]
            live[length - 1][paths[rows, length - 1]] = True
        for j in range(max_len - 1, -1, -1):
            level = levels[j]
            bounds = level.bounds
            starts = np.concatenate(([0], bounds[:-1]))
            group_live = np.logical_or.reduceat(live[j], starts).tolist()
            level.glive = group_live
            bounds_list = bounds.tolist()
            s = 0
            for gid, (fid, bind, _ret) in enumerate(level.group_meta):
                e = bounds_list[gid]
                if group_live[gid]:
                    for binding in bind:
                        if binding >= n_inputs:
                            src_j = binding - n_inputs
                            live[src_j][level.anc[src_j][s:e]] = True
                s = e

        # -- phase 3: execute live groups, one kernel dispatch each -----
        m = self.m
        fn_table = self.fn_table
        for j, level in enumerate(levels):
            count = len(level.fid_arr)
            bounds_list = level.bounds.tolist()
            glive = level.glive
            src_cols: Dict[Tuple[int, bool], object] = {}
            payloads = []
            any_list = False
            any_int = False
            list_width = 0
            groups = level.group_meta
            n_groups = len(groups)
            _arg = self._arg
            gid = 0
            start = 0
            while gid < n_groups:
                if not glive[gid]:
                    start = bounds_list[gid]
                    gid += 1
                    continue
                fid = groups[gid][0]
                info = fn_table.get(fid)
                if info is None:
                    info = self._fn_info(fid)
                fn, kernel, arg_types, returns_list = info
                # fuse the run of consecutive live groups sharing this
                # function (adjacent by the fid-major renumbering above)
                # into one kernel dispatch over their concatenated rows
                stop = gid + 1
                if kernel is not None:
                    while stop < n_groups and glive[stop] and groups[stop][0] == fid:
                        stop += 1
                span_args: List[list] = []
                s = start
                for g in range(gid, stop):
                    e = bounds_list[g]
                    span_args.append(
                        [
                            _arg(level, src_cols, arg_type, binding, s, e)
                            for arg_type, binding in zip(arg_types, groups[g][1])
                        ]
                    )
                    s = e
                end = bounds_list[stop - 1]
                stats = self.stats
                if kernel is None:
                    payload = _scalar_group(fn, arg_types, returns_list, span_args[0], (end - start) * m)
                    stats.dispatches += 1
                elif stop - gid == 1:
                    payload = _dispatch_group(kernel, span_args[0], stats)
                else:
                    payload = _dispatch_group(
                        kernel, [_concat_cols(cols) for cols in zip(*span_args)], stats
                    )
                    stats.fused_groups += stop - gid - 1
                if returns_list:
                    any_list = True
                    if payload[0].shape[1] > list_width:
                        list_width = payload[0].shape[1]
                else:
                    any_int = True
                payloads.append((start, end, returns_list, payload))
                start = end
                gid = stop

            # assemble the level's columns
            group_rets = np.fromiter(
                (meta[2] for meta in level.group_meta), dtype=bool, count=len(level.group_meta)
            )
            level.is_list = np.repeat(group_rets, np.diff(level.bounds, prepend=0))
            if any_list:
                level.list_vals = np.zeros((count * m, list_width), dtype=np.int64)
                level.lens = np.zeros(count * m, dtype=np.int64)
            if any_int:
                level.int_vals = np.zeros(count * m, dtype=np.int64)
            for s, e, returns_list, payload in payloads:
                if returns_list:
                    values, lens = payload
                    level.list_vals[s * m : e * m, : values.shape[1]] = values
                    level.lens[s * m : e * m] = lens
                else:
                    level.int_vals[s * m : e * m] = payload

    def _arg(self, level: _Level, src_cols: Dict, arg_type: DSLType, binding: int, start: int, end: int):
        """The argument column for rows ``start*m .. end*m`` of a group."""
        m = self.m
        if binding < 0:  # no slot of the required type: the default value
            g = end - start
            if arg_type is _INT:
                return np.zeros(g * m, dtype=np.int64)
            return (np.zeros((g * m, 0), dtype=np.int64), np.zeros(g * m, dtype=np.int64))
        n_inputs = self.block.n_inputs
        if binding < n_inputs:  # a program input: a slice of one cached tile
            tile = self._tile(binding, end)
            if len(tile) == 3:
                return tile[1][start * m : end * m], tile[2][start * m : end * m]
            return tile[1][start * m : end * m]
        # an earlier step's output: the whole level's rows are gathered
        # once per source level, each group slicing its contiguous range
        src_j = binding - n_inputs
        # keyed by (level, type): one level holds int values for some
        # prefixes and lists for others, and groups may read either
        cache_key = (src_j, arg_type is _INT)
        col = src_cols.get(cache_key)
        if col is None:
            src = self.levels[src_j]
            anc = level.anc[src_j]
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
        """Input column ``slot`` repeated per prefix (row ``r`` holds the
        value of example ``r % m``), grown by doubling as batches widen."""
        entry = self._tiles.get(slot)
        if entry is None or entry[0] < min_prefixes:
            capacity = min_prefixes if entry is None else max(min_prefixes, entry[0] * 2)
            column = self.block.columns[slot]
            if isinstance(column, tuple):
                values, lengths = column
                entry = (capacity, np.tile(values, (capacity, 1)), np.tile(lengths, capacity))
            else:
                entry = (capacity, np.tile(column, capacity))
            self._tiles[slot] = entry
        return entry

    # -- decoding ------------------------------------------------------
    def _raw_level(self, j: int) -> tuple:
        """Whole-level bulk decode to Python lists (one ``tolist`` per array)."""
        raw = self._level_raw.get(j)
        if raw is None:
            level = self.levels[j]
            ints = level.int_vals.tolist() if level.int_vals is not None else None
            if level.list_vals is not None:
                lists = level.list_vals.tolist()
                lens = level.lens.tolist()
            else:
                lists = lens = None
            raw = (ints, lists, lens, level.is_list.tolist())
            self._level_raw[j] = raw
        return raw

    def outputs_of(self, i: int) -> List[Value]:
        """Program ``i``'s final output per example (block-local order)."""
        length = self.seq_lens[i]
        if length == 0:
            return [_DEFAULT_INT] * self.m
        pid = self.paths_list[i][length - 1]
        ints, lists, lens, is_list = self._raw_level(length - 1)
        base = pid * self.m
        top = base + self.m
        if is_list[pid]:
            return [row[:k] for row, k in zip(lists[base:top], lens[base:top])]
        return ints[base:top]


class _LevelStore:
    """One persistent trie level: node metadata plus value columns.

    Nodes are identified by stable integer ids (append order); value rows
    of node ``p`` live at ``[p * m, (p + 1) * m)``.  Lookups go through a
    sorted view of the packed ``parent * stride + fid`` codes, rebuilt
    once per appending round.
    """

    __slots__ = (
        "count",
        "codes",
        "parent",
        "fids",
        "masks",
        "is_list",
        "int_vals",
        "list_vals",
        "lens",
        "_sorted_codes",
        "_sorted_ids",
    )

    def __init__(self) -> None:
        self.count = 0
        self.codes = np.empty(0, dtype=np.int64)
        self.parent = np.empty(0, dtype=np.int64)
        self.fids = np.empty(0, dtype=np.int64)
        self.masks = np.empty(0, dtype=np.int64)
        self.is_list = np.empty(0, dtype=bool)
        self.int_vals: Optional[np.ndarray] = None
        self.list_vals: Optional[np.ndarray] = None
        self.lens: Optional[np.ndarray] = None
        self._sorted_codes = self.codes
        self._sorted_ids = np.empty(0, dtype=np.int64)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Node id per packed code, ``-1`` where the code is absent."""
        if self.count == 0:
            return np.full(len(codes), -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self._sorted_codes, codes), self.count - 1)
        ids = self._sorted_ids[pos]
        return np.where(self._sorted_codes[pos] == codes, ids, -1)

    def append_round(
        self,
        codes: np.ndarray,
        parent: np.ndarray,
        fids: np.ndarray,
        masks: np.ndarray,
        is_list: np.ndarray,
        round_int: Optional[np.ndarray],
        round_list: Optional[np.ndarray],
        round_lens: Optional[np.ndarray],
        m: int,
    ) -> None:
        """Append one fully-computed insertion round (new node ids are
        ``count .. count + len(codes)``, matching the round's row order)."""
        base = self.count
        add = len(codes)
        self.codes = np.concatenate([self.codes, codes])
        self.parent = np.concatenate([self.parent, parent])
        self.fids = np.concatenate([self.fids, fids])
        self.masks = np.concatenate([self.masks, masks])
        self.is_list = np.concatenate([self.is_list, is_list])
        if round_int is not None or self.int_vals is not None:
            if self.int_vals is None:
                self.int_vals = np.zeros(base * m, dtype=np.int64)
            if round_int is None:
                round_int = np.zeros(add * m, dtype=np.int64)
            self.int_vals = np.concatenate([self.int_vals, round_int])
        if round_list is not None or self.list_vals is not None:
            old_w = self.list_vals.shape[1] if self.list_vals is not None else 0
            new_w = round_list.shape[1] if round_list is not None else 0
            width = max(old_w, new_w)
            vals = np.zeros(((base + add) * m, width), dtype=np.int64)
            if self.list_vals is not None:
                vals[: base * m, :old_w] = self.list_vals
            if round_list is not None:
                vals[base * m :, :new_w] = round_list
            self.list_vals = vals
            lens = np.zeros((base + add) * m, dtype=np.int64)
            if self.lens is not None:
                lens[: base * m] = self.lens
            if round_lens is not None:
                lens[base * m :] = round_lens
            self.lens = lens
        self.count = base + add
        order = np.argsort(self.codes)
        self._sorted_codes = self.codes[order]
        self._sorted_ids = order


class _PersistentTrie(object):
    """An incremental prefix trie kept alive between ``*_batch`` calls.

    Where :class:`_TrieRun` rebuilds its trie and re-packs every column
    per call, this structure persists per ``(signature block, registry)``:
    programs already evaluated are answered by a structural-key leaf
    lookup, and only novel suffixes are inserted — one ``np.unique`` over
    the appended rows per level — and executed.  Adjacent GA generations
    overlap heavily (survivors plus a minority of fresh children), so the
    steady state is a handful of small insertion rounds per generation
    instead of a full rebuild.

    Differences from the transient run, both invisible to results: every
    inserted node is computed (a node dead for this batch may be an
    ancestor of the next batch's leaves, so there is no dead-code
    elimination), and decoded leaf outputs are memoized per node.  Since
    every node's values stay resident, traces are read off the levels
    too (:meth:`gather`): a program's steps are its leaf and the leaf's
    ancestors, so a population the solution check already inserted
    yields its trace columns without executing anything.
    """

    def __init__(
        self,
        block: _SignatureBlock,
        registry: FunctionRegistry,
        fn_table: Dict[int, _FnInfo],
        bind_cache: Dict,
        stats: KernelStats,
    ) -> None:
        max_fid = max((fn.fid for fn in registry.functions), default=0)
        if max_fid >= _MAX_PACKED_FID or max_fid < 0:
            raise _ColumnarUnsupported("function ids outside packed-code range")
        self.block = block
        self.registry = registry
        self.fn_table = fn_table
        self.bind_cache = bind_cache
        self.stats = stats
        self.stride = max_fid + 1
        self.m = block.m
        self.levels: List[_LevelStore] = []
        self.node_count = 0
        self._erange = np.arange(self.m, dtype=np.int64)
        self._tiles: Dict[int, tuple] = {}
        #: ``program.function_ids`` -> leaf node id (the structural key)
        self._leaves: Dict[Tuple[int, ...], int] = {}
        #: ``(level, node)`` -> decoded per-example outputs
        self._leaf_memo: Dict[Tuple[int, int], list] = {}

    def _fn_info(self, fid: int) -> _FnInfo:
        return _fn_info_of(fid, self.registry, self.fn_table)

    # -- evaluation ----------------------------------------------------
    def outputs(self, programs: Sequence[Program]) -> List[list]:
        """Final outputs ``[program][block-local example]``; inserts any
        program not yet resident before decoding all of them in bulk."""
        m = self.m
        n = len(programs)
        results: List[Optional[list]] = [None] * n
        leaves = self._leaves
        stats = self.stats
        stats.leaf_lookups += n
        novel: List[int] = []
        for i, program in enumerate(programs):
            fids = program.function_ids
            if not fids:
                stats.leaf_hits += 1
                results[i] = [_DEFAULT_INT] * m
            elif fids in leaves:
                stats.leaf_hits += 1
            else:
                novel.append(i)
        if novel:
            self._insert([programs[i] for i in novel])
        pending = [
            (i, programs[i].function_ids) for i in range(n) if results[i] is None
        ]
        memo = self._leaf_memo
        need: Dict[Tuple[int, int], None] = {}
        for _i, fids in pending:
            key = (len(fids) - 1, leaves[fids])
            if key not in memo:
                need[key] = None
        if need:
            self._bulk_decode(list(need))
        for i, fids in pending:
            results[i] = list(memo[(len(fids) - 1, leaves[fids])])
        return results

    def gather(self, programs: Sequence[Program]) -> Tuple[np.ndarray, np.ndarray]:
        """The :class:`TraceColumns` ``(values, sizes)`` of every program
        over the block-local examples; inserts any program not yet
        resident first.

        Each length group walks ``parent`` up from its leaves, reading one
        level per step.  A node's cells in the other kind's columns are
        zero (an int node has list length 0, a list node int value 0), so
        a step's first cell is ``list_vals + int_vals`` and its size
        ``lens + (not is_list)`` without masking.
        """
        m = self.m
        n = len(programs)
        leaves = self._leaves
        stats = self.stats
        stats.leaf_lookups += n
        novel: List[Program] = []
        for program in programs:
            fids = program.function_ids
            if fids and fids not in leaves:
                novel.append(program)
            else:
                stats.leaf_hits += 1
        if novel:
            self._insert(novel)
        lengths = np.fromiter((len(p.function_ids) for p in programs), dtype=np.int64, count=n)
        max_len = int(lengths.max(initial=0))
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
                step_sizes = np.repeat(~level.is_list[node], m).astype(np.int64)
                if level.lens is not None:
                    step_sizes += level.lens[rows]
                sizes[members, :, j] = step_sizes.reshape(-1, m)
                steps.append((members, j, level, rows))
                node = level.parent[node]
        width = int(sizes.max(initial=0))
        values = np.zeros((n, m, max_len, width), dtype=np.int64)
        if width:
            for members, j, level, rows in steps:
                w = 0 if level.list_vals is None else min(width, level.list_vals.shape[1])
                if w:
                    values[members, :, j, :w] = level.list_vals[rows, :w].reshape(-1, m, w)
                if level.int_vals is not None:
                    values[members, :, j, 0] += level.int_vals[rows].reshape(-1, m)
        return values, sizes

    def _insert(self, programs: Sequence[Program]) -> None:
        seq_lens = [len(p.function_ids) for p in programs]
        k = len(programs)
        max_len = max(seq_lens)
        if min(seq_lens) == max_len:
            # uniform-length batch (the GA's fixed-length populations):
            # one C-level construction instead of k row assignments
            fid_matrix = np.array([p.function_ids for p in programs], dtype=np.int64)
        else:
            fid_matrix = np.zeros((k, max_len), dtype=np.int64)
            for i, program in enumerate(programs):
                seq = program.function_ids
                fid_matrix[i, : len(seq)] = seq
        top = int(fid_matrix.max())
        if top >= self.stride or top < 0:
            raise _ColumnarUnsupported("function id outside the registry stride")
        lengths = np.array(seq_lens, dtype=np.int64)
        paths = np.full((k, max_len), -1, dtype=np.int64)
        prev = np.zeros(k, dtype=np.int64)
        alive = np.arange(k)
        for j in range(max_len):
            alive = alive[lengths[alive] > j]
            while len(self.levels) <= j:
                self.levels.append(_LevelStore())
            level = self.levels[j]
            codes = prev[alive] * self.stride + fid_matrix[alive, j]
            ids = level.lookup(codes)
            if (ids < 0).any():
                # bulk leaf extraction: one np.unique over the appended rows
                self._insert_nodes(j, level, np.unique(codes[ids < 0]))
                ids = level.lookup(codes)
            paths[alive, j] = ids
            prev[alive] = ids
        for i, program in enumerate(programs):
            self._leaves[program.function_ids] = int(paths[i, seq_lens[i] - 1])

    def _insert_nodes(self, j: int, level: _LevelStore, new_codes: np.ndarray) -> None:
        stride = self.stride
        block = self.block
        m = self.m
        stats = self.stats
        parent_u = new_codes // stride
        fid_u = new_codes % stride
        if j == 0:
            parent_masks = np.full(len(new_codes), block.root_mask, dtype=np.int64)
        else:
            parent_masks = self.levels[j - 1].masks[parent_u]
        history_len = block.n_inputs + j
        pair_codes = parent_masks * stride + fid_u
        pairs, pair_inv = np.unique(pair_codes, return_inverse=True)
        pair_gid, pair_ret, _pair_binds, group_meta = _resolve_pairs(
            pairs, stride, history_len, self._fn_info, self.bind_cache
        )
        gids = pair_gid[pair_inv]
        count = len(new_codes)
        order = np.argsort(gids, kind="stable")
        codes_s = new_codes[order]
        parent_s = parent_u[order]
        fid_s = fid_u[order]
        masks_s = (parent_masks | (pair_ret[pair_inv] << history_len))[order]
        bounds = np.bincount(gids, minlength=len(group_meta)).cumsum()
        bounds_list = bounds.tolist()
        n_groups = len(group_meta)

        # execute every group of the round; all payloads are staged before
        # anything is appended, so a scalar-fallback overflow leaves the
        # persistent levels exactly as they were (the caller then retires
        # this trie and reverts the block to the per-call paths)
        anc_cache: Dict[int, np.ndarray] = {}
        src_cols: Dict[Tuple[int, bool], object] = {}
        payloads = []
        any_list = False
        any_int = False
        list_width = 0
        gid = 0
        start = 0
        while gid < n_groups:
            fid = group_meta[gid][0]
            fn, kernel, arg_types, returns_list = self._fn_info(fid)
            stop = gid + 1
            if kernel is not None:
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
            if kernel is None:
                payload = _scalar_group(fn, arg_types, returns_list, span_args[0], (end - start) * m)
                stats.dispatches += 1
            elif stop - gid == 1:
                payload = _dispatch_group(kernel, span_args[0], stats)
            else:
                payload = _dispatch_group(
                    kernel, [_concat_cols(cols) for cols in zip(*span_args)], stats
                )
                stats.fused_groups += stop - gid - 1
            if returns_list:
                any_list = True
                if payload[0].shape[1] > list_width:
                    list_width = payload[0].shape[1]
            else:
                any_int = True
            payloads.append((start, end, returns_list, payload))
            start = end
            gid = stop

        group_rets = np.fromiter((meta[2] for meta in group_meta), dtype=bool, count=n_groups)
        is_list_s = np.repeat(group_rets, np.diff(bounds, prepend=0))
        round_int = np.zeros(count * m, dtype=np.int64) if any_int else None
        round_list = np.zeros((count * m, list_width), dtype=np.int64) if any_list else None
        round_lens = np.zeros(count * m, dtype=np.int64) if any_list else None
        for s, e, returns_list, payload in payloads:
            if returns_list:
                values, lens = payload
                round_list[s * m : e * m, : values.shape[1]] = values
                round_lens[s * m : e * m] = lens
            else:
                round_int[s * m : e * m] = payload
        level.append_round(
            codes_s, parent_s, fid_s, masks_s, is_list_s, round_int, round_list, round_lens, m
        )
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
        n_inputs = self.block.n_inputs
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
        (persistent across insertion rounds, unlike the transient run's)."""
        entry = self._tiles.get(slot)
        if entry is None or entry[0] < min_prefixes:
            capacity = min_prefixes if entry is None else max(min_prefixes, entry[0] * 2)
            column = self.block.columns[slot]
            if isinstance(column, tuple):
                values, lengths = column
                entry = (capacity, np.tile(values, (capacity, 1)), np.tile(lengths, capacity))
            else:
                entry = (capacity, np.tile(column, capacity))
            self._tiles[slot] = entry
        return entry

    def _bulk_decode(self, keys: List[Tuple[int, int]]) -> None:
        """Decode the requested leaves to Python lists, one gather and one
        ``tolist`` per (level, kind), memoized per node."""
        m = self.m
        memo = self._leaf_memo
        by_level: Dict[int, List[int]] = {}
        for j, node in keys:
            by_level.setdefault(j, []).append(node)
        for j, nodes in by_level.items():
            level = self.levels[j]
            nodes_arr = np.array(nodes, dtype=np.int64)
            node_is_list = level.is_list[nodes_arr]
            int_nodes = nodes_arr[~node_is_list]
            list_nodes = nodes_arr[node_is_list]
            if int_nodes.size:
                rows = (int_nodes[:, None] * m + self._erange).ravel()
                flat = level.int_vals[rows].tolist()
                for k, node in enumerate(int_nodes.tolist()):
                    memo[(j, node)] = flat[k * m : (k + 1) * m]
            if list_nodes.size:
                rows = (list_nodes[:, None] * m + self._erange).ravel()
                vals = level.list_vals[rows].tolist()
                lens = level.lens[rows].tolist()
                for k, node in enumerate(list_nodes.tolist()):
                    base = k * m
                    memo[(j, node)] = [
                        row[:ln] for row, ln in zip(vals[base : base + m], lens[base : base + m])
                    ]


class ColumnarEvaluator:
    """Evaluates batches of programs against one example set, columnar.

    One instance is bound to the *inputs* of an IO specification (outputs
    play no role in execution); :meth:`outputs` and :meth:`trace_columns`
    accept any batch of programs.  Examples are grouped by input type
    signature and each group is evaluated as its own prefix trie.

    Both keep a :class:`_PersistentTrie` alive per ``(signature block,
    registry)`` between calls, so repeated batches pay only for their
    novel program suffixes, and a trace request for programs the solution
    check already evaluated executes nothing.  The tries are invalidated
    by :meth:`invalidate` (the inputs changed — in practice a new
    evaluator is built instead), retired when a registry object is
    swapped for the same key, and swept once ``trie_node_budget``
    resident nodes are exceeded.  Where no trie can serve, outputs fall
    back to a per-call :class:`_TrieRun` and traces to per-program
    compiled runs.
    """

    def __init__(
        self,
        example_inputs: Sequence[Sequence[Value]],
        trie_node_budget: int = 200_000,
    ) -> None:
        self.n_examples = len(example_inputs)
        self.trie_node_budget = trie_node_budget
        self._stats = KernelStats()
        #: ``(block index, id(registry))`` -> (pinned registry, trie).  The
        #: pinned reference keeps the id stable while the entry lives; a
        #: ``None`` trie marks a combination that proved unsupported
        #: mid-insert and stays on the per-call paths.
        self._tries: Dict[Tuple[int, int], Tuple[FunctionRegistry, Optional["_PersistentTrie"]]] = {}
        blocks: "OrderedDict[Tuple[DSLType, ...], _SignatureBlock]" = OrderedDict()
        for e, inputs in enumerate(example_inputs):
            norm = normalize_inputs(inputs)
            signature = input_signature(norm)
            block = blocks.get(signature)
            if block is None:
                block = _SignatureBlock(signature)
                blocks[signature] = block
            block.example_indices.append(e)
            block.norm_inputs.append(norm)
        self.blocks = list(blocks.values())
        for block in self.blocks:
            block.encode()

    # ------------------------------------------------------------------
    def outputs(self, programs: Sequence[Program]) -> List[List[Value]]:
        """Final outputs, ``[program][example]`` in original example order."""
        results: List[List] = [[None] * self.n_examples for _ in programs]
        for registry, indices, part in self._partitions(programs):
            for block_idx, block in enumerate(self.blocks):
                per_program = self._block_outputs(block_idx, block, part, registry)
                # single-block fast path: block-local example order IS the
                # global order, so results rows can be assigned wholesale
                direct = block.m == self.n_examples
                for i, per_example in zip(indices, per_program):
                    if direct:
                        results[i] = per_example  # freshly allocated per program
                    else:
                        for local_e, e in enumerate(block.example_indices):
                            results[i][e] = per_example[local_e]
        return results

    def trace_columns(self, programs: Sequence[Program]) -> TraceColumns:
        """Every program's trace on every example, as :class:`TraceColumns`
        (examples in original order)."""
        n = len(programs)
        max_len = max((len(p.function_ids) for p in programs), default=0)
        fids = np.zeros((n, max_len), dtype=np.int64)
        lengths = np.zeros(n, dtype=np.int64)
        for i, program in enumerate(programs):
            seq = program.function_ids
            fids[i, : len(seq)] = seq
            lengths[i] = len(seq)
        pieces = []
        for registry, indices, part in self._partitions(programs):
            for block_idx, block in enumerate(self.blocks):
                got = self._trie_call(block_idx, block, registry, lambda trie: trie.gather(part))
                if got is None:
                    traces = [
                        [compiled.run(inputs, trace=True) for inputs in block.norm_inputs]
                        for compiled in (compile_program(p, block.signature) for p in part)
                    ]
                    cols = TraceColumns.from_traces(part, traces)
                    got = (cols.values, cols.sizes)
                pieces.append((indices, block.example_indices, got))
        if len(pieces) == 1:
            # one registry and one signature block: already in program and
            # example order
            values, sizes = pieces[0][2]
            return TraceColumns(fids, lengths, values, sizes)
        # scatter every (registry, block) piece back into program and
        # example order
        width = max((got[0].shape[3] for _, _, got in pieces), default=0)
        values = np.zeros((n, self.n_examples, max_len, width), dtype=np.int64)
        sizes = np.zeros((n, self.n_examples, max_len), dtype=np.int64)
        for indices, examples, (part_values, part_sizes) in pieces:
            rows = np.asarray(indices, dtype=np.int64)[:, None]
            cols = np.asarray(examples, dtype=np.int64)[None, :]
            steps, cells = part_values.shape[2], part_values.shape[3]
            values[rows, cols, :steps, :cells] = part_values
            sizes[rows, cols, :steps] = part_sizes
        return TraceColumns(fids, lengths, values, sizes)

    def stats(self) -> dict:
        """Kernel + trie telemetry accumulated over this evaluator's life."""
        return self._stats.snapshot()

    def invalidate(self) -> None:
        """Drop every persistent trie (e.g. the registry contents changed
        in place); the next batch rebuilds incrementally from empty."""
        if self._tries:
            self._stats.trie_evictions += len(self._tries)
            self._tries.clear()

    # ------------------------------------------------------------------
    @staticmethod
    def _partitions(programs: Sequence[Program]):
        """``(registry, indices, programs)`` per registry: programs from
        different registries never share a trie (equal fids would alias
        different functions)."""
        partitions: "OrderedDict[int, List[int]]" = OrderedDict()
        for i, program in enumerate(programs):
            partitions.setdefault(id(program.registry), []).append(i)
        for indices in partitions.values():
            yield programs[indices[0]].registry, indices, [programs[i] for i in indices]

    def _trie_for(
        self, block_idx: int, block, registry, fn_table, bind_cache
    ) -> Optional["_PersistentTrie"]:
        key = (block_idx, id(registry))
        entry = self._tries.get(key)
        if entry is not None and entry[0] is registry:
            return entry[1]
        # entry[0] is not registry: the id was reused after the pinned
        # registry was dropped by a sweep — treat as a registry swap
        try:
            trie = _PersistentTrie(block, registry, fn_table, bind_cache, self._stats)
        except _ColumnarUnsupported:
            trie = None
        if key not in self._tries and len(self._tries) >= 8:
            # bounded sweep: distinct registries churning through one
            # evaluator (cross-registry batches are rare; keep it simple)
            self._stats.trie_evictions += len(self._tries)
            self._tries.clear()
        self._tries[key] = (registry, trie)
        return trie

    def _trie_call(self, block_idx: int, block: _SignatureBlock, registry, call):
        """``call(trie)`` on the block's persistent trie, or None when no
        trie can serve: the block's inputs leave the int64-safe range,
        the registry is unsupported, or an insert overflowed the safe
        range mid-round (which disables the combination for good)."""
        if not block.vector_ok:
            return None
        _registry, fn_table, bind_cache = _tables_for(registry)
        trie = self._trie_for(block_idx, block, registry, fn_table, bind_cache)
        if trie is None:
            return None
        key = (block_idx, id(registry))
        try:
            result = call(trie)
        except _ColumnarUnsupported:
            self._tries[key] = (registry, None)
            return None
        if trie.node_count > self.trie_node_budget:
            # size-bounded eviction: drop the trie; the next batch
            # rebuilds incrementally from empty
            self._stats.trie_evictions += 1
            del self._tries[key]
        return result

    def _block_outputs(self, block_idx, block, part, registry) -> List[list]:
        """Final outputs of ``part`` per block-local example: from the
        persistent trie, else a per-call run, else compiled one by one."""
        got = self._trie_call(block_idx, block, registry, lambda trie: trie.outputs(part))
        if got is not None:
            return got
        if block.vector_ok:
            _registry, fn_table, bind_cache = _tables_for(registry)
            try:
                run = _TrieRun(block, part, registry, fn_table, bind_cache, stats=self._stats)
            except _ColumnarUnsupported:
                pass
            else:
                return [run.outputs_of(i) for i in range(len(part))]
        return [
            [compiled.output(inputs) for inputs in block.norm_inputs]
            for compiled in (compile_program(p, block.signature) for p in part)
        ]


class BatchExecutionEngine(ExecutionEngine):
    """An :class:`ExecutionEngine` with population-batch entry points.

    ``outputs_batch`` / ``satisfies_batch`` answer for a whole population
    in one call: cached programs are served from the usual namespaces
    (with the same hit/miss accounting as the serial methods), the misses
    — deduplicated by program key — are evaluated in one columnar pass,
    and the results are stored back so every cache tier, snapshot and
    sibling consumer observes exactly what a serial run would have
    produced.  ``traces_batch`` returns :class:`TraceColumns` read off the
    same persistent tries and caches nothing.

    Single-program calls (``outputs``/``traces``/``satisfies``) inherit
    the serial path unchanged: a columnar pass only pays off when a batch
    shares work.  Batch results are value- and trace-identical to serial
    ones; only cache *counter* trajectories may differ (a duplicate
    inside one batch counts as one miss per occurrence, where serial
    evaluation would turn the second occurrence into a hit).
    """

    #: consumers test this instead of isinstance to keep layers decoupled
    is_batch = True

    def __init__(self, cache: Optional[EvaluationCache] = None, compiled: bool = True) -> None:
        super().__init__(cache=cache, compiled=compiled)
        self._evaluators: "OrderedDict[Tuple, ColumnarEvaluator]" = OrderedDict()
        #: batches answered entirely from cache, short-circuited before
        #: any dedup bookkeeping or trie packing
        self.batch_full_hits = 0

    # ------------------------------------------------------------------
    def kernel_stats(self) -> dict:
        """Aggregated :meth:`ColumnarEvaluator.stats` over every resident
        evaluator, plus the engine-level ``batch_full_hits`` counter."""
        totals: Dict[str, float] = {}
        for evaluator in self._evaluators.values():
            for field, value in evaluator.stats().items():
                if field == "reuse_ratio":
                    continue
                totals[field] = totals.get(field, 0) + value
        lookups = totals.get("trie_leaf_lookups", 0)
        totals["reuse_ratio"] = totals.get("trie_leaf_hits", 0) / lookups if lookups else 0.0
        totals["batch_full_hits"] = self.batch_full_hits
        return totals

    def _evaluator_for(self, io_set: IOSet, io_key: Tuple) -> ColumnarEvaluator:
        evaluator = self._evaluators.get(io_key)
        if evaluator is None:
            evaluator = ColumnarEvaluator([example.inputs for example in io_set])
            if len(self._evaluators) >= 32:
                self._evaluators.popitem(last=False)
            self._evaluators[io_key] = evaluator
        else:
            self._evaluators.move_to_end(io_key)
        return evaluator

    def _batch_outputs(self, programs: List[Program], io_set: IOSet, io_key: Tuple) -> List[List[Value]]:
        if not self.compiled:
            # reference-interpreter engines are the cross-check control:
            # keep them on the exact reference path, example by example
            return [
                [self._execute_output(program, example.inputs) for example in io_set]
                for program in programs
            ]
        if len(programs) == 1:
            program = programs[0]
            return [[self._execute_output(program, example.inputs) for example in io_set]]
        return self._evaluator_for(io_set, io_key).outputs(programs)

    # ------------------------------------------------------------------
    def outputs_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> List[Tuple[Value, ...]]:
        """:meth:`~ExecutionEngine.outputs` for a whole population."""
        resolved = self.io_key(io_set) if io_key is None else io_key
        results: List[Optional[Tuple[Value, ...]]] = [None] * len(programs)
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
            positions = pending.get(pkey)
            if positions is None:
                pending[pkey] = [idx]
                pending_programs.append(program)
            else:
                positions.append(idx)
        cache.stats.record_many(_NS_OUTPUTS, n_hits, len(programs) - n_hits)
        if not pending_programs:
            # full-hit batch: nothing to dedup, pack or dispatch
            self.batch_full_hits += 1
            return results
        evaluated = self._batch_outputs(pending_programs, io_set, resolved)
        for (pkey, positions), out in zip(pending.items(), evaluated):
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
        checked population executes nothing.  Nothing is stored in the
        evaluation cache: regathering is a few array reads, and the
        fitness layer memoizes its predicted scores above this call.
        """
        resolved = self.io_key(io_set) if io_key is None else io_key
        if not self.compiled:
            # reference-interpreter engines are the cross-check control:
            # keep them on the exact (per-program cached) reference path
            traces = [self.traces(program, io_set, io_key=resolved) for program in programs]
            return TraceColumns.from_traces(programs, traces)
        return self._evaluator_for(io_set, resolved).trace_columns(programs)

    def satisfies_batch(
        self, programs: Sequence[Program], io_set: IOSet, io_key: Optional[Tuple] = None
    ) -> List[bool]:
        """:meth:`~ExecutionEngine.satisfies` for a whole population."""
        resolved = self.io_key(io_set) if io_key is None else io_key
        results: List[Optional[bool]] = [None] * len(programs)
        pending: List[int] = []
        for idx, program in enumerate(programs):
            cached = self.cache.get(_NS_SOLUTIONS, (program_key(program), resolved))
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
