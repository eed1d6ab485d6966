"""Vectorized (columnar) implementations of the DSL functions.

The columnar evaluator (:mod:`repro.execution.vectorized`) executes one
DSL function over a whole *batch* of rows at once — every (candidate
prefix, IO example) pair that applies the function at the same program
step.  This module provides the numpy kernels those dispatches run.

Column representation
---------------------
An ``int`` column is a 1-D ``int64`` array of shape ``[rows]``.  A list
column is a pair ``(values, lengths)``: ``values`` is a 2-D ``int64``
array of shape ``[rows, width]`` and ``lengths`` the per-row element
count.  Two invariants hold everywhere:

* cells at or beyond a row's length are **zero** (so whole-row reductions
  and decodes never need a mask rebuild), and
* list values produced by a DSL step are already saturated to
  ``[INT_MIN, INT_MAX]`` (program *inputs* are raw and may exceed the
  domain, which is why kernels clamp exactly where the scalar
  implementations do).

Every kernel is bit-exact against the scalar implementation in
:mod:`repro.dsl.functions` — including truncating division, per-step
saturation in ``SCANL1`` and the clamp placement of every family — which
is what keeps vectorized runs byte-identical to serial ones
(``tests/test_vectorized.py``).  Kernels never mutate their argument
columns (the evaluator hands out views into shared buffers); saturation
happens in place only on arrays a kernel freshly allocated.

Kernels are looked up per :class:`~repro.dsl.functions.DSLFunction` via
:func:`batch_impl_for`, which matches by function id *and* implementation
identity against the default registry: a custom registry reusing the
catalog's functions vectorizes, while a registry holding a synthetic
function (a second DSL domain, a test double) gets no columnar evaluator:
the batch engine runs its programs one by one on the compiled path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dsl.functions import DSLFunction
from repro.dsl.types import INT_MAX, INT_MIN

#: An int column: ``int64[rows]``.
IntColumn = np.ndarray
#: A list column: ``(int64[rows, width], int64[rows])``.
ListColumn = Tuple[np.ndarray, np.ndarray]

#: Input values whose magnitude exceeds this bound are routed to the
#: per-program path: beyond it, int64 intermediates (sums over a row,
#: pairwise products) could overflow before the saturating clamp is applied.
SAFE_INT_BOUND = 2 ** 31

_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min

_ARANGES: Dict[int, np.ndarray] = {}


def _arange(width: int) -> np.ndarray:
    """Memoized ``np.arange(width)`` (row-position index, reused everywhere)."""
    cached = _ARANGES.get(width)
    if cached is None:
        cached = np.arange(width, dtype=np.int64)
        _ARANGES[width] = cached
    return cached


def length_mask(lengths: np.ndarray, width: int) -> np.ndarray:
    """Boolean validity mask ``[rows, width]``: True inside each row's length."""
    return _arange(width)[None, :] < lengths[:, None]


def _sat(values: np.ndarray) -> np.ndarray:
    """Saturate a *freshly allocated* array into the DSL domain, in place.

    (``np.clip`` is avoided on this hot path: it re-derives dtype limits
    per call, costing an order of magnitude more than two ufunc calls.)
    """
    np.maximum(values, INT_MIN, out=values)
    np.minimum(values, INT_MAX, out=values)
    return values


def _sat_copy(values: np.ndarray) -> np.ndarray:
    """Saturate without mutating (for views into shared buffers)."""
    return np.minimum(np.maximum(values, INT_MIN), INT_MAX)


def _compact(values: np.ndarray, keep: np.ndarray) -> ListColumn:
    """Keep the flagged cells of each row, left-packed (FILTER/DELETE core)."""
    width = values.shape[1]
    lengths = keep.sum(axis=1)
    out = np.zeros_like(values)
    if width:
        rows, cols = np.nonzero(keep)
        if rows.size:
            positions = keep.cumsum(axis=1) - 1
            out[rows, positions[rows, cols]] = values[rows, cols]
    return out, lengths


def _empty_like(rows: int) -> ListColumn:
    """An all-empty list column."""
    return np.zeros((rows, 0), dtype=np.int64), np.zeros(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# Kernels, one per function family
# ---------------------------------------------------------------------------


def _k_head(xs: ListColumn) -> IntColumn:
    values, lengths = xs
    if not values.shape[1]:
        return np.zeros(len(lengths), dtype=np.int64)
    return _sat(np.where(lengths > 0, values[:, 0], 0))


def _k_last(xs: ListColumn) -> IntColumn:
    values, lengths = xs
    if not values.shape[1]:
        return np.zeros(len(lengths), dtype=np.int64)
    last = values[_arange(len(lengths)), np.maximum(lengths - 1, 0)]
    return _sat(np.where(lengths > 0, last, 0))


def _k_minimum(xs: ListColumn) -> IntColumn:
    values, lengths = xs
    if not values.shape[1]:
        return np.zeros(len(lengths), dtype=np.int64)
    masked = np.where(length_mask(lengths, values.shape[1]), values, _I64_MAX)
    return _sat(np.where(lengths > 0, masked.min(axis=1), 0))


def _k_maximum(xs: ListColumn) -> IntColumn:
    values, lengths = xs
    if not values.shape[1]:
        return np.zeros(len(lengths), dtype=np.int64)
    masked = np.where(length_mask(lengths, values.shape[1]), values, _I64_MIN)
    return _sat(np.where(lengths > 0, masked.max(axis=1), 0))


def _k_sum(xs: ListColumn) -> IntColumn:
    values, lengths = xs
    if not values.shape[1]:
        return np.zeros(len(lengths), dtype=np.int64)
    # padding cells are zero, so the whole-row sum needs no mask
    return _sat(values.sum(axis=1))


def _count_kernel(pred: Callable[[np.ndarray], np.ndarray], needs_mask: bool):
    def kernel(xs: ListColumn) -> IntColumn:
        values, lengths = xs
        if not values.shape[1]:
            return np.zeros(len(lengths), dtype=np.int64)
        flags = pred(values)
        if needs_mask:
            flags &= length_mask(lengths, values.shape[1])
        # counts are bounded by the row width, far inside the int domain
        return flags.sum(axis=1)

    return kernel


def _k_access(n: IntColumn, xs: ListColumn) -> IntColumn:
    values, lengths = xs
    width = values.shape[1]
    if not width:
        return np.zeros(len(lengths), dtype=np.int64)
    index = np.minimum(np.maximum(n, 0), width - 1)
    picked = values[_arange(len(lengths)), index]
    return _sat(np.where((n >= 0) & (n < lengths), picked, 0))


def _k_search(n: IntColumn, xs: ListColumn) -> IntColumn:
    values, lengths = xs
    if not values.shape[1]:
        return np.full(len(lengths), -1, dtype=np.int64)
    hits = (values == n[:, None]) & length_mask(lengths, values.shape[1])
    found = hits.any(axis=1)
    return np.where(found, hits.argmax(axis=1), -1)


def _k_reverse(xs: ListColumn) -> ListColumn:
    values, lengths = xs
    width = values.shape[1]
    if not width:
        return values, lengths
    index = lengths[:, None] - 1 - _arange(width)[None, :]
    np.maximum(index, 0, out=index)
    out = np.take_along_axis(values, index, axis=1)
    out *= length_mask(lengths, width)
    return out, lengths


def _k_sort(xs: ListColumn) -> ListColumn:
    values, lengths = xs
    width = values.shape[1]
    if not width:
        return values, lengths
    mask = length_mask(lengths, width)
    out = np.sort(np.where(mask, values, _I64_MAX), axis=1)
    out *= mask
    return out, lengths


def _map_kernel(vec: Callable[[np.ndarray], np.ndarray], preserves_zero: bool):
    # When ``vec(0) == 0`` the padding cells (exactly zero by invariant)
    # stay zero through the map, so the re-masking multiply can be skipped.
    if preserves_zero:
        def kernel(xs: ListColumn) -> ListColumn:
            values, lengths = xs
            if not values.shape[1]:
                return values, lengths
            return _sat(vec(values)), lengths

        return kernel

    def kernel(xs: ListColumn) -> ListColumn:
        values, lengths = xs
        width = values.shape[1]
        if not width:
            return values, lengths
        out = _sat(vec(values))
        out *= length_mask(lengths, width)
        return out, lengths

    return kernel


def _filter_kernel(pred: Callable[[np.ndarray], np.ndarray], needs_mask: bool):
    def kernel(xs: ListColumn) -> ListColumn:
        values, lengths = xs
        if not values.shape[1]:
            return values, lengths
        keep = pred(values)
        if needs_mask:
            keep &= length_mask(lengths, values.shape[1])
        return _compact(values, keep)

    return kernel


def _k_delete(n: IntColumn, xs: ListColumn) -> ListColumn:
    values, lengths = xs
    if not values.shape[1]:
        return values, lengths
    keep = (values != n[:, None]) & length_mask(lengths, values.shape[1])
    return _compact(values, keep)


def _k_insert(n: IntColumn, xs: ListColumn) -> ListColumn:
    values, lengths = xs
    rows, width = values.shape
    out = np.zeros((rows, width + 1), dtype=np.int64)
    out[:, :width] = values
    out[_arange(rows), lengths] = _sat_copy(n)
    return out, lengths + 1


def _k_take(n: IntColumn, xs: ListColumn) -> ListColumn:
    values, lengths = xs
    new_lengths = np.minimum(np.maximum(n, 0), lengths)
    if not values.shape[1]:
        return values, new_lengths
    out = values * length_mask(new_lengths, values.shape[1])
    return out, new_lengths


def _k_drop(n: IntColumn, xs: ListColumn) -> ListColumn:
    values, lengths = xs
    shift = np.maximum(n, 0)
    new_lengths = np.maximum(lengths - shift, 0)
    width = values.shape[1]
    if not width:
        return values, new_lengths
    index = _arange(width)[None, :] + shift[:, None]
    np.minimum(index, width - 1, out=index)
    out = np.take_along_axis(values, index, axis=1)
    out *= length_mask(new_lengths, width)
    return out, new_lengths


def _scanl1_saturating_kernel(op: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """SCANL1 for +, -, *: saturation applies at *every* step, so the scan
    runs column by column (the short axis) with a clamp per column."""

    def kernel(xs: ListColumn) -> ListColumn:
        values, lengths = xs
        width = values.shape[1]
        if not width:
            return values, lengths
        out = np.zeros_like(values)
        out[:, 0] = _sat_copy(values[:, 0])
        limit = int(lengths.max()) if len(lengths) else 0
        for column in range(1, min(width, limit)):
            out[:, column] = _sat(op(values[:, column], out[:, column - 1]))
        out *= length_mask(lengths, width)
        return out, lengths

    return kernel


def _scanl1_monotone_kernel(accumulate: Callable[..., np.ndarray]):
    """SCANL1 for min/max: ``clamp(op(x, clamp(prev)))`` equals
    ``clamp(op-accumulated raw prefix)`` because clamping is monotone and
    commutes with min/max, so a single accumulate + clip is exact."""

    def kernel(xs: ListColumn) -> ListColumn:
        values, lengths = xs
        if not values.shape[1]:
            return values, lengths
        out = _sat(accumulate(values, axis=1))
        out *= length_mask(lengths, values.shape[1])
        return out, lengths

    return kernel


def _zipwith_kernel(op: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    def kernel(xs: ListColumn, ys: ListColumn) -> ListColumn:
        a_values, a_lengths = xs
        b_values, b_lengths = ys
        width = min(a_values.shape[1], b_values.shape[1])
        lengths = np.minimum(a_lengths, b_lengths)
        if not width:
            return _empty_like(len(lengths))
        out = _sat(op(a_values[:, :width], b_values[:, :width]))
        out *= length_mask(lengths, width)
        return out, lengths

    return kernel


def _trunc_div(divisor: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vector form of ``int(x / d)``: truncation toward zero, not floor."""

    def vec(values: np.ndarray) -> np.ndarray:
        quotient = np.abs(values)
        quotient //= divisor
        np.negative(quotient, out=quotient, where=values < 0)
        return quotient

    return vec


# ---------------------------------------------------------------------------
# The per-family kernel tables
# ---------------------------------------------------------------------------

_PRED_VECS: Dict[str, Tuple[Callable[[np.ndarray], np.ndarray], bool]] = {
    # (vectorized predicate, needs explicit mask): zero padding already
    # fails >0, <0 and odd, so only the "even" predicate must be masked
    ">0": (lambda v: v > 0, False),
    "<0": (lambda v: v < 0, False),
    "odd": (lambda v: v % 2 != 0, False),
    "even": (lambda v: v % 2 == 0, True),
}

# (vectorized lambda, preserves zero): the shift lambdas +1/-1 disturb the
# zero padding and need re-masking; the multiplicative ones map 0 to 0
_UNARY_VECS: Dict[str, Tuple[Callable[[np.ndarray], np.ndarray], bool]] = {
    "+1": (lambda v: v + 1, False),
    "-1": (lambda v: v - 1, False),
    "*2": (lambda v: v * 2, True),
    "*3": (lambda v: v * 3, True),
    "*4": (lambda v: v * 4, True),
    "/2": (_trunc_div(2), True),
    "/3": (_trunc_div(3), True),
    "/4": (_trunc_div(4), True),
    "*(-1)": (lambda v: -v, True),
    "^2": (lambda v: v * v, True),
}

_BINARY_VECS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "min": np.minimum,
    "max": np.maximum,
}


def _build_kernels() -> Dict[Tuple[str, str], Callable]:
    kernels: Dict[Tuple[str, str], Callable] = {
        ("ACCESS", ""): _k_access,
        ("HEAD", ""): _k_head,
        ("LAST", ""): _k_last,
        ("MINIMUM", ""): _k_minimum,
        ("MAXIMUM", ""): _k_maximum,
        ("SEARCH", ""): _k_search,
        ("SUM", ""): _k_sum,
        ("DELETE", ""): _k_delete,
        ("INSERT", ""): _k_insert,
        ("REVERSE", ""): _k_reverse,
        ("SORT", ""): _k_sort,
        ("TAKE", ""): _k_take,
        ("DROP", ""): _k_drop,
    }
    for lam, (pred, needs_mask) in _PRED_VECS.items():
        kernels[("COUNT", lam)] = _count_kernel(pred, needs_mask)
        kernels[("FILTER", lam)] = _filter_kernel(pred, needs_mask)
    for lam, (vec, preserves_zero) in _UNARY_VECS.items():
        kernels[("MAP", lam)] = _map_kernel(vec, preserves_zero)
    for lam, op in _BINARY_VECS.items():
        kernels[("ZIPWITH", lam)] = _zipwith_kernel(op)
    kernels[("SCANL1", "+")] = _scanl1_saturating_kernel(lambda x, prev: x + prev)
    kernels[("SCANL1", "-")] = _scanl1_saturating_kernel(lambda x, prev: x - prev)
    kernels[("SCANL1", "*")] = _scanl1_saturating_kernel(lambda x, prev: x * prev)
    kernels[("SCANL1", "min")] = _scanl1_monotone_kernel(np.minimum.accumulate)
    kernels[("SCANL1", "max")] = _scanl1_monotone_kernel(np.maximum.accumulate)
    return kernels


_KERNELS = _build_kernels()

# identity map: fid -> scalar impl of the default catalog, so a custom
# DSLFunction that merely *names* itself like a catalog entry (but swaps
# the implementation) never silently vectorizes with catalog semantics
_DEFAULT_IMPLS: Dict[int, Callable] = {}


def _default_impls() -> Dict[int, Callable]:
    if not _DEFAULT_IMPLS:
        from repro.dsl.functions import REGISTRY

        for fn in REGISTRY:
            _DEFAULT_IMPLS[fn.fid] = fn.impl
    return _DEFAULT_IMPLS


def batch_impl_for(fn: DSLFunction) -> Optional[Callable]:
    """The vectorized kernel for ``fn``, or ``None`` when it has none.

    A kernel is returned only when ``fn`` is (or shares its implementation
    with) the default catalog's function of the same id — a registry with
    a synthetic function runs on the per-program compiled path instead.
    """
    if _default_impls().get(fn.fid) is not fn.impl:
        return None
    return _KERNELS.get((fn.base, fn.lam))
