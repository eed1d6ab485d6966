"""Feature encoding for the neural fitness models.

The NN-FF (Figure 2) consumes, per IO example, the input list, the output
list, and the candidate program's execution trace (one function id and one
intermediate value per step).  This module turns those structures into
padded integer token arrays that the encoders in :mod:`repro.nn.encoders`
can embed.

Token scheme
------------
DSL integers are saturated to ``[INT_MIN, INT_MAX]`` so every runtime value
maps to a token ``value - INT_MIN + 1``; token 0 is padding.  Function ids
use their own dense 0-based index space (plus a padding slot) for the
function embedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dsl.equivalence import IOExample, IOSet
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.interpreter import ExecutionTrace
from repro.dsl.program import Program
from repro.dsl.types import DSLType, INT_MAX, INT_MIN, Value, clamp_int, type_of
from repro.execution.vectorized import TraceColumns

#: padding token for value sequences
VALUE_PAD = 0

#: the IO half of an encoded trace batch, one row per (candidate, example)
_IO_KEYS = ("input_tokens", "input_mask", "output_tokens", "output_mask")


def value_vocabulary_size() -> int:
    """Number of distinct value tokens (all saturated ints plus padding)."""
    return (INT_MAX - INT_MIN + 1) + 1


def value_to_token(value: int) -> int:
    """Map a saturated DSL integer to its embedding token (1-based)."""
    return clamp_int(int(value)) - INT_MIN + 1


def flatten_value(value: Value) -> List[int]:
    """View a DSL value as a flat list of integers (singleton -> length 1)."""
    if type_of(value) is DSLType.INT:
        return [int(value)]
    return [int(v) for v in value]


@dataclass(frozen=True)
class FitnessSample:
    """One training/inference sample for the trace-based fitness model.

    Attributes
    ----------
    function_ids:
        The candidate program's function ids (gene), in execution order.
    io_inputs:
        Per IO example, the tuple of program inputs of the *target*'s
        specification.
    io_outputs:
        Per IO example, the target output.
    traces:
        Per IO example, the candidate's intermediate outputs ``t_1..t_L``
        (one value per program step) obtained by running the candidate on
        that example's input.
    label:
        Optional ideal fitness value (CF or LCS) used for training.
    fp_target:
        Optional function-membership vector used to train the FP model.
    """

    function_ids: Tuple[int, ...]
    io_inputs: Tuple[Tuple[Value, ...], ...]
    io_outputs: Tuple[Value, ...]
    traces: Tuple[Tuple[Value, ...], ...]
    label: Optional[int] = None
    fp_target: Optional[Tuple[float, ...]] = None

    @property
    def n_examples(self) -> int:
        return len(self.io_inputs)

    @property
    def program_length(self) -> int:
        return len(self.function_ids)


def sample_from_execution(
    candidate: Program,
    io_set: IOSet,
    traces: Sequence[ExecutionTrace],
    label: Optional[int] = None,
    fp_target: Optional[np.ndarray] = None,
) -> FitnessSample:
    """Build a :class:`FitnessSample` from a candidate, a spec and its traces."""
    if len(traces) != len(io_set):
        raise ValueError("one trace per IO example is required")
    return FitnessSample(
        function_ids=tuple(candidate.function_ids),
        io_inputs=tuple(tuple(example.inputs) for example in io_set),
        io_outputs=tuple(example.output for example in io_set),
        traces=tuple(tuple(trace.intermediate_outputs) for trace in traces),
        label=None if label is None else int(label),
        fp_target=None if fp_target is None else tuple(float(x) for x in fp_target),
    )


@dataclass
class FeatureEncoder:
    """Encodes trace batches and IO specifications into padded arrays.

    Parameters
    ----------
    max_value_length:
        Lists longer than this are truncated (keeping the head) before
        being embedded.
    registry:
        DSL function registry; determines the function-index space.
    pad_value_width:
        When set, every token/mask array is padded to exactly this many
        columns instead of the longest sequence in the batch, so the
        encoded arrays — and therefore the model's forward pass — do not
        depend on batch composition.  Must be at least
        ``max_value_length`` (the longest sequence any row can produce).
    pad_program_length:
        When set, the step dimension of :meth:`encode_trace_batch` is
        padded to exactly this many steps instead of the longest program
        in the batch.  Samples longer than this are rejected.

    The two ``pad_*`` widths are what makes scoring batch-shape-invariant
    (see ``docs/execution.md``); trailing all-padding columns are exact
    no-ops for the masked encoders, and the models skip them, so fixed
    widths cost nothing at inference time.
    """

    max_value_length: int = 16
    registry: FunctionRegistry = field(default_factory=lambda: REGISTRY)
    pad_value_width: Optional[int] = None
    pad_program_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pad_value_width is not None and self.pad_value_width < self.max_value_length:
            raise ValueError(
                f"pad_value_width={self.pad_value_width} is below "
                f"max_value_length={self.max_value_length}; rows could overflow it"
            )
        if self.pad_program_length is not None and self.pad_program_length <= 0:
            raise ValueError("pad_program_length must be positive")

    # ------------------------------------------------------------------
    @property
    def n_functions(self) -> int:
        return len(self.registry)

    def encode_value(self, value: Value) -> List[int]:
        """Token sequence for a single DSL value (truncated, never padded)."""
        flat = flatten_value(value)[: self.max_value_length]
        return [value_to_token(v) for v in flat]

    def _pack_values(self, values: Sequence[Value]) -> Tuple[np.ndarray, np.ndarray]:
        """Pad a list of DSL values (the IO rows) into (tokens, mask) arrays.

        The width is the longest sequence in the batch, or the fixed
        ``pad_value_width`` when configured (batch-shape invariance).
        """
        sequences = [self.encode_value(v) for v in values]
        if self.pad_value_width is not None:
            width = self.pad_value_width
        else:
            width = max(1, max((len(s) for s in sequences), default=1))
        tokens = np.full((len(sequences), width), VALUE_PAD, dtype=np.int64)
        mask = np.zeros((len(sequences), width), dtype=np.float64)
        for row, seq in enumerate(sequences):
            if seq:
                tokens[row, : len(seq)] = seq
                mask[row, : len(seq)] = 1.0
        return tokens, mask

    # ------------------------------------------------------------------
    def encode_trace_batch(
        self,
        batch: Union[TraceColumns, Sequence[FitnessSample]],
        io: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Encode a batch for the trace-based (CF/LCS) model.

        ``batch`` is either the :class:`~repro.execution.TraceColumns` of
        ``B`` candidates run on one specification, with ``io`` that
        specification's rows from ``encode_io_batch([io_set])`` (scoring),
        or ``B`` :class:`FitnessSample` with their own IO (training).  All
        rows must have the same number of IO examples ``m``; program
        lengths may differ (shorter programs are padded and masked).
        Returns a dict of arrays:

        ``input_tokens/input_mask``  — ``(B*m, T_in)``
        ``output_tokens/output_mask`` — ``(B*m, T_out)``
        ``step_functions``            — ``(B*m, L)`` 0-based function indices
        ``step_mask``                 — ``(B*m, L)``
        ``step_value_tokens/mask``    — ``(B*m*L, T_val)``
        ``labels``                    — ``(B,)`` when every sample has one
        ``shape``                     — ``(B, m, L)`` bookkeeping triple
        """
        if not len(batch):
            raise ValueError("cannot encode an empty batch")
        if isinstance(batch, TraceColumns):
            if io is None or len(io["input_tokens"]) != batch.values.shape[1]:
                raise ValueError("trace columns need one IO row per example of their specification")
            columns = batch
            # the specification's rows, broadcast to every candidate
            encoded = {key: np.tile(io[key], (len(columns), 1)) for key in _IO_KEYS}
            labels = None
        else:
            columns, encoded, labels = self._sample_columns(batch)
        encoded.update(self._encode_steps(columns))
        if labels is not None:
            encoded["labels"] = labels
        return encoded

    def _sample_columns(self, samples: Sequence[FitnessSample]):
        """Step columns, per-row IO arrays and labels of training samples."""
        m = samples[0].n_examples
        if any(s.n_examples != m for s in samples):
            raise ValueError("all samples in a batch must have the same number of IO examples")
        columns = TraceColumns.from_steps(
            [s.function_ids for s in samples], [s.traces for s in samples]
        )
        # inputs: a program may take several inputs; concatenate them into
        # one token sequence (they are separated by truncation boundaries
        # only, which is sufficient for the encoder)
        flat_inputs = [
            [v for value in inputs for v in flatten_value(value)]
            for s in samples
            for inputs in s.io_inputs
        ]
        flat_outputs = [output for s in samples for output in s.io_outputs]
        input_tokens, input_mask = self._pack_values(flat_inputs)
        output_tokens, output_mask = self._pack_values(flat_outputs)
        io_rows = {
            "input_tokens": input_tokens,
            "input_mask": input_mask,
            "output_tokens": output_tokens,
            "output_mask": output_mask,
        }
        labels = None
        if all(s.label is not None for s in samples):
            labels = np.array([s.label for s in samples], dtype=np.int64)
        return columns, io_rows, labels

    def _encode_steps(self, columns: TraceColumns) -> Dict[str, np.ndarray]:
        """The step arrays of a batch: one clip, offset and mask for every
        step value (a token is ``clamp(v) - INT_MIN + 1``, as
        :func:`value_to_token` maps it)."""
        batch = len(columns)
        lengths = columns.lengths
        _, m, have_len, have_width = columns.values.shape
        max_len = int(lengths.max())
        if self.pad_program_length is not None:
            if max_len > self.pad_program_length:
                raise ValueError(
                    f"sample of length {max_len} exceeds "
                    f"pad_program_length={self.pad_program_length}"
                )
            max_len = self.pad_program_length
        steps = min(have_len, max_len)

        valid = np.arange(max_len) < lengths[:, None]
        functions = np.zeros((batch, max_len), dtype=np.int64)
        fids, where = np.unique(columns.fids[:, :steps][valid[:, :steps]], return_inverse=True)
        index = np.array([self.registry.index_of(int(f)) for f in fids.tolist()], dtype=np.int64)
        functions[valid] = index[where]

        sizes = np.minimum(columns.sizes[:, :, :steps], self.max_value_length)
        if self.pad_value_width is not None:
            width = self.pad_value_width
        else:
            width = int(sizes.max(initial=1))
        cells = min(have_width, self.max_value_length, width)
        mask = np.arange(cells) < sizes[..., None]
        tokens = np.clip(columns.values[:, :, :steps, :cells], INT_MIN, INT_MAX)
        tokens -= INT_MIN - 1
        tokens[~mask] = VALUE_PAD
        step_tokens = np.zeros((batch, m, max_len, width), dtype=np.int64)
        step_mask = np.zeros((batch, m, max_len, width), dtype=np.float64)
        step_tokens[:, :, :steps, :cells] = tokens
        step_mask[:, :, :steps, :cells] = mask
        return {
            "step_functions": np.repeat(functions, m, axis=0),
            "step_mask": np.repeat(valid.astype(np.float64), m, axis=0),
            "step_value_tokens": step_tokens.reshape(batch * m * max_len, width),
            "step_value_mask": step_mask.reshape(batch * m * max_len, width),
            "shape": np.array([batch, m, max_len], dtype=np.int64),
        }

    # ------------------------------------------------------------------
    def encode_io_batch(
        self, io_sets: Sequence[IOSet], fp_targets: Optional[Sequence[Sequence[float]]] = None
    ) -> Dict[str, np.ndarray]:
        """Encode IO specifications only (for the function-probability model)."""
        if not io_sets:
            raise ValueError("cannot encode an empty batch")
        m = len(io_sets[0])
        if any(len(s) != m for s in io_sets):
            raise ValueError("all IO sets in a batch must have the same number of examples")
        batch = len(io_sets)
        flat_inputs: List[Value] = []
        flat_outputs: List[Value] = []
        for io_set in io_sets:
            for example in io_set:
                combined_input: List[int] = []
                for value in example.inputs:
                    combined_input.extend(flatten_value(value))
                flat_inputs.append(combined_input)
                flat_outputs.append(example.output)
        input_tokens, input_mask = self._pack_values(flat_inputs)
        output_tokens, output_mask = self._pack_values(flat_outputs)
        encoded: Dict[str, np.ndarray] = {
            "input_tokens": input_tokens,
            "input_mask": input_mask,
            "output_tokens": output_tokens,
            "output_mask": output_mask,
            "shape": np.array([batch, m], dtype=np.int64),
        }
        if fp_targets is not None:
            encoded["fp_targets"] = np.asarray(fp_targets, dtype=np.float64)
        return encoded
