"""Reference trace encoder: the per-value tokenizer the model was built on.

``FeatureEncoder.encode_trace_batch`` turns step columns into tokens with
one vectorized clip-and-offset.  This module keeps the original
formulation — flatten every value, map it to a token one integer at a
time, pad row by row — as the oracle the vectorized encoder is checked
against (``tests/test_trace_columns.py``).  It reads only the encoder's
public settings, so it states the token contract independently of the
implementation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dsl.types import Value
from repro.fitness.features import VALUE_PAD, FeatureEncoder, FitnessSample, flatten_value, value_to_token


def _pack_values(encoder: FeatureEncoder, values: Sequence[Value]) -> Tuple[np.ndarray, np.ndarray]:
    sequences = [[value_to_token(v) for v in flatten_value(value)[: encoder.max_value_length]] for value in values]
    if encoder.pad_value_width is not None:
        width = encoder.pad_value_width
    else:
        width = max(1, max((len(s) for s in sequences), default=1))
    tokens = np.full((len(sequences), width), VALUE_PAD, dtype=np.int64)
    mask = np.zeros((len(sequences), width), dtype=np.float64)
    for row, seq in enumerate(sequences):
        if seq:
            tokens[row, : len(seq)] = seq
            mask[row, : len(seq)] = 1.0
    return tokens, mask


def encode_trace_batch(encoder: FeatureEncoder, samples: Sequence[FitnessSample]) -> Dict[str, np.ndarray]:
    """What ``encoder.encode_trace_batch(samples)`` must return."""
    m = samples[0].n_examples
    batch = len(samples)
    max_len = max(s.program_length for s in samples)
    if encoder.pad_program_length is not None:
        assert max_len <= encoder.pad_program_length
        max_len = encoder.pad_program_length

    flat_inputs: List[Value] = []
    flat_outputs: List[Value] = []
    step_functions = np.zeros((batch * m, max_len), dtype=np.int64)
    step_mask = np.zeros((batch * m, max_len), dtype=np.float64)
    flat_step_values: List[Value] = []
    for b, sample in enumerate(samples):
        for e in range(m):
            row = b * m + e
            combined_input: List[int] = []
            for value in sample.io_inputs[e]:
                combined_input.extend(flatten_value(value))
            flat_inputs.append(combined_input)
            flat_outputs.append(sample.io_outputs[e])
            trace = sample.traces[e]
            for k in range(max_len):
                if k < sample.program_length:
                    step_functions[row, k] = encoder.registry.index_of(sample.function_ids[k])
                    step_mask[row, k] = 1.0
                    flat_step_values.append(trace[k] if k < len(trace) else [])
                else:
                    flat_step_values.append([])

    input_tokens, input_mask = _pack_values(encoder, flat_inputs)
    output_tokens, output_mask = _pack_values(encoder, flat_outputs)
    step_value_tokens, step_value_mask = _pack_values(encoder, flat_step_values)
    encoded = {
        "input_tokens": input_tokens,
        "input_mask": input_mask,
        "output_tokens": output_tokens,
        "output_mask": output_mask,
        "step_functions": step_functions,
        "step_mask": step_mask,
        "step_value_tokens": step_value_tokens,
        "step_value_mask": step_value_mask,
        "shape": np.array([batch, m, max_len], dtype=np.int64),
    }
    if all(s.label is not None for s in samples):
        encoded["labels"] = np.array([s.label for s in samples], dtype=np.int64)
    return encoded
