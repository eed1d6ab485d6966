"""Trace columns into the model: ``traces_batch`` + ``encode_trace_batch``.

The scoring path never builds ``StepRecord``s or ``FitnessSample``s: the
batch engine hands the encoder :class:`TraceColumns` read off its trie,
and the encoder tokenizes them with one vectorized clip-and-offset.  The
load-bearing property is that the model sees exactly the arrays the
per-value encoder (``tests/encoder_oracle.py``) builds from samples of
reference-interpreter traces: same keys, dtypes, shapes and values, for
every engine shape and every padding mode.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import encoder_oracle
from repro.dsl import Interpreter, Program
from repro.dsl.equivalence import IOExample
from repro.execution import BatchExecutionEngine, ExecutionEngine, TraceColumns
from repro.execution import vectorized
from repro.fitness import FeatureEncoder, LearnedTraceFitness
from repro.fitness import functions as fitness_functions
from repro.fitness.features import sample_from_execution

#: engine shapes ``traces_batch`` must serve identically; the batch engine
#: serves an IO set of one input signature from its trie and one of two
#: signatures on its per-program path
ENGINES = ("columnar", "reference")


def _reference_samples(programs, io_set):
    reference = Interpreter(trace=True, compiled=False)
    return [
        sample_from_execution(program, io_set, [reference.run(program, ex.inputs) for ex in io_set])
        for program in programs
    ]


def _columns(engine_kind, programs, io_set, check_first):
    engine = BatchExecutionEngine() if engine_kind == "columnar" else ExecutionEngine(compiled=False)
    if check_first:
        # the scoring order of a GA generation: solution check, then traces
        engine.satisfies_batch(programs, io_set)
    return engine.traces_batch(programs, io_set)


def _assert_same_arrays(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


# ---------------------------------------------------------------------------
# hypothesis: columns + encoder == oracle over reference-interpreter samples

_VALUE = st.integers(min_value=-600, max_value=600)
_LIST = st.lists(_VALUE, min_size=0, max_size=9)


@st.composite
def _io_sets(draw):
    """1-3 examples; with ``mixed`` the examples span two input signatures."""
    mixed = draw(st.booleans(), label="mixed")
    m = draw(st.integers(min_value=2 if mixed else 1, max_value=3), label="m")
    examples = []
    for e in range(m):
        if mixed and e % 2:
            inputs = (draw(_VALUE), draw(_LIST))
        else:
            inputs = (draw(_LIST),)
        examples.append(IOExample(inputs=inputs, output=draw(st.one_of(_VALUE, _LIST))))
    return examples


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_columns_encode_exactly_like_the_oracle(data):
    io_set = data.draw(_io_sets(), label="io_set")
    programs = [
        Program(fids)
        for fids in data.draw(
            st.lists(
                st.lists(st.integers(min_value=1, max_value=41), min_size=1, max_size=5),
                min_size=1,
                max_size=8,
            ),
            label="programs",
        )
    ]
    engine_kind = data.draw(st.sampled_from(ENGINES), label="engine")
    check_first = data.draw(st.booleans(), label="check_first")
    max_value_length = data.draw(st.integers(min_value=1, max_value=6), label="max_value_length")
    fixed = data.draw(st.booleans(), label="fixed_widths")
    encoder = FeatureEncoder(
        max_value_length=max_value_length,
        pad_value_width=max_value_length + data.draw(st.integers(0, 2)) if fixed else None,
        pad_program_length=6 + data.draw(st.integers(0, 2)) if fixed else None,
    )
    # the whole batch, a 1-gene chunk, or a doubled singleton
    index = data.draw(st.integers(min_value=0, max_value=len(programs) - 1), label="index")
    rows = data.draw(
        st.sampled_from([list(range(len(programs))), [index], [index, index]]), label="rows"
    )

    columns = _columns(engine_kind, programs, io_set, check_first)
    chunk = columns if rows == list(range(len(columns))) else columns.take(rows)
    got = encoder.encode_trace_batch(chunk, encoder.encode_io_batch([io_set]))
    samples = _reference_samples(programs, io_set)
    want = encoder_oracle.encode_trace_batch(encoder, [samples[i] for i in rows])
    _assert_same_arrays(got, want)


# ---------------------------------------------------------------------------
# fixed cases the property must also cover

_WIDE_INPUTS = [
    IOExample(inputs=([300, -400, 0, 7, 8, 9, 10, 11, 12],), output=[1]),
    IOExample(inputs=([],), output=0),
    IOExample(inputs=(-900, [5, -5, 255, 256]), output=[]),
]
#: the first two examples share one input signature, so a trie serves them
_ONE_SIGNATURE = _WIDE_INPUTS[:2]
#: lengths 1-5, int steps (COUNT, SUM) mixed with list steps, values
#: past +-255 (raw inputs, SCANL1(*) products), empty lists on example 1
_PROGRAMS = [
    Program.from_names(names)
    for names in (
        ["SORT"],
        ["FILTER(>0)", "COUNT(<0)"],
        ["MAP(*4)", "SCANL1(*)", "REVERSE"],
        ["TAKE", "MAP(*4)", "SUM", "FILTER(>0)"],
        ["SCANL1(*)", "MAP(*4)", "MAP(*4)", "REVERSE", "SORT"],
    )
]


@pytest.mark.parametrize("engine_kind", ENGINES)
@pytest.mark.parametrize("fixed", [False, True])
def test_fixed_cases_match_the_oracle(engine_kind, fixed):
    encoder = FeatureEncoder(
        max_value_length=4,
        pad_value_width=5 if fixed else None,
        pad_program_length=7 if fixed else None,
    )
    for io_set in (_WIDE_INPUTS, _ONE_SIGNATURE):
        columns = _columns(engine_kind, _PROGRAMS, io_set, check_first=True)
        samples = _reference_samples(_PROGRAMS, io_set)
        io = encoder.encode_io_batch([io_set])
        for rows in (list(range(len(_PROGRAMS))), [2], [4, 4], [0, 3]):
            got = encoder.encode_trace_batch(columns.take(rows), io)
            want = encoder_oracle.encode_trace_batch(encoder, [samples[i] for i in rows])
            _assert_same_arrays(got, want)


def test_sample_batches_match_the_oracle(tiny_trace_samples):
    # the training path: samples with their own IO and labels
    for encoder in (FeatureEncoder(), FeatureEncoder(pad_value_width=20, pad_program_length=5)):
        samples = tiny_trace_samples[:16]
        _assert_same_arrays(
            encoder.encode_trace_batch(samples), encoder_oracle.encode_trace_batch(encoder, samples)
        )


# ---------------------------------------------------------------------------
# TraceColumns itself


def test_take_selects_and_repeats_rows():
    columns = TraceColumns.from_traces(
        _PROGRAMS, [ExecutionEngine().traces(p, _WIDE_INPUTS) for p in _PROGRAMS]
    )
    assert len(columns) == len(_PROGRAMS)
    picked = columns.take([3, 1, 1])
    assert len(picked) == 3
    np.testing.assert_array_equal(picked.lengths, [4, 2, 2])
    np.testing.assert_array_equal(picked.values[1], columns.values[1])
    np.testing.assert_array_equal(picked.sizes[2], columns.sizes[1])


def test_from_steps_layout_and_saturation():
    columns = TraceColumns.from_steps([(5, 7), (9,)], [[[[1, 2, 3], 10**30]], [[[]]]])
    np.testing.assert_array_equal(columns.fids, [[5, 7], [9, 0]])
    np.testing.assert_array_equal(columns.lengths, [2, 1])
    assert columns.values.shape == (2, 1, 2, 3)
    np.testing.assert_array_equal(columns.sizes, [[[3, 1]], [[0, 0]]])
    assert columns.values[0, 0, 0].tolist() == [1, 2, 3]
    # an int step is a one-cell row; ints past the int64-safe range saturate
    assert columns.values[0, 0, 1].tolist() == [vectorized.SAFE_INT_BOUND, 0, 0]
    assert not columns.values[1].any()


def test_encoding_columns_requires_matching_io_rows():
    encoder = FeatureEncoder()
    columns = _columns("columnar", _PROGRAMS, _WIDE_INPUTS, check_first=False)
    with pytest.raises(ValueError):
        encoder.encode_trace_batch(columns)
    with pytest.raises(ValueError):
        encoder.encode_trace_batch(columns, encoder.encode_io_batch([_WIDE_INPUTS[:2]]))


# ---------------------------------------------------------------------------
# the scorer


@pytest.mark.parametrize("memoize", [True, False])
def test_scoring_builds_no_samples_and_matches_the_serial_engine(tiny_trace_artifacts, tiny_task, memoize):
    rng = np.random.default_rng(3)
    programs = [Program([int(f) for f in rng.integers(1, 42, size=3)]) for _ in range(40)]
    programs += programs[:5]  # duplicates inside one scoring batch
    scores = {}
    for name, engine in (("batch", BatchExecutionEngine()), ("serial", ExecutionEngine())):
        fitness = LearnedTraceFitness(
            tiny_trace_artifacts.model,
            kind="cf",
            encoder=tiny_trace_artifacts.encoder,
            executor=engine,
            memoize=memoize,
            program_length=3,
            batch_size=16,
        )
        with mock.patch.object(fitness_functions, "sample_from_execution", side_effect=AssertionError):
            scores[name] = fitness.score(programs, tiny_task.io_set)
    np.testing.assert_array_equal(scores["batch"], scores["serial"])


def test_io_rows_are_encoded_once_per_specification(tiny_trace_artifacts, tiny_task):
    fitness = LearnedTraceFitness(
        tiny_trace_artifacts.model,
        kind="cf",
        encoder=tiny_trace_artifacts.encoder,
        executor=BatchExecutionEngine(),
        memoize=False,
    )
    encoder = fitness.encoder
    programs = [Program([1, 2, 3]), Program([4, 5, 6])]
    with mock.patch.object(
        type(encoder), "encode_io_batch", autospec=True, side_effect=FeatureEncoder.encode_io_batch
    ) as spy:
        for _ in range(3):
            fitness.score(programs, tiny_task.io_set)
    assert spy.call_count == 1

