"""Property-based tests (hypothesis) for the DSL substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dsl import (
    INT_MAX,
    INT_MIN,
    Interpreter,
    Program,
    REGISTRY,
    clamp_int,
    eliminate_dead_code,
    has_dead_code,
    type_of,
    values_equal,
)
from repro.dsl.compiler import compile_program, input_signature
from repro.dsl.types import DSLType
from repro.fitness.ideal import common_functions, lcs_length, levenshtein

function_ids = st.integers(min_value=1, max_value=41)
programs = st.lists(function_ids, min_size=1, max_size=6).map(Program)
input_lists = st.lists(st.integers(min_value=-64, max_value=64), min_size=0, max_size=8)
#: one to three program inputs, each an int or a list
program_inputs = st.lists(
    st.one_of(st.integers(min_value=-64, max_value=64), input_lists), min_size=1, max_size=3
)

_interpreter = Interpreter()


@settings(max_examples=60, deadline=None)
@given(programs, input_lists)
def test_interpreter_is_total_and_values_stay_in_domain(program, values):
    """Any function sequence executes, and every produced value is saturated."""
    trace = _interpreter.run(program, [values])
    for step in trace.steps:
        output = step.output
        flat = [output] if type_of(output) is DSLType.INT else list(output)
        assert all(INT_MIN <= v <= INT_MAX for v in flat)


@settings(max_examples=60, deadline=None)
@given(programs, input_lists)
def test_interpreter_is_deterministic(program, values):
    first = _interpreter.run(program, [values]).output
    second = _interpreter.run(program, [values]).output
    assert values_equal(first, second)


@settings(max_examples=100, deadline=None)
@given(programs, program_inputs)
def test_outputs_have_the_declared_return_type(program, inputs):
    """Every DSL function returns its declared type, on the reference
    interpreter and on the compiled path: the solution check's static
    verdict rejects a program by its last function's ``return_type``."""
    declared = program.output_type()
    trace = Interpreter(trace=True, compiled=False).run(program, inputs)
    for step in trace.steps:
        assert type_of(step.output) is REGISTRY.by_id(step.fid).return_type
    assert type_of(trace.output) is declared
    compiled = compile_program(program, input_signature(inputs))
    assert type_of(compiled.output(inputs)) is declared
    assert type_of(compiled.run(inputs, trace=False).output) is declared


@settings(max_examples=60, deadline=None)
@given(programs, input_lists)
def test_dce_preserves_semantics(program, values):
    cleaned = eliminate_dead_code(program)
    assert not has_dead_code(cleaned) or len(cleaned) == 0
    if len(cleaned):
        assert values_equal(
            _interpreter.output_of(program, [values]), _interpreter.output_of(cleaned, [values])
        )


@settings(max_examples=60, deadline=None)
@given(programs)
def test_dce_never_lengthens_a_program(program):
    assert len(eliminate_dead_code(program)) <= len(program)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-10**9, max_value=10**9))
def test_clamp_int_is_idempotent_and_bounded(value):
    clamped = clamp_int(value)
    assert INT_MIN <= clamped <= INT_MAX
    assert clamp_int(clamped) == clamped


@settings(max_examples=60, deadline=None)
@given(programs, programs)
def test_cf_and_lcs_are_symmetric_bounded_metrics(a, b):
    cf = common_functions(a, b)
    lcs = lcs_length(a, b)
    assert cf == common_functions(b, a)
    assert lcs == lcs_length(b, a)
    assert 0 <= lcs <= cf <= min(len(a), len(b))


@settings(max_examples=40, deadline=None)
@given(programs)
def test_cf_and_lcs_of_program_with_itself_is_its_length(program):
    assert common_functions(program, program) == len(program)
    assert lcs_length(program, program) == len(program)


@settings(max_examples=60, deadline=None)
@given(input_lists, input_lists)
def test_levenshtein_is_a_metric(a, b):
    distance = levenshtein(a, b)
    assert distance == levenshtein(b, a)
    assert (distance == 0) == (a == b)
    assert distance <= max(len(a), len(b))


@settings(max_examples=40, deadline=None)
@given(input_lists, input_lists, input_lists)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
