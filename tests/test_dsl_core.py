"""Types, Program representation, interpreter, DCE, generators, equivalence."""

import numpy as np
import pytest

from repro.dsl import (
    FunctionRegistry,
    INT,
    LIST,
    INT_MAX,
    INT_MIN,
    Interpreter,
    Program,
    REGISTRY,
    InputGenerator,
    ProgramGenerator,
    clamp_int,
    default_for,
    eliminate_dead_code,
    effective_length,
    has_dead_code,
    make_io_set,
    outputs_match,
    programs_equivalent,
    satisfies_io_set,
    type_of,
    values_equal,
)
from repro.dsl.equivalence import IOExample
from repro.dsl.dce import live_statements


class TestTypes:
    def test_clamp_int(self):
        assert clamp_int(1000) == INT_MAX
        assert clamp_int(-1000) == INT_MIN
        assert clamp_int(5) == 5

    def test_type_of(self):
        assert type_of(3) is INT
        assert type_of([1, 2]) is LIST
        assert type_of(()) is LIST

    def test_type_of_rejects_bools_and_others(self):
        with pytest.raises(TypeError):
            type_of(True)
        with pytest.raises(TypeError):
            type_of("x")

    def test_default_for(self):
        assert default_for(INT) == 0
        assert default_for(LIST) == []

    def test_values_equal(self):
        assert values_equal([1, 2], (1, 2))
        assert values_equal(3, 3)
        assert not values_equal(3, [3])
        assert not values_equal([1], [1, 2])


class TestProgram:
    def test_from_names_round_trip(self, example_program):
        assert example_program.names == ["FILTER(>0)", "MAP(*2)", "SORT", "REVERSE"]
        assert Program.from_dict(example_program.to_dict()) == example_program

    def test_invalid_id_rejected(self):
        with pytest.raises(ValueError):
            Program([0])
        with pytest.raises(ValueError):
            Program([42])

    def test_container_protocol(self, example_program):
        assert len(example_program) == 4
        assert list(example_program) == list(example_program.function_ids)
        assert isinstance(example_program[1:3], Program)
        assert example_program[0] == example_program.function_ids[0]

    def test_with_replacement(self, example_program):
        modified = example_program.with_replacement(0, REGISTRY.by_name("SORT").fid)
        assert modified.names[0] == "SORT"
        assert example_program.names[0] == "FILTER(>0)"  # original untouched
        with pytest.raises(IndexError):
            example_program.with_replacement(10, 1)

    def test_output_type_and_singleton(self, example_program):
        assert example_program.output_type() is LIST
        assert not example_program.produces_singleton()
        assert Program.from_names(["SUM"]).produces_singleton()
        with pytest.raises(ValueError):
            Program([]).output_type()

    def test_hash_and_equality(self, example_program):
        assert example_program == Program(example_program.function_ids)
        assert hash(example_program) == hash(Program(example_program.function_ids))
        assert example_program != Program.from_names(["SORT"])

    def test_concatenated(self):
        a = Program.from_names(["SORT"])
        b = Program.from_names(["REVERSE"])
        assert a.concatenated(b).names == ["SORT", "REVERSE"]

    def test_pretty_and_str(self, example_program):
        assert "FILTER(>0)" in str(example_program)
        assert example_program.pretty().count("\n") == 3


class TestInterpreter:
    def test_paper_worked_example(self, example_program, example_input, interpreter):
        trace = interpreter.run(example_program, example_input)
        assert trace.output == [20, 10, 6, 4]

    def test_paper_trace_example(self, interpreter, example_input):
        program = Program.from_names(["FILTER(>0)", "MAP(*2)", "REVERSE"])
        trace = interpreter.run(program, example_input)
        assert trace.intermediate_outputs == [[10, 3, 5, 2], [20, 6, 10, 4], [4, 10, 6, 20]]
        assert trace.function_ids == list(program.function_ids)

    def test_empty_program_returns_default(self, interpreter):
        trace = interpreter.run(Program([]), [[1, 2]])
        assert trace.output == 0
        assert len(trace) == 0

    def test_missing_int_argument_uses_default(self, interpreter):
        # DROP needs an int; no int is available so 0 is used -> unchanged list
        program = Program.from_names(["DROP"])
        assert interpreter.output_of(program, [[4, 5, 6]]) == [4, 5, 6]

    def test_missing_list_argument_uses_default(self, interpreter):
        program = Program.from_names(["SUM"])
        assert interpreter.output_of(program, [7]) == 0  # only an int input available

    def test_int_argument_resolved_from_prior_step(self, interpreter):
        # HEAD produces an int which TAKE then consumes
        program = Program.from_names(["HEAD", "TAKE"])
        assert interpreter.output_of(program, [[2, 9, 8, 7]]) == [2, 9]

    def test_zipwith_uses_two_most_recent_lists(self, interpreter):
        program = Program.from_names(["MAP(*2)", "ZIPWITH(+)"])
        # history: input [1,2,3], then [2,4,6]; ZIPWITH(+) -> [3,6,9]
        assert interpreter.output_of(program, [[1, 2, 3]]) == [3, 6, 9]

    def test_zipwith_with_single_list_falls_back_to_default(self, interpreter):
        program = Program.from_names(["ZIPWITH(+)"])
        # only one list exists; the second argument defaults to [] -> output []
        assert interpreter.output_of(program, [[1, 2, 3]]) == []

    def test_inputs_are_not_mutated(self, interpreter):
        data = [[3, 1, 2]]
        interpreter.run(Program.from_names(["SORT"]), data)
        assert data == [[3, 1, 2]]

    def test_tuple_inputs_accepted(self, interpreter):
        assert interpreter.output_of(Program.from_names(["SORT"]), [(3, 1, 2)]) == [1, 2, 3]

    def test_trace_records_have_metadata(self, interpreter, example_program, example_input):
        trace = interpreter.run(example_program, example_input)
        assert [s.name for s in trace.steps] == example_program.names
        assert [s.index for s in trace.steps] == [0, 1, 2, 3]

    def test_no_trace_mode_still_reports_output(self, example_program, example_input):
        quick = Interpreter(trace=False)
        assert quick.output_of(example_program, example_input) == [20, 10, 6, 4]


class TestDeadCodeElimination:
    def test_no_dead_code_in_chain(self):
        program = Program.from_names(["FILTER(>0)", "SORT", "REVERSE"])
        assert not has_dead_code(program)
        assert effective_length(program) == 3

    def test_shadowed_list_is_dead(self):
        # SORT's output is immediately recomputed from... REVERSE consumes SORT,
        # so make dead code explicit: two singleton producers, only last used.
        program = Program.from_names(["SUM", "MAXIMUM", "TAKE"])
        # SUM's int output is shadowed by MAXIMUM before TAKE consumes an int
        assert has_dead_code(program)
        cleaned = eliminate_dead_code(program)
        assert cleaned.names == ["MAXIMUM", "TAKE"]

    def test_eliminate_preserves_semantics(self, interpreter):
        program = Program.from_names(["SUM", "MAXIMUM", "TAKE"])
        cleaned = eliminate_dead_code(program)
        for data in ([[5, 2, 9]], [[1]], [[]]):
            assert values_equal(
                interpreter.output_of(program, data), interpreter.output_of(cleaned, data)
            )

    def test_last_statement_is_always_live(self):
        program = Program.from_names(["SORT"])
        assert live_statements(program) == [True]

    def test_empty_program(self):
        assert not has_dead_code(Program([]))
        assert effective_length(Program([])) == 0
        assert len(eliminate_dead_code(Program([]))) == 0

    def test_zipwith_keeps_two_producers_live(self):
        program = Program.from_names(["MAP(*2)", "MAP(+1)", "ZIPWITH(+)"])
        assert not has_dead_code(program)

    def test_memoized_liveness_matches_the_binding_graph(self):
        """The per-signature memo agrees with the reference binding walk."""
        from repro.dsl import dce

        def reference(program, input_types):
            bindings = dce._binding_graph(program, input_types)
            live = [False] * len(program)
            live[-1] = True
            for index in range(len(program) - 1, -1, -1):
                if live[index]:
                    for position in bindings[index]:
                        if position is not None and position >= len(input_types):
                            live[position - len(input_types)] = True
            return live

        rng = np.random.default_rng(5)
        ids = np.array(REGISTRY.ids)
        input_tuples = [(LIST,), (INT, LIST), (LIST, LIST), (INT,)]
        for _ in range(4000):
            program = Program(rng.choice(ids, size=int(rng.integers(1, 8))).tolist())
            input_types = input_tuples[int(rng.integers(len(input_tuples)))]
            expected = reference(program, input_types)
            assert live_statements(program, input_types) == expected
            assert has_dead_code(program, input_types) == (not all(expected))

    def test_liveness_memo_keys_on_signatures_not_function_ids(self):
        import dataclasses

        names = ("SUM", "MAXIMUM", "TAKE")
        program = Program.from_names(list(names))
        assert live_statements(program) == [False, True, True]  # memoized
        # the same function ids in a registry where SUM's id returns a list
        sort = REGISTRY.by_name("SORT")
        fake = dataclasses.replace(sort, fid=REGISTRY.by_name("SUM").fid, name="FAKE")
        other = FunctionRegistry([fake] + [REGISTRY.by_name(name) for name in names[1:]])
        relabelled = Program(program.function_ids, other)
        assert live_statements(relabelled) == [True, True, True]

    def test_programs_with_equal_signatures_share_a_memo_entry(self):
        registry = FunctionRegistry()
        first = Program([registry.by_name(n).fid for n in ("SUM", "MAXIMUM", "TAKE")], registry)
        second = Program([registry.by_name(n).fid for n in ("MINIMUM", "SUM", "DROP")], registry)
        assert has_dead_code(first) and has_dead_code(second)
        assert len(registry.liveness_memo) == 1


class TestGenerators:
    def test_random_program_has_no_dead_code(self, rng):
        generator = ProgramGenerator(rng=rng)
        for _ in range(20):
            program = generator.random_program(4)
            assert len(program) == 4
            assert not has_dead_code(program)

    def test_output_type_constraint(self, rng):
        generator = ProgramGenerator(rng=rng)
        assert generator.random_program(3, output_type=INT).produces_singleton()
        assert not generator.random_program(3, output_type=LIST).produces_singleton()

    def test_random_programs_unique(self, rng):
        generator = ProgramGenerator(rng=rng)
        programs = generator.random_programs(10, 4, unique=True)
        assert len({p.function_ids for p in programs}) == 10

    def test_invalid_length_rejected(self, rng):
        with pytest.raises(ValueError):
            ProgramGenerator(rng=rng).random_program(0)

    def test_input_generator_respects_bounds(self, rng):
        generator = InputGenerator(min_length=2, max_length=4, min_value=-5, max_value=5, rng=rng)
        for _ in range(20):
            values = generator.generate_list()
            assert 2 <= len(values) <= 4
            assert all(-5 <= v <= 5 for v in values)

    def test_input_generator_validates_bounds(self):
        with pytest.raises(ValueError):
            InputGenerator(min_length=5, max_length=2)
        with pytest.raises(ValueError):
            InputGenerator(min_value=5, max_value=2)
        with pytest.raises(ValueError):
            InputGenerator(min_value=-10_000, max_value=0)

    def test_interesting_program_outputs_vary(self, rng):
        program_generator = ProgramGenerator(rng=rng)
        input_generator = InputGenerator(rng=rng)
        _, _, outputs = program_generator.interesting_program(4, input_generator, n_probe_inputs=4)
        assert any(not values_equal(outputs[0], o) for o in outputs[1:])


class TestEquivalence:
    def test_make_io_set_and_satisfaction(self, example_program, interpreter):
        inputs = [[[1, -2, 3]], [[4, 5, -6]]]
        io_set = make_io_set(example_program, inputs, interpreter)
        assert len(io_set) == 2
        assert satisfies_io_set(example_program, io_set, interpreter)

    def test_different_program_fails_spec(self, example_program, interpreter):
        inputs = [[[1, -2, 3]], [[4, 5, -6]]]
        io_set = make_io_set(example_program, inputs, interpreter)
        other = Program.from_names(["SORT"])
        assert not satisfies_io_set(other, io_set, interpreter)

    def test_outputs_match_single_example(self, interpreter):
        example = IOExample(inputs=([3, 1, 2],), output=[1, 2, 3])
        assert outputs_match(Program.from_names(["SORT"]), example, interpreter)
        assert not outputs_match(Program.from_names(["REVERSE"]), example, interpreter)

    def test_programs_equivalent_definition(self, interpreter):
        a = Program.from_names(["SORT", "REVERSE"])
        b = Program.from_names(["REVERSE", "SORT", "REVERSE"])
        inputs = [[[3, 1, 2]], [[5, 4]], [[0]]]
        assert programs_equivalent(a, b, inputs, interpreter)
        assert not programs_equivalent(a, Program.from_names(["SORT"]), inputs, interpreter)

    def test_ioexample_is_hashable_and_normalized(self):
        first = IOExample(inputs=((1, 2),), output=(3,))
        second = IOExample(inputs=([1, 2],), output=[3])
        assert hash(first) == hash(second)
        assert first.inputs == ([1, 2],)
