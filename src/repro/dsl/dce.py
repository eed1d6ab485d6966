"""Dead code elimination (DCE) for DSL programs.

A statement is *dead* when its output is never consumed — neither by a
later statement's argument binding nor as the final program output.
Because argument resolution in the DSL depends only on the *types* of
previously produced values (and every function's return type is static),
liveness can be computed purely statically, without executing the program.

The genetic algorithm uses :func:`has_dead_code` to reject candidate genes
whose effective length would be shorter than the target program length
(Section 4.2 of the paper), and :func:`eliminate_dead_code` when a cleaned
program is needed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.program import Program
from repro.dsl.types import DSLType


def _binding_graph(
    program: Program, input_types: Sequence[DSLType]
) -> List[Tuple[Optional[int], ...]]:
    """For each statement, the history positions its arguments bind to.

    History positions ``0 .. len(input_types)-1`` are the program inputs;
    position ``len(input_types) + k`` is the output of statement ``k``.
    ``None`` means the argument fell back to a default value.

    The reference walk: :func:`_live_flags` runs it once per signature
    sequence and answers every later program with that sequence from
    its memo.
    """
    registry: FunctionRegistry = program.registry
    history_types: List[DSLType] = list(input_types)
    bindings: List[Tuple[Optional[int], ...]] = []
    for fid in program.function_ids:
        fn = registry.by_id(fid)
        used: Set[int] = set()
        stmt_bindings: List[Optional[int]] = []
        for arg_type in fn.arg_types:
            found: Optional[int] = None
            for position in range(len(history_types) - 1, -1, -1):
                if position in used:
                    continue
                if history_types[position] is arg_type:
                    found = position
                    break
            if found is not None:
                used.add(found)
            stmt_bindings.append(found)
        bindings.append(tuple(stmt_bindings))
        history_types.append(fn.return_type)
    return bindings


#: bound of a registry's liveness memo; GA traffic stays far below it
#: (the DSL has five signatures, so length-5 programs have 3,125 sequences)
_LIVENESS_MEMO_BOUND = 1 << 16


def _live_flags(program: Program, input_types: Sequence[DSLType]) -> Tuple[bool, ...]:
    """Liveness of every statement, memoized per signature sequence.

    Argument binding depends only on each function's ``(arg_types,
    return_type)``, so every program with the same signature sequence
    and input types shares one verdict.  The memo lives on the program's
    registry (``FunctionRegistry.liveness_memo``); a miss computes the
    verdict with the reference :func:`_binding_graph`.
    """
    if not program.function_ids:
        return ()
    registry = program.registry
    input_types = tuple(input_types)
    key = (registry.signature_ids(program.function_ids), input_types)
    memo = registry.liveness_memo
    flags = memo.get(key)
    if flags is None:
        if len(memo) >= _LIVENESS_MEMO_BOUND:
            memo.clear()
        flags = _liveness(_binding_graph(program, input_types), len(input_types))
        memo[key] = flags
    return flags


def _liveness(
    bindings: Sequence[Tuple[Optional[int], ...]], n_inputs: int
) -> Tuple[bool, ...]:
    """Propagate liveness backwards from the last statement's output."""
    n = len(bindings)
    live = [False] * n
    live[n - 1] = True
    # statements are in topological order, so one backwards sweep suffices
    for index in range(n - 1, -1, -1):
        if not live[index]:
            continue
        for position in bindings[index]:
            if position is not None and position >= n_inputs:
                live[position - n_inputs] = True
    return tuple(live)


def live_statements(
    program: Program, input_types: Sequence[DSLType] = (DSLType.LIST,)
) -> List[bool]:
    """Liveness flag for every statement of ``program``.

    The last statement is always live (it produces the program output);
    liveness propagates backwards through argument bindings.
    """
    return list(_live_flags(program, input_types))


def has_dead_code(
    program: Program, input_types: Sequence[DSLType] = (DSLType.LIST,)
) -> bool:
    """True when at least one statement's output is never used."""
    return False in _live_flags(program, input_types)


def effective_length(
    program: Program, input_types: Sequence[DSLType] = (DSLType.LIST,)
) -> int:
    """Number of live statements in ``program``."""
    return sum(live_statements(program, input_types))


def eliminate_dead_code(
    program: Program, input_types: Sequence[DSLType] = (DSLType.LIST,)
) -> Program:
    """Return ``program`` with all dead statements removed.

    Removal is iterated to a fixpoint: deleting a dead statement can only
    expose further statements that were kept alive solely by dead code.
    """
    current = program
    while True:
        flags = live_statements(current, input_types)
        if all(flags):
            return current
        kept = [fid for fid, alive in zip(current.function_ids, flags) if alive]
        current = Program(kept, current.registry)
        if len(current) == 0:
            return current
