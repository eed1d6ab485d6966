"""Program representation: a flat sequence of DSL function identifiers.

A program *is* a gene in the genetic algorithm: a tuple of function ids
from ``ΣDSL``.  The :class:`Program` class stores the ids and provides
lookup, serialization and pretty printing.  Execution lives in
:mod:`repro.dsl.interpreter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.dsl.functions import DSLFunction, FunctionRegistry, REGISTRY


@dataclass(frozen=True)
class Program:
    """An immutable DSL program.

    Parameters
    ----------
    function_ids:
        Sequence of 1-based DSL function ids, executed in order; each is
        coerced with ``int()``.
    registry:
        Function registry to resolve ids against (defaults to the paper's
        41-function registry).

    Raises
    ------
    ValueError
        If an id is not in ``registry``: every ``Program``, the GA's
        children included, holds only ids of its registry.
    """

    function_ids: Tuple[int, ...]
    registry: FunctionRegistry = REGISTRY

    def __init__(self, function_ids: Iterable[int], registry: FunctionRegistry = REGISTRY) -> None:
        ids = tuple(map(int, function_ids))
        if not registry.fid_set.issuperset(ids):
            unknown = next(fid for fid in ids if fid not in registry.fid_set)
            raise ValueError(f"unknown DSL function id {unknown}")
        object.__setattr__(self, "function_ids", ids)
        object.__setattr__(self, "registry", registry)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.function_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.function_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Program(self.function_ids[index], self.registry)
        return self.function_ids[index]

    def __hash__(self) -> int:
        return hash(self.function_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.function_ids == other.function_ids

    # -- views --------------------------------------------------------------
    @property
    def functions(self) -> List[DSLFunction]:
        """The resolved :class:`DSLFunction` objects, in execution order."""
        return [self.registry.by_id(fid) for fid in self.function_ids]

    @property
    def names(self) -> List[str]:
        """Display names of the functions, in execution order."""
        return [f.name for f in self.functions]

    def function_at(self, index: int) -> DSLFunction:
        """The resolved function at position ``index``."""
        return self.registry.by_id(self.function_ids[index])

    def output_type(self):
        """Type of the program's final output (type of its last function).

        Every DSL function's implementation returns its declared
        ``return_type``, so this is the type of every value the program
        outputs; the solution check relies on it to reject a program
        without running it.

        Raises
        ------
        ValueError
            If the program is empty.
        """
        if not self.function_ids:
            raise ValueError("empty program has no output type")
        return self.function_at(len(self) - 1).return_type

    def produces_singleton(self) -> bool:
        """True when the program's final output is a single integer."""
        from repro.dsl.types import INT

        return self.output_type() is INT

    # -- edits (return new programs) -----------------------------------------
    def with_replacement(self, index: int, fid: int) -> "Program":
        """Return a copy with the function at ``index`` replaced by ``fid``.

        Raises ``ValueError`` if ``fid`` is not in the registry.
        """
        if not 0 <= index < len(self):
            raise IndexError(index)
        ids = self.function_ids
        return Program(ids[:index] + (fid,) + ids[index + 1 :], self.registry)

    def concatenated(self, other: "Program") -> "Program":
        """Return the concatenation ``self ++ other``."""
        return Program(self.function_ids + tuple(other.function_ids), self.registry)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {"function_ids": list(self.function_ids)}

    @classmethod
    def from_dict(cls, data: dict, registry: FunctionRegistry = REGISTRY) -> "Program":
        """Inverse of :meth:`to_dict`."""
        return cls(data["function_ids"], registry)

    @classmethod
    def from_names(cls, names: Sequence[str], registry: FunctionRegistry = REGISTRY) -> "Program":
        """Build a program from display names, e.g. ``["SORT", "REVERSE"]``."""
        return cls([registry.by_name(n).fid for n in names], registry)

    def pretty(self) -> str:
        """Multi-line, human readable source listing."""
        return "\n".join(self.names)

    def __str__(self) -> str:
        return " ; ".join(self.names)

    def __repr__(self) -> str:
        return f"Program({list(self.function_ids)!r})"
