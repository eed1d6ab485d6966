"""The 41 DSL functions (Appendix A of the paper) and their registry.

Function identifiers follow the numbering given in the appendix:

====== ==================== =============================
ids    function             signature
====== ==================== =============================
1      ACCESS               ``int, [] -> int``
2-5    COUNT   (>0,<0,odd,even)  ``[] -> int``
6      HEAD                 ``[] -> int``
7      LAST                 ``[] -> int``
8      MINIMUM              ``[] -> int``
9      MAXIMUM              ``[] -> int``
10     SEARCH               ``int, [] -> int``
11     SUM                  ``[] -> int``
12     DELETE               ``int, [] -> []``
13     DROP                 ``int, [] -> []``
14-17  FILTER  (>0,<0,odd,even)  ``[] -> []``
18     INSERT               ``int, [] -> []``
19-28  MAP     (+1,-1,*2,*3,*4,/2,/3,/4,*(-1),^2)  ``[] -> []``
29     REVERSE              ``[] -> []``
30-34  SCANL1  (+,-,*,min,max)   ``[] -> []``
35     SORT                 ``[] -> []``
36     TAKE                 ``int, [] -> []``
37-41  ZIPWITH (+,-,*,min,max)   ``[], [] -> []``
====== ==================== =============================

All implementations saturate integer results into the DSL integer domain
(:data:`repro.dsl.types.INT_MIN` .. :data:`repro.dsl.types.INT_MAX`) and are
total: they never raise on any well-typed input, which is what makes every
program in the DSL valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from repro.dsl.types import DSLType, INT, LIST, Value, clamp_int, clamp_list


Signature = Tuple[Tuple[DSLType, ...], DSLType]

#: The five signatures that occur among the 41 DSL functions.
SIGNATURES: Tuple[Signature, ...] = (
    ((LIST,), INT),
    ((LIST,), LIST),
    ((INT, LIST), LIST),
    ((LIST, LIST), LIST),
    ((INT, LIST), INT),
)


@dataclass(frozen=True)
class DSLFunction:
    """A single DSL function.

    Attributes
    ----------
    fid:
        The 1-based function identifier used throughout the paper's
        appendix (1..41).
    name:
        Human readable name, e.g. ``"MAP(*2)"``.
    arg_types:
        Tuple of argument types, in argument order.
    return_type:
        The produced type.
    impl:
        The total Python implementation.  Receives the arguments in the
        same order as ``arg_types`` and returns a saturated value.
    base:
        The family name without the lambda, e.g. ``"MAP"``.
    lam:
        The lambda label (e.g. ``"*2"``) or ``""`` when the function takes
        no lambda.
    """

    fid: int
    name: str
    arg_types: Tuple[DSLType, ...]
    return_type: DSLType
    impl: Callable[..., Value] = field(repr=False, compare=False)
    base: str = ""
    lam: str = ""

    @property
    def arity(self) -> int:
        """Number of arguments the function consumes."""
        return len(self.arg_types)

    @property
    def signature(self) -> Signature:
        """The (argument types, return type) pair."""
        return (self.arg_types, self.return_type)

    def __call__(self, *args: Value) -> Value:
        return self.impl(*args)

    def __reduce__(self):
        """Pickle as a reference into the default registry.

        The implementations are closures over lambdas and cannot be
        pickled directly; since every function instance originates from
        the master catalog, serializing the ``fid`` is lossless.  This is
        what lets programs, tasks and trained synthesizers cross process
        boundaries in the parallel evaluation runner.
        """
        return (_function_from_default_registry, (self.fid,))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# ---------------------------------------------------------------------------
# Lambda helpers
# ---------------------------------------------------------------------------

_PREDICATES: Dict[str, Callable[[int], bool]] = {
    ">0": lambda x: x > 0,
    "<0": lambda x: x < 0,
    "odd": lambda x: x % 2 != 0,
    "even": lambda x: x % 2 == 0,
}

_UNARY: Dict[str, Callable[[int], int]] = {
    "+1": lambda x: x + 1,
    "-1": lambda x: x - 1,
    "*2": lambda x: x * 2,
    "*3": lambda x: x * 3,
    "*4": lambda x: x * 4,
    "/2": lambda x: int(x / 2),
    "/3": lambda x: int(x / 3),
    "/4": lambda x: int(x / 4),
    "*(-1)": lambda x: -x,
    "^2": lambda x: x * x,
}

_BINARY: Dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}


# ---------------------------------------------------------------------------
# Implementations of the function families
# ---------------------------------------------------------------------------

def _head(xs: Sequence[int]) -> int:
    return clamp_int(xs[0]) if xs else 0


def _last(xs: Sequence[int]) -> int:
    return clamp_int(xs[-1]) if xs else 0


def _minimum(xs: Sequence[int]) -> int:
    return clamp_int(min(xs)) if xs else 0


def _maximum(xs: Sequence[int]) -> int:
    return clamp_int(max(xs)) if xs else 0


def _sum(xs: Sequence[int]) -> int:
    return clamp_int(sum(xs)) if xs else 0


def _count(pred: Callable[[int], bool]) -> Callable[[Sequence[int]], int]:
    def impl(xs: Sequence[int]) -> int:
        return clamp_int(sum(1 for x in xs if pred(x)))

    return impl


def _reverse(xs: Sequence[int]) -> List[int]:
    return list(reversed(xs))


def _sort(xs: Sequence[int]) -> List[int]:
    return sorted(xs)


def _map(fn: Callable[[int], int]) -> Callable[[Sequence[int]], List[int]]:
    def impl(xs: Sequence[int]) -> List[int]:
        return clamp_list(fn(x) for x in xs)

    return impl


def _filter(pred: Callable[[int], bool]) -> Callable[[Sequence[int]], List[int]]:
    def impl(xs: Sequence[int]) -> List[int]:
        return [x for x in xs if pred(x)]

    return impl


def _scanl1(fn: Callable[[int, int], int]) -> Callable[[Sequence[int]], List[int]]:
    def impl(xs: Sequence[int]) -> List[int]:
        out: List[int] = []
        for i, x in enumerate(xs):
            if i == 0:
                out.append(clamp_int(x))
            else:
                out.append(clamp_int(fn(x, out[-1])))
        return out

    return impl


def _take(n: int, xs: Sequence[int]) -> List[int]:
    if n <= 0:
        return []
    return list(xs[: min(n, len(xs))])


def _drop(n: int, xs: Sequence[int]) -> List[int]:
    if n <= 0:
        return list(xs)
    return list(xs[n:])


def _delete(x: int, xs: Sequence[int]) -> List[int]:
    return [v for v in xs if v != x]


def _insert(x: int, xs: Sequence[int]) -> List[int]:
    return list(xs) + [clamp_int(x)]


def _zipwith(fn: Callable[[int, int], int]) -> Callable[[Sequence[int], Sequence[int]], List[int]]:
    def impl(xs: Sequence[int], ys: Sequence[int]) -> List[int]:
        return clamp_list(fn(a, b) for a, b in zip(xs, ys))

    return impl


def _access(n: int, xs: Sequence[int]) -> int:
    if n < 0 or n >= len(xs):
        return 0
    return clamp_int(xs[n])


def _search(x: int, xs: Sequence[int]) -> int:
    for i, v in enumerate(xs):
        if v == x:
            return clamp_int(i)
    return -1


# ---------------------------------------------------------------------------
# Registry construction
# ---------------------------------------------------------------------------


def _build_functions() -> Tuple[DSLFunction, ...]:
    funcs: List[DSLFunction] = []

    def add(fid, name, args, ret, impl, base, lam=""):
        funcs.append(
            DSLFunction(
                fid=fid,
                name=name,
                arg_types=tuple(args),
                return_type=ret,
                impl=impl,
                base=base,
                lam=lam,
            )
        )

    add(1, "ACCESS", (INT, LIST), INT, _access, "ACCESS")
    for i, lam in enumerate((">0", "<0", "odd", "even")):
        add(2 + i, f"COUNT({lam})", (LIST,), INT, _count(_PREDICATES[lam]), "COUNT", lam)
    add(6, "HEAD", (LIST,), INT, _head, "HEAD")
    add(7, "LAST", (LIST,), INT, _last, "LAST")
    add(8, "MINIMUM", (LIST,), INT, _minimum, "MINIMUM")
    add(9, "MAXIMUM", (LIST,), INT, _maximum, "MAXIMUM")
    add(10, "SEARCH", (INT, LIST), INT, _search, "SEARCH")
    add(11, "SUM", (LIST,), INT, _sum, "SUM")
    add(12, "DELETE", (INT, LIST), LIST, _delete, "DELETE")
    add(13, "DROP", (INT, LIST), LIST, _drop, "DROP")
    for i, lam in enumerate((">0", "<0", "odd", "even")):
        add(14 + i, f"FILTER({lam})", (LIST,), LIST, _filter(_PREDICATES[lam]), "FILTER", lam)
    add(18, "INSERT", (INT, LIST), LIST, _insert, "INSERT")
    map_lams = ("+1", "-1", "*2", "*3", "*4", "/2", "/3", "/4", "*(-1)", "^2")
    for i, lam in enumerate(map_lams):
        add(19 + i, f"MAP({lam})", (LIST,), LIST, _map(_UNARY[lam]), "MAP", lam)
    add(29, "REVERSE", (LIST,), LIST, _reverse, "REVERSE")
    for i, lam in enumerate(("+", "-", "*", "min", "max")):
        add(30 + i, f"SCANL1({lam})", (LIST,), LIST, _scanl1(_BINARY[lam]), "SCANL1", lam)
    add(35, "SORT", (LIST,), LIST, _sort, "SORT")
    add(36, "TAKE", (INT, LIST), LIST, _take, "TAKE")
    for i, lam in enumerate(("+", "-", "*", "min", "max")):
        add(37 + i, f"ZIPWITH({lam})", (LIST, LIST), LIST, _zipwith(_BINARY[lam]), "ZIPWITH", lam)

    funcs.sort(key=lambda f: f.fid)
    return tuple(funcs)


class FunctionRegistry:
    """Indexable collection of the 41 DSL functions (``ΣDSL``)."""

    def __init__(self, functions: Sequence[DSLFunction] | None = None) -> None:
        self._functions: Tuple[DSLFunction, ...] = tuple(functions) if functions else _build_functions()
        self._by_fid: Dict[int, DSLFunction] = {f.fid: f for f in self._functions}
        #: every function id, for one C-level subset test per program
        self.fid_set: FrozenSet[int] = frozenset(self._by_fid)
        self._by_name: Dict[str, DSLFunction] = {f.name: f for f in self._functions}
        # dense per-registry signature ids: a tuple of ids is a
        # cheap-to-hash stand-in for a sequence of signatures
        signature_ids: Dict[Signature, int] = {}
        self._signature_id_by_fid: Dict[int, int] = {
            f.fid: signature_ids.setdefault(f.signature, len(signature_ids))
            for f in self._functions
        }
        #: liveness verdicts of :mod:`repro.dsl.dce`, keyed by
        #: ``(signature_ids(...), input_types)`` of this registry
        self.liveness_memo: Dict[Tuple[Tuple[int, ...], tuple], Tuple[bool, ...]] = {}
        if len(self._by_fid) != len(self._functions):
            raise ValueError("duplicate function ids in registry")

    # -- basic container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self):
        return iter(self._functions)

    def __contains__(self, item) -> bool:
        if isinstance(item, DSLFunction):
            return item.fid in self._by_fid
        if isinstance(item, int):
            return item in self._by_fid
        if isinstance(item, str):
            return item in self._by_name
        return False

    # -- lookups -----------------------------------------------------------------
    def by_id(self, fid: int) -> DSLFunction:
        """Look a function up by its 1-based identifier."""
        try:
            return self._by_fid[fid]
        except KeyError as exc:
            raise KeyError(f"no DSL function with id {fid}") from exc

    def by_name(self, name: str) -> DSLFunction:
        """Look a function up by its display name (e.g. ``"MAP(*2)"``)."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError(f"no DSL function named {name!r}") from exc

    @property
    def functions(self) -> Tuple[DSLFunction, ...]:
        """All functions ordered by id."""
        return self._functions

    @property
    def ids(self) -> Tuple[int, ...]:
        """All function ids in ascending order."""
        return tuple(f.fid for f in self._functions)

    def ids_with_return(self, dsl_type: DSLType) -> Tuple[int, ...]:
        """Ids of all functions returning ``dsl_type``."""
        return tuple(f.fid for f in self._functions if f.return_type is dsl_type)

    def signature_ids(self, fids: Sequence[int]) -> Tuple[int, ...]:
        """This registry's signature id of every function id in ``fids``.

        Two sequences map to equal tuples exactly when their functions'
        ``(arg_types, return_type)`` agree position by position.
        """
        return tuple(map(self._signature_id_by_fid.__getitem__, fids))

    def singleton_producing_ids(self) -> Tuple[int, ...]:
        """Ids of functions whose output is a single integer (1..12 minus list ones).

        In the appendix numbering these are ids 1-11 (ACCESS, COUNT×4, HEAD,
        LAST, MINIMUM, MAXIMUM, SEARCH, SUM); the paper's Figure 6 groups
        them as "functions 1 to 12".
        """
        return self.ids_with_return(INT)

    def index_of(self, fid: int) -> int:
        """0-based dense index of a function id (used for one-hot encodings)."""
        return fid - 1

    def __reduce__(self):
        """Pickle as the id subset, rebuilt against the default catalog.

        The default :data:`REGISTRY` unpickles to the shared singleton,
        so identity checks (``registry is REGISTRY``) keep working after
        a round-trip within one process.
        """
        return (_registry_from_ids, (self.ids,))


def _function_from_default_registry(fid: int) -> DSLFunction:
    """Unpickle helper: resolve a function id against the default registry."""
    return REGISTRY.by_id(fid)


def _registry_from_ids(ids: Tuple[int, ...]) -> "FunctionRegistry":
    """Unpickle helper: rebuild a registry from a function-id subset."""
    if ids == REGISTRY.ids:
        return REGISTRY
    return FunctionRegistry([REGISTRY.by_id(fid) for fid in ids])


#: The default, shared registry of the paper's 41 functions.
REGISTRY = FunctionRegistry()
