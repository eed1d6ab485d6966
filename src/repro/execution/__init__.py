"""Execution subsystem: compiled programs, evaluation caching, shared engines.

This package owns *how* candidate programs get executed during Phase-2
search.  The DSL package defines the semantics (reference interpreter and
the static-binding compiler); this package layers memoization on top and
hands every search component — GA engine, fitness functions, neighborhood
search — one shared :class:`ExecutionEngine` so a candidate is executed at
most once per IO specification per run.
"""

from repro.execution.cache import (
    CacheStats,
    EvaluationCache,
    freeze_value,
    io_set_key,
    program_key,
)
from repro.execution.engine import ExecutionEngine, uncached_engine
from repro.execution.faults import Fault, FaultInjected, FaultPlan
from repro.execution.vectorized import BatchExecutionEngine, ColumnarEvaluator, TraceColumns

__all__ = [
    "BatchExecutionEngine",
    "CacheStats",
    "ColumnarEvaluator",
    "EvaluationCache",
    "ExecutionEngine",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "TraceColumns",
    "freeze_value",
    "io_set_key",
    "program_key",
    "uncached_engine",
]
