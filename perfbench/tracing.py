"""Outside-in span tracer for the end-to-end synthesis-job benchmark.

The tracer wraps public functions of the system (class or module
attributes) from the benchmark's own files; nothing under ``src/`` knows
it exists.  Each call of a wrapped function records one span: name,
start, end, self time, parent span and the job the calling thread was
working on.  A span's self time is its duration minus the time its child
spans (calls into other wrapped functions on the same thread) cover.

Spans are kept in memory, one compact column buffer per thread, and
written out once at the end (:meth:`Tracer.save`).  :func:`layer_ledger`
turns them into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import weakref
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the system's layers, as the benchmark names them (``<layer>.<what>``)
LAYERS = ("ga", "execution", "fitness", "nn", "core", "serving")
#: spans that enclose a whole job: ``SynthesisSession.run`` holds the GA
#: loop itself, which is no layer's work
ROOT_SPANS = ("core.run",)

Counter = Callable[[tuple, dict, Any], Dict[str, float]]
Hook = Callable[[tuple, float, float], None]


class _ThreadLog:
    """The spans one thread recorded, as parallel typed columns."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.names = array("i")
        self.ids = array("q")
        self.parents = array("q")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        #: open spans on this thread: [span id, seconds covered by children]
        self.stack: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)


class Tracer:
    """Records spans around wrapped functions; undo with :meth:`restore`."""

    def __init__(self) -> None:
        self._names: Dict[str, int] = {}
        self._jobs: Dict[str, int] = {"": 0}
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        #: objects constructed by classes passed to :meth:`track_instances`
        self.instances: "weakref.WeakSet[Any]" = weakref.WeakSet()

    # -- per-thread state ------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _intern(self, table: Dict[str, int], key: str) -> int:
        with self._lock:
            return table.setdefault(key, len(table))

    def set_job(self, job_id: str) -> None:
        """Attribute this thread's next spans to ``job_id`` ("" = none)."""
        self._local.job = self._intern(self._jobs, job_id)

    # -- wrapping ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counter: Optional[Counter] = None,
        hook: Optional[Hook] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``counter(args, kwargs, result)`` returns work counts to add under
        their names; ``hook(args, start, end)`` sees every call's timing.
        """
        original = getattr(owner, attr)
        name_id = self._intern(self._names, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = tracer._log()
            span_id = next(tracer._ids)
            parent = log.stack[-1][0] if log.stack else 0
            frame = [span_id, 0.0]
            log.stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                log.stack.pop()
                if log.stack:
                    log.stack[-1][1] += end - start
                log.names.append(name_id)
                log.ids.append(span_id)
                log.parents.append(parent)
                log.jobs.append(getattr(tracer._local, "job", 0))
                log.starts.append(start)
                log.ends.append(end)
                log.selfs.append(end - start - frame[1])
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    log.counts[key] += value
            if hook is not None:
                hook(args, start, end)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def track_instances(self, cls: type) -> None:
        """Remember every ``cls`` constructed while tracing (weakly)."""
        original = cls.__init__
        instances = self.instances

        @functools.wraps(original)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            instances.add(obj)

        cls.__init__ = init
        self._patches.append((cls, "__init__", original))

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def clear_counts(self) -> None:
        """Start the work counts afresh (spans are windowed instead)."""
        for log in list(self._logs):
            log.counts.clear()

    def counts(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for log in list(self._logs):
            for key, value in log.counts.items():
                totals[key] += value
        return totals

    def summary(self, window: Tuple[float, float]) -> dict:
        """Per-name call count, self and inclusive seconds over the spans
        inside ``window``, and how many threads recorded a layer's span
        there (one whose time is attributed: not a :data:`ROOT_SPANS` span).
        """
        lo, hi = window
        names = {index: name for name, index in self._names.items()}
        roots = {self._names[name] for name in ROOT_SPANS if name in self._names}
        per_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        threads = 0
        for log in list(self._logs):
            attributing = False
            for i in range(len(log.names)):
                if log.starts[i] < lo or log.ends[i] > hi:
                    continue
                entry = per_name[names[log.names[i]]]
                entry[0] += 1
                entry[1] += log.selfs[i]
                entry[2] += log.ends[i] - log.starts[i]
                attributing = attributing or log.names[i] not in roots
            threads += attributing
        return {"spans": dict(per_name), "threads": threads}

    def save(self, path: Path) -> None:
        """Write every span (one JSON object of columns) to ``path``."""
        columns: Dict[str, list] = defaultdict(list)
        for log in list(self._logs):
            columns["thread"].extend([log.thread_name] * len(log.names))
            for field in ("names", "ids", "parents", "jobs", "starts", "ends", "selfs"):
                columns[field].extend(getattr(log, field))
        payload = {
            "names": sorted(self._names, key=self._names.get),
            "jobs": sorted(self._jobs, key=self._jobs.get),
            "columns": dict(columns),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")))


# ---------------------------------------------------------------------------
# what the benchmark wraps


def _len_arg(position: int, key: str) -> Counter:
    return lambda args, kwargs, result: {key: len(args[position])}


def _frame_bytes(args: tuple, kwargs: dict, result: Any) -> Dict[str, float]:
    return {"serving.frames.count": 1, "serving.frames.bytes": len(result)}


def install(tracer: Tracer, in_process: bool, run_hook: Hook) -> None:
    """Wrap the public functions of every layer.

    ``in_process`` False wraps only the parent-side ``core`` and
    ``serving`` functions: worker processes are forked from this one, and
    spans recorded inside them never come back.  ``run_hook`` sees every
    ``SynthesisSession.run`` call (its jobs and timing).
    """
    from repro.baselines import registry
    from repro.core.artifacts import ArtifactStore
    from repro.core.netsyn import NetSynBackend
    from repro.core.service import SynthesisSession
    from repro.core.supervisor import WorkerSupervisor
    from repro.serving import protocol

    tracer.wrap(registry, "ensure_artifacts", "core.train")
    tracer.wrap(SynthesisSession, "run", "core.run", hook=run_hook)
    tracer.wrap(WorkerSupervisor, "run", "core.supervisor")
    tracer.wrap(NetSynBackend, "load_cache_snapshot", "core.merge")
    tracer.wrap(ArtifactStore, "save_caches", "core.l3_append")
    tracer.wrap(ArtifactStore, "pack_shared", "core.pack_shared")
    tracer.wrap(protocol, "encode_frame", "serving.codec", counter=_frame_bytes)
    tracer.wrap(protocol, "decode_payload", "serving.codec")
    if not in_process:
        return

    from repro.execution.vectorized import BatchExecutionEngine
    from repro.fitness import functions as fitness_functions
    from repro.fitness.features import FeatureEncoder
    from repro.fitness.models import FunctionProbabilityModel, TraceFitnessModel
    from repro.ga import engine as ga_engine
    from repro.ga.neighborhood import NeighborhoodSearch
    from repro.ga.operators import GeneOperators

    tracer.wrap(ga_engine, "roulette_wheel_indices", "ga.select")
    tracer.wrap(GeneOperators, "crossover", "ga.crossover")
    tracer.wrap(GeneOperators, "mutate", "ga.mutate")
    tracer.wrap(NeighborhoodSearch, "search", "ga.neighborhood")
    tracer.wrap(
        BatchExecutionEngine, "satisfies_batch", "execution.satisfies_batch",
        counter=_len_arg(1, "execution.satisfies_batch.programs"),
    )
    tracer.wrap(
        BatchExecutionEngine, "traces_batch", "execution.traces_batch",
        counter=_len_arg(1, "execution.traces_batch.programs"),
    )
    tracer.track_instances(BatchExecutionEngine)
    for cls in (fitness_functions.LearnedTraceFitness, fitness_functions.ProbabilityMapFitness):
        tracer.wrap(cls, "score", "fitness.score", counter=_len_arg(1, "fitness.score.genes"))
    tracer.wrap(fitness_functions, "sample_from_execution", "fitness.sample")
    tracer.wrap(
        FeatureEncoder, "encode_trace_batch", "fitness.encode",
        counter=_len_arg(1, "fitness.encode.rows"),
    )
    tracer.wrap(
        TraceFitnessModel, "predict_fitness", "nn.predict_fitness",
        counter=lambda args, kwargs, result: {"nn.predict_fitness.rows": len(result)},
    )
    tracer.wrap(FunctionProbabilityModel, "predict_probability_map", "nn.predict_map")


# ---------------------------------------------------------------------------
# the ledger


def layer_ledger(
    tracer: Tracer,
    window: Tuple[float, float],
    train_s: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of the traced job phase in ``window``.

    Returns ``(metrics, checks)``: the metrics named in ``BENCHMARK.json``
    that the trace gives, and the numbers the output checks need: the
    layers' self time summed over all threads (what the ``ledger.*.share``
    figures add up), the number of threads it came from, and the window
    length.  The self time of a :data:`ROOT_SPANS` span is the job's own
    loop around the layers' calls, so it is left unattributed.
    """
    summary = tracer.summary(window)
    spans = summary["spans"]
    counts = tracer.counts()
    wall = window[1] - window[0]

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    metrics: Dict[str, float] = {}
    for name in ("ga.select", "ga.crossover", "ga.mutate", "ga.neighborhood",
                 "execution.traces_batch", "fitness.score", "fitness.sample",
                 "fitness.encode", "nn.predict_fitness", "nn.predict_map",
                 "core.merge", "core.l3_append"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    breed = self_s("ga.select") + self_s("ga.crossover") + self_s("ga.mutate")
    metrics["ga.breed.share"] = breed / wall
    metrics["execution.satisfies_batch.calls"] = calls("execution.satisfies_batch")
    metrics["execution.satisfies_batch.incl_s"] = incl_s("execution.satisfies_batch")
    for key in ("execution.satisfies_batch.programs", "execution.traces_batch.programs",
                "fitness.score.genes", "fitness.encode.rows", "nn.predict_fitness.rows",
                "serving.frames.count", "serving.frames.bytes"):
        metrics[key] = counts.get(key, 0.0)
    engines = [engine.kernel_stats() for engine in list(tracer.instances)]
    metrics["execution.kernel.dispatch_count"] = sum(s.get("dispatch_count", 0) for s in engines)
    lookups = sum(s.get("trie_leaf_lookups", 0) for s in engines)
    hits = sum(s.get("trie_leaf_hits", 0) for s in engines)
    metrics["execution.kernel.reuse_ratio"] = hits / lookups if lookups else 0.0
    genes = metrics["fitness.score.genes"]
    metrics["fitness.forward_ratio"] = metrics["fitness.encode.rows"] / genes if genes else 0.0
    metrics["core.train_s"] = train_s
    metrics["core.run.calls"] = calls("core.run")
    metrics["core.run.incl_s"] = incl_s("core.run")
    metrics["core.supervisor.run_s"] = incl_s("core.supervisor")
    metrics["core.pack_shared.self_s"] = self_s("core.pack_shared")
    metrics["serving.codec.self_s"] = self_s("serving.codec")

    layer_self = defaultdict(float)
    for name, (_, seconds, _) in spans.items():
        if name not in ROOT_SPANS:
            layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        metrics[f"ledger.{layer}.share"] = layer_self[layer] / wall
    attributed = sum(layer_self.values())
    # on cf-served the parent's threads overlap, so the shares may add up
    # past 1 and leave nothing unattributed
    metrics["ledger.unattributed.share"] = max(0.0, 1.0 - attributed / wall)
    checks = {"attributed_s": attributed, "threads": summary["threads"], "wall_s": wall}
    return metrics, checks
