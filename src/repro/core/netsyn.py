"""The NetSyn synthesis backend.

:class:`NetSynBackend` wires the two phases of Figure 1 together behind
the unified :class:`~repro.core.backend.SynthesisBackend` protocol:

* **Phase 1 — fitness function generation** (:meth:`NetSynBackend.fit`,
  or :meth:`NetSynBackend.bind` to reuse artifacts from an
  :class:`~repro.core.artifacts.ArtifactStore`): train or attach the
  neural fitness model configured by ``NetSynConfig.fitness_kind`` (plus
  the FP model whenever FP-guided mutation is enabled).
* **Phase 2 — program generation** (:meth:`NetSynBackend.solve`): run the
  genetic algorithm with the learned fitness function, FP-guided mutation
  and restricted local neighborhood search until a program equivalent to
  the target under the IO examples is found or the candidate budget is
  exhausted — streaming per-generation
  :class:`~repro.events.ProgressEvent`\\ s to an optional listener.

Applications normally reach the backend through
:class:`~repro.core.service.SynthesisService`, which builds one per
method and program length over a shared artifact store.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.config import NetSynConfig
from repro.core.backend import SynthesisBackend
from repro.core.phase1 import Phase1Artifacts, train_fp_model, train_trace_model
from repro.core.result import SynthesisResult
from repro.data.tasks import SynthesisTask
from repro.dsl.equivalence import IOSet
from repro.dsl.interpreter import Interpreter
from repro.dsl.program import Program
from repro.events import ProgressListener
from repro.execution import (
    BatchExecutionEngine,
    ExecutionEngine,
    LRUCache,
    TieredScoreCache,
)
from repro.fitness.base import FitnessFunction
from repro.fitness.functions import (
    EditDistanceFitness,
    LearnedTraceFitness,
    OracleFitness,
    ProbabilityMapFitness,
)
from repro.ga.budget import SearchBudget
from repro.ga.engine import GeneticAlgorithm
from repro.ga.neighborhood import NeighborhoodSearch
from repro.ga.operators import GeneOperators
from repro.utils.logging import get_logger
from repro.utils.rng import RngFactory
from repro.utils.timing import Stopwatch

logger = get_logger("core.netsyn")

#: evaluation-cache namespaces exported in snapshots: outputs and solution
#: verdicts are compact; execution traces dominate the bytes and re-derive
#: in one execution, so they stay behind
_EXPORT_NAMESPACES = ("outputs", "solutions")


class NetSynBackend(SynthesisBackend):
    """GA-based program synthesizer with a learned fitness function."""

    def __init__(self, config: Optional[NetSynConfig] = None, name: Optional[str] = None) -> None:
        self.config = config or NetSynConfig()
        self.config.validate()
        self.name = name or f"netsyn_{self.config.fitness_kind}"
        self._factory = RngFactory(self.config.seed)
        self._trace_artifacts: Optional[Phase1Artifacts] = None
        self._fp_artifacts: Optional[Phase1Artifacts] = None
        self._fitted = False
        # Long-lived memo state shared across this backend's runs: every
        # cached value is a deterministic function of (program, io_set),
        # so reuse across jobs cannot change results, only skip work.
        self._shared_executor: Optional[ExecutionEngine] = None
        self._score_cache: Optional[TieredScoreCache] = None
        self._map_cache: Optional[LRUCache] = None
        #: the L2 shared mmap score table of a parallel session (None on
        #: the default single-tier path); see execution/shared_table.py
        self._score_table: Any = None
        #: the L4 network score tier of a served session (None offline);
        #: see serving/cache_tier.py
        self._remote_tier: Any = None

    # ------------------------------------------------------------------
    @property
    def needs_trace_model(self) -> bool:
        """True when the configured fitness requires the CF/LCS trace model."""
        return self.config.fitness_kind in ("cf", "lcs")

    @property
    def needs_fp_model(self) -> bool:
        """True when the FP model must be trained (FP fitness or FP mutation)."""
        return self.config.fitness_kind == "fp" or self.config.fp_guided_mutation

    @property
    def requires(self) -> Tuple[str, ...]:  # type: ignore[override]
        """Canonical artifact names this backend consumes from a store."""
        names = []
        if self.needs_trace_model:
            names.append(self.config.fitness_kind)
        if self.needs_fp_model:
            names.append("fp")
        return tuple(names)

    @property
    def default_budget_limit(self) -> int:  # type: ignore[override]
        return self.config.max_search_space

    @property
    def trace_artifacts(self) -> Optional[Phase1Artifacts]:
        """Phase-1 artifacts of the trace model (after :meth:`fit`/:meth:`bind`)."""
        return self._trace_artifacts

    @property
    def fp_artifacts(self) -> Optional[Phase1Artifacts]:
        """Phase-1 artifacts of the FP model (after :meth:`fit`/:meth:`bind`)."""
        return self._fp_artifacts

    # ------------------------------------------------------------------
    def fit(
        self,
        trace_samples=None,
        fp_io_sets=None,
        fp_memberships=None,
        verbose: bool = False,
    ) -> "NetSynBackend":
        """Phase 1: train the neural fitness model(s).

        Pre-generated corpora may be passed to reuse data across several
        synthesizers (the evaluation harness does this); otherwise fresh
        corpora are generated from the configuration.
        """
        cfg = self.config
        if self.needs_trace_model:
            self._trace_artifacts = train_trace_model(
                kind=cfg.fitness_kind,
                training=cfg.training,
                nn=cfg.nn,
                dsl=cfg.dsl,
                samples=trace_samples,
                verbose=verbose,
            )
        if self.needs_fp_model:
            self._fp_artifacts = train_fp_model(
                training=cfg.training,
                nn=cfg.nn,
                dsl=cfg.dsl,
                io_sets=fp_io_sets,
                memberships=fp_memberships,
                verbose=verbose,
            )
        self._reset_memo_caches()
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def _reset_memo_caches(self) -> None:
        """Drop every backend-lifetime memo when the models change.

        Cached predicted scores, probability maps and the fp score entries
        living in the shared executor are functions of the *model*, not
        just of ``(program, io_set)`` — serving them across a refit or
        rebind would steer the GA with the old model's numbers.
        """
        self._shared_executor = None
        self._score_cache = None
        self._map_cache = None
        self._score_table = None
        self._remote_tier = None

    def set_models(
        self,
        trace_artifacts: Optional[Phase1Artifacts] = None,
        fp_artifacts: Optional[Phase1Artifacts] = None,
    ) -> "NetSynBackend":
        """Attach pre-trained Phase-1 artifacts instead of calling :meth:`fit`."""
        if trace_artifacts is not None:
            self._trace_artifacts = trace_artifacts
        if fp_artifacts is not None:
            self._fp_artifacts = fp_artifacts
        self._reset_memo_caches()
        self._fitted = True
        return self

    def bind(self, store) -> "NetSynBackend":
        """Attach every required artifact from a typed artifact store."""
        trace = None
        if self.needs_trace_model:
            trace = store.get(self.config.fitness_kind)
        fp = store.get("fp") if self.needs_fp_model else None
        return self.set_models(trace_artifacts=trace, fp_artifacts=fp)

    # ------------------------------------------------------------------
    def _make_executor(self) -> ExecutionEngine:
        """A new execution engine for this backend's runs.

        The columnar :class:`~repro.execution.BatchExecutionEngine`: the
        GA engine, the fitness functions and the neighborhood search
        evaluate whole candidate batches in one vectorized pass.  It
        feeds the same :class:`~repro.execution.EvaluationCache` as the
        per-candidate :class:`~repro.execution.ExecutionEngine`, so
        snapshots, deltas and every cache tier behave identically.
        """
        return BatchExecutionEngine()

    def _executor(self) -> ExecutionEngine:
        """The engine (and evaluation cache) shared by all of this backend's runs."""
        if self._shared_executor is None:
            self._shared_executor = self._make_executor()
        return self._shared_executor

    def _tiered_score_cache(self) -> TieredScoreCache:
        """The backend-lifetime predicted-score cache (built on first use)."""
        if self._score_cache is None:
            cfg = self.config
            self._score_cache = TieredScoreCache(
                capacity=cfg.score_cache_size,
                namespace=f"score:nnff_{cfg.fitness_kind}",
                table=self._score_table,
                remote=self._remote_tier,
            )
        return self._score_cache

    # ------------------------------------------------------------------
    def _memo_sections(self) -> List[Tuple[str, Any, Callable[[bool], list]]]:
        """The live memo caches as uniform ``(section, cache, export)`` rows.

        One description drives every snapshot/delta/version operation —
        the three caches (predicted scores, FP probability maps, compact
        evaluation entries) used to be handled by three near-identical
        loops each.  ``export(dirty_only)`` returns the section's
        picklable entries; every cache also supports ``clear_dirty()``
        and ``stats.stores``.
        """
        sections: List[Tuple[str, Any, Callable[[bool], list]]] = []
        if self._score_cache is not None:
            score_cache = self._score_cache
            sections.append((
                "scores",
                score_cache,
                lambda dirty: score_cache.dirty_snapshot() if dirty else score_cache.snapshot(),
            ))
        if self._map_cache is not None:
            map_cache = self._map_cache
            sections.append((
                "maps",
                map_cache,
                lambda dirty: map_cache.dirty_items() if dirty else map_cache.items(),
            ))
        if self._shared_executor is not None:
            eval_cache = self._shared_executor.cache
            sections.append((
                "evaluation",
                eval_cache,
                lambda dirty: (
                    eval_cache.dirty_snapshot(_EXPORT_NAMESPACES) if dirty
                    else eval_cache.snapshot(_EXPORT_NAMESPACES)
                ),
            ))
        return sections

    def cache_snapshot(self, dirty_only: bool = False) -> Optional[dict]:
        """Picklable snapshot of this backend's warm memo caches.

        Exports the predicted-score cache, the FP probability maps (one
        small vector per specification, keyed by the structural io key —
        skipping their forward is what makes a warm restart NN-free for
        known specs) and the compact evaluation entries (outputs and
        solution verdicts; execution traces stay behind — they dominate
        the bytes and re-derive in one execution).  All keys are
        structural, so the snapshot can warm-start the same backend in
        another process (see ``SynthesisSession.run``).

        With ``dirty_only`` only entries written since the last
        :meth:`begin_cache_delta` are exported — the per-job merge-back
        payload of a parallel worker (and the parent's per-run L3 log
        segment), bounded by the work actually done rather than by the
        cache capacity.
        """
        data: dict = {}
        for section, cache, export in self._memo_sections():
            if len(cache):
                entries = export(dirty_only)
                if entries:
                    data[section] = entries
        return data or None

    def begin_cache_delta(self) -> None:
        """Open a fresh delta window for :meth:`cache_snapshot(dirty_only=True)`."""
        for _section, cache, _export in self._memo_sections():
            cache.clear_dirty()

    def load_cache_snapshot(self, data: Optional[dict]) -> None:
        """Warm-start the memo caches from :meth:`cache_snapshot` output."""
        if not data:
            return
        if "scores" in data:
            self._tiered_score_cache().load_snapshot(data["scores"])
        if "maps" in data:
            self._fp_map_cache().load(data["maps"])
        if "evaluation" in data:
            self._executor().cache.load_snapshot(data["evaluation"])

    def cache_version(self) -> int:
        """Monotone count of memo-cache writes (cheap change detection).

        Parallel workers record this before a job and snapshot only when
        it moved, so jobs that added nothing (fully warm runs) ship no
        cache delta back to the parent.
        """
        return sum(cache.stats.stores for _s, cache, _e in self._memo_sections())

    # ------------------------------------------------------------------
    @property
    def score_table(self) -> Any:
        """The attached L2 shared score table (None on the single-tier path)."""
        return self._score_table

    def attach_score_table(self, table: Any) -> None:
        """Attach the session's L2 shared mmap score table.

        From then on score-cache misses fall through to the table and
        every computed score is published to it, so concurrent workers
        serve each other mid-job.  Values are deterministic per
        structural key, so attaching a table never changes results.
        """
        self._score_table = table
        if self._score_cache is not None:
            self._score_cache.attach_table(table)

    @property
    def remote_tier(self) -> Any:
        """The attached L4 network score tier (None when serving offline)."""
        return self._remote_tier

    def attach_remote_tier(self, remote: Any) -> None:
        """Attach an L4 network score tier (``repro.serving.cache_tier``).

        Misses that fall through every local tier then consult the remote
        score pool, and computed scores are pushed back asynchronously.
        Like the L2 table, values are deterministic per structural key, so
        attaching (or losing) the tier never changes results — only how
        much local work is skipped.
        """
        self._remote_tier = remote
        if self._score_cache is not None:
            self._score_cache.attach_remote(remote)

    # ------------------------------------------------------------------
    def build_fitness(
        self,
        target: Optional[Program] = None,
        executor: Optional[ExecutionEngine] = None,
    ) -> FitnessFunction:
        """Construct the fitness function configured for Phase 2.

        ``executor`` is the run's shared execution engine; passing it lets
        the fitness reuse executions cached by the GA's solution check
        (and vice versa).
        """
        cfg = self.config
        kind = cfg.fitness_kind
        if kind in ("cf", "lcs"):
            if self._trace_artifacts is None:
                raise RuntimeError("call fit() before solve(): the trace model is untrained")
            return LearnedTraceFitness(
                self._trace_artifacts.model,
                kind=kind,
                encoder=self._trace_artifacts.encoder,
                executor=executor,
                score_cache=self._tiered_score_cache(),
                program_length=cfg.program_length,
            )
        if kind == "fp":
            if self._fp_artifacts is None:
                raise RuntimeError("call fit() before solve(): the FP model is untrained")
            return ProbabilityMapFitness(
                self._fp_artifacts.model,
                encoder=self._fp_artifacts.encoder,
                executor=executor,
                cache_tag="fp",
                map_cache=self._fp_map_cache(),
            )
        if kind == "edit":
            return EditDistanceFitness(executor=executor)
        if kind in ("oracle_cf", "oracle_lcs"):
            if target is None:
                raise ValueError("oracle fitness requires the target program")
            return OracleFitness(target, kind=kind.split("_", 1)[1], executor=executor)
        raise ValueError(f"unknown fitness kind {kind!r}")

    def _fp_map_cache(self) -> LRUCache:
        """The backend-lifetime probability-map LRU (built on first use)."""
        if self._map_cache is None:
            self._map_cache = LRUCache(self.config.map_cache_size)
        return self._map_cache

    def _fp_fitness_for_mutation(
        self, executor: Optional[ExecutionEngine] = None
    ) -> Optional[ProbabilityMapFitness]:
        if not self.config.fp_guided_mutation or self._fp_artifacts is None:
            return None
        return ProbabilityMapFitness(
            self._fp_artifacts.model,
            encoder=self._fp_artifacts.encoder,
            executor=executor,
            cache_tag="fp",
            map_cache=self._fp_map_cache(),
        )

    # ------------------------------------------------------------------
    def solve_io(
        self,
        io_set: IOSet,
        target: Optional[Program] = None,
        budget: Optional[SearchBudget] = None,
        seed: Optional[int] = None,
        task_id: str = "",
        listener: Optional[ProgressListener] = None,
    ) -> SynthesisResult:
        """Phase 2: search for a program satisfying ``io_set``.

        Parameters
        ----------
        io_set:
            The input-output specification.
        target:
            The hidden target program; only required for oracle fitness
            kinds (and used purely for scoring, never for early exit).
        budget:
            Candidate budget; defaults to ``config.max_search_space``.
        seed:
            Per-run seed (the paper repeats each task K times with
            different random seeds).
        listener:
            Optional progress-event consumer; per-generation events are
            enriched with this backend's method name and ``task_id``.
        """
        cfg = self.config
        if not self._fitted and (self.needs_trace_model or self.needs_fp_model):
            raise RuntimeError("call fit() (or set_models()) before solve()")
        budget = budget or SearchBudget(limit=cfg.max_search_space)
        run_factory = self._factory if seed is None else RngFactory(seed)

        # One execution engine shared by the GA solution check, every
        # fitness evaluation and the neighborhood search, so each candidate
        # is interpreted at most once per specification.  The engine also
        # persists across this backend's runs (fit-once-serve-many sessions
        # re-solve the same specs with different seeds): every cached value
        # is deterministic per (program, io_set), so reuse cannot change
        # results.
        executor = self._executor()
        fitness = self.build_fitness(target=target, executor=executor)
        fp_fitness = self._fp_fitness_for_mutation(executor=executor)

        operators = GeneOperators(
            program_length=cfg.program_length,
            rng=run_factory.get("operators"),
        )
        neighborhood = None
        if cfg.neighborhood.enabled:
            neighborhood = NeighborhoodSearch(
                config=cfg.neighborhood,
                fitness=fitness,
                interpreter=Interpreter(trace=False),
                executor=executor,
            )

        # When FP mutation is enabled but the main fitness cannot provide a
        # probability map, wrap the fitness so the engine sees the FP map.
        engine_fitness = fitness
        if fp_fitness is not None and fitness.probability_map(io_set) is None:
            engine_fitness = _WithProbabilityMap(fitness, fp_fitness)

        engine = GeneticAlgorithm(
            fitness=engine_fitness,
            operators=operators,
            config=cfg.ga,
            neighborhood=neighborhood,
            fp_guided_mutation=cfg.fp_guided_mutation,
            rng=run_factory.get("engine"),
            interpreter=Interpreter(trace=False),
            executor=executor,
        )

        engine_listener = None
        if listener is not None:

            def engine_listener(event):
                event.method = self.name
                event.task_id = task_id
                listener(event)

        with Stopwatch() as stopwatch:
            evolution = engine.run(io_set, budget, listener=engine_listener)

        return SynthesisResult(
            found=evolution.found,
            program=evolution.program,
            candidates_used=evolution.candidates_used,
            budget_limit=budget.limit,
            generations=evolution.generations,
            wall_time_seconds=stopwatch.elapsed,
            found_by=evolution.found_by,
            method=self.name,
            task_id=task_id,
            neighborhood_invocations=evolution.neighborhood_invocations,
            average_fitness_history=evolution.average_fitness_history,
            best_fitness_history=evolution.best_fitness_history,
        )

    # ------------------------------------------------------------------
    def solve(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
        listener: Optional[ProgressListener] = None,
    ) -> SynthesisResult:
        """Synthesize one task through the unified backend protocol."""
        budget = budget or SearchBudget(limit=self.config.max_search_space)
        self._start_events(task, budget, listener)
        result = self.solve_io(
            task.io_set,
            target=task.target,
            budget=budget,
            seed=seed,
            task_id=task.task_id,
            listener=listener,
        )
        self._finish_events(task, result, listener)
        return result


class _WithProbabilityMap(FitnessFunction):
    """Adapter combining a primary fitness with an FP model's probability map."""

    def __init__(self, primary: FitnessFunction, fp_fitness: ProbabilityMapFitness) -> None:
        self.primary = primary
        self.fp_fitness = fp_fitness
        self.name = primary.name
        self.provides_mutation_scores = getattr(primary, "provides_mutation_scores", False)

    def score(self, programs, io_set):
        return self.primary.score(programs, io_set)

    def mutation_scores(self, program, io_set):
        return self.primary.mutation_scores(program, io_set)

    def probability_map(self, io_set):
        return self.fp_fitness.probability_map(io_set)

    def cache_stats(self):
        return self.primary.cache_stats() + self.fp_fitness.cache_stats()