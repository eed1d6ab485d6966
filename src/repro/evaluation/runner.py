"""Experiment runners: the full method comparison and the Table-2 ablation.

The method comparison drives its (method, length, task, run) grid through
a :class:`~repro.core.service.SynthesisSession`, which serves the shared
Phase-1 models (trained once) and executes the submitted jobs serially or
fanned out over its supervised worker pool.  Every
synthesis attempt is seeded explicitly — the seed is a deterministic
function of the experiment seed and the run index, never of the worker —
so the parallel report is byte-identical to the serial one regardless of
worker count or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.registry import ensure_artifacts
from repro.config import ExperimentConfig, NetSynConfig, ServiceConfig
from repro.core.artifacts import ArtifactStore
from repro.core.netsyn import NetSynBackend
from repro.core.phase1 import train_fp_model, train_trace_model
from repro.core.service import SynthesisSession
from repro.data.tasks import BenchmarkSuite, make_benchmark_suite
from repro.evaluation.metrics import (
    MethodSummary,
    RunRecord,
    filter_records,
    search_space_percentiles,
    summarize_method,
    synthesis_percentage,
    time_percentiles,
)
from repro.ga.budget import SearchBudget
from repro.utils.logging import get_logger
from repro.utils.serialization import save_json

logger = get_logger("evaluation.runner")


@dataclass
class EvaluationReport:
    """All run records of one experiment plus convenient aggregations."""

    experiment: ExperimentConfig
    records: List[RunRecord] = field(default_factory=list)

    @property
    def methods(self) -> List[str]:
        return sorted({r.method for r in self.records})

    @property
    def lengths(self) -> List[int]:
        return sorted({r.length for r in self.records})

    def records_for(self, method: Optional[str] = None, length: Optional[int] = None) -> List[RunRecord]:
        return filter_records(self.records, method=method, length=length)

    def summary(self, method: str, length: int) -> MethodSummary:
        return summarize_method(self.records, method, length)

    def summaries(self) -> List[MethodSummary]:
        return [self.summary(m, l) for l in self.lengths for m in self.methods]

    def save(self, path) -> None:
        """Persist every record as JSON (for later re-analysis)."""
        save_json(path, {"experiment": vars(self.experiment), "records": [r.to_dict() for r in self.records]})


class EvaluationRunner:
    """Runs a set of methods over benchmark suites (Figures 4-6, Tables 3-4)."""

    def __init__(
        self,
        experiment: Optional[ExperimentConfig] = None,
        base_config: Optional[NetSynConfig] = None,
        verbose: bool = False,
        n_workers: int = 1,
        service_config: Optional[ServiceConfig] = None,
        remote_address: Optional[str] = None,
        remote_submit_attempts: int = 6,
    ) -> None:
        self.experiment = (experiment or ExperimentConfig()).scaled()
        self.experiment.validate()
        self.base_config = base_config or NetSynConfig.small()
        self.base_config.validate()
        self.verbose = verbose
        self.n_workers = int(n_workers)
        self.service_config = service_config
        #: ``host:port`` of a running synthesis server: the grid is
        #: submitted there instead of through a local session, and no
        #: Phase-1 model is trained in this process at all
        self.remote_address = remote_address
        #: total submit tries against an over-capacity/draining server
        #: (the client waits the server-suggested ``retry_after`` between
        #: tries); 1 = fail fast on the first rejection
        self.remote_submit_attempts = int(remote_submit_attempts)
        self._store: Optional[ArtifactStore] = None
        self._session: Optional[Any] = None

    # ------------------------------------------------------------------
    @property
    def store(self) -> ArtifactStore:
        """The shared trained-model store (trained lazily, exactly once)."""
        if self._store is None:
            logger.info("training artifacts for methods %s", self.experiment.methods)
            self._store = ensure_artifacts(
                ArtifactStore(), self.base_config, methods=self.experiment.methods, verbose=self.verbose
            )
        return self._store

    @property
    def session(self) -> Any:
        """The synthesis session the evaluation grid runs through.

        Built over the shared artifact :attr:`store`.  With a
        configured ``remote_address`` this is a
        :class:`~repro.serving.client.RemoteSynthesisSession` instead —
        the grid runs in the server process (which owns the trained
        models) and this process never trains anything.
        """
        if self._session is None:
            if self.remote_address:
                from repro.serving.client import RemoteSynthesisSession

                self._session = RemoteSynthesisSession(
                    self.remote_address,
                    submit_attempts=self.remote_submit_attempts,
                )
            else:
                self._session = SynthesisSession(
                    self.base_config,
                    self.store,
                    methods=self.experiment.methods,
                    service_config=self.service_config,
                )
        return self._session

    def build_suite(self, length: int) -> BenchmarkSuite:
        """The benchmark suite used for one program length."""
        return make_benchmark_suite(
            length=length,
            n_programs=self.experiment.n_test_programs,
            seed=self.experiment.seed,
            dsl_config=self.base_config.dsl,
        )

    # ------------------------------------------------------------------
    def _submit_grid(self, session: SynthesisSession) -> List[Tuple[Any, int]]:
        """Submit the full evaluation grid, in serial iteration order.

        The per-run seed depends only on the experiment seed and the run
        index, so any assignment of jobs to workers reproduces the same
        records.
        """
        submitted: List[Tuple[Any, int]] = []
        for length in self.experiment.lengths:
            suite = self.build_suite(length)
            for method in self.experiment.methods:
                for task in suite:
                    for run_index in range(self.experiment.n_runs):
                        seed = self.experiment.seed * 10_007 + run_index
                        job = session.submit(
                            task,
                            method=method,
                            budget=self.experiment.max_search_space,
                            seed=seed,
                            program_length=length,
                        )
                        submitted.append((job, run_index))
        return submitted

    def run(self) -> EvaluationReport:
        """Execute every (method, length, task, run) combination.

        The grid goes through :class:`SynthesisSession`: jobs are
        submitted in serial iteration order, then executed serially or —
        with ``n_workers > 1`` — fanned out over worker processes.  The
        records (and their order) are identical either way.
        """
        report = EvaluationReport(experiment=self.experiment)
        session = self.session
        submitted = self._submit_grid(session)
        jobs = [job for job, _ in submitted]
        if self.remote_address:
            session.run(jobs)  # worker count is the server's decision
        else:
            session.run(jobs, n_workers=self.n_workers)
        for job, run_index in submitted:
            if job.result is None:  # pragma: no cover - failed/cancelled job
                raise RuntimeError(
                    f"evaluation job {job.job_id} ended {job.state.value}: {job.error}"
                )
            report.records.append(
                RunRecord(
                    method=job.method,
                    length=job.program_length,
                    task_id=job.task.task_id,
                    run_index=run_index,
                    result=job.result,
                    is_singleton=job.task.is_singleton,
                    target_function_ids=tuple(job.task.target.function_ids),
                )
            )
        return report


# ---------------------------------------------------------------------------
# Table 2: ablation of NS and FP-guided mutation on GA + fCF
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    """One row of Table 2."""

    approach: str
    programs_synthesized: int
    n_tasks: int
    average_generations: float
    average_synthesis_rate: float

    def to_dict(self) -> dict:
        return {
            "approach": self.approach,
            "programs_synthesized": self.programs_synthesized,
            "n_tasks": self.n_tasks,
            "average_generations": self.average_generations,
            "average_synthesis_rate": self.average_synthesis_rate,
        }


#: the five configurations of Table 2
ABLATION_VARIANTS = (
    ("GA+fCF", {"neighborhood": None, "fp_mutation": False}),
    ("GA+fCF+NS_BFS", {"neighborhood": "bfs", "fp_mutation": False}),
    ("GA+fCF+NS_DFS", {"neighborhood": "dfs", "fp_mutation": False}),
    ("GA+fCF+MutationFP", {"neighborhood": None, "fp_mutation": True}),
    ("GA+fCF+NS_BFS+MutationFP", {"neighborhood": "bfs", "fp_mutation": True}),
)


class AblationRunner:
    """Reproduces Table 2: the contribution of NS and FP-guided mutation."""

    def __init__(
        self,
        base_config: Optional[NetSynConfig] = None,
        length: Optional[int] = None,
        n_tasks: int = 10,
        n_runs: int = 2,
        max_search_space: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.base_config = (base_config or NetSynConfig.small("cf")).replace(fitness_kind="cf")
        self.length = length or self.base_config.program_length
        self.n_tasks = n_tasks
        self.n_runs = n_runs
        self.max_search_space = max_search_space or self.base_config.max_search_space
        self.seed = seed

    def _variant_config(self, options: Dict) -> NetSynConfig:
        config = self.base_config.replace(
            program_length=self.length,
            fp_guided_mutation=bool(options["fp_mutation"]),
            max_search_space=self.max_search_space,
        )
        if options["neighborhood"] is None:
            config.neighborhood.enabled = False
        else:
            config.neighborhood.enabled = True
            config.neighborhood.strategy = options["neighborhood"]
        return config

    def run(self, variants=ABLATION_VARIANTS) -> List[AblationRow]:
        """Run every Table-2 variant over the same task suite and Phase-1 models."""
        # train shared models once
        trace = train_trace_model(
            kind="cf",
            training=self.base_config.training,
            nn=self.base_config.nn,
            dsl=self.base_config.dsl,
        )
        fp = train_fp_model(
            training=self.base_config.training, nn=self.base_config.nn, dsl=self.base_config.dsl
        )
        suite = make_benchmark_suite(
            length=self.length, n_programs=self.n_tasks, seed=self.seed, dsl_config=self.base_config.dsl
        )

        rows: List[AblationRow] = []
        for name, options in variants:
            config = self._variant_config(options).replace(fitness_kind="cf")
            backend = NetSynBackend(config).set_models(trace_artifacts=trace, fp_artifacts=fp)
            found_per_task: List[float] = []
            generations: List[float] = []
            synthesized = 0
            for task in suite:
                successes = 0
                for run_index in range(self.n_runs):
                    budget = SearchBudget(limit=self.max_search_space)
                    result = backend.solve(task, budget=budget, seed=self.seed + run_index)
                    successes += int(result.found)
                    generations.append(result.generations)
                rate = successes / self.n_runs
                found_per_task.append(rate)
                if rate >= 0.5:
                    synthesized += 1
            rows.append(
                AblationRow(
                    approach=name,
                    programs_synthesized=synthesized,
                    n_tasks=len(suite),
                    average_generations=float(np.mean(generations)) if generations else 0.0,
                    average_synthesis_rate=float(np.mean(found_per_task) * 100.0),
                )
            )
        return rows
