"""Record the golden trajectories of seeded tiny CF, LCS, FP and edit jobs.

Every job is one seeded ``NetSynBackend.solve`` at the tiny configuration
of ``tests/conftest.py`` (trained from scratch, seeded), run in three
execution shapes:

* ``serial-vectorized`` — the columnar batch engine (``NetSynBackend``);
* ``serial-scalar`` — the per-candidate serial engine
  (``ScalarNetSynBackend``, the test-side control of ``tests/controls.py``);
* ``parallel-2`` — the same jobs submitted to one
  :class:`~repro.core.service.SynthesisSession` and fanned out over 2
  supervised workers (shared weights, streamed events and cache
  merge-back all on, as by default).

Each kind runs with the configuration ``build_backend`` gives its session
method (``netsyn_cf``, ``netsyn_lcs``, ``netsyn_fp``, ``edit``), so the
serial and parallel shapes run the same jobs.  Per job the record keeps
what a behaviour change would move: the result, ``found_by``, candidates
used, generations, the program's function names, both fitness histories
as ``float.hex`` strings (exact), and the sequence of progress-event
kinds.

``tests/test_golden_trajectories.py`` re-runs the same jobs and compares
field by field.  Regenerate only for an intended behaviour change, and
review the diff of ``trace_fitness.json``::

    PYTHONPATH=src python tests/golden/make_trace_fitness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import (
    DSLConfig,
    GAConfig,
    NeighborhoodConfig,
    NNConfig,
    NetSynConfig,
    ServiceConfig,
    TrainingConfig,
)
from repro.core.artifacts import ArtifactStore
from repro.core.netsyn import NetSynBackend
from repro.core.phase1 import train_fp_model, train_trace_model
from repro.core.result import SynthesisResult
from repro.core.service import SynthesisSession
from repro.data import make_benchmark_suite
from repro.events import EventLog
from repro.ga.budget import SearchBudget

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from controls import ScalarNetSynBackend  # noqa: E402 - tests/ is not a package

GOLDEN = Path(__file__).resolve().parent / "trace_fitness.json"
#: fitness kind -> the session method that runs it
METHODS = {"cf": "netsyn_cf", "lcs": "netsyn_lcs", "fp": "netsyn_fp", "edit": "edit"}
KINDS = tuple(METHODS)
#: serial execution shape name -> the backend class that runs it
SHAPES = {"serial-vectorized": NetSynBackend, "serial-scalar": ScalarNetSynBackend}
#: the fan-out shape: every job through one 2-worker session run
PARALLEL = "parallel-2"
#: ``(task index, seed)``: solved by the GA, two exhausted budgets (a
#: singleton and a list target) and one run the neighborhood search cuts short
JOBS = ((0, 2), (1, 0), (3, 1), (5, 1))
BUDGET = 600


def tiny_config() -> NetSynConfig:
    """The ``tiny_netsyn_config`` fixture of ``tests/conftest.py``."""
    training = TrainingConfig(
        corpus_size=60, program_length=3, n_io_examples=2, epochs=2, batch_size=16, seed=0
    )
    return NetSynConfig(
        fitness_kind="cf",
        program_length=3,
        max_search_space=1500,
        seed=0,
        ga=GAConfig(population_size=20, elite_count=2, max_generations=60),
        neighborhood=NeighborhoodConfig(top_n=2, window=4, cooldown=3),
        nn=NNConfig(embedding_dim=4, hidden_dim=8, fc_dim=8, encoder="pooled"),
        training=training,
        dsl=DSLConfig(min_input_length=3, max_input_length=5, n_io_examples=2),
    )


def kind_config(base: NetSynConfig, kind: str) -> NetSynConfig:
    """The configuration ``build_backend`` gives ``METHODS[kind]``."""
    if kind == "edit":
        return base.replace(fitness_kind="edit", fp_guided_mutation=False)
    return base.replace(fitness_kind=kind)


def _fields(result: SynthesisResult, event_kinds: List[str]) -> dict:
    return {
        "found": result.found,
        "found_by": result.found_by,
        "candidates_used": result.candidates_used,
        "generations": result.generations,
        "program": [] if result.program is None else list(result.program.names),
        "average_fitness_history": [float(x).hex() for x in result.average_fitness_history],
        "best_fitness_history": [float(x).hex() for x in result.best_fitness_history],
        "event_kinds": event_kinds,
    }


def golden_tasks(base: NetSynConfig) -> list:
    """The benchmark tasks ``JOBS`` index into."""
    return list(make_benchmark_suite(length=3, n_programs=6, seed=5, dsl_config=base.dsl))


def train_store(base: NetSynConfig) -> ArtifactStore:
    """The seeded FP, CF and LCS models every shape runs with."""
    store = ArtifactStore()
    store.set("fp", train_fp_model(training=base.training, nn=base.nn, dsl=base.dsl))
    for kind in ("cf", "lcs"):
        store.set(kind, train_trace_model(kind=kind, training=base.training, nn=base.nn, dsl=base.dsl))
    return store


def job_fields(job) -> dict:
    """The record of a finished session job (local or remote)."""
    if job.result is None:
        raise RuntimeError(f"{job.job_id} ended {job.state.value}: {job.error}")
    return _fields(job.result, [event.kind for event in job.events])


def record(store: Optional[ArtifactStore] = None) -> Dict[str, dict]:
    """Run every golden job; ``"<kind>/<shape>/<task>/<seed>"`` -> fields."""
    base = tiny_config()
    tasks = golden_tasks(base)
    store = store or train_store(base)
    jobs: Dict[str, dict] = {}
    for kind in KINDS:
        trace = store.get(kind) if kind in ("cf", "lcs") else None
        for shape, backend_class in SHAPES.items():
            backend = backend_class(kind_config(base, kind)).set_models(trace_artifacts=trace, fp_artifacts=store.get("fp"))
            for index, seed in JOBS:
                task = tasks[index]
                log = EventLog()
                result = backend.solve(task, budget=SearchBudget(limit=BUDGET), seed=seed, listener=log)
                jobs[f"{kind}/{shape}/{task.task_id}/{seed}"] = _fields(result, log.kinds())

    session = SynthesisSession(base, store, methods=tuple(METHODS.values()), service_config=ServiceConfig())
    submitted = [
        (kind, session.submit(tasks[index], method=METHODS[kind], budget=BUDGET, seed=seed))
        for kind in KINDS
        for index, seed in JOBS
    ]
    with session:
        session.run(n_workers=2)
    for kind, job in submitted:
        jobs[f"{kind}/{PARALLEL}/{job.task.task_id}/{job.seed}"] = job_fields(job)
    return jobs


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
