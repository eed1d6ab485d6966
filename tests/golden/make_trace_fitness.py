"""Record the golden trajectories of seeded tiny CF and LCS jobs.

Every job is one seeded ``NetSynBackend.solve`` at the tiny configuration
of ``tests/conftest.py`` (trained from scratch, seeded), run in two
execution shapes: the columnar batch engine (``vectorized=True``, the
default) and the per-candidate serial engine (``vectorized=False``).
Per job the record keeps what a behaviour change would move: the result,
``found_by``, candidates used, generations, the program's function names,
both fitness histories as ``float.hex`` strings (exact), and the sequence
of progress-event kinds.

``tests/test_golden_trajectories.py`` re-runs the same jobs and compares
field by field.  Regenerate only for an intended behaviour change, and
review the diff of ``trace_fitness.json``::

    PYTHONPATH=src python tests/golden/make_trace_fitness.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro.config import DSLConfig, GAConfig, NeighborhoodConfig, NNConfig, NetSynConfig, TrainingConfig
from repro.core.netsyn import NetSynBackend
from repro.core.phase1 import train_fp_model, train_trace_model
from repro.data import make_benchmark_suite
from repro.events import EventLog
from repro.ga.budget import SearchBudget

GOLDEN = Path(__file__).resolve().parent / "trace_fitness.json"
KINDS = ("cf", "lcs")
#: execution shape name -> ``NetSynConfig.vectorized``
SHAPES = {"serial-vectorized": True, "serial-scalar": False}
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


def record() -> Dict[str, dict]:
    """Run every golden job; ``"<kind>/<shape>/<task>/<seed>"`` -> fields."""
    base = tiny_config()
    tasks = list(make_benchmark_suite(length=3, n_programs=6, seed=5, dsl_config=base.dsl))
    fp = train_fp_model(training=base.training, nn=base.nn, dsl=base.dsl)
    jobs: Dict[str, dict] = {}
    for kind in KINDS:
        trace = train_trace_model(kind=kind, training=base.training, nn=base.nn, dsl=base.dsl)
        for shape, vectorized in SHAPES.items():
            config = base.replace(fitness_kind=kind, vectorized=vectorized)
            backend = NetSynBackend(config).set_models(trace_artifacts=trace, fp_artifacts=fp)
            for index, seed in JOBS:
                task = tasks[index]
                log = EventLog()
                result = backend.solve(task, budget=SearchBudget(limit=BUDGET), seed=seed, listener=log)
                jobs[f"{kind}/{shape}/{task.task_id}/{seed}"] = {
                    "found": result.found,
                    "found_by": result.found_by,
                    "candidates_used": result.candidates_used,
                    "generations": result.generations,
                    "program": [] if result.program is None else list(result.program.names),
                    "average_fitness_history": [float(x).hex() for x in result.average_fitness_history],
                    "best_fitness_history": [float(x).hex() for x in result.best_fitness_history],
                    "event_kinds": log.kinds(),
                }
    return jobs


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
