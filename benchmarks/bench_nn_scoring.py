"""NN-FF scoring throughput: cold vs warm, and per-worker serving RSS.

The GA re-scores its whole population every generation, but with
batch-shape-invariant scoring (fixed padding widths, never-singleton GEMM
batches) the predicted fitness of a gene is one well-defined number and
can be memoized per ``(program, io_set)``.  This benchmark measures what
that buys:

* **cold** — an empty score namespace in the fitness executor's
  :class:`~repro.execution.EvaluationCache`: every gene is traced,
  encoded and forwarded;
* **warm** — a GA-shaped re-scoring of the same population (elites and
  survivors dominate): mostly cache lookups;
* **serving** — one 2-worker session run, whose job states must equal a
  serial run's, and the peak resident memory of each pool worker (each
  holds the trained store it was handed when the pool forked it).

Results are appended to ``BENCH_nn_scoring.json`` at the repository root
so the trajectory across PRs is preserved.

Scale knobs: ``NETSYN_BENCH_POPULATION`` (genes, default 120),
``NETSYN_BENCH_GENERATIONS`` (warm re-scoring rounds, default 5),
``NETSYN_BENCH_SURVIVORS`` (fraction of the population kept per round,
default 0.7), ``NETSYN_BENCH_WORKERS`` (serving comparison, default 2;
0 skips it), ``NETSYN_BENCH_JOBS`` (jobs for the serving run, default 4).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

from repro.config import NetSynConfig, ServiceConfig
from repro.core.artifacts import ArtifactStore
from repro.core.service import SynthesisSession
from repro.data import make_benchmark_suite, make_synthesis_task
from repro.fitness.functions import LearnedTraceFitness, trace_score_namespace
from repro.baselines.registry import ensure_artifacts
from repro.ga.operators import GeneOperators

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_nn_scoring.json"

POPULATION = int(os.environ.get("NETSYN_BENCH_POPULATION", "120"))
GENERATIONS = int(os.environ.get("NETSYN_BENCH_GENERATIONS", "5"))
SURVIVORS = float(os.environ.get("NETSYN_BENCH_SURVIVORS", "0.7"))
WORKERS = int(os.environ.get("NETSYN_BENCH_WORKERS", "2"))
JOBS = int(os.environ.get("NETSYN_BENCH_JOBS", "4"))


def _rss_bytes() -> int:
    """Resident set size of this process (bytes; 0 when unreadable)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _store_and_task():
    config = NetSynConfig.small("cf")
    store = ArtifactStore()
    ensure_artifacts(store, config, methods=("netsyn_cf",))
    task = make_synthesis_task(length=config.program_length, seed=3, dsl_config=config.dsl)
    return config, store, task


def _populations(config, rng_seed=23):
    """GA-shaped scoring rounds: each round keeps a survivor fraction."""
    operators = GeneOperators(program_length=config.program_length, rng=np.random.default_rng(rng_seed))
    population = [operators.random_gene() for _ in range(POPULATION)]
    rounds = [list(population)]
    rng = np.random.default_rng(rng_seed + 1)
    for _ in range(GENERATIONS - 1):
        keep = int(POPULATION * SURVIVORS)
        survivors = [population[i] for i in rng.permutation(POPULATION)[:keep]]
        fresh = [operators.random_gene() for _ in range(POPULATION - keep)]
        population = survivors + fresh
        rounds.append(list(population))
    return rounds


def _append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY_PATH.exists():
        try:
            history = json.loads(TRAJECTORY_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def _peak_rss_kib(pid: int) -> int:
    """Peak resident set size of a live process (KiB; 0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _serving_memory(config, store, record: dict) -> None:
    """Per-worker peak RSS of a parallel run that must equal a serial one."""
    if WORKERS <= 0:
        return
    suite = make_benchmark_suite(
        length=config.program_length, n_programs=JOBS, seed=9, dsl_config=config.dsl
    )

    def run(n_workers: int):
        with SynthesisSession(
            config, store, methods=("netsyn_cf",),
            service_config=ServiceConfig(persist_caches=False),
        ) as session:
            jobs = [session.submit(task, budget=300, seed=1) for task in suite]
            start = time.perf_counter()
            session.run(jobs, n_workers=n_workers)
            elapsed = time.perf_counter() - start
            # the pool's workers are alive until the session closes
            workers = [
                child.pid for child in multiprocessing.active_children()
                if child.name.startswith("netsyn-worker-")
            ]
            peaks = sorted(_peak_rss_kib(pid) for pid in workers)
        return elapsed, [job.state.value for job in jobs], peaks

    serial_time, serial_states, _ = run(1)
    parallel_time, parallel_states, worker_peaks = run(WORKERS)
    assert parallel_states == serial_states, "parallel serving changed results"
    record["serving"] = {
        "n_workers": WORKERS,
        "n_jobs": len(suite),
        "serial_seconds": serial_time,
        "parallel_seconds": parallel_time,
        # VmHWM of each live pool worker: everything it touched, forked
        # pages shared with the parent included
        "worker_peak_kib": worker_peaks,
    }


def test_nn_scoring_throughput_and_serving():
    config, store, task = _store_and_task()
    artifacts = store.get("cf")
    rounds = _populations(config)
    total_scored = sum(len(r) for r in rounds)

    def build(memoize: bool) -> LearnedTraceFitness:
        return LearnedTraceFitness(
            artifacts.model,
            kind="cf",
            encoder=artifacts.encoder,
            memoize=memoize,
            cache_tag="bench",
            program_length=config.program_length,
        )

    # -- reference: the historical path, every gene forwarded every round
    legacy = build(memoize=False)
    start = time.perf_counter()
    legacy_scores = [legacy.score(population, task.io_set) for population in rounds]
    legacy_elapsed = time.perf_counter() - start

    # -- cold: first scoring of a fresh population (empty score cache) --
    memoized = build(memoize=True)
    start = time.perf_counter()
    memo_scores = [memoized.score(rounds[0], task.io_set)]
    cold_elapsed = time.perf_counter() - start

    # -- warm: re-scoring the already-scored population (the elites /
    # survivors case memoization exists for: pure cache lookups) --------
    start = time.perf_counter()
    warm_scores = memoized.score(rounds[0], task.io_set)
    warm_elapsed = time.perf_counter() - start
    np.testing.assert_array_equal(warm_scores, memo_scores[0])

    # -- GA-shaped: later rounds keep a survivor fraction ---------------
    start = time.perf_counter()
    memo_scores += [memoized.score(population, task.io_set) for population in rounds[1:]]
    ga_elapsed = time.perf_counter() - start

    for want, got in zip(legacy_scores, memo_scores):
        np.testing.assert_array_equal(want, got)

    cold_rate = len(rounds[0]) / cold_elapsed
    warm_rate = len(rounds[0]) / warm_elapsed
    ga_scored = sum(len(r) for r in rounds[1:])
    hits, misses = memoized.executor.cache.stats.by_namespace[trace_score_namespace("cf", "bench")]
    score_hit_rate = hits / (hits + misses)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "population": POPULATION,
        "generations": GENERATIONS,
        "survivor_fraction": SURVIVORS,
        "total_scored": total_scored,
        "cold_scores_per_second": cold_rate,
        "warm_scores_per_second": warm_rate,
        "warm_speedup": warm_rate / cold_rate,
        "ga_shaped_scores_per_second": ga_scored / ga_elapsed if ga_elapsed else None,
        "legacy_scores_per_second": total_scored / legacy_elapsed,
        "end_to_end_speedup_vs_legacy": legacy_elapsed / (cold_elapsed + warm_elapsed + ga_elapsed),
        "score_cache_hit_rate": score_hit_rate,
        "rss_bytes": _rss_bytes(),
    }
    speedup = record["warm_speedup"]
    _serving_memory(config, store, record)
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # Regression gate: re-scoring a population whose majority survived
    # must be at least 2x the score-everything path.
    assert speedup >= 2.0, f"warm scoring speedup {speedup:.2f}x below the 2x gate"
    assert score_hit_rate > 0.0


if __name__ == "__main__":
    test_nn_scoring_throughput_and_serving()
