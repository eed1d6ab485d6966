"""Golden trajectories: seeded tiny CF/LCS/FP/edit jobs against committed data.

``tests/golden/trace_fitness.json`` holds the recorded trajectory of every
job ``tests/golden/make_trace_fitness.py`` runs (four fitness kinds; the
columnar, the per-candidate serial and the 2-worker session shape).  Any
change to what a seeded job does — its result, its search path, a single
bit of a fitness history, or the events it emits — fails here, field by
field.

Three more shapes run the same 16 jobs against the committed
``parallel-2`` records without being recorded themselves: ``pool-reused``
(eight successive 2-job runs of one session, so every run after the first
is served by the same worker pool and its warm workers), ``served`` (an
in-process 2-worker ``SynthesisServer`` driven by one
``RemoteSynthesisSession``) and ``journal-recovered`` (the jobs admitted
to a server's job journal, as by a server killed right after admitting
them, then re-admitted and run by a 2-worker server restarted on it).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_trace_fitness", GOLDEN_DIR / "make_trace_fitness.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return _generator()


@pytest.fixture(scope="module")
def store(generator):
    return generator.train_store(generator.tiny_config())


@pytest.fixture(scope="module")
def recorded(generator, store):
    return generator.record(store)


@pytest.fixture(scope="module")
def golden():
    return json.loads((GOLDEN_DIR / "trace_fitness.json").read_text())


def _golden_session(generator, store):
    from repro.config import ServiceConfig
    from repro.core.service import SynthesisSession

    return SynthesisSession(
        generator.tiny_config(), store, methods=tuple(generator.METHODS.values()),
        service_config=ServiceConfig(),
    )


def _assert_matches_parallel(generator, golden, kind, job, fields):
    want = golden[f"{kind}/{generator.PARALLEL}/{job.task.task_id}/{job.seed}"]
    assert sorted(fields) == sorted(want), job.job_id
    for field in want:
        assert fields[field] == want[field], f"{kind}/{job.task.task_id}/{job.seed}: {field}"


def test_generator_uses_the_conftest_tiny_config(generator, tiny_netsyn_config):
    assert generator.tiny_config() == tiny_netsyn_config


def test_trajectories_match_golden(recorded, golden):
    assert sorted(recorded) == sorted(golden)
    for job, want in golden.items():
        got = recorded[job]
        assert sorted(got) == sorted(want), job
        for field in want:
            assert got[field] == want[field], f"{job}: {field}"


def test_every_shape_records_the_same_trajectory(generator):
    golden = json.loads((GOLDEN_DIR / "trace_fitness.json").read_text())
    shapes = (*generator.SHAPES, generator.PARALLEL)
    for kind in generator.KINDS:
        jobs = {key.split("/", 2)[2] for key in golden if key.startswith(f"{kind}/")}
        assert len(jobs) == len(generator.JOBS), kind
        for job in jobs:
            first, *rest = (golden[f"{kind}/{shape}/{job}"] for shape in shapes)
            assert all(other == first for other in rest), f"{kind}/{job}"


def test_pool_reused_shape_matches_parallel_records(generator, store, golden):
    """Eight successive 2-job runs of one session share one pool."""
    import gc
    import multiprocessing

    def pids():
        return frozenset(process.pid for process in multiprocessing.active_children())

    tasks = generator.golden_tasks(generator.tiny_config())
    pairs = [(kind, index, seed) for kind in generator.KINDS for index, seed in generator.JOBS]
    gc.collect()
    strays = pids()
    with _golden_session(generator, store) as session:
        pools, workers = set(), set()
        for first in range(0, len(pairs), 2):
            batch = [
                (kind, session.submit(tasks[index], method=generator.METHODS[kind],
                                      budget=generator.BUDGET, seed=seed))
                for kind, index, seed in pairs[first:first + 2]
            ]
            session.run([job for _kind, job in batch], n_workers=2)
            pools.add(id(session._pool))
            workers.add(pids() - strays)
            for kind, job in batch:
                _assert_matches_parallel(generator, golden, kind, job, generator.job_fields(job))
        assert len(pools) == 1 and len(workers) == 1, "the runs did not share one pool"


def test_served_shape_matches_parallel_records(generator, store, golden):
    """One client of an in-process 2-worker server runs the 16 jobs."""
    from repro.config import ServingConfig
    from repro.serving import RemoteSynthesisSession, SynthesisServer

    tasks = generator.golden_tasks(generator.tiny_config())
    with _golden_session(generator, store) as session:
        with SynthesisServer(session, ServingConfig(n_workers=2)) as server:
            with RemoteSynthesisSession(server.address) as client:
                submitted = [
                    (kind, client.submit(tasks[index], method=generator.METHODS[kind],
                                         budget=generator.BUDGET, seed=seed))
                    for kind in generator.KINDS
                    for index, seed in generator.JOBS
                ]
                client.run()
            assert session._pool is not None, "no batch reached the worker pool"
    for kind, job in submitted:
        _assert_matches_parallel(generator, golden, kind, job, generator.job_fields(job))


def test_journal_recovered_shape_matches_parallel_records(generator, store, golden, tmp_path):
    """A 2-worker server restarted on a journal of 16 admitted jobs."""
    from repro.config import ServingConfig
    from repro.serving import JobJournal, RemoteSynthesisSession, SynthesisServer
    from repro.serving.protocol import task_to_wire

    tasks = generator.golden_tasks(generator.tiny_config())
    jobs = [(kind, index, seed) for kind in generator.KINDS for index, seed in generator.JOBS]
    admitted = [(f"job-{number}", *job) for number, job in enumerate(jobs, start=1)]
    with JobJournal(tmp_path) as journal:
        for job_id, kind, index, seed in admitted:
            journal.admit(job_id, task_to_wire(tasks[index]), method=generator.METHODS[kind],
                          budget=generator.BUDGET, seed=seed, idempotency_key=job_id)
    with _golden_session(generator, store) as session:
        config = ServingConfig(n_workers=2, journal_dir=str(tmp_path))
        with SynthesisServer(session, config) as server:
            assert server.recovered_jobs == [job_id for job_id, *_ in admitted]
            with RemoteSynthesisSession(server.address) as client:
                # resubmitting an admitted key attaches to the recovered job
                recovered = [
                    (kind, client.submit(tasks[index], method=generator.METHODS[kind],
                                         budget=generator.BUDGET, seed=seed,
                                         idempotency_key=job_id))
                    for job_id, kind, index, seed in admitted
                ]
                assert all(job.duplicate for _kind, job in recovered)
                client.run()
            assert session._pool is not None, "no recovered batch reached the worker pool"
    for kind, job in recovered:
        _assert_matches_parallel(generator, golden, kind, job, generator.job_fields(job))
