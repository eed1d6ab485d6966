#!/usr/bin/env python
"""Quickstart: open a synthesis session and stream a GA search.

This walks through both phases of NetSyn (Figure 1 of the paper) through
the service API at a laptop-friendly scale:

1. Phase 1 — ``SynthesisService.open_session`` trains the neural fitness
   function once (and persists it: re-running this script warm-starts
   from ``.netsyn-artifacts/`` instead of retraining).
2. Phase 2 — ``session.submit`` + ``session.run`` drive the genetic
   algorithm, streaming progress events (generation index, best fitness,
   candidates consumed, execution-cache hit rate) as it searches.

Run with ``python examples/quickstart.py``; it takes well under a minute.
Without a session, ``NetSynBackend(config).fit()`` followed by
``backend.solve_io(io_set, seed=...)`` runs the same two phases in-process.
"""

import os
import time

from repro import NetSynConfig, ServiceConfig, SynthesisService
from repro.data import make_synthesis_task


def main() -> None:
    # A small configuration: length-4 programs, a few-hundred-program
    # training corpus and an 8,000-candidate search budget.  See
    # NetSynConfig.paper() for the hyper-parameters reported in the paper.
    config = NetSynConfig.small(fitness_kind="fp", seed=3)
    config.training.corpus_size = 2000
    config.training.epochs = 15
    config.ga.max_generations = 2000
    config = config.replace(max_search_space=30_000)

    artifact_dir = os.environ.get("NETSYN_ARTIFACT_DIR", ".netsyn-artifacts")
    service = SynthesisService(
        config,
        service_config=ServiceConfig(artifact_dir=artifact_dir, progress_every=2000),
    )

    print("Phase 1: training (or warm-starting) the neural fitness function ...")
    start = time.time()
    session = service.open_session(methods=("netsyn_fp",))
    print(f"  session ready in {time.time() - start:.1f}s "
          f"(artifacts: {session.store.names()}, persisted under {artifact_dir}/)")
    fp = session.store.get("fp")
    print(f"  FP model validation metrics: {fp.validation_metrics}")

    # A synthesis task: a hidden random target program observed only through
    # input-output examples.
    task = make_synthesis_task(length=4, seed=103, dsl_config=config.dsl)
    print("\nTarget program (hidden from the synthesizer):")
    print("  " + " ; ".join(task.target.names))
    print("Input-output examples:")
    for example in task.io_set:
        print(f"  {example.inputs[0]} -> {example.output}")

    def show_progress(event) -> None:
        if event.kind == "generation" and event.generation % 25 == 0:
            print(f"  [gen {event.generation:4d}] best={event.best_fitness:.3f} "
                  f"mean={event.mean_fitness:.3f} candidates={event.candidates_used} "
                  f"cache_hit_rate={event.cache_hit_rate:.0%}")
        elif event.kind == "neighborhood":
            print(f"  [gen {event.generation:4d}] neighborhood search triggered")

    session.add_listener(show_progress)

    print("\nPhase 2: genetic-algorithm search ...")
    start = time.time()
    job = session.submit(task, seed=3)
    session.run()
    elapsed = time.time() - start

    result = job.result
    if result is None:  # failed or cancelled
        raise SystemExit(f"job {job.job_id} ended {job.state.value}: {job.error}")
    print(f"  job {job.job_id}: {job.state.value} (mechanism: {result.found_by})")
    print(f"  candidate programs examined: {result.candidates_used}")
    print(f"  generations: {result.generations}, wall time: {elapsed:.1f}s")
    if result.found:
        print("  synthesized program:")
        print("    " + " ; ".join(result.program.names))
        print("  (equivalent to the target under every provided example)")
    else:
        print("  no program found within the budget — try a larger "
              "max_search_space or a bigger training corpus.")


if __name__ == "__main__":
    main()
