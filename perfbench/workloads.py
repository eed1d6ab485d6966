"""Workloads of the end-to-end synthesis-job benchmark.

Every job is one seeded synthesis request through the public API:
``NetSynConfig.small`` models, program length 5, the default budget
(8,000 candidates, 300 generations).  Job ``i`` solves task
``make_synthesis_task(length=5, seed=i)`` (singleton and list targets
alternating) with the fixed job seed ``JOB_SEED_BASE + i``, so its result
is fixed by ``i`` whatever runs it.

A run works through a fixed pool of jobs ``0 .. n-1``, ``n`` sized from
the measuring time (:func:`pool_size`), and the workload seed sets the
order: it shuffles the pool's pairs ``(2k, 2k+1)``.  A run completes only
10 to 25 jobs, and whether a job solves early or searches its whole budget
changes its cost several times over, so any seed-drawn job mix (tasks or
search seeds) spread the job-level metrics between seeds wider than any
usable regression bound.  Shuffling whole pairs keeps the served
workload's micro-batches the same too: its two closed-loop clients claim
jobs in pool order, and the server runs each pair of concurrent
submissions as one batch, which lasts as long as its slower job.

Load comes from closed loops: a caller submits a job, waits for its
terminal state, then submits the next, until the pool is done.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import NetSynConfig, ServiceConfig, SynthesisService
from repro.config import ServingConfig
from repro.core.service import JobState
from repro.data import make_synthesis_task
from repro.dsl.equivalence import satisfies_io_set
from repro.dsl.interpreter import Interpreter
from repro.serving import RemoteSynthesisSession, SynthesisServer
from repro.serving.client import RemoteError

PROGRAM_LENGTH = 5
#: job ``i`` searches with seed ``JOB_SEED_BASE + i``
JOB_SEED_BASE = 1
#: cold set-ups timed on each side of the job phase, each in a fresh
#: interpreter: one timed in a process that already ran jobs reads up to
#: 40% slower.  ``setup_s`` is the fastest of them.  Load from elsewhere on
#: a shared machine only ever adds time: within one minute, cold CF
#: set-ups read 0.51 to 0.92 s and their median moved by a third from one
#: batch to the next, while each batch's fastest stayed within 0.51-0.54 s
N_SETUPS = 3
#: seconds one set-up process may take before the run fails
SETUP_TIMEOUT = 120
#: closed-loop clients and pool workers of ``cf-served``
SERVED_CLIENTS = 2
SERVED_WORKERS = 2
#: jobs of a ``cf-served`` run re-run serially in-process to check the
#: served results against the local serial shape
SERVED_REFERENCE_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    fitness_kind: str
    method: str
    served: bool
    #: jobs per second this workload completed when the benchmark was
    #: written (2-vCPU VM); sizes the pool, so it only sets run length
    nominal_jobs_per_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cf-serial", "cf", "netsyn_cf", served=False, nominal_jobs_per_s=0.42),
        Workload("fp-serial", "fp", "netsyn_fp", served=False, nominal_jobs_per_s=0.9),
        Workload("cf-served", "cf", "netsyn_cf", served=True, nominal_jobs_per_s=0.43),
    )
}


def pool_size(workload: Workload, seconds: float) -> int:
    """Jobs in a run meant to measure about ``seconds``: an even number,
    at least one pair."""
    return max(2, 2 * round(seconds * workload.nominal_jobs_per_s / 2))


class TaskStream:
    """A run's job pool in its seeded order; callers claim jobs in turn."""

    def __init__(self, seed: int, size: int) -> None:
        pairs = [(k, k + 1) for k in range(0, size - 1, 2)]
        random.Random(seed).shuffle(pairs)
        self.order = [index for pair in pairs for index in pair]
        self._next = 0
        self._lock = threading.Lock()

    def claim(self) -> Optional[int]:
        with self._lock:
            if self._next >= len(self.order):
                return None
            self._next += 1
            return self.order[self._next - 1]

    def task(self, index: int) -> Any:
        return make_synthesis_task(
            length=PROGRAM_LENGTH, seed=index, singleton=index % 2 == 0, task_id=f"t{index}"
        )

    def job_seed(self, index: int) -> int:
        return JOB_SEED_BASE + index


@dataclass
class JobRecord:
    index: int
    task: Any
    submitted: float
    acked: float = 0.0
    ended: float = 0.0
    job_id: str = ""
    state: str = "refused"
    result: Any = None
    error: str = ""
    #: (arrival time, event) for every event the caller received
    events: List[Tuple[float, Any]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.state in (JobState.SOLVED.value, JobState.EXHAUSTED.value)


class EventRecorder:
    """Listener filing every received event under its job, with arrival time."""

    def __init__(self) -> None:
        self.by_job: Dict[str, List[Tuple[float, Any]]] = {}
        self._lock = threading.Lock()

    def __call__(self, event: Any) -> None:
        now = perf_counter()
        if not event.job_id:
            return
        events = self.by_job.get(event.job_id)
        if events is None:
            with self._lock:
                events = self.by_job.setdefault(event.job_id, [])
        events.append((now, event))


def digest(result: Any) -> Tuple:
    """The per-job fields every execution shape must reproduce exactly."""
    names = tuple(result.program.names) if result.program is not None else ()
    return (result.found, result.found_by, result.candidates_used, result.generations, names)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Stack:
    """One set-up system: a session, and for served workloads its server."""

    session: Any
    server: Any = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def fresh_dir(parent: Path, name: str) -> str:
    """A new artifact directory; refuses one that already exists, because
    a previous run's weights and L3 cache log would warm this one."""
    path = parent / name
    if path.exists():
        raise RuntimeError(f"artifact directory {path} already exists")
    return str(path)


def set_up(workload: Workload, artifact_dir: str) -> Stack:
    """Cold-open a session (trains the Phase-1 models); for a served
    workload also start its server and wait until it accepts connections."""
    service = SynthesisService(
        NetSynConfig.small(workload.fitness_kind), ServiceConfig(artifact_dir=artifact_dir)
    )
    session = service.open_session([workload.method])
    if not workload.served:
        return Stack(session)
    server = SynthesisServer(session, ServingConfig(n_workers=SERVED_WORKERS)).start_background()
    with RemoteSynthesisSession(server.address) as probe:
        probe.ping()
    return Stack(session, server)


def setup_seconds(workload: Workload, scratch: Path, tag: str) -> List[float]:
    """Time :data:`N_SETUPS` cold set-ups, each in a fresh interpreter
    running this file (imports are not timed)."""
    here = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": str(here.parent / "src")}
    durations = []
    for n in range(N_SETUPS):
        artifact_dir = fresh_dir(scratch, f"artifacts-{tag}-{n}")
        proc = subprocess.run(
            [sys.executable, str(here / "workloads.py"), workload.name, artifact_dir],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload.name} failed:\n{proc.stderr}")
        durations.append(float(proc.stdout.split()[-1]))
    return durations


# ---------------------------------------------------------------------------
# closed loops


def _serial_loop(
    session: Any, workload: Workload, tasks: TaskStream, on_job: Callable[[str], None],
) -> List[JobRecord]:
    recorder = EventRecorder()
    session.add_listener(recorder)
    records: List[JobRecord] = []
    while (index := tasks.claim()) is not None:
        record = JobRecord(index, tasks.task(index), submitted=perf_counter())
        job = session.submit(
            record.task, method=workload.method, seed=tasks.job_seed(index),
            program_length=PROGRAM_LENGTH,
        )
        record.acked = perf_counter()
        record.job_id = job.job_id
        on_job(job.job_id)
        session.run([job])
        record.ended = perf_counter()
        on_job("")
        record.state, record.result, record.error = job.state.value, job.result, job.error or ""
        record.events = recorder.by_job.get(job.job_id, [])
        records.append(record)
    return records


def _client_loop(
    address: str, workload: Workload, tasks: TaskStream,
    on_job: Callable[[str], None], records: List[JobRecord],
) -> None:
    recorder = EventRecorder()
    with RemoteSynthesisSession(address) as client:
        client.add_listener(recorder)
        while (index := tasks.claim()) is not None:
            record = JobRecord(index, tasks.task(index), submitted=perf_counter())
            records.append(record)
            try:
                job = client.submit(
                    record.task, method=workload.method, seed=tasks.job_seed(index),
                    program_length=PROGRAM_LENGTH,
                )
            except (RemoteError, ConnectionError) as error:
                # refused (over_capacity, server_draining) past the client's
                # own retries, or unreachable: counted against the attempts
                record.ended = perf_counter()
                record.error = f"{type(error).__name__}: {error}"
                continue
            record.acked = perf_counter()
            record.job_id = job.job_id
            on_job(job.job_id)
            try:
                client.run([job])
            except (RemoteError, ConnectionError) as error:
                record.error = f"{type(error).__name__}: {error}"
            record.ended = perf_counter()
            on_job("")
            record.state, record.result = job.state.value, job.result
            record.error = record.error or job.error or ""
            record.events = recorder.by_job.get(job.job_id, [])


@dataclass
class JobPhase:
    """What :func:`run_jobs` measured."""

    #: job records, sorted by task index
    records: List[JobRecord]
    #: the phase's ``(start, end)`` on the ``perf_counter`` clock
    window: Tuple[float, float]
    #: peak memory of the job phase alone (see :class:`MemoryMeter`)
    peak_rss_mb: float
    #: peak RSS of this process before the job phase (its set-up)
    setup_rss_mb: float


def run_jobs(
    stack: Stack, workload: Workload, tasks: TaskStream,
    on_job: Callable[[str], None] = lambda job_id: None,
) -> JobPhase:
    """Drive closed-loop load until every job of ``tasks`` has ended."""
    meter = MemoryMeter()
    start = perf_counter()
    if not workload.served:
        records = _serial_loop(stack.session, workload, tasks, on_job)
    else:
        records: List[JobRecord] = []
        errors: List[BaseException] = []

        def client() -> None:
            try:
                _client_loop(stack.server.address, workload, tasks, on_job, records)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=client, name=f"bench-client-{n}") for n in range(SERVED_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
    end = perf_counter()
    return JobPhase(
        sorted(records, key=lambda r: r.index), (start, end), meter.peak_mb(), meter.setup_rss_mb
    )


def reference_digests(
    stack: Stack, workload: Workload, tasks: TaskStream, records: Sequence[JobRecord]
) -> Dict[int, Tuple]:
    """Re-run ``records``' jobs serially in the stack's own session."""
    digests = {}
    for record in records:
        job = stack.session.submit(
            record.task, method=workload.method, seed=tasks.job_seed(record.index),
            program_length=PROGRAM_LENGTH,
        )
        stack.session.run([job], n_workers=1)
        digests[record.index] = digest(job.result) if job.result is not None else None
    return digests


# ---------------------------------------------------------------------------
# output checks


def check_jobs(records: Sequence[JobRecord]) -> List[str]:
    """Every problem with the jobs' outputs (empty when all are correct)."""
    problems: List[str] = []
    reference = Interpreter(trace=False, compiled=False)
    for record in records:
        label = f"task {record.index} ({record.job_id or 'not admitted'})"
        if not record.job_id:
            continue  # refused: counted as failed, nothing was produced
        if not JobState(record.state).terminal:
            problems.append(f"{label}: not terminal ({record.state})")
            continue
        if not record.completed:
            # nothing in these workloads cancels a job, and an admitted job
            # must not fail: only a refusal at submit is an allowed miss
            problems.append(f"{label}: {record.state}: {record.error}")
            continue
        result = record.result
        if result.found and (
            result.program is None
            or not satisfies_io_set(result.program, record.task.io_set, reference)
        ):
            problems.append(f"{label}: solved program does not reproduce its IO examples")
        kinds = [event.kind for _, event in record.events]
        if not kinds or kinds[0] != "started" or kinds[-1] != "finished":
            problems.append(f"{label}: event stream {kinds[:1]}..{kinds[-1:]} is not started..finished")
            continue
        finished = record.events[-1][1]
        if finished.found != result.found or finished.candidates_used != result.candidates_used:
            problems.append(f"{label}: finished event disagrees with job.result")
    return problems


def check_digests(records: Sequence[JobRecord], reference: Dict[int, Tuple]) -> List[str]:
    """Served results must equal serial results for the same tasks."""
    problems = []
    for record in records:
        if record.index in reference and record.completed:
            if digest(record.result) != reference[record.index]:
                problems.append(
                    f"task {record.index}: served digest {digest(record.result)} != "
                    f"serial digest {reference[record.index]}"
                )
    return problems


# ---------------------------------------------------------------------------
# end-to-end metrics


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _status_kib(field: str) -> int:
    """One ``kB`` field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


class MemoryMeter:
    """Peak memory from now on: this process plus its largest worker child.

    Creating one resets this process's RSS high-water mark (Linux
    ``/proc/self/clear_refs``), so the model training of the set-up before
    the job phase does not set the peak.  A worker forked from this process
    counts the pages it shares with it in its own RSS; only its growth past
    this process's size at the reset is added, so shared pages count once.
    """

    def __init__(self) -> None:
        gc.collect()
        self.setup_rss_mb = _status_kib("VmHWM") / 1024.0
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
        self._base_kib = _status_kib("VmRSS")
        self._children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def peak_mb(self) -> float:
        own = _status_kib("VmHWM")
        # the high-water mark of every child reaped so far, the timed
        # set-up processes too: a worker counts only if it raised it
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        worker = max(0, children - self._base_kib) if children > self._children_before else 0
        return (own + worker) / 1024.0


def end_to_end(
    phase: JobPhase, setups: Sequence[float]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The end-to-end metrics of one job phase, and their sample counts."""
    records = phase.records
    wall = phase.window[1] - phase.window[0]
    done = [r for r in records if r.completed]
    attempted = len(records)
    # a job that failed or was refused counts as missing every latency
    # limit: it enters the samples at the phase length, never dropped
    job_s = [r.ended - r.submitted if r.completed else wall for r in records]
    gaps_ms: List[float] = []
    for record in done:
        times = [t for t, event in record.events if event.kind == "generation"]
        gaps_ms.extend((b - a) * 1e3 for a, b in zip(times, times[1:]))
    candidates = sum(r.result.candidates_used for r in done)
    metrics = {
        "setup_s": min(setups),
        "jobs_per_s": len(done) / wall,
        "candidates_per_s": candidates / wall,
        "job_s_p50": _percentile(job_s, 50),
        "gen_ms_p50": _percentile(gaps_ms, 50),
        "gen_ms_p99": _percentile(gaps_ms, 99),
        "completed_frac": len(done) / attempted if attempted else 0.0,
        "solved_frac": sum(r.result.found for r in done) / attempted if attempted else 0.0,
        "candidates_per_job": candidates / len(done) if done else 0.0,
        "failed_frac": (attempted - len(done)) / attempted if attempted else 0.0,
        "peak_rss_mb": phase.peak_rss_mb,
        "setup_rss_mb": phase.setup_rss_mb,
    }
    samples = {
        "setup_s": len(setups),
        "job_s_p50": len(job_s),
        "gen_ms_p50": len(gaps_ms),
        "gen_ms_p99": len(gaps_ms),
    }
    return metrics, samples


def caller_side(records: Sequence[JobRecord], served: bool) -> Dict[str, float]:
    """Per-layer metrics read off the callers' own clocks and events."""
    done = [r for r in records if r.completed]
    starts = {r.job_id: next((t for t, e in r.events if e.kind == "started"), None) for r in done}
    metrics = {
        "serving.queue_wait_s_p50": 0.0,
        "serving.submit_s_p50": 0.0,
        "serving.events_streamed": 0.0,
    }
    if served:
        metrics["serving.queue_wait_s_p50"] = _percentile(
            [starts[r.job_id] - r.acked for r in done if starts[r.job_id] is not None], 50
        )
        metrics["serving.submit_s_p50"] = _percentile([r.acked - r.submitted for r in records if r.job_id], 50)
        metrics["serving.events_streamed"] = float(sum(len(r.events) for r in records))
    metrics["events.per_job"] = sum(len(r.events) for r in done) / len(done) if done else 0.0
    for counter in ("cache_hits", "cache_misses", "shared_hits", "shared_cross_hits"):
        total = 0
        for record in done:
            generations = [e for _, e in record.events if e.kind == "generation"]
            if generations:
                total += getattr(generations[-1], counter)
        metrics[f"events.{counter}"] = float(total)
    return metrics


if __name__ == "__main__":
    # one timed cold set-up: python3 workloads.py <workload> <artifact dir>
    _start = perf_counter()
    set_up(WORKLOADS[sys.argv[1]], sys.argv[2]).close()
    print(perf_counter() - _start)
