"""Configuration dataclasses for every subsystem.

All scale-sensitive quantities from the paper (corpus size, candidate
budget, GA hyper-parameters from Appendix B, number of IO examples, test
suite sizes) live here so experiments can be run at laptop scale by
default and at paper scale by changing a config, not code.

Presets
-------
``NetSynConfig.small()``
    A configuration that trains and synthesizes in seconds; used by the
    unit tests and the default benchmark scale.
``NetSynConfig.paper()``
    The hyper-parameters reported in Appendix B of the paper (pool size
    100, 5 elites, 40% crossover, 30% mutation, 30,000 generations,
    3,000,000-candidate budget).  Training corpus size is still a
    parameter because the paper's 4.2M-program corpus is far beyond an
    offline CPU run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


# ---------------------------------------------------------------------------
# DSL / data generation
# ---------------------------------------------------------------------------


@dataclass
class DSLConfig:
    """Input generation and IO-example parameters."""

    #: inclusive bounds on generated input-list lengths
    min_input_length: int = 5
    max_input_length: int = 10
    #: inclusive bounds on generated input values
    min_input_value: int = -64
    max_input_value: int = 64
    #: number of IO examples per synthesis task (``m`` in the paper)
    n_io_examples: int = 5

    def validate(self) -> None:
        if self.min_input_length < 0 or self.max_input_length < self.min_input_length:
            raise ValueError("invalid input length bounds")
        if self.min_input_value > self.max_input_value:
            raise ValueError("invalid input value bounds")
        if self.n_io_examples <= 0:
            raise ValueError("n_io_examples must be positive")


# ---------------------------------------------------------------------------
# Genetic algorithm (Appendix B)
# ---------------------------------------------------------------------------


@dataclass
class GAConfig:
    """Genetic-algorithm hyper-parameters (Appendix B of the paper)."""

    population_size: int = 100
    #: number of top genes copied unchanged to the next generation
    elite_count: int = 5
    crossover_rate: float = 0.40
    mutation_rate: float = 0.30
    max_generations: int = 30_000

    def validate(self) -> None:
        if self.population_size <= 1:
            raise ValueError("population_size must exceed 1")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must be in [0, population_size)")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be a probability")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be a probability")
        if self.crossover_rate + self.mutation_rate > 1.0:
            raise ValueError("crossover_rate + mutation_rate must not exceed 1")
        if self.max_generations <= 0:
            raise ValueError("max_generations must be positive")


@dataclass
class NeighborhoodConfig:
    """Restricted local neighborhood search (Section 4.2.2)."""

    enabled: bool = True
    #: "bfs" or "dfs" neighborhood construction
    strategy: str = "bfs"
    #: number of top-scoring genes whose neighborhoods are searched
    top_n: int = 3
    #: sliding window ``w`` of generations used by the saturation trigger
    window: int = 10
    #: minimum generations between two neighborhood searches
    cooldown: int = 5

    def validate(self) -> None:
        if self.strategy not in ("bfs", "dfs"):
            raise ValueError("strategy must be 'bfs' or 'dfs'")
        if self.top_n <= 0:
            raise ValueError("top_n must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


# ---------------------------------------------------------------------------
# Neural network fitness function
# ---------------------------------------------------------------------------


@dataclass
class NNConfig:
    """Architecture of the neural-network fitness function (Figure 2)."""

    #: dimension of the learned value/function embeddings
    embedding_dim: int = 16
    #: LSTM hidden state size (also the size of the pooled encoder)
    hidden_dim: int = 32
    #: width of the fully connected head
    fc_dim: int = 32
    #: "lstm" reproduces the paper's encoder; "pooled" is a faster
    #: bag-of-embeddings MLP encoder used for quick experiments
    encoder: str = "lstm"
    #: dropout probability applied to the fully connected head during training
    dropout: float = 0.0

    def validate(self) -> None:
        if self.embedding_dim <= 0 or self.hidden_dim <= 0 or self.fc_dim <= 0:
            raise ValueError("layer sizes must be positive")
        if self.encoder not in ("lstm", "pooled"):
            raise ValueError("encoder must be 'lstm' or 'pooled'")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class TrainingConfig:
    """Phase-1 training-data generation and optimization parameters."""

    #: number of example programs in the training corpus
    corpus_size: int = 2_000
    #: length of the corpus programs (the paper trains on length-5 programs)
    program_length: int = 5
    #: IO examples per corpus program
    n_io_examples: int = 5
    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-2
    validation_fraction: float = 0.1
    #: balance the CF/LCS label distribution as the paper does
    balance_labels: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.corpus_size <= 0:
            raise ValueError("corpus_size must be positive")
        if self.program_length <= 0:
            raise ValueError("program_length must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        if not 0.0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


# ---------------------------------------------------------------------------
# NetSyn (core) and experiments
# ---------------------------------------------------------------------------

FITNESS_KINDS = ("cf", "lcs", "fp", "edit", "oracle_cf", "oracle_lcs")


@dataclass
class NetSynConfig:
    """Complete configuration of a NetSyn synthesizer.

    Two bounded memos sit above execution: predicted NN-FF scores
    (``score_cache_size``) and FP probability maps (``map_cache_size``).
    Traces need none: NN-FF scoring encodes them straight from the
    execution engine's step columns.
    """

    #: which fitness function drives the GA: "cf", "lcs", "fp" (learned),
    #: "edit" (output edit distance) or "oracle_cf"/"oracle_lcs" (upper bound)
    fitness_kind: str = "cf"
    #: length ``L`` of candidate programs generated by the GA
    program_length: int = 5
    #: maximum number of candidate programs examined before giving up
    max_search_space: int = 50_000
    #: use the function-probability map to guide mutation (MutationFP)
    fp_guided_mutation: bool = True
    seed: int = 0
    #: capacity of the predicted-score LRU (per fitness kind)
    score_cache_size: int = 100_000
    #: capacity of the FP probability-map LRU (one small vector per spec)
    map_cache_size: int = 512

    dsl: DSLConfig = field(default_factory=DSLConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    neighborhood: NeighborhoodConfig = field(default_factory=NeighborhoodConfig)
    nn: NNConfig = field(default_factory=NNConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def validate(self) -> None:
        if self.fitness_kind not in FITNESS_KINDS:
            raise ValueError(f"fitness_kind must be one of {FITNESS_KINDS}")
        if self.program_length <= 0:
            raise ValueError("program_length must be positive")
        if self.max_search_space <= 0:
            raise ValueError("max_search_space must be positive")
        if min(self.score_cache_size, self.map_cache_size) < 0:
            raise ValueError("cache sizes must be non-negative")
        self.dsl.validate()
        self.ga.validate()
        self.neighborhood.validate()
        self.nn.validate()
        self.training.validate()

    # -- presets ---------------------------------------------------------
    @classmethod
    def small(cls, fitness_kind: str = "cf", seed: int = 0) -> "NetSynConfig":
        """A fast configuration suitable for tests and quick examples."""
        return cls(
            fitness_kind=fitness_kind,
            program_length=4,
            max_search_space=8_000,
            seed=seed,
            ga=GAConfig(population_size=40, elite_count=4, max_generations=300),
            neighborhood=NeighborhoodConfig(top_n=2, window=6),
            nn=NNConfig(embedding_dim=8, hidden_dim=16, fc_dim=16, encoder="pooled"),
            training=TrainingConfig(
                corpus_size=300,
                program_length=4,
                n_io_examples=3,
                epochs=3,
                batch_size=32,
                seed=seed,
            ),
            dsl=DSLConfig(n_io_examples=3, min_input_length=4, max_input_length=7),
        )

    @classmethod
    def paper(cls, fitness_kind: str = "cf", seed: int = 0) -> "NetSynConfig":
        """Appendix-B hyper-parameters (corpus size remains configurable)."""
        return cls(
            fitness_kind=fitness_kind,
            program_length=5,
            max_search_space=3_000_000,
            seed=seed,
            ga=GAConfig(
                population_size=100,
                elite_count=5,
                crossover_rate=0.40,
                mutation_rate=0.30,
                max_generations=30_000,
            ),
            neighborhood=NeighborhoodConfig(top_n=5, window=10),
            nn=NNConfig(embedding_dim=32, hidden_dim=64, fc_dim=64, encoder="lstm"),
            training=TrainingConfig(
                corpus_size=50_000,
                program_length=5,
                n_io_examples=5,
                epochs=40,
                batch_size=128,
                seed=seed,
            ),
            dsl=DSLConfig(n_io_examples=5),
        )

    def replace(self, **changes) -> "NetSynConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass
class ServiceConfig:
    """Configuration of the synthesis service layer (sessions and jobs).

    ``artifact_dir`` enables fit-once-serve-many across processes: a
    session persists its trained Phase-1 artifacts there and later
    sessions warm-start from disk instead of retraining.
    """

    #: directory for persisted Phase-1 artifacts (None disables persistence)
    artifact_dir: Optional[str] = None
    #: default worker-process count for ``SynthesisSession.run``
    n_workers: int = 1
    #: serve Phase-1 weights to parallel workers from a shared mmap-backed
    #: segment (packed next to the persisted weights.npz) instead of
    #: pickling a full model copy into every worker process
    shared_weights: bool = True
    #: directory for the shared segment; defaults to ``artifact_dir``,
    #: falling back to a per-session temporary directory
    shared_dir: Optional[str] = None
    #: slot count of the L2 shared score table (power of two; 64 B per
    #: slot).  With ``shared_weights`` every parallel run shares one
    #: lock-free mmap table (shared_scores.bin, next to the packed
    #: weights) across the parent and its workers, so one worker's NN
    #: forward serves all others mid-job.  Values are deterministic per
    #: structural key, so results are bit-identical to serial runs; the
    #: per-event cache *counters* are advisory (see docs/execution.md)
    table_slots: int = 1 << 16
    #: coalesce worker progress events into batches of this size before
    #: they cross the multiprocessing queue (flushed when full, when the
    #: next event arrives >50 ms after the last flush, and at job end, so
    #: per-job stream order and completeness are unchanged).  1 = one
    #: queue put per event (the historical path)
    event_batch_size: int = 1
    #: fold the L3 cache log into one deduplicated segment whenever it
    #: exceeds this many segments
    cache_log_compact_threshold: int = 8
    #: persist the session's score/evaluation caches next to the Phase-1
    #: artifacts (``artifact_dir``) after each ``run()``, keyed by the
    #: model hash, so a re-opened session starts warm across processes
    persist_caches: bool = True
    #: budget charges between two "candidates" progress events
    progress_every: int = 50
    #: most recent events retained on each job (older ones are dropped so
    #: paper-scale budgets cannot grow job.events without bound)
    max_events_per_job: int = 10_000

    # -- fault tolerance (the supervised worker pool) --------------------
    #: how many times a job whose worker crashed is re-run before it is
    #: quarantined (ends ``failed`` with a FailureReport); a poison job
    #: therefore runs at most ``1 + max_job_retries`` times
    max_job_retries: int = 2
    #: base delay before a crashed job's first retry; doubles per attempt
    retry_backoff: float = 0.05
    #: upper bound on the exponential retry backoff
    retry_backoff_max: float = 2.0
    #: deterministic jitter fraction added to each backoff (seeded by the
    #: fault plan / session seed, job index and attempt)
    retry_jitter: float = 0.25
    #: seconds between two heartbeat events from an idle-or-busy worker
    #: (heartbeats travel the event queue)
    heartbeat_interval: float = 0.25
    #: a worker whose last heartbeat is older than this while it runs a
    #: job is considered hung and is hard-killed (its job is retried)
    heartbeat_timeout: float = 15.0
    #: per-job wall-clock deadline in seconds (None = no deadline): an
    #: overdue job is first cancelled cooperatively via its shared flag,
    #: then its worker is hard-killed after ``deadline_grace``
    job_deadline: Optional[float] = None
    #: seconds between the cooperative deadline cancel and the hard kill
    deadline_grace: float = 2.0
    #: total worker crashes after which the pool is abandoned and the
    #: remaining jobs run serially in the parent (``degraded_serial``)
    max_pool_crashes: int = 8
    #: deterministic fault-injection plan (repro.execution.faults.FaultPlan)
    #: installed in the parent and shipped to every worker; None in
    #: production — this knob exists so every recovery path above is
    #: exercised by tests and the CI chaos job
    fault_plan: Optional[Any] = None

    # -- serving (the network layer, repro.serving) ----------------------
    #: ``host:port`` of a synthesis server whose score pool this session
    #: consults as its L4 cache tier (misses that fall through L1-L3 ask
    #: the server; computed scores are pushed back asynchronously).
    #: None — the default — keeps the session fully local.
    remote_score_cache: Optional[str] = None

    def __post_init__(self) -> None:
        # validate at construction: a bad knob should fail here with a
        # clear ValueError, not surface later as an opaque mmap/queue
        # failure inside a worker process
        self.validate()

    def validate(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.progress_every < 1:
            raise ValueError("progress_every must be at least 1")
        if self.max_events_per_job < 1:
            raise ValueError("max_events_per_job must be at least 1")
        if self.table_slots <= 0 or self.table_slots & (self.table_slots - 1):
            raise ValueError("table_slots must be a positive power of two")
        if self.event_batch_size < 1:
            raise ValueError("event_batch_size must be at least 1")
        if self.cache_log_compact_threshold < 1:
            raise ValueError("cache_log_compact_threshold must be at least 1")
        if self.max_job_retries < 0:
            raise ValueError("max_job_retries must be non-negative")
        if self.retry_backoff < 0 or self.retry_backoff_max < self.retry_backoff:
            raise ValueError(
                "retry_backoff must be non-negative and <= retry_backoff_max"
            )
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError("job_deadline must be positive (or None)")
        if self.deadline_grace < 0:
            raise ValueError("deadline_grace must be non-negative")
        if self.max_pool_crashes < 1:
            raise ValueError("max_pool_crashes must be at least 1")
        if self.fault_plan is not None and hasattr(self.fault_plan, "validate"):
            self.fault_plan.validate()
        if self.remote_score_cache is not None:
            parse_address(self.remote_score_cache)


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string, validating the port.

    The one address syntax used across the serving layer (server bind
    address, client connect address, ``remote_score_cache``).  IPv6
    literals use the usual bracket form (``[::1]:7777``).
    """
    if not isinstance(address, str) or ":" not in address:
        raise ValueError(f"address must be 'host:port', got {address!r}")
    host, _, port_text = address.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {address!r}") from None
    if not host or not 0 <= port <= 65535:
        raise ValueError(f"invalid address {address!r}")
    return host, port


@dataclass
class ServingConfig:
    """Configuration of the network synthesis service (``repro.serving``).

    One server owns one warm :class:`~repro.core.service.SynthesisSession`
    and serves many concurrent client connections: job submission with
    bounded admission, live wire-streamed progress events, cancellation,
    and the shared L4 score pool.
    """

    #: bind host of the server
    host: str = "127.0.0.1"
    #: bind port; 0 picks an ephemeral port (read it off ``server.port``)
    port: int = 0
    #: admission bound: jobs admitted but not yet settled.  A submit
    #: beyond this is rejected with an ``over_capacity`` error frame
    #: carrying ``retry_after`` — backpressure by rejection, never by
    #: stalling the accept loop
    max_pending_jobs: int = 64
    #: retry hint (seconds) returned with ``over_capacity`` rejections
    retry_after: float = 0.5
    #: worker-process count the server schedules each batch with
    #: (forwarded to ``SynthesisSession.run``); 1 = serial in-server
    n_workers: int = 1
    #: how long the scheduler waits after the first queued job for more
    #: submissions before starting the batch — the micro-batching window
    #: that lets concurrent clients coalesce into one parallel run
    batch_window: float = 0.05
    #: hard bound on a single wire frame (a frame larger than this is a
    #: protocol error and closes the connection)
    max_frame_bytes: int = 16 * 1024 * 1024
    #: score-pool pushes are batched: a client tier flushes its queue as
    #: one ``cache_put`` frame when it holds this many entries
    push_batch_size: int = 128
    #: ... or when the oldest queued entry is this old (seconds)
    push_interval: float = 0.25
    #: honour ``shutdown`` frames from clients (tests and examples);
    #: production servers keep this off and stop from their own process
    allow_remote_shutdown: bool = False
    #: directory of the crash-safe write-ahead job journal
    #: (:mod:`repro.serving.journal`); ``None`` disables durability — a
    #: crashed server then loses its in-flight and queued jobs
    journal_dir: Optional[str] = None
    #: journal size (bytes) past which a settle triggers compaction
    journal_compact_bytes: int = 4 * 1024 * 1024
    #: fsync every journal record (survives machine crash, not just
    #: process death) at a per-record fsync cost
    journal_fsync: bool = False
    #: seconds a graceful drain (SIGTERM / ``request_drain``) waits for
    #: running jobs before stopping anyway (leftovers stay journaled)
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.max_pending_jobs < 1:
            raise ValueError("max_pending_jobs must be at least 1")
        if self.retry_after < 0:
            raise ValueError("retry_after must be non-negative")
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be at least 1 KiB")
        if self.push_batch_size < 1:
            raise ValueError("push_batch_size must be at least 1")
        if self.push_interval <= 0:
            raise ValueError("push_interval must be positive")
        if self.journal_compact_bytes < 4096:
            raise ValueError("journal_compact_bytes must be at least 4 KiB")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be non-negative")

    @property
    def address(self) -> str:
        """The ``host:port`` string clients connect to."""
        return f"{self.host}:{self.port}"


@dataclass
class ExperimentConfig:
    """Configuration of an evaluation experiment (a table or figure)."""

    #: program lengths evaluated (the paper uses 5, 7 and 10)
    lengths: Tuple[int, ...] = (5, 7, 10)
    #: number of test programs per length (paper: 100 — 50 singleton + 50 list)
    n_test_programs: int = 20
    #: number of synthesis runs per program (``K`` in the paper; 10)
    n_runs: int = 3
    #: candidate-program budget per run (paper: 3,000,000)
    max_search_space: int = 20_000
    #: methods to evaluate, by registry name
    methods: Tuple[str, ...] = ("netsyn_cf", "netsyn_lcs", "netsyn_fp")
    #: master seed
    seed: int = 0
    #: scale multiplier applied to n_test_programs / n_runs / budget
    scale: float = 1.0

    def scaled(self) -> "ExperimentConfig":
        """Apply the ``scale`` multiplier (and the ``NETSYN_SCALE`` env var)."""
        scale = self.scale * float(os.environ.get("NETSYN_SCALE", "1.0"))
        return dataclasses.replace(
            self,
            n_test_programs=max(1, int(round(self.n_test_programs * scale))),
            n_runs=max(1, int(round(self.n_runs * scale))),
            max_search_space=max(100, int(round(self.max_search_space * scale))),
            scale=1.0,
        )

    def validate(self) -> None:
        if not self.lengths:
            raise ValueError("at least one program length is required")
        if self.n_test_programs <= 0 or self.n_runs <= 0:
            raise ValueError("n_test_programs and n_runs must be positive")
        if self.max_search_space <= 0:
            raise ValueError("max_search_space must be positive")
        if not self.methods:
            raise ValueError("at least one method is required")
