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
    """Complete configuration of a NetSyn synthesizer."""

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


#: seconds between two heartbeat events from an idle-or-busy pool worker
#: (they travel the worker's own channel to its pool); read by the pool
#: when it starts a worker and by ``ServiceConfig.validate``
HEARTBEAT_INTERVAL = 0.25

#: upper bound on a crashed job's exponential retry backoff; read by the
#: pool at every retry and by ``ServiceConfig.validate``
RETRY_BACKOFF_MAX = 2.0


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
    #: persist the session's score/evaluation caches next to the Phase-1
    #: artifacts (``artifact_dir``) after each ``run()``, keyed by the
    #: model hash, so a re-opened session starts warm across processes
    persist_caches: bool = True
    #: budget charges between two "candidates" progress events
    progress_every: int = 50

    # -- fault tolerance (the supervised worker pool) --------------------
    #: how many times a job whose worker crashed is re-run before it is
    #: quarantined (ends ``failed`` with a FailureReport); a poison job
    #: therefore runs at most ``1 + max_job_retries`` times
    max_job_retries: int = 2
    #: base delay before a crashed job's first retry; doubles per attempt
    #: up to :data:`RETRY_BACKOFF_MAX`
    retry_backoff: float = 0.05
    #: a worker whose last heartbeat is older than this during a run,
    #: busy or idle, is considered hung and is hard-killed (a job it was
    #: running is retried); heartbeat ages restart at every dispatch, so
    #: the gap between two runs never counts
    heartbeat_timeout: float = 15.0
    #: per-job wall-clock deadline in seconds (None = no deadline): an
    #: overdue job is first cancelled cooperatively via its shared flag,
    #: then its worker is hard-killed after
    #: :data:`repro.core.supervisor.DEADLINE_GRACE`
    job_deadline: Optional[float] = None
    #: worker crashes within one ``run()`` after which the pool is
    #: abandoned and that run's remaining jobs run serially in the
    #: parent (``degraded_serial``); the next parallel run forks a new pool
    max_pool_crashes: int = 8
    #: deterministic fault-injection plan (repro.execution.faults.FaultPlan)
    #: installed in the parent and shipped to every worker; None in
    #: production — this knob exists so every recovery path above is
    #: exercised by tests and the CI chaos job
    fault_plan: Optional[Any] = None

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
        if self.max_job_retries < 0:
            raise ValueError("max_job_retries must be non-negative")
        if not 0 <= self.retry_backoff <= RETRY_BACKOFF_MAX:
            raise ValueError(
                f"retry_backoff must be in [0, RETRY_BACKOFF_MAX={RETRY_BACKOFF_MAX}]"
            )
        if self.heartbeat_timeout <= HEARTBEAT_INTERVAL:
            raise ValueError(
                f"heartbeat_timeout must exceed HEARTBEAT_INTERVAL={HEARTBEAT_INTERVAL}"
            )
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError("job_deadline must be positive (or None)")
        if self.max_pool_crashes < 1:
            raise ValueError("max_pool_crashes must be at least 1")
        if self.fault_plan is not None and hasattr(self.fault_plan, "validate"):
            self.fault_plan.validate()


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``host:port`` string, validating the port.

    The one address syntax used across the serving layer (server bind
    address, client connect address).  IPv6
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
    bounded admission, live wire-streamed progress events and
    cancellation.
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
    #: worker processes of the session's pool the server dispatches
    #: each admitted job to (forwarded to ``SynthesisSession.serve``);
    #: 1 = serial in-server
    n_workers: int = 1
    #: honour ``shutdown`` frames from clients (tests and examples);
    #: production servers keep this off and stop from their own process
    allow_remote_shutdown: bool = False
    #: directory of the crash-safe write-ahead job journal
    #: (:mod:`repro.serving.journal`); ``None`` disables durability — a
    #: crashed server then loses its in-flight and queued jobs
    journal_dir: Optional[str] = None
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
