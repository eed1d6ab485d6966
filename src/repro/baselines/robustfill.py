"""RobustFill-like baseline: autoregressive program generation.

RobustFill (Devlin et al., 2017) encodes the IO examples with recurrent
networks and decodes the program one token at a time.  This
reimplementation keeps the conditional-decoder structure over NetSyn's
DSL: a :class:`ProgramDecoderModel` predicts ``P(f_k | IO, f_{<k})`` and
the synthesizer repeatedly samples whole candidate programs from the
decoder (highest-probability first, then temperature sampling), charging
every generated candidate against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import Synthesizer
from repro.config import DSLConfig, NNConfig, TrainingConfig
from repro.core.phase1 import Phase1Artifacts, register_model_builder
from repro.core.result import SynthesisResult
from repro.data.corpus import CorpusBuilder
from repro.data.tasks import SynthesisTask
from repro.dsl.dce import has_dead_code
from repro.dsl.equivalence import IOSet
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.interpreter import Interpreter
from repro.dsl.program import Program
from repro.fitness.features import FeatureEncoder, value_vocabulary_size
from repro.fitness.models import encode_examples
from repro.ga.budget import SearchBudget
from repro.nn.autograd import concat, no_grad
from repro.nn.layers import Dense, Embedding
from repro.nn.losses import softmax_cross_entropy, softmax_probabilities
from repro.nn.module import Module
from repro.nn.optimizers import Adam
from repro.nn.encoders import make_sequence_encoder
from repro.nn.training import Trainer
from repro.utils.rng import RngFactory
from repro.utils.timing import Stopwatch


class ProgramDecoderModel(Module):
    """Predicts the next program token from the IO context and the prefix."""

    def __init__(
        self,
        config: Optional[NNConfig] = None,
        registry: FunctionRegistry = REGISTRY,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config or NNConfig()
        self.config.validate()
        self.registry = registry
        rng = rng or np.random.default_rng(0)
        emb, hidden, fc = self.config.embedding_dim, self.config.hidden_dim, self.config.fc_dim
        vocab = value_vocabulary_size()
        self.value_encoder = make_sequence_encoder(self.config.encoder, vocab, emb, hidden, rng=rng)
        self.example_dense = Dense(2 * hidden, fc, activation="tanh", rng=rng)
        # +1 slot for the "start of program" token
        self.token_embedding = Embedding(len(registry) + 1, emb, rng=rng)
        self.decoder_dense = Dense(fc + emb, fc, activation="tanh", rng=rng)
        self.output_head = Dense(fc, len(registry), rng=rng)

    # -- context -----------------------------------------------------------
    def encode_context(self, batch: Dict[str, np.ndarray]):
        """IO-conditioned context vector ``(B, fc_dim)``."""
        return encode_examples(self, batch).mean(axis=1)

    def decode_step(self, context, prefix_tokens: np.ndarray):
        """Logits for the next token given padded prefix tokens ``(B, k)``.

        The prefix is summarized by the mean of its token embeddings (the
        start token alone for an empty prefix).
        """
        prefix_embedded = self.token_embedding(prefix_tokens)  # (B, k, emb)
        prefix_summary = prefix_embedded.mean(axis=1)
        hidden = self.decoder_dense(concat([context, prefix_summary], axis=-1))
        return self.output_head(hidden)

    # -- training ------------------------------------------------------------
    def compute_loss(self, batch: Dict[str, np.ndarray]):
        context = self.encode_context(batch)
        logits = self.decode_step(context, batch["prefix_tokens"])
        labels = batch["labels"]
        loss = softmax_cross_entropy(logits, labels)
        accuracy = float((logits.data.argmax(axis=1) == labels).mean())
        return loss, {"accuracy": accuracy}

    def predict_probabilities(self, context, prefix_tokens: np.ndarray) -> np.ndarray:
        with no_grad():
            logits = self.decode_step(context, prefix_tokens)
        return softmax_probabilities(logits)


@dataclass
class _DecoderSample:
    io_set: IOSet
    prefix: Tuple[int, ...]  # decoder token space: 0 = start, fid otherwise
    label: int  # 0-based function index to predict


class DecoderDataset:
    """Dataset of next-token prediction samples for the decoder."""

    def __init__(self, samples: Sequence[_DecoderSample], max_length: int, encoder: Optional[FeatureEncoder] = None) -> None:
        self.samples = list(samples)
        self.max_length = max_length
        self.encoder = encoder or FeatureEncoder()

    def __len__(self) -> int:
        return len(self.samples)

    def get_batch(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        chosen = [self.samples[int(i)] for i in indices]
        batch = self.encoder.encode_io_batch([s.io_set for s in chosen])
        prefix_tokens = np.zeros((len(chosen), self.max_length + 1), dtype=np.int64)
        for row, sample in enumerate(chosen):
            for column, token in enumerate(sample.prefix):
                prefix_tokens[row, column] = token
        batch["prefix_tokens"] = prefix_tokens
        batch["labels"] = np.array([s.label for s in chosen], dtype=np.int64)
        return batch


def train_decoder_model(
    training: Optional[TrainingConfig] = None,
    nn: Optional[NNConfig] = None,
    dsl: Optional[DSLConfig] = None,
    verbose: bool = False,
) -> Phase1Artifacts:
    """Train the RobustFill-style decoder from random programs."""
    training = training or TrainingConfig()
    nn = nn or NNConfig()
    dsl = dsl or DSLConfig()
    factory = RngFactory(training.seed + 3)
    registry = REGISTRY

    builder = CorpusBuilder(training=training, dsl=dsl, registry=registry)
    n_programs = max(1, training.corpus_size // max(1, training.program_length))
    samples: List[_DecoderSample] = []
    for _ in range(n_programs):
        target, io_set = builder._target_with_io()
        # decoder tokens: 0 is the start token, function fid maps to token fid
        tokens = [0] + list(target.function_ids)
        for position in range(len(target)):
            samples.append(
                _DecoderSample(
                    io_set=io_set,
                    prefix=tuple(tokens[: position + 1]),
                    label=registry.index_of(target.function_ids[position]),
                )
            )

    encoder = FeatureEncoder()
    dataset = DecoderDataset(samples, max_length=training.program_length, encoder=encoder)
    model = ProgramDecoderModel(config=nn, rng=factory.get("decoder-init"))
    optimizer = Adam(model.parameters(), learning_rate=training.learning_rate)
    trainer = Trainer(model, optimizer, rng=factory.get("decoder-batches"))
    history = trainer.fit(dataset, epochs=training.epochs, batch_size=training.batch_size, verbose=verbose)
    return Phase1Artifacts(model=model, history=history, encoder=encoder,
                           validation_metrics=history.train_metrics[-1] if history.train_metrics else {})


class RobustFillSynthesizer(Synthesizer):
    """Samples whole candidate programs from the learned decoder."""

    name = "robustfill"
    requires = ("decoder",)

    def __init__(
        self,
        decoder_artifacts: Phase1Artifacts,
        program_length: int,
        registry: FunctionRegistry = REGISTRY,
        temperature: float = 1.0,
        greedy_first: bool = True,
        skip_dead_code: bool = True,
    ) -> None:
        if program_length <= 0:
            raise ValueError("program_length must be positive")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.model: ProgramDecoderModel = decoder_artifacts.model
        self.encoder: FeatureEncoder = decoder_artifacts.encoder
        self.program_length = program_length
        self.registry = registry
        self.temperature = temperature
        self.greedy_first = greedy_first
        self.skip_dead_code = skip_dead_code

    # ------------------------------------------------------------------
    def _generate(self, context, rng: Optional[np.random.Generator]) -> Program:
        """Decode one program; greedy when ``rng`` is None, sampled otherwise."""
        ids = self.registry.ids
        prefix_tokens = np.zeros((1, self.program_length + 1), dtype=np.int64)
        chosen: List[int] = []
        for position in range(self.program_length):
            probabilities = self.model.predict_probabilities(context, prefix_tokens)[0]
            if rng is None:
                index = int(np.argmax(probabilities))
            else:
                logits = np.log(np.clip(probabilities, 1e-12, 1.0)) / self.temperature
                weights = np.exp(logits - logits.max())
                weights /= weights.sum()
                index = int(rng.choice(len(ids), p=weights))
            fid = ids[index]
            chosen.append(fid)
            prefix_tokens[0, position + 1] = fid
        return Program(chosen, self.registry)

    # ------------------------------------------------------------------
    def synthesize(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
    ) -> SynthesisResult:
        budget = budget or SearchBudget(limit=10_000)
        interpreter = Interpreter(trace=False)
        rng = RngFactory(seed).get("robustfill")
        stopwatch = Stopwatch()
        stopwatch.start()

        batch = self.encoder.encode_io_batch([task.io_set])
        with no_grad():
            context = self.model.encode_context(batch)

        found: Optional[Program] = None
        seen: set = set()
        first = True
        consecutive_duplicates = 0
        while not budget.exhausted and found is None:
            candidate = self._generate(context, None if (first and self.greedy_first) else rng)
            first = False
            if candidate.function_ids in seen:
                # resample without charging twice for the exact same program,
                # but give up once the decoder keeps repeating itself
                consecutive_duplicates += 1
                if consecutive_duplicates > 500:
                    break
                continue
            consecutive_duplicates = 0
            seen.add(candidate.function_ids)
            if self.skip_dead_code and has_dead_code(candidate):
                continue
            if self._check(candidate, task, budget, interpreter):
                found = candidate
        stopwatch.stop()
        return self._result(task, budget, stopwatch, program=found, found_by="search")


# allow Phase1Artifacts.load to rebuild persisted programdecoder models
register_model_builder("ProgramDecoderModel", lambda meta, nn: ProgramDecoderModel(config=nn))
