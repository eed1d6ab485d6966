"""PCCoder-like baseline: step-wise prediction with widening beam search.

PCCoder (Zohar & Wolf, 2018) predicts the next statement of a partially
constructed program from the current *program state* (the values computed
so far) and the target output, and searches with a complete anytime beam
(CAB): repeated beam searches with an exponentially growing width until a
solution is found or the budget runs out.

This reimplementation keeps the same structure over NetSyn's DSL:

* :class:`StepPredictorModel` — predicts the next function from the most
  recent intermediate value and the example's target output.
* :func:`train_step_model` — builds (state, output, next-function)
  training triples from random programs and trains the model.
* :class:`PCCoderSynthesizer` — CAB beam search; every *complete*
  candidate program examined is charged against the budget.
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
from repro.dsl.equivalence import IOExample, IOSet
from repro.dsl.functions import FunctionRegistry, REGISTRY
from repro.dsl.interpreter import Interpreter
from repro.dsl.program import Program
from repro.fitness.features import FeatureEncoder
from repro.fitness.models import encode_examples
from repro.ga.budget import SearchBudget
from repro.nn.autograd import no_grad
from repro.nn.layers import Dense
from repro.nn.losses import softmax_cross_entropy, softmax_probabilities
from repro.nn.module import Module
from repro.nn.optimizers import Adam
from repro.nn.encoders import make_sequence_encoder
from repro.nn.training import Trainer, TrainingHistory
from repro.fitness.features import value_vocabulary_size
from repro.utils.rng import RngFactory
from repro.utils.timing import Stopwatch


class StepPredictorModel(Module):
    """Predicts the next DSL function from (current state, target output)."""

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
        self.hidden_head = Dense(fc, fc, activation="relu", rng=rng)
        self.output_head = Dense(fc, len(registry), rng=rng)

    def forward(self, batch: Dict[str, np.ndarray]):
        # the batch's input rows hold each example's current state value
        return self.output_head(self.hidden_head(encode_examples(self, batch).mean(axis=1)))

    def compute_loss(self, batch: Dict[str, np.ndarray]):
        logits = self.forward(batch)
        labels = batch["labels"]
        loss = softmax_cross_entropy(logits, labels)
        accuracy = float((logits.data.argmax(axis=1) == labels).mean())
        return loss, {"accuracy": accuracy}

    def predict_log_probabilities(self, batch: Dict[str, np.ndarray]) -> np.ndarray:
        """Log-probabilities of the next function, ``(B, |ΣDSL|)``."""
        with no_grad():
            logits = self.forward(batch)
        probabilities = softmax_probabilities(logits)
        return np.log(np.clip(probabilities, 1e-12, 1.0))


@dataclass
class _StepSample:
    """One training triple for the step model."""

    state_io: IOSet  # per-example (current state value, target output)
    label: int  # 0-based index of the next function


class StepDataset:
    """Dataset of :class:`_StepSample` for the step predictor."""

    def __init__(self, samples: Sequence[_StepSample], encoder: Optional[FeatureEncoder] = None) -> None:
        self.samples = list(samples)
        self.encoder = encoder or FeatureEncoder()

    def __len__(self) -> int:
        return len(self.samples)

    def get_batch(self, indices: np.ndarray) -> Dict[str, np.ndarray]:
        chosen = [self.samples[int(i)] for i in indices]
        batch = self.encoder.encode_io_batch([s.state_io for s in chosen])
        batch["labels"] = np.array([s.label for s in chosen], dtype=np.int64)
        return batch


def _step_samples_from_program(
    program: Program, io_set: IOSet, interpreter: Interpreter, registry: FunctionRegistry
) -> List[_StepSample]:
    """Decompose one (program, IO set) pair into per-step training samples."""
    traces = [interpreter.run(program, example.inputs) for example in io_set]
    samples: List[_StepSample] = []
    for position in range(len(program)):
        state_io: IOSet = []
        for example, trace in zip(io_set, traces):
            if position == 0:
                state_value = example.inputs[0] if example.inputs else []
            else:
                state_value = trace.intermediate_outputs[position - 1]
            state_io.append(IOExample(inputs=(state_value,), output=example.output))
        samples.append(
            _StepSample(state_io=state_io, label=registry.index_of(program.function_ids[position]))
        )
    return samples


def train_step_model(
    training: Optional[TrainingConfig] = None,
    nn: Optional[NNConfig] = None,
    dsl: Optional[DSLConfig] = None,
    verbose: bool = False,
) -> Phase1Artifacts:
    """Train the PCCoder-style next-function model from random programs."""
    training = training or TrainingConfig()
    nn = nn or NNConfig()
    dsl = dsl or DSLConfig()
    factory = RngFactory(training.seed + 2)
    registry = REGISTRY
    interpreter = Interpreter()

    builder = CorpusBuilder(training=training, dsl=dsl, registry=registry)
    # one program yields `program_length` step samples, so fewer programs are needed
    n_programs = max(1, training.corpus_size // max(1, training.program_length))
    samples: List[_StepSample] = []
    for _ in range(n_programs):
        target, io_set = builder._target_with_io()
        samples.extend(_step_samples_from_program(target, io_set, interpreter, registry))

    encoder = FeatureEncoder()
    dataset = StepDataset(samples, encoder)
    model = StepPredictorModel(config=nn, rng=factory.get("step-init"))
    optimizer = Adam(model.parameters(), learning_rate=training.learning_rate)
    trainer = Trainer(model, optimizer, rng=factory.get("step-batches"))
    history = trainer.fit(dataset, epochs=training.epochs, batch_size=training.batch_size, verbose=verbose)
    return Phase1Artifacts(model=model, history=history, encoder=encoder,
                           validation_metrics=history.train_metrics[-1] if history.train_metrics else {})


class PCCoderSynthesizer(Synthesizer):
    """CAB beam search driven by the step-wise next-function model."""

    name = "pccoder"
    requires = ("step",)

    def __init__(
        self,
        step_artifacts: Phase1Artifacts,
        program_length: int,
        registry: FunctionRegistry = REGISTRY,
        initial_beam_width: int = 8,
        beam_growth: float = 2.0,
        skip_dead_code: bool = True,
    ) -> None:
        if program_length <= 0:
            raise ValueError("program_length must be positive")
        self.model: StepPredictorModel = step_artifacts.model
        self.encoder: FeatureEncoder = step_artifacts.encoder
        self.program_length = program_length
        self.registry = registry
        self.initial_beam_width = initial_beam_width
        self.beam_growth = beam_growth
        self.skip_dead_code = skip_dead_code

    # ------------------------------------------------------------------
    def _state_io_for(self, prefix: Tuple[int, ...], task: SynthesisTask, interpreter: Interpreter) -> IOSet:
        """Per-example (current intermediate value, target output) pairs."""
        state_io: IOSet = []
        if prefix:
            program = Program(prefix, self.registry)
        for example in task.io_set:
            if prefix:
                trace = interpreter.run(program, example.inputs)
                state = trace.intermediate_outputs[-1]
            else:
                state = example.inputs[0] if example.inputs else []
            state_io.append(IOExample(inputs=(state,), output=example.output))
        return state_io

    def _beam_search(
        self, task: SynthesisTask, budget: SearchBudget, width: int, interpreter: Interpreter
    ) -> Optional[Program]:
        beam: List[Tuple[float, Tuple[int, ...]]] = [(0.0, ())]
        ids = self.registry.ids
        for _ in range(self.program_length):
            if budget.exhausted:
                return None
            state_ios = [self._state_io_for(prefix, task, interpreter) for _, prefix in beam]
            batch = self.encoder.encode_io_batch(state_ios)
            log_probs = self.model.predict_log_probabilities(batch)
            extensions: List[Tuple[float, Tuple[int, ...]]] = []
            for (score, prefix), row in zip(beam, log_probs):
                for index, fid in enumerate(ids):
                    extensions.append((score + float(row[index]), prefix + (fid,)))
            extensions.sort(key=lambda item: item[0], reverse=True)
            beam = extensions[:width]
        # check completed programs in score order
        for score, prefix in beam:
            candidate = Program(prefix, self.registry)
            if self.skip_dead_code and has_dead_code(candidate):
                continue
            if self._check(candidate, task, budget, interpreter):
                return candidate
            if budget.exhausted:
                return None
        return None

    # ------------------------------------------------------------------
    def synthesize(
        self,
        task: SynthesisTask,
        budget: Optional[SearchBudget] = None,
        seed: int = 0,
    ) -> SynthesisResult:
        budget = budget or SearchBudget(limit=10_000)
        interpreter = Interpreter()
        stopwatch = Stopwatch()
        stopwatch.start()
        width = self.initial_beam_width
        found: Optional[Program] = None
        while not budget.exhausted and found is None:
            found = self._beam_search(task, budget, width, interpreter)
            width = int(max(width + 1, round(width * self.beam_growth)))
            if width > len(self.registry.ids) ** self.program_length:
                break
        stopwatch.stop()
        return self._result(task, budget, stopwatch, program=found, found_by="search")


# allow Phase1Artifacts.load to rebuild persisted steppredictor models
register_model_builder("StepPredictorModel", lambda meta, nn: StepPredictorModel(config=nn))
