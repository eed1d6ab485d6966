"""Record the outputs, losses, parameter keys and trained weights of every NN.

The seven neural models (the NN-FF ``TraceFitnessModel``, the FP
``FunctionProbabilityModel``, the Section 5.3.1 ablations
``RegressionFitnessModel``, ``PairwiseRankingModel`` and
``BigramMembershipModel``, PCCoder's ``StepPredictorModel`` and
RobustFill's ``ProgramDecoderModel``) are built from one seed with each
encoder (``pooled``, ``lstm``) at the tiny dimensions of
``tests/conftest.py`` and fed two batches of the same six samples:

* ``plain`` — encoded to the batch's own widths (programs of mixed
  length, so the step mask is not all ones);
* ``padded`` — encoded with ``pad_program_length`` and ``pad_value_width``
  above every sample, so every model takes its trimming path.

Per model and encoder the record keeps the ``state_dict`` keys (which
``weights.npz`` and ``ArtifactStore.model_hash()`` depend on), the
inference output and the training loss on each batch, and the weights
after two epochs of Adam over both batches.  The trace and FP models are
also trained with dropout, whose mask draws come from the weight
generator.  A scalar is a ``float.hex`` string; an array is its shape,
the ``float.hex`` of its first values and the SHA-256 of all its float64
bytes, so any bit that moves changes the record.

``tests/test_model_outputs.py`` recomputes every record and compares them
exactly.  Regenerate only for an intended change of the models' numerics,
and review the diff of ``model_outputs.json``::

    PYTHONPATH=src python tests/golden/make_model_outputs.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.baselines.pccoder import StepPredictorModel
from repro.baselines.robustfill import ProgramDecoderModel
from repro.config import DSLConfig, NNConfig, TrainingConfig
from repro.data.corpus import CorpusBuilder
from repro.dsl.equivalence import IOExample
from repro.dsl.functions import REGISTRY
from repro.dsl.program import Program
from repro.fitness.ablations import BigramMembershipModel, PairwiseRankingModel, RegressionFitnessModel
from repro.fitness.features import FeatureEncoder, FitnessSample
from repro.fitness.models import FunctionProbabilityModel, TraceFitnessModel
from repro.nn.autograd import no_grad
from repro.nn.module import Module
from repro.nn.optimizers import Adam

GOLDEN = Path(__file__).resolve().parent / "model_outputs.json"
ENCODERS = ("pooled", "lstm")
#: the trace models' class count: CF values 0..3 of length-3 programs
N_CLASSES = 4
#: leading values of an array kept readable next to its digest
HEAD = 8
SEED = 11


def nn_config(encoder: str, dropout: float = 0.0) -> NNConfig:
    """The ``tiny_nn_config`` fixture of ``tests/conftest.py`` with ``encoder``."""
    return NNConfig(embedding_dim=4, hidden_dim=8, fc_dim=8, encoder=encoder, dropout=dropout)


def samples() -> List[FitnessSample]:
    """Six seeded CF samples; the last two are cut to two steps."""
    builder = CorpusBuilder(
        training=TrainingConfig(corpus_size=60, program_length=3, n_io_examples=2, seed=0),
        dsl=DSLConfig(min_input_length=3, max_input_length=5, n_io_examples=2),
    )
    chosen = builder.build_trace_samples(kind="cf", count=8)[:6]
    short = [
        FitnessSample(
            function_ids=s.function_ids[:2],
            io_inputs=s.io_inputs,
            io_outputs=s.io_outputs,
            traces=tuple(trace[:2] for trace in s.traces),
            label=min(int(s.label), 2),
        )
        for s in chosen[4:]
    ]
    return chosen[:4] + short


def batches() -> Dict[str, Dict[str, dict]]:
    """``{"plain" | "padded": {"trace", "pair", "io"}}`` encoded batches."""
    rows = samples()
    out: Dict[str, Dict[str, dict]] = {}
    encoders = {"plain": FeatureEncoder(), "padded": FeatureEncoder(pad_value_width=24, pad_program_length=5)}
    for name, encoder in encoders.items():
        trace = encoder.encode_trace_batch(rows)
        io_sets = [
            [IOExample(inputs=inputs, output=output) for inputs, output in zip(s.io_inputs, s.io_outputs)]
            for s in rows
        ]
        io = encoder.encode_io_batch(io_sets)
        programs = [Program(s.function_ids, REGISTRY) for s in rows]
        membership = np.zeros((len(rows), len(REGISTRY)))
        for row, program in enumerate(programs):
            for fid in program.function_ids:
                membership[row, REGISTRY.index_of(fid)] = 1.0
        io["fp_targets"] = membership
        io["bigram_targets"] = np.stack([BigramMembershipModel.bigram_target(p) for p in programs])
        io["labels"] = np.array([REGISTRY.index_of(s.function_ids[0]) for s in rows], dtype=np.int64)
        prefix = np.zeros((len(rows), 4), dtype=np.int64)
        prefix[:, 1] = [s.function_ids[-1] for s in rows]
        io["prefix_tokens"] = prefix
        half = len(rows) // 2
        pair = (
            encoder.encode_trace_batch(rows[:half]),
            encoder.encode_trace_batch(rows[half:]),
            np.array([int(a.label > b.label) for a, b in zip(rows[:half], rows[half:])], dtype=np.int64),
        )
        out[name] = {"trace": trace, "pair": pair, "io": io}
    return out


#: model name -> (builder from an NNConfig and a generator, batch kind, inference output)
MODELS: Dict[str, Tuple[Callable[[NNConfig, np.random.Generator], Module], str, Callable]] = {
    "TraceFitnessModel": (
        lambda nn, rng: TraceFitnessModel(N_CLASSES, config=nn, rng=rng),
        "trace",
        lambda model, batch: model.forward(batch).data,
    ),
    "FunctionProbabilityModel": (
        lambda nn, rng: FunctionProbabilityModel(config=nn, rng=rng),
        "io",
        lambda model, batch: model.forward(batch).data,
    ),
    "RegressionFitnessModel": (
        lambda nn, rng: RegressionFitnessModel(N_CLASSES - 1, config=nn, rng=rng),
        "trace",
        lambda model, batch: model.forward(batch).data,
    ),
    "PairwiseRankingModel": (
        lambda nn, rng: PairwiseRankingModel(N_CLASSES, config=nn, rng=rng),
        "pair",
        lambda model, batch: model.predict_first_better(batch[0], batch[1]).astype(np.float64),
    ),
    "BigramMembershipModel": (
        lambda nn, rng: BigramMembershipModel(config=nn, rng=rng),
        "io",
        lambda model, batch: model.forward(batch).data,
    ),
    "StepPredictorModel": (
        lambda nn, rng: StepPredictorModel(config=nn, rng=rng),
        "io",
        lambda model, batch: model.forward(batch).data,
    ),
    "ProgramDecoderModel": (
        lambda nn, rng: ProgramDecoderModel(config=nn, rng=rng),
        "io",
        lambda model, batch: model.decode_step(model.encode_context(batch), batch["prefix_tokens"]).data,
    ),
}
#: the models also trained with dropout (their forward draws its mask)
DROPOUT_MODELS = ("TraceFitnessModel", "FunctionProbabilityModel")
DROPOUT = 0.25


def array_record(values: np.ndarray) -> dict:
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    return {
        "shape": list(np.shape(values)),
        "head": [float(x).hex() for x in flat[:HEAD]],
        "sha256": hashlib.sha256(flat.tobytes()).hexdigest(),
    }


def weights_record(model: Module) -> str:
    digest = hashlib.sha256()
    for name, values in model.state_dict().items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def model_record(name: str, nn: NNConfig, data: Dict[str, Dict[str, dict]]) -> dict:
    build, kind, infer = MODELS[name]
    model = build(nn, np.random.default_rng(SEED))
    record: dict = {"keys": list(model.state_dict())}
    model.eval()
    for shape, inputs in data.items():
        with no_grad():
            record[f"output/{shape}"] = array_record(infer(model, inputs[kind]))
    model.train()
    optimizer = Adam(model.parameters(), learning_rate=1e-2)
    for epoch in range(2):
        for shape, inputs in data.items():
            model.zero_grad()
            loss, _ = model.compute_loss(inputs[kind])
            if epoch == 0:
                record[f"loss/{shape}"] = float(loss.item()).hex()
            loss.backward()
            optimizer.clip_gradients(5.0)
            optimizer.step()
    record["trained"] = weights_record(model)
    return record


def record() -> Dict[str, dict]:
    """``"<model>/<encoder>[/dropout]"`` -> its record."""
    data = batches()
    records: Dict[str, dict] = {}
    for encoder in ENCODERS:
        for name in MODELS:
            records[f"{name}/{encoder}"] = model_record(name, nn_config(encoder), data)
        for name in DROPOUT_MODELS:
            records[f"{name}/{encoder}/dropout"] = model_record(name, nn_config(encoder, DROPOUT), data)
    return records


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
