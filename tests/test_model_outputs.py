"""Every neural model against its committed outputs, losses, keys and weights.

``tests/golden/model_outputs.json`` holds, for each of the seven models
and each encoder, what ``tests/golden/make_model_outputs.py`` records:
the ``state_dict`` keys, the inference output and the training loss on a
plain and a step-padded batch, and the weights after two seeded training
epochs (plus dropout-trained weights of the trace and FP models).  A
change to a model's layers, their build order, its initial draws, its
forward or its backward fails here, per model and field.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = json.loads((GOLDEN_DIR / "model_outputs.json").read_text())


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_model_outputs", GOLDEN_DIR / "make_model_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return _generator()


@pytest.fixture(scope="module")
def data(generator):
    return generator.batches()


def test_generator_uses_the_conftest_tiny_nn_config(generator, tiny_nn_config):
    assert generator.nn_config(tiny_nn_config.encoder) == tiny_nn_config


def test_every_model_and_encoder_is_pinned(generator):
    expected = {f"{name}/{encoder}" for name in generator.MODELS for encoder in generator.ENCODERS}
    expected |= {
        f"{name}/{encoder}/dropout" for name in generator.DROPOUT_MODELS for encoder in generator.ENCODERS
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_model_matches_golden(generator, data, key):
    name, encoder, *variant = key.split("/")
    dropout = generator.DROPOUT if variant else 0.0
    recorded = generator.model_record(name, generator.nn_config(encoder, dropout), data)
    want = GOLDEN[key]
    assert sorted(recorded) == sorted(want)
    for field, value in want.items():
        assert recorded[field] == value, f"{key}: {field}"
