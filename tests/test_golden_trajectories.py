"""Golden trajectories: seeded tiny CF/LCS jobs against committed data.

``tests/golden/trace_fitness.json`` holds the recorded trajectory of every
job ``tests/golden/make_trace_fitness.py`` runs (both fitness kinds, the
columnar and the serial execution shape).  Any change to what a seeded
job does — its result, its search path, a single bit of a fitness
history, or the events it emits — fails here, field by field.
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
def recorded(generator):
    return generator.record()


def test_generator_uses_the_conftest_tiny_config(generator, tiny_netsyn_config):
    assert generator.tiny_config() == tiny_netsyn_config


def test_trajectories_match_golden(recorded):
    golden = json.loads((GOLDEN_DIR / "trace_fitness.json").read_text())
    assert sorted(recorded) == sorted(golden)
    for job, want in golden.items():
        got = recorded[job]
        assert sorted(got) == sorted(want), job
        for field in want:
            assert got[field] == want[field], f"{job}: {field}"
