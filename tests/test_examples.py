"""Import smoke for ``examples/``: every script still imports its API.

Each example keeps its work under ``main()``, so importing it under a
non-``__main__`` name runs only its imports and module-level constants.
A deleted or renamed export that any example still uses fails here —
including the examples no CI job runs end to end.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), f"{path.name} has no main()"
