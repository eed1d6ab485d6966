"""The documented configuration tables match the configuration dataclasses.

Every ``| knob | default | meaning |`` table in ``docs/api.md`` and
``docs/serving.md`` documents the config class named last before it.
Each backticked knob in its first column must be a field of that class,
and each default written as ``True``/``False``/``None`` must equal the
field's default — so a removed field or a flipped default cannot leave
the docs behind.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.config import NetSynConfig, ServiceConfig, ServingConfig

DOCS = Path(__file__).resolve().parents[1] / "docs"
CLASSES = {cls.__name__: cls for cls in (NetSynConfig, ServiceConfig, ServingConfig)}
CLASS_NAME = re.compile(r"\b(" + "|".join(CLASSES) + r")\b")
LITERALS = {"True": True, "False": False, "None": None}


def _config_tables(text: str):
    """Yield ``(class name, [(knob cell, default cell), ...])`` per table."""
    lines = text.splitlines()
    owner = None
    index = 0
    while index < len(lines):
        line = lines[index]
        if re.match(r"\|\s*knob\s*\|\s*default\s*\|", line):
            rows = []
            index += 2  # header and separator
            while index < len(lines) and lines[index].startswith("|"):
                cells = [cell.strip() for cell in lines[index].strip("|").split("|")]
                rows.append((cells[0], cells[1]))
                index += 1
            yield owner, rows
            continue
        mentions = CLASS_NAME.findall(line)
        if mentions:
            owner = mentions[-1]
        index += 1


@pytest.mark.parametrize(
    "doc, owners",
    [
        ("api.md", ["NetSynConfig", "ServiceConfig"]),
        ("serving.md", ["ServingConfig"]),
    ],
)
def test_config_tables_match_dataclass_fields(doc, owners):
    tables = list(_config_tables((DOCS / doc).read_text()))
    assert [owner for owner, _rows in tables] == owners
    for owner, rows in tables:
        defaults = {f.name: f.default for f in dataclasses.fields(CLASSES[owner])}
        for knob_cell, default_cell in rows:
            knobs = re.findall(r"`([^`]+)`", knob_cell)
            assert knobs, f"{doc}: row {knob_cell!r} names no knob"
            for knob in knobs:
                assert knob in defaults, f"{doc}: {owner} has no field {knob!r}"
                written = default_cell.strip("`")
                if written in LITERALS:
                    assert defaults[knob] is LITERALS[written], (
                        f"{doc}: {owner}.{knob} defaults to {defaults[knob]!r}, "
                        f"documented as {written}"
                    )
