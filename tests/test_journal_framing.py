"""The job journal on disk: its framing and torn-record recovery.

A journal is ``MAGIC ("NSJL1\\0") | length:u32 | crc32:u32 | JSON payload``
records.  These tests pin that a journal written in that framing byte
for byte replays unchanged, and that a record a restarted server appends
after a torn one is not lost at the next replay.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.serving.journal import JOURNAL_FILE, JobJournal


def _record(payload: dict) -> bytes:
    """One journal record, framed by hand."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return b"NSJL1\0" + struct.pack("<II", len(data), zlib.crc32(data)) + data


def _admit(job_id: str, task: dict) -> dict:
    return {
        "record": "admit",
        "job_id": job_id,
        "task": task,
        "method": "edit",
        "budget": 100,
        "seed": 0,
        "program_length": None,
        "idempotency_key": None,
    }


class TestJournalFraming:
    def test_record_appended_after_a_torn_record_replays(self, tmp_path):
        """A 4 KB admit torn halfway by a crash, then the restarted
        server's admit of job-2 — shorter than the torn record's missing
        half: replay reports the torn record and recovers job-2."""
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", {"pad": "x" * 4096}, method="edit", budget=100, seed=0)
        path = tmp_path / JOURNAL_FILE
        data = path.read_bytes()
        assert len(data) > 4096
        path.write_bytes(data[: len(data) // 2])
        with JobJournal(tmp_path) as journal:
            journal.admit("job-2", {"task": 2}, method="edit", budget=100, seed=0)
        skips = []
        with JobJournal(tmp_path) as journal:
            state = journal.replay(on_skip=skips.append)
        assert list(state.pending) == ["job-2"]
        assert state.skipped == 1 and len(skips) == 1 and "torn" in skips[0]

    def test_journal_in_the_original_framing_replays_unchanged(self, tmp_path):
        records = [
            _admit("job-1", {"task": 1}),
            dict(_admit("job-2", {"task": 2}), idempotency_key="k2"),
            _admit("job-3", {"task": 3}),
            {"record": "result", "job_id": "job-2", "job": {"state": "solved"},
             "idempotency_key": "k2"},
            {"record": "cancel", "job_id": "job-3"},
        ]
        (tmp_path / JOURNAL_FILE).write_bytes(b"".join(_record(r) for r in records))
        with JobJournal(tmp_path) as journal:
            state = journal.replay()
        assert list(state.pending) == ["job-1", "job-3"]
        assert state.pending["job-1"] == records[0]
        assert state.settled == {"job-2": {"state": "solved"}}
        assert state.key_to_job == {"k2": "job-2"}
        assert state.cancelled == ["job-3"]
        assert state.skipped == 0

    def test_appends_keep_the_original_framing(self, tmp_path):
        with JobJournal(tmp_path) as journal:
            journal.admit("job-1", {"task": 1}, method="edit", budget=100, seed=0)
            journal.cancel("job-1")
        assert (tmp_path / JOURNAL_FILE).read_bytes() == (
            _record(_admit("job-1", {"task": 1}))
            + _record({"record": "cancel", "job_id": "job-1"})
        )
