"""Cache-log costs: L3 append vs whole-file rewrite.

The L3 tier replaced the whole-file ``cache_snapshots.pkl`` rewrite with
an append-only log: persisting after a run now costs O(new entries)
instead of O(accumulated cache).  This benchmark measures both ways at a
configurable cache size.

Results are appended to ``BENCH_cache_tiers.json`` at the repository
root so the trajectory across PRs is preserved.

Scale knobs: ``NETSYN_BENCH_CACHE_ENTRIES`` (accumulated entries,
default 50000), ``NETSYN_BENCH_DIRTY_FRACTION`` (per-run new-entry
fraction, default 0.01).
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.artifacts import ArtifactStore

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_cache_tiers.json"

N_ENTRIES = int(os.environ.get("NETSYN_BENCH_CACHE_ENTRIES", "50000"))
DIRTY_FRACTION = float(os.environ.get("NETSYN_BENCH_DIRTY_FRACTION", "0.01"))
ROUNDS = 8


def _entries(start: int, count: int) -> list:
    """Synthetic predicted-score entries shaped like the real ones."""
    return [
        (("score:nnff_cf:netsyn", ((start + i, 7, 3, 1), ((1, 2, 3), (4, 5, 6)))),
         float(start + i) / 7.0)
        for i in range(count)
    ]


def _legacy_rewrite(directory: Path, store: ArtifactStore, snapshots: dict) -> None:
    """The pre-log persistence: pickle the whole accumulated cache."""
    payload = {
        "format_version": 1,
        "model_hash": store.model_hash(),
        "snapshots": snapshots,
    }
    with (directory / "cache_snapshots.pkl").open("wb") as handle:
        pickle.dump(payload, handle)


def _append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY_PATH.exists():
        try:
            history = json.loads(TRAJECTORY_PATH.read_text())
        except (ValueError, OSError):
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def test_l3_append_vs_whole_file_rewrite():
    store = ArtifactStore()  # empty store: a stable model hash, no training
    dirty = max(1, int(N_ENTRIES * DIRTY_FRACTION))
    base = _entries(0, N_ENTRIES)
    workdir = Path(tempfile.mkdtemp(prefix="netsyn-bench-tiers-"))
    try:
        # -- legacy: every "run" rewrites base + everything so far ------
        legacy_dir = workdir / "legacy"
        legacy_dir.mkdir()
        accumulated = list(base)
        start = time.perf_counter()
        for round_index in range(ROUNDS):
            accumulated += _entries(N_ENTRIES + round_index * dirty, dirty)
            _legacy_rewrite(
                legacy_dir, store, {"netsyn_cf:None": {"evaluation": accumulated}}
            )
        legacy_elapsed = (time.perf_counter() - start) / ROUNDS

        # -- L3: seed once, then append only each run's dirty entries
        log_dir = workdir / "log"
        log_dir.mkdir()
        store.save_caches(log_dir, {"netsyn_cf:None": {"evaluation": base}})
        start = time.perf_counter()
        for round_index in range(ROUNDS):
            delta = _entries(N_ENTRIES + round_index * dirty, dirty)
            store.save_caches(log_dir, {"netsyn_cf:None": {"evaluation": delta}})
        append_elapsed = (time.perf_counter() - start) / ROUNDS

        # the log still reloads to the same contents the rewrite holds
        merged = store.load_caches(log_dir)
        assert len(merged["netsyn_cf:None"]["evaluation"]) == N_ENTRIES + ROUNDS * dirty
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cache_entries": N_ENTRIES,
        "dirty_entries_per_run": dirty,
        "rounds": ROUNDS,
        "legacy_rewrite_seconds_per_run": legacy_elapsed,
        "l3_append_seconds_per_run": append_elapsed,
        "append_speedup_vs_rewrite": legacy_elapsed / append_elapsed,
    }
    _append_trajectory(record)
    print(json.dumps(record, indent=2))

    # Regression gate: appending a 1% delta must beat rewriting the
    # whole accumulated cache comfortably, even on noisy runners.
    assert append_elapsed < legacy_elapsed, (
        f"L3 append ({append_elapsed:.4f}s) is not cheaper than the "
        f"whole-file rewrite ({legacy_elapsed:.4f}s)"
    )


if __name__ == "__main__":
    test_l3_append_vs_whole_file_rewrite()
