"""The typed Phase-1 artifact store.

Phase 1 of the paper trains up to five models (CF trace, LCS trace, FP,
PCCoder step, RobustFill decoder).  :class:`ArtifactStore` holds them
under their canonical names with typed accessors and persists them as
a directory of per-artifact ``weights.npz`` + ``artifacts.json`` pairs via
:meth:`~repro.core.phase1.Phase1Artifacts.save`, which is what makes
:class:`~repro.core.service.SynthesisSession` warm-startable across
processes (fit once, serve many).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.phase1 import Phase1Artifacts
from repro.utils.logging import get_logger
from repro.utils.serialization import PathLike, load_json, save_json

logger = get_logger("core.artifacts")

#: every artifact name Phase 1 can produce, in canonical order
ARTIFACT_NAMES: Tuple[str, ...] = ("cf", "lcs", "fp", "step", "decoder")

_STORE_MANIFEST = "store.json"

#: shared-memory weight segment (one flat file + a JSON layout manifest)
SHARED_WEIGHTS_BIN = "shared_weights.bin"
SHARED_WEIGHTS_MANIFEST = "shared_weights.json"

#: the L3 tier: an append-only segment log of cache snapshots.  Each
#: run() appends one segment holding only the entries written since the
#: last persist; the manifest keys the whole log by model hash
CACHE_LOG_DIR = "cache_log"
CACHE_LOG_MANIFEST = "manifest.json"
_SEGMENT_FORMAT = "segment-{seq:06d}.pkl"

#: framing of one segment file: one or more frames, each magic +
#: little-endian (payload length, CRC32 of payload) + pickled payload.
#: An appended segment is one frame; a compacted one is the frames of the
#: segments it folded, concatenated.  A writer killed mid-write leaves a
#: short or checksum-failing frame; the reader skips the file instead of
#: crashing on a truncated pickle
_SEGMENT_MAGIC = b"NSL3SEG1"
_SEGMENT_HEADER = struct.Struct("<QI")
_FRAME_HEADER_SIZE = len(_SEGMENT_MAGIC) + _SEGMENT_HEADER.size

#: distinguishes concurrent manifest temp files written by one process
_MANIFEST_TMP_SEQ = itertools.count()

#: default number of segments the log may grow to before it is folded
#: into one segment (see ``compact_cache_log``)
DEFAULT_COMPACT_THRESHOLD = 8

#: alignment of each parameter inside the packed segment (cache lines)
_SHARED_ALIGN = 64


class MissingArtifactError(KeyError):
    """A required Phase-1 artifact has not been trained or loaded.

    Subclasses :class:`KeyError` (a missing name is a failed lookup), but
    renders its message verbatim (``KeyError.__str__`` would wrap it in
    quotes).
    """

    def __init__(self, name: str, available: Iterable[str]) -> None:
        self.name = name
        self.available = tuple(available)
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"no trained artifact {self.name!r}; available: {sorted(self.available)}. "
            f"Train it (registry.ensure_artifacts) or load it (ArtifactStore.load)."
        )


@dataclass
class ArtifactStore:
    """Typed container for the Phase-1 artifacts of one configuration.

    One slot per canonical artifact name; ``get``/``set`` validate names
    eagerly so a typo fails with the full list of valid names instead of
    a silent empty lookup.
    """

    cf: Optional[Phase1Artifacts] = None
    lcs: Optional[Phase1Artifacts] = None
    fp: Optional[Phase1Artifacts] = None
    step: Optional[Phase1Artifacts] = None
    decoder: Optional[Phase1Artifacts] = None
    #: memo of :meth:`model_hash` — weights are immutable once an
    #: artifact is in the store, so the hash only changes via set/delete
    _model_hash: Optional[str] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate_name(name: str) -> None:
        if name not in ARTIFACT_NAMES:
            raise ValueError(f"unknown artifact name {name!r}; valid names: {ARTIFACT_NAMES}")

    def get(self, name: str) -> Phase1Artifacts:
        """The named artifact, or :class:`MissingArtifactError` if absent."""
        self._validate_name(name)
        artifacts = getattr(self, name)
        if artifacts is None:
            raise MissingArtifactError(name, self.names())
        return artifacts

    def get_optional(self, name: str) -> Optional[Phase1Artifacts]:
        """The named artifact, or ``None`` if absent (name still validated)."""
        self._validate_name(name)
        return getattr(self, name)

    def set(self, name: str, artifacts: Phase1Artifacts) -> "ArtifactStore":
        self._validate_name(name)
        setattr(self, name, artifacts)
        self._model_hash = None
        return self

    def has(self, name: str) -> bool:
        self._validate_name(name)
        return getattr(self, name) is not None

    def names(self) -> Tuple[str, ...]:
        """Names of the artifacts currently present, in canonical order."""
        return tuple(name for name in ARTIFACT_NAMES if getattr(self, name) is not None)

    def missing(self, required: Iterable[str]) -> Tuple[str, ...]:
        """Which of ``required`` are not present yet."""
        return tuple(name for name in required if not self.has(name))

    def delete(self, name: str) -> None:
        """Drop the named artifact (no-op when absent)."""
        self._validate_name(name)
        setattr(self, name, None)
        self._model_hash = None

    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> None:
        """Persist every present artifact under ``directory/<name>/``.

        The manifest is merged with any store already saved there, so
        sessions serving different method sets can share one artifact
        directory without clobbering each other's entries.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        on_disk: Tuple[str, ...] = ()
        if self.saved_at(directory):
            on_disk = tuple(load_json(directory / _STORE_MANIFEST).get("artifacts", ()))
        names = self.names()
        for name in names:
            self.get(name).save(directory / name)
        merged = [n for n in ARTIFACT_NAMES if n in set(on_disk) | set(names)]
        save_json(directory / _STORE_MANIFEST, {"format_version": 1, "artifacts": merged})

    @classmethod
    def load(cls, directory: PathLike, names: Optional[Iterable[str]] = None) -> "ArtifactStore":
        """Load a store saved by :meth:`save`.

        ``names`` restricts loading to a subset (artifacts missing on disk
        are skipped, so a partially-populated directory warm-starts what
        it can and the rest is trained on demand).
        """
        directory = Path(directory)
        manifest = load_json(directory / _STORE_MANIFEST)
        on_disk = tuple(manifest.get("artifacts", ()))
        wanted = on_disk if names is None else tuple(n for n in names if n in on_disk)
        store = cls()
        for name in wanted:
            store.set(name, Phase1Artifacts.load(directory / name))
        return store

    @staticmethod
    def saved_at(directory: PathLike) -> bool:
        """True when ``directory`` holds a persisted store manifest."""
        return (Path(directory) / _STORE_MANIFEST).is_file()

    # ------------------------------------------------------------------
    # shared-memory model serving
    # ------------------------------------------------------------------
    def pack_shared(self, directory: PathLike) -> Path:
        """Pack every present model's weights into one mmap-able segment.

        :meth:`save` persists per-artifact ``weights.npz`` archives — the
        durable, lossless form — but a compressed zip cannot be
        memory-mapped.  This writes the same float64 parameters, 64-byte
        aligned, into a single flat ``shared_weights.bin`` next to them,
        plus a JSON manifest recording each parameter's byte offset and
        shape.  :meth:`attach_shared` then maps that file read-only, so
        any number of worker processes share one set of physical pages
        instead of each holding a private copy of every model.

        Requires the store to have been :meth:`save`\\ d to the same
        directory first (attachment rebuilds models from the per-artifact
        metadata written there).
        """
        directory = Path(directory)
        if not self.saved_at(directory):
            raise FileNotFoundError(
                f"no persisted store at {directory}; call save() before pack_shared()"
            )
        directory.mkdir(parents=True, exist_ok=True)
        layout: Dict[str, Dict[str, dict]] = {}
        offset = 0
        blobs = []
        for name in self.names():
            state = self.get(name).model.state_dict()
            params: Dict[str, dict] = {}
            for param_name, value in state.items():
                value = np.ascontiguousarray(value, dtype="<f8")
                padding = (-offset) % _SHARED_ALIGN
                offset += padding
                blobs.append((padding, value))
                params[param_name] = {"offset": offset, "shape": list(value.shape)}
                offset += value.nbytes
            layout[name] = params
        with (directory / SHARED_WEIGHTS_BIN).open("wb") as handle:
            for padding, value in blobs:
                if padding:
                    handle.write(b"\0" * padding)
                handle.write(value.tobytes())
        save_json(
            directory / SHARED_WEIGHTS_MANIFEST,
            {
                "format_version": 1,
                "dtype": "<f8",
                "total_bytes": offset,
                "artifacts": layout,
            },
        )
        return directory / SHARED_WEIGHTS_BIN

    @classmethod
    def attach_shared(
        cls, directory: PathLike, names: Optional[Iterable[str]] = None
    ) -> "ArtifactStore":
        """Attach a store whose model weights alias the packed segment.

        The returned store's models are rebuilt from the per-artifact
        metadata saved by :meth:`save`, but their parameters are read-only
        views into a single ``np.memmap`` of ``shared_weights.bin`` —
        byte-identical to the persisted ``weights.npz`` values, at near
        zero per-process memory cost.  Models served this way are for
        inference only (training would write through the mapping).
        """
        directory = Path(directory)
        manifest = load_json(directory / SHARED_WEIGHTS_MANIFEST)
        layout: Dict[str, Dict[str, dict]] = manifest["artifacts"]
        dtype = np.dtype(manifest.get("dtype", "<f8"))
        wanted = tuple(layout) if names is None else tuple(n for n in names if n in layout)
        store = cls()
        if not wanted:
            return store
        segment = np.memmap(directory / SHARED_WEIGHTS_BIN, dtype=np.uint8, mode="r")
        for name in wanted:
            state: Dict[str, np.ndarray] = {}
            for param_name, spec in layout[name].items():
                shape = tuple(int(x) for x in spec["shape"])
                nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                start = int(spec["offset"])
                view = segment[start : start + nbytes].view(dtype).reshape(shape)
                state[param_name] = view
            store.set(name, Phase1Artifacts.load(directory / name, state=state, copy=False))
        return store

    @staticmethod
    def shared_at(directory: PathLike) -> bool:
        """True when ``directory`` holds a packed shared-weight segment."""
        directory = Path(directory)
        return (directory / SHARED_WEIGHTS_MANIFEST).is_file() and (
            directory / SHARED_WEIGHTS_BIN
        ).is_file()

    # ------------------------------------------------------------------
    # persistent score/evaluation-cache snapshots
    # ------------------------------------------------------------------
    def model_hash(self) -> str:
        """Content hash of every present model's parameters.

        Cached predicted scores are functions of the model weights, not
        just of ``(program, io_set)``, so persisted cache snapshots are
        keyed by this hash: a snapshot written under one set of weights
        is silently discarded when loaded under another (a retrain, a
        different seed, a different preset).  An empty store hashes to a
        stable constant, so artifact-free sessions (edit/oracle) can
        still persist their model-independent evaluation caches.

        Memoized: weights are immutable once an artifact is in the store
        (training happens before :meth:`set`, attached segments are
        read-only), so the O(model-size) serialize-and-hash walk runs
        once per store mutation instead of once per persisting ``run()``.
        """
        if self._model_hash is None:
            digest = hashlib.sha256()
            for name in self.names():
                state = self.get(name).model.state_dict()
                for param_name in sorted(state):
                    digest.update(f"{name}/{param_name}".encode())
                    digest.update(np.ascontiguousarray(state[param_name], dtype="<f8").tobytes())
            self._model_hash = digest.hexdigest()
        return self._model_hash

    def _log_dir(self, directory: PathLike) -> Path:
        return Path(directory) / CACHE_LOG_DIR

    @staticmethod
    def _read_manifest(log_dir: Path) -> Optional[dict]:
        path = log_dir / CACHE_LOG_MANIFEST
        if not path.is_file():
            return None
        try:
            manifest = load_json(path)
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        """One CRC frame around a pickled segment payload."""
        return _SEGMENT_MAGIC + _SEGMENT_HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    @staticmethod
    def _frame_payloads(data: bytes) -> Optional[List[memoryview]]:
        """The payload of every frame in a segment file's bytes.

        ``None`` when the file holds no frame or any frame is bad: a
        missing magic, a short header or payload (a truncated last
        frame), or a CRC mismatch.  Checks bytes only — nothing is
        unpickled.
        """
        view = memoryview(data)
        payloads: List[memoryview] = []
        offset = 0
        while offset < len(data):
            header_end = offset + _FRAME_HEADER_SIZE
            if header_end > len(data) or not data.startswith(_SEGMENT_MAGIC, offset):
                return None
            length, crc = _SEGMENT_HEADER.unpack_from(data, offset + len(_SEGMENT_MAGIC))
            end = header_end + length
            payload = view[header_end:end]
            if end > len(data) or zlib.crc32(payload) != crc:
                return None
            payloads.append(payload)
            offset = end
        return payloads or None

    @classmethod
    def _load_segment(cls, path: Path) -> Tuple[List[Dict[str, dict]], str]:
        """One segment's snapshots, one per frame, plus a load status.

        Returns ``(snapshots, status)`` with status ``"ok"``,
        ``"missing"`` (file gone — e.g. a concurrent compaction deleted
        it after the manifest was read) or ``"corrupt"`` (short file,
        a truncated or CRC-failing frame, unframed file, or unreadable
        pickle — e.g. a writer killed mid-append).  Any bad frame skips
        the whole file.  Never raises: a bad segment costs its entries,
        not the load.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return [], "missing"
        payloads = cls._frame_payloads(data)
        if payloads is None:
            return [], "corrupt"
        frames: List[Dict[str, dict]] = []
        for payload in payloads:
            try:
                loaded = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - corrupt pickles raise many types
                return [], "corrupt"
            snapshots = loaded.get("snapshots", {}) if isinstance(loaded, dict) else {}
            frames.append(snapshots if isinstance(snapshots, dict) else {})
        return frames, "ok"

    @staticmethod
    def _count_entries(snapshots: Dict[str, dict]) -> int:
        return sum(
            len(entries) for parts in snapshots.values() for entries in parts.values()
        )

    def save_caches(
        self,
        directory: PathLike,
        snapshots: Dict[str, dict],
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    ) -> Path:
        """Append one cache-log segment next to the artifacts (the L3 tier).

        ``snapshots`` maps ``"<method>:<program_length>"`` to the output
        of ``NetSynBackend.cache_snapshot()`` — ideally the *dirty-only*
        delta since the last persist, so the write cost scales with the
        new entries, not with the accumulated cache size.  The segment
        is one CRC frame around the pickled snapshots.  The log's
        manifest is keyed by :meth:`model_hash`; appending under changed
        weights resets the log (stale scores must never survive a
        retrain).  When the log
        exceeds ``compact_threshold`` segments it is folded into one
        segment by concatenating the segments' frames (see
        :meth:`_compact`); the load keeps the newest entry per key.

        Returns the path of the appended segment.
        """
        log_dir = self._log_dir(directory)
        log_dir.mkdir(parents=True, exist_ok=True)
        model_hash = self.model_hash()
        manifest = self._read_manifest(log_dir)
        if manifest is None or manifest.get("model_hash") != model_hash:
            for stale in log_dir.glob("segment-*.pkl"):
                stale.unlink(missing_ok=True)
            manifest = {
                "format_version": 1,
                "model_hash": model_hash,
                "next_seq": 1,
                "segments": [],
            }
        payload = pickle.dumps({"format_version": 3, "snapshots": dict(snapshots)})
        path = self._append_segment(
            log_dir, manifest, self._frame(payload), self._count_entries(snapshots)
        )
        if len(manifest["segments"]) > max(1, int(compact_threshold)):
            self._compact(log_dir, manifest)
        with self._manifest_lock(log_dir):
            self._reconcile(log_dir, manifest)
            self._write_manifest(log_dir, manifest)
        return path

    @staticmethod
    def _write_manifest(log_dir: Path, manifest: dict) -> None:
        """Atomically swap the manifest into place (write-temp + rename).

        A reader (or a concurrent session losing a manifest race) always
        observes a complete manifest — either the old one or the new one,
        never a half-written file.  The temp name is unique per write
        (PID, thread, counter) so concurrent writers — other sessions or
        other threads of this one — never trample an in-flight temp.
        """
        path = log_dir / CACHE_LOG_MANIFEST
        tmp = log_dir / (
            f".manifest.{os.getpid()}.{threading.get_ident()}."
            f"{next(_MANIFEST_TMP_SEQ)}.tmp"
        )
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
        os.replace(tmp, path)

    @staticmethod
    @contextmanager
    def _manifest_lock(log_dir: Path):
        """Serialize manifest read-modify-write cycles across writers.

        An advisory ``flock`` on a sidecar lock file closes the window
        between :meth:`_reconcile` re-reading the on-disk manifest and
        :meth:`_write_manifest` swapping the merged one in — without it a
        concurrent writer publishing in that window would have its record
        silently dropped by the last-writer-wins swap.  ``flock`` is
        taken on a fresh descriptor per call, so it also serializes
        threads of one process.  Platforms without ``fcntl`` fall back to
        the unlocked best-effort behaviour (readers stay safe either
        way; a lost record is re-adopted by the next reconcile).
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with (log_dir / ".manifest.lock").open("a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    @classmethod
    def _reconcile(cls, log_dir: Path, manifest: dict) -> None:
        """Fold a concurrently-written on-disk manifest into ``manifest``.

        Two sessions appending to one ``cache_log/`` race on the
        last-writer-wins manifest swap.  Exclusive segment creation
        already guarantees the loser's segment *file* survives; this
        re-reads the manifest just before writing and adopts any segment
        records (same model hash, file still present) the other session
        published meanwhile, so the race costs neither side its entries.
        """
        on_disk = cls._read_manifest(log_dir)
        if not on_disk or on_disk.get("model_hash") != manifest.get("model_hash"):
            return
        known = {record["file"] for record in manifest["segments"]}
        for record in on_disk.get("segments", ()):
            name = record.get("file")
            if name and name not in known and (log_dir / name).is_file():
                manifest["segments"].append(record)
        # drop records whose files a concurrent compaction already folded
        # into its combined segment (adopted above) and unlinked — keeping
        # them would make every future load skip phantom "missing" files
        manifest["segments"] = [
            record
            for record in manifest["segments"]
            if (log_dir / record["file"]).is_file()
        ]
        # zero-padded names sort in sequence order; keep merge order
        # (oldest first) deterministic across both racers
        manifest["segments"].sort(key=lambda record: record["file"])
        manifest["next_seq"] = max(
            int(manifest.get("next_seq", 1)), int(on_disk.get("next_seq", 1))
        )

    @staticmethod
    def _append_segment(log_dir: Path, manifest: dict, framed: bytes, entries: int) -> Path:
        """Write one segment of CRC frames and record it in ``manifest``.

        The file is created exclusively (``"xb"``): when a concurrent
        session already claimed this sequence number the append simply
        takes the next one, so two sessions sharing one ``cache_log/``
        never overwrite each other's segments.
        """
        while True:
            seq = int(manifest["next_seq"])
            manifest["next_seq"] = seq + 1
            name = _SEGMENT_FORMAT.format(seq=seq)
            path = log_dir / name
            try:
                with path.open("xb") as handle:
                    handle.write(framed)
                break
            except FileExistsError:
                continue  # a concurrent session claimed this seq: take the next
        from repro.execution import faults

        faults.fire("l3_append", target=name, path=path)
        manifest["segments"].append({"file": name, "entries": entries})
        return path

    @classmethod
    def _merge_segments(
        cls,
        log_dir: Path,
        manifest: dict,
        on_skip: Optional[Callable[[str, str], None]] = None,
    ) -> Dict[str, dict]:
        """Concatenate every segment's entries, oldest segment first.

        Per snapshot key and section the entry lists are concatenated in
        append order, so when a later segment re-writes a key its entry
        comes last — exactly what the bounded load wants (it keeps each
        key's last occurrence, so later entries overwrite earlier ones).  One segment is
        unpickled at a time.  Missing or corrupt segments are skipped
        (reported through ``on_skip(file_name, status)``): they cost
        their entries, never the load.  Entries are not deduplicated
        here: the bounded load (``stage_newest``) keeps each key's last
        occurrence.
        """
        merged: Dict[str, dict] = {}
        for record in manifest.get("segments", ()):
            frames, status = cls._load_segment(log_dir / record["file"])
            if status != "ok":
                cls._skip(record["file"], status, on_skip)
                continue
            for snapshots in frames:
                for key, parts in snapshots.items():
                    target = merged.setdefault(key, {})
                    for section, entries in parts.items():
                        target.setdefault(section, []).extend(entries)
        return merged

    @staticmethod
    def _skip(name: str, status: str, on_skip: Optional[Callable[[str, str], None]]) -> None:
        logger.warning("cache log: skipping %s segment %s", status, name)
        if on_skip is not None:
            on_skip(name, status)

    @classmethod
    def _compact(cls, log_dir: Path, manifest: dict) -> None:
        """Fold the whole log into one segment, byte for byte.

        The good segments' bytes are concatenated, oldest first, into one
        new segment of many frames; nothing is unpickled.  Each file's
        frames are CRC-checked first, and a file with a bad frame is
        dropped whole as ``"corrupt"``, exactly as a load would skip it.
        Loading the folded segment yields the same entries in the same
        order as loading the segments it replaced, so newest-wins
        deduplication is left to the load (``stage_newest``).
        """
        old_files = [record["file"] for record in manifest.get("segments", ())]
        chunks: List[bytes] = []
        entries = 0
        for record in manifest.get("segments", ()):
            try:
                data = (log_dir / record["file"]).read_bytes()
            except OSError:
                cls._skip(record["file"], "missing", None)
                continue
            if cls._frame_payloads(data) is None:
                cls._skip(record["file"], "corrupt", None)
                continue
            chunks.append(data)
            entries += int(record.get("entries", 0))
        manifest["segments"] = []
        if chunks:
            cls._append_segment(log_dir, manifest, b"".join(chunks), entries)
        for name in old_files:
            (log_dir / name).unlink(missing_ok=True)

    def compact_cache_log(self, directory: PathLike) -> bool:
        """Explicitly fold the cache log into one segment (False if no log)."""
        log_dir = self._log_dir(directory)
        manifest = self._read_manifest(log_dir)
        if manifest is None or not manifest.get("segments"):
            return False
        self._compact(log_dir, manifest)
        with self._manifest_lock(log_dir):
            self._reconcile(log_dir, manifest)
            self._write_manifest(log_dir, manifest)
        return True

    def load_caches(
        self,
        directory: PathLike,
        on_skip: Optional[Callable[[str, str], None]] = None,
    ) -> Dict[str, dict]:
        """Reload persisted snapshots (``{}`` when absent or stale).

        Reads the append-only cache log.  A log written under different
        model weights (stale hash) or an unreadable manifest yields
        ``{}`` — a cold start, never an error: the cache is an
        optimization, not state the session depends on.

        Corrupt or missing segments are skipped (never raised); each skip
        is reported through ``on_skip(file_name, status)``.  A *missing*
        segment usually means a concurrent session compacted the log
        between our manifest read and the segment read — the load
        re-reads the manifest and retries the merge once before
        accepting the loss.
        """
        log_dir = self._log_dir(directory)
        manifest = self._read_manifest(log_dir)
        if manifest is None or manifest.get("model_hash") != self.model_hash():
            return {}
        for attempt in range(2):
            skipped: List[Tuple[str, str]] = []
            merged = self._merge_segments(
                log_dir, manifest, on_skip=lambda name, status: skipped.append((name, status))
            )
            if attempt == 0 and any(status == "missing" for _, status in skipped):
                manifest = self._read_manifest(log_dir)
                if manifest is None or manifest.get("model_hash") != self.model_hash():
                    return {}
                continue
            if on_skip is not None:
                for name, status in skipped:
                    on_skip(name, status)
            return merged
        return {}  # pragma: no cover - loop always returns

    @staticmethod
    def caches_saved_at(directory: PathLike) -> bool:
        """True when ``directory`` holds a persisted cache log."""
        return (Path(directory) / CACHE_LOG_DIR / CACHE_LOG_MANIFEST).is_file()
