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
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.phase1 import Phase1Artifacts
from repro.execution import faults
from repro.utils.frames import frame, scan
from repro.utils.logging import get_logger
from repro.utils.serialization import PathLike, load_json, save_json

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

logger = get_logger("core.artifacts")

#: every artifact name Phase 1 can produce, in canonical order
ARTIFACT_NAMES: Tuple[str, ...] = ("cf", "lcs", "fp", "step", "decoder")

_STORE_MANIFEST = "store.json"

#: shared-memory weight segment (one flat file + a JSON layout manifest)
SHARED_WEIGHTS_BIN = "shared_weights.bin"
SHARED_WEIGHTS_MANIFEST = "shared_weights.json"

#: the L3 tier: one append-only log of cache snapshots,
#: ``<artifact_dir>/cache_log/cache.log``.  It opens with a header frame
#: holding the model hash; each persist then appends one frame holding
#: only the entries written since the last persist
CACHE_LOG_DIR = "cache_log"
CACHE_LOG_FILE = "cache.log"
_CACHE_LOG_MAGIC = b"NSL3LOG1"

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

    def _log_header(self) -> bytes:
        """The frame a log written under these weights opens with."""
        return frame(_CACHE_LOG_MAGIC, self.model_hash().encode("ascii"))

    def save_caches(self, directory: PathLike, snapshots: Dict[str, dict]) -> Path:
        """Append one frame to the cache log next to the artifacts (the L3 tier).

        ``snapshots`` maps ``"<method>:<program_length>"`` to the output
        of ``NetSynBackend.cache_snapshot()`` — ideally the *dirty-only*
        delta since the last persist, so the write cost scales with the
        new entries, not with the accumulated cache size.  The frame is
        one CRC frame around the pickled snapshots; earlier bytes are
        never rewritten.  The log opens with a header frame holding
        :meth:`model_hash`: appending under changed weights (or onto a
        log without that header) truncates it first, so stale scores
        never survive a retrain.  An exclusive ``flock`` on the log
        serializes appenders across threads and processes.

        Returns the log's path.
        """
        path = Path(directory) / CACHE_LOG_DIR / CACHE_LOG_FILE
        path.parent.mkdir(parents=True, exist_ok=True)
        header = self._log_header()
        payload = pickle.dumps({"format_version": 3, "snapshots": dict(snapshots)})
        with path.open("a+b") as handle:
            _lock(handle, exclusive=True)
            handle.seek(0)
            if handle.read(len(header)) != header:
                handle.truncate(0)
                handle.write(header)
            start = handle.seek(0, os.SEEK_END)
            handle.write(frame(_CACHE_LOG_MAGIC, payload))
            handle.flush()
            faults.fire("l3_append", target=path.name, path=path, offset=start)
        return path

    def load_caches(
        self,
        directory: PathLike,
        on_skip: Optional[Callable[[str, str], None]] = None,
    ) -> Dict[str, dict]:
        """Reload persisted snapshots (``{}`` when absent or stale).

        Reads the cache log under a shared ``flock``.  A log whose header
        names other model weights (or that has no header) yields ``{}`` —
        a cold start, never an error: the cache is an optimization, not
        state the session depends on.  Otherwise every good frame is
        merged oldest first: per snapshot key and section the entry lists
        are concatenated in append order, so a key re-written later comes
        last, and the bounded load (``stage_newest``) keeps each key's
        last occurrence.  A bad frame — torn, CRC-failing, unframed or
        unpicklable — costs only its own entries and is reported through
        ``on_skip(file_name, reason)``.
        """
        path = Path(directory) / CACHE_LOG_DIR / CACHE_LOG_FILE
        try:
            with path.open("rb") as handle:
                _lock(handle, exclusive=False)
                data = handle.read()
        except OSError:
            return {}
        header = self._log_header()
        if not data.startswith(header):
            return {}
        merged: Dict[str, dict] = {}
        frames = scan(data, _CACHE_LOG_MAGIC)
        next(frames)  # the header, matched above
        for offset, payload, reason in frames:
            if reason is None:
                try:
                    snapshots = pickle.loads(payload)["snapshots"]
                except Exception:  # noqa: BLE001 - corrupt pickles raise many types
                    reason = "unreadable payload"
            if reason is not None:
                reason = f"{reason} at offset {offset}"
                logger.warning("cache log: skipping a frame of %s (%s)", path.name, reason)
                if on_skip is not None:
                    on_skip(path.name, reason)
                continue
            for key, parts in snapshots.items():
                target = merged.setdefault(key, {})
                for section, entries in parts.items():
                    target.setdefault(section, []).extend(entries)
        return merged

    @staticmethod
    def caches_saved_at(directory: PathLike) -> bool:
        """True when ``directory`` holds a persisted cache log."""
        return (Path(directory) / CACHE_LOG_DIR / CACHE_LOG_FILE).is_file()


def _lock(handle, exclusive: bool) -> None:
    """Take an advisory ``flock`` on ``handle``; closing it releases the lock.

    The lock is per open file, so it serializes threads of one process as
    well as processes.  Without ``fcntl`` appends go unlocked.
    """
    if fcntl is not None:
        fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
