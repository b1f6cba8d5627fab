"""Crash-safe on-disk snapshot storage.

File format: an 8-byte magic, a little-endian schema version and payload
length, a SHA-256 digest of the payload, then the pickled payload.  A
writer that dies mid-write leaves only a temp file (the final name
appears atomically via ``os.replace`` after an fsync); a reader that
finds a truncated, bit-flipped, or wrong-version file raises
:class:`CorruptSnapshotError` and :meth:`CheckpointStore.latest`
quarantines the bad file with a ``.corrupt`` suffix and falls back to
the previous good epoch instead of crashing the run.

Checkpoints are keyed ``<run_key>-e<epoch>``, which is the per-epoch
extension of the experiment cache's config-hash keying: a resumed run
re-enters the store under the same run key and continues appending
epochs.  The payload a failure-schedule run stores is its own pickle
(:func:`repro.recovery.snapshot.snapshot`), and its run key carries the
source fingerprint, so the store never hands a run a pickle written by
other code.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["CheckpointStore", "CorruptSnapshotError", "STORE_SCHEMA"]

_MAGIC = b"RPROCKPT"
#: Bump when the container layout (not the payload) changes shape.
STORE_SCHEMA = 1

_HEADER = struct.Struct("<8sIQ32s")  # magic, schema, payload length, sha256


class CorruptSnapshotError(Exception):
    """The snapshot file cannot be trusted (truncated, corrupted, or
    written by an incompatible schema)."""


class CheckpointStore:
    """A directory of checksummed, atomically-written snapshot files."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- naming -------------------------------------------------------------

    def path_for(self, key: str, epoch: int) -> Path:
        if "/" in key or "\\" in key:
            raise ValueError(f"run key {key!r} must not contain path separators")
        return self.root / f"{key}-e{epoch:04d}.ckpt"

    def epochs(self, key: str) -> list[int]:
        """Epoch numbers with a (not necessarily valid) snapshot on disk."""
        prefix = f"{key}-e"
        epochs = []
        for path in self.root.glob(f"{prefix}*.ckpt"):
            suffix = path.name[len(prefix) : -len(".ckpt")]
            if suffix.isdigit():
                epochs.append(int(suffix))
        return sorted(epochs)

    # -- writing ------------------------------------------------------------

    def write(self, key: str, epoch: int, payload: Any) -> Path:
        """Serialize ``payload`` and publish it atomically.

        The bytes are fsynced before the rename and the directory entry
        after it, so a crash at any instant leaves either the previous
        snapshot set or the previous set plus this complete file — never
        a half-written file under the final name.
        """
        final = self.path_for(key, epoch)
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = _HEADER.pack(
            _MAGIC, STORE_SCHEMA, len(body), hashlib.sha256(body).digest()
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=final.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, final)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise
        self._fsync_dir()
        return final

    def _fsync_dir(self) -> None:
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- reading ------------------------------------------------------------

    def read(self, key: str, epoch: int) -> Any:
        """Load and verify one snapshot; raises :class:`CorruptSnapshotError`
        on any integrity failure and ``FileNotFoundError`` when absent."""
        path = self.path_for(key, epoch)
        raw = path.read_bytes()
        if len(raw) < _HEADER.size:
            raise CorruptSnapshotError(f"{path.name}: truncated header")
        magic, schema, length, digest = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise CorruptSnapshotError(f"{path.name}: bad magic {magic!r}")
        if schema != STORE_SCHEMA:
            raise CorruptSnapshotError(
                f"{path.name}: schema {schema} != expected {STORE_SCHEMA}"
            )
        body = raw[_HEADER.size :]
        if len(body) != length:
            raise CorruptSnapshotError(
                f"{path.name}: payload is {len(body)} bytes, header says {length}"
            )
        if hashlib.sha256(body).digest() != digest:
            raise CorruptSnapshotError(f"{path.name}: checksum mismatch")
        try:
            return pickle.loads(body)
        except Exception as exc:
            raise CorruptSnapshotError(
                f"{path.name}: unpicklable payload: {exc}"
            ) from exc

    def quarantine(self, key: str, epoch: int) -> Path:
        """Move a bad snapshot aside (``.corrupt``) so retries skip it."""
        path = self.path_for(key, epoch)
        target = path.with_suffix(path.suffix + ".corrupt")
        os.replace(path, target)
        return target

    def latest(self, key: str, max_epoch: int | None = None) -> tuple[int, Any] | None:
        """The newest *valid* snapshot at or below ``max_epoch``.

        Corrupted or truncated files are detected by checksum, moved
        aside, and the scan falls back to the previous epoch — the
        recovery guarantee a mid-write crash relies on.
        """
        for epoch in reversed(self.epochs(key)):
            if max_epoch is not None and epoch > max_epoch:
                continue
            try:
                return epoch, self.read(key, epoch)
            except CorruptSnapshotError:
                self.quarantine(key, epoch)
            except FileNotFoundError:
                continue
        return None

    # -- retention ----------------------------------------------------------

    def prune(self, key: str, keep: int) -> None:
        """Drop all but the newest ``keep`` snapshots for a run."""
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        for epoch in self.epochs(key)[:-keep]:
            try:
                os.unlink(self.path_for(key, epoch))
            except FileNotFoundError:
                pass
