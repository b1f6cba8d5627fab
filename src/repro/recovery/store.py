"""The one crash-safe on-disk store: experiment results and checkpoints.

File format: an 8-byte magic, a little-endian schema version and payload
length, a SHA-256 digest of the payload, then the pickled payload.  A
writer that dies mid-write leaves only a temp file (the final name
appears atomically via ``os.replace`` after an fsync); a reader that
finds a truncated, bit-flipped, or wrong-version file moves it aside
with a ``.corrupt`` suffix and reads a miss instead of crashing the run.

Keys are built by the caller and carry the source fingerprint
(:func:`repro.experiments.parallel.result_key`,
:func:`repro.experiments.runner.schedule_run_key`), so the store never
hands back a pickle written by other code.  A checkpoint is the entry
:func:`checkpoint_key` ``(run_key, epoch)``: a resumed run re-enters the
store under the same run key and continues appending epochs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Any

from .snapshot import snapshot

__all__ = ["ResultCache", "STORE_SCHEMA", "checkpoint_key"]

_MAGIC = b"RPROCKPT"
#: Bump when the container layout (not the payload) changes shape.
STORE_SCHEMA = 1

_HEADER = struct.Struct("<8sIQ32s")  # magic, schema, payload length, sha256


def checkpoint_key(run_key: str, epoch: int) -> str:
    """The entry holding ``run_key``'s snapshot before failure ``epoch``."""
    return f"{run_key}-e{epoch}"


def _decode(raw: bytes) -> Any:
    """Verify the container and unpickle its payload (``ValueError`` if
    the bytes cannot be trusted)."""
    if len(raw) < _HEADER.size:
        raise ValueError("truncated header")
    magic, schema, length, digest = _HEADER.unpack_from(raw)
    body = raw[_HEADER.size :]
    if magic != _MAGIC or schema != STORE_SCHEMA or len(body) != length:
        raise ValueError("bad header")
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("checksum mismatch")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise ValueError(f"unpicklable payload: {exc}") from exc


class ResultCache:
    """A directory of checksummed, atomically written pickles, one per key.

    ``hits`` and ``misses`` count :meth:`get` outcomes; a corrupt entry
    counts as a miss.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        if "/" in key or "\\" in key:
            raise ValueError(f"key {key!r} must not contain path separators")
        return self.root / f"{key}.pkl"

    def put(self, key: str, value: Any) -> Path:
        """Pickle ``value`` and publish it atomically under ``key``.

        The bytes are fsynced before the rename and the directory entry
        after it, so a crash at any instant leaves either the previous
        entry or this complete file — never a half-written file under
        the final name.
        """
        final = self.path_for(key)
        body = snapshot(value)
        header = _HEADER.pack(
            _MAGIC, STORE_SCHEMA, len(body), hashlib.sha256(body).digest()
        )
        self.root.mkdir(parents=True, exist_ok=True)
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
        fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        return final

    def get(self, key: str) -> Any | None:
        """The value stored under ``key``, or ``None`` for an absent entry
        or one that fails verification (moved aside as ``.corrupt``)."""
        path = self.path_for(key)
        try:
            value = _decode(path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None
        except ValueError:
            try:
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
            except OSError:
                pass  # lost the rename to another reader; the entry is gone
            self.misses += 1
            return None
        self.hits += 1
        return value

    def discard(self, key: str) -> None:
        self.path_for(key).unlink(missing_ok=True)

    def latest(self, run_key: str, max_epoch: int) -> tuple[int, Any] | None:
        """The newest *valid* checkpoint of ``run_key`` at or below
        ``max_epoch``, as ``(epoch, value)``.

        Corrupted or truncated files are detected by checksum, moved
        aside, and the scan falls back to the previous epoch — the
        recovery guarantee a mid-write crash relies on.
        """
        prefix = f"{run_key}-e"  # checkpoint_key without the epoch
        epochs = []
        for path in self.root.glob(f"{prefix}*.pkl"):
            suffix = path.name[len(prefix) : -len(".pkl")]
            if suffix.isdigit() and int(suffix) <= max_epoch:
                epochs.append(int(suffix))
        for epoch in sorted(epochs, reverse=True):
            value = self.get(checkpoint_key(run_key, epoch))
            if value is not None:
                return epoch, value
        return None
