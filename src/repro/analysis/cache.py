"""The incremental analysis cache behind warm ``repro lint`` runs.

Per-file records (violations + whole-program facts) are keyed by the
file's content hash, so an unchanged file is never re-parsed: a warm
run hashes each file, loads its record, rebuilds the ProjectGraph from
cached facts, and re-runs only the (pure, fast) whole-program rules.

Cross-file invalidation is deliberately coarse: per-file *facts* are
self-contained, but the per-file RL002 results depend on the difftest
registry and the project rules depend on the committed baseline, so the
environment hash folds in the analyzer version plus the content of
``pairs.py`` and ``bench_baseline.json``.  Any change to those — or to
the rule implementations themselves (bump :data:`ANALYZER_VERSION`) —
discards the whole cache rather than tracking fine-grained fact
dependencies.  That trade keeps the invalidation contract auditable:
a cache entry is valid iff (env hash, content hash) both match.

The cache lives in ``.reprolint-cache.json`` at the repository root
(gitignored); a corrupt or stale file is treated as empty, never an
error — the cache is an accelerator, not a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .graph import FileRecord

__all__ = ["ANALYZER_VERSION", "AnalysisCache"]

#: Bump on any rule or fact-schema change: the env hash folds this in,
#: so stale caches self-invalidate on upgrade.
ANALYZER_VERSION = "2.1"

CACHE_FILENAME = ".reprolint-cache.json"

#: Repo files whose content feeds per-file or project rule results
#: without being the linted file itself (the cross-file fact inputs).
_ENV_INPUTS = ("src/repro/difftest/pairs.py", "benchmarks/bench_baseline.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment_hash(root: Path) -> str:
    """Hash of everything that can invalidate cached results globally."""
    digest = hashlib.sha256(ANALYZER_VERSION.encode())
    for relative in _ENV_INPUTS:
        path = Path(root) / relative
        digest.update(relative.encode())
        try:
            digest.update(path.read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()


class AnalysisCache:
    """Content-hash-keyed store of :class:`FileRecord` payloads."""

    def __init__(self, root: Path, path: Path | None = None):
        self.root = Path(root)
        self.path = Path(path) if path is not None else self.root / CACHE_FILENAME
        self.env = environment_hash(self.root)
        self._entries: dict[str, dict] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load_file()

    def _load_file(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or payload.get("env") != self.env:
            return  # analyzer/registry/baseline changed: start over
        entries = payload.get("files")
        if isinstance(entries, dict):
            self._entries = entries

    # -- per-file records ----------------------------------------------

    def load(self, display: str, path: Path) -> FileRecord | None:
        """The cached record for ``display``, iff its content hash still
        matches the file on disk."""
        entry = self._entries.get(display)
        if entry is None:
            self.misses += 1
            return None
        try:
            content_hash = _sha256(path.read_bytes())
        except OSError:
            self.misses += 1
            return None
        if entry.get("hash") != content_hash:
            self.misses += 1
            return None
        try:
            record = FileRecord.from_json(entry["record"])
        except (KeyError, ValueError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store(self, display: str, path: Path, record: FileRecord) -> None:
        try:
            content_hash = _sha256(path.read_bytes())
        except OSError:
            return
        self._entries[display] = {"hash": content_hash, "record": record.to_json()}
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {"env": self.env, "files": self._entries}
        tmp = self.path.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(self.path)
        except OSError:
            return  # best-effort: a read-only checkout just runs cold
        self._dirty = False

    def clear(self) -> None:
        self._entries = {}
        self._dirty = True
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass
