"""Parallel experiment runner with an on-disk result cache.

The cluster simulations behind Figures 4-6 are the expensive part of the
benchmark suite, and they are embarrassingly parallel: each (scheme,
size, seed) configuration drives its own cluster.  This module supplies
the two pieces that turn them into a pipeline:

* :class:`ResultCache` — pickle files keyed by a stable hash of the
  experiment configuration, written atomically, so results are reused
  across processes *and* sessions (the in-process dict the benchmark
  harness used before survived neither).
* :func:`parallel_map` — fan a worker over configurations with
  ``multiprocessing`` workers, resolving cache hits first and storing
  fresh results as they arrive.

Workers must be module-level functions of one argument (the
configuration mapping) so they pickle across process boundaries, and
configurations must be JSON-serialisable so their hash is stable across
interpreter runs — the cache key deliberately survives restarts, which
``hash()`` or pickled object identity would not.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "CACHE_FORMAT_VERSION",
    "ResultCache",
    "WorkerError",
    "config_hash",
    "default_jobs",
    "parallel_map",
]

#: Bump to invalidate every cached result (e.g. when the simulator's
#: behaviour changes in a way that alters results for identical configs).
#: v2: exactly-once repair-kind accounting (retried partial write
#: batches no longer double-count rebuilt blocks).
#: v3: flow-table network engine — grouped water-filling subtraction and
#: batched metric attribution perturb byte accumulators at float
#: re-association level (flow dynamics are unchanged bit for bit).
#: v4: degraded-read rows carry their latencies as float64 arrays.
CACHE_FORMAT_VERSION = 4


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable content hash of a JSON-serialisable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def default_jobs() -> int:
    """Worker count: the ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class ResultCache:
    """Pickle-per-result cache directory keyed by configuration hash.

    Writes go through a temporary file and ``os.replace`` so a crashed
    or concurrent writer can never leave a half-written entry; a
    corrupt or unreadable entry reads as a miss and is overwritten on
    the next store.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def key_for(self, config: Mapping[str, Any], namespace: str = "") -> str:
        # Underscore-prefixed keys are runtime-only plumbing (checkpoint
        # directories, resume flags): they never change results, so they
        # are excluded from the key and a resumed run re-enters the
        # cache under its original hash.
        semantic = {
            key: value
            for key, value in config.items()
            if not str(key).startswith("_")
        }
        return f"{namespace}-v{CACHE_FORMAT_VERSION}-{config_hash(semantic)}"

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        path = self.path_for(key)
        # Any failure to load — truncated or garbled pickle, classes
        # renamed since the entry was written — reads as a miss.  The
        # bad file is quarantined under a ``.corrupt`` suffix so the
        # rewrite cannot race a reader and the evidence survives for
        # debugging; a plainly absent file is just a miss.
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            try:
                os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
            except OSError:
                pass  # lost a quarantine race; the entry is gone either way
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.pkl"))) if self.root.exists() else 0

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*.pkl"):
                path.unlink()
                removed += 1
        return removed


class WorkerError(RuntimeError):
    """A worker failed: deterministically, or after exhausting its retries.

    Carries the failing configuration (so a dead sweep names the exact
    experiment that sank it), the attempt count, and the worker-side
    traceback text — the exception object itself may not survive the
    process boundary, its formatted traceback always does.
    """

    def __init__(
        self,
        config: Mapping[str, Any],
        attempts: int,
        cause_repr: str,
        cause_traceback: str,
    ):
        super().__init__(
            f"worker failed after {attempts} attempt(s) on config "
            f"{dict(config)!r}: {cause_repr}"
        )
        self.config = config
        self.attempts = attempts
        self.cause_repr = cause_repr
        self.cause_traceback = cause_traceback


@dataclass(frozen=True)
class _WorkerFailure:
    """Failure sentinel shipped back from a pool worker (picklable)."""

    config: Mapping[str, Any]
    attempts: int
    cause_repr: str
    cause_traceback: str


def _run_with_retries(packed: tuple) -> Any:
    """Pool target: run the real worker, retrying transient failures.

    Only ``OSError`` (a full disk, a vanished cache file, an exhausted
    fd table) is retried, with exponential backoff; the workers are
    seeded simulations, so any other exception is deterministic and
    surfaces on the first attempt.  Module-level (so it pickles under
    spawn) and exception-free: a crash becomes a :class:`_WorkerFailure`
    sentinel instead of sinking the whole ``pool.map``, which is what
    lets one poisoned task degrade a sweep gracefully.
    """
    worker, config, retries, backoff = packed
    for attempt in range(retries + 1):
        try:
            return worker(config)
        except Exception as exc:
            if isinstance(exc, OSError) and attempt < retries:
                if backoff > 0:
                    time.sleep(backoff * (2**attempt))
                continue
            return _WorkerFailure(
                config=config,
                attempts=attempt + 1,
                cause_repr=repr(exc),
                cause_traceback=traceback.format_exc(),
            )
    raise AssertionError("unreachable: every attempt returns or records")


def parallel_map(
    worker: Callable[[Mapping[str, Any]], Any],
    configs: Sequence[Mapping[str, Any]],
    jobs: int | None = None,
    cache: ResultCache | None = None,
    namespace: str = "",
    retries: int = 2,
    retry_backoff: float = 0.05,
    on_error: str = "raise",
) -> list[Any]:
    """Map ``worker`` over configurations, in order, with cache + fan-out.

    Cache hits never reach a worker.  The remaining configurations run
    on a ``multiprocessing`` pool when ``jobs`` exceeds one (and there
    is more than one of them), else inline in this process.  Fresh
    results are stored before returning, so a second call — from this
    process or any later one — is pure cache reads.

    A worker raising ``OSError`` is retried ``retries`` times with
    exponential backoff (``retry_backoff * 2**attempt`` seconds); any
    other exception is deterministic for a seeded simulation and is
    never retried.  Failures surface as :class:`WorkerError` carrying
    the failing configuration (``on_error="raise"``, the default) or
    are quarantined to ``None`` slots so the rest of the sweep survives
    (``on_error="quarantine"``); quarantined slots are never cached.
    """
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"on_error must be 'raise' or 'quarantine', not {on_error!r}")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    jobs = default_jobs() if jobs is None else max(1, jobs)
    results: list[Any] = [None] * len(configs)
    pending: list[int] = []
    keys: list[str | None] = [None] * len(configs)
    for index, config in enumerate(configs):
        if cache is not None:
            key = cache.key_for(config, namespace=namespace)
            keys[index] = key
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
                continue
        pending.append(index)
    if pending:
        todo = [
            (worker, configs[i], retries, retry_backoff) for i in pending
        ]
        if jobs > 1 and len(pending) > 1:
            # fork keeps workers cheap and inherits sys.path (needed for
            # PYTHONPATH=src invocations); it is only safe on Linux —
            # macOS/Windows fall back to their platform default (spawn).
            context = (
                get_context("fork")
                if sys.platform.startswith("linux")
                else get_context()
            )
            with context.Pool(processes=min(jobs, len(pending))) as pool:
                fresh = pool.map(_run_with_retries, todo)
        else:
            fresh = [_run_with_retries(packed) for packed in todo]
        for index, value in zip(pending, fresh):
            if isinstance(value, _WorkerFailure):
                if on_error == "raise":
                    raise WorkerError(
                        value.config,
                        value.attempts,
                        value.cause_repr,
                        value.cause_traceback,
                    )
                results[index] = None  # quarantined slot; never cached
                continue
            results[index] = value
            if cache is not None and keys[index] is not None:
                cache.put(keys[index], value)
    return results
