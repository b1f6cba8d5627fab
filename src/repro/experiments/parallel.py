"""Parallel experiment runner with an on-disk result cache.

The cluster simulations behind Figures 4-6 are the expensive part of the
benchmark suite, and they are embarrassingly parallel: each (scheme,
size, seed) configuration drives its own cluster.  :func:`parallel_map`
fans a worker over configurations with ``multiprocessing`` workers,
resolving cache hits first and storing fresh results as they arrive in
a :class:`~repro.recovery.store.ResultCache` — the same crash-safe,
checksummed store that holds run checkpoints — so results are reused
across processes *and* sessions.

Workers must be module-level functions of one argument (the
configuration mapping) so they pickle across process boundaries, and
configurations must be JSON-serialisable so their hash is stable across
interpreter runs — the cache key deliberately survives restarts, which
``hash()`` or pickled object identity would not.  It also carries
:func:`~repro.recovery.snapshot.source_fingerprint`, so editing any
source file orphans every cached result instead of serving a stale one.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Mapping, Sequence

from ..recovery.snapshot import source_fingerprint
from ..recovery.store import ResultCache

__all__ = [
    "ResultCache",
    "WorkerError",
    "config_hash",
    "default_jobs",
    "parallel_map",
    "result_key",
]

#: A worker raising ``OSError`` (a full disk, a vanished cache file, an
#: exhausted fd table) is retried this many times, after
#: ``_RETRY_BACKOFF * 2**attempt`` seconds.
_RETRIES = 2
_RETRY_BACKOFF = 0.05


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable content hash of a JSON-serialisable configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def result_key(config: Mapping[str, Any], namespace: str = "") -> str:
    """The cache key of ``config``'s result: its hash plus the source's.

    Underscore-prefixed keys are runtime-only plumbing (checkpoint
    directories, resume flags): they never change results, so they are
    excluded and a resumed run re-enters the cache under its original
    key.
    """
    semantic = {
        key: value for key, value in config.items() if not str(key).startswith("_")
    }
    return f"{namespace}-" + config_hash(
        {"config": semantic, "source": source_fingerprint()}
    )


def default_jobs() -> int:
    """Worker count: the ``REPRO_JOBS`` env var, else the CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be a positive integer, got {env!r}")
    return jobs


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

    Only ``OSError`` is retried; the workers are seeded simulations, so
    any other exception is deterministic and surfaces on the first
    attempt.  Module-level (so it pickles under spawn) and
    exception-free: a crash becomes a :class:`_WorkerFailure` sentinel
    instead of sinking the whole ``pool.map``.
    """
    worker, config = packed
    for attempt in range(_RETRIES + 1):
        try:
            return worker(config)
        except Exception as exc:
            if isinstance(exc, OSError) and attempt < _RETRIES:
                time.sleep(_RETRY_BACKOFF * (2**attempt))
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
) -> list[Any]:
    """Map ``worker`` over configurations, in order, with cache + fan-out.

    Cache hits never reach a worker.  The remaining configurations run
    on a ``multiprocessing`` pool when ``jobs`` exceeds one (and there
    is more than one of them), else inline in this process.  Fresh
    results are stored before returning, so a second call — from this
    process or any later one — is pure cache reads.

    A worker raising ``OSError`` is retried twice with exponential
    backoff; any other exception is deterministic for a seeded
    simulation and is never retried.  A failure surfaces as
    :class:`WorkerError` carrying the failing configuration.
    """
    jobs = default_jobs() if jobs is None else max(1, jobs)
    results: list[Any] = [None] * len(configs)
    pending: list[int] = []
    keys: list[str | None] = [None] * len(configs)
    for index, config in enumerate(configs):
        if cache is not None:
            keys[index] = result_key(config, namespace=namespace)
            cached = cache.get(keys[index])
            if cached is not None:
                results[index] = cached
                continue
        pending.append(index)
    if pending:
        todo = [(worker, configs[i]) for i in pending]
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
                raise WorkerError(
                    value.config,
                    value.attempts,
                    value.cause_repr,
                    value.cause_traceback,
                )
            results[index] = value
            if cache is not None:
                cache.put(keys[index], value)
    return results
