"""Shared fixtures for the benchmark harness.

The EC2 simulations are the expensive part (tens of seconds each), and
Figures 4, 5 and 6 all view the same runs, so results go through the
parallel experiment runner: independent (scheme, size) configurations
fan across ``multiprocessing`` workers and land in an on-disk cache
keyed by the configuration and source hash.  Repeated benchmark sessions — and any
other process asking for the same configuration — reuse the cached
results instead of re-simulating; an in-process memo on top avoids
re-reading pickles within one session.

Every benchmark writes its paper-versus-measured report into
``results/`` next to this directory, and the session emits a
machine-readable ``BENCH_results.json`` (wall-clock timings per
benchmark plus any metrics recorded via :func:`record_metric`) — a
per-session artifact, uploaded by CI and not committed.  Under GitHub
Actions the session also appends its spec/engine ratio table to the
step summary.  The ratios are a record, not a gate: ``e2ebench`` alone
decides whether anything got slower.

Environment knobs: ``REPRO_JOBS`` (worker count, default: CPU count)
and ``REPRO_CACHE_DIR`` (cache location, default ``.cache/experiments``
under the repo root).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.experiments import (
    EC2ExperimentSummary,
    ResultCache,
    run_ec2_experiment_parallel,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"
CACHE_DIR = pathlib.Path(
    os.environ.get("REPRO_CACHE_DIR", ROOT / ".cache" / "experiments")
)

EC2_CACHE = ResultCache(CACHE_DIR)
_EC2_MEMO: dict[tuple[int, int], EC2ExperimentSummary] = {}

_TIMINGS: dict[str, float] = {}
_METRICS: dict[str, float] = {}

#: Where the benches that time their phases by hand record the two sides
#: of their ratio; every ``compare_speed`` bench uses
#: ``{name}_spec_seconds`` / ``{name}_engine_seconds``.
_HAND_TIMED_SECONDS = {
    "blockindex_speedup": (
        "blockindex_dict_seconds_1m_blocks",
        "blockindex_columnar_seconds_1m_blocks",
    ),
    "montecarlo_batched_speedup": (
        "montecarlo_loop_seconds_10k_trials",
        "montecarlo_batched_seconds_10k_trials",
    ),
    "network_speedup": ("network_seed_seconds", "network_flownet_seconds"),
    "network_speedup_5k_flows": (
        "network_seed_seconds_5k_flows",
        "network_flownet_seconds_5k_flows",
    ),
    "readservice_speedup": (
        "readservice_seed_seconds_1m_reads",
        "readservice_engine_seconds_1m_reads",
    ),
}


def get_ec2_result(num_files: int, seed: int | None = None) -> EC2ExperimentSummary:
    """Run (or fetch the cached) EC2 experiment at a given scale."""
    key = (num_files, seed if seed is not None else num_files)
    if key not in _EC2_MEMO:
        _EC2_MEMO[key] = run_ec2_experiment_parallel(
            num_files=key[0], seed=key[1], cache=EC2_CACHE
        )
    return _EC2_MEMO[key]


def write_report(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


def record_metric(name: str, value: float) -> None:
    """Register a measured number for the session's BENCH_results.json."""
    _METRICS[name] = float(value)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    try:
        return (yield)
    finally:
        _TIMINGS[item.nodeid] = round(time.perf_counter() - start, 4)


def pytest_sessionfinish(session, exitstatus):
    if not _TIMINGS:
        return
    payload = {
        "schema": 1,
        "exit_status": int(exitstatus),
        "cache": {
            "dir": str(CACHE_DIR),
            "hits": EC2_CACHE.hits,
            "misses": EC2_CACHE.misses,
        },
        "timings_seconds": dict(sorted(_TIMINGS.items())),
        "metrics": dict(sorted(_METRICS.items())),
    }
    (ROOT / "BENCH_results.json").write_text(json.dumps(payload, indent=2) + "\n")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(ratio_table(payload["metrics"]))


def ratio_table(metrics: dict[str, float]) -> str:
    """Markdown rows (name, spec s, engine s, ratio) for every recorded
    ``*_speedup`` metric of one session's BENCH_results.json."""
    lines = [
        "## spec/engine ratios (recorded, not gated)",
        "",
        "| metric | spec s | engine s | ratio |",
        "| --- | ---: | ---: | ---: |",
    ]
    for key in sorted(k for k in metrics if "_speedup" in k):
        stem = key.removesuffix("_speedup")
        spec_key, engine_key = _HAND_TIMED_SECONDS.get(
            key, (f"{stem}_spec_seconds", f"{stem}_engine_seconds")
        )
        lines.append(
            f"| {key} | {metrics[spec_key]:.4f} | {metrics[engine_key]:.4f} "
            f"| {metrics[key]:.1f}x |"
        )
    return "\n".join(lines) + "\n"
