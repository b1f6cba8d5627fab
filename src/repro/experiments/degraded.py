"""Degraded-read scenario sweeps over the read-service engine.

The paper's Section 4 coda predicts "higher availability due to these
faster degraded reads" but studies a single stationary workload; this
harness sweeps the scenario space the vectorized
:class:`~repro.cluster.readservice.ReadServiceEngine` opened up — Zipf
hot/cold stripe popularity, diurnal read-rate modulation and correlated
rack-level outages — and reports, per scheme, whether the LRC's
availability edge over RS survives each of them.  Every scenario keeps
the paired-seed discipline: all schemes see identical outage windows
and read arrival times.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace
from typing import Any

from ..cluster.degraded import (
    DegradedReadConfig,
    ReadServiceStats,
    compare_degraded_reads,
)
from ..codes import rs_10_4, three_replication, xorbas_lrc
from .parallel import ResultCache, parallel_map
from .report import fmt_or_na, format_table

__all__ = [
    "DEGRADED_SCHEME_CODES",
    "DegradedScenario",
    "degraded_scenarios",
    "run_degraded_scenarios",
    "render_degraded_scenarios",
    "run_scenario_config",
    "scenario_config",
]

#: Scheme registry keyed by the codes' display names, so a cached
#: configuration can name its code without pickling the code object.
DEGRADED_SCHEME_CODES = {
    "3-replication": three_replication,
    "RS(10,4)": rs_10_4,
    "LRC(10,6,5)": xorbas_lrc,
}


@dataclass(frozen=True)
class DegradedScenario:
    """One named workload configuration of the degraded-read study."""

    name: str
    config: DegradedReadConfig


def degraded_scenarios(
    duration: float = 6 * 3600.0, read_rate: float = 2.0
) -> tuple[DegradedScenario, ...]:
    """The standard sweep: baseline plus one scenario knob at a time."""
    base = DegradedReadConfig(duration=duration, read_rate=read_rate)
    return (
        DegradedScenario("uniform", base),
        DegradedScenario("zipf hot/cold", replace(base, zipf_exponent=1.2)),
        DegradedScenario("diurnal", replace(base, diurnal_amplitude=0.8)),
        DegradedScenario(
            "rack-correlated",
            replace(base, num_racks=5, rack_outage_rate=1.0 / 7200.0),
        ),
    )


def scenario_config(
    scenario: str,
    scheme: str,
    config: DegradedReadConfig,
    seed: int = 0,
) -> dict[str, Any]:
    """The JSON-serializable identity of one scenario/scheme cell.

    This dictionary is both the worker's input and the cache key:
    every :class:`DegradedReadConfig` field participates via
    ``asdict``, so adding a workload knob automatically invalidates
    stale cached rows instead of silently aliasing them.
    """
    if scheme not in DEGRADED_SCHEME_CODES:
        raise ValueError(
            f"unknown scheme {scheme!r} (use {sorted(DEGRADED_SCHEME_CODES)})"
        )
    return {
        "experiment": "degraded-read-scenario",
        "scenario": scenario,
        "scheme": scheme,
        "config": dict(asdict(config)),
        "seed": int(seed),
    }


def run_scenario_config(config: Mapping[str, Any]) -> ReadServiceStats:
    """Module-level worker: rebuild the code and run one cell.

    Must stay module-level and take only the JSON configuration so the
    parallel runner can pickle it across process boundaries.
    """
    code = DEGRADED_SCHEME_CODES[config["scheme"]]()
    read_config = DegradedReadConfig(**config["config"])
    (stats,) = compare_degraded_reads(
        [code], config=read_config, seed=config["seed"]
    )
    return stats


def run_degraded_scenarios(
    codes=None,
    scenarios: tuple[DegradedScenario, ...] | None = None,
    seed: int = 0,
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, list[ReadServiceStats]]:
    """Run every scenario against every scheme; rows keyed by scenario.

    Per-scheme runs are independent (the paired-seed discipline derives
    each scheme's streams from the same seed), so each scenario/scheme
    cell becomes one cacheable configuration: pass ``cache`` to skip
    cells a previous sweep already computed, and ``jobs`` to fan the
    misses out across processes.  Codes outside the scheme registry
    fall back to the direct, uncached path.
    """
    if scenarios is None:
        scenarios = degraded_scenarios()
    if codes is None:
        schemes = list(DEGRADED_SCHEME_CODES)
    else:
        schemes = [getattr(code, "name", None) for code in codes]
        if any(name not in DEGRADED_SCHEME_CODES for name in schemes):
            # Ad-hoc code objects have no registry entry to rebuild
            # from inside a worker; run them directly instead.
            return {
                scenario.name: compare_degraded_reads(
                    codes, config=scenario.config, seed=seed
                )
                for scenario in scenarios
            }
    configs = [
        scenario_config(scenario.name, scheme, scenario.config, seed)
        for scenario in scenarios
        for scheme in schemes
    ]
    rows = parallel_map(
        run_scenario_config, configs, jobs=jobs, cache=cache, namespace="degraded"
    )
    results: dict[str, list[ReadServiceStats]] = {}
    for config, stats in zip(configs, rows):
        results.setdefault(config["scenario"], []).append(stats)
    return results


def render_degraded_scenarios(
    results: dict[str, list[ReadServiceStats]],
) -> str:
    rows = []
    for scenario, stats_list in results.items():
        for stats in stats_list:
            rows.append(
                (
                    scenario,
                    stats.scheme,
                    stats.total_reads,
                    fmt_or_na(stats.degraded_fraction, ".2%"),
                    fmt_or_na(stats.availability, ".5f"),
                )
            )
    return format_table(
        ["scenario", "scheme", "reads", "degraded", "availability"],
        rows,
        title="Degraded-read availability across workload scenarios",
    )
