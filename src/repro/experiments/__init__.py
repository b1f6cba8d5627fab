"""Experiment harnesses regenerating every table and figure of Section 5.

Index (see DESIGN.md for the full mapping):

* Figure 1  — :mod:`repro.experiments.traces`
* Table 1   — :mod:`repro.experiments.reliability`
* Figures 4/5/6 — :mod:`repro.experiments.ec2`
* Figure 7 / Table 2 — :mod:`repro.experiments.workload`
* Table 3   — :mod:`repro.experiments.facebook`

Beyond the paper's own artefacts, three extension harnesses quantify
arguments the text makes in prose: :mod:`repro.experiments.baselines`
(Section 6's code-family comparison), :mod:`repro.experiments.geo`
(Section 1.1's geo-diversity argument) and
:mod:`repro.experiments.archival` (Section 7's archival-stripe claim).
"""

from .archival import render_archival, repair_traffic_ratio, run_archival_experiment
from .claims import Claim, ClaimResult, check_all_claims, paper_claims, render_claims
from .degraded import (
    DegradedScenario,
    degraded_scenarios,
    render_degraded_scenarios,
    run_degraded_scenarios,
)
from .baselines import BaselineRow, compare_baselines, render_baselines
from .ec2 import (
    EC2_FILE_SIZE,
    PAPER_BLOCKS_READ_PER_LOST,
    EC2ExperimentSummary,
    fig6_slopes,
    least_squares_slope,
    run_all_ec2_experiments_parallel,
    run_ec2_experiment_parallel,
)
from .parallel import ResultCache, config_hash, default_jobs, parallel_map
from .facebook import (
    FACEBOOK_NUM_FILES,
    PAPER_TABLE3,
    FacebookRow,
    facebook_file_sizes,
    run_facebook_experiment,
)
from .geo import (
    GeoCostProjection,
    project_yearly_wan_cost,
    render_geo,
    run_geo_experiment,
)
from .reliability import Table1Comparison, render_table1, table1_comparison
from .tradeoff import (
    TradeoffPoint,
    frontier_is_monotone,
    locality_sweep,
    render_tradeoff,
    verify_frontier,
)
from .report import format_bar_chart, format_series, format_table
from .runner import (
    SchemeRun,
    SchemeRunSummary,
    build_loaded_cluster,
    run_failure_schedule,
)
from .traces import generate_fig1_trace, render_fig1
from .workload import (
    PAPER_TABLE2,
    WorkloadResult,
    run_workload_experiment,
    run_workload_scenario,
)

__all__ = [
    "Claim",
    "ClaimResult",
    "check_all_claims",
    "paper_claims",
    "render_claims",
    "DegradedScenario",
    "degraded_scenarios",
    "render_degraded_scenarios",
    "run_degraded_scenarios",
    "render_archival",
    "repair_traffic_ratio",
    "run_archival_experiment",
    "BaselineRow",
    "compare_baselines",
    "render_baselines",
    "GeoCostProjection",
    "project_yearly_wan_cost",
    "render_geo",
    "run_geo_experiment",
    "TradeoffPoint",
    "frontier_is_monotone",
    "locality_sweep",
    "render_tradeoff",
    "verify_frontier",
    "EC2_FILE_SIZE",
    "PAPER_BLOCKS_READ_PER_LOST",
    "EC2ExperimentSummary",
    "fig6_slopes",
    "least_squares_slope",
    "run_all_ec2_experiments_parallel",
    "run_ec2_experiment_parallel",
    "ResultCache",
    "config_hash",
    "default_jobs",
    "parallel_map",
    "FACEBOOK_NUM_FILES",
    "PAPER_TABLE3",
    "FacebookRow",
    "facebook_file_sizes",
    "run_facebook_experiment",
    "Table1Comparison",
    "render_table1",
    "table1_comparison",
    "format_bar_chart",
    "format_series",
    "format_table",
    "SchemeRun",
    "SchemeRunSummary",
    "build_loaded_cluster",
    "run_failure_schedule",
    "generate_fig1_trace",
    "render_fig1",
    "PAPER_TABLE2",
    "WorkloadResult",
    "run_workload_experiment",
    "run_workload_scenario",
]
