"""Reliability analysis: Markov MTTDL models and availability estimates.

Reproduces Section 4 of the paper (Figure 3's chain, Table 1's
comparison) with transition rates derived from the *actual* code objects'
repair planners.
"""

from .availability import (
    AvailabilityEstimate,
    degraded_read_delay,
    estimate_availability,
)
from .correlated import (
    BurstLossEstimate,
    burst_loss_probability,
    compare_burst_survival,
    place_stripe_racks,
)
from .markov import BirthDeathChain, mttdl_approximation
from .montecarlo import (
    AbsorptionEstimate,
    compress_chain,
    estimate_mttdl,
    simulate_times_to_absorption,
)
from .models import (
    ClusterReliabilityParameters,
    SchemeReliability,
    SchemeSimulation,
    analyze_scheme,
    build_chain,
    expected_reads_per_state,
    simulate_scheme_mttdl,
)
from .mttdl import PAPER_TABLE1, PaperTable1Row, compute_table1, mttdl_zeros
from .sensitivity import (
    ArchivalRow,
    SweepPoint,
    archival_comparison,
    sampled_repair_cost,
    sweep_bandwidth,
    sweep_node_mttf,
    sweep_repair_epoch,
)

__all__ = [
    "AvailabilityEstimate",
    "degraded_read_delay",
    "estimate_availability",
    "BirthDeathChain",
    "mttdl_approximation",
    "ClusterReliabilityParameters",
    "SchemeReliability",
    "analyze_scheme",
    "build_chain",
    "expected_reads_per_state",
    "PAPER_TABLE1",
    "PaperTable1Row",
    "compute_table1",
    "mttdl_zeros",
    "BurstLossEstimate",
    "burst_loss_probability",
    "compare_burst_survival",
    "place_stripe_racks",
    "AbsorptionEstimate",
    "compress_chain",
    "estimate_mttdl",
    "simulate_times_to_absorption",
    "SchemeSimulation",
    "simulate_scheme_mttdl",
    "ArchivalRow",
    "SweepPoint",
    "archival_comparison",
    "sampled_repair_cost",
    "sweep_bandwidth",
    "sweep_node_mttf",
    "sweep_repair_epoch",
]
