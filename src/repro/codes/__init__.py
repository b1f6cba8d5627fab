"""Erasure codes: Reed-Solomon, Locally Repairable Codes, replication.

The package mirrors the paper's Section 2 (constructions), Appendix B
(bounds) and Appendix C (flow-graph achievability), plus the trivial
replication baseline of Table 1.
"""

from .analysis import (
    RepairCostSummary,
    achieves_locality_bound,
    certify_distance,
    certify_locality,
    is_mds,
    repair_cost_summary,
)
from .base import CodeParameters, DecodingError, ErasureCode, RepairPlan
from .engine import (
    CodecEngine,
    DecoderCache,
    EngineStats,
    RepairDecision,
    RepairPlanner,
)
from .xorplane import XorSchedule, compile_xor_schedule, cse_rows
from .bounds import (
    Theorem1Parameters,
    locality_distance_bound,
    lrc_distance,
    mds_locality_lower_bound,
    overlapping_groups_distance_bound,
    rlnc_field_size_bound,
    rlnc_success_probability,
    singleton_bound,
    theorem1_parameters,
)
from .cauchy import (
    CauchyRSCode,
    build_parity_bitmatrix,
    element_to_bitmatrix,
    xor_count,
)
from .construction import (
    deterministic_lrc,
    find_alignment_coefficients,
    nonzero_nullspace_vector,
    xor_alignment_holds,
)
from .flowgraph import (
    build_flow_graph,
    distance_feasible,
    max_feasible_distance,
    min_cut_over_collectors,
)
from .linear import LinearCode, systematize
from .lrc import LocalGroup, LocallyRepairableCode, make_lrc, xorbas_lrc
from .pyramid import PyramidCode, pyramid_10_4
from .reed_solomon import ReedSolomonCode, rs_10_4
from .replication import ReplicationCode, three_replication
from .rlnc import random_lrc, sample_lrc_generator
from .simple_regenerating import SimpleRegeneratingCode, SubSymbolRead

__all__ = [
    "CodeParameters",
    "CodecEngine",
    "DecoderCache",
    "DecodingError",
    "EngineStats",
    "ErasureCode",
    "RepairDecision",
    "RepairPlan",
    "RepairPlanner",
    "XorSchedule",
    "compile_xor_schedule",
    "cse_rows",
    "LinearCode",
    "systematize",
    "ReedSolomonCode",
    "rs_10_4",
    "LocalGroup",
    "LocallyRepairableCode",
    "make_lrc",
    "xorbas_lrc",
    "ReplicationCode",
    "three_replication",
    "random_lrc",
    "sample_lrc_generator",
    "PyramidCode",
    "pyramid_10_4",
    "SimpleRegeneratingCode",
    "SubSymbolRead",
    "CauchyRSCode",
    "build_parity_bitmatrix",
    "element_to_bitmatrix",
    "xor_count",
    "deterministic_lrc",
    "find_alignment_coefficients",
    "nonzero_nullspace_vector",
    "xor_alignment_holds",
    "RepairCostSummary",
    "achieves_locality_bound",
    "certify_distance",
    "certify_locality",
    "is_mds",
    "repair_cost_summary",
    "Theorem1Parameters",
    "locality_distance_bound",
    "lrc_distance",
    "mds_locality_lower_bound",
    "overlapping_groups_distance_bound",
    "rlnc_field_size_bound",
    "rlnc_success_probability",
    "singleton_bound",
    "theorem1_parameters",
    "build_flow_graph",
    "distance_feasible",
    "max_feasible_distance",
    "min_cut_over_collectors",
]
