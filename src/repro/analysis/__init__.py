"""reprolint: the repository's invariant analyzer.

The reproduction's credibility rests on conventions that used to live
only in reviewer memory — every random draw derives from a config seed
via spawned streams, every vectorized engine keeps its scalar spec with
a differential test, and every config knob is validated and reaches
the cache key.
reprolint mechanizes those contracts: each file is parsed once into the
project fact graph (:mod:`repro.analysis.graph`), and every rule is a
``check(graph)`` over it — RL001/RL006 walk the ``src/repro`` trees it
keeps, RL009 resolves seeds through an interprocedural taint lattice
(:mod:`repro.analysis.dataflow`).  Each rule has caught a real bug
(DESIGN.md "Enforced invariants").

Rules (each suppressible per line with ``# reprolint: disable=RL0xx``,
except RL003; run ``repro lint --explain RL0xx`` for the contract and
examples):

========  =============================================================
RL001     RNG discipline: no stdlib ``random`` / legacy ``np.random.*``
          calls in ``src/repro`` (default_rng provenance moved to RL009)
RL003     spec/engine conformance: every registered pair has a
          differential test naming both its spec and engine symbol
RL006     config validation: rate/duration/timeout-style numeric config
          fields must be covered by the config's ``validate()``
RL009     seed provenance (dataflow): every value reaching a
          ``default_rng``/``spawn_streams`` seed argument must flow
          from a config seed field or threaded seed parameter
RL011     cache-key completeness: every ClusterConfig/DegradedReadConfig
          field reaches a cache-key builder or a documented exclusion
========  =============================================================
"""

from .cli import analyze_repo
from .core import RuleViolation
from .graph import ProjectGraph
from .report import render_github, render_human
from .rules import RULE_DESCRIPTIONS, RULES, explain, lint_source, run_rules

__all__ = [
    "ProjectGraph",
    "RULES",
    "RULE_DESCRIPTIONS",
    "RuleViolation",
    "analyze_repo",
    "explain",
    "lint_source",
    "render_github",
    "render_human",
    "run_rules",
]
