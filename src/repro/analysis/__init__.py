"""reprolint: the repository's invariant analyzer.

The reproduction's credibility rests on conventions that used to live
only in reviewer memory — every random draw derives from a config seed
via spawned streams, every vectorized engine keeps its scalar spec with
a differential test, and every config knob is validated and reaches
the cache key.
reprolint mechanizes those contracts: per-file rules dispatched from a
single ``ast.parse`` walk, and whole-program rules that query the
project fact graph (:mod:`repro.analysis.graph`, built from the same
parse) through an interprocedural taint lattice
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

from .core import LintContext, RuleViolation, lint_source
from .graph import ProjectGraph, analyze_paths
from .project import run_project_rules_ex
from .registry import PROJECT_RULE_CODES, RULE_DESCRIPTIONS, explain
from .report import render_github, render_human, render_json
from .rules import FILE_RULES

__all__ = [
    "FILE_RULES",
    "LintContext",
    "PROJECT_RULE_CODES",
    "ProjectGraph",
    "RULE_DESCRIPTIONS",
    "RuleViolation",
    "analyze_paths",
    "explain",
    "lint_repo",
    "lint_source",
    "render_github",
    "render_human",
    "render_json",
    "run_project_rules_ex",
]


def lint_repo(root=None, rules=None):
    """Lint the repository as ``repro lint`` does (see
    :func:`repro.analysis.cli.analyze_repo`); returns the sorted
    violation list.  Used by the self-application test."""
    from .cli import analyze_repo, resolve_root

    _, violations, _ = analyze_repo(resolve_root(root), rules)
    return violations
