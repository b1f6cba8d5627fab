"""Whole-program reprolint rules.

All three run over the :class:`~repro.analysis.graph.ProjectGraph` fact
table:

* **RL003 spec/engine conformance** — every declared ``EnginePair`` has
  a ``tests/`` file naming both its spec and engine symbols.
* **RL009 seed provenance** — interprocedural taint: every value
  reaching a ``default_rng``/``spawn_streams`` seed argument must flow
  from a config seed field or a threaded ``seed`` parameter, through
  any number of locals, arithmetic steps, or helper calls.
* **RL011 cache-key completeness** — every ``ClusterConfig``/
  ``DegradedReadConfig`` field must reach a cache-key builder
  (``config_hash``/``schedule_run_key``-style) or sit on the documented
  exclusion list (``checkpoint_*`` policy knobs, ``_*`` runtime keys).
"""

from __future__ import annotations

from typing import Iterable

from .core import Rule, RuleViolation
from .dataflow import CONST, SEEDED, resolve_taint
from .graph import PAIRS_PATH, ProjectGraph

__all__ = [
    "CacheKeyCompletenessRule",
    "ConformanceRule",
    "PROJECT_RULE_CLASSES",
    "PROJECT_RULES",
    "SeedProvenanceRule",
    "run_project_rules_ex",
]


# ---------------------------------------------------------------------------
# Project rule classes
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """Base for whole-program rules.  Findings silenced by a
    ``disable=`` pragma in the anchoring file are tallied in
    ``self.suppressed``."""

    kind = "project"

    def __init__(self) -> None:
        self.suppressed = 0

    def check(self, graph: ProjectGraph) -> list[RuleViolation]:
        raise NotImplementedError

    def _report(
        self,
        violations: list[RuleViolation],
        graph: ProjectGraph,
        path: str,
        line: int,
        message: str,
        end_line: int | None = None,
    ) -> None:
        facts = graph.files.get(path)
        if facts is not None and not facts.pragma_allows(
            self.code, line, end_line or line
        ):
            self.suppressed += 1
            return
        violations.append(RuleViolation(path, line, self.code, message))


class ConformanceRule(ProjectRule):
    """RL003: every registered pair has a differential test."""

    code = "RL003"
    description = (
        "spec/engine conformance: every declared EnginePair has a "
        "differential test in tests/"
    )
    contract = (
        "Every EnginePair in difftest/pairs.py must have a tests/ file exercising "
        "both its spec and engine symbols."
    )
    example_bad = (
        "EnginePair('widget', spec=..., engine=...)  # no test names both"
    )
    example_good = (
        "EnginePair('widget', spec=..., engine=...)\n"
        "# plus tests/test_widget.py referencing spec and engine"
    )
    escape = (
        "none — no pragma silences RL003: add the differential test"
    )

    def check(self, graph):
        tests = [
            facts.test_identifiers
            for facts in graph.files.values()
            if facts.scope == "tests"
        ]
        violations: list[RuleViolation] = []
        for pair, line in graph.pairs:
            spec_symbol = pair.spec.rsplit(".", 1)[-1]
            engine_symbol = pair.engine.rsplit(".", 1)[-1]
            if not any({spec_symbol, engine_symbol} <= names for names in tests):
                violations.append(
                    RuleViolation(
                        PAIRS_PATH,
                        line,
                        self.code,
                        f"engine pair {pair.subsystem!r} has no differential "
                        f"test: no tests/ file references both "
                        f"{spec_symbol!r} and {engine_symbol!r}",
                    )
                )
        return violations


class SeedProvenanceRule(ProjectRule):
    """RL009: every RNG stream traces to sanctioned entropy.

    For each ``default_rng``/``spawn_streams`` call site in
    ``src/repro``, the dataflow taint of its arguments — resolved
    interprocedurally through the project symbol table — must be
    SEEDED: flowing from a seed-like parameter, a config seed field, or
    a spawned stream.  CONST means a hidden constant seed (possibly
    laundered through locals, arithmetic, or helper functions); UNKNOWN
    means provenance that cannot be traced to any sanctioned source.
    Replaces RL001's old syntactic default_rng check.
    """

    code = "RL009"
    description = (
        "seed provenance (dataflow): every value reaching a default_rng/"
        "spawn_streams seed argument must flow from a config seed field or "
        "threaded seed parameter — constant and untraceable seeds are "
        "flagged even when laundered through locals, arithmetic, or helpers"
    )
    contract = (
        "Every default_rng()/spawn_streams() argument must resolve — "
        "through the interprocedural taint lattice — to sanctioned "
        "entropy: a seed-like parameter (seed, rng, *_seed, ...), a "
        "seed-named attribute (config.failure_seed), or a seed factory "
        "(SeedSequence/spawn).  Constants (however laundered) and "
        "untraceable values are both violations: one is a hidden fixed "
        "stream, the other cannot be audited for the controlled-"
        "comparison contract."
    )
    example_bad = (
        "def make_rng(n):\n"
        "    s = 1234 + n          # laundered constant\n"
        "    return default_rng(s)"
    )
    example_good = (
        "def make_rng(seed, n):\n"
        "    return default_rng(seed + n)  # threaded config seed"
    )
    escape = "# reprolint: disable=RL009 on the call line"

    def check(self, graph):
        violations: list[RuleViolation] = []
        for path, facts in sorted(graph.files.items()):
            if facts.scope != "src":
                continue
            for site in facts.seed_sites:
                where = f"{site.func}() in {site.owner}"
                if site.taint is None:
                    message = (
                        f"seedless {where}: thread an explicit seed/rng "
                        "parameter (derive via difftest.spawn_streams)"
                    )
                else:
                    resolved = resolve_taint(site.taint, graph.lookup_summary)
                    if resolved is SEEDED:
                        continue
                    if resolved is CONST:
                        message = (
                            f"constant seed reaches {where}: a fixed "
                            "stream defeats config-derived reproducibility "
                            "no matter how the literal is laundered; "
                            "thread a seed parameter or config seed field"
                        )
                    else:
                        message = (
                            f"untraceable seed reaches {where}: the value "
                            "flows from no config seed field or threaded "
                            "seed parameter, so the stream cannot be "
                            "audited for the controlled-comparison contract"
                        )
                self._report(
                    violations, graph, path, site.line, message, site.end_line
                )
        return violations


class CacheKeyCompletenessRule(ProjectRule):
    """RL011: every config field reaches the cache key or is a
    documented exclusion.

    The parallel result cache and the checkpoint run keys identify a
    result by a hash of config fields; a field that never reaches any
    key builder makes two *different* experiments share one cache entry
    — wrong results, not a crash.  Fields may be excluded only under
    the documented prefixes: ``checkpoint_*`` (snapshot-policy knobs
    must not orphan on-disk checkpoints) and ``_*`` (runtime plumbing).
    """

    code = "RL011"
    description = (
        "cache-key completeness: every ClusterConfig/DegradedReadConfig "
        "field must reach config_hash/schedule_run_key (or another key "
        "builder) or match the documented exclusions checkpoint_*/_*"
    )
    #: Config dataclasses whose fields feed cached experiment identity.
    target_configs = ("ClusterConfig", "DegradedReadConfig")
    #: The documented exclusion list: checkpoint policy knobs (excluded
    #: so retuning snapshot cadence doesn't orphan checkpoints already
    #: on disk) and underscore-prefixed runtime plumbing (_runtime).
    documented_exclusions = ("checkpoint_", "_")
    contract = (
        "Every field of ClusterConfig and DegradedReadConfig must be "
        "incorporated into a cache key: via asdict(config) in a key "
        "builder (config_hash / schedule_run_key / *_config / key_for), "
        "via direct attribute access, or as a literal dict key.  The only "
        "sanctioned exclusions are the documented prefixes checkpoint_* "
        "(snapshot policy must not orphan on-disk checkpoints) and _* "
        "(runtime plumbing).  An unkeyed field lets two different "
        "experiments share one cache entry — wrong results, not a crash."
    )
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class ClusterConfig:\n"
        "    new_knob: float = 1.0  # never reaches any key builder"
    )
    example_good = (
        "fields = {k: v for k, v in asdict(config).items()\n"
        "          if not k.startswith('checkpoint_')}\n"
        "return config_hash({'config': fields, ...})"
    )
    escape = "# reprolint: disable=RL011 on the field line"

    def check(self, graph):
        builders = [
            builder
            for facts in graph.files.values()
            for builder in facts.key_builders
        ]
        string_cover: set[str] = set()
        attr_cover: set[str] = set()
        asdict_cover: dict[str, list[frozenset[str]]] = {}
        for builder in builders:
            string_cover |= builder.string_keys
            attr_cover |= builder.param_attrs
            for cls_name in builder.asdict_classes:
                asdict_cover.setdefault(cls_name, []).append(
                    builder.exclusion_prefixes
                )
        violations: list[RuleViolation] = []
        for path, facts in sorted(graph.files.items()):
            if facts.scope != "src":
                continue
            for cfg in facts.config_classes:
                if cfg.name not in self.target_configs:
                    continue
                for field_name, line in cfg.fields:
                    if field_name.startswith(self.documented_exclusions):
                        continue
                    reaches_asdict = any(
                        not any(
                            field_name.startswith(prefix) for prefix in exclusions
                        )
                        for exclusions in asdict_cover.get(cfg.name, ())
                    )
                    if (
                        reaches_asdict
                        or field_name in attr_cover
                        or field_name in string_cover
                    ):
                        continue
                    self._report(
                        violations,
                        graph,
                        path,
                        line,
                        f"{cfg.name}.{field_name} never reaches a cache-key "
                        "builder (config_hash/schedule_run_key/...) and is "
                        "not on the documented exclusion list "
                        "(checkpoint_*, _*): two different experiments "
                        "would share one cached result",
                    )
        return violations


#: Project rule classes in code order (composed with the per-file rules
#: by the registry; keep this the only hand-maintained list here).
PROJECT_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    ConformanceRule,
    SeedProvenanceRule,
    CacheKeyCompletenessRule,
)


def PROJECT_RULES() -> list[ProjectRule]:
    """Fresh instances of every whole-program rule."""
    return [cls() for cls in PROJECT_RULE_CLASSES]


def run_project_rules_ex(
    graph: ProjectGraph, rules: Iterable[str] | None = None
) -> tuple[list[RuleViolation], int]:
    """All whole-program rules (``rules`` filters by code) over the
    graph: (sorted violations, pragma-suppressed count)."""
    wanted = None if rules is None else set(rules)
    violations: list[RuleViolation] = list(graph.errors)
    suppressed = 0
    for rule in PROJECT_RULES():
        if wanted is not None and rule.code not in wanted:
            continue
        violations.extend(rule.check(graph))
        suppressed += rule.suppressed
    return sorted(violations), suppressed
