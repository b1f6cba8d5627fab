"""The five reprolint rules and the one registry of them.

Each rule encodes one determinism or conformance contract the repo
learned the hard way (DESIGN.md "Enforced invariants" names the PR or
bug class behind each), and each is a ``check(graph)`` over the
:class:`~repro.analysis.graph.ProjectGraph`.  :data:`RULES` lists them
in code order; :data:`RULE_DESCRIPTIONS`, ``repro lint --explain`` and
the docs-consistency test all derive from it.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from typing import Iterable

from .core import Rule, RuleViolation
from .dataflow import CONST, SEEDED, dotted_name, resolve_taint
from .graph import PAIRS_PATH, ProjectGraph, extract_facts, is_dataclass_def

__all__ = [
    "CacheKeyCompletenessRule",
    "ConfigValidationRule",
    "ConformanceRule",
    "RULES",
    "RULE_DESCRIPTIONS",
    "RngDisciplineRule",
    "SeedProvenanceRule",
    "explain",
    "lint_source",
    "run_rules",
]


# --------------------------------------------------------------------------
# RL001: RNG discipline (global-state entry points)
# --------------------------------------------------------------------------

#: Stdlib ``random`` entry points that read or mutate hidden global state.
_RANDOM_GLOBAL_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)


class RngDisciplineRule(Rule):
    """RL001: no hidden global RNG state.

    Flags, inside ``src/repro`` only, stdlib ``random.*`` global-state
    functions and legacy ``np.random.<fn>`` calls — ambient state that
    no config seed can reach, so runs are not reproducible and parallel
    workers silently share streams.  (Seedless and literal-seeded
    ``default_rng`` calls, RL001's old syntactic check, are now the
    strictly stronger RL009 dataflow rule's job.)
    """

    code = "RL001"
    description = (
        "RNG discipline: no stdlib random.* or legacy np.random.* "
        "global-state calls in src/repro; every Generator comes from "
        "default_rng/spawn_streams with a threaded seed (see RL009)"
    )
    example_bad = "delay = random.uniform(0.0, jitter)"
    example_good = "delay = rng.uniform(0.0, jitter)  # rng threaded from config seed"
    escape = "# reprolint: disable=RL001 on the call line"

    def check(self, graph):
        violations: list[RuleViolation] = []
        for facts in graph.package_files():
            for node in ast.walk(facts.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                parts = name.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _RANDOM_GLOBAL_FNS
                ):
                    message = (
                        f"stdlib {name}() uses hidden global RNG state; use a "
                        "seeded np.random.Generator instead"
                    )
                elif (
                    len(parts) >= 2
                    and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[-1] in _RANDOM_GLOBAL_FNS
                ):
                    message = (
                        f"legacy {name}() draws from numpy's global state; use a "
                        "seeded np.random.Generator instead"
                    )
                else:
                    continue
                self.report(violations, facts, node.lineno, message, node.end_lineno)
        return violations


# --------------------------------------------------------------------------
# RL003: spec/engine conformance
# --------------------------------------------------------------------------


class ConformanceRule(Rule):
    """RL003: every registered pair has a differential test.

    Every ``EnginePair`` declared in ``difftest/pairs.py`` must have a
    ``tests/`` file that names both its spec and its engine symbol: an
    engine without a differential test is just a second implementation.
    The finding sits on the pair's declaration line.
    """

    code = "RL003"
    description = (
        "spec/engine conformance: every declared EnginePair has a "
        "differential test in tests/"
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


# --------------------------------------------------------------------------
# RL006: config-validation coverage
# --------------------------------------------------------------------------

_GUARDED_FIELD = re.compile(r"rate|duration|timeout|bandwidth|latency|rtt")
_CONFIG_CLASS = re.compile(r"(Config|Parameters|Topology|Link)$")
_NUMERIC_ANNOTATION = re.compile(r"\b(int|float)\b")


class ConfigValidationRule(Rule):
    """RL006: a rate/duration/timeout knob nobody validates is a latent
    ZeroDivisionError (the PR 5 ``outage_rate_per_node`` bug class).

    For every dataclass in ``src/repro`` that defines ``validate()``,
    each numeric field whose name matches the guarded patterns must be
    referenced (``self.<field>``) somewhere in ``validate``, so
    degenerate values (0 rates, negative durations) fail fast.  A
    config-like dataclass (``*Config``/``*Parameters``/``*Topology``/
    ``*Link``) carrying guarded numeric fields with no ``validate()`` at
    all is flagged once at the class line.
    """

    code = "RL006"
    description = (
        "config validation: numeric dataclass-config fields named like "
        "*_rate*/*_duration*/*_timeout* (also bandwidth/latency/rtt) must be "
        "referenced by the config's validate()"
    )
    example_bad = (
        "@dataclass(frozen=True)\n"
        "class LinkConfig:\n"
        "    drain_rate: float = 1.0  # validate() never checks it"
    )
    example_good = (
        "def validate(self):\n"
        "    if self.drain_rate <= 0:\n"
        "        raise ValueError('drain_rate must be positive')"
    )
    escape = "# reprolint: disable=RL006 on the field (or class) line"

    def check(self, graph):
        violations: list[RuleViolation] = []
        for facts in graph.package_files():
            # A class is a statement: walk statement bodies, not expressions.
            stack: list[ast.AST] = list(facts.tree.body)
            while stack:
                node = stack.pop()
                if isinstance(node, ast.ClassDef) and is_dataclass_def(node):
                    self._check_class(violations, facts, node)
                for name in ("body", "orelse", "finalbody", "handlers", "cases"):
                    stack.extend(getattr(node, name, ()))
        return violations

    def _check_class(self, violations, facts, node: ast.ClassDef) -> None:
        guarded: list[tuple[str, ast.AnnAssign]] = []
        validate: ast.FunctionDef | None = None
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name = stmt.target.id
                annotation = ast.unparse(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                if _GUARDED_FIELD.search(name) and _NUMERIC_ANNOTATION.search(
                    annotation
                ):
                    guarded.append((name, stmt))
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "validate":
                validate = stmt
        if not guarded:
            return
        if validate is None:
            if _CONFIG_CLASS.search(node.name):
                self.report(
                    violations,
                    facts,
                    node.lineno,
                    f"config dataclass {node.name} has guarded numeric "
                    f"fields ({', '.join(name for name, _ in guarded)}) "
                    "but no validate() method",
                    node.end_lineno,
                )
            return
        referenced = {
            sub.attr
            for sub in ast.walk(validate)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        }
        for name, field_node in guarded:
            if name not in referenced:
                self.report(
                    violations,
                    facts,
                    field_node.lineno,
                    f"{node.name}.{name} is never referenced in "
                    "validate(): degenerate values (0, negatives) reach "
                    "the simulation unchecked",
                    field_node.end_lineno,
                )


# --------------------------------------------------------------------------
# RL009: seed provenance
# --------------------------------------------------------------------------


class SeedProvenanceRule(Rule):
    """RL009: every RNG stream traces to sanctioned entropy.

    For each ``default_rng``/``spawn_streams`` call site in
    ``src/repro``, the dataflow taint of its arguments — resolved
    interprocedurally through the project symbol table — must be
    SEEDED: flowing from a seed-like parameter, a config seed field, or
    a spawned stream.  CONST means a hidden constant seed (possibly
    laundered through locals, arithmetic, or helper functions); UNKNOWN
    means provenance that cannot be traced to any sanctioned source, so
    the stream cannot be audited for the controlled-comparison
    contract.  Replaces RL001's old syntactic default_rng check.
    """

    code = "RL009"
    description = (
        "seed provenance (dataflow): every value reaching a default_rng/"
        "spawn_streams seed argument must flow from a config seed field or "
        "threaded seed parameter — constant and untraceable seeds are "
        "flagged even when laundered through locals, arithmetic, or helpers"
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
        for facts in graph.files.values():
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
                self.report(violations, facts, site.line, message, site.end_line)
        return violations


# --------------------------------------------------------------------------
# RL011: cache-key completeness
# --------------------------------------------------------------------------


class CacheKeyCompletenessRule(Rule):
    """RL011: every config field reaches the cache key or is a
    documented exclusion.

    The parallel result cache and the checkpoint run keys identify a
    result by a hash of config fields (``asdict(config)`` in a key
    builder such as ``config_hash``/``schedule_run_key``/``*_config``/
    ``result_key``, a direct attribute access, or a literal dict key).
    A ``ClusterConfig``/``DegradedReadConfig`` field that never reaches
    any key builder makes two *different* experiments share one cache
    entry — wrong results, not a crash.  Fields may be excluded only
    under the documented prefix ``_*`` (runtime plumbing); a key
    builder that filters any other prefix out of ``asdict`` leaves
    those fields unkeyed.
    """

    code = "RL011"
    description = (
        "cache-key completeness: every ClusterConfig/DegradedReadConfig "
        "field must reach config_hash/schedule_run_key (or another key "
        "builder) or match the documented exclusion _*"
    )
    #: Config dataclasses whose fields feed cached experiment identity.
    target_configs = ("ClusterConfig", "DegradedReadConfig")
    #: The documented exclusion: underscore-prefixed runtime plumbing
    #: (_runtime).
    documented_exclusions = ("_",)
    example_bad = (
        "fields = {k: v for k, v in asdict(config).items()\n"
        "          if not k.startswith('checkpoint_')}  # checkpoint_* unkeyed\n"
        "return config_hash({'config': fields, ...})"
    )
    example_good = "return config_hash({'config': asdict(config), ...})"
    escape = "# reprolint: disable=RL011 on the field line"

    def check(self, graph):
        string_cover: set[str] = set()
        attr_cover: set[str] = set()
        asdict_cover: dict[str, list[frozenset[str]]] = {}
        for facts in graph.files.values():
            for builder in facts.key_builders:
                string_cover |= builder.string_keys
                attr_cover |= builder.param_attrs
                for cls_name in builder.asdict_classes:
                    asdict_cover.setdefault(cls_name, []).append(
                        builder.exclusion_prefixes
                    )
        violations: list[RuleViolation] = []
        for facts in graph.files.values():
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
                    self.report(
                        violations,
                        facts,
                        line,
                        f"{cfg.name}.{field_name} never reaches a cache-key "
                        "builder (config_hash/schedule_run_key/...) and is "
                        "not on the documented exclusion list "
                        "(_*): two different experiments "
                        "would share one cached result",
                    )
        return violations


# --------------------------------------------------------------------------
# The registry
# --------------------------------------------------------------------------

#: Every rule class, in code order: the only hand-maintained list.
RULES: tuple[type[Rule], ...] = (
    RngDisciplineRule,
    ConformanceRule,
    ConfigValidationRule,
    SeedProvenanceRule,
    CacheKeyCompletenessRule,
)

#: code -> one-line description (derived; do not hand-edit).
RULE_DESCRIPTIONS: dict[str, str] = {cls.code: cls.description for cls in RULES}


def explain(code: str) -> str | None:
    """The ``--explain RL0xx`` text: the rule's docstring as its
    contract, violating and clean examples, and the escape hatch.  None
    for unknown codes (matched case-insensitively)."""
    wanted = code.strip().upper()
    cls = next((cls for cls in RULES if cls.code == wanted), None)
    if cls is None:
        return None
    return "\n".join(
        [
            f"{cls.code} — {cls.description}",
            "",
            "Contract:",
            textwrap.indent(inspect.getdoc(cls), "  "),
            "",
            "Violates:",
            textwrap.indent(cls.example_bad, "    "),
            "",
            "Clean:",
            textwrap.indent(cls.example_good, "    "),
            "",
            "Escape hatch:",
            textwrap.indent(cls.escape, "  "),
        ]
    )


def run_rules(
    graph: ProjectGraph, rules: Iterable[Rule] | None = None
) -> tuple[list[RuleViolation], int]:
    """Every rule (fresh instances unless ``rules`` are given) over the
    graph: (sorted violations, the graph's RL000 findings included;
    pragma-suppressed count)."""
    active = [cls() for cls in RULES] if rules is None else list(rules)
    violations = list(graph.errors)
    for rule in active:
        violations.extend(rule.check(graph))
    return sorted(violations), sum(rule.suppressed for rule in active)


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    rules: Iterable[Rule] | None = None,
) -> list[RuleViolation]:
    """Lint one in-memory ``src/`` file as a one-file project (the
    fixture-test entry point)."""
    errors: list[RuleViolation] = []
    facts = extract_facts(source, errors, path=path, module=module, scope="src")
    return run_rules(ProjectGraph({path: facts}, errors=errors), rules)[0]
