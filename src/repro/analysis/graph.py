"""Per-file facts and the ProjectGraph every reprolint rule checks.

Each file is parsed once and reduced to a :class:`FileFacts` record:
imports, function taint summaries, seed call sites, config dataclass
fields, cache-key-builder evidence, the ``disable=`` pragmas, and (for
``tests/``) the identifier evidence RL003 consumes.  A ``src/repro``
file also keeps its parsed tree, which RL001 and RL006 walk.

A :class:`ProjectGraph` is the indexed union of those records: a
project-wide symbol table (``module:function`` -> taint summary) and the
import graph (with the reverse closure ``repro lint --changed`` needs),
plus the input RL003 checks against — the ``EnginePair`` declarations
with their ``pairs.py`` lines.
Facts live in memory for one run only; every input but the tree is
plain data, so tests build synthetic graphs directly instead of faking
a repository.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .core import RuleViolation, parse_pragmas
from .dataflow import (
    CONST,
    CallTaint,
    Join,
    TaintEvaluator,
    dotted_name,
    join,
)

if TYPE_CHECKING:
    from repro.difftest.registry import EnginePair

__all__ = [
    "ConfigClassFacts",
    "FileFacts",
    "KeyBuilderFacts",
    "PAIRS_PATH",
    "ProjectGraph",
    "SeedSite",
    "TARGET_NAMES",
    "build_graph",
    "extract_facts",
    "is_dataclass_def",
    "mentioned_identifiers",
]

PAIRS_PATH = "src/repro/difftest/pairs.py"

#: Directories a run analyzes, each file's scope.  Every rule checks
#: ``src/repro``; ``tests/`` only supplies RL003's differential-test
#: evidence (fixture files there deliberately violate rules).
TARGET_NAMES = ("src", "tests")

#: Call names whose argument provenance RL009 audits.
SEED_SINKS = frozenset({"default_rng", "spawn_streams"})


@dataclass(frozen=True)
class SeedSite:
    """One ``default_rng``/``spawn_streams`` call with the dataflow
    taint of its arguments (None = called with no arguments)."""

    line: int
    end_line: int
    func: str  # the sink's name ("default_rng" | "spawn_streams")
    owner: str  # enclosing function name, or "<module>"
    taint: object | None


@dataclass(frozen=True)
class ConfigClassFacts:
    """A ``*Config`` dataclass and its (field -> definition line) map."""

    name: str
    line: int
    fields: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class KeyBuilderFacts:
    """Evidence from one cache-key-builder function: which config
    fields its key incorporates, and which prefixes it excludes."""

    name: str
    line: int
    string_keys: frozenset[str]
    param_attrs: frozenset[str]  # attribute names read off parameters
    asdict_classes: frozenset[str]  # annotation names of asdict()'d params
    exclusion_prefixes: frozenset[str]  # startswith("...") literals


@dataclass
class FileFacts:
    """Everything the rules need to know about one file."""

    path: str
    module: str
    scope: str
    is_package: bool = False
    tree: ast.Module | None = None  # src/repro files that parse
    imports: dict[str, str] = field(default_factory=dict)
    summaries: dict[str, object] = field(default_factory=dict)  # -> return taint
    seed_sites: list[SeedSite] = field(default_factory=list)
    config_classes: list[ConfigClassFacts] = field(default_factory=list)
    key_builders: list[KeyBuilderFacts] = field(default_factory=list)
    test_identifiers: frozenset[str] = frozenset()
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)

    def pragma_allows(self, rule: str, *lines: int) -> bool:
        """False when a disable= pragma covers the rule on any line."""
        for line in lines:
            disabled = self.pragmas.get(line)
            if disabled and (rule in disabled or "ALL" in disabled):
                return False
        return True


# ---------------------------------------------------------------------------
# Fact extraction (one parse per file)
# ---------------------------------------------------------------------------


def _import_table(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Local binding -> dotted origin: ``pkg.mod`` for module imports,
    ``pkg.mod:symbol`` for from-imports, relative imports resolved
    against the importing module's package."""
    package_parts = module.split(".") if module else []
    if not is_package and package_parts:
        package_parts = package_parts[:-1]
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts)
                origin = f"{base}.{node.module}" if node.module else base
            else:
                origin = node.module or ""
            if not origin:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{origin}:{alias.name}"
    return table


def _qualify_taint(taint, local_functions: set[str], imports: dict[str, str], module: str):
    """Rewrite plain CallTaint callee names into ``module:symbol`` form
    so resolution works from any file's namespace."""
    if isinstance(taint, CallTaint):
        callee = taint.callee
        if ":" not in callee:
            if callee in local_functions:
                callee = f"{module}:{taint.callee}"
            elif callee in imports and ":" in imports[callee]:
                callee = imports[callee]
        return CallTaint(
            callee=callee,
            args=tuple(
                _qualify_taint(a, local_functions, imports, module)
                for a in taint.args
            ),
        )
    if isinstance(taint, Join):
        return Join(
            tuple(
                _qualify_taint(p, local_functions, imports, module)
                for p in taint.parts
            )
        )
    return taint


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """Top-level ``NAME = <literal>`` bindings: CONST in any function's
    environment, so ``default_rng(DEFAULT_SEED)`` reads as a constant."""
    env: dict[str, object] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = CONST
        elif (
            isinstance(stmt, ast.AnnAssign)
            and stmt.value is not None
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.target, ast.Name)
        ):
            env[stmt.target.id] = CONST
    return env


def is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if dotted_name(target).rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _config_class_facts(node: ast.ClassDef) -> ConfigClassFacts | None:
    if not node.name.endswith("Config") or not is_dataclass_def(node):
        return None
    fields: list[tuple[str, int]] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            fields.append((stmt.target.id, stmt.lineno))
    if not fields:
        return None
    return ConfigClassFacts(name=node.name, line=node.lineno, fields=tuple(fields))


_KEY_BUILDER_NAME = re.compile(r"(_config$|_run_key$|_cache_key$|^result_key$|^config_hash$)")


def _key_builder_facts(node: ast.FunctionDef) -> KeyBuilderFacts | None:
    calls_hash = False
    has_dict = False
    asdict_args: list[ast.expr] = []
    exclusions: set[str] = set()
    strings: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Dict, ast.DictComp)):
            has_dict = True
        elif isinstance(sub, ast.Call):
            name = dotted_name(sub.func).rsplit(".", 1)[-1]
            if name == "config_hash":
                calls_hash = True
            elif name == "asdict" and sub.args:
                has_dict = True
                asdict_args.append(sub.args[0])
            elif name == "startswith":
                for arg in sub.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        exclusions.add(arg.value)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            strings.add(sub.value)
    named_like_builder = bool(_KEY_BUILDER_NAME.search(node.name))
    if not (calls_hash or (named_like_builder and has_dict)):
        return None
    params = {
        a.arg: a.annotation
        for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    }
    param_attrs: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in params
        ):
            param_attrs.add(sub.attr)
    asdict_classes: set[str] = set()
    for arg in asdict_args:
        if isinstance(arg, ast.Name) and arg.id in params:
            annotation = params[arg.id]
            if annotation is not None:
                text = ast.unparse(annotation).strip("\"'")
                asdict_classes.add(text.rsplit(".", 1)[-1])
    return KeyBuilderFacts(
        name=node.name,
        line=node.lineno,
        string_keys=frozenset(strings),
        param_attrs=frozenset(param_attrs),
        asdict_classes=frozenset(asdict_classes),
        exclusion_prefixes=frozenset(exclusions),
    )


def mentioned_identifiers(tree: ast.Module) -> frozenset[str]:
    """Every name, attribute, definition and import a test file mentions."""
    identifiers: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            identifiers.add(node.id)
        elif isinstance(node, ast.Attribute):
            identifiers.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            identifiers.add(node.name)
        elif isinstance(node, ast.alias):
            identifiers.add(node.name.rsplit(".", 1)[-1])
    return frozenset(identifiers)


def _collect_seed_sites(
    scope: ast.AST, owner: str, outer_env: Mapping[str, object]
) -> tuple[list[SeedSite], object]:
    """Run the taint evaluator over one scope, recording sink calls."""
    sites: dict[tuple[int, int], SeedSite] = {}

    def hook(node: ast.Call, taints: list) -> None:
        name = dotted_name(node.func)
        tail = name.rsplit(".", 1)[-1] if name else ""
        if tail not in SEED_SINKS:
            return
        key = (node.lineno, node.col_offset)
        if key in sites:
            return
        taint = None if not node.args and not node.keywords else join(*taints)
        sites[key] = SeedSite(
            line=node.lineno,
            end_line=node.end_lineno or node.lineno,
            func=tail,
            owner=owner,
            taint=taint,
        )

    evaluator = TaintEvaluator(scope, outer_env=outer_env, call_hook=hook)
    return list(sites.values()), evaluator.summary()


def extract_facts(
    source: str,
    errors: list[RuleViolation],
    *,
    path: str,
    module: str,
    scope: str,
    is_package: bool = False,
) -> FileFacts:
    """Parse one file and reduce it to its facts; a file that does not
    parse adds an RL000 finding to ``errors`` and yields no facts."""
    facts = FileFacts(path=path, module=module, scope=scope, is_package=is_package)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        errors.append(
            RuleViolation(path, exc.lineno or 1, "RL000", f"syntax error: {exc.msg}")
        )
        return facts
    facts.pragmas = parse_pragmas(source)
    if scope == "tests":
        facts.test_identifiers = mentioned_identifiers(tree)
        return facts
    if scope != "src" or not (module == "repro" or module.startswith("repro.")):
        return facts

    facts.tree = tree
    facts.imports = _import_table(tree, module, is_package)
    consts = _module_constants(tree)

    local_functions = {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def qualify(taint):
        return _qualify_taint(taint, local_functions, facts.imports, module)

    # Module scope: top-level seed sites (constant bindings pre-bound).
    module_sites, _ = _collect_seed_sites(tree, "<module>", consts)
    facts.seed_sites.extend(module_sites)

    # Every function scope, at any depth (methods included).
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites, summary = _collect_seed_sites(node, node.name, consts)
            facts.seed_sites.extend(sites)
            if node.name in local_functions and node in tree.body:
                facts.summaries[node.name] = qualify(summary)
            builder = _key_builder_facts(node)
            if builder is not None:
                facts.key_builders.append(builder)

    facts.seed_sites = [
        SeedSite(
            line=s.line,
            end_line=s.end_line,
            func=s.func,
            owner=s.owner,
            taint=None if s.taint is None else qualify(s.taint),
        )
        for s in sorted(facts.seed_sites, key=lambda s: (s.line, s.owner))
    ]

    # Top-level classes contribute config facts.
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            config = _config_class_facts(stmt)
            if config is not None:
                facts.config_classes.append(config)
    return facts


# ---------------------------------------------------------------------------
# The project graph
# ---------------------------------------------------------------------------


class ProjectGraph:
    """Indexed union of every file's facts — project-wide symbol table
    and import graph (with reverse closure) — plus the registry
    declarations RL003 checks the facts against and the RL000 findings
    met while building it."""

    def __init__(
        self,
        files: Mapping[str, FileFacts],
        pairs: Sequence[tuple[EnginePair, int]] = (),
        errors: Sequence[RuleViolation] = (),
    ):
        self.files: dict[str, FileFacts] = dict(files)
        self.by_module: dict[str, FileFacts] = {
            facts.module: facts
            for facts in self.files.values()
            if facts.module
        }
        #: (declaration, line of its ``EnginePair(...)`` call in PAIRS_PATH)
        self.pairs = tuple(pairs)
        #: RL000 findings: files that do not parse, an unloadable registry
        self.errors = list(errors)

    def package_files(self) -> list[FileFacts]:
        """The ``src/repro`` files that parsed: the trees RL001/RL006 walk."""
        return [facts for facts in self.files.values() if facts.tree is not None]

    # -- symbol table --------------------------------------------------

    def lookup_summary(self, qualified: str, _depth: int = 8) -> object | None:
        """Resolve ``module:symbol`` to its summary (return taint), following one
        re-export hop per level (``repro.difftest:spawn_streams`` ->
        ``repro.difftest.schedule:spawn_streams``)."""
        if _depth <= 0 or ":" not in qualified:
            return None
        module, symbol = qualified.split(":", 1)
        facts = self.by_module.get(module)
        if facts is None:
            return None
        summary = facts.summaries.get(symbol)
        if summary is not None:
            return summary
        target = facts.imports.get(symbol)
        if target:
            if ":" not in target:
                target = f"{target}:{symbol}"
            return self.lookup_summary(target, _depth - 1)
        return None

    # -- import graph --------------------------------------------------

    def import_edges(self) -> dict[str, set[str]]:
        """module -> project modules it imports (package re-exports
        resolve through ``repro.x`` __init__ facts like any module)."""
        known = set(self.by_module)
        edges: dict[str, set[str]] = {}
        for module, facts in self.by_module.items():
            targets: set[str] = set()
            for origin in facts.imports.values():
                target = origin.split(":", 1)[0]
                # ``from pkg import name`` may name a submodule rather
                # than a symbol; count both interpretations if known.
                if target in known:
                    targets.add(target)
                if ":" in origin:
                    as_module = origin.replace(":", ".")
                    if as_module in known:
                        targets.add(as_module)
            targets.discard(module)
            edges[module] = targets
        return edges

    def reverse_closure(self, paths: Iterable[str]) -> set[str]:
        """The given files plus every file whose module transitively
        imports one of them — the ``--changed`` analysis frontier."""
        wanted = set(paths)
        changed_modules = {
            facts.module for path, facts in self.files.items()
            if path in wanted and facts.module
        }
        if changed_modules:
            importers: dict[str, set[str]] = {}
            for module, targets in self.import_edges().items():
                for target in targets:
                    importers.setdefault(target, set()).add(module)
            frontier = list(changed_modules)
            affected = set(changed_modules)
            while frontier:
                module = frontier.pop()
                for dependent in importers.get(module, ()):
                    if dependent not in affected:
                        affected.add(dependent)
                        frontier.append(dependent)
            for path, facts in self.files.items():
                if facts.module in affected:
                    wanted.add(path)
        return wanted


# ---------------------------------------------------------------------------
# The analysis driver
# ---------------------------------------------------------------------------


def _load_pairs(
    files: Mapping[str, FileFacts], errors: list[RuleViolation]
) -> tuple[tuple[EnginePair, int], ...]:
    """The ``EnginePair(subsystem, spec=..., engine=...)`` literals of the
    checkout's pairs.py, sorted by subsystem, each with its line.

    Read from the parsed tree, never imported: linting another checkout
    checks the pairs that checkout declares.  A declaration whose three
    fields are not string literals cannot be checked and is an RL000
    finding.
    """
    declared = files.get(PAIRS_PATH)
    if declared is None or declared.tree is None:
        return ()  # a root without the registry has no pairs to conform to
    from repro.difftest.registry import EnginePair

    pairs: list[tuple[EnginePair, int]] = []
    for node in ast.walk(declared.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "EnginePair"
        ):
            continue
        fields = dict(zip(("subsystem", "spec", "engine"), node.args))
        fields.update((keyword.arg, keyword.value) for keyword in node.keywords)
        values = {
            name: value.value
            for name, value in fields.items()
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        }
        if set(values) == {"subsystem", "spec", "engine"}:
            pairs.append((EnginePair(**values), node.lineno))
        else:
            errors.append(
                RuleViolation(
                    PAIRS_PATH,
                    node.lineno,
                    "RL000",
                    "EnginePair declaration is not three string literals "
                    "(subsystem, spec=..., engine=...)",
                )
            )
    return tuple(sorted(pairs, key=lambda item: item[0].subsystem))


def _module_name(relative: Path) -> str:
    """Dotted module of a repo-relative path under ``src/`` ("" elsewhere)."""
    parts = list(relative.with_suffix("").parts)
    if parts[:1] != ["src"]:
        return ""
    del parts[0]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def build_graph(root: Path) -> ProjectGraph:
    """Parse every ``.py`` under :data:`TARGET_NAMES` of ``root`` into the
    :class:`ProjectGraph` (the difftest registry is read from ``root``)."""
    files: dict[str, FileFacts] = {}
    errors: list[RuleViolation] = []
    for scope in TARGET_NAMES:
        for path in sorted((root / scope).rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            relative = path.relative_to(root)
            facts = extract_facts(
                path.read_text(encoding="utf-8"),
                errors,
                path=str(relative),
                module=_module_name(relative),
                scope=scope,
                is_package=path.name == "__init__.py",
            )
            files[facts.path] = facts
    return ProjectGraph(files, pairs=_load_pairs(files, errors), errors=errors)
