"""The single-pass analysis framework behind reprolint.

One ``ast.parse`` per file; every rule is a visitor object whose
``visit_<NodeType>`` hooks are dispatched from a single tree walk, so
adding a rule never adds a pass.  Violations carry (path, line, rule,
message) and honour end-of-line pragmas::

    rng = np.random.default_rng(0)  # reprolint: disable=RL001

A pragma on a statement's first line suppresses matching violations
reported anywhere inside that statement (a multi-line call is one
logical construct).  ``disable=all`` suppresses every rule on the line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "LintContext",
    "Rule",
    "RuleViolation",
    "lint_context",
    "lint_source",
    "module_name_for",
    "parse_pragmas",
    "scope_for",
]

PRAGMA = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Top-level directories the analyzer reads: every rule checks
#: ``src/repro``; ``tests/`` only supplies RL003's evidence.
KNOWN_SCOPES = ("src", "tests")


@dataclass(frozen=True, order=True)
class RuleViolation:
    """One finding: where, which rule, and what the contract says."""

    path: str
    line: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}"


def parse_pragmas(source: str) -> dict[int, frozenset[str]]:
    """Line number -> rule codes disabled on that line."""
    pragmas: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "reprolint" not in line:
            continue
        match = PRAGMA.search(line)
        if match:
            codes = frozenset(
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            )
            pragmas[lineno] = codes
    return pragmas


def scope_for(path: Path, root: Path) -> str:
    """Policy scope of a file: its top-level directory under the repo
    root ('' when outside the known scoped directories)."""
    try:
        relative = Path(path).resolve().relative_to(Path(root).resolve())
    except ValueError:
        return ""
    return relative.parts[0] if relative.parts and relative.parts[0] in KNOWN_SCOPES else ""


@dataclass
class LintContext:
    """Everything a rule sees about one file: tree, lines, module path."""

    path: str
    source: str
    tree: ast.Module
    module: str  # dotted module name ("" outside src/)
    pragmas: dict[int, frozenset[str]] = field(default_factory=dict)
    violations: list[RuleViolation] = field(default_factory=list)
    suppressed: int = 0  # findings silenced by a disable= pragma

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        for candidate in (line, getattr(node, "end_lineno", line)):
            disabled = self.pragmas.get(candidate)
            if disabled and (rule in disabled or "ALL" in disabled):
                self.suppressed += 1
                return
        self.violations.append(RuleViolation(self.path, line, rule, message))


class Rule:
    """Base class for every reprolint rule — per-file AST visitors and
    whole-program checks alike.

    Subclasses carry the full rule record (``code``, ``description``,
    ``kind``, and the ``--explain`` fields ``contract`` /
    ``example_bad`` / ``example_good`` / ``escape``) so the registry,
    the CLI, the renderers, and the docs-consistency test all derive
    from one source of truth.  Per-file rules ("file" kind) define
    ``visit_<NodeType>`` hooks; project rules ("project" kind) override
    ``check`` in :mod:`repro.analysis.project`.
    """

    code = "RL000"
    description = ""
    kind = "file"  # "file" (single-AST visitor) or "project" (whole-program)
    contract = ""
    example_bad = ""
    example_good = ""
    escape = "# reprolint: disable=<code> on the offending line"


class _Dispatcher(ast.NodeVisitor):
    """Walks the tree once, fanning each node out to interested rules."""

    def __init__(self, context: LintContext, rules: Sequence[Rule]):
        self.context = context
        self.handlers: dict[str, list] = {}
        for rule in rules:
            for name in dir(rule):
                if name.startswith("visit_"):
                    self.handlers.setdefault(name, []).append(getattr(rule, name))

    def generic_visit(self, node: ast.AST) -> None:
        for handler in self.handlers.get(f"visit_{type(node).__name__}", ()):
            handler(self.context, node)
        super().generic_visit(node)

    visit = generic_visit


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module for a file under ``<root>/src`` ("" elsewhere)."""
    try:
        relative = path.resolve().relative_to((root / "src").resolve())
    except ValueError:
        return ""
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def lint_context(
    source: str,
    path: str = "<string>",
    module: str = "",
    scope: str = "src",
    rules: Iterable[Rule] | None = None,
) -> LintContext | list[RuleViolation]:
    """Parse + run per-file rules, returning the full LintContext (with
    the tree, violations, pragmas, and suppressed count) — or a one-item
    violation list when the file does not parse.  Every per-file rule
    covers ``src/repro`` only; elsewhere the file is parsed, not checked."""
    from .rules import FILE_RULES

    active = list(FILE_RULES() if rules is None else rules)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            RuleViolation(path, exc.lineno or 1, "RL000", f"syntax error: {exc.msg}")
        ]
    context = LintContext(
        path=path,
        source=source,
        tree=tree,
        module=module,
        pragmas=parse_pragmas(source),
    )
    in_package = module == "repro" or module.startswith("repro.")
    if active and scope == "src" and in_package:
        _Dispatcher(context, active).visit(tree)
    context.violations.sort()
    return context


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    rules: Iterable[Rule] | None = None,
    scope: str = "src",
) -> list[RuleViolation]:
    """Lint one in-memory source blob (the fixture-test entry point)."""
    result = lint_context(source, path=path, module=module, scope=scope, rules=rules)
    if isinstance(result, list):
        return result
    return result.violations


def iter_python_files(targets: Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
    return [f for f in files if "__pycache__" not in f.parts]

