"""The ``repro lint`` entry point.

Exit codes follow linter convention: 0 clean, 1 violations found,
2 usage/environment error (e.g. no repository root).  ``--format``
selects human lines (default) or GitHub workflow commands; the github
format also appends a markdown table to ``$GITHUB_STEP_SUMMARY`` when
CI exports it.

Every run goes through :func:`analyze_repo`: the fact graph over the
repository and every rule over it, computed fresh each time.  Explicit
paths only filter that run's report to findings under them, so a file
gets the same verdict either way.
``--changed[=REF]`` scopes the report to files touched versus a git ref
plus their reverse import dependencies — the pre-commit mode.
``--explain RL0xx`` prints a rule's contract, a violating and a clean
example, and its escape hatch.
"""

from __future__ import annotations

import argparse
import os
import subprocess
from pathlib import Path
from typing import Sequence

from .core import RuleViolation
from .graph import ProjectGraph, build_graph
from .report import render_github, render_human, step_summary_table
from .rules import RULE_DESCRIPTIONS, explain, run_rules

__all__ = [
    "add_lint_arguments",
    "analyze_repo",
    "changed_paths",
    "resolve_root",
    "run_lint",
]

def resolve_root(root: str | os.PathLike | None = None) -> Path:
    """The repository root: explicit (it must be a directory), else the
    nearest ancestor of the cwd (then of this file) containing
    ``pyproject.toml``."""
    if root is not None:
        if not Path(root).is_dir():
            raise FileNotFoundError(f"--root {str(root)!r} is not a directory")
        return Path(root).resolve()
    for start in (Path.cwd(), Path(__file__).resolve()):
        for candidate in (start, *start.parents):
            if (candidate / "pyproject.toml").exists():
                return candidate
    raise FileNotFoundError(
        "cannot locate repository root (no pyproject.toml above cwd); "
        "pass paths or --root explicitly"
    )


def analyze_repo(root: Path) -> tuple[ProjectGraph, list[RuleViolation], int]:
    """The one lint run: the fact graph over ``src/`` and ``tests/``,
    then every rule.  Returns (graph, sorted violations,
    pragma-suppressed count)."""
    graph = build_graph(root)
    violations, suppressed = run_rules(graph)
    return graph, violations, suppressed


def changed_paths(root: Path, ref: str) -> set[str] | None:
    """Repo-relative paths differing from ``ref`` plus untracked files;
    None when git cannot answer (not a repo, unknown ref)."""
    changed: set[str] = set()
    for command in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                command, cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if result.returncode != 0:
            return None
        changed.update(line.strip() for line in result.stdout.splitlines() if line.strip())
    return changed


def _under(path: Path, targets: Sequence[Path]) -> bool:
    """``path`` is one of ``targets`` or inside one of them."""
    return any(path == target or target in path.parents for target in targets)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="report only findings under these files or directories "
        "(the analysis always covers src/, with tests/ as RL003 evidence)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root (default: nearest pyproject.toml)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "github"),
        default="human",
        help="output format (github emits ::error annotations and a "
        "$GITHUB_STEP_SUMMARY table)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="report only findings in files changed vs REF (default HEAD) "
        "plus their reverse import dependencies — the pre-commit mode",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RL0xx",
        help="print a rule's contract, examples, and escape hatch, then exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    if args.explain:
        text = explain(args.explain)
        if text is None:
            print(
                f"reprolint: error: unknown rule {args.explain!r}; "
                f"known: {sorted(RULE_DESCRIPTIONS)}"
            )
            return 2
        print(text)
        return 0
    try:
        root = resolve_root(args.root)
    except FileNotFoundError as exc:
        print(f"reprolint: error: {exc}")
        return 2
    targets = [(root / p).resolve() for p in args.paths]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"reprolint: error: no such path(s): {', '.join(missing)}")
        return 2
    graph, violations, suppressed = analyze_repo(root)
    if targets:
        violations = [v for v in violations if _under(root / v.path, targets)]
    if args.changed is not None:
        scoped = changed_paths(root, args.changed)
        if scoped is None:
            print(
                f"reprolint: error: cannot diff against {args.changed!r} "
                "(not a git checkout, or unknown ref)"
            )
            return 2
        frontier = graph.reverse_closure(scoped)
        violations = [v for v in violations if v.path in frontier]
    if args.format == "human":
        print(render_human(violations, suppressed=suppressed))
    else:
        print(render_github(violations, suppressed=suppressed))
        summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            with open(summary_path, "a", encoding="utf-8") as fh:
                fh.write(step_summary_table(violations))
    return 1 if violations else 0
