"""Violation renderers: human terminal lines and GitHub
workflow-command output with a step-summary markdown table (the same
``$GITHUB_STEP_SUMMARY`` convention ``benchmarks/conftest.py`` uses).

Each renderer takes the sorted violation list plus the count of findings
silenced by ``# reprolint: disable=`` pragmas, so suppressions stay
visible in the output rather than vanishing.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .core import RuleViolation

__all__ = [
    "render_github",
    "render_human",
    "step_summary_table",
]


def _suppressed_note(suppressed: int) -> str:
    plural = "s" if suppressed != 1 else ""
    return f"{suppressed} finding{plural} suppressed by pragmas"


def render_human(violations: Sequence[RuleViolation], suppressed: int = 0) -> str:
    if not violations:
        if suppressed:
            return f"reprolint: clean ({_suppressed_note(suppressed)})"
        return "reprolint: clean"
    lines = [
        f"{v.location()}: {v.rule} {v.message}" for v in violations
    ]
    counts = Counter(v.rule for v in violations)
    tally = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
    plural = "s" if len(violations) != 1 else ""
    summary = f"reprolint: {len(violations)} violation{plural} ({tally})"
    if suppressed:
        summary += f"; {_suppressed_note(suppressed)}"
    lines.append(summary)
    return "\n".join(lines)


def render_github(violations: Sequence[RuleViolation], suppressed: int = 0) -> str:
    """``::error`` workflow commands — one annotation per violation, so
    findings surface inline on the PR diff.  A clean run reads as in
    :func:`render_human`."""
    if not violations:
        return render_human(violations, suppressed)
    return "\n".join(
        f"::error file={v.path},line={v.line},title=reprolint {v.rule}::{v.message}"
        for v in violations
    )


def step_summary_table(violations: Sequence[RuleViolation]) -> str:
    """Markdown for ``$GITHUB_STEP_SUMMARY``."""
    lines = ["## reprolint", ""]
    if not violations:
        lines.append("No violations — all enforced invariants hold.")
        return "\n".join(lines) + "\n"
    lines += [
        "| location | rule | message |",
        "| --- | --- | --- |",
    ]
    for v in violations:
        message = v.message.replace("|", "\\|")
        lines.append(f"| `{v.location()}` | {v.rule} | {message} |")
    plural = "s" if len(violations) != 1 else ""
    lines += ["", f"**{len(violations)} violation{plural}.**"]
    return "\n".join(lines) + "\n"
