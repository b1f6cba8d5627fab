"""The records every reprolint rule shares: findings, pragmas, and the
rule base class.

Every rule is a ``check(graph)`` over the one
:class:`~repro.analysis.graph.ProjectGraph` fact table.  Violations
carry (path, line, rule, message) and honour end-of-line pragmas::

    rng = np.random.default_rng(0)  # reprolint: disable=RL001

A pragma suppresses a finding when it sits on the first or the last
line of the reported node, so a multi-line call can carry it where the
call opens or where it closes.  It does not reach nodes nested inside a
longer statement: a pragma on the first line of ``x = max(`` leaves a
``random.random()`` call on the next line reported.  ``disable=all``
suppresses every rule on the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Rule", "RuleViolation", "parse_pragmas"]

PRAGMA = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


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


class Rule:
    """Base class for every reprolint rule.

    A rule's ``check(graph)`` returns its findings over the project
    fact graph.  Subclasses carry the full rule record — ``code``,
    ``description``, the ``--explain`` examples ``example_bad`` /
    ``example_good`` and ``escape``, and a docstring that ``--explain``
    prints as the contract — so the registry, the CLI and the docs test
    all derive from one source of truth.  Findings silenced by a
    ``disable=`` pragma are tallied in ``self.suppressed``.
    """

    code = "RL000"
    description = ""
    example_bad = ""
    example_good = ""
    escape = "# reprolint: disable=<code> on the offending line"

    def __init__(self) -> None:
        self.suppressed = 0

    def check(self, graph) -> list[RuleViolation]:
        raise NotImplementedError

    def report(
        self,
        violations: list[RuleViolation],
        facts,
        line: int,
        message: str,
        end_line: int | None = None,
    ) -> None:
        """Record a finding in ``facts``'s file unless a pragma on its
        first or last line disables this rule."""
        if facts.pragma_allows(self.code, line, end_line or line):
            violations.append(RuleViolation(facts.path, line, self.code, message))
        else:
            self.suppressed += 1
