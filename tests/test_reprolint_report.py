"""Golden-output tests for the reprolint renderers.

The renderer output is a contract: CI greps the github format and
humans read the terminal lines.  These tests pin
the exact text for one representative violation set — multi-file, out
of order on input, with pragma-suppressed findings — so format drift is
a deliberate, reviewed change."""

from __future__ import annotations

from repro.analysis import explain
from repro.cli import main as repro_main
from repro.analysis.core import RuleViolation
from repro.analysis.report import render_github, render_human, step_summary_table


def fixture_violations():
    """Two files, deliberately constructed in non-sorted order."""
    return sorted(
        [
            RuleViolation(
                "src/repro/zeta.py", 7, "RL009",
                "constant seed reaches default_rng() in make",
            ),
            RuleViolation(
                "src/repro/alpha.py", 12, "RL001",
                "stdlib random.random() uses hidden global RNG state",
            ),
            RuleViolation(
                "src/repro/alpha.py", 3, "RL001",
                "stdlib random.seed() uses hidden global RNG state",
            ),
        ]
    )


class TestGoldenHuman:
    def test_multi_file_ordering_and_tally(self):
        text = render_human(fixture_violations(), suppressed=2)
        assert text == (
            "src/repro/alpha.py:3: RL001 stdlib random.seed() uses hidden "
            "global RNG state\n"
            "src/repro/alpha.py:12: RL001 stdlib random.random() uses hidden "
            "global RNG state\n"
            "src/repro/zeta.py:7: RL009 constant seed reaches default_rng() "
            "in make\n"
            "reprolint: 3 violations (RL001=2, RL009=1); "
            "2 findings suppressed by pragmas"
        )

    def test_clean_with_suppressions_stays_visible(self):
        assert render_human([], suppressed=1) == (
            "reprolint: clean (1 finding suppressed by pragmas)"
        )

    def test_clean_without_suppressions(self):
        assert render_human([]) == "reprolint: clean"

    def test_singular_violation_grammar(self):
        only = fixture_violations()[:1]
        assert render_human(only).endswith("reprolint: 1 violation (RL001=1)")


class TestGoldenGithub:
    def test_error_annotations(self):
        text = render_github(fixture_violations())
        assert text == (
            "::error file=src/repro/alpha.py,line=3,title=reprolint RL001::"
            "stdlib random.seed() uses hidden global RNG state\n"
            "::error file=src/repro/alpha.py,line=12,title=reprolint RL001::"
            "stdlib random.random() uses hidden global RNG state\n"
            "::error file=src/repro/zeta.py,line=7,title=reprolint RL009::"
            "constant seed reaches default_rng() in make"
        )

    def test_clean_mentions_suppressions(self):
        assert render_github([], suppressed=3) == (
            "reprolint: clean (3 findings suppressed by pragmas)"
        )

    def test_step_summary_table(self):
        table = step_summary_table(fixture_violations())
        assert table == (
            "## reprolint\n"
            "\n"
            "| location | rule | message |\n"
            "| --- | --- | --- |\n"
            "| `src/repro/alpha.py:3` | RL001 | stdlib random.seed() uses "
            "hidden global RNG state |\n"
            "| `src/repro/alpha.py:12` | RL001 | stdlib random.random() uses "
            "hidden global RNG state |\n"
            "| `src/repro/zeta.py:7` | RL009 | constant seed reaches "
            "default_rng() in make |\n"
            "\n"
            "**3 violations.**\n"
        )

    def test_step_summary_escapes_pipes(self):
        table = step_summary_table(
            [RuleViolation("a.py", 1, "RL006", "bad | pipe")]
        )
        assert "bad \\| pipe" in table

    def test_step_summary_clean(self):
        assert step_summary_table([]) == (
            "## reprolint\n\nNo violations — all enforced invariants hold.\n"
        )


class TestExitCodes:
    def write_repo(self, tmp_path, source):
        bad = tmp_path / "src" / "repro" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(source)
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        return tmp_path

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        root = self.write_repo(tmp_path, "x = 1\n")
        assert repro_main(["lint", "--root", str(root)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        root = self.write_repo(tmp_path, "import random\nx = random.random()\n")
        assert repro_main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out


class TestExplainEscapes:
    def test_rules_that_honour_no_pragma_advertise_none(self):
        """RL003 findings are not filtered through ``disable=`` pragmas,
        so ``--explain`` must not offer one."""
        hatch = explain("RL003").split("Escape hatch:")[1]
        assert "disable=" not in hatch and "no pragma" in hatch
