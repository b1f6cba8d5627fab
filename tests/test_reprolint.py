"""reprolint's contract: each rule catches its violation, passes clean
code, and honours pragmas; the project rules cross-check the registry;
and — the point of the exercise — the repository itself lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import (
    FILE_RULES,
    RULE_DESCRIPTIONS,
    lint_repo,
    lint_source,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.graph import FileFacts, ProjectGraph, analyze_paths
from repro.analysis.project import run_project_rules_ex
from repro.analysis.report import (
    render_github,
    render_human,
    render_json,
    step_summary_table,
)
from repro.analysis.rules import ConfigValidationRule, RngDisciplineRule
from repro.difftest.registry import EnginePair

ROOT = Path(__file__).resolve().parents[1]


def codes(violations):
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# RL001: RNG discipline
# ---------------------------------------------------------------------------


class TestRngDiscipline:
    def lint(self, source, module="repro.codes.fake"):
        return lint_source(source, module=module, rules=[RngDisciplineRule()])

    def test_default_rng_left_to_rl009(self):
        # Literal-seeded and seedless default_rng are RL009's job now —
        # the dataflow rule traces provenance instead of pattern-matching.
        found = self.lint("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert found == []
        found = self.lint("import numpy as np\nrng = np.random.default_rng()\n")
        assert found == []

    def test_violating_stdlib_random(self):
        found = self.lint("import random\nx = random.randint(0, 10)\n")
        assert codes(found) == ["RL001"]

    def test_violating_legacy_numpy_global(self):
        found = self.lint("import numpy as np\nx = np.random.uniform()\n")
        assert codes(found) == ["RL001"]

    def test_clean_threaded_seed(self):
        clean = (
            "import numpy as np\n"
            "def f(seed: int):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert self.lint(clean) == []

    def test_clean_outside_repro(self):
        noisy = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert self.lint(noisy, module="") == []

    def test_pragma_suppressed(self):
        suppressed = (
            "import random\n"
            "x = random.random()  # reprolint: disable=RL001\n"
        )
        assert self.lint(suppressed) == []


# ---------------------------------------------------------------------------
# RL006: config-validation coverage
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def lint(self, source):
        return lint_source(
            source, module="repro.cluster.fake", rules=[ConfigValidationRule()]
        )

    VIOLATING = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class FakeConfig:\n"
        "    scan_rate: float = 1.0\n"
        "    label: str = 'x'\n"
        "    def validate(self):\n"
        "        if not self.label:\n"
        "            raise ValueError('label')\n"
        "        return self\n"
    )

    def test_violating_uncovered_field(self):
        found = self.lint(self.VIOLATING)
        assert codes(found) == ["RL006"]
        assert found[0].line == 4

    def test_violating_missing_validate(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FakeConfig:\n"
            "    poll_timeout: float = 3.0\n"
        )
        found = self.lint(source)
        assert codes(found) == ["RL006"]
        assert "no validate()" in found[0].message

    def test_clean_covered_field(self):
        clean = self.VIOLATING.replace(
            "if not self.label:",
            "if self.scan_rate <= 0:\n            raise ValueError('rate')\n"
            "        if not self.label:",
        )
        assert self.lint(clean) == []

    def test_clean_non_config_class_without_validate(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class SweepResult:\n"
            "    repair_duration: float = 0.0\n"
        )
        assert self.lint(source) == []

    def test_pragma_suppressed(self):
        suppressed = self.VIOLATING.replace(
            "scan_rate: float = 1.0",
            "scan_rate: float = 1.0  # reprolint: disable=RL006",
        )
        assert self.lint(suppressed) == []


# ---------------------------------------------------------------------------
# RL003: project rules over synthetic graphs
# ---------------------------------------------------------------------------


FAKE_PAIR = EnginePair(
    "fake", spec="fakepkg.fake_seed", engine="fakepkg.FakeEngine"
)


def make_project(
    pair=FAKE_PAIR,
    tests={"tests/test_fake.py": {"fake_seed", "FakeEngine"}},
):
    """A synthetic ProjectGraph: one pair declared at pairs.py line 10,
    test files as path -> identifiers."""
    files = {
        path: FileFacts(
            path=path, module="", scope="tests",
            test_identifiers=frozenset(identifiers),
        )
        for path, identifiers in tests.items()
    }
    return ProjectGraph(files, pairs=[(pair, 10)])


def project_findings(graph, rules=None):
    return run_project_rules_ex(graph, rules)[0]


class TestProjectRules:
    def test_clean_project(self):
        assert project_findings(make_project()) == []

    def test_missing_differential_test(self):
        project = make_project(tests={"tests/test_other.py": {"FakeEngine"}})
        found = project_findings(project)
        assert codes(found) == ["RL003"]
        assert "no differential test" in found[0].message
        assert found[0].line == 10

    def test_rule_filter(self):
        project = make_project(tests={})
        assert codes(project_findings(project, rules={"RL003"})) == ["RL003"]
        assert project_findings(project, rules={"RL009"}) == []


# ---------------------------------------------------------------------------
# Self-application: the repository obeys its own invariants
# ---------------------------------------------------------------------------


class TestSelfApplication:
    def test_repo_is_clean(self):
        violations = lint_repo(root=ROOT)
        assert violations == [], "\n".join(
            f"{v.location()}: {v.rule} {v.message}" for v in violations
        )

    def test_rl003_covers_all_eight_pairs(self):
        project, _, _ = analyze_paths([ROOT / "tests"], ROOT)
        assert len(project.pairs) == 8
        subsystems = {pair.subsystem for pair, _ in project.pairs}
        assert subsystems == {
            "montecarlo", "codec", "xorplane", "blockindex", "network",
            "readservice", "placement", "recovery",
        }
        for pair, line in project.pairs:
            assert line > 1, pair  # anchored to its registration
        assert project_findings(project) == []

    def test_every_rule_documented(self):
        assert set(RULE_DESCRIPTIONS) == {
            "RL001", "RL003", "RL006", "RL009", "RL011",
        }
        file_rule_codes = {rule.code for rule in FILE_RULES()}
        assert file_rule_codes == {"RL001", "RL006"}

    def test_registry_is_single_source_of_truth(self):
        # RULE_DESCRIPTIONS, the file/project split, --explain, and the
        # DESIGN.md invariant list all derive from one class registry;
        # this pins the derivations to each other so they cannot drift.
        from repro.analysis.registry import (
            ALL_RULE_CLASSES,
            FILE_RULE_CODES,
            PROJECT_RULE_CODES,
            explain,
            rule_class,
        )
        from repro.analysis.project import PROJECT_RULE_CLASSES
        from repro.analysis.rules import FILE_RULE_CLASSES

        assert [cls.code for cls in ALL_RULE_CLASSES] == sorted(
            cls.code for cls in ALL_RULE_CLASSES
        )
        assert set(ALL_RULE_CLASSES) == set(FILE_RULE_CLASSES) | set(
            PROJECT_RULE_CLASSES
        )
        assert FILE_RULE_CODES | PROJECT_RULE_CODES == set(RULE_DESCRIPTIONS)
        assert FILE_RULE_CODES.isdisjoint(PROJECT_RULE_CODES)
        for cls in ALL_RULE_CLASSES:
            assert RULE_DESCRIPTIONS[cls.code] == cls.description
            assert rule_class(cls.code) is cls
            # Every rule carries the full explain contract.
            text = explain(cls.code)
            assert cls.code in text
            assert "Contract:" in text
            assert "Escape hatch:" in text
            assert cls.contract, cls.code
            assert cls.example_bad, cls.code
            assert cls.example_good, cls.code
            assert cls.escape, cls.code
        assert explain("RL999") is None

    def test_design_doc_lists_every_rule(self):
        # Satellite of the registry consolidation: DESIGN.md's
        # "Enforced invariants" section must name every rule code.
        text = (ROOT / "DESIGN.md").read_text()
        for code in RULE_DESCRIPTIONS:
            assert f"**{code}" in text, f"DESIGN.md missing {code}"

    def test_syntax_error_reported_not_raised(self):
        found = lint_source("def broken(:\n", module="repro.fake")
        assert codes(found) == ["RL000"]


# ---------------------------------------------------------------------------
# CLI and renderers
# ---------------------------------------------------------------------------


class TestCliAndRendering:
    def test_clean_repo_exits_zero(self, capsys):
        assert lint_main(["--root", str(ROOT)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out

    def test_violation_exits_one_with_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        assert lint_main([str(bad), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2: RL001" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--root", str(ROOT), "--rules", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().out
        # A retired code is unknown, not silently accepted (codes are
        # case-insensitive, so the lower-case spelling names it too).
        assert lint_main(["--root", str(ROOT), "--rules", "rl012"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint_main(["no/such/dir", "--root", str(ROOT)]) == 2
        assert "no such path" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.seed(1)\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        assert lint_main([str(bad), "--root", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["by_rule"] == {"RL001": 1}
        assert payload["violations"][0]["line"] == 2

    def test_github_format_and_step_summary(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.seed(7)\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        code = lint_main([str(bad), "--root", str(tmp_path), "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "RL001" in out
        table = summary.read_text()
        assert "## reprolint" in table and "RL001" in table

    def test_renderers_on_empty(self):
        assert render_human([]) == "reprolint: clean"
        assert json.loads(render_json([]))["clean"] is True
        assert render_github([]) == "reprolint: clean"
        assert "No violations" in step_summary_table([])

    def test_rules_filter_scopes_run(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        args = [str(bad), "--root", str(tmp_path), "--rules", "RL006"]
        assert lint_main(args) == 0

    def test_explicit_path_gets_whole_program_rules(self, tmp_path, capsys):
        # A path only filters the whole-repo run: the file gets the same
        # verdict as from `repro lint`, whole-program rules included.
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import numpy as np\nrng = np.random.default_rng(1234)\n")
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (bad.parent / "good.py").write_text("x = 1\n")
        for extra in ([], ["--rules", "RL009"]):
            assert lint_main([str(bad), "--root", str(tmp_path), *extra]) == 1
            assert "bad.py:2: RL009" in capsys.readouterr().out
        for paths in ([], ["src"]):
            assert lint_main([*paths, "--root", str(tmp_path)]) == 1
            assert "bad.py:2: RL009" in capsys.readouterr().out
        # ...and a path keeps none of the findings outside it.
        assert lint_main(["src/repro/good.py", "--root", str(tmp_path)]) == 0


class TestPragmas:
    def test_disable_all(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=all\n"
        )
        assert lint_source(source, module="repro.fake") == []

    def test_multiline_statement_end_line_pragma(self):
        source = (
            "import random\n"
            "x = random.uniform(\n"
            "    0.0, 1.0\n"
            ")  # reprolint: disable=RL001\n"
        )
        assert lint_source(source, module="repro.fake") == []

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=RL006\n"
        )
        assert codes(lint_source(source, module="repro.fake")) == ["RL001"]
