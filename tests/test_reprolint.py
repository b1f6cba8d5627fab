"""reprolint's contract: each rule catches its violation, passes clean
code, and honours pragmas; the project rules cross-check the registry;
and — the point of the exercise — the repository itself lints clean.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_DESCRIPTIONS,
    RULES,
    analyze_repo,
    explain,
    lint_source,
    run_rules,
)
from repro.analysis.graph import FileFacts, ProjectGraph
from repro.analysis.report import render_github, render_human, step_summary_table
from repro.analysis.rules import (
    ConfigValidationRule,
    ConformanceRule,
    RngDisciplineRule,
    SeedProvenanceRule,
)
from repro.cli import main as repro_main
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
    return run_rules(graph, rules)[0]


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
        assert codes(project_findings(project, [ConformanceRule()])) == ["RL003"]
        assert project_findings(project, [SeedProvenanceRule()]) == []


# ---------------------------------------------------------------------------
# Self-application: the repository obeys its own invariants
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_run():
    """One whole-repository lint run: (graph, violations, suppressed)."""
    return analyze_repo(ROOT)


class TestSelfApplication:
    def test_repo_is_clean(self, repo_run):
        _, violations, _ = repo_run
        assert violations == [], "\n".join(
            f"{v.location()}: {v.rule} {v.message}" for v in violations
        )

    def test_rl003_covers_all_eight_pairs(self, repo_run):
        project, _, _ = repo_run
        assert len(project.pairs) == 8
        subsystems = {pair.subsystem for pair, _ in project.pairs}
        assert subsystems == {
            "montecarlo", "codec", "xorplane", "blockindex", "network",
            "readservice", "placement", "recovery",
        }
        for pair, line in project.pairs:
            assert line > 1, pair  # anchored to its registration
        assert project_findings(project, [ConformanceRule()]) == []

    def test_every_rule_documented(self):
        assert set(RULE_DESCRIPTIONS) == {
            "RL001", "RL003", "RL006", "RL009", "RL011",
        }

    def test_registry_is_single_source_of_truth(self):
        # RULE_DESCRIPTIONS, --explain and the DESIGN.md invariant list
        # all derive from the one RULES tuple; this pins the derivations
        # to each other so they cannot drift.
        assert [cls.code for cls in RULES] == sorted(RULE_DESCRIPTIONS)
        for cls in RULES:
            assert RULE_DESCRIPTIONS[cls.code] == cls.description
            # Every rule carries the full explain record, and its
            # docstring is the contract.
            text = explain(cls.code.lower())
            contract = text.split("Contract:\n")[1].split("\n\nViolates:")[0]
            assert contract.replace("\n  ", "\n").strip() == inspect.getdoc(cls)
            assert cls.example_bad and cls.example_good and cls.escape, cls.code
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


def lint(*args: str) -> int:
    return repro_main(["lint", *args])


def make_repo(root: Path, files: dict[str, str]) -> Path:
    """A synthetic repository: pyproject marker + the given files."""
    (root / "pyproject.toml").write_text("[project]\nname='x'\n")
    for relative, source in files.items():
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


class TestCliAndRendering:
    """``repro lint`` end to end: exit codes, formats, paths, modes."""

    def test_clean_repo_exits_zero(self, capsys):
        assert lint("--root", str(ROOT)) == 0
        assert capsys.readouterr().out == "reprolint: clean\n"

    def test_missing_root_exits_two(self, tmp_path, capsys):
        # A mistyped --root is a usage error, not an empty clean tree.
        assert lint("--root", str(tmp_path / "no" / "such" / "dir")) == 2
        out = capsys.readouterr().out
        assert out.startswith("reprolint: error: ") and "clean" not in out

    def test_pairs_come_from_the_linted_checkout(self, tmp_path, capsys):
        # RL003 checks the pairs the checkout under --root declares, not
        # the registry of the interpreter running the linter.
        root = make_repo(tmp_path, {
            "src/repro/difftest/pairs.py": (
                '"""Pairs."""\n'
                "PAIRS = (\n"
                "    EnginePair('widget', spec='a.slow_widget', engine='b.Widget'),\n"
                ")\n"
            ),
            "tests/test_widget.py": "slow_widget\n",
        })
        graph, violations, _ = analyze_repo(root)
        assert graph.pairs == (
            (EnginePair("widget", spec="a.slow_widget", engine="b.Widget"), 3),
        )
        assert [(v.rule, v.line) for v in violations] == [("RL003", 3)]
        assert "'slow_widget' and 'Widget'" in violations[0].message
        (root / "tests/test_widget.py").write_text("slow_widget, Widget\n")
        assert lint("--root", str(root)) == 0
        assert capsys.readouterr().out == "reprolint: clean\n"

    def test_non_literal_pair_declaration_is_rl000(self, tmp_path):
        root = make_repo(tmp_path, {
            "src/repro/difftest/pairs.py": "EnginePair('w', spec=NAME, engine='b.W')\n",
        })
        graph, violations, _ = analyze_repo(root)
        assert graph.pairs == ()
        assert [(v.rule, v.line) for v in violations] == [("RL000", 1)]

    def test_closed_pipe_exits_without_traceback(self):
        # The reader is gone before the first write: the output hits a
        # closed pipe (what `repro lint --explain RL011 | head -1` meets
        # when head exits first), which must not print a traceback.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "lint", "--explain", "RL011"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in stderr and b"BrokenPipe" not in stderr

    def test_violation_exits_one_with_location(self, tmp_path, capsys):
        bad = "import random\nx = random.random()\n"
        make_repo(tmp_path, {"src/repro/bad.py": bad})
        assert lint(str(tmp_path / "src/repro/bad.py"), "--root", str(tmp_path)) == 1
        assert "bad.py:2: RL001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert lint("no/such/dir", "--root", str(ROOT)) == 2
        assert "no such path" in capsys.readouterr().out

    def test_explain_known_rule(self, capsys):
        for code in RULE_DESCRIPTIONS:
            assert lint("--explain", code) == 0
            out = capsys.readouterr().out
            for section in ("Contract:", "Violates:", "Clean:", "Escape hatch:"):
                assert section in out, (code, section)

    def test_explain_unknown_rule(self, capsys):
        assert lint("--explain", "RL999") == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_removed_options_are_gone(self):
        for args in (["--no-cache"], ["--rules", "RL001"], ["--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                lint("--root", str(ROOT), *args)
            assert exc.value.code == 2, args

    def test_github_format_and_step_summary(self, tmp_path, capsys, monkeypatch):
        make_repo(tmp_path, {"src/repro/bad.py": "import random\nrandom.seed(7)\n"})
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        args = ("src/repro/bad.py", "--root", str(tmp_path), "--format", "github")
        assert lint(*args) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "RL001" in out
        table = summary.read_text()
        assert "## reprolint" in table and "RL001" in table

    def test_renderers_on_empty(self):
        assert render_human([]) == "reprolint: clean"
        assert render_github([]) == "reprolint: clean"
        assert "No violations" in step_summary_table([])

    def test_explicit_path_gets_whole_program_rules(self, tmp_path, capsys):
        # A path only filters the whole-repo run: the file gets the same
        # verdict as from `repro lint`, whole-program rules included.
        bad = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        make_repo(tmp_path, {"src/repro/bad.py": bad, "src/repro/good.py": "x = 1\n"})
        for paths in ([], ["src"], ["src/repro/bad.py"]):
            assert lint(*paths, "--root", str(tmp_path)) == 1
            assert "bad.py:2: RL009" in capsys.readouterr().out
        # ...and a path keeps none of the findings outside it.
        assert lint("src/repro/good.py", "--root", str(tmp_path)) == 0

    def test_changed_against_head_is_clean(self, capsys):
        assert lint("--root", str(ROOT), "--changed", "HEAD") == 0
        assert "reprolint" in capsys.readouterr().out

    def test_changed_outside_git_exits_two(self, tmp_path, capsys):
        make_repo(tmp_path, {"src/repro/a.py": "x = 1\n"})
        assert lint("--root", str(tmp_path), "--changed", "HEAD") == 2
        assert "git" in capsys.readouterr().out.lower()

    def test_lint_leaves_no_file_behind(self, tmp_path):
        # Facts are in-memory only: a whole-repo run writes nothing.
        root = make_repo(tmp_path, {"src/repro/a.py": "x = 1\n"})
        before = sorted(root.rglob("*"))
        assert lint("--root", str(root)) == 0
        assert sorted(root.rglob("*")) == before

    def test_planted_findings_golden(self, tmp_path, capsys):
        # One finding per rule, one pragma-suppressed finding and one
        # syntax error: the exact github lines, the human tally and the
        # exit code of the whole run.
        root = make_repo(tmp_path, PLANTED_FILES)
        assert lint("--root", str(root), "--format=github") == 1
        assert capsys.readouterr().out == "\n".join(PLANTED_GITHUB) + "\n"
        assert lint("--root", str(root)) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "reprolint: 6 violations (RL000=1, RL001=1, RL003=1, RL006=1, "
            "RL009=1, RL011=1); 1 finding suppressed by pragmas"
        )


#: Test symbols of every registered pair except ``recovery``.
_COVERED_PAIR_SYMBOLS = (
    "simulate_time_to_absorption, simulate_times_to_absorption, "
    "seed_decode, CodecEngine, xor_encode, XorSchedule, DictNameNode, "
    "NameNode, Network, FlowTable, DegradedReadSimulation, "
    "ReadServiceEngine, place_positions_seed, _place_positions\n"
)

PLANTED_FILES = {
    "src/repro/broken.py": "def broken(:\n",
    "src/repro/rng.py": (
        "import random\n"
        "x = random.random()\n"
        "y = random.random()  # reprolint: disable=RL001\n"
    ),
    "src/repro/difftest/pairs.py": (
        '"""Pairs."""\n'
        "EnginePair('recovery', spec='a.run_uninterrupted', "
        "engine='a.run_with_kill_resume')\n"
    ),
    "tests/test_pairs.py": _COVERED_PAIR_SYMBOLS,
    "src/repro/knobs.py": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class FakeConfig:\n"
        "    scan_rate: float = 1.0\n"
        "    def validate(self):\n"
        "        return self\n"
    ),
    "src/repro/helper.py": "def derive(n):\n    return 99 + n\n",
    "src/repro/thing.py": (
        "import numpy as np\n"
        "from repro.helper import derive\n"
        "def make():\n"
        "    return np.random.default_rng(derive(7))\n"
    ),
    "src/repro/cfg.py": (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class ClusterConfig:\n"
        "    num_nodes: int = 10\n"
        "    new_knob: float = 1.0\n"
        "def run_key(config) -> str:\n"
        "    return config_hash({'num_nodes': config.num_nodes})\n"
    ),
}

PLANTED_GITHUB = (
    "::error file=src/repro/broken.py,line=1,title=reprolint RL000::"
    "syntax error: invalid syntax",
    "::error file=src/repro/cfg.py,line=5,title=reprolint RL011::"
    "ClusterConfig.new_knob never reaches a cache-key builder "
    "(config_hash/schedule_run_key/...) and is not on the documented "
    "exclusion list (_*): two different experiments would share one "
    "cached result",
    "::error file=src/repro/difftest/pairs.py,line=2,title=reprolint RL003::"
    "engine pair 'recovery' has no differential test: no tests/ file "
    "references both 'run_uninterrupted' and 'run_with_kill_resume'",
    "::error file=src/repro/knobs.py,line=4,title=reprolint RL006::"
    "FakeConfig.scan_rate is never referenced in validate(): degenerate "
    "values (0, negatives) reach the simulation unchecked",
    "::error file=src/repro/rng.py,line=2,title=reprolint RL001::"
    "stdlib random.random() uses hidden global RNG state; use a seeded "
    "np.random.Generator instead",
    "::error file=src/repro/thing.py,line=4,title=reprolint RL009::"
    "constant seed reaches default_rng() in make: a fixed stream defeats "
    "config-derived reproducibility no matter how the literal is "
    "laundered; thread a seed parameter or config seed field",
)


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

    def test_first_line_pragma_does_not_reach_inner_call(self):
        # A pragma covers a finding's own first or last line only: one on
        # the statement's first line leaves a call on a later line
        # reported.
        source = (
            "import random\n"
            "x = max(  # reprolint: disable=RL001\n"
            "    random.random(),\n"
            ")\n"
        )
        found = lint_source(source, module="repro.fake")
        assert [(v.rule, v.line) for v in found] == [("RL001", 3)]

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = (
            "import random\n"
            "x = random.random()  # reprolint: disable=RL006\n"
        )
        assert codes(lint_source(source, module="repro.fake")) == ["RL001"]
