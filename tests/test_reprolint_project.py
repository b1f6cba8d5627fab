"""reprolint's dataflow, project graph, RL009 and RL011.

Each rule gets a seeded-mutation test: a synthetic mini-repo that is
clean, plus the one-line mutation the rule exists to catch (add an
unhashed config field, launder a constant seed through a helper) —
proving the rule actually fires, not just that the real repo is quiet.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_repo, run_rules
from repro.cli import main as repro_main
from repro.analysis.dataflow import CONST, SEEDED, Param, TaintEvaluator, resolve_taint
from repro.analysis.rules import CacheKeyCompletenessRule, SeedProvenanceRule


def make_repo(tmp_path: Path, files: dict[str, str]) -> Path:
    """A synthetic repository: pyproject marker + the given files."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def analyze(root: Path):
    return analyze_repo(root)


def project_codes(graph, rule):
    found, _ = run_rules(graph, [rule])
    return [v.rule for v in found]


# ---------------------------------------------------------------------------
# Taint lattice + evaluator
# ---------------------------------------------------------------------------


class TestDataflow:
    def eval_function(self, source, lookup=None):
        import ast

        tree = ast.parse(source)
        node = tree.body[0]
        evaluator = TaintEvaluator(node)
        return evaluator.env, (lookup or (lambda q: None))

    def test_constant_laundering_stays_const(self):
        env, lookup = self.eval_function(
            "def f():\n    s = 1234\n    t = s * 2 + 1\n    return t\n"
        )
        assert resolve_taint(env["t"], lookup) is CONST

    def test_seed_param_is_seeded(self):
        env, lookup = self.eval_function(
            "def f(seed):\n    s = seed + 3\n    return s\n"
        )
        assert resolve_taint(env["s"], lookup) is SEEDED

    def test_chained_seed_sequence_spawn_is_seeded(self):
        # SeedSequence(seed).spawn(3): the factory's receiver carries
        # the taint even though the call chain's base is itself a call.
        env, lookup = self.eval_function(
            "def f(seed):\n"
            "    a, b, c = SeedSequence(seed).spawn(3)\n"
            "    return a\n"
        )
        assert resolve_taint(env["a"], lookup) is SEEDED

    def test_join_is_optimistic_on_seeded(self):
        env, lookup = self.eval_function(
            "def f(seed):\n    s = seed + 1234\n    return s\n"
        )
        assert resolve_taint(env["s"], lookup) is SEEDED


# ---------------------------------------------------------------------------
# ProjectGraph: symbol table, imports, reverse closure
# ---------------------------------------------------------------------------


class TestProjectGraph:
    def test_import_graph_and_reverse_closure(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/base.py": "X = 1\n",
                "src/repro/mid.py": "from repro.base import X\nY = X\n",
                "src/repro/top.py": "from repro.mid import Y\nZ = Y\n",
                "src/repro/other.py": "W = 4\n",
            },
        )
        graph, _, _ = analyze(root)
        closure = graph.reverse_closure({"src/repro/base.py"})
        assert closure == {
            "src/repro/base.py", "src/repro/mid.py", "src/repro/top.py",
        }
        assert graph.reverse_closure({"src/repro/other.py"}) == {
            "src/repro/other.py"
        }

    def test_lookup_summary_follows_reexport(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/impl.py": "def derive(seed):\n    return seed + 1\n",
                "src/repro/__init__.py": "from repro.impl import derive\n",
            },
        )
        graph, _, _ = analyze(root)
        assert graph.lookup_summary("repro:derive") == Param(0, "seed")


# ---------------------------------------------------------------------------
# RL009: seed provenance (mutation: launder a constant through a helper)
# ---------------------------------------------------------------------------


CLEAN_SEEDED = (
    "import numpy as np\n"
    "def make(seed):\n"
    "    return np.random.default_rng(seed)\n"
)


class TestSeedProvenance:
    def codes_for(self, tmp_path, source, helper=None):
        files = {"src/repro/thing.py": source}
        if helper:
            files["src/repro/helper.py"] = helper
        graph, _, _ = analyze(make_repo(tmp_path, files))
        return project_codes(graph, SeedProvenanceRule())

    def test_clean_threaded_seed(self, tmp_path):
        assert self.codes_for(tmp_path, CLEAN_SEEDED) == []

    def test_mutation_constant_laundered_through_local(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def make(n):\n"
            "    s = 1234 + n\n"
            "    return np.random.default_rng(s)\n"
        )
        assert self.codes_for(tmp_path, bad) == ["RL009"]

    def test_mutation_constant_laundered_through_helper(self, tmp_path):
        # The acceptance mutation: the constant hides one call away, in
        # another module; only interprocedural resolution catches it.
        bad = (
            "import numpy as np\n"
            "from repro.helper import derive\n"
            "def make(n):\n"
            "    return np.random.default_rng(derive(n))\n"
        )
        helper = "def derive(n):\n    return 99 + n\n"
        assert self.codes_for(tmp_path, bad, helper=helper) == ["RL009"]

    def test_seed_threaded_through_helper_is_clean(self, tmp_path):
        good = (
            "import numpy as np\n"
            "from repro.helper import derive\n"
            "def make(seed, n):\n"
            "    return np.random.default_rng(derive(seed, n))\n"
        )
        helper = "def derive(seed, n):\n    return seed * 100 + n\n"
        assert self.codes_for(tmp_path, good, helper=helper) == []

    def test_seedless_call_flagged(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng()\n"
        )
        assert self.codes_for(tmp_path, bad) == ["RL009"]

    def test_spawned_streams_are_clean(self, tmp_path):
        good = (
            "import numpy as np\n"
            "def make(seed):\n"
            "    a, b = np.random.SeedSequence(seed).spawn(2)\n"
            "    return np.random.default_rng(a), np.random.default_rng(b)\n"
        )
        assert self.codes_for(tmp_path, good) == []

    def test_pragma_counts_as_suppressed(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng(7)  # reprolint: disable=RL009\n"
        )
        graph, _, _ = analyze(make_repo(tmp_path, {"src/repro/thing.py": bad}))
        found, suppressed = run_rules(graph, [SeedProvenanceRule()])
        assert found == []
        assert suppressed == 1


# ---------------------------------------------------------------------------
# RL011: cache-key completeness (mutation: add an unhashed config field)
# ---------------------------------------------------------------------------


CONFIG_TEMPLATE = (
    "from dataclasses import asdict, dataclass\n"
    "@dataclass(frozen=True)\n"
    "class ClusterConfig:\n"
    "%s"
    "\n"
    "def run_key(config: ClusterConfig) -> str:\n"
    "    fields = {k: v for k, v in asdict(config).items()\n"
    "              if not k.startswith('checkpoint_')}\n"
    "    return config_hash({'config': fields})\n"
)


class TestCacheKeyCompleteness:
    def codes_for(self, tmp_path, source):
        graph, _, _ = analyze(make_repo(tmp_path, {"src/repro/cfg.py": source}))
        return project_codes(graph, CacheKeyCompletenessRule())

    def test_clean_asdict_covers_all_fields(self, tmp_path):
        source = CONFIG_TEMPLATE % "    num_nodes: int = 10\n    block_size: float = 1.0\n"
        assert self.codes_for(tmp_path, source) == []

    def test_prefix_filtered_out_of_asdict_fires(self, tmp_path):
        # A builder that filters a prefix out of asdict leaves those
        # fields unkeyed; only _* is a documented exclusion.
        source = CONFIG_TEMPLATE % (
            "    num_nodes: int = 10\n    checkpoint_every: int = 5\n"
        )
        assert self.codes_for(tmp_path, source) == ["RL011"]

    def test_mutation_field_outside_any_builder_fires(self, tmp_path):
        # The acceptance mutation: a new knob lands on the config but no
        # key builder ever sees it — two different experiments would
        # share one cached result.
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class ClusterConfig:\n"
            "    num_nodes: int = 10\n"
            "    new_knob: float = 1.0\n"
            "\n"
            "def run_key(config) -> str:\n"
            "    return config_hash({'num_nodes': config.num_nodes})\n"
        )
        graph, _, _ = analyze(
            make_repo(tmp_path, {"src/repro/cfg.py": source})
        )
        found, _ = run_rules(graph, [CacheKeyCompletenessRule()])
        assert [v.rule for v in found] == ["RL011"]
        assert "new_knob" in found[0].message

    def test_non_target_config_ignored(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class OtherConfig:\n"
            "    whatever: int = 3\n"
        )
        assert self.codes_for(tmp_path, source) == []

    def test_real_repo_degraded_config_covered_by_scenario_sweep(self):
        # The repo-level regression this rule was built to catch: every
        # DegradedReadConfig field participates in the cached degraded
        # sweep via asdict in scenario_config.
        from repro.experiments.degraded import scenario_config
        from repro.cluster.degraded import DegradedReadConfig

        config = scenario_config("uniform", "RS(10,4)", DegradedReadConfig())
        from dataclasses import asdict

        assert set(config["config"]) == set(asdict(DegradedReadConfig()))


# ---------------------------------------------------------------------------
# CLI modes
# ---------------------------------------------------------------------------


class TestCliModes:
    def test_whole_repo_lint_runs_project_rules(self, tmp_path, capsys):
        # A whole-repo run must include the whole-program rules.
        root = make_repo(
            tmp_path,
            {
                "src/repro/thing.py": (
                    "import numpy as np\n"
                    "def make(n):\n"
                    "    s = 1234 + n\n"
                    "    return np.random.default_rng(s)\n"
                ),
            },
        )
        assert repro_main(["lint", "--root", str(root)]) == 1
        assert "RL009" in capsys.readouterr().out
