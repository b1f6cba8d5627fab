"""The README's code snippets must actually run.

Docs rot faster than code; both fenced Python examples in README.md are
extracted and executed, so a public-API rename breaks CI here with a
pointer at the README.
"""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_snippets() -> list[str]:
    text = README.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


@pytest.fixture(scope="module")
def snippets():
    found = python_snippets()
    assert len(found) >= 2, "README lost its code examples"
    return found


def test_quick_tour_snippet_runs(snippets):
    namespace: dict = {}
    exec(compile(snippets[0], "README.md#quick-tour", "exec"), namespace)
    # The snippet's own assert passed; sanity-check its bindings too.
    assert namespace["code"].n == 16
    assert namespace["plan"].num_reads == 5


def test_cluster_snippet_runs(snippets, capsys):
    namespace: dict = {}
    exec(compile(snippets[1], "README.md#cluster", "exec"), namespace)
    out = capsys.readouterr().out
    assert "blocks read for repair" in out
    cluster = namespace["cluster"]
    assert cluster.namenode.missing_count == 0
