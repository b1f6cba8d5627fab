"""Smoke tests: every example in examples/ must run clean.

An open-source repo's examples rot silently unless exercised; each one
is executed as a subprocess exactly the way the README tells users to
run it, and must exit 0 without writing to stderr.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: A generous wall-clock cap (seconds): every example finishes in a few.
TIMEOUT = 120


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(path):
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), f"{path.name} printed nothing"
