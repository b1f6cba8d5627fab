"""Shared test configuration.

Registers a ``ci`` hypothesis profile (no deadline, derandomized) so
property tests cannot flake on shared-runner timing jitter; CI selects
it by exporting ``HYPOTHESIS_PROFILE=ci``.  Local runs keep hypothesis
defaults unless the variable is set.  The ``nightly`` profile is a wide
randomized sweep (400 examples per property, the flow-engine storms
included), with the reproduction blob printed on failure.

``xorbas_certification`` runs the exhaustive distance and locality
certification of the (10,6,5) code once per session; the LRC tests
assert on its verdicts and the CLI test replays them through
``repro certify``, so tier-1 pays for the ~1 s enumeration once.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pytest

try:
    from hypothesis import settings
except ImportError:  # hypothesis is optional outside the property tests
    settings = None

if settings is not None:
    settings.register_profile("ci", deadline=None, derandomize=True)
    settings.register_profile(
        "nightly", deadline=None, max_examples=400, print_blob=True
    )
    profile = os.environ.get("HYPOTHESIS_PROFILE")
    if profile:
        settings.load_profile(profile)


@pytest.fixture(scope="session")
def xorbas_certification() -> SimpleNamespace:
    """The (10,6,5) code with its exhaustive ``certify_*`` verdicts."""
    from repro.codes import certify_distance, certify_locality, xorbas_lrc

    code = xorbas_lrc()
    return SimpleNamespace(
        code=code,
        distance=certify_distance(code, 5),
        locality=certify_locality(code, 5),
    )
