"""Hypothesis profiles for the test suite.

``bounded`` (the default) keeps a local tier-1 run short; ``ci`` explores
more examples and is selected with ``HYPOTHESIS_PROFILE=ci``.  Tests that
pin ``max_examples`` in their own ``@settings`` keep it under either
profile; tests that leave it unset take it from the active profile.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("bounded", max_examples=100)
settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "bounded")


@pytest.fixture(scope="session")
def paper_barbell_phi():
    """Exact conductance of ``paper_barbell()``, enumerated once per session.

    Its 2^21 cuts take seconds to enumerate, and several tests compare
    against Φ(G) = 1/56; ``test_paper_barbell_value`` pins the value.
    """
    from repro.analysis import min_conductance_exact
    from repro.generators import paper_barbell

    return min_conductance_exact(paper_barbell()).conductance
