"""Hypothesis profiles for the test suite.

``bounded`` (the default) keeps a local tier-1 run short; ``ci`` explores
more examples and is selected with ``HYPOTHESIS_PROFILE=ci``.  Tests that
pin ``max_examples`` in their own ``@settings`` keep it under either
profile; tests that leave it unset take it from the active profile.
"""

import os

from hypothesis import settings

settings.register_profile("bounded", max_examples=100)
settings.register_profile("ci", max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE") or "bounded")
