"""Test-suite set-up: one deterministic hypothesis profile for every run.

Derandomized examples keep the suite's outcome the same on every run,
and a bounded example count keeps the property tests to a few seconds.
``HYPOTHESIS_PROFILE=ci`` selects the same profile with ten times the
examples, for continuous integration.
"""

import os

from hypothesis import settings

settings.register_profile("streamfec", derandomize=True, max_examples=20,
                          deadline=None, database=None)
settings.register_profile("ci", settings.get_profile("streamfec"),
                          max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "streamfec"))
