"""Test-suite set-up: one deterministic hypothesis profile for every run.

Derandomized examples keep the suite's outcome the same on every run,
and a bounded example count keeps the property tests to a few seconds.
"""

from hypothesis import settings

settings.register_profile("streamfec", derandomize=True, max_examples=20,
                          deadline=None, database=None)
settings.load_profile("streamfec")
