"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile: examples are
drawn from a seed derived from each test, so every run checks the same
inputs.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("derandomized")
