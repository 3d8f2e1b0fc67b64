"""Shared test set-up: a deterministic hypothesis profile, so that runs repeat exactly."""

from hypothesis import settings

settings.register_profile("btlrank", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("btlrank")
