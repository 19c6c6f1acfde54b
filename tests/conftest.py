"""Test configuration: ``hypothesis`` runs the same examples on every run
and writes no example database, so a failure reproduces as it was seen."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
