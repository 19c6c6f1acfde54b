"""Test configuration: ``hypothesis`` runs the same examples on every run
and writes no example database, so a failure reproduces as it was seen.
The package is imported from ``src/`` (``pythonpath`` in
``pyproject.toml``), and the tests that run ``python -m cycliccover`` in a
child process hand it ``src/`` on ``PYTHONPATH`` too, so a plain
``python -m pytest`` needs no installed package."""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
