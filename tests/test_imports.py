"""Importing the package and its front end loads no standard-library
module that no path uses: every value record is a ``typing.NamedTuple``,
so neither ``dataclasses`` nor the ``inspect`` it pulls in (with ``ast``,
``dis`` and ``tokenize``) is imported.  The import runs in a fresh
interpreter started with ``-S``, so only the package's own imports count,
not those of a site hook; ``conftest`` hands it ``src/`` on ``PYTHONPATH``."""

import json
import subprocess
import sys

UNUSED = ("dataclasses", "inspect")


def test_the_package_imports_no_dataclass_machinery():
    code = (
        "import json, sys\n"
        "import cycliccover, cycliccover.cli\n"
        f"print(json.dumps([name for name in {UNUSED!r} if name in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
