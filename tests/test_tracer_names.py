"""The names the benchmark's tracer reads from the package still resolve.

``bench/run.py --trace 1`` counts the calls of the functions that
``bench/tracing.counted_functions`` names, reading each one's code
object, and wraps ``polyrat.poly_gcd`` in a ``GcdCounter``.  A deletion
under ``src/`` that takes away one of those names breaks that run, so
this test makes the same reads.  The tracer is loaded from its file
without writing bytecode beside it, and no wrapper is installed on the
package."""

import importlib.util
import sys
from pathlib import Path

import cycliccover
import cycliccover.cli  # noqa: F401  the worker imports the front end, a traced layer
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_the_tracer_resolves_every_name_it_reads():
    tracing = _tracing()
    counted = tracing.counted_functions(cycliccover)
    assert counted and all(counted.values())
    # an empty profile still reads every layer's file and every counted code object
    summary = tracing.profile_summary({}, cycliccover, counted)
    assert summary["calls"] == dict.fromkeys(counted, 0)
    assert set(summary["self_s"]) == set(tracing.LAYERS)

    counter = tracing.GcdCounter(cycliccover.polyrat.poly_gcd)
    gcd = counter.wrapper()
    counter.active = True
    x = Poly.x(FieldSpec(5))
    assert gcd(x, x * x) == x and (counter.calls, counter.trivial) == (1, 0)
