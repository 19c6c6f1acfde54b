"""Per-layer measurement applied from outside the program.

Two instruments, each used in its own pass so that neither times the other:

* ``SpanRecorder`` wraps the public functions of the upper layers (``cli``,
  ``verify``, ``cohomology``, ``funcfield``) and records one span per call:
  name, request (the curve index), parent, start and end.  Spans stay in
  memory and are summarised when the pass ends.  A span's self time is its
  duration minus the durations of its child spans.
* ``profile_summary`` reads a ``cProfile`` pass and gives each layer's own
  time and the call counts of the leaf layers (``gf``, ``polyrat``,
  ``curve``), which make millions of microsecond calls: a span per call
  there would mostly time the tracer.

Nothing under ``src/`` is edited; wrappers are installed by rebinding the
module attributes that hold each function.
"""

from __future__ import annotations

import functools
import time
import types
from dataclasses import dataclass, field

LAYERS = ("gf", "polyrat", "curve", "funcfield", "cohomology", "verify", "cli")
SPANNED_LAYERS = ("cli", "verify", "cohomology", "funcfield")


@dataclass
class Span:
    name: str
    request: int
    parent: int  # index of the parent span, -1 for a root
    start_ns: int = 0
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class SpanRecorder:
    """Records spans while ``active``; the worker clears it outside timed
    windows, so work the benchmark does there leaves no span."""

    spans: list[Span] = field(default_factory=list)
    request: int = -1
    active: bool = True
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, self.request, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end_ns = clock()
                stack.pop()

        return traced


def public_functions(module: types.ModuleType) -> dict[str, types.FunctionType]:
    """Module-level public functions defined in the module itself."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
    }


def rebind(modules: list[types.ModuleType], replacements: dict) -> None:
    """Point every module attribute that holds a replaced function at its
    replacement, so callers that imported the name see it too."""
    for module in modules:
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in replacements:
                setattr(module, name, replacements[obj])


def install_spans(recorder: SpanRecorder, package: types.ModuleType) -> None:
    """Wrap the public functions of the spanned layers in every namespace."""
    modules = [package] + [getattr(package, layer) for layer in LAYERS]
    replacements = {}
    for layer in SPANNED_LAYERS:
        for name, fn in public_functions(getattr(package, layer)).items():
            replacements[fn] = recorder.wrap(f"{layer}.{name}", fn)
    rebind(modules, replacements)


@dataclass
class NameTotals:
    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0


def summarise(spans: list[Span]) -> dict[str, NameTotals]:
    """Calls, inclusive and self time per span name.

    Inclusive time counts only the outermost span of a name on each call
    path, so a function that re-enters itself is not counted twice.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.duration_ns
    totals: dict[str, NameTotals] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, NameTotals())
        entry.calls += 1
        entry.self_ns += span.duration_ns - child_ns[index]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            entry.inclusive_ns += span.duration_ns
    return totals


def layer_self_ns(totals: dict[str, NameTotals]) -> dict[str, int]:
    out = {layer: 0 for layer in SPANNED_LAYERS}
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += entry.self_ns
    return out


# -- profiler pass -------------------------------------------------------------


def _code_key(fn) -> tuple[str, int, str]:
    code = getattr(fn, "__func__", fn).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def counted_functions(package: types.ModuleType) -> dict[str, list]:
    """Profiler-counted metrics and the functions whose calls they sum."""
    gf, polyrat, curve, funcfield = package.gf, package.polyrat, package.curve, package.funcfield
    fe, poly = gf.FieldElement, polyrat.Poly
    return {
        "gf.mul_calls": [fe.__mul__],
        "gf.add_calls": [fe.__add__, fe.__sub__, fe.__neg__],
        "gf.inv_calls": [fe.inverse],
        "gf.elements_created": [fe.__init__],
        "polyrat.poly_mul_calls": [poly.__mul__],
        "polyrat.divmod_calls": [poly.__divmod__],
        "polyrat.gcd_calls": [polyrat.poly_gcd],
        "polyrat.from_roots_calls": [poly.from_roots],
        "curve.mu_table_calls": [curve.mu_table],
        "funcfield.ffelem_mul_calls": [funcfield.FFElem.__mul__],
    }


def profile_summary(stats: dict, package: types.ModuleType, counted: dict[str, list]) -> dict:
    """Own time per layer and call counts from ``pstats.Stats(...).stats``.

    A function's own time goes to the layer whose file defines it.  Time in
    a builtin goes to the layers of its callers, edge by edge, so
    ``tuple(...)`` inside ``gf`` is ``gf`` time.
    """
    files = {getattr(package, layer).__file__: layer for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        if filename in files:
            self_s[files[filename]] += tottime
        elif filename == "~":
            for (caller_file, _, _), edge in callers.items():
                if caller_file in files:
                    self_s[files[caller_file]] += edge[2]
    calls = {}
    for metric, fns in counted.items():
        calls[metric] = sum(stats.get(_code_key(fn), (0, 0))[1] for fn in fns)
    return {"self_s": self_s, "calls": calls}


class GcdCounter:
    """Counts ``poly_gcd`` calls made while ``active``, and how many of
    their results are the constant 1."""

    def __init__(self, fn):
        self.fn = fn
        self.active = False
        self.calls = 0
        self.trivial = 0

    def wrapper(self):
        fn = self.fn

        @functools.wraps(fn)
        def counted(a, b):
            g = fn(a, b)
            if self.active:
                self.calls += 1
                self.trivial += g.degree == 0
            return g

        return counted
