"""One measured pass over a workload's curves, in a fresh interpreter.

Started by ``run.py``.  The worker imports ``cycliccover`` from the
checkout's ``src/``, prints ``ready`` (the parent times set-up up to that
line), reads the pass request as JSON from stdin, runs every curve and
prints one JSON result line.

Modes:
  probe    set-up only: exit after ``ready``
  plain    no instrumentation; the end-to-end pass
  spans    span wrappers on the upper layers
  profile  cProfile over each curve's timed window

Each curve runs in a closed loop: parse the spec document, ``full_report``,
read the verdict, and on the document path render the ``verify --json``
document.  That is the timed window.  The output check then hashes the
report bytes outside it.  On the sweep path the rendering of those bytes
happens after the window closes; it is timed on its own (``render_ms``)
and no span or profiler records it.

Only the modules the worker needs before ``ready`` are imported at the
top, so that set-up measures interpreter start and the program's import,
not the harness's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")

POLICY = "extended"
SIGN = "negated-infty"


class WrongPackageError(RuntimeError):
    """The imported ``cycliccover`` is not this checkout's ``src/`` copy."""


def import_package():
    sys.path.insert(0, SRC)
    import cycliccover
    import cycliccover.cli  # noqa: F401  the package does not import its front end

    location = os.path.realpath(cycliccover.__file__)
    if os.path.commonpath([SRC, location]) != SRC:
        raise WrongPackageError(f"cycliccover imported from {location}, not from {SRC}")
    return cycliccover


class Steps:
    """The calls of one curve, looked up through the package's modules at
    call time so that installed wrappers take effect."""

    def __init__(self, package, path: str):
        self.package = package
        self.path = path
        self.options = package.verify.VerifyOptions(mu_range=POLICY, sign=SIGN)

    def verdict(self, doc: dict):
        curve = self.package.cli.parse_curve_spec(doc)
        report = self.package.verify.full_report(curve, self.options)
        return curve, report

    def render(self, curve, report) -> str:
        """On the document path the ``verify --json`` document; on the sweep
        path the ``checks`` and ``pairing_matrix`` sections it contains."""
        cli = self.package.cli
        include_bases = self.path == "document"
        doc = cli.build_report_document(curve, POLICY, SIGN, include_bases=include_bases, report=report)
        if not include_bases:
            doc = {"checks": doc["checks"], "pairing_matrix": doc["pairing_matrix"]}
        return json.dumps(doc, indent=2)


def run_pass(steps: Steps, docs: list[dict], verdict=None, on_window=None) -> dict:
    """Run every curve; per curve record latency, render time, verdict and
    digest.

    ``verdict`` defaults to the plain step; ``on_window`` is called with
    True/False as each timed window opens and closes.
    """
    import hashlib

    verdict = verdict or steps.verdict
    document = steps.path == "document"
    latencies, render_ms, verdicts, digests, errors = [], [], [], [], {}
    clock = time.perf_counter

    def render(curve, report):
        start = clock()
        text = steps.render(curve, report)
        return text, (clock() - start) * 1000.0

    for index, doc in enumerate(docs):
        try:
            if on_window:
                on_window(True, index)
            start = clock()
            curve, report = verdict(doc)
            passed = report.all_pass
            if document:
                text, rendered_ms = render(curve, report)
            elapsed = clock() - start
            if on_window:
                on_window(False, index)
            if not document:
                text, rendered_ms = render(curve, report)
        except Exception as exc:  # a failing curve is a result, not a crash
            if on_window:
                on_window(False, index)
            errors[index] = f"{type(exc).__name__}: {exc}"
            latencies.append(None)
            render_ms.append(None)
            verdicts.append(False)
            digests.append(None)
            continue
        latencies.append(elapsed * 1000.0)
        render_ms.append(rendered_ms)
        verdicts.append(passed)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    return {"latencies_ms": latencies, "render_ms": render_ms, "verdicts": verdicts,
            "digests": digests, "errors": errors}


def spans_pass(package, steps: Steps, docs: list[dict]) -> dict:
    from tracing import SpanRecorder, install_spans, layer_self_ns, summarise

    recorder = SpanRecorder()
    install_spans(recorder, package)

    def on_window(opening: bool, index: int) -> None:
        recorder.active = opening
        recorder.request = index

    result = run_pass(steps, docs, verdict=recorder.wrap("bench.curve", steps.verdict), on_window=on_window)
    totals = summarise(recorder.spans)
    result["spans"] = {
        name: {"calls": t.calls, "inclusive_s": t.inclusive_ns / 1e9, "self_s": t.self_ns / 1e9}
        for name, t in sorted(totals.items())
    }
    result["span_self_s"] = {layer: ns / 1e9 for layer, ns in layer_self_ns(totals).items()}
    return result


def profile_pass(package, steps: Steps, docs: list[dict]) -> dict:
    import cProfile
    import pstats

    from tracing import GcdCounter, counted_functions, profile_summary, rebind

    counted = counted_functions(package)
    gcd = GcdCounter(package.polyrat.poly_gcd)
    modules = [package] + [getattr(package, name) for name in ("polyrat", "curve", "funcfield", "cohomology")]
    rebind(modules, {gcd.fn: gcd.wrapper()})
    profiler = cProfile.Profile()

    def on_window(opening: bool, index: int) -> None:
        gcd.active = opening
        if opening:
            profiler.enable()
        else:
            profiler.disable()

    result = run_pass(steps, docs, on_window=on_window)
    summary = profile_summary(pstats.Stats(profiler).stats, package, counted)
    summary["gcd_calls"] = gcd.calls
    summary["gcd_trivial"] = gcd.trivial
    result["profile"] = summary
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["probe", "plain", "spans", "profile"], required=True)
    args = parser.parse_args()
    try:
        package = import_package()
    except (ImportError, WrongPackageError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if args.mode == "probe":
        return 0
    import resource

    request = json.loads(sys.stdin.read())
    steps = Steps(package, request["path"])
    docs = request["docs"]
    if args.mode == "plain":
        result = run_pass(steps, docs)
    elif args.mode == "spans":
        result = spans_pass(package, steps, docs)
    else:
        result = profile_pass(package, steps, docs)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
