"""Benchmark of cycliccover: seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload kummer_small [--seed 7] [--seconds 50] [--trace 0]

With ``--trace 0`` the run measures closed-loop passes over the workload's
curves, each pass in a fresh interpreter, for about ``--seconds``, and
reports the end-to-end metrics.  With ``--trace 1`` it makes one profiler pass,
then alternates plain and span-traced passes for the rest of
``--seconds``, and reports the per-layer metrics.  A pass (or pair) starts only if it
should end within ``--seconds``; there is always at least one.  Every pass checks every curve's verdict and,
at the default seed, the sha256 of its report bytes against
``bench/digests.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 10
WORKER_TIMEOUT_S = 170
CALIBRATION_LOOPS = 1_000_000


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- environment ---------------------------------------------------------------


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop, a gauge of machine speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cycliccover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "commit": commit(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "calibration_s": round(calibration_s(), 6),
    }


# -- workers -------------------------------------------------------------------


def spawn(mode: str, request: dict | None = None) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and its result.

    Set-up runs from just before the process starts until the worker
    reports ``ready``: interpreter start, ``import cycliccover`` and the
    check that it came from this checkout.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode]
    # A fixed hash seed keeps set and dict order, and so the call counts,
    # the same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(json.dumps(request) if request is not None else "")
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker --mode {mode} failed with exit code {proc.returncode}")
    if request is None:
        return setup, None
    return setup, json.loads(out.strip().splitlines()[-1])


# -- output check --------------------------------------------------------------


def load_expected_digests(workload: str, seed: int) -> list[str] | None:
    """Committed report digests for the default seed; None for other seeds."""
    if seed != workloads.DEFAULT_SEED:
        return None
    table = json.loads((BENCH / "digests.json").read_text())
    if table["seed"] != seed or workload not in table["workloads"]:
        raise BenchError(f"bench/digests.json has no digests for {workload} at seed {seed}")
    return table["workloads"][workload]


def check_pass(docs: list[dict], result: dict, expected: list[str] | None) -> list[tuple[int, str]]:
    """Failures of one pass as (curve index, reason): an exception, a
    verdict other than all-pass, or a digest that differs from the
    committed one."""
    if expected is not None and len(expected) != len(docs):
        return [(i, "no committed digest for this curve set") for i in range(len(docs))]
    failures = []
    errors = {int(k): v for k, v in result["errors"].items()}
    for i in range(len(docs)):
        if i in errors:
            failures.append((i, f"exception {errors[i]}"))
        elif not result["verdicts"][i]:
            failures.append((i, "verdict: not every check passed"))
        elif expected is not None and result["digests"][i] != expected[i]:
            failures.append((i, f"report digest {result['digests'][i]} != committed {expected[i]}"))
    return failures


class Tally:
    """Attempted and failed curves over every pass of a run."""

    def __init__(self, docs: list[dict], expected: list[str] | None):
        self.docs = docs
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reported: set[tuple[int, str]] = set()

    def add(self, result: dict) -> None:
        failures = check_pass(self.docs, result, self.expected)
        self.attempted += len(self.docs)
        self.failed += len(failures)
        for index, reason in failures:
            if (index, reason) not in self.reported:
                self.reported.add((index, reason))
                print(f"FAIL curve {index}: {reason}")
                print(f"  spec: {json.dumps(self.docs[index], sort_keys=True)}")


# -- metrics -------------------------------------------------------------------


def pass_total_s(result: dict, key: str = "latencies_ms") -> float:
    return sum(ms for ms in result[key] if ms is not None) / 1000.0


def curve_latencies_ms(passes: list[dict]) -> list[float]:
    """Each curve's fastest latency over the passes.  A curve's work is
    the same in every pass, so a slower pass is the machine's noise, not
    the program's: on a shared machine, slow spells of seconds hit half
    the passes of a run, which a median keeps and the minimum drops."""
    out = []
    for samples in zip(*(r["latencies_ms"] for r in passes)):
        ok = [ms for ms in samples if ms is not None]
        if ok:
            out.append(min(ok))
    return out


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    latencies = curve_latencies_ms(passes)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "wall_s": sum(latencies) / 1000.0,
        "curve_p50_ms": statistics.median(latencies),
        "curve_p90_ms": deciles[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["maxrss_kb"] for r in passes) / 1024.0,
    }


SPAN_TIMES = {
    "funcfield.pairing_s": "funcfield.pairing",
    "funcfield.valuation_bound_s": "funcfield.valuation_bound",
    "verify.dimension_s": "verify.dimension_check",
    "verify.duality_s": "verify.duality_matrix",
    "verify.exactness_s": "verify.exactness_check",
    "verify.divisors_s": "verify.divisor_checks",
    "verify.cocycle_s": "verify.cocycle_check",
    "verify.locus_s": "verify.locus_check",
    "cli.parse_s": "cli.parse_curve_spec",
}
SPAN_CALLS = {
    "funcfield.pairing_calls": "funcfield.pairing",
    "funcfield.valuation_bound_calls": "funcfield.valuation_bound",
    "cohomology.omega_basis_calls": "cohomology.omega_basis",
    "cohomology.h1_basis_calls": "cohomology.h1_basis",
    "cohomology.derham_basis_calls": "cohomology.derham_basis",
    "cohomology.kummer_aux_calls": "cohomology.kummer_aux",
    "cohomology.h1_coordinates_calls": "cohomology.h1_coordinates",
}


def span_calls(result: dict) -> dict[str, int]:
    return {name: entry["calls"] for name, entry in result["spans"].items()}


def per_layer(curves: int, plain: list[dict], traced: list[dict], profiled: dict) -> dict[str, float]:
    def span_time(name: str) -> float:
        return statistics.median(r["spans"].get(name, {}).get("inclusive_s", 0.0) for r in traced)

    calls = span_calls(traced[0])
    profile = profiled["profile"]
    out: dict[str, float] = {}
    for layer, seconds in profile["self_s"].items():
        out[f"{layer}.self_s"] = seconds
    out.update(profile["calls"])
    out["polyrat.gcd_trivial_frac"] = profile["gcd_trivial"] / max(profile["gcd_calls"], 1)
    for metric, name in SPAN_CALLS.items():
        out[metric] = calls.get(name, 0)
    for metric, name in SPAN_TIMES.items():
        out[metric] = span_time(name)
    out["cli.render_s"] = statistics.median(pass_total_s(r, "render_ms") for r in plain)
    for layer in traced[0]["span_self_s"]:
        out[f"{layer}.span_self_s"] = statistics.median(r["span_self_s"][layer] for r in traced)
    builds = sum(calls.get(f"cohomology.{b}", 0) for b in ("omega_basis", "h1_basis", "derham_basis"))
    out["cohomology.basis_build_ratio"] = 3 * curves / max(builds, 1)
    out["trace_overhead"] = statistics.median(map(pass_total_s, traced)) / statistics.median(
        map(pass_total_s, plain)
    )
    return out


# -- runs ----------------------------------------------------------------------


def repeat_within(seconds: float, step) -> None:
    """Call ``step`` once, then again while another call, lasting as long
    as the last one, should end within ``seconds`` of the start."""
    start = time.perf_counter()
    last_s = 0.0
    calls = 0
    while calls == 0 or time.perf_counter() - start + last_s <= seconds:
        step_start = time.perf_counter()
        step()
        last_s = time.perf_counter() - step_start
        calls += 1


def untraced_run(request: dict, seconds: float, tally: Tally) -> dict[str, float]:
    setups = [spawn("probe")[0] for _ in range(SETUP_PROBES)]
    passes = []

    def one_pass() -> None:
        setup, result = spawn("plain", request)
        setups.append(setup)
        passes.append(result)
        tally.add(result)
        print(f"pass {len(passes)}: wall {pass_total_s(result):.4f} s, setup {setup:.4f} s")

    repeat_within(seconds, one_pass)
    print(f"samples: {len(request['docs'])} curves x {len(passes)} passes, {len(setups)} set-ups")
    return end_to_end(passes, setups)


def traced_run(request: dict, seconds: float, tally: Tally) -> dict[str, float]:
    start = time.perf_counter()
    profiled = spawn("profile", request)[1]
    tally.add(profiled)
    print(f"profile pass: wall {pass_total_s(profiled):.4f} s (profiler on)")
    plain, traced = [], []

    def one_pair() -> None:
        for mode, sink in (("plain", plain), ("spans", traced)):
            result = spawn(mode, request)[1]
            sink.append(result)
            tally.add(result)
            print(f"{mode} pass {len(sink)}: wall {pass_total_s(result):.4f} s")

    # The profiler pass comes first, so the pairs fill what is left of
    # --seconds; a run makes at least one pair.
    repeat_within(seconds - (time.perf_counter() - start), one_pair)
    if any(span_calls(r) != span_calls(traced[0]) for r in traced):
        raise BenchError("span call counts differ between passes over the same inputs")
    print("spans of the first traced pass (calls, inclusive s, self s):")
    for name, entry in traced[0]["spans"].items():
        print(f"  {name:<34} {entry['calls']:>9} {entry['inclusive_s']:>11.4f} {entry['self_s']:>11.4f}")
    return per_layer(len(request["docs"]), plain, traced, profiled)


def metric_specs(trace: bool) -> list[dict]:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return config["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cycliccover benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "cycliccover" / "__init__.py").is_file():
            raise BenchError(f"no cycliccover source under {ROOT / 'src'}")
        specs = metric_specs(bool(args.trace))
        workload = workloads.WORKLOADS[args.workload]
        docs = workloads.generate(workload.name, args.seed)
        expected = load_expected_digests(workload.name, args.seed)
        inputs = hashlib.sha256(workloads.canonical_bytes(docs)).hexdigest()
        print(f"workload {workload.name} ({workload.path} path), seed {args.seed}: "
              f"{len(docs)} curves, sum of genera {sum(map(workloads.genus_of, docs))}, inputs sha256 {inputs}")
        print("output check: " + ("verdicts and committed report digests" if expected else "verdicts only"))
        env = environment()
        tally = Tally(docs, expected)
        request = {"path": workload.path, "docs": docs}
        run = traced_run if args.trace else untraced_run
        values = run(request, args.seconds, tally)
        env["loadavg_after"] = list(os.getloadavg())
        print("env: " + json.dumps(env, sort_keys=True))
        missing = [spec["name"] for spec in specs if spec["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:<34} {value:>14.6f} {spec['unit']}")
    print(f"fail_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
