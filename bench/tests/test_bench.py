"""Tests of the benchmark itself (not of cycliccover).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, layer_self_ns, summarise  # noqa: E402


# -- generator -----------------------------------------------------------------


def _inputs_sha256_in_fresh_process(name: str, seed: int, hash_seed: str) -> str:
    code = (
        "import hashlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(hashlib.sha256(workloads.canonical_bytes(workloads.generate(sys.argv[2], int(sys.argv[3])))).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", code, str(BENCH), name, str(seed)],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    here = hashlib.sha256(workloads.canonical_bytes(workloads.generate(name, 7))).hexdigest()
    assert _inputs_sha256_in_fresh_process(name, 7, "1") == here
    assert _inputs_sha256_in_fresh_process(name, 7, "2") == here
    held_out = workloads.canonical_bytes(workloads.generate(name, workloads.HELD_OUT_SEED))
    assert held_out != workloads.canonical_bytes(workloads.generate(name, 7))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_curves_but_not_shapes(name):
    def shapes(docs):
        return sorted(
            json.dumps([d["p"], d.get("n"), d.get("ext_modulus"), [b["l"] for b in d["branch"]],
                        [b["rho"] in (0, [0, 0]) for b in d["branch"]]])
            for d in docs
        )

    a, b = workloads.generate(name, 1), workloads.generate(name, 2)
    assert a != b
    assert shapes(a) == shapes(b)


def test_genus_bands():
    small = workloads.generate("kummer_small", 7)
    assert {workloads.genus_of(d) for d in small} == {0, 1, 2, 3, 4}
    report = workloads.generate("as_report", 7)
    assert all(workloads.genus_of(d) <= workloads.AS_GENUS_MAX for d in report)
    assert all("ext_modulus" not in d for d in report)


def test_riemann_hurwitz_matches_the_program():
    sys.path.insert(0, str(BENCH.parent / "src"))
    from cycliccover.cli import parse_curve_spec
    from cycliccover.curve import genus_rh

    docs = workloads.generate("kummer_small", 3)[:40] + workloads.generate("as_report", 3)[:20]
    for doc in docs:
        assert genus_rh(parse_curve_spec(doc)) == workloads.genus_of(doc), doc


# -- output check --------------------------------------------------------------


def _result(n: int) -> dict:
    return {
        "latencies_ms": [1.0] * n,
        "verdicts": [True] * n,
        "digests": [f"{i:064x}" for i in range(n)],
        "errors": {},
    }


def test_tampered_digest_counts_as_failure(capsys):
    docs = [{"curve": i} for i in range(4)]
    result = _result(4)
    expected = list(result["digests"])
    assert run.check_pass(docs, result, expected) == []

    expected[2] = "f" * 64
    failures = run.check_pass(docs, result, expected)
    assert [index for index, _ in failures] == [2]
    tally = run.Tally(docs, expected)
    tally.add(result)
    assert (tally.attempted, tally.failed) == (4, 1)
    out = capsys.readouterr().out
    assert "FAIL curve 2" in out and '{"curve": 2}' in out


def test_exception_and_wrong_verdict_count_as_failures():
    docs = [{"curve": i} for i in range(3)]
    result = _result(3)
    result["verdicts"][0] = False
    result["errors"] = {"1": "ValueError: boom"}
    result["verdicts"][1] = False
    failures = run.check_pass(docs, result, None)
    assert [index for index, _ in failures] == [0, 1]


def test_committed_digests_cover_every_curve():
    for name in workloads.WORKLOADS:
        digests = run.load_expected_digests(name, workloads.DEFAULT_SEED)
        assert len(digests) == len(workloads.generate(name, workloads.DEFAULT_SEED))
        assert run.load_expected_digests(name, workloads.HELD_OUT_SEED) is None


# -- spans -----------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    spans = [
        Span("verify.full_report", 0, -1, 0, 100),
        Span("cohomology.omega_basis", 0, 0, 10, 40),
        Span("funcfield.pairing", 0, 0, 50, 90),
        Span("cohomology.omega_basis", 0, 2, 60, 70),
        Span("cohomology.omega_basis", 0, 3, 62, 66),  # re-entrant call
    ]
    totals = summarise(spans)
    assert totals["verify.full_report"].self_ns == 100 - 30 - 40
    assert totals["funcfield.pairing"].self_ns == 40 - 10
    assert totals["cohomology.omega_basis"].calls == 3
    assert totals["cohomology.omega_basis"].self_ns == 30 + (10 - 4) + 4
    # the re-entrant call lies inside its caller's span and is not added again
    assert totals["cohomology.omega_basis"].inclusive_ns == 30 + 10
    by_layer = layer_self_ns(totals)
    assert by_layer == {"cli": 0, "verify": 30, "cohomology": 40, "funcfield": 30}
    assert sum(by_layer.values()) == spans[0].duration_ns


def test_count_metrics_repeat_across_traced_runs(capsys):
    docs = workloads.generate("kummer_small", 7)[:6] + workloads.generate("as_report", 7)[:3]
    specs = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    counts = [spec["name"] for spec in specs if spec["unit"] == "count"]
    first, second = (
        run.traced_run({"path": "document", "docs": docs}, 0, run.Tally(docs, None)) for _ in range(2)
    )
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    assert all(first[name] > 0 for name in counts)
    assert {spec["name"] for spec in specs} <= set(first)
