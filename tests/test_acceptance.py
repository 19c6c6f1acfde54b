"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All numeric comparisons are exact equalities in F_q; the only tolerances
are the stated wall-clock budgets.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from reference import kummer_psi, trace, trace_by_orbit

from cycliccover.cli import enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import _kummer_psi_parts, _psi_at, build_bases, h1_basis, omega_basis
from cycliccover.curve import (
    ASCurve,
    KummerCurve,
    genus_rh,
    mu_table,
    ram_data,
    validate,
)
from cycliccover.funcfield import FFDiff, FFElem, place_classes, valuation_bound
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, fraction_residue, split_at_degree
from cycliccover.verify import VerifyOptions, duality_matrix, full_report

REPO = Path(__file__).resolve().parents[1]

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def _report(cid: str, ok: bool) -> None:
    print(f"acceptance {cid}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {cid} failed"


def _quartic():
    return KummerCurve(F5, 2, [(F5.element(i), 1) for i in (1, 2, 3, 4)])


def _as_p3():
    return ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(1), 1), (F3.element(2), 1)])


def test_c01_worked_kummer_curve():
    t0 = time.perf_counter()
    curve = _quartic()
    ok = validate(curve) == []
    ok &= genus_rh(curve) == 1

    omegas = omega_basis(curve)
    ok &= len(omegas) == 1 and omegas[0][1].render() == "(1/(4 + x^4))*y * dx"
    hs = h1_basis(curve)
    ok &= len(hs) == 1 and hs[0][1].render() == "(1/x)*y"

    matrix, duality = duality_matrix(curve, build_bases(curve))
    ok &= duality.status == "pass" and matrix == [[1]]  # encodings

    table = mu_table(curve)
    psi = _psi_at(_kummer_psi_parts(curve, 1, table), 1)
    ok &= psi == Poly.from_ints(F5, [2, 0, 0, 0, 2]) == kummer_psi(curve, 1, 1, table)
    lo, hi = split_at_degree(psi, 2, inclusive=True)
    ok &= lo == Poly.from_ints(F5, [2]) and hi == Poly.from_ints(F5, [0, 0, 0, 0, 2])

    a = [c for c in build_bases(curve).derham if c.kind == "a"][0].triple
    ok &= a.f0inf.exterior_d() == a.omega0 - a.omega_inf

    ok &= full_report(curve).all_pass
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("C1 worked Kummer curve", ok)


def test_c02_worked_artin_schreier_curve():
    t0 = time.perf_counter()
    curve = _as_p3()
    ok = validate(curve) == []
    ok &= genus_rh(curve) == 2

    omegas = omega_basis(curve, "extended")
    ok &= [w.render() for _, w in omegas] == [
        "(1/(2 + x^2)) * dx",
        "(1/(2 + x^2))*y * dx",
    ]
    ok &= len(h1_basis(curve, "extended")) == 2
    ok &= len(build_bases(curve, "extended").derham) == 4

    matrix, duality = duality_matrix(curve, build_bases(curve, "extended"))
    ok &= duality.status == "pass"
    ok &= all(
        v == (1 if i == j else 0)  # encodings
        for i, row in enumerate(matrix)
        for j, v in enumerate(row)
    )
    ok &= full_report(curve).all_pass

    # the paper mu-range must surface a dimension failure, not crash
    paper = full_report(curve, VerifyOptions(mu_range="paper"))
    failing = [c for c in paper.checks if c.status != "pass"]
    ok &= not paper.all_pass
    ok &= [c.name for c in failing] == ["dimension"]
    ok &= failing[0].payload["omega"] == 1 and failing[0].payload["genus"] == 2

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report("C2 worked Artin-Schreier curve", ok)


def test_c03_paper_pinned_euclidean_entry():
    curve = ASCurve(F7, Poly.from_ints(F7, [1, 0, 1]), [(F7.element(1), 2)])
    row = mu_table(curve)[1]
    _report("C3 pinned table entry m_1^(1) = 2 for p=7, l=2", row.m == (2,) and row.m[0] == 2)


def test_c04_trace_table():
    ok = True
    curves = {
        3: _as_p3(),
        5: ASCurve(F5, Poly.from_ints(F5, [2, 0, 1]), [(F5.element(1), 1), (F5.element(2), 1)]),
        7: ASCurve(F7, Poly.from_ints(F7, [3, 0, 1]), [(F7.element(1), 1), (F7.element(2), 1)]),
    }
    for p, curve in curves.items():
        spec = curve.spec
        y = FFElem.y(curve)
        power = FFElem.one(curve)
        for k in range(1, p):
            power = power * y
            tr = trace_by_orbit(power)
            expected = RatFn.constant(spec.element(-1)) if k == p - 1 else RatFn.zero(spec)
            ok &= tr == expected
        rng = random.Random(p)
        for _ in range(100):
            coeffs = []
            for _ in range(p):
                num = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(3))])
                den = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(1, 3))])
                coeffs.append(RatFn(num, den if not den.is_zero else Poly.one(spec)))
            elem = FFElem(curve, enumerate(coeffs))
            ok &= trace(elem) == trace_by_orbit(elem)
    _report("C4 trace table for p in {3,5,7} plus 100 randoms per p", ok)


def test_c05_residue_properties():
    ok = True
    fields = [F3, F5, F7, FieldSpec(3, [1, 0, 1]), FieldSpec(5, [2, 0, 1])]
    for spec in fields:
        rng = random.Random(spec.q)
        for _ in range(100):
            g = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(1, 9))])
            ok &= fraction_residue(g.derivative(), Poly.one(spec)) == 0
            if not g.is_zero:
                h = RatFn(g.derivative(), g)
                ok &= fraction_residue(h.num, h.den) == spec.element(-int(g.degree)).encoding
    _report("C5 residue properties over F_3, F_5, F_7, F_9, F_25", ok)


def test_c06_kummer_sweep():
    t0 = time.perf_counter()
    docs = enumerate_kummer_specs(p_max=13, n_max=6, l_max=12, cap=64, seed=7)
    distinct = {json.dumps(d, sort_keys=True) for d in docs}
    ok = len(distinct) >= 50
    for doc in docs:
        curve = parse_curve_spec(doc)
        report = full_report(curve)
        if not report.all_pass:
            print("failing curve:", json.dumps(doc))
            ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    print(f"  (kummer sweep: {len(docs)} curves in {elapsed:.1f}s)")
    _report("C6 Kummer sweep all-pass", ok)


def test_c07_artin_schreier_sweep():
    t0 = time.perf_counter()
    docs = enumerate_as_specs(p_max=7, r_max=3, li_max=4, cap=40, seed=7)
    distinct = {json.dumps(d, sort_keys=True) for d in docs}
    ok = len(distinct) >= 30
    for doc in docs:
        curve = parse_curve_spec(doc)
        report = full_report(curve, VerifyOptions(mu_range="extended"))
        if not report.all_pass:
            print("failing curve:", json.dumps(doc))
            ok = False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    print(f"  (artin-schreier sweep: {len(docs)} curves in {elapsed:.1f}s)")
    _report("C7 Artin-Schreier sweep all-pass (extended policy)", ok)


def _sweep_curves():
    for doc in enumerate_kummer_specs(p_max=13, n_max=6, l_max=12, cap=64, seed=7):
        yield parse_curve_spec(doc)
    for doc in enumerate_as_specs(p_max=7, r_max=3, li_max=4, cap=40, seed=7):
        yield parse_curve_spec(doc)


def test_c08_identity_checks_across_sweeps():
    ok = True
    for curve in _sweep_curves():
        spec = curve.spec
        table = mu_table(curve, "extended")
        g = genus_rh(curve)
        places = place_classes(curve)
        # deg(dx) = 2g - 2
        dx = FFDiff(FFElem.one(curve))
        deg_dx = sum(valuation_bound(dx, pl) * pl.npoints for pl in places)
        ok &= deg_dx == 2 * g - 2
        # degree of the divisor of x is zero
        x_elem = FFElem.from_ratfn(curve, RatFn.from_poly(Poly.x(spec)))
        ok &= sum(valuation_bound(x_elem, pl) * pl.npoints for pl in places) == 0
        if curve.kind == "kummer":
            ram = ram_data(curve)
            y_elem = FFElem.y(curve)
            ok &= sum(valuation_bound(y_elem, pl) * pl.npoints for pl in places) == 0
            for mu in table.mus():
                row = table[mu]
                other = table[curve.n - mu]
                support = Poly.from_roots(spec, [(ram.branch[i - 1].rho, 1) for i in row.I])
                ok &= row.g_mu * other.g_mu * support == curve.f
                phi = Poly.from_roots(spec, [(e.rho, v * e.g) for e, v in zip(ram.branch, row.v)])
                rhs = Poly.zero(spec)
                for i in row.I:
                    weight = spec.element(row.v[i - 1] * ram.branch[i - 1].g)
                    rhs = rhs + Poly.from_roots(
                        spec, [(ram.branch[j - 1].rho, 1) for j in row.I if j != i]
                    ) * weight
                ok &= phi.derivative() * support == phi * rhs
        else:
            p = curve.p
            for m in table.mus():
                mu = p - m
                if mu < 1:
                    continue
                row = table[m]
                for i, (_, l) in enumerate(curve.branch):
                    lhs = p * row.m[i] - (mu - 1) * l
                    ok &= lhs == p - 1 - row.v[i] and lhs >= 0
    _report("C8 polynomial identity suite across both sweeps", ok)


def test_c09_sign_adjudication_across_sweeps():
    # The verbatim triples satisfy df = omega_0 + omega_inf, so the cocycle
    # residual under the paper sign is exactly 2 * omega_inf; it is a real
    # failure whenever that double is nonzero (in characteristic 2 the two
    # conventions coincide and the check passes under both).
    ok = True
    kummer_failures = 0
    as_failures = 0
    for curve in _sweep_curves():
        default_classes = build_bases(curve, "extended", "negated-infty").derham
        paper_classes = build_bases(curve, "extended", "paper").derham
        for dc, pc in zip(default_classes, paper_classes):
            if dc.kind != "a":
                continue
            t = dc.triple
            ok &= t.f0inf.exterior_d() == t.omega0 - t.omega_inf
            tp = pc.triple
            residual = tp.f0inf.exterior_d() - tp.omega0 + tp.omega_inf
            doubled = tp.omega_inf + tp.omega_inf
            ok &= residual == doubled
            if not doubled.is_zero:
                if curve.kind == "kummer":
                    kummer_failures += 1
                else:
                    as_failures += 1
            else:
                ok &= tp.omega_inf.is_zero or curve.spec.p == 2
    ok &= kummer_failures > 0 and as_failures > 0
    _report("C9 sign adjudication (residual = 2 * omega_inf under paper sign)", ok)


def test_c10_deterministic_reports():
    ok = True
    for name in ("kummer_quartic.json", "as_p3.json"):
        cmd = [
            sys.executable,
            "-m",
            "cycliccover",
            "verify",
            str(REPO / "specs" / name),
            "--json",
        ]
        runs = [subprocess.run(cmd, capture_output=True, cwd=REPO) for _ in range(2)]
        ok &= runs[0].returncode == 0 and runs[1].returncode == 0
        ok &= runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 0
    _report("C10 byte-identical reports on repeated runs", ok)
