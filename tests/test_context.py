"""One ``Bases`` value per report: every basis is built once per report
and document, the pairing matrix is paired once, reading coordinates from
the matrix gives the same exactness verdict as pairing every element
afresh, and a finished report holds no cycle through its curve."""

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import pytest

from cycliccover import cohomology, verify
from cycliccover.cli import build_report_document, enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import (
    build_bases,
    derham_basis,
    h1_basis,
    h1_coordinates,
    map_i,
    map_p,
    omega_basis,
)
from cycliccover.funcfield import FFElem
from cycliccover.polyrat import Poly, RatFn
from cycliccover.verify import CheckResult, VerifyOptions, duality_matrix, exactness_check, full_report

REPO = Path(__file__).resolve().parents[1]
SPECS = [json.loads((REPO / "specs" / name).read_text()) for name in ("kummer_quartic.json", "as_p3.json")]
POLICIES = ("extended", "paper")
SIGNS = ("negated-infty", "paper")
BUILDERS = ("omega_basis", "h1_basis", "_build_derham_basis")


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("doc", SPECS, ids=["kummer_quartic", "as_p3"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sign", SIGNS)
def test_report_and_document_build_each_basis_once(doc, policy, sign, monkeypatch):
    counts: dict[str, int] = {}
    for name in BUILDERS:
        _counting(monkeypatch, cohomology, name, counts)
    for module in (cohomology, verify):
        _counting(monkeypatch, module, "pairing", counts)
    curve = parse_curve_spec(doc)
    report = full_report(curve, VerifyOptions(mu_range=policy, sign=sign))
    build_report_document(curve, policy, sign, include_bases=True, report=report)
    assert {name: counts.get(name, 0) for name in BUILDERS} == dict.fromkeys(BUILDERS, 1)
    # the pairing matrix once; exactness pairs nothing more
    assert counts["pairing"] == len(report.bases.omega) ** 2


@pytest.mark.parametrize("doc", SPECS, ids=["kummer_quartic", "as_p3"])
def test_a_report_frees_its_curve_by_reference_count(doc):
    gc.disable()
    try:
        curve = parse_curve_spec(doc)
        report = full_report(curve)
        document = build_report_document(curve, "extended", "negated-infty", include_bases=True, report=report)
        ref = weakref.ref(curve)
        del curve, report, document
        assert ref() is None
    finally:
        gc.enable()


def test_readers_hand_out_fresh_lists():
    curve = parse_curve_spec(SPECS[0])
    for reader in (omega_basis, h1_basis, derham_basis):
        first = reader(curve)
        expected = list(first)
        first.clear()
        assert reader(curve) == expected and reader(curve) is not reader(curve)


def test_unknown_policy_and_sign_are_refused():
    curve = parse_curve_spec(SPECS[0])
    with pytest.raises(ValueError, match="policy"):
        omega_basis(curve, "literal")
    with pytest.raises(ValueError, match="sign convention"):
        derham_basis(curve, "extended", "flipped")
    with pytest.raises(ValueError, match="sign convention"):
        build_bases(curve, "extended", "flipped")


def test_matrix_columns_are_the_coordinates_of_their_representatives():
    curve = parse_curve_spec(SPECS[1])
    bases = build_bases(curve)
    matrix, _ = duality_matrix(curve, bases)
    for j, (_, h) in enumerate(bases.columns):
        assert h1_coordinates(curve, h) == tuple(row[j] for row in matrix)


def _planted(bases, kind, f0inf):
    """``bases`` with the third slot of its first class of ``kind`` replaced,
    and that class's label."""
    k = next(k for k, cls in enumerate(bases.derham) if cls.kind == kind)
    cls = bases.derham[k]
    planted = dataclasses.replace(cls, triple=dataclasses.replace(cls.triple, f0inf=f0inf))
    return bases._replace(derham=bases.derham[:k] + [planted] + bases.derham[k + 1:]), cls.label


def test_exactness_pairs_an_image_off_the_columns_afresh_and_fails(monkeypatch):
    curve = parse_curve_spec(SPECS[1])  # over F_3, where 2 h has coordinates 2 e_j, not a unit vector
    bases = build_bases(curve)
    matrix, _ = duality_matrix(curve, bases)
    counts: dict[str, int] = {}
    _counting(monkeypatch, verify, "pairing", counts)
    assert exactness_check(curve, bases, matrix).status == "pass" and counts == {}

    h = map_p(next(cls for cls in bases.derham if cls.kind == "a").triple)
    representatives = [rep for _, rep in bases.columns]
    assert h in representatives and h + h not in representatives
    planted, label = _planted(bases, "a", h + h)
    result = exactness_check(curve, planted, matrix)
    assert counts == {"pairing": len(bases.omega)}  # one fresh row of pairings, for 2 h only
    assert result.status == "fail"
    assert result.payload["problems"] == [
        f"p({label}) is not a unit coordinate vector",
        "a-family does not map onto the full H^1 basis",
    ]

    planted, label = _planted(bases, "delta", h)
    result = exactness_check(curve, planted, matrix)
    assert result.status == "fail"
    assert result.payload["problems"] == [f"{label} has a nonzero third slot"]


def test_exactness_reports_an_image_with_a_pole_off_the_fibers(monkeypatch):
    """An a-class image with a pole at a branch point off the fiber over 0 is
    no H^1 class: the check names the class and the place and fails, and a
    report on that build carries the failure instead of raising."""
    curve = parse_curve_spec(SPECS[1])  # rho_1 = 1: branch[1] does not cover x = 0
    bases = build_bases(curve)
    matrix, _ = duality_matrix(curve, bases)
    spec = curve.spec
    rho_1 = curve.branch[0][0]
    pole = FFElem.monomial(curve, 0, RatFn(Poly.one(spec), Poly.from_roots(spec, [(rho_1, 1)])))
    planted, label = _planted(bases, "a", pole)
    result = exactness_check(curve, planted, matrix)
    assert result.status == "fail"
    assert result.payload["problems"] == [
        f"p({label}) has a pole at branch[1]@1: not an O(U_0 cap U_inf) class",
        "a-family does not map onto the full H^1 basis",
    ]
    monkeypatch.setattr(verify, "build_bases", lambda *args: planted)
    report = full_report(curve)
    by_name = {check.name: check for check in report.checks}
    assert not report.all_pass
    assert by_name["exactness"].payload == result.payload
    assert by_name["duality"].status == "pass"


def _exactness_by_pairing(curve, range_policy, sign) -> CheckResult:
    """The exactness check with every image paired afresh through
    ``h1_coordinates``: the reference the matrix-reading check must match."""
    zero = curve.spec.zero()
    one = curve.spec.one()
    problems = []
    omegas = omega_basis(curve, range_policy)
    for idx, w in omegas:
        coords = h1_coordinates(curve, map_p(map_i(w)), range_policy)
        if any(c != zero for c in coords):
            problems.append(f"p(i(omega[{idx.mu},{idx.nu}])) has nonzero coordinates")
    classes = derham_basis(curve, range_policy, sign)
    a_classes = [c for c in classes if c.kind == "a"]
    seen_positions = []
    for cls in a_classes:
        coords = h1_coordinates(curve, map_p(cls.triple), range_policy)
        hits = [k for k, c in enumerate(coords) if c != zero]
        if len(hits) != 1 or coords[hits[0]] != one:
            problems.append(f"p({cls.label}) is not a unit coordinate vector")
        else:
            seen_positions.append(hits[0])
    if sorted(seen_positions) != list(range(len(a_classes))):
        problems.append("a-family does not map onto the full H^1 basis")
    for cls in classes:
        if cls.kind == "delta" and not cls.triple.f0inf.is_zero:
            problems.append(f"{cls.label} has a nonzero third slot")
    if problems:
        return CheckResult("exactness", "fail", "; ".join(problems), {"problems": problems})
    return CheckResult(
        "exactness",
        "pass",
        "kernel, surjectivity and zero-section conditions all hold",
        {"a_count": len(a_classes), "omega_count": len(omegas)},
    )


DIFFERENTIAL_DOCS = (
    SPECS
    + enumerate_kummer_specs(11, 5, 10, 4, 7)
    + enumerate_as_specs(7, 2, 3, 4, 7)
)


@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_DOCS)))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sign", SIGNS)
def test_exactness_reading_the_matrix_matches_pairing_afresh(index, policy, sign):
    doc = DIFFERENTIAL_DOCS[index]
    curve = parse_curve_spec(doc)
    bases = build_bases(curve, policy, sign)
    got = exactness_check(curve, bases, duality_matrix(curve, bases)[0])
    want = _exactness_by_pairing(parse_curve_spec(doc), policy, sign)
    assert (got.status, got.details, got.payload) == (want.status, want.details, want.payload)
    representatives = [h for _, h in bases.columns]
    for cls in bases.derham:
        if cls.kind == "a":
            assert map_p(cls.triple) in representatives
