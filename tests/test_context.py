"""One ``Bases`` value per report: every basis is built once per report
and document, the pairing matrix computes one residue per key, reading
coordinates from the matrix gives the same exactness verdict as pairing
every image afresh through the dense full product of ``reference``, and
a finished report holds no cycle through its curve."""

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import pytest
from reference import dense, dense_pairing

from cycliccover import cohomology, funcfield, verify
from cycliccover.cli import build_report_document, enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import (
    build_bases,
    h1_basis,
    map_i,
    map_p,
    omega_basis,
)
from cycliccover.funcfield import FFElem, pairing_matrix
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


def _residue_keys(curve, bases) -> set:
    """The keys of the duality matrix, written from the pairing formula: per
    term pair of a differential and a column that a reach row joins, with a
    product of degree >= -1 (a lower degree has residue 0), the x-free parts
    of both coefficients, the reach row and their summed x-order."""
    zero = curve.spec.zero()

    def x_order(a):
        return a.num.multiplicity_at(zero) - a.den.multiplicity_at(zero)

    def x_free(a):
        return tuple(p.ints[p.multiplicity_at(zero):] for p in (a.num, a.den))

    def degree(a):
        return a.num.degree - a.den.degree

    keys = set()
    for _, w in bases.omega:
        for j, b in w.coeff.terms:
            for row, (s, factor) in enumerate(funcfield._reach(curve)):
                for _, h in bases.columns:
                    for i, a in h.terms:
                        if i + j == s and degree(a) + degree(b) + (degree(factor) if factor else 0) >= -1:
                            keys.add((x_free(a), x_free(b), row, x_order(a) + x_order(b)))
    return keys


@pytest.mark.parametrize("doc", SPECS, ids=["kummer_quartic", "as_p3"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sign", SIGNS)
def test_report_and_document_build_each_basis_once(doc, policy, sign, monkeypatch):
    counts: dict[str, int] = {}
    for name in BUILDERS:
        _counting(monkeypatch, cohomology, name, counts)
    _counting(monkeypatch, verify, "pairing_matrix", counts)
    _counting(monkeypatch, funcfield, "fraction_residue", counts)
    curve = parse_curve_spec(doc)
    report = full_report(curve, VerifyOptions(mu_range=policy, sign=sign))
    build_report_document(curve, policy, sign, include_bases=True, report=report)
    assert {name: counts.get(name, 0) for name in BUILDERS} == dict.fromkeys(BUILDERS, 1)
    # the duality matrix is the one pairing_matrix call: it computes one residue
    # per key, and exactness pairs nothing more
    assert counts["pairing_matrix"] == 1
    assert counts["fraction_residue"] == len(_residue_keys(curve, report.bases)) > 0


@pytest.mark.parametrize("doc", SPECS, ids=["kummer_quartic", "as_p3"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sign", SIGNS)
def test_each_a_class_holds_its_h1_representative(doc, policy, sign):
    """p(a[mu, nu]) = h[mu, nu] by construction: the builder hands the H^1
    basis objects to the a-family instead of building them again."""
    curve = parse_curve_spec(doc)
    bases = build_bases(curve, policy, sign)
    a_classes = [cls for cls in bases.derham if cls.kind == "a"]
    assert len(a_classes) == len(bases.h1) > 0
    for cls, (idx, h) in zip(a_classes, bases.h1):
        assert cls.index == idx and cls.triple.f0inf is h


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
    for reader in (omega_basis, h1_basis):
        first = reader(curve)
        expected = list(first)
        first.clear()
        assert reader(curve) == expected and reader(curve) is not reader(curve)


def test_unknown_policy_and_sign_are_refused():
    curve = parse_curve_spec(SPECS[0])
    with pytest.raises(ValueError, match="policy"):
        omega_basis(curve, "literal")
    with pytest.raises(ValueError, match="sign convention"):
        build_bases(curve, "extended", "flipped")


COORDINATE_CASES = SPECS + enumerate_kummer_specs(7, 4, 6, 6, 3) + enumerate_as_specs(5, 2, 3, 6, 3)


@pytest.mark.parametrize("doc", COORDINATE_CASES, ids=[f"case{i}" for i in range(len(COORDINATE_CASES))])
def test_matrix_columns_are_the_coordinates_of_their_representatives(doc):
    # a representative paired alone against the differential basis gives its column of the matrix
    curve = parse_curve_spec(doc)
    bases = build_bases(curve)
    matrix, _ = duality_matrix(curve, bases)
    omegas = [w for _, w in bases.omega]
    for j, (_, h) in enumerate(bases.columns):
        assert pairing_matrix(curve, omegas, [h]) == [[row[j]] for row in matrix]


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
    paired = []  # per pairing_matrix call: its differential count and columns
    original = verify.pairing_matrix

    def recorded(curve, omegas, columns):
        paired.append((len(omegas), list(columns)))
        return original(curve, omegas, columns)

    monkeypatch.setattr(verify, "pairing_matrix", recorded)
    assert exactness_check(curve, bases, matrix).status == "pass" and paired == []

    h = map_p(next(cls for cls in bases.derham if cls.kind == "a").triple)
    representatives = [rep for _, rep in bases.columns]
    assert h in representatives and h + h not in representatives
    planted, label = _planted(bases, "a", h + h)
    result = exactness_check(curve, planted, matrix)
    # one pairing_matrix call: 2 h, the one image off the columns, against every differential
    assert paired == [(len(bases.omega), [h + h])]
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
    """The exactness check with every image paired afresh against every
    differential through ``reference.dense_pairing``, which shares no code
    with ``pairing_matrix``: the reference the matrix-reading check must
    match."""
    bases = build_bases(curve, range_policy, sign)
    dense_omegas = [dense(w.coeff) for _, w in bases.omega]

    def coordinates(image):
        f = dense(image)
        return [dense_pairing(curve, f, w) for w in dense_omegas]

    problems = []
    for idx, w in bases.omega:
        if any(coordinates(map_p(map_i(w)))):
            problems.append(f"p(i(omega[{idx.mu},{idx.nu}])) has nonzero coordinates")
    classes = bases.derham
    a_classes = [c for c in classes if c.kind == "a"]
    seen_positions = []
    for cls in a_classes:
        coords = coordinates(map_p(cls.triple))
        hits = [k for k, c in enumerate(coords) if c]
        if len(hits) != 1 or coords[hits[0]] != 1:
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
        {"a_count": len(a_classes), "omega_count": len(bases.omega)},
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
