import json
import math
from pathlib import Path

import pytest
from reference import cocycle_residual, scale

from cycliccover import cohomology, verify
from cycliccover.cli import enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import DeRhamTriple, build_bases, off_fiber_poles, omega_basis
from cycliccover.curve import ASCurve, KummerCurve
from cycliccover.funcfield import FFDiff, FFElem
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, reduce_over_roots
from cycliccover.verify import (
    VerifyOptions,
    cocycle_check,
    dimension_check,
    divisor_checks,
    duality_matrix,
    exactness_check,
    full_report,
    locus_check,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F11 = FieldSpec(11)

QUARTIC = KummerCurve(F5, 2, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
AS_P3 = ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(1), 1), (F3.element(2), 1)])
GENUS6 = KummerCurve(F11, 5, [(F11.element(i), 1) for i in (1, 2, 3, 4, 5)])
SPECS = Path(__file__).resolve().parents[1] / "specs"


def test_duality_matrix_quartic():
    matrix, result = duality_matrix(QUARTIC, build_bases(QUARTIC))
    assert result.status == "pass"
    assert matrix == [[1]]  # encodings


def test_duality_matrix_as_extended():
    matrix, result = duality_matrix(AS_P3, build_bases(AS_P3, "extended"))
    assert result.status == "pass"
    assert len(matrix) == 2
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            assert v == (1 if i == j else 0)  # encodings


def test_duality_matrix_full_identity_across_distinct_mu():
    # genus 6 with four distinct mu blocks: every off-diagonal pairing,
    # including mu_1 != mu_2, must vanish
    matrix, result = duality_matrix(GENUS6, build_bases(GENUS6))
    assert result.status == "pass"
    assert len(matrix) == 6
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            assert v == (1 if i == j else 0)  # encodings


def test_cocycle_check_refuses_slots_on_mismatched_curves():
    triple = build_bases(QUARTIC).derham[0].triple
    other = FFDiff(FFElem.one(AS_P3))
    with pytest.raises(ValueError, match="mismatched curves"):
        cocycle_check(DeRhamTriple(triple.omega0, other, triple.f0inf), "mismatched")


def test_cocycle_check_examples():
    classes = build_bases(QUARTIC).derham
    assert cocycle_check(classes[0].triple, classes[0].label).status == "pass"
    assert cocycle_check(classes[0].triple, classes[0].label).name == "cocycle:a[1,1]"
    assert cocycle_check(classes[1].triple, classes[1].label).status == "pass"  # delta

    paper = build_bases(QUARTIC, sign_convention="paper").derham[0].triple
    result = cocycle_check(paper, "a[1,1]")
    assert result.status == "fail"
    # diagnostic identity: the residual is exactly twice the infinity slot
    residual = FFDiff(cocycle_residual(paper))
    assert residual == scale(paper.omega_inf, F5.element(2))
    assert result.payload["residual"] == residual.render()


def test_locus_check_passes_on_emitted_triples():
    for curve in (QUARTIC, AS_P3, GENUS6):
        for cls in build_bases(curve).derham:
            assert locus_check(cls.triple, cls.label).status == "pass"


def test_locus_check_engineered_failure():
    # omega_0 with a pole at a branch point is a confirmed violation
    bad = FFDiff(FFElem.monomial(QUARTIC, 0, RatFn(Poly.one(F5), Poly.from_ints(F5, [-1, 1]))))
    holom = omega_basis(QUARTIC)[0][1]
    triple = DeRhamTriple(bad, holom, FFElem.zero(QUARTIC))
    result = locus_check(triple, "engineered")
    assert result.status == "fail"
    assert "branch" in result.details


def _locus_on_f0inf(elem):
    zero = FFDiff(FFElem.zero(elem.curve))
    return locus_check(DeRhamTriple(zero, zero, elem), "engineered")


def test_locus_check_fails_on_a_tied_minimum_at_both_points():
    # y^4 = (x-1)^2 (x-2) (x-3): two monomials tie at the e = 2 branch point.
    # With u = y^2/(x-1), the element is (u + 1)/(x-1), and u^2 = 2 there,
    # so u + 1 != 0 at both points and each has a double pole
    curve = KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(2), 1), (F5.element(3), 1)])
    lin = Poly.from_ints(F5, [-1, 1])  # x - 1
    elem = FFElem(curve, [(2, RatFn(Poly.one(F5), lin * lin)), (0, RatFn(Poly.one(F5), lin))])
    result = _locus_on_f0inf(elem)
    assert result.status == "fail"
    assert result.details == "f_0inf at branch[1]@1: bound -2"


def test_locus_check_fails_on_a_pole_at_one_point_of_the_class():
    # y^4 = (x-1)^2 (x-3) (x-4): u = y^2/(x-1) has u^2 = 1 over x = 1, so
    # (u - 1)/(x-1) cancels at the point u = 1 and has a double pole at u = -1
    curve = KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(3), 1), (F5.element(4), 1)])
    lin = RatFn(Poly.one(F5), Poly.from_ints(F5, [-1, 1]))
    elem = scale(FFElem(curve, [(2, lin), (0, -RatFn.one(F5))]), lin)  # (u - 1)/(x - 1)
    result = _locus_on_f0inf(elem)
    assert result.status == "fail"
    assert result.details == "f_0inf at branch[1]@1: bound -2"
    assert result.payload == {"violations": ["f_0inf at branch[1]@1: bound -2"]}
    # the exactness check reads the same pole off the element
    assert [(place.label, v) for place, v in off_fiber_poles(elem)] == [("branch[1]@1", -2)]


@pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "reduced"])
def test_locus_check_reports_poles_of_recorded_denominators(recorded):
    # 1/(x - 1) from reduce_over_roots carries its factorization, read by the
    # walk; from RatFn(num, den) it carries none: the payloads are the same
    def over_lin(spec):
        lin = Poly.from_ints(spec, [-1, 1])
        return reduce_over_roots(Poly.one(spec), 0, lin, [(1, 1)]) if recorded else RatFn(Poly.one(spec), lin)

    pole, holom = FFDiff(FFElem.monomial(QUARTIC, 0, over_lin(F5))), omega_basis(QUARTIC)[0][1]
    zero = FFElem.zero(QUARTIC)
    cases = [
        (DeRhamTriple(pole, holom, zero), ["omega_0 at branch[1]@1: bound -1", "omega_0 at over_infinity: bound -1"]),
        (DeRhamTriple(holom, -pole, zero), ["omega_inf at branch[1]@1: bound -1"]),  # negation keeps the record
        (DeRhamTriple(holom, holom, pole.coeff), ["f_0inf at branch[1]@1: bound -2"]),
    ]
    # y/(x - 1) on y^3 - y = r: den vanishes at branch 1, and at branch 2
    # the negative v(y) makes the walk read num's order there
    elem = FFElem.monomial(AS_P3, 1, over_lin(F3))
    cases.append((DeRhamTriple(FFDiff(FFElem.zero(AS_P3)), FFDiff(FFElem.zero(AS_P3)), elem),
                  ["f_0inf at branch[1]@1: bound -4", "f_0inf at branch[2]@2: bound -1"]))
    assert [(a.den_roots is not None) for _, a in pole.coeff.terms + elem.terms] == [recorded, recorded]
    for triple, violations in cases:
        result = locus_check(triple, "engineered")
        assert result.status == "fail"
        assert result.payload == {"violations": violations}
        assert result.details == "; ".join(violations)
    assert [(place.label, v) for place, v in off_fiber_poles(elem)] == [("branch[1]@1", -4), ("branch[2]@2", -1)]


def test_divisor_checks_pass_on_worked_curves():
    for curve in (QUARTIC, AS_P3, GENUS6):
        result = divisor_checks(curve)
        assert result.status == "pass", result.details


def test_divisor_checks_cover_the_identity_suite():
    # spot-check that the sub-identities are really exercised
    from cycliccover.curve import mu_table, place_classes
    from cycliccover.funcfield import valuation_bound

    # Kummer (y): lambda_i = l_i / gcd(n, l_i) at branch, -t over infinity, degree zero
    y = FFElem.y(QUARTIC)
    total = 0
    for place, (_, l) in zip(place_classes(QUARTIC), QUARTIC.branch):
        bound = valuation_bound(y, place)
        assert bound == l // math.gcd(QUARTIC.n, l)
        total += bound * place.npoints
    # AS (dx) degree is 2g - 2 = 2
    dx = FFDiff(FFElem.one(AS_P3))
    total = sum(
        valuation_bound(dx, place) * place.npoints for place in place_classes(AS_P3)
    )
    assert total == 2

    # extrael2 exponent identity on the AS example
    table = mu_table(AS_P3, "extended")
    p = AS_P3.p
    for m, row in table.items():
        mu = p - m
        if mu < 1:
            continue
        for i, (_, l) in enumerate(AS_P3.branch):
            assert p * row.m[i] - (mu - 1) * l == p - 1 - row.v[i]
            assert p * row.m[i] - (mu - 1) * l >= 0


class _WatchedPlace:
    """A place class that records every read of its label."""

    def __init__(self, place, reads):
        self._place, self._reads = place, reads

    def __getattr__(self, name):
        if name == "label":
            self._reads.append(self._place.label)
        return getattr(self._place, name)


@pytest.mark.parametrize("curve", [QUARTIC, AS_P3, GENUS6], ids=["quartic", "as_p3", "genus6"])
def test_a_passing_divisor_check_formats_no_item_label(curve, monkeypatch):
    # an item keeps its values and a label template; only a failing check reads a place label
    reads = []
    places = verify.place_classes
    monkeypatch.setattr(verify, "place_classes", lambda c: tuple(_WatchedPlace(pl, reads) for pl in places(c)))
    passing = divisor_checks(curve)
    assert passing.status == "pass" and reads == []
    bound = verify.valuation_bound
    monkeypatch.setattr(verify, "valuation_bound", lambda obj, place: bound(obj, place) + 1)
    failing = divisor_checks(curve)
    assert failing.status == "fail" and reads
    assert all(" at " in item["item"] for item in failing.payload["items"] if not item["item"].startswith("deg("))


@pytest.mark.parametrize(
    "name,field,item", [("kummer_quartic", "v_y", "(y) at branch[1]@1"), ("as_p3", "v_dx", "(dx) at branch[1]@1")]
)
def test_a_wrong_place_table_fails_at_the_branch(name, field, item):
    # the y and dx rows are written from the spec's branch data, not from the place
    # table, so a wrong place formula fails at its place and not only in deg(...)
    from cycliccover.curve import mu_table, place_classes

    curve = parse_curve_spec(json.loads((SPECS / f"{name}.json").read_text()))
    mu_table(curve, "extended")  # kept on the curve, from the true table
    places = place_classes(curve)
    curve.places = (places[0]._replace(**{field: getattr(places[0], field) + 1}),) + places[1:]
    result = divisor_checks(curve)
    assert result.status == "fail"
    assert item in [entry["item"] for entry in result.payload["items"]]


KUMMER_CURVES = [GENUS6] + [
    parse_curve_spec(doc) for doc in enumerate_kummer_specs(13, 6, 12, 64, 7) if doc["n"] >= 3
][:8]


@pytest.mark.parametrize("curve", KUMMER_CURVES, ids=[f"kummer{i}" for i in range(len(KUMMER_CURVES))])
def test_the_kummer_identities_build_no_polynomial(curve, monkeypatch):
    # gg and logder are decided on the row's exponents: no product of roots,
    # no product and no polynomial comparison
    from cycliccover.curve import mu_table, place_classes

    table, branches = mu_table(curve, "extended"), place_classes(curve)[:curve.r]

    def refused(*args):
        raise AssertionError("a polynomial kernel was called")

    for name in ("__mul__", "__eq__", "derivative"):
        monkeypatch.setattr(Poly, name, refused)
    monkeypatch.setattr(Poly, "from_roots", classmethod(refused))
    items = verify._kummer_identities(curve, table, branches)
    monkeypatch.undo()
    assert [template.format(*args) for _, _, _, template, args in items] == [
        label for mu in table for label in (f"gg:mu={mu}", f"logder:mu={mu}")
    ]
    assert all(ok for ok, *_ in items)


def test_dimension_check_examples():
    assert dimension_check(QUARTIC, build_bases(QUARTIC)).status == "pass"
    assert dimension_check(QUARTIC, build_bases(QUARTIC)).payload == {"omega": 1, "h1": 1, "derham": 2, "genus": 1}
    assert dimension_check(AS_P3, build_bases(AS_P3, "extended")).status == "pass"
    paper = dimension_check(AS_P3, build_bases(AS_P3, "paper"))
    assert paper.status == "fail"
    assert (paper.payload["omega"], paper.payload["h1"], paper.payload["derham"]) == (1, 1, 2)
    assert paper.payload["genus"] == 2


def test_exactness_check_examples():
    for curve in (QUARTIC, AS_P3, GENUS6):
        bases = build_bases(curve)
        assert exactness_check(curve, bases, duality_matrix(curve, bases)[0]).status == "pass"


def test_full_report_all_pass_and_ordering():
    report = full_report(QUARTIC)
    assert report.all_pass
    names = [c.name for c in report.checks]
    assert names[:4] == ["validation", "divisors", "dimension", "duality"]
    assert names[-1] == "exactness"
    assert "cocycle:a[1,1]" in names and "locus:delta[1,1]" in names
    assert report.pairing_matrix == [[1]]  # encodings


def test_full_report_paper_policy_dimension_failure_only():
    report = full_report(AS_P3, VerifyOptions(mu_range="paper"))
    assert not report.all_pass
    failing = [c.name for c in report.checks if c.status != "pass"]
    assert failing == ["dimension"]


def test_full_report_paper_sign_cocycle_failure():
    report = full_report(QUARTIC, VerifyOptions(sign="paper"))
    assert not report.all_pass
    failing = [c.name for c in report.checks if c.status != "pass"]
    assert failing == ["cocycle:a[1,1]"]


def test_full_report_on_invalid_curve_reports_only_validation():
    bad = KummerCurve(F5, 3, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
    report = full_report(bad)
    assert not report.all_pass
    assert report.pairing_matrix is None
    assert all(c.name.startswith("validate:") for c in report.checks)
    assert {c.status for c in report.checks} == {"fail"}


def test_checks_without_a_payload_share_no_dict():
    # the validation, cocycle and locus results that report nothing more
    # each hold a fresh {}, never one dict shared through a default
    report = full_report(QUARTIC)
    bad = KummerCurve(F5, 3, [(F5.element(1), 1)])  # l not divisible by n, n not dividing q - 1
    empty = [c for c in report.checks + full_report(bad).checks if c.payload == {}]
    names = {c.name.split(":")[0] for c in empty}
    assert names == {"validation", "cocycle", "locus", "validate"}
    assert len({id(c.payload) for c in empty}) == len(empty)
    empty[0].payload["planted"] = 1
    assert all(c.payload == {} for c in empty[1:])
    assert full_report(QUARTIC).checks[0].payload == {}


def test_the_dy_item_and_the_de_rham_builder_read_one_pole_denominator(monkeypatch):
    # prod (x - rho_i)^(l_i + 1) is a per-curve field, built once for the
    # divisor check's dy item and the a-family's omega_mu terms
    curve = ASCurve(F5, Poly.from_ints(F5, [2, 0, 1]), [(F5.element(1), 1), (F5.element(2), 1)])
    dy_dens, reduced = [], []
    dy_matches, reduce = verify._dy_matches, cohomology.reduce_over_roots
    monkeypatch.setattr(verify, "_dy_matches", lambda c, psi, den: dy_dens.append(den) or dy_matches(c, psi, den))
    monkeypatch.setattr(cohomology, "reduce_over_roots",
                        lambda num, shift, den, roots: reduced.append(den) or reduce(num, shift, den, roots))
    assert full_report(curve).all_pass
    [den] = dy_dens
    assert den is curve.pole_den is cohomology.as_pole_den(curve)
    assert any(poly is den for poly in reduced)


@pytest.mark.parametrize(
    "plant,expected",
    [
        (lambda psi: psi + Poly.one(F3), "(1/(1 + 2*x + 2*x^2 + x^3)) * dx"),
        (lambda psi: psi * F3.element(2), "((2*x)/(1 + x^2 + x^4)) * dx"),
    ],
)
def test_a_wrong_psi_fails_the_dy_item_with_both_differentials_rendered(monkeypatch, plant, expected):
    # the zero test on the unreduced sums decides; a failing item still
    # renders the reduced closed form and the reduced dy
    real = verify.as_psi
    monkeypatch.setattr(verify, "as_psi", lambda curve: plant(real(curve)))
    result = divisor_checks(AS_P3)
    assert (result.status, result.details) == ("fail", "1 of 52 divisor identities failed")
    assert result.payload == {
        "items": [
            {
                "item": "dy == psi / prod (x-rho)^{l+1} dx",
                "ok": False,
                "expected": expected,
                "got": "(x/(1 + x^2 + x^4)) * dx",
            }
        ]
    }
