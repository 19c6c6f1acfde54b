import json
from pathlib import Path

import pytest
from reference import scale

from cycliccover import verify
from cycliccover.cli import enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import DeRhamTriple, build_bases, off_fiber_poles, omega_basis
from cycliccover.curve import ASCurve, KummerCurve
from cycliccover.funcfield import FFDiff, FFElem
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn
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
        cocycle_check(DeRhamTriple(triple.omega0, other, triple.f0inf))


def test_cocycle_check_examples():
    classes = build_bases(QUARTIC).derham
    assert cocycle_check(classes[0]).status == "pass"
    assert cocycle_check(classes[0]).name == "cocycle:a[1,1]"
    assert cocycle_check(classes[1]).status == "pass"  # delta

    paper = build_bases(QUARTIC, sign_convention="paper").derham[0]
    result = cocycle_check(paper)
    assert result.status == "fail"
    # diagnostic identity: the residual is exactly twice the infinity slot
    residual = paper.triple.f0inf.exterior_d() - paper.triple.omega0 + paper.triple.omega_inf
    assert residual == paper.triple.omega_inf + paper.triple.omega_inf
    assert result.payload["residual"] == residual.render()


def test_locus_check_passes_on_emitted_triples():
    for curve in (QUARTIC, AS_P3, GENUS6):
        for cls in build_bases(curve).derham:
            assert locus_check(cls).status == "pass"


def test_locus_check_engineered_failure():
    # omega_0 with a pole at a branch point is a confirmed violation
    bad = FFDiff(FFElem.from_ratfn(QUARTIC, RatFn(Poly.one(F5), Poly.from_ints(F5, [-1, 1]))))
    holom = omega_basis(QUARTIC)[0][1]
    triple = DeRhamTriple(bad, holom, FFElem.zero(QUARTIC))
    result = locus_check(triple, "engineered")
    assert result.status == "fail"
    assert "branch" in result.details


def _locus_on_f0inf(elem):
    return locus_check(DeRhamTriple(FFDiff.zero(elem.curve), FFDiff.zero(elem.curve), elem), "engineered")


def test_locus_check_fails_on_a_tied_minimum_at_both_points():
    # y^4 = (x-1)^2 (x-2) (x-3): two monomials tie at the e = 2 branch point.
    # With u = y^2/(x-1), the element is (u + 1)/(x-1), and u^2 = 2 there,
    # so u + 1 != 0 at both points and each has a double pole
    curve = KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(2), 1), (F5.element(3), 1)])
    lin = Poly.from_ints(F5, [-1, 1])  # x - 1
    elem = FFElem.monomial(curve, 2, RatFn(Poly.one(F5), lin * lin)) + FFElem.monomial(
        curve, 0, RatFn(Poly.one(F5), lin)
    )
    result = _locus_on_f0inf(elem)
    assert result.status == "fail"
    assert result.details == "f_0inf at branch[1]@1: bound -2"


def test_locus_check_fails_on_a_pole_at_one_point_of_the_class():
    # y^4 = (x-1)^2 (x-3) (x-4): u = y^2/(x-1) has u^2 = 1 over x = 1, so
    # (u - 1)/(x-1) cancels at the point u = 1 and has a double pole at u = -1
    curve = KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(3), 1), (F5.element(4), 1)])
    lin = RatFn(Poly.one(F5), Poly.from_ints(F5, [-1, 1]))
    u = FFElem.monomial(curve, 2, lin)
    elem = scale(u - FFElem.one(curve), lin)
    result = _locus_on_f0inf(elem)
    assert result.status == "fail"
    assert result.details == "f_0inf at branch[1]@1: bound -2"
    assert result.payload == {"violations": ["f_0inf at branch[1]@1: bound -2"]}
    # the exactness check reads the same pole off the element
    assert [(place.label, v) for place, v in off_fiber_poles(elem)] == [("branch[1]@1", -2)]


def test_divisor_checks_pass_on_worked_curves():
    for curve in (QUARTIC, AS_P3, GENUS6):
        result = divisor_checks(curve)
        assert result.status == "pass", result.details


def test_divisor_checks_cover_the_identity_suite():
    # spot-check that the sub-identities are really exercised
    from cycliccover.curve import mu_table, ram_data
    from cycliccover.funcfield import place_classes, valuation_bound

    # Kummer (y): lambda_i at branch, -t over infinity, degree zero
    y = FFElem.y(QUARTIC)
    ram = ram_data(QUARTIC)
    total = 0
    for place, entry in zip(place_classes(QUARTIC), ram.branch):
        bound = valuation_bound(y, place)
        assert bound == entry.lam
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
    for m in table.mus():
        mu = p - m
        if mu < 1:
            continue
        row = table[m]
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


KUMMER_PAIRS = [GENUS6] + [
    parse_curve_spec(doc) for doc in enumerate_kummer_specs(13, 6, 12, 64, 7) if doc["n"] >= 3
][:8]


@pytest.mark.parametrize("curve", KUMMER_PAIRS, ids=[f"kummer{i}" for i in range(len(KUMMER_PAIRS))])
def test_each_gg_product_is_built_once_per_pair(curve, monkeypatch):
    from cycliccover.curve import mu_table, ram_data

    table, ram = mu_table(curve, "extended"), ram_data(curve)
    mus = table.mus()
    assert all(table[mu].I == table[curve.n - mu].I for mu in mus)  # n lambda_i = 0 mod e_i
    pairs = {frozenset((mu, curve.n - mu)) for mu in mus}
    against_f, roots = [], []
    eq, from_roots = Poly.__eq__, Poly.from_roots
    monkeypatch.setattr(Poly, "__eq__", lambda a, b: (against_f.append(b is curve.f), eq(a, b))[1])
    monkeypatch.setattr(
        Poly, "from_roots", classmethod(lambda cls, spec, rs: (roots.append(rs), from_roots(spec, rs))[1])
    )
    items = verify._kummer_identities(curve, table, ram)
    monkeypatch.undo()
    assert [template.format(*args) for _, _, _, template, args in items] == [
        label for mu in mus for label in (f"gg:mu={mu}", f"logder:mu={mu}")
    ]
    assert all(ok for ok, *_ in items)
    # one gg comparison and one support per pair; one phi per mu
    assert sum(against_f) == len(pairs) < len(mus)
    assert len(roots) == len(pairs) + len(mus)


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


def test_the_kummer_identities_build_two_products_of_roots_per_mu(monkeypatch):
    # each prod_(I-i) (x - rho) is divided out of the support, so per mu only
    # the support and phi are built from their roots
    docs = [json.loads((SPECS / f"{name}.json").read_text()) for name in ("kummer_quartic", "as_p3")]
    docs += enumerate_kummer_specs(13, 6, 12, 64, 7)
    calls, built = [], Poly.from_roots.__func__
    monkeypatch.setattr(Poly, "from_roots", classmethod(lambda cls, *args: calls.append(1) or built(cls, *args)))
    identities, counts = verify._kummer_identities, []

    def counted(curve, table, ram):
        before = len(calls)
        items = identities(curve, table, ram)
        counts.append((len(calls) - before, len(table.mus())))
        return items

    monkeypatch.setattr(verify, "_kummer_identities", counted)
    for doc in docs:
        assert divisor_checks(parse_curve_spec(doc)).status == "pass"
    assert len(counts) == 1 + 64
    assert all(made <= 2 * mus for made, mus in counts), counts


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
