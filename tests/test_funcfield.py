import random

import pytest
from reference import (
    dense, exterior_derivative, galois, nth_root_of_unity, orbit_sum, power, ratfn_derivative, trace, trace_by_orbit,
)

from cycliccover.curve import ASCurve, KummerCurve, place_classes
from cycliccover.funcfield import FFDiff, FFElem, pairing_matrix, valuation_bound
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, [1, 0, 1])

QUARTIC = KummerCurve(F5, 2, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
AS_P3 = ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(1), 1), (F3.element(2), 1)])
AS_P5 = ASCurve(F5, Poly.from_ints(F5, [2, 0, 1]), [(F5.element(1), 1), (F5.element(2), 1)])
AS_P7 = ASCurve(F7, Poly.from_ints(F7, [3, 0, 1]), [(F7.element(1), 1), (F7.element(2), 1)])


def _rand_elem(curve, rng, max_len=4):
    spec = curve.spec

    def rand_ratfn():
        num = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(max_len))])
        den = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(1, max_len))])
        if den.is_zero:
            den = Poly.one(spec)
        return RatFn(num, den)

    return FFElem(curve, [(j, rand_ratfn()) for j in range(curve.degree)])


def test_mul_reduction_examples():
    y = FFElem.y(QUARTIC)
    sq = y * y
    assert dense(sq)[0] == RatFn(QUARTIC.f)
    assert dense(sq)[1].is_zero

    y3 = FFElem.y(AS_P3)
    cube = y3 * y3 * y3
    assert dense(cube)[0] == AS_P3.r_fn
    assert dense(cube)[1] == RatFn.one(F3)
    assert dense(cube)[2].is_zero


def test_the_terms_constructor_checks_range_and_merges():
    one, x = RatFn.one(F3), RatFn(Poly.x(F3))
    for bad in (-1, AS_P3.degree):
        with pytest.raises(ValueError, match="out of range"):
            FFElem(AS_P3, [(0, one), (bad, one)])
    # repeated indices add, a sum that cancels is dropped, and so is a zero term
    elem = FFElem(AS_P3, [(2, x), (0, one), (2, x), (1, one), (1, -one), (0, RatFn.zero(F3))])
    assert elem.terms == ((0, one), (2, x + x))
    assert elem == FFElem(AS_P3, [(2, x + x), (0, one)])
    assert FFElem(AS_P3, []) == FFElem(AS_P3, [(1, RatFn.zero(F3))]) == FFElem.zero(AS_P3)
    assert not hasattr(FFElem, "coeffs") and not hasattr(FFElem, "from_terms")


def test_add_identity_and_mismatch():
    z = _rand_elem(QUARTIC, random.Random(0))
    assert FFElem(QUARTIC, z.terms + FFElem.zero(QUARTIC).terms) == z
    with pytest.raises(ValueError):
        FFElem.one(QUARTIC) * FFElem.one(AS_P3)
    with pytest.raises(ValueError):
        pairing_matrix(QUARTIC, [FFDiff(FFElem.one(AS_P3))], [FFElem.one(QUARTIC)])


def test_galois_examples():
    zeta = nth_root_of_unity(F5, 2)
    gy = galois(FFElem.y(QUARTIC), 1)
    assert dense(gy)[1] == RatFn.one(F5) * zeta

    gy3 = galois(FFElem.y(AS_P3), 1)
    assert dense(gy3)[0] == RatFn.one(F3)
    assert dense(gy3)[1] == RatFn.one(F3)

    a = _rand_elem(AS_P3, random.Random(1))
    assert galois(a, 0) == a


def test_galois_is_automorphism_fixing_base():
    rng = random.Random(2)
    for curve in (QUARTIC, AS_P3, AS_P5):
        for _ in range(20):
            a, b = _rand_elem(curve, rng), _rand_elem(curve, rng)
            for j in range(1, curve.degree):
                assert galois(a * b, j) == galois(a, j) * galois(b, j)
                images = galois(a, j).terms + galois(b, j).terms
                assert galois(FFElem(curve, a.terms + b.terms), j) == FFElem(curve, images)
            const = FFElem.monomial(curve, 0, dense(a)[0])
            assert galois(const, 1) == const


def test_trace_examples():
    assert trace(FFElem.one(QUARTIC)) == RatFn.one(F5) * F5.element(2)
    y = FFElem.y(AS_P3)
    assert trace(y * y) == -RatFn.one(F3)
    assert trace(y).is_zero


def test_trace_closed_form_by_orbit():
    for curve in (AS_P3, AS_P5, AS_P7):
        p = curve.p
        y = FFElem.y(curve)
        y_k = FFElem.one(curve)
        for k in range(1, p):
            y_k = y_k * y
            tr = trace_by_orbit(y_k)
            if k == p - 1:
                assert tr == -RatFn.one(curve.spec)
            else:
                assert tr.is_zero


def test_trace_rule_matches_orbit_on_randoms():
    rng = random.Random(3)
    for curve in (QUARTIC, AS_P3, AS_P5):
        for _ in range(30):
            a = _rand_elem(curve, rng)
            assert trace(a) == trace_by_orbit(a)


def test_orbit_sum_lies_in_base_field():
    rng = random.Random(4)
    for curve in (QUARTIC, AS_P3):
        for _ in range(20):
            total = orbit_sum(_rand_elem(curve, rng))
            assert all(c.is_zero for c in dense(total)[1:])


def test_exterior_d_examples():
    y_over_x = FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), Poly.x(F5)))
    d = exterior_derivative(y_over_x)
    expected = RatFn(
        Poly.from_ints(F5, [1, 0, 0, 0, 1]),
        Poly.from_ints(F5, [0, 0, 4, 0, 0, 0, 1]),  # x^2 (x^4 + 4)
    )
    assert dense(d.coeff)[1] == expected
    assert dense(d.coeff)[0].is_zero

    dy = exterior_derivative(FFElem.y(AS_P3))
    assert dense(dy.coeff)[0] == -ratfn_derivative(AS_P3.r_fn)
    assert all(c.is_zero for c in dense(dy.coeff)[1:])

    assert exterior_derivative(FFElem.one(QUARTIC)).is_zero


def test_exterior_d_is_a_derivation():
    rng = random.Random(5)
    for curve in (QUARTIC, AS_P3, AS_P5):
        for _ in range(15):
            a, b = _rand_elem(curve, rng), _rand_elem(curve, rng)
            lhs = exterior_derivative(a * b)
            da, db = exterior_derivative(a).coeff, exterior_derivative(b).coeff
            rhs = FFDiff(FFElem(curve, (a * db).terms + (b * da).terms))
            assert lhs == rhs


def test_exterior_d_kills_p_th_powers():
    rng = random.Random(6)
    for curve in (AS_P3, AS_P5):
        for _ in range(10):
            a = _rand_elem(curve, rng, max_len=3)
            assert exterior_derivative(power(a, curve.p)).is_zero


def test_defining_equation_consistency():
    # Kummer: n y^{n-1} dy = f' dx, read through d(y)
    n = QUARTIC.n
    dy = exterior_derivative(FFElem.y(QUARTIC))
    lhs = FFElem.monomial(QUARTIC, n - 1, RatFn.one(F5) * F5.element(n)) * dy.coeff
    assert lhs == FFElem.monomial(QUARTIC, 0, RatFn(QUARTIC.f.derivative()))
    # Artin-Schreier: dy = -r' dx
    dy3 = exterior_derivative(FFElem.y(AS_P3))
    assert dy3.coeff == FFElem.monomial(AS_P3, 0, -ratfn_derivative(AS_P3.r_fn))


def test_place_classes_layout():
    places = place_classes(QUARTIC)
    assert [p.kind for p in places] == ["branch"] * 4 + ["over_zero", "over_infinity"]
    assert places[0].e == 2 and places[0].v_y == 1 and places[0].v_dx == 1
    assert places[-1].v_y == -QUARTIC.t and places[-1].v_dx == -2
    zero_branch = KummerCurve(F5, 2, [(F5.element(i), 1) for i in (0, 1, 2, 3)])
    kinds = [p.kind for p in place_classes(zero_branch)]
    assert "over_zero" not in kinds

    as_places = place_classes(AS_P3)
    assert as_places[0].e == 3 and as_places[0].v_y == -1 and as_places[0].v_dx == 4
    assert as_places[-1].v_y == 0 and as_places[-1].npoints == 3


Z9 = F9.from_encoding(3)  # z, with z^2 = -1


@pytest.mark.parametrize(
    "curve,labels",
    [
        (QUARTIC, ["branch[1]@1", "branch[2]@2", "branch[3]@3", "branch[4]@4", "over_zero", "over_infinity"]),
        (KummerCurve(F5, 2, [(F5.element(i), 1) for i in (0, 1, 2, 3)]),
         ["branch[1]@0", "branch[2]@1", "branch[3]@2", "branch[4]@3", "over_infinity"]),
        (AS_P3, ["branch[1]@1", "branch[2]@2", "over_zero", "over_infinity"]),
        (KummerCurve(F9, 2, [(Z9, 1), (Z9 + F9.element(1), 1)]),
         ["branch[1]@(z)", "branch[2]@(1 + z)", "over_zero", "over_infinity"]),
        (KummerCurve(F9, 2, [(F9.zero(), 1), (Z9, 1)]), ["branch[1]@0", "branch[2]@(z)", "over_infinity"]),
        (ASCurve(F9, Poly.from_ints(F9, [1, 1]), [(Z9, 1)]), ["branch[1]@(z)", "over_zero", "over_infinity"]),
    ],
    ids=["quartic", "zero_branch", "as_p3", "f9", "f9_zero_branch", "as_f9"],
)
def test_place_labels_keep_their_rendering(curve, labels):
    # a field that place_classes fills once per class: branch[i]@rho, or the class's kind
    places = place_classes(curve)
    assert [place.label for place in places] == labels
    for place in places:
        assert place.label == (f"branch[{place.position + 1}]@{place.rho.render()}" if place.kind == "branch" else place.kind)


def test_valuation_bound_examples():
    y = FFElem.y(QUARTIC)
    places = place_classes(QUARTIC)
    assert valuation_bound(y, places[0]) == 1
    assert type(valuation_bound(y, places[0])) is int
    assert valuation_bound(y, places[-1]) == -2

    w = FFDiff(FFElem.monomial(AS_P3, 0, RatFn(Poly.one(F3), Poly.from_ints(F3, [2, 0, 1]))))
    assert valuation_bound(w, place_classes(AS_P3)[0]) == 1

    with pytest.raises(ValueError):
        valuation_bound(FFElem.zero(QUARTIC), places[0])


def test_valuation_bound_multiplicative_on_monomials():
    rng = random.Random(7)
    for curve in (QUARTIC, AS_P3):
        branch_places = [p for p in place_classes(curve) if p.kind == "branch"]
        for _ in range(40):
            j1 = rng.randrange(curve.degree)
            j2 = rng.randrange(curve.degree)
            if j1 + j2 >= curve.degree:
                continue  # stay monomial after reduction
            spec = curve.spec
            c1 = RatFn(Poly.from_roots(spec, [(spec.element(1), rng.randrange(3))]),
                       Poly.from_roots(spec, [(spec.element(2), rng.randrange(3))]))
            c2 = RatFn(Poly.from_roots(spec, [(spec.element(2), rng.randrange(3))]),
                       Poly.from_roots(spec, [(spec.element(1), rng.randrange(3))]))
            m1 = FFElem.monomial(curve, j1, c1)
            m2 = FFElem.monomial(curve, j2, c2)
            prod = m1 * m2
            for place in branch_places:
                b1 = valuation_bound(m1, place)
                b2 = valuation_bound(m2, place)
                bp = valuation_bound(prod, place)
                assert bp == b1 + b2


def test_pairing_examples():
    omega = FFDiff(FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), QUARTIC.f)))  # dx/y
    y_over_x = FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), Poly.x(F5)))
    assert pairing_matrix(QUARTIC, [omega], [y_over_x, FFElem.one(QUARTIC)]) == [[F5.one().encoding, 0]]

    gpoly = Poly.from_ints(F3, [2, 0, 1])  # (x-1)(x-2)
    h = FFElem.monomial(AS_P3, 1, RatFn(gpoly, Poly.x(F3)))
    w = FFDiff(FFElem.monomial(AS_P3, 1, RatFn(Poly.one(F3), gpoly)))
    assert pairing_matrix(AS_P3, [w], [h]) == [[F3.one().encoding]]


def test_rendering_conventions():
    omega = FFDiff(FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), QUARTIC.f)))
    assert omega.render() == "(1/(4 + x^4))*y * dx"
    h = FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), Poly.x(F5)))
    assert h.render() == "(1/x)*y"
    assert FFElem.zero(QUARTIC).render() == "0"
    assert FFDiff(FFElem.zero(QUARTIC)).render() == "0"
    two_terms = FFElem(AS_P3, [(0, RatFn.one(F3)), (1, RatFn.one(F3))])
    assert FFDiff(two_terms).render() == "((1) + (1)*y) * dx"
