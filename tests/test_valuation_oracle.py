"""Newton-polygon oracle for ``funcfield.valuations`` and ``valuation_bound``.

For h in F, the characteristic polynomial prod_j (T - sigma^j h) over the
Galois orbit has its coefficients c_k (of T^(deg-k)) in F_q(x).  At a
point P of a place class with ramification index e, the roots sigma^j h
take the values of h at the points of the class, so the least root
valuation, min_P v_P(h), is min_k e * ord(c_k) / k, the first slope of
the Newton polygon (Neukirch, Algebraic Number Theory, II.6).

The orders of the c_k come from this module's own loop: repeated
synthetic division by x - rho on the coefficient list, or the degree
difference at infinity.  Nothing here calls ``Poly.multiplicity_at``
or reuses the monomial minimum of ``valuations``; the local data
(e, v(y), v(dx)) is written from the curve data.  ``valuations`` keeps an
element's tuple on the element, so the tuple is also compared with a
fresh walk over a copy.  The Galois action is the ``reference`` route.

The elements are seeded sums of two or three y-monomials whose
coefficients are built so the monomial scores tie at a class (each class
of each curve in turn): the case where cancellation between monomials
could, but never does, lift the valuation of every point of the class.
"""

import math
import random
from fractions import Fraction

import pytest
from reference import dense, galois, scale

from cycliccover.curve import ASCurve, KummerCurve, place_classes
from cycliccover.funcfield import FFDiff, FFElem, valuation_bound, valuations
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn

F3, F5, F7 = FieldSpec(3), FieldSpec(5), FieldSpec(7)
F9 = FieldSpec(3, [1, 0, 1])  # z^2 + 1
Z9 = F9.element([0, 1])

CURVES = {
    # y^4 = (x-1)^2 (x-3) (x-4): the class over x = 1 has e = 2 and g = 2 points
    "kummer_n4_F5": KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(3), 1), (F5.element(4), 1)]),
    # y^3 = x (x-1) (x-3): branched over 0, so there is no unbranched fiber over 0
    "kummer_n3_F7": KummerCurve(F7, 3, [(F7.zero(), 1), (F7.element(1), 1), (F7.element(3), 1)]),
    # y^4 = (x-1) (x-z)^3 over F_9
    "kummer_n4_F9": KummerCurve(F9, 4, [(F9.one(), 1), (Z9, 3)]),
    # y^3 - y = (x^2 + 1) / ((x-1) (x-2))
    "as_p3": ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(1), 1), (F3.element(2), 1)]),
    # y^5 - y = (x^2 + 2) / ((x-1) (x-2))
    "as_p5": ASCurve(F5, Poly.from_ints(F5, [2, 0, 1]), [(F5.element(1), 1), (F5.element(2), 1)]),
}
PER_CURVE = 32


def _local_data(curve, place) -> tuple[int, int, int]:
    """(e, v(y), v(dx)) at the class, from the curve's defining data."""
    if place.kind == "branch":
        l = curve.branch[place.position][1]
        if isinstance(curve, KummerCurve):
            d = math.gcd(curve.n, l)
            return curve.n // d, l // d, curve.n // d - 1
        return curve.p, -l, (curve.p - 1) * (l + 1)
    if place.kind == "over_zero":
        return 1, 0, 0
    return 1, (-curve.l // curve.n if isinstance(curve, KummerCurve) else 0), -2


def _poly_order(poly: Poly, rho) -> int:
    """The order of x - rho in a nonzero polynomial, by synthetic division."""
    coeffs = list(poly.coeffs)
    order = 0
    while True:
        acc, out = rho.spec.zero(), []
        for c in reversed(coeffs):  # Horner: the quotient from the top, then the remainder
            acc = acc * rho + c
            out.append(acc)
        if not out.pop().is_zero:
            return order
        coeffs = out[::-1]
        order += 1


def _order(a: RatFn, place) -> int:
    """The x-adic order of a nonzero rational function at the class's base point."""
    if place.kind == "over_infinity":
        return (len(a.den.coeffs) - 1) - (len(a.num.coeffs) - 1)
    return _poly_order(a.num, place.rho) - _poly_order(a.den, place.rho)


def _char_poly(h: FFElem) -> list[RatFn]:
    """c_0 = 1, c_1, ..., c_deg with prod_j (T - sigma^j h) = sum_k c_k T^(deg-k)."""
    cs = [FFElem.one(h.curve)]
    for j in range(h.curve.degree):
        root = galois(h, j)
        cs = [
            FFElem(h.curve, (cs[k].terms if k < len(cs) else ()) + ((-(root * cs[k - 1])).terms if k else ()))
            for k in range(len(cs) + 1)
        ]
    assert all(a.is_zero for c in cs for a in dense(c)[1:]), "the coefficients lie in F_q(x)"
    return [dense(c)[0] for c in cs]


def newton_valuation(cs: list[RatFn], e: int, place) -> tuple[int, int]:
    """min_P v_P(h) over the class, from the first slope of the Newton
    polygon of h's characteristic polynomial, and how many of its roots
    have that valuation (the end of the first segment)."""
    scaled = {k: e * _order(c, place) for k, c in enumerate(cs) if k and not c.is_zero}
    slope = min(Fraction(v, k) for k, v in scaled.items())
    assert slope.denominator == 1
    return int(slope), max(k for k, v in scaled.items() if v == k * slope)


def _tied(h: FFElem, place) -> bool:
    """Whether two or more y-monomials share the least score at the class."""
    e, v_y, _ = _local_data(h.curve, place)
    scores = [e * _order(a, place) + j * v_y for j, a in enumerate(dense(h)) if not a.is_zero]
    return scores.count(min(scores)) > 1


def _unit_poly(spec, rng, place, degree) -> Poly:
    """A random polynomial with no root at the class's base point (of exact
    degree ``degree`` when the class lies over infinity)."""
    while True:
        cs = [spec.from_encoding(rng.randrange(spec.q)) for _ in range(degree)]
        cs.append(spec.from_encoding(rng.randrange(1, spec.q)))
        poly = Poly(spec, cs)
        if place.kind == "over_infinity" or not poly.evaluate(place.rho).is_zero:
            return poly


def _coefficient(spec, rng, place, order: int) -> RatFn:
    """A random rational function of x-adic order ``order`` at the class."""
    degree = rng.randrange(2)  # num and den of one degree: a unit over infinity too
    num, den = _unit_poly(spec, rng, place, degree), _unit_poly(spec, rng, place, degree)
    if place.kind == "over_infinity":
        extra = Poly.from_roots(spec, [(spec.one(), abs(order))])
        return RatFn(num, den * extra) if order > 0 else RatFn(num * extra, den)
    power = Poly.from_roots(spec, [(place.rho, abs(order))])
    return RatFn(num * power, den) if order >= 0 else RatFn(num, den * power)


def _tied_element(curve, place, rng) -> FFElem:
    """Two or three monomials with equal scores at the class, plus at
    times one monomial of random order."""
    e, v_y, _ = _local_data(curve, place)
    j0 = rng.randrange(curve.degree)
    js = [j for j in range(j0 % e, curve.degree, e)]
    if len(js) < 2:
        js = [j0, (j0 + 1) % curve.degree]  # a branch class of one point: no tie to build
    js = sorted(rng.sample(js, min(len(js), rng.choice((2, 3)))))
    base = rng.randrange(-2, 3)
    coeffs = [RatFn.zero(curve.spec)] * curve.degree
    for j in js:
        coeffs[j] = _coefficient(curve.spec, rng, place, base - ((j - js[0]) // e) * v_y)
    free = [j for j in range(curve.degree) if j not in js]
    if free and rng.random() < 0.3:
        coeffs[rng.choice(free)] = _coefficient(curve.spec, rng, place, rng.randrange(-2, 3))
    return FFElem(curve, enumerate(coeffs))


_RNG = random.Random(20261018)
ELEMENTS = [
    _tied_element(curve, place_classes(curve)[i % len(place_classes(curve))], _RNG)
    for curve in (CURVES[name] for name in sorted(CURVES))
    for i in range(PER_CURVE)
]


def test_valuation_bound_is_the_newton_polygon_valuation():
    # elements with a tie at some class, and those where the points of a
    # tied class see different valuations; tied classes of two points
    tied, uneven, tied_at_two_points = 0, 0, 0
    for h in ELEMENTS:
        cs = _char_poly(h)
        any_tie = any_uneven = False
        walk = zip(place_classes(h.curve), valuations(h), valuations(FFDiff(h)), strict=True)
        for place, walked, walked_dx in walk:
            e, _, v_dx = _local_data(h.curve, place)
            expected, attained = newton_valuation(cs, e, place)
            assert walked == valuation_bound(h, place) == expected, (h.render(), place.label)
            assert walked_dx == valuation_bound(FFDiff(h), place) == expected + v_dx
            if _tied(h, place):
                any_tie = True
                any_uneven |= attained < h.curve.degree
                tied_at_two_points += place.kind == "branch" and place.npoints == 2
        tied += any_tie
        uneven += any_uneven
    assert len(ELEMENTS) >= 150
    assert tied >= 50
    assert uneven >= 10
    assert tied_at_two_points >= 5


def test_the_oracle_separates_the_points_of_a_class():
    # On y^4 = (x-1)^2 (x-3) (x-4), u = y^2/(x-1) has u^2 - 1 = (x-1)^2, so
    # (u - 1)/(x-1) has valuation 2 at the point u = 1 and -2 at u = -1:
    # two of the four conjugates have the least valuation
    curve = CURVES["kummer_n4_F5"]
    inv_lin = RatFn(Poly.one(F5), Poly.from_ints(F5, [-1, 1]))
    h = scale(FFElem(curve, [(2, inv_lin), (0, -RatFn.one(F5))]), inv_lin)  # (u - 1)/(x - 1)
    place = place_classes(curve)[0]
    assert newton_valuation(_char_poly(h), 2, place) == (-2, 2)
    assert valuation_bound(h, place) == -2


def test_the_kept_tuple_is_a_fresh_walk_and_zero_has_none():
    for h in ELEMENTS:
        kept = valuations(h)
        assert valuations(h) is kept  # read back, not walked again
        copy = FFElem(h.curve, h.terms)
        assert copy._valuations is None and valuations(copy) == kept
    for curve in CURVES.values():
        for obj in (FFElem.zero(curve), FFDiff(FFElem.zero(curve))):
            with pytest.raises(ValueError, match="valuation of the zero element is undefined"):
                valuations(obj)
            with pytest.raises(ValueError, match="valuation of the zero element is undefined"):
                valuation_bound(obj, place_classes(curve)[0])
