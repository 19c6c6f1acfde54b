"""``hypothesis`` properties of the function field on covers the worked
examples do not reach: Kummer covers of degree n >= 3 over F_4, F_9 and
F_25, where the primitive n-th root of unity is not -1 and lies outside
the prime field (and over F_25, 1/n is not 1), and an Artin-Schreier
cover over F_9.

For random elements a, b of F = F_q(x)[y]: each power of the generator is
a ring automorphism fixing F_q(x), the powers compose, the coefficient
trace equals the sum over the Galois orbit, and ``exterior_d`` obeys the
Leibniz rule.  On each curve, the generator has order exactly deg, and
y^deg satisfies the defining relation, written here from the curve data
alone.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycliccover.curve import ASCurve, KummerCurve, validate
from cycliccover.funcfield import FFDiff, FFElem
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn

F4 = FieldSpec(2, [1, 1, 1])  # z^2 + z + 1
F9 = FieldSpec(3, [1, 0, 1])  # z^2 + 1
F25 = FieldSpec(5, [2, 0, 1])  # z^2 + 2
Z4, Z9, Z25 = F4.element([0, 1]), F9.element([0, 1]), F25.element([0, 1])

CURVES = {
    # y^3 = x (x - 1) (x - z): zeta_3 = z or z + 1 has no Z/2 form
    "kummer_n3_F4": KummerCurve(F4, 3, [(F4.zero(), 1), (F4.one(), 1), (Z4, 1)]),
    # y^4 = (x - 1) (x - z)^3: zeta_4 = z, with zeta_4^2 = -1
    "kummer_n4_F9": KummerCurve(F9, 4, [(F9.one(), 1), (Z9, 3)]),
    # y^3 = (x - 1) (x - z)^2: zeta_3 = z + 2, and 1/3 = 2
    "kummer_n3_F25": KummerCurve(F25, 3, [(F25.one(), 1), (Z25, 2)]),
    # y^3 - y = (x^2 + z) / ((x - 1) (x - z))
    "as_p3_F9": ASCurve(F9, Poly(F9, [Z9, F9.zero(), F9.one()]), [(F9.one(), 1), (Z9, 1)]),
}
IDS = sorted(CURVES)


def ratfns(spec):
    codes = st.integers(0, spec.q - 1)
    return st.builds(
        lambda num, den, lead: RatFn(
            Poly(spec, [spec.from_encoding(c) for c in num]),
            Poly(spec, [spec.from_encoding(c) for c in den + [lead]]),
        ),
        st.lists(codes, max_size=3),
        st.lists(codes, max_size=1),
        st.integers(1, spec.q - 1),
    )


def elements(curve):
    return st.lists(ratfns(curve.spec), min_size=curve.degree, max_size=curve.degree).map(
        lambda coeffs: FFElem(curve, coeffs)
    )


def test_the_curves_are_valid():
    assert all(validate(curve) == [] for curve in CURVES.values())


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_galois_is_a_ring_automorphism_fixing_the_base(name, data):
    curve = CURVES[name]
    a, b = data.draw(elements(curve)), data.draw(elements(curve))
    c = data.draw(ratfns(curve.spec))
    j = data.draw(st.integers(1, curve.degree - 1))
    assert (a * b).galois(j) == a.galois(j) * b.galois(j)
    assert (a + b).galois(j) == a.galois(j) + b.galois(j)
    assert FFElem.from_ratfn(curve, c).galois(j) == FFElem.from_ratfn(curve, c)


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_generator_powers_compose(name, data):
    curve = CURVES[name]
    a = data.draw(elements(curve))
    image = a
    for j in range(1, curve.degree):
        image = image.galois(1)
        assert image == a.galois(j)
    assert image.galois(1) == a


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_trace_equals_the_orbit_sum(name, data):
    a = data.draw(elements(CURVES[name]))
    assert a.trace() == a.trace_by_orbit()


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_exterior_d_obeys_leibniz(name, data):
    curve = CURVES[name]
    a, b = data.draw(elements(curve)), data.draw(elements(curve))
    lhs = (a * b).exterior_d()
    rhs = FFDiff(a * b.exterior_d().coeff) + FFDiff(b * a.exterior_d().coeff)
    assert lhs == rhs


@pytest.mark.parametrize("name", IDS)
def test_the_generator_has_order_deg(name):
    curve = CURVES[name]
    y = FFElem.y(curve)
    assert all(y.galois(j) != y for j in range(1, curve.degree))


@pytest.mark.parametrize("name", IDS)
def test_y_to_the_degree_satisfies_the_relation(name):
    curve = CURVES[name]
    y = FFElem.y(curve)
    if isinstance(curve, KummerCurve):
        expected = FFElem.from_ratfn(curve, RatFn.from_poly(curve.f))  # y^n = f
    else:
        expected = y + FFElem.from_ratfn(curve, curve.r_fn)  # y^p = y + r
    assert y**curve.degree == expected
