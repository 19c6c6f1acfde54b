"""``reduce_over_roots`` against the Euclid route it replaced in the builders.

The kernel reduces num / (x^e den) for a monic den whose distinct nonzero
roots are given, by synthetic division at those roots only.  The oracle
is ``RatFn(num, x^e den)``, which reduces by ``poly_gcd`` and long
division.  ``hypothesis`` draws the cases over F_7, F_9 and F_25: a
numerator built as c x^k prod (x - rho)^j times a cofactor, where the
x-order k and each multiplicity j fall below, at and above the
denominator's e and m, a cofactor with roots outside the denominator, a
zero numerator and a constant numerator c != 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, reduce_over_roots

FIELDS = {"F7": FieldSpec(7), "F9": FieldSpec(3, [1, 0, 1]), "F25": FieldSpec(5, [2, 0, 1])}


@st.composite
def cases(draw, spec):
    """(num, e, den, roots) with den = prod (x - rho)^m over the roots."""
    q = spec.q
    rhos = draw(st.lists(st.integers(1, q - 1), unique=True, max_size=3))
    roots = [(r, draw(st.integers(1, 3))) for r in rhos]
    e = draw(st.integers(0, 3))
    c = draw(st.integers(1, q - 1))
    num = Poly.monomial(spec, draw(st.integers(0, e + 2)), spec.from_encoding(c))
    for r, m in roots:
        num = num * Poly.from_roots(spec, [(spec.from_encoding(r), draw(st.integers(0, m + 1)))])
    cofactor = draw(st.lists(st.integers(0, q - 1), max_size=4))
    num = num * Poly.from_encodings(spec, cofactor + [draw(st.integers(1, q - 1))])
    if draw(st.booleans()):
        num = num * Poly.from_roots(spec, [(spec.from_encoding(draw(st.integers(1, q - 1))), 1)])
    den = Poly.from_roots(spec, [(spec.from_encoding(r), m) for r, m in roots])
    return num, e, den, roots


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60)
@given(data=st.data())
def test_the_kernel_matches_the_euclid_route(name, data):
    spec = FIELDS[name]
    num, e, den, roots = data.draw(cases(spec))
    got = reduce_over_roots(num, e, den, roots)
    want = RatFn(num, den.shift(e))
    assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_kernel_edge_cases(name):
    spec = FIELDS[name]
    top = spec.from_encoding(spec.exp[spec.q - 2])  # g^(q-2), not 1
    rho = spec.from_encoding(spec.p - 1)  # -1
    den = Poly.from_roots(spec, [(rho, 2)])
    roots = [(rho.encoding, 2)]
    for num, e in (
        (Poly.zero(spec), 3),  # a zero numerator is 0/1
        (Poly.constant(top), 2),  # a non-monic constant: nothing cancels, den kept
        (Poly.monomial(spec, 5, top), 2),  # the x-order above e
        (Poly.monomial(spec, 1, top), 4),  # the x-order below e
        (Poly.from_roots(spec, [(rho, 3)]) * top, 0),  # the multiplicity above m
        (Poly.from_roots(spec, [(rho, 1), (spec.one(), 1)]), 1),  # below m, with a root outside den
    ):
        got = reduce_over_roots(num, e, den, roots)
        want = RatFn(num, den.shift(e))
        assert (got.num, got.den) == (want.num, want.den), (num, e)
