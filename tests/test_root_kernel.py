"""``reduce_over_roots`` against the Euclid route it replaced in the builders.

The kernel reduces num / (x^shift den) for a monic den whose distinct
roots are given, x = x - 0 among them, by the x-order of num and by
synthetic division at the other roots only.  The oracle is
``RatFn(num, x^shift den)``, which reduces by ``poly_gcd`` and long
division.  Every result also records the factors of its den, x included,
and they multiply out to its den.  ``hypothesis`` draws the cases over
F_7, F_9 and F_25: a numerator built as c x^k prod (x - rho)^j times a
cofactor, where the roots may include 0, the shift may be nonzero, and
the x-order and each multiplicity j fall below, at and above the
denominator's shift plus the exponent of 0 and its m, a cofactor with
roots outside the denominator, a zero numerator and a constant
numerator c != 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, reduce_over_roots

FIELDS = {"F7": FieldSpec(7), "F9": FieldSpec(3, [1, 0, 1]), "F25": FieldSpec(5, [2, 0, 1])}


@st.composite
def cases(draw, spec):
    """(num, shift, den, roots) with den = prod (x - rho)^m over the roots."""
    q = spec.q
    rhos = draw(st.lists(st.integers(0, q - 1), unique=True, max_size=3))
    roots = [(r, draw(st.integers(1, 3))) for r in rhos]
    shift = draw(st.integers(0, 3))
    c = draw(st.integers(1, q - 1))
    num = Poly.monomial(spec, draw(st.integers(0, shift + 2)), spec.from_encoding(c))
    for r, m in roots:
        num = num * Poly.from_roots(spec, [(spec.from_encoding(r), draw(st.integers(0, m + 1)))])
    cofactor = draw(st.lists(st.integers(0, q - 1), max_size=4))
    num = num * Poly.from_encodings(spec, cofactor + [draw(st.integers(1, q - 1))])
    if draw(st.booleans()):
        num = num * Poly.from_roots(spec, [(spec.from_encoding(draw(st.integers(1, q - 1))), 1)])
    den = Poly.from_roots(spec, [(spec.from_encoding(r), m) for r, m in roots])
    return num, shift, den, roots


def _check(spec, num, shift, den, roots):
    """The kernel's result equals the Euclid route's, and its record
    multiplies out to its den."""
    got = reduce_over_roots(num, shift, den, roots)
    want = RatFn(num, den.shift(shift))
    assert (got.num, got.den) == (want.num, want.den), (num, shift, roots)
    if num.is_zero:
        assert got.den_roots is None
        return
    rhos = [r for r, _ in got.den_roots]
    assert len(set(rhos)) == len(rhos) and all(m > 0 for _, m in got.den_roots), got.den_roots
    assert Poly.from_roots(spec, [(spec.from_encoding(r), m) for r, m in got.den_roots]) == got.den, got.den_roots


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=60)
@given(data=st.data())
def test_the_kernel_matches_the_euclid_route(name, data):
    spec = FIELDS[name]
    _check(spec, *data.draw(cases(spec)))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_kernel_edge_cases(name):
    spec = FIELDS[name]
    top = spec.from_encoding(spec.exp[spec.q - 2])  # g^(q-2), not 1
    rho = spec.from_encoding(spec.p - 1)  # -1
    den = Poly.from_roots(spec, [(rho, 2)])
    roots = [(rho.encoding, 2)]
    for num, shift in (
        (Poly.zero(spec), 3),  # a zero numerator is 0/1
        (Poly.monomial(spec, 0, top), 2),  # a non-monic constant: nothing cancels, den kept
        (Poly.monomial(spec, 5, top), 2),  # the x-order above the shift
        (Poly.monomial(spec, 1, top), 4),  # the x-order below the shift
        (Poly.from_roots(spec, [(rho, 3)]) * top, 0),  # the multiplicity above m
        (Poly.from_roots(spec, [(rho, 1), (spec.one(), 1)]), 1),  # below m, with a root outside den
    ):
        _check(spec, num, shift, den, roots)
    x2 = Poly.monomial(spec, 2)
    with_x = Poly.from_roots(spec, [(spec.zero(), 1), (rho, 2)])
    x_rho = [(0, 1), (rho.encoding, 2)]
    for num, shift, den, roots in (
        (Poly.monomial(spec, 1, top), 1, x2, [(0, 2)]),  # only the root 0
        (Poly.monomial(spec, 3, top), 1, x2, [(0, 2)]),  # the root 0 cancelled in full
        (Poly.monomial(spec, 1, top), 0, x2, [(0, 2)]),  # part of den's x-order cancelled, no shift
        (Poly.monomial(spec, 5, top), 1, with_x, x_rho),  # the x-order above shift + m_0
        (Poly.from_roots(spec, [(spec.zero(), 1), (rho, 1)]), 2, with_x, x_rho),  # x and rho both cancel
        (Poly.from_roots(spec, [(rho, 2)]) * top, 0, with_x, x_rho),  # rho cancels in full, x stays
    ):
        _check(spec, num, shift, den, roots)
