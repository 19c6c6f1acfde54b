import random

import pytest

from cycliccover.gf import FieldSpec
from cycliccover.polyrat import NEG_INFINITY, Poly, RatFn, fraction_residue, poly_gcd, split_at_degree

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, [1, 0, 1])
F25 = FieldSpec(5, [2, 0, 1])


def P(spec, *ints):
    return Poly.from_ints(spec, ints)


def test_poly_core_examples():
    assert P(F5, 4, 0, 1) * P(F5, 1, 0, 1) == P(F5, 4, 0, 0, 0, 1)
    assert poly_gcd(P(F7, -1, 0, 1), P(F7, -1, 1)) == P(F7, -1, 1)
    q, r = divmod(P(F5, 0, 0, 0, 1), P(F5, 0, 1))
    assert q == P(F5, 0, 0, 1) and r.is_zero
    with pytest.raises(ZeroDivisionError):
        divmod(P(F5, 1), Poly.zero(F5))


def test_mismatched_fields_raise():
    a, b = P(F5, 1, 1), P(F7, 1, 1)
    monomial = P(F5, 0, 1)  # poly_gcd has a closed form for it, which checks the fields too
    ops = (lambda: a + b, lambda: a - b, lambda: a * b, lambda: divmod(a, b), lambda: poly_gcd(a, b),
           lambda: poly_gcd(monomial, b), lambda: poly_gcd(b, monomial))
    for op in ops:
        with pytest.raises(ValueError, match="mismatched"):
            op()


def test_zero_polynomial_degree_sentinel():
    assert Poly.zero(F5).degree == NEG_INFINITY
    assert Poly.zero(F5).degree < 0
    assert P(F5, 3).degree == 0


def test_derivative_examples():
    assert P(F5, 4, 0, 0, 0, 1).derivative() == P(F5, 0, 0, 0, 4)
    assert P(F3, 0, 1, 0, 1).derivative() == P(F3, 1)  # 3x^2 collapses
    assert P(F5, 2).derivative().is_zero


def test_split_examples():
    lo, hi = split_at_degree(P(F5, 2, 0, 0, 0, 2), 2, inclusive=True)
    assert lo == P(F5, 2) and hi == P(F5, 0, 0, 0, 0, 2)
    lo, hi = split_at_degree(P(F5, 1, 2, 0, 1), 1, inclusive=True)
    assert lo == P(F5, 1, 2) and hi == P(F5, 0, 0, 0, 1)
    h = P(F5, 1, 2, 3)
    lo, hi = split_at_degree(h, int(h.degree), inclusive=True)
    assert lo == h and hi.is_zero


def test_split_strict_variant():
    h = P(F3, 1, 1, 1, 1)
    lo, hi = split_at_degree(h, 2, inclusive=False)
    assert lo == P(F3, 1, 1) and hi == P(F3, 0, 0, 1, 1)


def test_split_property_random():
    rng = random.Random(1)
    for _ in range(200):
        spec = rng.choice([F5, F9])
        h = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(9))])
        m = rng.randrange(8)
        inclusive = rng.random() < 0.5
        lo, hi = split_at_degree(h, m, inclusive)
        assert lo + hi == h
        cut = m if inclusive else m - 1
        assert lo.is_zero or lo.degree <= cut
        for k, c in enumerate(hi.coeffs):
            if not c.is_zero:
                assert k > cut


def test_residue_examples():
    for k in range(4):
        assert fraction_residue(Poly.monomial(F5, k), Poly.one(F5)) == 0
    assert fraction_residue(Poly.one(F5), Poly.x(F5)) == (-F5.one()).encoding
    assert fraction_residue(P(F5, 0, 0, 0, 4), P(F5, 4, 0, 0, 0, 1)) == F5.one().encoding
    assert fraction_residue(Poly.zero(F5), Poly.one(F5)) == 0


def _rand_poly(spec, rng, max_len=8, nonzero=False):
    while True:
        p = Poly(spec, [spec.from_encoding(rng.randrange(spec.q)) for _ in range(rng.randrange(max_len))])
        if not nonzero or not p.is_zero:
            return p


def _residue_by_series(h: RatFn):
    """Independent oracle: substitute x = 1/u and expand num/den as a
    power series in u by coefficient recursion, then read the u-coefficient
    matching x^{-1}."""
    spec = h.spec
    if h.is_zero:
        return spec.zero()
    dn, dd = int(h.num.degree), int(h.den.degree)
    rev_num = list(reversed(h.num.coeffs))
    rev_den = list(reversed(h.den.coeffs))
    # series s with rev_num = rev_den * s, computed far enough to reach u^1
    # of u^{dd-dn} * s, i.e. index 1 - (dd - dn)
    target = 1 - (dd - dn)
    if target < 0:
        return spec.zero()
    s = []
    lead_inv = rev_den[0].inverse()
    for k in range(target + 1):
        acc = rev_num[k] if k < len(rev_num) else spec.zero()
        for j in range(1, min(k, len(rev_den) - 1) + 1):
            acc = acc - rev_den[j] * s[k - j]
        s.append(acc * lead_inv)
    return -s[target]


def test_residue_against_series_oracle():
    rng = random.Random(3)
    for spec in (F5, F7, F9):
        for _ in range(150):
            num = _rand_poly(spec, rng)
            den = _rand_poly(spec, rng, nonzero=True)
            h = RatFn(num, den)
            assert fraction_residue(h.num, h.den) == _residue_by_series(h).encoding


def test_residue_of_exact_differentials_vanishes():
    rng = random.Random(4)
    for spec in (F3, F5, F7, F9, F25):
        for _ in range(50):
            g = _rand_poly(spec, rng)
            assert fraction_residue(g.derivative(), Poly.one(spec)) == 0


def test_residue_of_dlog_is_minus_degree():
    rng = random.Random(5)
    for spec in (F3, F5, F7, F9, F25):
        for _ in range(50):
            g = _rand_poly(spec, rng, nonzero=True)
            h = RatFn(g.derivative(), g)
            assert fraction_residue(h.num, h.den) == spec.element(-int(g.degree)).encoding


def test_residue_linearity():
    rng = random.Random(6)
    for _ in range(100):
        h1 = RatFn(_rand_poly(F7, rng), _rand_poly(F7, rng, nonzero=True))
        h2 = RatFn(_rand_poly(F7, rng), _rand_poly(F7, rng, nonzero=True))
        a, b = F7.from_encoding(rng.randrange(7)), F7.from_encoding(rng.randrange(7))
        h = h1 * a + h2 * b
        r1, r2 = (F7.from_encoding(fraction_residue(g.num, g.den)) for g in (h1, h2))
        assert fraction_residue(h.num, h.den) == (r1 * a + r2 * b).encoding


def test_ratfn_canonical_form():
    a = RatFn(P(F5, 2, 2), P(F5, 2, 0, 2))  # (2x+2)/(2x^2+2) = 1/(x+4)... reduced monic
    assert a.den.leading == F5.one()
    assert poly_gcd(a.num, a.den).degree == 0
    zero = RatFn(Poly.zero(F5), P(F5, 3, 1))
    assert zero.is_zero and zero.den == Poly.one(F5)


def test_ratfn_without_denominator_takes_no_gcd_and_zero_products_keep_the_operand(monkeypatch):
    from cycliccover import polyrat

    def refused(a, b):
        raise AssertionError("no gcd expected")

    monkeypatch.setattr(polyrat, "poly_gcd", refused)
    a = RatFn(P(F5, 2, 0, 3))
    assert (a.num, a.den) == (P(F5, 2, 0, 3), Poly.one(F5))
    assert RatFn.one(F5).den == Poly.one(F5) and RatFn(Poly.zero(F5)).is_zero
    zero = RatFn.zero(F5)
    assert a * zero is zero and zero * a is zero and zero.den == Poly.one(F5)


def test_ratfn_field_ops_random():
    rng = random.Random(7)
    for _ in range(60):
        a = RatFn(_rand_poly(F7, rng), _rand_poly(F7, rng, nonzero=True))
        b = RatFn(_rand_poly(F7, rng), _rand_poly(F7, rng, nonzero=True))
        c = RatFn(_rand_poly(F7, rng), _rand_poly(F7, rng, nonzero=True))
        assert a * (b + c) == a * b + a * c
        if not b.is_zero:
            assert (a / b) * b == a
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_rendering():
    assert P(F5, 4, 0, 0, 0, 1).render() == "4 + x^4"
    assert RatFn(Poly.one(F5), P(F5, 4, 0, 0, 0, 1)).render() == "1/(4 + x^4)"
    assert RatFn(Poly.one(F5), Poly.x(F5)).render() == "1/x"
    assert RatFn(P(F5, 0, 2), P(F5, 0, 0, 1)).render() == "2/x"
    assert Poly.zero(F5).render() == "0"
