"""Polynomial and rational-function arithmetic against oracles that share no
code with ``polyrat``.

* Prime fields (p = 2, 3, 5, 31): products, long division, gcds,
  derivatives, evaluation, root multiplicities and products of linear
  factors (``from_roots``) against
  ``sympy.polys.galoistools`` on seeded random polynomials.
* Extension fields (q = 4, 9, 25, 49): brute force over polynomials of
  degree <= 2.  Field arithmetic comes from addition and multiplication
  tables built here from Z/p[z] mod m(z); the gcd is the monic common
  divisor of largest degree, found from the roots in F_q (a polynomial of
  degree <= 2 has no other monic divisors than 1, its monic form and the
  x - rho of its roots).  Over F_4 every pair is checked.  Larger fields
  have q^6 pairs, so there every pair whose coefficients lie in
  {0, 1, z, the largest encoding} is checked, plus seeded random pairs.
* Gcds with a monomial operand c x^k and the order at x = 0, which
  ``polyrat`` computes in closed form, against galoistools, a search over
  every monic polynomial of low degree, and repeated division by x.
* Division by a monomial c x^k, where the elimination has no lower
  divisor term to subtract, against galoistools over prime fields and, over F_4 and F_9,
  against the defining identity a = q * c x^k + r with deg r < k in table
  arithmetic (division with remainder is unique).
* ``hypothesis``: the field axioms of ``RatFn`` and its canonical form
  (monic denominator, gcd 1, zero is 0/1), checked with the table gcd.
* Products by Kronecker substitution, over F_2, F_3, F_31, F_65521, F_4,
  F_8, F_9, F_27, F_81 and F_961, against two oracles: galoistools (one
  product over Z/p of the operands written in z, with x = z^(2d-1), then
  each coefficient reduced modulo m(z)) and a schoolbook product whose
  coefficient arithmetic is galoistools' over Z/p[z] mod m(z).  Zero and
  constant operands, operands on both sides of the crossover, degrees of
  64 and more, and coefficients whose every digit is p - 1 (the largest
  slot values) are covered.

Polynomials cross the boundary as ascending lists of field encodings.
"""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_diff, gf_div, gf_eval, gf_gcd, gf_mul, gf_rem

from cycliccover import polyrat
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, poly_gcd

EXTENSIONS = {4: (2, [1, 1, 1]), 9: (3, [1, 0, 1]), 25: (5, [2, 0, 1]), 49: (7, [1, 0, 1])}


def _ints(poly):
    return [c.encoding for c in poly.coeffs]


def _trim(ks):
    while ks and not ks[-1]:
        ks.pop()
    return ks


def _poly(spec, ks):
    return Poly(spec, [spec.from_encoding(k) for k in ks])


# -- prime fields against galoistools (descending coefficient lists) ---------------


def _desc(ks):
    return list(reversed(ks))


def _asc(f):
    return list(reversed(f))


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_prime_field_polynomials_match_galoistools(p):
    spec = FieldSpec(p)
    rng = random.Random(p)

    for _ in range(150):
        a, b = (_trim([rng.randrange(p) for _ in range(rng.randrange(12))]) for _ in range(2))
        A, B = _poly(spec, a), _poly(spec, b)
        assert _ints(A * B) == _asc(gf_mul(_desc(a), _desc(b), p, ZZ)), (a, b)
        assert _ints(poly_gcd(A, B)) == _asc(gf_gcd(_desc(a), _desc(b), p, ZZ)), (a, b)
        assert _ints(A.derivative()) == _asc(gf_diff(_desc(a), p, ZZ)), a
        if b:
            q, r = gf_div(_desc(a), _desc(b), p, ZZ)
            Q, R = divmod(A, B)
            assert (_ints(Q), _ints(R)) == (_asc(q), _asc(r)), (a, b)
        rho = rng.randrange(p)
        assert A.evaluate(spec.element(rho)).encoding == gf_eval(_desc(a), rho, p, ZZ), (a, rho)
        if a:
            m, f = 0, _desc(a)
            while True:
                q, r = gf_div(f, [1, -rho % p], p, ZZ)
                if r:
                    break
                m, f = m + 1, q
            assert A.multiplicity_at(spec.element(rho)) == m, (a, rho)


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_from_roots_matches_galoistools(p):
    spec = FieldSpec(p)
    rng = random.Random(100 + p)
    for _ in range(40):
        roots = [(rng.randrange(p), rng.randrange(4)) for _ in range(rng.randrange(5))]
        f = [1]
        for rho, m in roots:
            for _ in range(m):
                f = gf_mul(f, [1, -rho % p], p, ZZ)
        got = Poly.from_roots(spec, [(spec.element(rho), m) for rho, m in roots])
        assert _ints(got) == _asc(f), roots


def test_prime_field_repeated_roots_match_galoistools():
    # random polynomials rarely have repeated roots; build them as products
    spec = FieldSpec(5)
    rng = random.Random(55)
    for _ in range(60):
        f = [1]
        for _ in range(rng.randrange(1, 7)):
            f = gf_mul(f, [1, -rng.randrange(3) % 5], 5, ZZ)
        F = _poly(spec, _asc(f))
        for rho in range(5):
            m, g = 0, f
            while not gf_div(g, [1, -rho % 5], 5, ZZ)[1]:
                m, g = m + 1, gf_div(g, [1, -rho % 5], 5, ZZ)[0]
            assert F.multiplicity_at(spec.element(rho)) == m, (f, rho)
        g = gf_mul(f, [1, -rng.randrange(5) % 5], 5, ZZ)
        assert _ints(poly_gcd(F, _poly(spec, _asc(g)))) == _asc(gf_gcd(f, g, 5, ZZ))


# -- F_q by tables, built from Z/p[z] mod m(z) -------------------------------------


class TableField:
    """F_q with every operation a lookup in tables built from Z/p[z] mod m."""

    def __init__(self, p, modulus=None):
        m = modulus or [0, 1]
        self.p, self.d = p, len(m) - 1
        self.q = p**self.d
        digits = [[k // p**i % p for i in range(self.d)] for k in range(self.q)]

        def encode(cs):
            return sum(c * p**i for i, c in enumerate(cs))

        def mul(a, b):
            prod = [0] * (2 * self.d - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    prod[i + j] += x * y
            for k in range(len(prod) - 1, self.d - 1, -1):  # z^d = -(m_0 + ... + m_{d-1} z^{d-1})
                c, prod[k] = prod[k], 0
                for i in range(self.d):
                    prod[k - self.d + i] -= c * m[i]
            return encode(c % p for c in prod[: self.d])

        r = range(self.q)
        self.add = [[encode((x + y) % p for x, y in zip(digits[a], digits[b])) for b in r] for a in r]
        self.mul = [[mul(a, b) for b in r] for a in r]
        self.neg = [encode(-x % p for x in digits[a]) for a in r]
        self.inv = {a: b for a in r for b in r if self.mul[a][b] == 1}

    def padd(self, a, b):
        n = max(len(a), len(b))
        return _trim([self.add[x][y] for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))])

    def pneg(self, a):
        return [self.neg[x] for x in a]

    def pmul(self, a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add[out[i + j]][self.mul[x][y]]
        return _trim(out)

    def pdivmod(self, a, b):
        rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
        inv = self.inv[b[-1]]
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = self.mul[rem[k + len(b) - 1]][inv]
            for i, y in enumerate(b):
                rem[k + i] = self.add[rem[k + i]][self.neg[self.mul[c][y]]]
        return _trim(quo), _trim(rem)

    def pmonic(self, a):
        inv = self.inv[a[-1]]
        return [self.mul[c][inv] for c in a]

    def pgcd(self, a, b):
        while b:
            a, b = b, self.pdivmod(a, b)[1]
        return self.pmonic(a) if a else []

    def peval(self, a, x):
        acc = 0
        for c in reversed(a):
            acc = self.add[self.mul[acc][x]][c]
        return acc


def _monic_divisors(field, a):
    """Every monic divisor of a nonzero a of degree <= 2, by its roots."""
    out = [(1,), tuple(field.pmonic(a))]
    out += [(field.neg[rho], 1) for rho in range(field.q) if field.peval(a, rho) == 0]
    return set(out)


def _brute_gcd(field, a, b, divisors):
    if not a or not b:
        return field.pmonic(a or b) if (a or b) else []
    return list(max(divisors[tuple(a)] & divisors[tuple(b)], key=len))


def _brute_multiplicity(field, a, rho):
    m = 0
    while True:
        quo, rem = field.pdivmod(a, [field.neg[rho], 1])
        if rem:
            return m
        m, a = m + 1, quo


@pytest.mark.parametrize("q", sorted(EXTENSIONS))
def test_extension_field_polynomials_of_degree_two_by_brute_force(q):
    p, modulus = EXTENSIONS[q]
    spec, field = FieldSpec(p, modulus), TableField(p, modulus)
    coeffs = range(q) if q == 4 else (0, 1, p, q - 1)  # encoding p is z
    polys = [_trim(list(t)) for t in itertools.product(coeffs, repeat=3)]
    pairs = list(itertools.product(polys, repeat=2))
    rng = random.Random(q)
    for _ in range(0 if q == 4 else 1500):
        pairs.append(tuple(_trim([rng.randrange(q) for _ in range(rng.randrange(4))]) for _ in range(2)))
    divisors = {tuple(a): _monic_divisors(field, a) for pair in pairs for a in pair if a}
    made = {tuple(a): _poly(spec, a) for a in divisors}
    made[()] = Poly.zero(spec)
    for a, b in pairs:
        A, B = made[tuple(a)], made[tuple(b)]
        assert _ints(A * B) == field.pmul(a, b), (a, b)
        assert _ints(A + B) == field.padd(a, b) and _ints(A - B) == field.padd(a, field.pneg(b)), (a, b)
        assert _ints(poly_gcd(A, B)) == _brute_gcd(field, a, b, divisors), (a, b)
        if b:
            Q, R = divmod(A, B)
            assert [_ints(Q), _ints(R)] == list(field.pdivmod(a, b)), (a, b)
    for a in divisors:
        A = made[a]
        for rho in range(q):
            x = spec.from_encoding(rho)
            assert A.evaluate(x).encoding == field.peval(a, rho), (a, rho)
            assert A.multiplicity_at(x) == _brute_multiplicity(field, list(a), rho), (a, rho)


# -- RatFn properties ----------------------------------------------------------------------

SPECS = {spec: TableField(spec.p, spec.modulus) for spec in (FieldSpec(2), FieldSpec(5), FieldSpec(*EXTENSIONS[9]))}


@st.composite
def ratfns(draw, count):
    spec = draw(st.sampled_from(sorted(SPECS, key=lambda s: s.q)))
    out = []
    for _ in range(count):
        num = draw(st.lists(st.integers(0, spec.q - 1), max_size=4))
        den = draw(st.lists(st.integers(0, spec.q - 1), min_size=1, max_size=4).filter(any))
        out.append((num, den, RatFn(_poly(spec, num), _poly(spec, den))))
    return spec, out


def _canonical(spec, h):
    field = SPECS[spec]
    num, den = _ints(h.num), _ints(h.den)
    if not num:
        return den == [1]
    return den[-1] == 1 and field.pgcd(num, den) == [1]


@given(ratfns(3))
def test_ratfn_field_axioms_and_canonical_form(drawn):
    spec, [(num, den, a), (_, _, b), (_, _, c)] = drawn
    field = SPECS[spec]
    zero, one = RatFn.zero(spec), RatFn.one(spec)
    # a represents num/den: cross-multiplication with the unreduced input
    assert field.pmul(_ints(a.num), den) == field.pmul(num, _ints(a.den))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero
    assert (a + (-a)).is_zero and (a + (-b)) + b == a
    for h in (a, a + b, a * b, -a, a.derivative()):
        assert _canonical(spec, h), h


# -- closed forms at x = 0: gcds with a monomial operand and the x-adic order ------------
#
# When either operand of a gcd is a monomial c x^k, its monic divisors are
# the powers x^j, j <= k.  The oracles below do not use that fact: over prime
# fields the gcd comes from galoistools, over F_4 and F_9 from a search over
# every monic polynomial of low degree, and the order at x = 0 from repeated
# division by x.


def _with_content(rng, p, content, deg):
    """x^content times a random polynomial of degree < deg with nonzero constant term."""
    body = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randrange(deg))]
    return _trim([0] * content + body)


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_monomial_gcd_matches_galoistools(p):
    spec = FieldSpec(p)
    rng = random.Random(300 + p)
    for k in range(5):
        for _ in range(30):
            m = [0] * k + [rng.randrange(1, p)]
            content = rng.randrange(6)
            others = [[], [0] * content + [rng.randrange(1, p)], _with_content(rng, p, content, 8)]
            others.append(_with_content(rng, p, 0, 8))  # no x-power content
            for b in others:
                M, B = _poly(spec, m), _poly(spec, b)
                expected = _asc(gf_gcd(_desc(m), _desc(b), p, ZZ))
                assert _ints(poly_gcd(M, B)) == expected, (m, b)
                assert _ints(poly_gcd(B, M)) == expected, (b, m)


def _monics(field, max_deg):
    """Every monic polynomial of degree <= max_deg, as ascending encodings."""
    out = []
    for d in range(max_deg + 1):
        out += [list(t) + [1] for t in itertools.product(range(field.q), repeat=d)]
    return out


def _searched_divisors(field, a, monics):
    return {tuple(d) for d in monics if len(d) <= len(a) and not field.pdivmod(a, d)[1]}


@pytest.mark.parametrize("q, max_deg", [(4, 3), (9, 2)])
def test_monomial_gcd_by_brute_force_over_extension_fields(q, max_deg):
    p, modulus = EXTENSIONS[q]
    spec, field = FieldSpec(p, modulus), TableField(p, modulus)
    monics = _monics(field, max_deg)
    polys = [_trim(list(t)) for t in itertools.product(range(q), repeat=max_deg + 1)]
    divisors = {tuple(a): _searched_divisors(field, a, monics) for a in polys if a}
    made = {tuple(a): _poly(spec, a) for a in polys}
    for k in range(max_deg + 1):
        for c in range(1, q):
            m = [0] * k + [c]
            M = made[tuple(m)]
            for b in polys:
                if b:
                    expected = list(max(divisors[tuple(m)] & divisors[tuple(b)], key=len))
                else:
                    expected = field.pmonic(m)
                B = made[tuple(b)]
                assert _ints(poly_gcd(M, B)) == expected, (m, b)
                assert _ints(poly_gcd(B, M)) == expected, (b, m)


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_multiplicity_at_zero_matches_division_by_x(p):
    spec = FieldSpec(p)
    rng = random.Random(400 + p)
    for content in range(7):
        for _ in range(20):
            a = _with_content(rng, p, content, rng.randrange(1, 9))
            m, f = 0, _desc(a)
            while True:
                q, r = gf_div(f, [1, 0], p, ZZ)
                if r:
                    break
                m, f = m + 1, q
            assert m == content
            assert _poly(spec, a).multiplicity_at(spec.zero()) == m, a


@pytest.mark.parametrize("q", [4, 9])
def test_multiplicity_at_zero_by_division_over_extension_fields(q):
    p, modulus = EXTENSIONS[q]
    spec, field = FieldSpec(p, modulus), TableField(p, modulus)
    for t in itertools.product(range(q), repeat=4):
        a = _trim(list(t))
        if a:
            assert _poly(spec, a).multiplicity_at(spec.zero()) == _brute_multiplicity(field, a, 0), a


# -- division by a monomial c x^k ----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_division_by_a_monomial_matches_galoistools(p):
    spec = FieldSpec(p)
    rng = random.Random(500 + p)
    for k in range(6):
        for _ in range(30):
            m = [0] * k + [rng.randrange(1, p)]
            a = _trim([rng.randrange(p) for _ in range(rng.randrange(2 * k + 3))])
            q, r = gf_div(_desc(a), _desc(m), p, ZZ)
            Q, R = divmod(_poly(spec, a), _poly(spec, m))
            assert (_ints(Q), _ints(R)) == (_asc(q), _asc(r)), (a, m)


@pytest.mark.parametrize("q", [4, 9])
def test_division_by_a_monomial_by_brute_force_over_extension_fields(q):
    p, modulus = EXTENSIONS[q]
    spec, field = FieldSpec(p, modulus), TableField(p, modulus)
    dividends = [_trim(list(t)) for t in itertools.product(range(q), repeat=4 if q == 4 else 3)]
    if q == 9:  # degree up to 4 with coefficients in {0, 1, z, the largest encoding}
        dividends += [_trim(list(t)) for t in itertools.product((0, 1, p, q - 1), repeat=5)]
    for k in range(4):
        for c in range(1, q):
            m = [0] * k + [c]
            M = _poly(spec, m)
            for a in dividends:
                Q, R = divmod(_poly(spec, a), M)
                quo, rem = _ints(Q), _ints(R)
                assert len(rem) <= k and field.padd(field.pmul(quo, m), rem) == a, (a, m)


# -- products by Kronecker substitution -------------------------------------------------

PRODUCT_FIELDS = {
    2: (2, None), 3: (3, None), 31: (31, None), 65521: (65521, None),
    4: (2, [1, 1, 1]), 8: (2, [1, 1, 0, 1]), 9: (3, [1, 0, 1]), 27: (3, [1, 2, 0, 1]),
    81: (3, [2, 1, 0, 0, 1]), 961: (31, [1, 0, 1]),
}


def _digits_desc(k, p, d):
    """The element of encoding k as a descending galoistools list over Z/p."""
    return _desc(_trim([k // p**i % p for i in range(d)]))


def _encode_desc(f, p):
    k = 0
    for c in f:
        k = k * p + c
    return k


def _galois_product(p, modulus, a, b):
    """a * b by one galoistools product over Z/p: coefficient k of a sits
    at z^(k (2d - 1)), so no two coefficient products overlap."""
    d = len(modulus) - 1 if modulus else 1
    step = 2 * d - 1

    def flat(ks):
        out = [0] * (len(ks) * step)
        for k, e in enumerate(ks):
            for i in range(d):
                out[k * step + i] = e // p**i % p
        return _desc(_trim(out))

    prod = _asc(gf_mul(flat(a), flat(b), p, ZZ))
    m = _desc(modulus) if modulus else [1, 0]
    out = []
    for k in range(len(a) + len(b) - 1):
        block = _trim(prod[k * step:(k + 1) * step])
        out.append(_encode_desc(gf_rem(_desc(block), m, p, ZZ), p))
    return _trim(out)


def _schoolbook_product(p, modulus, a, b):
    d = len(modulus) - 1 if modulus else 1
    m = _desc(modulus) if modulus else [1, 0]
    out = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            xy = gf_mul(_digits_desc(x, p, d), _digits_desc(y, p, d), p, ZZ)
            out[i + j] = gf_add(out[i + j], gf_rem(xy, m, p, ZZ), p, ZZ)
    return _trim([_encode_desc(c, p) for c in out])


def _operands(q, rng):
    """Pairs of nonzero operands: constants, lengths on both sides of the
    crossover, degree >= 64, and the all-(q - 1) operands."""
    lengths = [(1, 1), (1, 7), (2, 3), (3, 3), (4, 9), (5, 5), (8, 11), (12, 30), (20, 21), (65, 70), (1, 80)]
    pairs = []
    for la, lb in lengths:
        a = [rng.randrange(q) for _ in range(la - 1)] + [rng.randrange(1, q)]
        b = [rng.randrange(q) for _ in range(lb - 1)] + [rng.randrange(1, q)]
        pairs.append((a, b))
    pairs.append(([q - 1] * 66, [q - 1] * 64))
    pairs.append(([0] * 9 + [q - 1], [q - 1] * 40))  # a monomial
    return pairs


@pytest.mark.parametrize("q", sorted(PRODUCT_FIELDS))
def test_kronecker_products_match_galoistools_and_a_schoolbook(q):
    p, modulus = PRODUCT_FIELDS[q]
    spec = FieldSpec(p, modulus)
    rng = random.Random(700 + q)
    crossed = set()
    for a, b in _operands(q, rng):
        expected = _galois_product(p, modulus, a, b)
        assert _schoolbook_product(p, modulus, a, b) == expected, (a, b)
        assert polyrat._kronecker_product(spec, a, b) == expected, (a, b)
        assert _ints(_poly(spec, a) * _poly(spec, b)) == expected, (a, b)
        nonzero = (len(a) - a.count(0)) * (len(b) - b.count(0))
        crossed.add(nonzero >= polyrat.KRONECKER_TERMS * spec.d**2)
    assert crossed == {False, True}  # both routes of Poly.__mul__ are taken
    zero, one = Poly.zero(spec), Poly.one(spec)
    a = _poly(spec, _operands(q, rng)[-3][0])
    assert (zero * a).is_zero and (a * zero).is_zero and (zero * zero).is_zero
    assert a * one == a and one * a == a
