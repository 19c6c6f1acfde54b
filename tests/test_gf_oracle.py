"""Field arithmetic against oracles that share no code with ``gf``.

Extension fields are checked against ``sympy.polys.galoistools`` (dense
Z/p polynomials, descending coefficients) reduced modulo the field's
modulus, and prime fields against Python ints mod p.  Elements cross the
boundary as their canonical encoding, decoded here with plain integer
arithmetic.  ``hypothesis`` checks the field axioms, powers against
repeated products and the encoding round trip.

The tables themselves are checked, for every (p, d) with q <= 1024 and
d <= 5 (modulus: the monic irreducible of smallest encoding, found with
galoistools), against a walk that shares no code with ``gf``: each power
g^(i+1) is g^i * g as a Z/p polynomial product reduced modulo m.  The
generator g is checked to be the primitive element of smallest encoding
by computing multiplicative orders by brute force.
"""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_irreducible_p, gf_mul, gf_rem, gf_sub

from cycliccover.gf import FieldSpec

# ascending moduli; z^2 + 1 over F_3 and z^2 + 2 over F_5 are not primitive
# (z has order 4 and 8), so the tables' generator g is not z there
EXTENSIONS = {
    4: (2, [1, 1, 1]),
    8: (2, [1, 1, 0, 1]),
    9: (3, [1, 0, 1]),
    25: (5, [2, 0, 1]),
    27: (3, [1, 2, 0, 1]),
    49: (7, [1, 0, 1]),
    961: (31, [1, 0, 1]),
}
PRIMES = [2, 3, 5, 7, 31]


def _to_sympy(k, p, d):
    """Descending coefficient list of the element with encoding k."""
    out = []
    for _ in range(d):
        out.append(k % p)
        k //= p
    while out and out[-1] == 0:
        out.pop()
    return out[::-1]


def _from_sympy(f, p):
    k = 0
    for c in f:
        k = k * p + c
    return k


class SympyField:
    """F_p[z]/(m) with every operation done by ``galoistools``."""

    def __init__(self, p, modulus):
        self.p, self.d = p, len(modulus) - 1
        self.m = modulus[::-1]
        assert gf_irreducible_p(self.m, p, ZZ)

    def _op(self, f, a, b):
        x = f(_to_sympy(a, self.p, self.d), _to_sympy(b, self.p, self.d), self.p, ZZ)
        return _from_sympy(gf_rem(x, self.m, self.p, ZZ), self.p)

    def add(self, a, b):
        return self._op(gf_add, a, b)

    def sub(self, a, b):
        return self._op(gf_sub, a, b)

    def mul(self, a, b):
        return self._op(gf_mul, a, b)

    def inv(self, a):
        s, _, h = gf_gcdex(_to_sympy(a, self.p, self.d), self.m, self.p, ZZ)
        assert h == [1]
        return _from_sympy(gf_rem(s, self.m, self.p, ZZ), self.p)


def _check_pairs(spec, oracle, pairs):
    inverses = {b: oracle.inv(b) for _, b in pairs if b}
    for a, b in pairs:
        x, y = spec.from_encoding(a), spec.from_encoding(b)
        assert (x + y).encoding == oracle.add(a, b), (a, b)
        assert (x - y).encoding == oracle.sub(a, b), (a, b)
        assert (x * y).encoding == oracle.mul(a, b), (a, b)
        if b:
            assert y.inverse().encoding == inverses[b], b


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49])
def test_extension_field_all_pairs_match_galoistools(q):
    p, modulus = EXTENSIONS[q]
    pairs = [(a, b) for a in range(q) for b in range(q)]
    _check_pairs(FieldSpec(p, modulus), SympyField(p, modulus), pairs)


def test_extension_field_random_pairs_match_galoistools():
    p, modulus = EXTENSIONS[961]
    rng = random.Random(961)
    pairs = [(rng.randrange(961), rng.randrange(961)) for _ in range(3000)]
    _check_pairs(FieldSpec(p, modulus), SympyField(p, modulus), pairs)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_all_pairs_match_int_mod_p(p):
    spec = FieldSpec(p)
    for a in range(p):
        for b in range(p):
            x, y = spec.element(a), spec.element(b)
            assert (x + y).encoding == (a + b) % p
            assert (x - y).encoding == (a - b) % p
            assert (-y).encoding == -b % p
            assert (x * y).encoding == a * b % p
            if b:
                assert y.inverse().encoding == pow(b, -1, p)


@pytest.mark.parametrize(
    "p,modulus",
    [(65521, None), (2, [1, 1, 0, 1, 0, 1] + [0] * 10 + [1]), (251, [1, 0, 1])],
    ids=["p=65521", "p=2,d=16", "p=251,d=2"],
)
def test_tables_at_the_field_size_budget_build_within_a_second(p, modulus):
    start = time.process_time()
    spec = FieldSpec(p, modulus)
    assert time.process_time() - start < 1.0
    assert spec.q > 60000
    assert sorted(spec.exp[: spec.q - 1]) == list(range(1, spec.q))


# -- the tables against a polynomial walk ------------------------------------------------


def _smallest_irreducible(p, d):
    """Ascending modulus: the monic irreducible of degree d whose lower
    coefficients, read as base-p digits, are smallest."""
    for k in range(p**d):
        low = [k // p**i % p for i in range(d)]
        if gf_irreducible_p([1] + low[::-1], p, ZZ):
            return low + [1]
    raise AssertionError("no irreducible polynomial")


class PolyWalk:
    """F_p[z]/(m) on encodings, each product one Z/p polynomial product
    reduced modulo m."""

    def __init__(self, p, modulus):
        self.p, self.d, self.m = p, len(modulus) - 1, modulus[::-1]

    def mul(self, a, b):
        return _from_sympy(gf_rem(gf_mul(_to_sympy(a, self.p, self.d), _to_sympy(b, self.p, self.d), self.p, ZZ),
                                  self.m, self.p, ZZ), self.p)

    def order(self, a):
        power, k = a, 1
        while power != 1:
            power, k = self.mul(power, a), k + 1
        return k


TABLE_FIELDS = [(p, d) for d in range(1, 6) for p in primerange(2, 1025) if p**d <= 1024]


@pytest.mark.parametrize("d", range(1, 6))
def test_tables_match_a_polynomial_walk(d):
    for p in [p for p, e in TABLE_FIELDS if e == d]:
        modulus = [0, 1] if d == 1 else _smallest_irreducible(p, d)
        spec = FieldSpec(p, None if d == 1 else modulus)
        field, q = PolyWalk(p, modulus), p**d
        g = spec.exp[1]
        assert field.order(g) == q - 1, (p, d)
        assert all(field.order(c) < q - 1 for c in range(1, g)), (p, d)
        exp = [1]
        for _ in range(q - 2):
            exp.append(field.mul(exp[-1], g))
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        one = [1]
        zech = [log[_from_sympy(gf_add(_to_sympy(a, p, d), one, p, ZZ), p)] for a in exp]
        assert spec.exp == exp + exp and spec.log == log and spec.zech == zech, (p, d)


# -- properties ----------------------------------------------------------------------

SPECS = [FieldSpec(p) for p in PRIMES] + [FieldSpec(p, m) for p, m in EXTENSIONS.values()]


@st.composite
def elements(draw, count):
    spec = draw(st.sampled_from(SPECS))
    return [spec.from_encoding(draw(st.integers(0, spec.q - 1))) for _ in range(count)]


@given(elements(3))
def test_field_axioms(abc):
    a, b, c = abc
    spec = a.spec
    zero, one = spec.zero(), spec.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b) and (a - b) + b == a
    if not b.is_zero:
        assert b * b.inverse() == one and (a * b.inverse()) * b == a


@given(elements(1), st.integers(-30, 30))
def test_power_is_the_repeated_product(a, e):
    (a,) = a
    if a.is_zero and e < 0:
        with pytest.raises(ZeroDivisionError):
            a**e
        return
    factor = a if e >= 0 else a.inverse()
    expected = a.spec.one()
    for _ in range(abs(e)):
        expected = expected * factor
    assert a**e == expected


@given(st.sampled_from(SPECS), st.data())
def test_encoding_round_trip(spec, data):
    k = data.draw(st.integers(0, spec.q - 1))
    x = spec.from_encoding(k)
    assert x.encoding == k
    assert len(x.coeffs) == spec.d and all(0 <= c < spec.p for c in x.coeffs)
    assert sum(c * spec.p**i for i, c in enumerate(x.coeffs)) == k
    assert spec.element(list(x.coeffs)) == x
