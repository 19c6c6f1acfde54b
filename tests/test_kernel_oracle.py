"""The coefficient loops that read the field tables inline, on the edge
fields F_2, F_3, F_4, F_8, F_9, F_961 and F_65521, against an oracle that
shares no code with ``gf`` or ``polyrat``.

The oracle does every field operation with ``sympy.polys.galoistools``:
an element is its digit polynomial over Z/p, reduced modulo m(z) (z for a
prime field), so no exp/log/Zech table is read.  Its polynomial
arithmetic is the textbook one on ascending encoding lists: schoolbook
products, long division, Euclid, Horner, repeated division by x - rho and
products of linear factors.  (The ``TableField`` of the polynomial oracle
module tabulates q^2 sums and products, too many at q = 961 and 65521.)

Each field is checked where the table rules have edges:

* the row kernel ``polyrat._axpy`` on its own: at an offset, into
  entries that cancel to 0, with the log sum 2(q - 2), over a row with
  interior zeros and over an empty row;
* F_2, where q - 1 = 1 and 1 + 1 is the None Zech entry;
* sums that cancel to 0, in a sum, a product and a division;
* log sums that reach 2(q - 2), with every coefficient g^(q-2);
* ``from_roots`` with repeated roots and the root 0;
* ``multiplicity_at`` at 0 and at a nonzero root;
* ``divmod`` by a divisor with several nonzero terms;
* ``poly_gcd`` on coprime, equal and monomial operands;
* the root walker ``cohomology._cofactor_parts``, with a zero weight and
  the root 0.

Products are checked with the schoolbook route forced, and by the default
route; a sparse operand (a monomial, a binomial) times a dense one is
checked in both orders, which must give the same encodings.
"""

import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_mul, gf_neg, gf_rem

from cycliccover import cohomology, polyrat
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, poly_gcd

EDGE_FIELDS = {
    2: (2, None), 3: (3, None), 4: (2, [1, 1, 1]), 8: (2, [1, 1, 0, 1]),
    9: (3, [1, 0, 1]), 961: (31, [1, 0, 1]), 65521: (65521, None),
}


def _trim(ks):
    while ks and not ks[-1]:
        ks.pop()
    return ks


class Oracle:
    """F_q on encodings by galoistools over Z/p modulo m(z), and F_q[x] on
    ascending encoding lists by the textbook algorithms."""

    def __init__(self, p, modulus):
        self.p = p
        self.d = len(modulus) - 1 if modulus else 1
        self.q = p**self.d
        self.m = list(reversed(modulus or [0, 1]))

    def _digits(self, k):
        return _trim([k // self.p**i % self.p for i in range(self.d)])[::-1]

    def _encode(self, f):
        k = 0
        for c in gf_rem(f, self.m, self.p, ZZ):
            k = k * self.p + c
        return k

    def add(self, a, b):
        return self._encode(gf_add(self._digits(a), self._digits(b), self.p, ZZ))

    def neg(self, a):
        return self._encode(gf_neg(self._digits(a), self.p, ZZ))

    def mul(self, a, b):
        return self._encode(gf_mul(self._digits(a), self._digits(b), self.p, ZZ))

    def inv(self, a):
        s, _, h = gf_gcdex(self._digits(a), self.m, self.p, ZZ)
        assert h == [1]
        return self._encode(s)

    # -- polynomials ---------------------------------------------------------

    def padd(self, a, b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return _trim([self.add(x, y) for x, y in zip(a, b)])

    def pscale(self, a, c):
        return _trim([self.mul(x, c) for x in a])

    def pmul(self, a, b):
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return _trim(out)

    def pdivmod(self, a, b):
        rem, quo = list(a), [0] * max(len(a) - len(b) + 1, 0)
        inv = self.inv(b[-1])
        for k in range(len(quo) - 1, -1, -1):
            c = quo[k] = self.mul(rem[k + len(b) - 1], inv)
            for i, y in enumerate(b):
                rem[k + i] = self.add(rem[k + i], self.neg(self.mul(c, y)))
        return _trim(quo), _trim(rem)

    def pgcd(self, a, b):
        while b:
            a, b = b, self.pdivmod(a, b)[1]
        return self.pscale(a, self.inv(a[-1])) if a else []

    def peval(self, a, x):
        acc = 0
        for c in reversed(a):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def pderiv(self, a):
        return _trim([self.mul(c, k % self.p) for k, c in enumerate(a)][1:])

    def multiplicity(self, a, rho):
        m = 0
        while True:
            quo, rem = self.pdivmod(a, [self.neg(rho), 1])
            if rem:
                return m
            m, a = m + 1, quo

    def from_roots(self, roots):
        out = [1]
        for rho, m in roots:
            for _ in range(m):
                out = self.pmul(out, [self.neg(rho), 1])
        return out


def _setup(q):
    p, modulus = EDGE_FIELDS[q]
    return FieldSpec(p, modulus), Oracle(p, modulus)


def _poly(spec, ks):
    return Poly(spec, [spec.from_encoding(k) for k in ks])


def _ints(poly):
    return [c.encoding for c in poly.coeffs]


def _elements(spec, rng):
    """Coefficients for random operands: 0, 1, -1, g^(q-2) (the largest
    log) and random elements."""
    q = spec.q
    return [0, 1, spec.p - 1, spec.exp[q - 2]] + [rng.randrange(q) for _ in range(4)]


def _operands(spec, rng, count, max_len):
    pool = _elements(spec, rng)
    out = [[], [spec.exp[spec.q - 2]] * 4, [0, 0, 1]]
    for _ in range(count):
        out.append(_trim([rng.choice(pool) for _ in range(rng.randrange(max_len + 1))]))
    return out


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_ring_operations_match_the_oracle(q, monkeypatch):
    spec, field = _setup(q)
    rng = random.Random(1400 + q)
    operands = _operands(spec, rng, 40, 7)
    for a in operands:
        A = _poly(spec, a)
        assert _ints(-A) == [field.neg(c) for c in a], a
        assert _ints(A.derivative()) == field.pderiv(a), a
        for c in _elements(spec, rng):
            assert _ints(A * spec.from_encoding(c)) == field.pscale(a, c), (a, c)
            assert A.evaluate(spec.from_encoding(c)).encoding == field.peval(a, c), (a, c)
        if a:
            assert _ints(A.monic()) == field.pscale(a, field.inv(a[-1])), a
    for a, b in zip(operands, operands[1:] + operands[:1]):
        A, B = _poly(spec, a), _poly(spec, b)
        assert _ints(A + B) == field.padd(a, b), (a, b)
        assert _ints(A - B) == field.padd(a, [field.neg(c) for c in b]), (a, b)
        assert _ints(A * B) == field.pmul(a, b), (a, b)
        if b:
            assert [_ints(part) for part in divmod(A, B)] == list(field.pdivmod(a, b)), (a, b)
        assert _ints(poly_gcd(A, B)) == field.pgcd(a, b), (a, b)
    monkeypatch.setattr(polyrat, "KRONECKER_TERMS", 10**9)  # every product by the schoolbook loop
    for a in operands:
        for b in operands[:8]:
            assert _ints(_poly(spec, a) * _poly(spec, b)) == field.pmul(a, b), (a, b)


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_sums_that_cancel_and_log_sums_at_twice_q_minus_two(q, monkeypatch):
    spec, field = _setup(q)
    monkeypatch.setattr(polyrat, "KRONECKER_TERMS", 10**9)
    top = spec.exp[q - 2]  # g^(q-2): a product of two has the log sum 2(q - 2)
    assert spec.log[top] + spec.log[top] == 2 * (q - 2)
    tops = [top] * 5
    T = _poly(spec, tops)
    assert _ints(T * T) == field.pmul(tops, tops)
    assert _ints(T * spec.from_encoding(top)) == field.pscale(tops, top)
    assert (T + -T).is_zero and (T - T).is_zero
    assert _ints(T + T) == field.padd(tops, tops)  # 2 g^(q-2), which is 0 over F_2, F_4 and F_8
    for c in range(1, min(q, 40)):
        # (x - c)(x + c) = x^2 - c^2: the x terms cancel
        product = _poly(spec, [field.neg(c), 1]) * _poly(spec, [c, 1])
        assert _ints(product) == [field.neg(field.mul(c, c)), 0, 1]
        assert divmod(product, _poly(spec, [c, 1]))[1].is_zero
    one_plus_x = _poly(spec, [1, 1])
    assert _ints(one_plus_x * one_plus_x) == field.pmul([1, 1], [1, 1])  # x^2 + 1 over F_2
    if q == 2:
        assert spec.zech == [None]  # 1 + 1 = 0: the one Zech entry is None
        assert _ints(one_plus_x * one_plus_x) == [1, 0, 1]
        assert (Poly.one(spec) + Poly.one(spec)).is_zero


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_roots_and_multiplicities_match_the_oracle(q):
    spec, field = _setup(q)
    rng = random.Random(1500 + q)
    nonzero = [1, spec.p - 1, spec.exp[q - 2]] + [rng.randrange(1, q) for _ in range(3)]
    for _ in range(12):
        roots = [(rng.choice([0] + nonzero), rng.randrange(4)) for _ in range(rng.randrange(1, 4))]
        roots.append((roots[0][0], 2))  # a root repeated across pairs
        got = Poly.from_roots(spec, [(spec.from_encoding(rho), m) for rho, m in roots])
        f = field.from_roots(roots)
        assert _ints(got) == f, roots
        for rho in {0, *nonzero, *(rho for rho, _ in roots)}:
            want = sum(m for r, m in roots if r == rho)
            assert got.multiplicity_at(spec.from_encoding(rho)) == want == field.multiplicity(f, rho), (roots, rho)
    assert _ints(Poly.from_roots(spec, [(spec.zero(), 3)])) == [0, 0, 0, 1]


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_division_and_gcd_edge_cases_match_the_oracle(q):
    spec, field = _setup(q)
    rng = random.Random(1600 + q)
    top = spec.exp[q - 2]
    roots = list(dict.fromkeys([0, 1, spec.p - 1, top] + [rng.randrange(q) for _ in range(3)]))
    for _ in range(10):
        a_roots = [(r, rng.randrange(1, 3)) for r in rng.sample(roots, min(3, len(roots)))]
        b_roots = [(r, rng.randrange(1, 3)) for r in rng.sample(roots, min(2, len(roots)))]
        a, b = field.from_roots(a_roots), field.from_roots(b_roots)
        a = field.pscale(a, top)  # not monic
        A, B = _poly(spec, a), _poly(spec, b)
        assert [_ints(part) for part in divmod(A, B)] == list(field.pdivmod(a, b))
        general = field.padd(b, [top])  # a divisor with several nonzero terms
        assert [_ints(part) for part in divmod(A, _poly(spec, general))] == list(field.pdivmod(a, general))
        assert _ints(poly_gcd(A, B)) == field.pgcd(a, b)
        assert _ints(poly_gcd(A, A)) == field.pscale(a, field.inv(a[-1]))  # equal operands
        assert _ints(poly_gcd(A * B, B)) == field.pgcd(field.pmul(a, b), b)
    # coprime: (x - 1)^2 and x
    coprime = [field.from_roots([(1, 2)]), [0, 1]]
    assert _ints(poly_gcd(*(_poly(spec, f) for f in coprime))) == [1]
    for k in range(4):  # a monomial operand c x^k
        mono = [0] * k + [top]
        for f in (field.from_roots([(0, 2), (1, 1)]), field.from_roots([(1, 3)])):
            assert _ints(poly_gcd(_poly(spec, mono), _poly(spec, f))) == field.pgcd(mono, f)
            assert _ints(poly_gcd(_poly(spec, f), _poly(spec, mono))) == field.pgcd(f, mono)


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_the_root_walkers_match_the_oracle(q):
    spec, field = _setup(q)
    rng = random.Random(1700 + q)
    for _ in range(8):
        rhos = list(dict.fromkeys([rng.randrange(q) for _ in range(rng.randrange(1, 5))] + [0]))
        weights = [rng.choice([0, 1, spec.exp[q - 2], rng.randrange(q)]) for _ in rhos]
        pairs = [(spec.from_encoding(r), spec.from_encoding(w)) for r, w in zip(rhos, weights)]
        support = field.from_roots([(r, 1) for r in rhos])
        total = []
        for i, w in enumerate(weights):  # sum_i w_i prod_{j != i} (x - rho_j)
            cofactor = field.from_roots([(r, 1) for j, r in enumerate(rhos) if j != i])
            total = field.padd(total, field.pscale(cofactor, w))
        got_total, got_support = cohomology._cofactor_parts(spec, pairs)
        assert (_ints(got_total), _ints(got_support)) == (total, support), (rhos, weights)


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_the_row_kernel_matches_the_oracle(q):
    spec, field = _setup(q)
    rng = random.Random(1800 + q)
    top = spec.exp[q - 2]  # g^(q-2): w = top on a row of tops gives the log sum 2(q - 2)
    weights = [1, spec.p - 1, top] + [rng.randrange(1, q) for _ in range(3)]
    rows = [[], [top] * 4, [top, 0, 0, top], [0, 1, 0, spec.p - 1, 0]]
    rows += [[rng.choice([0, 0, 1, top, rng.randrange(q)]) for _ in range(rng.randrange(1, 7))] for _ in range(6)]
    for w in weights:
        for src in rows:
            for offset in (0, 1, 3):
                for out in ([0] * (offset + len(src) + 2), [rng.randrange(q) for _ in range(offset + len(src) + 2)]):
                    want = [field.add(c, field.mul(w, src[k - offset])) if 0 <= k - offset < len(src) else c
                            for k, c in enumerate(out)]
                    got = list(out)
                    polyrat._axpy(spec, got, offset, src, w)
                    assert got == want, (w, src, offset, out)
            # entries that cancel: out[1 + k] = -w src[k], so every touched entry becomes 0
            out = [7 % q] + [field.neg(field.mul(w, c)) for c in src]
            polyrat._axpy(spec, out, 1, src, w)
            assert out == [7 % q] + [0] * len(src), (w, src)
    if q == 2:  # 1 + 1 reads the None Zech entry
        out = [1, 1]
        polyrat._axpy(spec, out, 0, [1, 1], 1)
        assert spec.zech == [None] and out == [0, 0]


@pytest.mark.parametrize("q", sorted(EDGE_FIELDS))
def test_sparse_by_dense_products_match_the_oracle_in_both_orders(q, monkeypatch):
    spec, field = _setup(q)
    monkeypatch.setattr(polyrat, "KRONECKER_TERMS", 10**9)  # every product by the schoolbook loop
    rng = random.Random(1900 + q)
    top = spec.exp[q - 2]
    dense = [[rng.randrange(1, q) for _ in range(n)] for n in (1, 3, 6)] + [[top] * 5]
    sparse = [[top], [0, 0, 0, top], [0, 1], [1, 0, 0, top], [spec.p - 1, 0, 0, 0, 0, 1], [0, top, 0, 1]]
    for a in sparse:
        for b in dense + sparse:
            A, B = _poly(spec, a), _poly(spec, b)
            assert (A * B).ints == (B * A).ints, (a, b)
            assert _ints(A * B) == field.pmul(a, b), (a, b)
