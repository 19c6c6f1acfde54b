"""Univariate polynomials and reduced rational functions over F_q.

A ``Poly`` holds ``ints``, the ascending tuple of its coefficients' field
encodings (see ``gf``) with no trailing zero, so representations are
unique; the zero polynomial is the empty tuple and its degree is the
-infinity sentinel (never -1, so degree arithmetic stays honest).  All
arithmetic runs on these ints through ``FieldSpec.add``/``neg``/``mul``/
``inv``; a ``FieldElement`` is made or read only at the boundary: the
constructors, a scalar factor, ``coeffs``, ``coefficient``, ``leading``,
``evaluate``, rendering and residues.  A ``RatFn`` is a pair num/den kept
fully reduced with monic denominator; zero is 0/1.

A product is a schoolbook loop over the nonzero terms while the product
of the operands' nonzero term counts is below ``KRONECKER_TERMS`` * d^2,
and one Kronecker substitution above it (``_kronecker_product``): each
base-p digit plane of an operand is packed into one int, 8 to 64 bits a
coefficient, the planes are multiplied as ints, z^(>= d) is folded back
with the modulus and every slot is reduced mod p.  The crossover was
measured on the products the benchmark workloads make: the substitution
costs a few microseconds plus a little per coefficient, more for larger
d, and the schoolbook loop skips zero terms, which sparse operands such
as monomials have many of.

The one non-generic operation is the residue at infinity of a rational
differential h(x) dx.  Substituting x = 1/u sends dx to -u^{-2} du, so
Res_inf(h dx) = -c, where c is the x^{-1} coefficient of the descending
expansion of h.  That coefficient is read off exactly from one long
division: c equals the constant coefficient of quotient(num * x, den).
The quotient does not change when num and den share a factor, so
``fraction_residue`` works on unreduced num/den pairs, and
``fraction_sum`` adds such pairs without a gcd for checks that only ask
whether a sum is zero.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

from .gf import FieldElement, FieldSpec

NEG_INFINITY = float("-inf")
# a product takes the Kronecker route once the product of its operands'
# nonzero term counts reaches KRONECKER_TERMS * d^2 (measured crossover)
KRONECKER_TERMS = 20
# the packing slots: (bytes, array typecode), narrowest first
_SLOTS = sorted({array(code).itemsize: code for code in "BHILQ"}.items())


def _poly(spec: FieldSpec, ints: list[int]) -> Poly:
    """The polynomial with the given ascending encodings (trimmed in place)."""
    while ints and not ints[-1]:
        ints.pop()
    out = Poly.__new__(Poly)
    out.spec, out.ints = spec, tuple(ints)
    return out


def _common_spec(a: Poly, b: Poly) -> FieldSpec:
    if a.spec is not b.spec and a.spec != b.spec:
        raise ValueError("polynomials over mismatched field specs")
    return a.spec


class Poly:
    """Polynomial over F_q in canonical (trailing-zero-free) form."""

    __slots__ = ("spec", "ints")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[FieldElement] = ()):
        self.spec, self.ints = spec, _poly(spec, [c.encoding for c in coeffs]).ints

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints: Sequence[int | Sequence[int]]) -> Poly:
        return cls(spec, [spec.element(v) for v in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> Poly:
        return _poly(spec, [])

    @classmethod
    def one(cls, spec: FieldSpec) -> Poly:
        return _poly(spec, [1])

    @classmethod
    def x(cls, spec: FieldSpec) -> Poly:
        return _poly(spec, [0, 1])

    @classmethod
    def constant(cls, c: FieldElement) -> Poly:
        return _poly(c.spec, [c.encoding])

    @classmethod
    def monomial(cls, spec: FieldSpec, k: int, c: FieldElement | None = None) -> Poly:
        return _poly(spec, [0] * k + [1 if c is None else c.encoding])

    @classmethod
    def from_roots(cls, spec: FieldSpec, roots: Sequence[tuple[FieldElement, int]]) -> Poly:
        """prod (x - rho)^m over the given (rho, m) pairs.  Each factor is
        multiplied in by one pass: (x + r) sum c_k x^k has the coefficients
        r c_0, c_0 + r c_1, ..., c_(d-1) + r c_d, c_d."""
        add, mul = spec.add, spec.mul
        out = [1]
        for rho, m in roots:
            r = spec.neg(rho.encoding)
            for _ in range(m):
                out = [mul(r, out[0])] + [add(c, mul(r, d)) for c, d in zip(out, out[1:])] + [1]
        return _poly(spec, out)

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int | float:
        return len(self.ints) - 1 if self.ints else NEG_INFINITY

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, c) for c in self.ints)

    @property
    def leading(self) -> FieldElement:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.spec, self.ints[-1])

    def _scale(self, c: int) -> Poly:
        mul = self.spec.mul
        return _poly(self.spec, [mul(a, c) for a in self.ints])

    def monic(self) -> Poly:
        if not self.ints:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.ints[-1]
        return self if lead == 1 else self._scale(self.spec.inv(lead))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b = b, a
        add = _common_spec(self, other).add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return _poly(self.spec, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        neg = self.spec.neg
        return _poly(self.spec, [neg(c) for c in self.ints])

    def __mul__(self, other: Poly | FieldElement) -> Poly:
        if isinstance(other, FieldElement):
            return self._scale(other.encoding)
        spec = _common_spec(self, other)
        a, b = self.ints, other.ints
        if not a or not b:
            return _poly(spec, [])
        if (len(a) - a.count(0)) * (len(b) - b.count(0)) >= KRONECKER_TERMS * spec.d**2:
            return _poly(spec, _kronecker_product(spec, a, b))
        add, mul = spec.add, spec.mul
        terms = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    prod[i + j] = add(prod[i + j], mul(x, y))
        return _poly(spec, prod)

    __rmul__ = __mul__

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        spec = _common_spec(self, other)
        add, neg, mul = spec.add, spec.neg, spec.mul
        db = len(other.ints) - 1
        inv_lead = spec.inv(other.ints[-1])
        # the nonzero lower divisor terms, negated so that the elimination adds
        terms = [(i, neg(b)) for i, b in enumerate(other.ints[:-1]) if b]
        if not terms:  # c x^db: the terms of degree >= db, shifted down and scaled, and the rest
            top = self.ints[db:]
            quo = list(top) if inv_lead == 1 else [mul(c, inv_lead) for c in top]
            return _poly(spec, quo), _poly(spec, list(self.ints[:db]))
        rem = list(self.ints)
        quo = [0] * max(len(rem) - db, 0)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + db]
            if c:
                c = quo[k] = mul(c, inv_lead)
                for i, b in terms:
                    rem[i + k] = add(rem[i + k], mul(c, b))
        del rem[db:]  # every term of degree >= db has been eliminated
        return _poly(spec, quo), _poly(spec, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    # -- calculus and evaluation ------------------------------------------------

    def derivative(self) -> Poly:
        """Formal derivative; characteristic-p collapses included."""
        mul, p = self.spec.mul, self.spec.p
        return _poly(self.spec, [mul(c, k % p) for k, c in enumerate(self.ints) if k])

    def evaluate(self, x: FieldElement) -> FieldElement:
        add, mul, r = self.spec.add, self.spec.mul, x.encoding
        acc = 0
        for c in reversed(self.ints):
            acc = add(mul(acc, r), c)
        return FieldElement(self.spec, acc)

    def multiplicity_at(self, rho: FieldElement) -> int:
        """Order of vanishing at x = rho (0 if rho is not a root): the x-adic
        order at rho = 0, elsewhere one synthetic division by x - rho per
        pass, whose Horner partial sums are the quotient and the value."""
        if not self.ints:
            raise ValueError("multiplicity of the zero polynomial is undefined")
        r = rho.encoding
        if not r:
            return _x_order(self.ints)
        add, mul = self.spec.add, self.spec.mul
        cur = self.ints[::-1]  # descending; the leading term is nonzero throughout
        m = 0
        while True:
            acc, quo = 0, []
            for c in cur:
                acc = add(mul(acc, r), c)
                quo.append(acc)
            if acc:
                return m
            quo.pop()
            cur = quo
            m += 1

    def shift(self, k: int) -> Poly:
        """Multiply by x^k."""
        return _poly(self.spec, [0] * k + list(self.ints))

    # -- comparisons and rendering ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.spec, self.ints))

    @property
    def term_count(self) -> int:
        return sum(1 for c in self.ints if c)

    def render(self) -> str:
        """Ascending rendering: ``c0 + c1*x + c2*x^2 + ...``."""
        if not self.ints:
            return "0"
        terms = []
        for k, c in enumerate(self.ints):
            if not c:
                continue
            cs = FieldElement(self.spec, c).render()
            if k == 0:
                terms.append(cs)
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if cs == "1" else f"{cs}*{var}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _kronecker_product(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The encodings of the product of two nonzero polynomials, by
    Kronecker substitution (Harvey, J. Symbolic Comput. 44 (2009)).

    Digit t of every coefficient of a goes into one int, plane t, one slot
    per power of x; likewise for b.  Plane products are slot-wise
    convolutions, so product plane u = sum_{s+t=u} a_s b_t holds the z^u
    parts of the coefficients of a * b.  The planes u >= d are folded down
    with z^d = -(m_0 + ... + m_{d-1} z^{d-1}), adding p - m_i for -m_i so
    no slot goes negative.  Each slot of the d planes left is then reduced
    mod p, and the digits are read back as encodings.  A slot of a product
    plane is at most d n (p - 1)^2 with n = min(len(a), len(b)), and the
    d - 1 folds multiply the bound by at most p^(d-1), so every slot stays
    below n d q p, and the narrowest machine width above that is used:
    q p <= 2^32 and d <= 16 under ``gf.MAX_Q``, so 64 bits hold any n
    below 2^28.
    """
    p, d = spec.p, spec.d
    bound = min(len(a), len(b)) * d * spec.q * p
    for width, code in _SLOTS:
        if not bound >> 8 * width:
            break
    else:
        raise ValueError(f"a product with {min(len(a), len(b))} terms per slot exceeds {8 * width}-bit slots")
    size = (len(a) + len(b) - 1) * width
    planes_a, planes_b = _digit_planes(a, p, d, code), _digit_planes(b, p, d, code)
    prod = [0] * (2 * d - 1)
    for s, x in enumerate(planes_a):
        for t, y in enumerate(planes_b):
            prod[s + t] += x * y
    if d > 1:
        fold = [(i, p - mi) for i, mi in enumerate(spec.modulus[:-1]) if mi]
        for u in range(2 * d - 2, d - 1, -1):
            for i, f in fold:
                prod[u - d + i] += f * prod[u]
    slots = [memoryview(x.to_bytes(size, sys.byteorder)).cast(code) for x in prod[:d]]
    out = [v % p for v in slots[-1]]
    for plane in reversed(slots[:-1]):
        out = [e * p + v % p for e, v in zip(out, plane)]
    return out


def _digit_planes(ints: Sequence[int], p: int, d: int, code: str) -> list[int]:
    """Digit t of every encoding, packed one per slot of array type ``code``,
    for t < d."""
    planes = []
    for _ in range(d - 1):
        planes.append([e % p for e in ints])
        ints = [e // p for e in ints]
    planes.append(ints)
    return [int.from_bytes(array(code, plane).tobytes(), sys.byteorder) for plane in planes]


def _x_order(ints: tuple[int, ...]) -> int:
    """The x-adic order of a nonzero polynomial: its count of leading zero encodings."""
    return next(k for k, c in enumerate(ints) if c)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (gcd(0, 0) = 0).  When either operand
    is a monomial c x^k, its monic divisors are the x^j with j <= k, so the
    gcd is x^min(ord_x a, ord_x b), with the order of 0 taken as infinite."""
    spec = _common_spec(a, b)
    for m, other in ((a.ints, b.ints), (b.ints, a.ints)):
        if m and not any(m[:-1]):  # m is c x^k
            k = min(len(m) - 1, _x_order(other)) if other else len(m) - 1
            return _poly(spec, [0] * k + [1])
    while b.ints:
        a, b = b, a % b
    return a.monic() if a.ints else a


def split_at_degree(h: Poly, m: int, inclusive: bool = True) -> tuple[Poly, Poly]:
    """Split h into (low, high) with low + high = h.

    low collects the monomials of degree <= m (inclusive) or < m (strict);
    high is the complement.
    """
    if m < 0:
        raise ValueError("split degree must be nonnegative")
    cut = m + 1 if inclusive else m
    low = _poly(h.spec, list(h.ints[:cut]))
    high = _poly(h.spec, [0] * cut + list(h.ints[cut:]))
    return low, high


class RatFn:
    """Reduced rational function num/den over F_q (den monic, gcd = 1)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, _reduced: bool = False):
        if den is None:  # 1 is monic and coprime to everything: nothing to reduce
            self.num, self.den = num, Poly.one(num.spec)
            return
        if not den.ints:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num.ints:
            self.num = num
            self.den = Poly.one(num.spec)
            return
        if not _reduced:
            g = poly_gcd(num, den)
            if len(g.ints) > 1:
                num = num // g
                den = den // g
            lead = den.ints[-1]
            if lead != 1:
                inv = den.spec.inv(lead)
                num = num._scale(inv)
                den = den._scale(inv)
        self.num = num
        self.den = den

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> RatFn:
        return cls(Poly.zero(spec))

    @classmethod
    def one(cls, spec: FieldSpec) -> RatFn:
        return cls(Poly.one(spec))

    @classmethod
    def from_poly(cls, p: Poly) -> RatFn:
        return cls(p, Poly.one(p.spec), _reduced=True)

    @classmethod
    def constant(cls, c: FieldElement) -> RatFn:
        return cls(Poly.constant(c))

    @property
    def spec(self) -> FieldSpec:
        return self.num.spec

    @property
    def is_zero(self) -> bool:
        return not self.num.ints

    # -- field operations -----------------------------------------------------------

    def __add__(self, other: RatFn) -> RatFn:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        num = self.num * other.den + other.num * self.den
        return RatFn(num, self.den * other.den)

    def __sub__(self, other: RatFn) -> RatFn:
        if other.is_zero:
            return self
        num = self.num * other.den - other.num * self.den
        return RatFn(num, self.den * other.den)

    def __neg__(self) -> RatFn:
        return RatFn(-self.num, self.den, _reduced=True)

    def __mul__(self, other: RatFn | FieldElement) -> RatFn:
        if isinstance(other, FieldElement):  # a zero product comes out as 0/1
            return RatFn(self.num._scale(other.encoding), self.den, _reduced=True)
        if self.is_zero or other.is_zero:  # a zero operand is 0/1 already
            return self if self.is_zero else other
        # cross-reduce before multiplying to keep degrees down
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num // g1 if g1.degree > 0 else self.num
        d2 = other.den // g1 if g1.degree > 0 else other.den
        n2 = other.num // g2 if g2.degree > 0 else other.num
        d1 = self.den // g2 if g2.degree > 0 else self.den
        # d1 and d2 are monic quotients of monic polynomials by monic gcds
        return RatFn(n1 * n2, d1 * d2, _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> RatFn:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFn(self.den, self.num)

    def __truediv__(self, other: RatFn) -> RatFn:
        return self * other.inverse()

    def derivative(self) -> RatFn:
        """Formal derivative via the quotient rule."""
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RatFn(num, self.den * self.den)

    # -- comparisons and rendering -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def render(self) -> str:
        """Canonical text form ``num/den`` (den omitted when 1)."""
        if self.den.ints == (1,):
            return self.num.render()
        # non-monic constant denominators cannot occur in canonical form
        return f"{_wrap(self.num)}/{_wrap(self.den)}"

    def __repr__(self) -> str:
        return f"RatFn({self.render()})"


def _wrap(p: Poly) -> str:
    """Parenthesize a polynomial rendering unless it is a single bare atom."""
    s = p.render()
    if p.term_count <= 1 and "*" not in s and "+" not in s:
        return s
    return f"({s})"


def fraction_residue(num: Poly, den: Poly) -> int:
    """Encoding of the residue at x = infinity of (num/den) dx, for any
    nonzero den, reduced or not.

    It is minus the x^{-1} coefficient of the expansion of num/den in
    descending powers, which is the constant term of the polynomial
    quotient of num * x by den.  A common factor g of num and den leaves
    that quotient unchanged (num x = q den + r gives num g x = q (den g) +
    r g, with deg r g < deg den g), so no gcd is needed.
    """
    quo = divmod(num.shift(1), den)[0].ints
    return den.spec.neg(quo[0]) if quo else 0


def fraction_sum(spec: FieldSpec, terms: Iterable[tuple[Poly, Poly]]) -> tuple[Poly, Poly]:
    """The sum of the fractions num/den as one unreduced fraction over the
    product of their distinct denominators: the numerators over one
    denominator are added first, and no gcd is taken.  The sum is zero iff
    its numerator is, and a zero sum is 0/1."""
    by_den: dict[tuple[int, ...], tuple[Poly, Poly]] = {}  # keyed by the denominator's encodings
    for num, den in terms:
        key = den.ints
        by_den[key] = (by_den[key][0] + num, den) if key in by_den else (num, den)
    fractions = [(num, den) for num, den in by_den.values() if num.ints]
    if not fractions:
        return Poly.zero(spec), Poly.one(spec)
    total, common = fractions[0]
    for num, den in fractions[1:]:
        total, common = total * den + num * common, common * den
    return total, common


def residue_at_infinity(h: RatFn) -> FieldElement:
    """Residue at x = infinity of the differential h(x) dx (see
    ``fraction_residue``)."""
    return FieldElement(h.spec, fraction_residue(h.num, h.den))
