"""Univariate polynomials and reduced rational functions over F_q.

A ``Poly`` is an ascending tuple of field coefficients with no trailing
zero, so representations are unique; the zero polynomial is the empty
tuple and its degree is the -infinity sentinel (never -1, so degree
arithmetic stays honest).  A ``RatFn`` is a pair num/den kept fully
reduced with monic denominator; zero is 0/1.

The one non-generic operation is the residue at infinity of a rational
differential h(x) dx.  Substituting x = 1/u sends dx to -u^{-2} du, so
Res_inf(h dx) = -c, where c is the x^{-1} coefficient of the descending
expansion of h.  That coefficient is read off exactly from one long
division: c equals the constant coefficient of quotient(num * x, den).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .gf import FieldElement, FieldSpec

NEG_INFINITY = float("-inf")


class Poly:
    """Polynomial over F_q in canonical (trailing-zero-free) form."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[FieldElement] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints: Sequence[int | Sequence[int]]) -> Poly:
        return cls(spec, [spec.element(v) for v in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> Poly:
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> Poly:
        return cls(spec, (spec.one(),))

    @classmethod
    def x(cls, spec: FieldSpec) -> Poly:
        return cls(spec, (spec.zero(), spec.one()))

    @classmethod
    def constant(cls, c: FieldElement) -> Poly:
        return cls(c.spec, (c,))

    @classmethod
    def monomial(cls, spec: FieldSpec, k: int, c: FieldElement | None = None) -> Poly:
        c = spec.one() if c is None else c
        return cls(spec, (spec.zero(),) * k + (c,))

    @classmethod
    def from_roots(cls, spec: FieldSpec, roots: Sequence[tuple[FieldElement, int]]) -> Poly:
        """prod (x - rho)^m over the given (rho, m) pairs."""
        out = cls.one(spec)
        for rho, m in roots:
            lin = cls(spec, (-rho, spec.one()))
            for _ in range(m):
                out = out * lin
        return out

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def coefficient(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.spec.zero()

    @property
    def leading(self) -> FieldElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading
        if lead == self.spec.one():
            return self
        inv = lead.inverse()
        return Poly(self.spec, tuple(c * inv for c in self.coeffs))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.spec,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other: Poly) -> Poly:
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.spec,
            [self.coefficient(i) - other.coefficient(i) for i in range(n)],
        )

    def __neg__(self) -> Poly:
        return Poly(self.spec, tuple(-c for c in self.coeffs))

    def __mul__(self, other: Poly | FieldElement) -> Poly:
        if isinstance(other, FieldElement):
            return Poly(self.spec, tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly.zero(self.spec)
        zero = self.spec.zero()
        prod = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero:
                continue
            for j, bj in enumerate(other.coeffs):
                if not bj.is_zero:
                    prod[i + j] = prod[i + j] + ai * bj
        return Poly(self.spec, prod)

    __rmul__ = __mul__

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lead = other.leading.inverse()
        qlen = max(len(rem) - db, 0)
        quo = [spec.zero()] * qlen
        while len(rem) - 1 >= db and rem:
            k = len(rem) - 1 - db
            c = rem[-1] * inv_lead
            quo[k] = c
            for i, bi in enumerate(other.coeffs):
                rem[i + k] = rem[i + k] - c * bi
            while rem and rem[-1].is_zero:
                rem.pop()
        return Poly(spec, quo), Poly(spec, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    # -- calculus and evaluation ------------------------------------------------

    def derivative(self) -> Poly:
        """Formal derivative; characteristic-p collapses included."""
        if len(self.coeffs) <= 1:
            return Poly.zero(self.spec)
        out = []
        for k in range(1, len(self.coeffs)):
            out.append(self.coeffs[k] * self.spec.element(k))
        return Poly(self.spec, out)

    def evaluate(self, x: FieldElement) -> FieldElement:
        acc = self.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def multiplicity_at(self, rho: FieldElement) -> int:
        """Order of vanishing at x = rho (0 if rho is not a root)."""
        if self.is_zero:
            raise ValueError("multiplicity of the zero polynomial is undefined")
        lin = Poly(self.spec, (-rho, self.spec.one()))
        m = 0
        cur = self
        while cur.evaluate(rho).is_zero:
            cur = cur // lin
            m += 1
        return m

    def shift(self, k: int) -> Poly:
        """Multiply by x^k."""
        if self.is_zero or k == 0:
            return self
        return Poly(self.spec, (self.spec.zero(),) * k + self.coeffs)

    # -- comparisons and rendering ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    @property
    def term_count(self) -> int:
        return sum(1 for c in self.coeffs if not c.is_zero)

    def render(self) -> str:
        """Ascending rendering: ``c0 + c1*x + c2*x^2 + ...``."""
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = c.render()
            if k == 0:
                terms.append(cs)
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if cs == "1" else f"{cs}*{var}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (gcd(0, 0) = 0)."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def split_at_degree(h: Poly, m: int, inclusive: bool = True) -> tuple[Poly, Poly]:
    """Split h into (low, high) with low + high = h.

    low collects the monomials of degree <= m (inclusive) or < m (strict);
    high is the complement.
    """
    if m < 0:
        raise ValueError("split degree must be nonnegative")
    cut = m + 1 if inclusive else m
    zero = h.spec.zero()
    low = Poly(h.spec, h.coeffs[:cut])
    high_coeffs = (zero,) * cut + h.coeffs[cut:]
    high = Poly(h.spec, high_coeffs)
    return low, high


class RatFn:
    """Reduced rational function num/den over F_q (den monic, gcd = 1)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, _reduced: bool = False):
        if den is None:
            den = Poly.one(num.spec)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num = num
            self.den = Poly.one(num.spec)
            return
        if not _reduced:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            lead = den.leading
            if not lead == den.spec.one():
                inv = lead.inverse()
                num = num * inv
                den = den * inv
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
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den.degree == 0

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
        if isinstance(other, FieldElement):
            if other.is_zero:
                return RatFn.zero(self.spec)
            return RatFn(self.num * other, self.den, _reduced=True)
        if self.is_zero or other.is_zero:
            return RatFn.zero(self.spec)
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

    # -- valuations -----------------------------------------------------------------

    def root_multiplicity(self, rho: FieldElement) -> int:
        """Order of vanishing at x = rho; negative for a pole."""
        if self.is_zero:
            raise ValueError("valuation of zero is undefined")
        return self.num.multiplicity_at(rho) - self.den.multiplicity_at(rho)

    def degree_valuation(self) -> int:
        """Valuation at infinity: deg(den) - deg(num)."""
        if self.is_zero:
            raise ValueError("valuation of zero is undefined")
        return int(self.den.degree) - int(self.num.degree)

    # -- comparisons and rendering -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def render(self) -> str:
        """Canonical text form ``num/den`` (den omitted when 1)."""
        if self.is_poly:
            c = self.den.coefficient(0)
            if c == self.spec.one():
                return self.num.render()
            # non-monic constant denominators cannot occur in canonical form
        num_s = _wrap(self.num)
        den_s = _wrap(self.den)
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"RatFn({self.render()})"


def _wrap(p: Poly) -> str:
    """Parenthesize a polynomial rendering unless it is a single bare atom."""
    s = p.render()
    if p.term_count <= 1 and "*" not in s and "+" not in s:
        return s
    return f"({s})"


def residue_at_infinity(h: RatFn) -> FieldElement:
    """Residue at x = infinity of the differential h(x) dx.

    Equals minus the x^{-1} coefficient of the expansion of h in
    descending powers; that coefficient is the constant term of the
    polynomial quotient of num * x by den.
    """
    if h.is_zero:
        return h.spec.zero()
    quo = h.num.shift(1) // h.den
    return -quo.coefficient(0)
