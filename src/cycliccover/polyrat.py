"""Univariate polynomials and reduced rational functions over F_q.

A ``Poly`` holds ``ints``, the ascending tuple of its coefficients' field
encodings (see ``gf``) with no trailing zero, so representations are
unique; the zero polynomial is the empty tuple and its degree is the
-infinity sentinel (never -1, so degree arithmetic stays honest).  A
``FieldElement`` is made or read only at the boundary: the constructors, a
scalar factor, ``coeffs``, ``evaluate`` and rendering; a
residue is an encoding.  A ``RatFn`` is a pair num/den kept fully reduced
with monic denominator; zero is 0/1.

Every coefficient loop reads the field's tables (``FieldSpec.exp``,
``log`` and ``zech``, see ``gf``) in locals, with no call per
coefficient.  With g the primitive element and N = q - 1, a nonzero
coefficient a is g^log[a], and for nonzero a, b:

* a * b = exp[log[a] + log[b]]: the log sum is below 2N, which the
  doubled ``exp`` covers.  A log sum that is added on, not read back at
  once, is brought below N by one compare and subtract;
* g^t + g^s = exp[t + zech[s - t]] for t, s < N, and 0 where the Zech
  entry is None (g^t = -g^s); s - t < 0 wraps as Python indexes;
* a zero operand short-circuits: 0 * b = 0 and 0 + b = b.

The step out[k] += w * c is written once, in the row kernel ``_axpy``,
called once per row by schoolbook products (a row per term of the
sparser operand), long division (``_reduce``), root products
(``_root_product``) and the root walk ``cohomology._cofactor_parts``,
which reads no table.  A sum has no multiply and
keeps its own loop (``Poly.__add__``); with ``_horner``, the one
synthetic-division recurrence, these are the only readers of ``zech``.
The ``FieldSpec`` methods ``add``/``mul``/``neg``/``inv`` serve the
``FieldElement`` operators and single scalars (a monic scale, a residue);
no coefficient loop calls them.

``RatFn(num, den)`` reduces by Euclid (``poly_gcd``) and two long
divisions.  When den is a product of powers of x - rho with the roots
rho known, x = x - 0 among them, ``reduce_over_roots`` reduces
num / (x^shift den) without either: x cancels by the x-order of num, and
each other x - rho by synthetic division (``_horner``) for as long as it
divides.  A passing report reduces every fraction this way: the
Artin-Schreier r, each family's dy and every basis coefficient; Euclid
is left to a den of unknown factors, the residual of a failing check.
Every factor left, x included, is recorded on the result (``den_roots``).

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
whether a sum is zero.  It splits each denominator as x^e u with u prime
to x, the split ``funcfield.pairing_matrix`` keys its residues by: the
numerators over one x-free part add after a shift, and only distinct
x-free parts are multiplied.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, Sequence

from .gf import FieldElement, FieldSpec

NEG_INFINITY = float("-inf")
# a product takes the Kronecker route once the product of its operands'
# nonzero term counts reaches KRONECKER_TERMS * d^2 (measured crossover)
KRONECKER_TERMS = 32
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
    def from_encodings(cls, spec: FieldSpec, ints: Iterable[int]) -> Poly:
        """The polynomial with the given ascending field encodings."""
        return _poly(spec, list(ints))

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
    def monomial(cls, spec: FieldSpec, k: int, c: FieldElement | None = None) -> Poly:
        return _poly(spec, [0] * k + [1 if c is None else c.encoding])

    @classmethod
    def from_roots(cls, spec: FieldSpec, roots: Sequence[tuple[FieldElement, int]]) -> Poly:
        """prod (x - rho)^m over the given (rho, m) pairs."""
        return _poly(spec, _root_product(spec, [(rho.encoding, m) for rho, m in roots]))

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

    def _scale(self, c: int) -> Poly:
        if not c:
            return _poly(self.spec, [])
        exp, log = self.spec.exp, self.spec.log
        lc = log[c]
        return _poly(self.spec, [exp[log[a] + lc] if a else 0 for a in self.ints])

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
        spec = _common_spec(self, other)
        exp, log, zech = spec.exp, spec.log, spec.zech
        out = list(a)
        # inline, not _axpy: a sum has no multiply, and sums through _axpy measured 7-14% slower
        for i, c in enumerate(b):
            if c:
                s = out[i]
                if s:
                    t = log[c]
                    z = zech[log[s] - t]
                    out[i] = 0 if z is None else exp[t + z]
                else:
                    out[i] = c
        return _poly(spec, out)

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        return self._scale(self.spec.p - 1)  # -1 is the constant p - 1

    def __mul__(self, other: Poly | FieldElement) -> Poly:
        if isinstance(other, FieldElement):
            return self._scale(other.encoding)
        spec = _common_spec(self, other)
        a, b = self.ints, other.ints
        if not a or not b:
            return _poly(spec, [])
        na, nb = len(a) - a.count(0), len(b) - b.count(0)  # nonzero term counts
        if na * nb >= KRONECKER_TERMS * spec.d**2:
            return _poly(spec, _kronecker_product(spec, a, b))
        prod = [0] * (len(a) + len(b) - 1)
        if na > nb:  # one row per term of the sparser operand
            a, b = b, a
        for i, x in enumerate(a):
            if x:
                _axpy(spec, prod, i, b, x)
        return _poly(spec, prod)

    __rmul__ = __mul__

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if not other.ints:
            raise ZeroDivisionError("polynomial division by zero")
        spec = _common_spec(self, other)
        quo = [0] * max(len(self.ints) - len(other.ints) + 1, 0)
        rem = _reduce(spec, list(self.ints), other.ints, quo)
        return _poly(spec, quo), _poly(spec, rem)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    # -- calculus and evaluation ------------------------------------------------

    def derivative(self) -> Poly:
        """Formal derivative; characteristic-p collapses included."""
        exp, log, p = self.spec.exp, self.spec.log, self.spec.p
        return _poly(self.spec, [exp[log[c] + log[k % p]] if c and k % p else 0 for k, c in enumerate(self.ints) if k])

    def evaluate(self, x: FieldElement) -> FieldElement:
        r = x.encoding
        if not self.ints:
            return FieldElement(self.spec, 0)
        return FieldElement(self.spec, _horner(self.spec, self.ints[::-1], r)[-1] if r else self.ints[0])

    def multiplicity_at(self, rho: FieldElement) -> int:
        """Order of vanishing at x = rho (0 if rho is not a root): the x-adic
        order at rho = 0, elsewhere one synthetic division by x - rho per
        pass, whose Horner partial sums are the quotient and the value."""
        if not self.ints:
            raise ValueError("multiplicity of the zero polynomial is undefined")
        r = rho.encoding
        if len(self.ints) == 1:  # a nonzero constant
            return 0
        if not r:
            return _x_order(self.ints)
        return _divide_out(self.spec, self.ints[::-1], r, len(self.ints))[1]

    def shift(self, k: int) -> Poly:
        """Multiply by x^k."""
        return _poly(self.spec, [0] * k + list(self.ints)) if k else self

    # -- comparisons and rendering ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.spec == other.spec and self.ints == other.ints

    def __hash__(self) -> int:
        return hash((self.spec, self.ints))

    def render(self) -> str:
        """Ascending rendering: ``c0 + c1*x + c2*x^2 + ...``.  A prime-field
        coefficient renders as its encoding, as ``FieldElement.render`` does."""
        if not self.ints:
            return "0"
        spec, terms = self.spec, []
        for k, c in enumerate(self.ints):
            if not c:
                continue
            cs = str(c) if spec.d == 1 else FieldElement(spec, c).render()
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


def _axpy(spec: FieldSpec, out: list[int], offset: int, src: Sequence[int], w: int) -> None:
    """out[offset + k] += w * src[k] in place, over the nonzero encodings of
    ``src``, for a nonzero encoding w: the one accumulate step of the
    products, divisions and root walks, called once per row."""
    exp, log, zech, order = spec.exp, spec.log, spec.zech, spec.q - 1
    lw = log[w]
    for k, c in enumerate(src, offset):
        if c:
            t = log[c] + lw
            if t >= order:
                t -= order
            s = out[k]
            if s:
                z = zech[log[s] - t]
                out[k] = 0 if z is None else exp[t + z]
            else:
                out[k] = exp[t]


def _horner(spec: FieldSpec, desc: Sequence[int], r: int) -> list[int]:
    """The Horner partial sums of the descending encodings ``desc`` at the
    nonzero x = r: the quotient by x - r, highest first, then the value."""
    exp, log, zech, order = spec.exp, spec.log, spec.zech, spec.q - 1
    lr, acc, sums = log[r], 0, []
    for c in desc:  # acc r + c
        if acc:
            t = log[acc] + lr
            if t >= order:
                t -= order
            if c:
                z = zech[log[c] - t]
                acc = 0 if z is None else exp[t + z]
            else:
                acc = exp[t]
        else:
            acc = c
        sums.append(acc)
    return sums


def _divide_out(spec: FieldSpec, desc: Sequence[int], r: int, limit: int) -> tuple[Sequence[int], int]:
    """(desc / (x - r)^c, c) for the descending encodings ``desc`` with a
    nonzero leading term and the nonzero x = r: one synthetic division
    (``_horner``) per pass, for as long as the value at r is zero, at most
    ``limit`` times."""
    c = 0
    while c < limit:
        sums = _horner(spec, desc, r)
        if sums[-1]:
            break
        sums.pop()
        desc, c = sums, c + 1
    return desc, c


def _root_product(spec: FieldSpec, roots: Iterable[tuple[int, int]]) -> list[int]:
    """The ascending encodings of prod (x - rho)^m over the (encoding of rho,
    m) pairs.  Each factor is multiplied in by one pass: (x + r) sum c_k x^k
    has the coefficients r c_0, c_0 + r c_1, ..., c_(d-1) + r c_d, c_d."""
    exp, log = spec.exp, spec.log
    out = [1]
    for rho, m in roots:
        if not rho:  # x^m
            out = [0] * m + out
            continue
        r = exp[log[rho] + log[spec.p - 1]]  # -rho
        for _ in range(m):
            shifted = [0] + out
            _axpy(spec, shifted, 0, out, r)
            out = shifted
    return out


def _x_order(ints: tuple[int, ...]) -> int:
    """The x-adic order of a nonzero polynomial: its count of leading zero encodings."""
    return next(k for k, c in enumerate(ints) if c)


def _reduce(spec: FieldSpec, rem: list[int], divisor: Sequence[int], quo: list[int] | None = None) -> list[int]:
    """rem modulo the nonzero divisor, both ascending encodings: rem is
    reduced in place and returned trimmed.  A given ``quo``, zeros at the
    degrees of the quotient, receives the quotient."""
    exp, log, order = spec.exp, spec.log, spec.q - 1
    db = len(divisor) - 1
    lead = log[divisor[-1]]
    # -b / lead for the lower divisor terms b, so that the elimination adds
    shift = log[spec.p - 1] - lead
    row = [exp[(log[b] + shift) % order] if b else 0 for b in divisor[:-1]]
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db]
        if c:
            if quo is not None:
                quo[k] = exp[log[c] - lead]
            _axpy(spec, rem, k, row, c)
    del rem[db:]  # every term of degree >= db has been eliminated
    while rem and not rem[-1]:
        rem.pop()
    return rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (gcd(0, 0) = 0).  When either operand
    is a monomial c x^k, its monic divisors are the x^j with j <= k, so the
    gcd is x^min(ord_x a, ord_x b), with the order of 0 taken as infinite.
    Otherwise Euclid's remainders are formed in place on encoding lists."""
    spec = _common_spec(a, b)
    for m, other in ((a.ints, b.ints), (b.ints, a.ints)):
        if m and not any(m[:-1]):  # m is c x^k
            k = min(len(m) - 1, _x_order(other)) if other else len(m) - 1
            return _poly(spec, [0] * k + [1])
    r0, r1 = list(a.ints), list(b.ints)
    while r1:
        r0, r1 = r1, _reduce(spec, r0, r1)
    g = _poly(spec, r0)
    return g.monic() if r0 else g


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
    """Reduced rational function num/den over F_q (den monic, gcd = 1).

    ``den_roots`` records the factorization of den where it is known by
    construction: the (encoding of rho, m) pairs, rho distinct, m > 0, with
    den = prod (x - rho)^m, so rho = 0 carries den's x-order.  Only
    ``reduce_over_roots`` records one; ``__neg__`` and the scalar
    ``__mul__`` keep den and carry it, and every other constructor leaves
    None.  ``funcfield.valuations`` reads den's multiplicity at a branch
    point off it."""

    __slots__ = ("num", "den", "den_roots")

    def __init__(self, num: Poly, den: Poly | None = None):
        self.den_roots: tuple[tuple[int, int], ...] | None = None
        if den is not None and not den.ints:
            raise ZeroDivisionError("rational function with zero denominator")
        if den is None or not num.ints:  # num/1, or 0/1: 1 is monic and coprime to everything
            self.num, self.den = num, Poly.one(num.spec)
            return
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

    @classmethod
    def _of(cls, num: Poly, den: Poly, den_roots: tuple[tuple[int, int], ...] | None = None) -> RatFn:
        """num/den as given, for a num and a monic den already coprime (0/1
        for zero), with den's factorization when it is known."""
        out = cls.__new__(cls)
        out.num, out.den, out.den_roots = num, den, den_roots
        return out

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> RatFn:
        return cls(Poly.zero(spec))

    @classmethod
    def one(cls, spec: FieldSpec) -> RatFn:
        return cls(Poly.one(spec))

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

    def __neg__(self) -> RatFn:
        return RatFn._of(-self.num, self.den, self.den_roots)

    def __mul__(self, other: RatFn | FieldElement) -> RatFn:
        if isinstance(other, FieldElement):  # a zero product comes out as 0/1, with no record
            num = self.num._scale(other.encoding)
            return RatFn._of(num, self.den, self.den_roots) if num.ints else RatFn(num)
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
        return RatFn._of(n1 * n2, d1 * d2)

    __rmul__ = __mul__

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


def reduce_over_roots(num: Poly, shift: int, den: Poly, roots: Sequence[tuple[int, int]]) -> RatFn:
    """num / (x^shift den) reduced, for den = prod (x - rho)^m over the
    given (encoding of rho, m) pairs, the rho distinct; rho = 0 is x.

    Every common factor is a power of x or of some x - rho.  x, of
    exponent shift plus the m of rho = 0, cancels by the x-order k of num.
    Each other x - rho cancels by synthetic division (``_horner``) for as
    long as the value at rho is zero, at most m times, so a root that does
    not divide num costs one pass.  When no x - rho cancels, den is kept,
    shifted by shift - k (its x-order covers k - shift when that is
    positive); otherwise it is rebuilt from the exponents left.  No gcd
    and no long division is taken.  Every factor left, x last, is recorded
    on the result as its ``den_roots``, so their product is its den."""
    spec = num.spec
    if not num.ints:
        return RatFn(num)
    top = shift + sum(m for r, m in roots if not r)  # the exponent of x
    k = min(top, _x_order(num.ints))
    desc = num.ints[::-1][:len(num.ints) - k]  # num / x^k, descending
    left, cancelled = [], False
    for r, m in roots:
        if r:
            desc, c = _divide_out(spec, desc, r, m)
            cancelled = cancelled or c > 0
            if c < m:
                left.append((r, m - c))
    if top > k:
        left.append((0, top - k))
    if cancelled:
        den = _poly(spec, _root_product(spec, left))
    elif shift < k:
        den = _poly(spec, list(den.ints[k - shift:]))
    else:
        den = den.shift(shift - k)
    return RatFn._of(_poly(spec, list(desc[::-1])), den, tuple(left))


def _wrap(p: Poly) -> str:
    """Parenthesize a polynomial rendering unless it is a single bare atom:
    terms are joined by " + ", so a rendering without "+" has one term."""
    s = p.render()
    return s if "*" not in s and "+" not in s else f"({s})"


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
    """The sum of the fractions num/den as one unreduced fraction, with no
    gcd.  Each den is split as x^e u with u prime to x, and the fractions
    are grouped by u.  Over x^E u, E the largest e, the numerators of one
    group add as num x^(E - e), with no product; products are taken only
    across distinct x-free parts.  So the sum is over x^E times the
    product of the x-free parts whose group sum is nonzero.  The sum is
    zero iff its numerator is, and it is 0/1 when every group cancels."""
    split = []
    for num, den in terms:
        e = _x_order(den.ints)
        split.append((den.ints[e:], num, e))
    top = max((e for _, _, e in split), default=0)
    groups: dict[tuple[int, ...], Poly] = {}  # x-free part's encodings -> its numerators over x^top u
    for key, num, e in split:
        num = num.shift(top - e)
        groups[key] = groups[key] + num if key in groups else num
    total = common = None
    for key, num in groups.items():
        if num.ints:
            u = _poly(spec, list(key))
            total, common = (num, u) if common is None else (total * u + num * common, common * u)
    if common is None:
        return Poly.zero(spec), Poly.one(spec)
    return total, common.shift(top)
