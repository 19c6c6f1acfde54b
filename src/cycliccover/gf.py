"""Exact arithmetic in a finite field F_q, q = p^d.

A field is described by a ``FieldSpec``: the characteristic p and, for a
proper extension, a monic irreducible modulus m(z) over Z/p given as an
ascending coefficient list.  An element c0 + c1*z + ... + c_{d-1}*z^{d-1}
(d = 1 for prime fields) is one int, its canonical encoding
c0 + c1*p + c2*p^2 + ..., which reads the coefficients as base-p digits.
The encoding is unique, so equality is integer equality, and it orders the
field deterministically, which is what makes runs reproducible byte for
byte (in particular the choice of the primitive element g below).

Arithmetic is table lookup, the same for prime and extension fields (Zech
logarithms; Huber, IEEE Trans. Inf. Theory 36(4), 1990).  ``FieldSpec``
takes the primitive element g of smallest encoding and tabulates
``exp[i]`` = g^i (stored over two periods, 0 <= i < 2(q - 1), so a sum of
two logarithms needs no reduction), ``log[a]`` with g^log[a] = a for
a != 0, and the Zech logarithm ``zech[i]`` = log(1 + g^i) (None where
1 + g^i = 0).  Then g^i * g^j = g^(i + j) and g^i + g^j = g^(i + zech[j - i]);
a negative index j - i wraps modulo q - 1 by Python's own indexing.  The
``FieldSpec`` methods read the tables for one scalar operation, which is
what ``FieldElement`` and single scalars use; the polynomial coefficient
loops in ``polyrat`` read ``exp``, ``log`` and ``zech`` inline, by the
rules stated there, and no other module reads them.  For d >= 2 the
search for g skips the constants, whose order divides p - 1 < q - 1.
The powers of g come from ``_power_walk``: the digits of the current
power sit in one int, multiplication by g is two lookups in tables of
p^ceil(d/2) entries, one per half of the digits, and one integer compare
reduces every digit mod p at once.  The tables take O(q) time and about
90 bytes per element: at the input budget q = 2^16 (``MAX_Q``) about
6 MB, built in under 0.1 s.

``FieldSpec.shared(p, modulus)`` hands out one spec per (p, modulus), so a
sweep builds each field's tables once.  It keeps the most recently used
specs while their q sum to at most ``MAX_Q``, so the shared tables never
outweigh one field at the budget.
"""

from __future__ import annotations

from typing import Sequence

MAX_Q = 2**16  # largest field size q = p^d; the tables hold O(q) entries
_SHARED: dict[tuple, FieldSpec] = {}  # FieldSpec.shared, least recently used first; total q <= MAX_Q


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def digits(k: int, base: int, count: int) -> list[int]:
    """The lowest ``count`` base-``base`` digits of k, least significant first."""
    out = []
    for _ in range(count):
        k, c = divmod(k, base)
        out.append(c)
    return out


# -- minimal Z/p polynomial helpers (integer coefficient lists, ascending) --
# Only what the irreducibility test and the table build need; the full
# polynomial layer over F_q lives in polyrat.


def _zp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _zp_trim(prod)


def _zp_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo m."""
    a = _zp_trim(list(a))
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm:
        k = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[i + k] = (a[i + k] - c * mi) % p
        _zp_trim(a)
    return a


def _zp_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    return _zp_rem(_zp_mul(a, b, p), m, p)


def _zp_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e modulo m by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _zp_mulmod(result, a, m, p)
        a = _zp_mulmod(a, a, m, p)
        e >>= 1
    return result


def _zp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _zp_rem(a, b, p)
    return a


def _zp_is_irreducible(m: list[int], p: int) -> bool:
    # gcd(m, x^{p^i} - x mod m) must be constant for i = 1..floor(d/2)
    d = len(m) - 1
    frob = [0, 1]
    for _ in range(d // 2):
        frob = _zp_powmod(frob, p, m, p)
        diff = list(frob)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        _zp_trim(diff)
        if diff:
            g = _zp_gcd(m, diff, p)
            if len(g) - 1 >= 1:
                return False
        else:
            # x^{p^i} = x mod m: m divides x^{p^i} - x, so m splits
            return False
    return True


def _power_walk(p: int, m: list[int], g_code: int, order: int) -> list[int]:
    """The encodings of g^0, ..., g^(order - 1) for g of encoding ``g_code``
    in Z/p[z]/(m), by one fixed step of integer arithmetic per power.

    The walk holds an element's d digits in one int, ``w`` = bitlen(p) + 1
    bits per digit (its wide form).  Multiplication by g is Z/p-linear, so
    the image of an element is the image of its low h = floor(d/2) digits
    plus the image of its high d - h digits, each read from a table of at
    most p^ceil(d/2) entries keyed by the wide half.  Both images are
    reduced, so every slot of the sum is below 2p, and one compare reduces
    all slots mod p at once: adding 2^(w-1) - p to a slot sets its top bit
    exactly when the slot is >= p.  A third table takes a wide half back to
    its base-p encoding.
    """
    d = len(m) - 1
    w, h = p.bit_length() + 1, d // 2
    offset = sum(((1 << w - 1) - p) << w * i for i in range(d))
    tops = sum(1 << w * i + w - 1 for i in range(d))

    def mod_p(s: int) -> int:
        return s - (((s + offset) & tops) >> w - 1) * p

    # wide images of g z^i, i < d: multiply by z and fold z^d = -(m_0 + ... + m_{d-1} z^{d-1})
    images, col = [], digits(g_code, p, d)
    for _ in range(d):
        images.append(sum(c << w * i for i, c in enumerate(col)))
        col = [(c - col[-1] * mi) % p for c, mi in zip([0] + col[:-1], m)]

    def tables(start: int, count: int) -> tuple[dict, dict]:
        """Wide form of g times the digits start..start+count-1, and the
        base-p encoding of those digits, keyed by their wide form."""
        keys, values, codes = [0], [0], [0]
        for i in range(count):
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(mod_p(multiples[-1] + images[start + i]))
            keys = [k + (c << w * i) for c in range(p) for k in keys]
            values = [mod_p(v + x) for x in multiples for v in values]
            codes = [k + c * p**i for c in range(p) for k in codes]
        return dict(zip(keys, values)), dict(zip(keys, codes))

    low, _ = tables(0, h)
    high, decode = tables(h, d - h)  # d - h >= h, so decode covers both halves
    mask, half = (1 << w * h) - 1, p**h
    wide, power = [0] * order, 1
    for i in range(order):
        wide[i] = power
        power = mod_p(low[power & mask] + high[power >> w * h])
    return [decode[x & mask] + half * decode[x >> w * h] for x in wide]


class FieldSpec:
    """Description of F_q = F_p[z]/(m(z)) and its arithmetic on encodings;
    immutable once constructed."""

    __slots__ = ("p", "modulus", "d", "q", "exp", "log", "zech", "_zero", "_one")

    def __init__(self, p: int, modulus: Sequence[int] | None = None):
        d = 1 if modulus is None else len(modulus) - 1
        if isinstance(p, int) and (d >= MAX_Q.bit_length() or p**d > MAX_Q):
            raise ValueError(f"field size {p}^{d} exceeds the budget {MAX_Q}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic {p!r} is not prime")
        self.p = p
        if modulus is None:
            self.modulus = None
            self.d = 1
        else:
            m = [c % p for c in modulus]
            while m and m[-1] == 0:
                m.pop()
            if len(m) - 1 < 2:
                raise ValueError("extension modulus must have degree >= 2")
            if m[-1] != 1:
                raise ValueError("extension modulus must be monic")
            if not _zp_is_irreducible(m, p):
                raise ValueError("extension modulus is not irreducible over Z/p")
            self.modulus = tuple(m)
            self.d = len(m) - 1
        self.q = p**self.d
        self._build_tables()
        self._zero = FieldElement(self, 0)
        self._one = FieldElement(self, 1)

    @classmethod
    def shared(cls, p: int, modulus: Sequence[int] | None = None) -> FieldSpec:
        """The spec of (p, modulus), shared with earlier calls while it is
        held (see the module docstring); raises as the constructor does."""
        key = (p, None if modulus is None else tuple(modulus))
        spec = _SHARED.pop(key, None) or cls(p, modulus)
        _SHARED[key] = spec  # dicts keep insertion order: the oldest use comes first
        while sum(s.q for s in _SHARED.values()) > MAX_Q:
            del _SHARED[next(iter(_SHARED))]
        return spec

    def _build_tables(self) -> None:
        p, d, order = self.p, self.d, self.q - 1
        m = list(self.modulus or (0, 1))  # F_p = Z/p[z]/(z)
        # g is primitive iff g^((q-1)/r) != 1 for every prime r dividing q - 1;
        # a constant's order divides p - 1 < q - 1, so for d >= 2 the search starts at z
        factors = prime_factors(order)
        for g_code in range(1 if d == 1 else p, self.q):
            g = _zp_trim(digits(g_code, p, d))
            if all(_zp_powmod(g, order // r, m, p) != [1] for r in factors):
                break
        exp = _power_walk(p, m, g_code, order)
        log: list = [None] * self.q
        for i, a in enumerate(exp):
            log[a] = i
        # 1 + a adds 1 to the lowest base-p digit of a's encoding
        self.zech = [log[a - a % p + (a + 1) % p] for a in exp]
        self.exp = exp + exp
        self.log = log

    # -- arithmetic on encodings ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        i = self.log[a]
        z = self.zech[self.log[b] - i]
        return 0 if z is None else self.exp[i + z]

    def neg(self, a: int) -> int:
        # -1 is the constant p - 1
        return self.exp[self.log[a] + self.log[self.p - 1]] if a else 0

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]] if a and b else 0

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return self.exp[-self.log[a]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    # -- elements -------------------------------------------------------------

    def zero(self) -> FieldElement:
        return self._zero

    def one(self) -> FieldElement:
        return self._one

    def element(self, value: int | Sequence[int]) -> FieldElement:
        """Coerce an integer (constant) or coefficient sequence to an element."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        vals = [int(v) % self.p for v in value]
        if len(vals) > self.d:
            raise ValueError(f"coefficient sequence longer than degree {self.d}")
        return FieldElement(self, sum(c * self.p**i for i, c in enumerate(vals)))

    def from_encoding(self, k: int) -> FieldElement:
        """Element whose base-p digit expansion of k gives the coefficients."""
        if not 0 <= k < self.q:
            raise ValueError(f"encoding {k} out of range for q = {self.q}")
        return FieldElement(self, k)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.p == other.p and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __repr__(self) -> str:
        if self.d == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, d={self.d})"


class FieldElement:
    """An element of F_q, held as its canonical encoding."""

    __slots__ = ("spec", "encoding")

    def __init__(self, spec: FieldSpec, encoding: int):
        self.spec = spec
        self.encoding = encoding

    # -- predicates and coefficients ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.encoding

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients c0, ..., c_{d-1} over Z/p: the digits of the encoding."""
        return tuple(digits(self.encoding, self.spec.p, self.spec.d))

    def _check(self, other: FieldElement) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("field elements from mismatched field specs")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.spec, self.spec.add(self.encoding, other.encoding))

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        spec = self.spec
        return FieldElement(spec, spec.add(self.encoding, spec.neg(other.encoding)))

    def __neg__(self) -> FieldElement:
        return FieldElement(self.spec, self.spec.neg(self.encoding))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.spec, self.spec.mul(self.encoding, other.encoding))

    def inverse(self) -> FieldElement:
        return FieldElement(self.spec, self.spec.inv(self.encoding))

    def __pow__(self, e: int) -> FieldElement:
        return FieldElement(self.spec, self.spec.pow(self.encoding, e))

    # -- comparisons and rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.encoding == other.encoding and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.encoding)

    def render(self) -> str:
        """Canonical scalar rendering: bare integer for prime fields,
        an ascending z-polynomial in parentheses otherwise."""
        if self.spec.d == 1:
            return str(self.encoding)
        coeffs = self.coeffs
        terms = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("z" if c == 1 else f"{c}*z")
            else:
                terms.append(f"z^{k}" if c == 1 else f"{c}*z^{k}")
        if not terms:
            return "0"
        if len(terms) == 1 and coeffs[0] and all(c == 0 for c in coeffs[1:]):
            return terms[0]
        return "(" + " + ".join(terms) + ")"

    def __repr__(self) -> str:
        return f"FieldElement({self.render()} in F_{self.spec.q})"


def find_irreducible_poly(p: int, d: int) -> list[int]:
    """Ascending coefficients of the monic irreducible of degree d over
    Z/p whose lower-coefficient encoding (base-p digits) is smallest."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 2:
        raise ValueError("degree must be at least 2")
    for enc in range(p**d):
        m = digits(enc, p, d) + [1]
        if _zp_is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible polynomial of degree {d} over Z/{p} (unreachable)")
