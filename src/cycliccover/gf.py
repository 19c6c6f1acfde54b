"""Exact arithmetic in a finite field F_q, q = p^d.

A field is described by a ``FieldSpec``: the characteristic p and, for a
proper extension, a monic irreducible modulus m(z) over Z/p given as an
ascending coefficient list.  Elements are coefficient vectors of length d
over Z/p (d = 1 for prime fields), always fully reduced, so equality is
plain coefficient equality and every element has a unique representation.

The canonical integer encoding of an element reads its coefficients as
base-p digits: c0 + c1*p + c2*p^2 + ...  It orders the field elements
deterministically, which is what makes runs reproducible byte for byte
(in particular the choice of the primitive n-th root of unity below).
"""

from __future__ import annotations

from typing import Iterator, Sequence


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


# -- minimal Z/p polynomial helpers (integer coefficient lists, ascending) --
# Only what the irreducibility check and FieldElement need; the full
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


def _zp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        av = a[i] if i < len(a) else 0
        bv = b[i] if i < len(b) else 0
        out[i] = (av - bv) % p
    return _zp_trim(out)


def _zp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while a and len(a) >= len(b):
        k = len(a) - len(b)
        c = (a[-1] * inv_lead) % p
        q[k] = c
        for i, bi in enumerate(b):
            a[i + k] = (a[i + k] - c * bi) % p
        _zp_trim(a)
    return _zp_trim(q), a


def _zp_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo m; _zp_divmod without the quotient, for the
    extension-field multiply."""
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


def _zp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _zp_rem(a, b, p)
    return a


def _zp_is_irreducible(m: list[int], p: int) -> bool:
    # gcd(m, x^{p^i} - x mod m) must be constant for i = 1..floor(d/2)
    d = len(m) - 1
    x = [0, 1]
    frob = list(x)
    for _ in range(d // 2):
        e = p
        # raise frob to the p-th power mod m by square and multiply
        result = [1]
        base = list(frob)
        while e:
            if e & 1:
                result = _zp_mulmod(result, base, m, p)
            base = _zp_mulmod(base, base, m, p)
            e >>= 1
        frob = result
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


class FieldSpec:
    """Description of F_q = F_p[z]/(m(z)); immutable once constructed."""

    __slots__ = ("p", "modulus", "d", "q", "_zero", "_one")

    def __init__(self, p: int, modulus: Sequence[int] | None = None):
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
        self._zero = FieldElement(self, (0,) * self.d)
        self._one = FieldElement(self, (1,) + (0,) * (self.d - 1))

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
            coeffs = (value % self.p,) + (0,) * (self.d - 1)
            return FieldElement(self, coeffs)
        vals = [int(v) % self.p for v in value]
        if len(vals) > self.d:
            raise ValueError(f"coefficient sequence longer than degree {self.d}")
        vals += [0] * (self.d - len(vals))
        return FieldElement(self, tuple(vals))

    def from_encoding(self, k: int) -> FieldElement:
        """Element whose base-p digit expansion of k gives the coefficients."""
        if not 0 <= k < self.q:
            raise ValueError(f"encoding {k} out of range for q = {self.q}")
        coeffs = []
        for _ in range(self.d):
            k, c = divmod(k, self.p)
            coeffs.append(c)
        return FieldElement(self, tuple(coeffs))

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in canonical encoding order."""
        for k in range(self.q):
            yield self.from_encoding(k)

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
    """An element of F_q as a fully reduced coefficient vector over Z/p."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    # -- predicates and encodings ------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def encoding(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            k = k * self.spec.p + c
        return k

    def _check(self, other: FieldElement) -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("field elements from mismatched field specs")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> FieldElement:
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        spec = self.spec
        p = spec.p
        if spec.d == 1:
            return FieldElement(spec, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = [0] * (2 * spec.d - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        rem = _zp_rem(prod, list(spec.modulus), p)
        rem += [0] * (spec.d - len(rem))
        return FieldElement(spec, tuple(rem))

    def inverse(self) -> FieldElement:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        p = spec.p
        if spec.d == 1:
            return FieldElement(spec, (pow(self.coeffs[0], p - 2, p),))
        # extended Euclid over Z/p[z] against the modulus
        r0, r1 = list(spec.modulus), _zp_trim(list(self.coeffs))
        s0, s1 = [], [1]
        while r1:
            q, r = _zp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
        # r0 is a nonzero constant gcd; scale s0 by its inverse
        c = pow(r0[0], p - 2, p)
        inv = [(c * v) % p for v in s0]
        inv = _zp_rem(inv, list(spec.modulus), p)
        inv += [0] * (spec.d - len(inv))
        return FieldElement(spec, tuple(inv))

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero field element")
        return self * other.inverse()

    def __pow__(self, e: int) -> FieldElement:
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero field element")
            return self.inverse() ** (-e)
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons and rendering -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.modulus, self.coeffs))

    def render(self) -> str:
        """Canonical scalar rendering: bare integer for prime fields,
        an ascending z-polynomial in parentheses otherwise."""
        if self.spec.d == 1:
            return str(self.coeffs[0])
        terms = []
        for k, c in enumerate(self.coeffs):
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
        if len(terms) == 1 and self.coeffs[0] and all(c == 0 for c in self.coeffs[1:]):
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
        coeffs = []
        e = enc
        for _ in range(d):
            e, c = divmod(e, p)
            coeffs.append(c)
        m = coeffs + [1]
        if _zp_is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible polynomial of degree {d} over Z/{p} (unreachable)")


def nth_root_of_unity(spec: FieldSpec, n: int) -> FieldElement:
    """Deterministic primitive n-th root of unity in F_q.

    Returns the element of exact multiplicative order n whose canonical
    integer encoding is smallest; raises if n does not divide q - 1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if (spec.q - 1) % n != 0:
        raise ValueError(f"no primitive {n}-th root in field: {n} does not divide q-1 = {spec.q - 1}")
    factors = prime_factors(n)
    for k in range(1, spec.q):
        a = spec.from_encoding(k)
        if not (a**n == spec.one()):
            continue
        if all(a ** (n // ell) != spec.one() for ell in factors):
            return a
    raise ValueError(f"no element of order {n} found (unreachable for valid input)")
