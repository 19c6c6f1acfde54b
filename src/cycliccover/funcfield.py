"""Arithmetic in the function field F = E[y]/(relation), E = F_q(x).

Elements are y-coefficient vectors (a_0, ..., a_{n-1}) of rational
functions, kept reduced to y-degree below the cover degree after every
product: y^n collapses to f(x) on a Kummer curve and y^p to y + r(x) on
an Artin-Schreier curve.  Differentials are globally written as
(element) * dx, which is possible because x is a separating variable in
both families; no local uniformizer machinery exists anywhere.

Regularity questions are answered through ``valuation_bound``, which
scores each y-monomial a_j y^j at a place class by the exact valuations
of x - rho, y and dx there and takes the minimum.  At a branch place the
summand valuations are pairwise distinct mod the ramification index
(gcd(lambda_i, e_i) = 1 for Kummer, gcd(l_i, p) = 1 for Artin-Schreier),
so a uniquely attained minimum is the true valuation; over zero and
infinity the result is only a safe lower bound and is flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import Curve, KummerCurve, ram_data, require_valid
from .gf import FieldElement, nth_root_of_unity
from .polyrat import RatFn, residue_at_infinity


def _zeta(curve: KummerCurve) -> FieldElement:
    if curve.zeta is None:
        curve.zeta = nth_root_of_unity(curve.spec, curve.n)
    return curve.zeta


def _dy_coefficient(curve: Curve) -> RatFn:
    """dy = (coefficient) * y * dx on Kummer curves (f'/(n f)); on
    Artin-Schreier curves dy = (coefficient) * dx with coefficient -r'."""
    if curve.dy_coeff is None:
        if curve.kind == "kummer":
            inv_n = curve.spec.element(curve.n).inverse()
            curve.dy_coeff = RatFn(curve.f.derivative(), curve.f) * inv_n
        else:
            curve.dy_coeff = -curve.r_fn.derivative()
    return curve.dy_coeff


class FFElem:
    """Element sum a_j y^j of the function field, y-degree < cover degree."""

    __slots__ = ("curve", "coeffs")

    def __init__(self, curve: Curve, coeffs):
        deg = curve.degree
        cs = list(coeffs)
        if len(cs) != deg:
            raise ValueError(f"coefficient vector must have length {deg}")
        self.curve = curve
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, curve: Curve) -> FFElem:
        z = RatFn.zero(curve.spec)
        return cls(curve, (z,) * curve.degree)

    @classmethod
    def one(cls, curve: Curve) -> FFElem:
        return cls.monomial(curve, 0, RatFn.one(curve.spec))

    @classmethod
    def y(cls, curve: Curve) -> FFElem:
        return cls.monomial(curve, 1, RatFn.one(curve.spec))

    @classmethod
    def from_ratfn(cls, curve: Curve, a: RatFn) -> FFElem:
        return cls.monomial(curve, 0, a)

    @classmethod
    def monomial(cls, curve: Curve, j: int, a: RatFn) -> FFElem:
        deg = curve.degree
        if not 0 <= j < deg:
            raise ValueError(f"y-exponent {j} out of range for degree {deg}")
        z = RatFn.zero(curve.spec)
        coeffs = [z] * deg
        coeffs[j] = a
        return cls(curve, coeffs)

    # -- basic structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for a in self.coeffs)

    def _check(self, other: FFElem) -> None:
        if self.curve is not other.curve:
            raise ValueError("function field elements on mismatched curves")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.curve is other.curve and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((id(self.curve), self.coeffs))

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: FFElem) -> FFElem:
        self._check(other)
        return FFElem(self.curve, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: FFElem) -> FFElem:
        self._check(other)
        return FFElem(self.curve, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> FFElem:
        return FFElem(self.curve, [-a for a in self.coeffs])

    def scale(self, c: RatFn | FieldElement) -> FFElem:
        return FFElem(self.curve, [a * c for a in self.coeffs])

    def __mul__(self, other: FFElem) -> FFElem:
        self._check(other)
        curve = self.curve
        deg = curve.degree
        zero = RatFn.zero(curve.spec)
        raw = [zero] * (2 * deg - 1)
        for i, ai in enumerate(self.coeffs):
            if ai.is_zero:
                continue
            for j, bj in enumerate(other.coeffs):
                if not bj.is_zero:
                    raw[i + j] = raw[i + j] + ai * bj
        if curve.kind == "kummer":
            f = RatFn.from_poly(curve.f)
            out = list(raw[:deg])
            for k in range(deg, len(raw)):
                if not raw[k].is_zero:
                    out[k - deg] = out[k - deg] + raw[k] * f
        else:
            # y^p = y + r, applied once: exponents 2p-2 and below land < p
            r = curve.r_fn
            out = list(raw[:deg])
            for k in range(deg, len(raw)):
                if not raw[k].is_zero:
                    out[k - deg + 1] = out[k - deg + 1] + raw[k]
                    out[k - deg] = out[k - deg] + raw[k] * r
        return FFElem(curve, out)

    def __pow__(self, e: int) -> FFElem:
        if e < 0:
            raise ValueError("negative powers of function field elements are not supported")
        result = FFElem.one(self.curve)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- Galois action and trace ------------------------------------------------------

    def galois(self, j: int) -> FFElem:
        """Image under the j-th power of the cyclic generator:
        y -> zeta_n^j y (Kummer) or y -> y + j (Artin-Schreier)."""
        curve = self.curve
        deg = curve.degree
        if not 0 <= j < deg:
            raise ValueError(f"Galois index {j} out of range for degree {deg}")
        if j == 0:
            return self
        if curve.kind == "kummer":
            zeta_j = _zeta(curve) ** j
            out, w = [], curve.spec.one()
            for a in self.coeffs:
                out.append(a * w)
                w = w * zeta_j
            return FFElem(curve, out)
        shift = curve.spec.element(j)
        zero = RatFn.zero(curve.spec)
        out = [zero] * deg
        for k, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            w = curve.spec.one()  # shift^{k-m} built from the top down
            for m in range(k, -1, -1):
                c = curve.spec.element(math.comb(k, m)) * w
                if not c.is_zero:
                    out[m] = out[m] + a * c
                w = w * shift
        return FFElem(curve, out)

    def trace(self) -> RatFn:
        """Trace to E = F_q(x) by the coefficient rule: n*a_0 for Kummer,
        -a_{p-1} for Artin-Schreier."""
        curve = self.curve
        if curve.kind == "kummer":
            return self.coeffs[0] * curve.spec.element(curve.n)
        return -self.coeffs[-1]

    def trace_by_orbit(self) -> RatFn:
        """Independent trace: sum the full Galois orbit, read the y^0 part."""
        total = self
        for j in range(1, self.curve.degree):
            total = total + self.galois(j)
        return total.coeffs[0]

    # -- differential --------------------------------------------------------------------

    def exterior_d(self) -> FFDiff:
        """Exterior derivative as a global (element) * dx differential."""
        curve = self.curve
        dy = _dy_coefficient(curve)
        zero = RatFn.zero(curve.spec)
        out = [zero] * curve.degree
        if curve.kind == "kummer":
            # d(a_j y^j) = (a_j' + (j/n) (f'/f) a_j) y^j dx
            for j, a in enumerate(self.coeffs):
                if a.is_zero:
                    continue
                term = a.derivative()
                if j:
                    term = term + a * dy * curve.spec.element(j)
                out[j] = out[j] + term
        else:
            # d(a_j y^j) = a_j' y^j dx + j a_j y^{j-1} (-r') dx
            for j, a in enumerate(self.coeffs):
                if a.is_zero:
                    continue
                out[j] = out[j] + a.derivative()
                if j:
                    out[j - 1] = out[j - 1] + a * dy * curve.spec.element(j)
        return FFDiff(FFElem(curve, out))

    # -- rendering -------------------------------------------------------------------------

    def render(self) -> str:
        """Canonical form ``(a0) + (a1)*y + ... + (ak)*y^k`` (zero terms skipped)."""
        terms = []
        for k, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            part = f"({a.render()})"
            if k == 1:
                part += "*y"
            elif k > 1:
                part += f"*y^{k}"
            terms.append(part)
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"FFElem({self.render()})"


class FFDiff:
    """A meromorphic differential written globally as (element) * dx."""

    __slots__ = ("coeff",)

    def __init__(self, coeff: FFElem):
        self.coeff = coeff

    @classmethod
    def zero(cls, curve: Curve) -> FFDiff:
        return cls(FFElem.zero(curve))

    @property
    def curve(self) -> Curve:
        return self.coeff.curve

    @property
    def is_zero(self) -> bool:
        return self.coeff.is_zero

    def __add__(self, other: FFDiff) -> FFDiff:
        return FFDiff(self.coeff + other.coeff)

    def __sub__(self, other: FFDiff) -> FFDiff:
        return FFDiff(self.coeff - other.coeff)

    def __neg__(self) -> FFDiff:
        return FFDiff(-self.coeff)

    def scale(self, c: RatFn | FieldElement) -> FFDiff:
        return FFDiff(self.coeff.scale(c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FFDiff):
            return NotImplemented
        return self.coeff == other.coeff

    def __hash__(self) -> int:
        return hash(("dx", self.coeff))

    def render(self) -> str:
        if self.is_zero:
            return "0"
        inner = self.coeff.render()
        terms = sum(1 for a in self.coeff.coeffs if not a.is_zero)
        if terms > 1:
            inner = f"({inner})"
        return f"{inner} * dx"

    def __repr__(self) -> str:
        return f"FFDiff({self.render()})"


@dataclass(frozen=True)
class PlaceClass:
    """All points of X above one point of the projective line, with the
    local data shared by every point of the class."""

    kind: str  # "branch" | "over_zero" | "over_infinity"
    index: int | None  # 1-based branch index for kind == "branch"
    rho: FieldElement | None
    e: int
    v_y: int
    v_dx: int
    npoints: int

    def coeff_valuation(self, a: RatFn) -> int:
        """Exact valuation of a rational function of x at any point of
        the class (the x-adic order scaled by the ramification index)."""
        if self.kind == "branch":
            return self.e * a.root_multiplicity(self.rho)
        if self.kind == "over_zero":
            return a.root_multiplicity(self.rho)
        return a.degree_valuation()

    def label(self) -> str:
        if self.kind == "branch":
            return f"branch[{self.index}]@{self.rho.render()}"
        return self.kind

    @property
    def covers_zero(self) -> bool:
        """Whether this class is the fiber over x = 0."""
        return self.kind == "over_zero" or (self.kind == "branch" and self.rho.is_zero)


def place_classes(curve: Curve) -> tuple[PlaceClass, ...]:
    """Branch classes, the fiber over 0 when unbranched, and the fiber
    over infinity, in that order."""
    require_valid(curve)
    if curve.places is not None:
        return curve.places
    ram = ram_data(curve)
    kummer = curve.kind == "kummer"
    out = []
    for i, b in enumerate(ram.branch, start=1):
        v_y, v_dx = (b.lam, b.e - 1) if kummer else (-b.l, (b.e - 1) * (b.l + 1))
        out.append(PlaceClass("branch", i, b.rho, b.e, v_y, v_dx, b.g))
    if not any(b.rho.is_zero for b in ram.branch):
        out.append(PlaceClass("over_zero", None, curve.spec.zero(), 1, 0, 0, curve.degree))
    out.append(PlaceClass("over_infinity", None, None, 1, -curve.t if kummer else 0, -2, curve.degree))
    curve.places = tuple(out)
    return curve.places


def valuation_bound(obj: FFElem | FFDiff, place: PlaceClass) -> tuple[int, bool]:
    """Lower bound for the valuation of an element or differential at
    every point of the place class, with an exactness flag.

    The bound is min over nonzero y-monomials of v(a_j) + j v(y), plus
    v(dx) for differentials.  It is exact when a single monomial attains
    the minimum at a branch place; over zero and infinity different
    points of the class can see different cross-monomial cancellation, so
    only the bound is guaranteed there.
    """
    elem = obj.coeff if isinstance(obj, FFDiff) else obj
    if elem.is_zero:
        raise ValueError("valuation bound of the zero element is undefined")
    vals = [
        place.coeff_valuation(a) + j * place.v_y
        for j, a in enumerate(elem.coeffs)
        if not a.is_zero
    ]
    bound = min(vals)
    exact = place.kind == "branch" and vals.count(bound) == 1
    if isinstance(obj, FFDiff):
        bound += place.v_dx
    return bound, exact


def pairing(f: FFElem, omega: FFDiff) -> FieldElement:
    """Serre duality pairing of an H^1 representative against a
    differential: c * Res_inf(Tr(f * coeff(omega))), with c = -1/n on
    Kummer curves and c = 1 on Artin-Schreier curves."""
    if f.curve is not omega.curve:
        raise ValueError("pairing arguments on mismatched curves")
    curve = f.curve
    tr = (f * omega.coeff).trace()
    res = residue_at_infinity(tr)
    if curve.kind == "kummer":
        c = -(curve.spec.element(curve.n).inverse())
        return c * res
    return res
