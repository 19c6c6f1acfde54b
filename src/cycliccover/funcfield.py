"""Arithmetic in the function field F = E[y]/(relation), E = F_q(x).

Both families are cyclic covers of P^1.  ``FFElem``, ``FFDiff`` and
the pairing have one code path each that reads the family facts from
``curve.family_table``, built once per curve:

                   Kummer y^n = f          Artin-Schreier y^p - y = r
    relation       y^n = f                 y^p = r + y
    dy             (f'/(n f)) y dx         -r' dx
    trace index k  0                       p - 1
    c Tr(y^k)      (-1/n) n = -1           1 (-1) = -1
    pairing terms  a_i b_j, i + j = 0;      a_i b_j, i + j = p - 1
                   f a_i b_j, i + j = n     or i + j = 2p - 2

An element holds its ``terms``: the pairs (j, a_j) with a_j a nonzero
rational function, j ascending, reduced by the relation after every
product.  ``FFElem(curve, terms)`` takes (j, a) pairs, adds those at
one j and drops zero sums; there is no dense form.  The basis elements
are single y-monomials and a de Rham slot has at most two terms, so
every walk, sum and negation visits only the nonzero coefficients.
Differentials are (element) * dx, since x is a separating variable in
both families; no local uniformizer machinery exists anywhere.

``pairing_matrix`` pairs lists of elements and differentials: it forms
only the y coefficient of f * coeff(omega) that the trace reads (the
reach rows, ``_reach``) and sums their residues on unreduced fractions,
with no gcd, each once per key: the x-free parts of a_i and b_j, the
reach row and their summed x-order.
``differential_terms`` lists the terms of d(a_j y^j) unreduced;
``exterior_d`` reduces them, and the cocycle check tests their sum for
zero without reducing.

Regularity questions are answered through ``valuations``, which scores
each y-monomial a_j y^j at every place class by the exact valuations of
x - rho, y and dx there and takes the minimum per class.  That minimum
is the valuation of the class, min_P v_P over its points P, for every
class ``place_classes`` builds: the minimising monomials share one
residue of j mod the ramification index, so divided by one of them they
leave a nonzero polynomial, of degree below the number of points, in a
unit with pairwise distinct values at those points (Vandermonde; the
proof is in ``valuation_bound``).  An element's valuations come from one
walk over its nonzero y coefficients and are kept on the element.
``valuation_bound`` reads one class from the walk, and ``poles`` zips it
with the place classes to find the poles of an element or differential
off an allowed locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .curve import Curve, ram_data, require_valid
from .gf import FieldElement
from .polyrat import Poly, RatFn, _x_order, fraction_residue


@dataclass(frozen=True)
class FamilyTable:
    """The family facts of one cover of degree deg (see the module docstring)."""

    relation: RatFn  # y^deg = relation, plus y when relation_has_y
    relation_has_y: bool
    dy_coeff: RatFn  # dy = dy_coeff * y^dy_exponent dx
    dy_exponent: int
    trace_index: int  # the one k < deg with Tr(y^k) != 0


def _family_table(curve: Curve) -> FamilyTable:
    """The curve's family table, built on first use; the cover hypotheses are not checked."""
    if curve.family_table is None:
        if curve.kind == "kummer":
            inv_n = curve.spec.element(curve.n).inverse()
            curve.family_table = FamilyTable(
                relation=RatFn.from_poly(curve.f), relation_has_y=False,
                dy_coeff=RatFn(curve.f.derivative(), curve.f) * inv_n, dy_exponent=1,
                trace_index=0,
            )
        else:
            curve.family_table = FamilyTable(
                relation=curve.r_fn, relation_has_y=True,
                dy_coeff=-curve.r_fn.derivative(), dy_exponent=0,
                trace_index=curve.p - 1,
            )
    return curve.family_table


class FFElem:
    """Element sum a_j y^j of the function field, y-degree < cover degree,
    held as ``terms``: the (j, a_j) pairs with a_j != 0, j ascending."""

    __slots__ = ("curve", "terms", "_valuations")

    def __init__(self, curve: Curve, terms):
        """The element sum a y^j over (j, a) pairs, 0 <= j < deg: the pairs
        at one j are added and the zero sums dropped."""
        deg = curve.degree
        pairs = list(terms)
        if any(not 0 <= j < deg for j, _ in pairs):
            raise ValueError(f"y-exponent out of range for degree {deg}")
        self.curve = curve
        self.terms = _summed(pairs)
        self._valuations: tuple[int, ...] | None = None  # valuations, on first use

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of(cls, curve: Curve, terms: tuple[tuple[int, RatFn], ...]) -> FFElem:
        """The element of terms already nonzero, in range and ascending."""
        elem = cls.__new__(cls)
        elem.curve, elem.terms, elem._valuations = curve, terms, None
        return elem

    @classmethod
    def zero(cls, curve: Curve) -> FFElem:
        return cls._of(curve, ())

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
        return cls._of(curve, ((j, a),) if a.num.ints else ())

    # -- basic structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: FFElem) -> None:
        if self.curve is not other.curve:
            raise ValueError("function field elements on mismatched curves")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.curve is other.curve and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((id(self.curve), self.terms))

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: FFElem) -> FFElem:
        self._check(other)
        return FFElem._of(self.curve, _summed(self.terms + other.terms))

    def __sub__(self, other: FFElem) -> FFElem:
        return self + -other

    def __neg__(self) -> FFElem:
        return FFElem._of(self.curve, tuple((j, -a) for j, a in self.terms))

    def __mul__(self, other: FFElem) -> FFElem:
        """The reduced product.  No report computes it, since the pairing
        forms one y coefficient only; tests and the benchmark's call
        counter (``bench/tracing.py``) name it, so it stays."""
        self._check(other)
        curve = self.curve
        deg = curve.degree
        raw = _summed((i + j, a * b) for i, a in self.terms for j, b in other.terms)
        # y^deg = relation (+ y), applied once: exponents up to 2 deg - 2 land below deg
        table = _family_table(curve)
        out = []
        for k, c in raw:
            if k < deg:
                out.append((k, c))
                continue
            out.append((k - deg, c * table.relation))
            if table.relation_has_y:
                out.append((k - deg + 1, c))
        return FFElem._of(curve, _summed(out))

    # -- differential --------------------------------------------------------------------

    def differential_terms(self) -> list[tuple[int, Poly, Poly]]:
        """The terms of d(sum a_j y^j) = sum a_j' y^j dx + j a_j y^(j-1) dy,
        with dy = c y^e dx, as (y index, num, den), unreduced: for a_j = u/v,
        a_j' = (u' v - u v')/v^2 at index j, and j u c_num/(v c_den) at
        index j - 1 + e."""
        curve = self.curve
        table = _family_table(curve)
        c = table.dy_coeff
        out = []
        for j, a in self.terms:
            u, v = a.num, a.den
            out.append((j, u.derivative() * v - u * v.derivative(), v * v))
            if j:
                out.append((j - 1 + table.dy_exponent, u * c.num * curve.spec.element(j), v * c.den))
        return out

    def exterior_d(self) -> FFDiff:
        """Exterior derivative as a global (element) * dx differential: the
        sum of the reduced ``differential_terms``."""
        terms = _summed((k, RatFn(num, den)) for k, num, den in self.differential_terms())
        return FFDiff(FFElem._of(self.curve, terms))

    # -- rendering -------------------------------------------------------------------------

    def render(self) -> str:
        """Canonical form ``(a0) + (a1)*y + ... + (ak)*y^k`` (zero terms skipped)."""
        parts = []
        for k, a in self.terms:
            part = f"({a.render()})"
            if k == 1:
                part += "*y"
            elif k > 1:
                part += f"*y^{k}"
            parts.append(part)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FFElem({self.render()})"


def _summed(pairs) -> tuple[tuple[int, RatFn], ...]:
    """The terms of sum a y^j over (j, a) pairs: the nonzero sums per j, j ascending."""
    out: dict[int, RatFn] = {}
    for j, a in pairs:
        out[j] = out[j] + a if j in out else a
    return tuple((j, out[j]) for j in sorted(out) if out[j].num.ints)


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
        if len(self.coeff.terms) > 1:
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
    position: int  # the class's index in place_classes

    @cached_property
    def label(self) -> str:
        """The class's name in reports, rendered once per class."""
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
        out.append(PlaceClass("branch", i, b.rho, b.e, v_y, v_dx, b.g, len(out)))
    if not any(b.rho.is_zero for b in ram.branch):
        out.append(PlaceClass("over_zero", None, curve.spec.zero(), 1, 0, 0, curve.degree, len(out)))
    out.append(PlaceClass("over_infinity", None, None, 1, -curve.t if kummer else 0, -2, curve.degree, len(out)))
    curve.places = tuple(out)
    return curve.places


def valuations(obj: FFElem | FFDiff) -> tuple[int, ...]:
    """The valuation of a nonzero element or differential at each place
    class, in ``place_classes`` order: min over the nonzero y-monomials of
    v(a_j) + j v(y), plus v(dx) for a differential (see
    ``valuation_bound``).  An element's tuple comes from one walk over its
    nonzero y coefficients and is kept on the element, which is immutable;
    a differential adds v(dx) to its coefficient's tuple."""
    if isinstance(obj, FFDiff):
        return tuple(v + place.v_dx for v, place in zip(valuations(obj.coeff), place_classes(obj.curve)))
    if obj._valuations is None:
        places = place_classes(obj.curve)
        best = None
        for j, a in obj.terms:
            num, den = a.num, a.den
            scores = []
            for place in places:
                if place.rho is None:  # over infinity: deg den - deg num
                    v = len(den.ints) - len(num.ints)
                else:
                    v = place.e * (num.multiplicity_at(place.rho) - den.multiplicity_at(place.rho))
                scores.append(v + j * place.v_y)
            best = scores if best is None else list(map(min, best, scores))
        if best is None:
            raise ValueError("valuation of the zero element is undefined")
        obj._valuations = tuple(best)
    return obj._valuations


def valuation_bound(obj: FFElem | FFDiff, place: PlaceClass) -> int:
    """The valuation of a nonzero element or differential at the place
    class: min over the points P of the class of v_P(obj).  It is read
    from the element's ``valuations`` tuple, one walk per element over its
    nonzero y coefficients, plus v(dx) for a differential.

    It is computed as min over nonzero y-monomials of v(a_j) + j v(y),
    plus v(dx) for differentials (v(dx) is the same at every point of the
    class).  Every point has v_P >= that minimum; some point attains it.
    Let k be the least j of the minimising monomials.  They have j = k
    mod e: gcd(lambda_i, e_i) = 1 at a Kummer branch place, gcd(l_i, p) = 1
    at an Artin-Schreier one, and e = 1 over 0 and infinity.  So h/(a_k y^k)
    is sum_m c_m u^m plus terms of positive valuation, where each c_m is a
    rational function of x of valuation 0, hence with one nonzero value at
    every point, the degree in m is below the number of points, and u is a
    unit whose values at those points are pairwise distinct:
      - Kummer over 0, resp. infinity: u = y, resp. y/x^t, whose values
        are the n-th roots of f(0), resp. of the leading coefficient of f;
      - Kummer branch place: u = y^e/(x - rho)^lambda, whose values are
        the g_i-th roots of a nonzero constant;
      - Artin-Schreier over 0, resp. infinity: u = y, whose values are the
        p roots of T^p - T - r(0), resp. T^p - T - r(infinity);
      - Artin-Schreier branch place: one point, nothing to show.
    A nonzero polynomial of degree below the number of points cannot vanish
    at all of those values (Vandermonde), so h/(a_k y^k) is a unit at some
    point, and there v_P(h) is the minimum.  See Stichtenoth, Algebraic
    Function Fields and Codes, 3.3, and Neukirch, Algebraic Number Theory,
    II.6 (Newton polygons).
    """
    if isinstance(obj, FFDiff):
        return valuations(obj.coeff)[place.position] + place.v_dx
    return valuations(obj)[place.position]


def poles(obj: FFElem | FFDiff, allowed: Callable[[PlaceClass], bool]) -> list[tuple[PlaceClass, int]]:
    """The place classes outside the allowed locus where obj has a pole,
    each with its (negative) valuation; the zero element has none."""
    elem = obj.coeff if isinstance(obj, FFDiff) else obj
    if elem.is_zero:
        return []
    return [
        (place, value)
        for place, value in zip(place_classes(elem.curve), valuations(obj))
        if value < 0 and not allowed(place)
    ]


def _reach(curve: Curve) -> list[tuple[int, RatFn | None]]:
    """The (s, factor) rows of the pairing: a term a_i of f meets the term
    of omega at s - i, times the factor when it is not None (see
    ``pairing_matrix``)."""
    table = _family_table(curve)
    deg, k = curve.degree, table.trace_index
    reach = [(k, None), (k + deg, table.relation)]
    if table.relation_has_y and k:
        reach.append((k + deg - 1, None))
    return reach


def pairing_matrix(curve: Curve, omegas: list[FFDiff], columns: list[FFElem]) -> list[list[int]]:
    """The Serre duality pairings c * Res_inf(Tr(h * coeff(w))), c = -1/n
    for Kummer and 1 for Artin-Schreier, as encodings, for w in ``omegas``
    (rows) and h in ``columns``; arguments on other curves are refused.

    Only the y^k coefficient the trace reads is formed, k the trace index:
    the terms a_i b_j with i + j = k, with i + j = k + deg times the
    relation, and, when the relation has a y term and k > 0, with
    i + j = k + deg - 1 (the rows of ``_reach``).  The residue is linear,
    so it is summed over the terms' unreduced num/den products, with no
    gcd, and scaled by c Tr(y^k), which is -1 in both families:
      - Kummer, k = 0: Tr(1) = n, so c Tr(1) = (-1/n) n = -1;
      - Artin-Schreier, k = p - 1: Tr(y^(p-1)) = -1, so c Tr(y^(p-1)) = -1.
    So every entry is the negated residue sum.

    The columns' terms are indexed by y index, so a term b_j of w and a
    reach row (s, factor) visit only the columns with a term at s - j.
    Writing each coefficient as x^m u / v with u, v prime to x, the residue
    of a term pair depends only on the two x-free parts, the reach row and
    the sum of the two m: the residue of each such key is computed once.  A
    pair whose product has degree below -1 has residue 0 and is skipped."""
    if not (omegas and columns):  # nothing to pair: the family table is not needed
        return [[] for _ in omegas]
    spec = curve.spec
    if any(h.curve is not curve for h in columns) or any(w.curve is not curve for w in omegas):
        raise ValueError("function field elements on mismatched curves")
    parts: dict[tuple, int] = {}  # x-free parts (u, v) by encodings -> a small id

    def split(a: RatFn) -> tuple[int, int, int, Poly, Poly]:
        """(m, deg a, id, u, v) with a = x^m u / v, u and v prime to x, and
        deg a = m + deg u - deg v."""
        num, den = a.num.ints, a.den.ints
        e, f = _x_order(num), _x_order(den)
        u, v = Poly.from_encodings(spec, num[e:]), Poly.from_encodings(spec, den[f:])
        return e - f, len(num) - len(den), parts.setdefault((u.ints, v.ints), len(parts)), u, v

    by_index: dict[int, list[tuple[int, tuple[int, int, int, Poly, Poly]]]] = {}
    for col, h in enumerate(columns):
        for i, a in h.terms:
            by_index.setdefault(i, []).append((col, split(a)))
    reach = [(s, factor, 0 if factor is None else len(factor.num.ints) - len(factor.den.ints))
             for s, factor in _reach(curve)]
    residues: dict[tuple[int, int, int, int], int] = {}
    out = []
    for w in omegas:
        totals = [0] * len(columns)
        for j, b in w.coeff.terms:
            m_b, deg_b, id_b, u_b, v_b = split(b)
            for row, (s, factor, deg_f) in enumerate(reach):
                for col, (m_a, deg_a, id_a, u_a, v_a) in by_index.get(s - j, ()):
                    if deg_a + deg_b + deg_f < -1:
                        continue
                    m = m_a + m_b
                    key = (id_a, id_b, row, m)
                    res = residues.get(key)
                    if res is None:
                        num, den = u_a * u_b, v_a * v_b
                        if factor is not None:
                            num, den = num * factor.num, den * factor.den
                        num, den = (num.shift(m), den) if m >= 0 else (num, den.shift(-m))
                        res = residues[key] = fraction_residue(num, den)
                    totals[col] = spec.add(totals[col], res)
        out.append([spec.neg(t) for t in totals])
    return out
