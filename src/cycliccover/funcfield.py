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
one j and drops zero sums, so a sum of elements is the constructor on
their joined terms; there is no dense form.  The basis elements
are single y-monomials and a de Rham slot has at most two terms, so
every walk, sum and negation visits only the nonzero coefficients.
Differentials are (element) * dx, since x is a separating variable in
both families; no local uniformizer machinery exists anywhere.

``pairing_matrix`` pairs lists of elements and differentials: it forms
only the y coefficient of f * coeff(omega) that the trace reads (the
reach rows, ``_reach``) and sums their residues on unreduced fractions,
with no gcd, each once per key: the x-free parts of a_i and b_j, the
reach row and their summed x-order.  ``differential_terms`` lists the
terms of d(a_j y^j) unreduced, and the cocycle check tests their sum for
zero without reducing.

Regularity questions are answered by one walk, ``_walk``, which scores
each y-monomial a_j y^j at each of a list of place classes by the exact
valuations of x - rho and y there and takes the minimum per class.  That
minimum is the valuation of the class, min_P v_P over its points P, for
every class of the curve's ramification table ``curve.place_classes``:
the minimising monomials share one residue of j mod the ramification
index, so divided by one of them they leave a nonzero polynomial, of
degree below the number of points, in a unit with pairwise distinct
values at those points (Vandermonde; the proof is in ``valuation_bound``).
A coefficient is reduced, so at each finite class the walk takes den's
multiplicity first and num's only where den does not vanish.  A basis
coefficient, like the table's r and dy, carries its den's factorization
(``RatFn.den_roots``, recorded by ``polyrat.reduce_over_roots``, x among
its factors), and its multiplicity at every finite class is read off it;
a divisor row's coefficient, 1/g_mu included, carries none and is divided
out by synthetic division (``Poly.multiplicity_at``), so those rows stay
a from-scratch check.  ``valuations`` walks every class and
keeps the tuple on the element, and ``valuation_bound`` reads one class
of it.  ``poles`` finds the poles of an element or differential off an
allowed locus: it reads the kept tuple when there is one, and otherwise
walks only the classes off the locus and keeps nothing, so each pole is
reported with its exact class valuation.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .curve import Curve, PlaceClass, place_classes
from .polyrat import Poly, RatFn, _x_order, fraction_residue, reduce_over_roots


class FamilyTable(NamedTuple):
    """The family facts of one cover of degree deg (see the module docstring)."""

    relation: RatFn  # y^deg = relation, plus y when relation_has_y
    relation_has_y: bool
    dy_coeff: RatFn  # dy = dy_coeff * y^dy_exponent dx
    dy_exponent: int
    trace_index: int  # the one k < deg with Tr(y^k) != 0


def _family_table(curve: Curve) -> FamilyTable:
    """The curve's family table, built on first use; the cover hypotheses are not checked."""
    if curve.family_table is None:
        if curve.kind == "kummer":  # f'/(n f), over the branch roots f is built from
            inv_n = curve.spec.element(curve.n).inverse()
            roots = [(rho.encoding, l) for rho, l in curve.branch if l > 0]
            curve.family_table = FamilyTable(
                relation=RatFn(curve.f), relation_has_y=False,
                dy_coeff=reduce_over_roots(curve.f.derivative() * inv_n, 0, curve.f, roots), dy_exponent=1,
                trace_index=0,
            )
        else:  # -r' = (u v' - u' v)/v^2 for r = u/v, over r's recorded roots, each twice
            u, v = curve.r_fn.num, curve.r_fn.den
            roots = [(rho, 2 * m) for rho, m in curve.r_fn.den_roots or ()]
            curve.family_table = FamilyTable(
                relation=curve.r_fn, relation_has_y=True,
                dy_coeff=reduce_over_roots(u * v.derivative() - u.derivative() * v, 0, v * v, roots), dy_exponent=0,
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

    @property
    def curve(self) -> Curve:
        return self.coeff.curve

    @property
    def is_zero(self) -> bool:
        return self.coeff.is_zero

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


def valuations(obj: FFElem | FFDiff) -> tuple[int, ...]:
    """The valuation of a nonzero element or differential at each place
    class, in ``place_classes`` order (see ``valuation_bound``).  An
    element's tuple is ``_walk`` over every class, kept on the element,
    which is immutable; a differential adds v(dx) to its coefficient's."""
    if isinstance(obj, FFDiff):
        return tuple(v + place.v_dx for v, place in zip(valuations(obj.coeff), place_classes(obj.curve)))
    if obj._valuations is None:
        if obj.is_zero:
            raise ValueError("valuation of the zero element is undefined")
        obj._valuations = tuple(_walk(obj, place_classes(obj.curve)))
    return obj._valuations


def _walk(elem: FFElem, places: Iterable[PlaceClass]) -> list[int]:
    """The valuation of a nonzero element at each of the place classes:
    min over its terms a_j y^j of v(a_j) + j v(y), the one score formula.

    At a finite class, v(a_j) is e times the order of a_j at the base
    point rho.  a_j is reduced, so num and den do not both vanish at rho:
    the walk takes den's multiplicity first, read off one ``den_roots``
    dict per term when it has a record and found by ``multiplicity_at``
    otherwise, and num's only where den does not vanish.  Over infinity
    it is deg den - deg num."""
    rows = [(place.rho, place.e, place.v_y) for place in places]
    best = None
    for j, a in elem.terms:
        num, den = a.num, a.den
        recorded = None if a.den_roots is None else dict(a.den_roots)
        scores = []
        for rho, e, v_y in rows:
            if rho is None:
                v = len(den.ints) - len(num.ints)
            else:
                m = den.multiplicity_at(rho) if recorded is None else recorded.get(rho.encoding, 0)
                v = -e * m if m else e * num.multiplicity_at(rho)
            scores.append(v + j * v_y)
        best = scores if best is None else list(map(min, best, scores))
    return best


def valuation_bound(obj: FFElem | FFDiff, place: PlaceClass) -> int:
    """The valuation of a nonzero element or differential at the place
    class: min over the points P of the class of v_P(obj).  It is read
    from the element's ``valuations`` tuple, plus v(dx) for a differential.

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
    each with its exact (negative) class valuation; the zero element has
    none.  The values are the element's kept ``valuations`` when it has
    them, else ``_walk`` over the classes outside the locus only, which
    keeps nothing, so a pole-free element costs no walk over the allowed
    classes."""
    dx = isinstance(obj, FFDiff)
    elem = obj.coeff if dx else obj
    if elem.is_zero:
        return []
    outside = [place for place in place_classes(elem.curve) if not allowed(place)]
    kept = elem._valuations
    values = _walk(elem, outside) if kept is None else [kept[place.position] for place in outside]
    found = [(place, v + place.v_dx if dx else v) for place, v in zip(outside, values)]
    return [(place, v) for place, v in found if v < 0]


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
