"""Reference routes the tests compare the report path against: the Galois
action and its root of unity, the traces, powers and scaling, the Kummer
psi and the Artin-Schreier omega_mu.  Each is written from the curve data
(n, zeta_n, the branch points, the mu-tables) on the ``FFElem``
constructor and ``*``, ``RatFn`` and ``Poly``; none reads the curve's
family table, so an oracle built on them shares no code with the path it
checks.  The quotient rule (``ratfn_derivative``) and the reduced exterior
derivative (``exterior_derivative``) are routes the report path no longer
takes: it reduces over branch roots and tests unreduced sums for zero.
The reduced cocycle residual (``cocycle_residual``) takes d f_0inf from
``exterior_derivative``, which ``test_cocycle_regression`` checks against
a derivative written term by term.

The dense walks (``dense_*``) work on plain y-coefficient vectors
(a_0, ..., a_{deg-1}) of ``RatFn``, visiting every index, zero or not
(``dense_mul`` skips only the rows of zero entries): they are the routes
the sparse ``FFElem`` terms are checked against.  ``dense`` reads an
element's vector off its terms; ``FFElem(curve, enumerate(vector))``
builds the element of one.  ``dense_pairing`` gives an encoding, as
``pairing_matrix`` does."""

import math

from cycliccover.curve import place_classes
from cycliccover.funcfield import FFDiff, FFElem
from cycliccover.gf import FieldElement, FieldSpec
from cycliccover.polyrat import Poly, RatFn, fraction_residue


def dense(h: FFElem) -> list[RatFn]:
    """The dense vector (a_0, ..., a_{deg-1}) of h, zeros included."""
    out = [RatFn.zero(h.curve.spec)] * h.curve.degree
    for j, a in h.terms:
        out[j] = a
    return out


def nth_root_of_unity(spec: FieldSpec, n: int) -> FieldElement:
    """Deterministic primitive n-th root of unity in F_q.

    Returns the element of exact multiplicative order n whose canonical
    integer encoding is smallest; raises if n does not divide q - 1.  The
    elements of order n are g^(j (q-1)/n) with j prime to n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if (spec.q - 1) % n != 0:
        raise ValueError(f"no primitive {n}-th root in field: {n} does not divide q-1 = {spec.q - 1}")
    step = (spec.q - 1) // n
    return FieldElement(spec, min(spec.exp[j * step] for j in range(1, n) if math.gcd(j, n) == 1))


def galois(h: FFElem, j: int) -> FFElem:
    """sigma^j(h), 0 <= j < deg, for the generator y -> zeta_n y (Kummer) or
    y -> y + 1 (Artin-Schreier): a_k y^k maps to zeta_n^(jk) a_k y^k, resp.
    to a_k (y + j)^k = sum_m C(k, m) j^(k-m) a_k y^m."""
    curve = h.curve
    spec = curve.spec
    if not 0 <= j < curve.degree:
        raise ValueError(f"Galois index {j} out of range for degree {curve.degree}")
    if curve.kind == "kummer":
        zeta = nth_root_of_unity(spec, curve.n)
        return FFElem(curve, [(k, a * zeta ** (j * k)) for k, a in enumerate(dense(h))])
    out = [RatFn.zero(spec)] * curve.degree
    shift = spec.element(j)
    for k, a in enumerate(dense(h)):
        for m in range(k + 1):
            out[m] = out[m] + a * (spec.element(math.comb(k, m)) * shift ** (k - m))
    return FFElem(curve, enumerate(out))


def orbit_sum(h: FFElem) -> FFElem:
    """The sum of the Galois orbit of h, one element on every image's terms."""
    return FFElem(h.curve, h.terms + tuple(term for j in range(1, h.curve.degree) for term in galois(h, j).terms))


def trace_by_orbit(h: FFElem) -> RatFn:
    return dense(orbit_sum(h))[0]


def trace(h: FFElem) -> RatFn:
    """The trace table: Tr(y^k) = 0 but for Tr(1) = n (Kummer) and Tr(y^(p-1)) = -1 (Artin-Schreier)."""
    return dense_trace(h.curve, dense(h))


def dense_trace(curve, coeffs) -> RatFn:
    """The trace table on a dense vector."""
    if curve.kind == "kummer":
        return coeffs[0] * curve.spec.element(curve.n)
    return -coeffs[curve.p - 1]


def pairing_scale(curve):
    """c in <f, omega> = c Res_inf(Tr(f coeff(omega))): -1/n for Kummer, 1 for Artin-Schreier."""
    spec = curve.spec
    return -spec.element(curve.n).inverse() if curve.kind == "kummer" else spec.one()


def power(h: FFElem, e: int) -> FFElem:
    result = FFElem.one(h.curve)
    for _ in range(e):
        result = result * h
    return result


def scale(obj, c):
    """An element or a differential times a ``RatFn`` or a field constant."""
    if isinstance(obj, FFDiff):
        return FFDiff(scale(obj.coeff, c))
    return FFElem(obj.curve, [(k, a * c) for k, a in enumerate(dense(obj))])


def _linear_product(spec, roots) -> Poly:
    """prod (x - rho)^m over the (rho, m) pairs, one linear factor at a time."""
    out = Poly.one(spec)
    for rho, m in roots:
        for _ in range(m):
            out = out * Poly(spec, [-rho, spec.one()])
    return out


def kummer_psi(curve, mu: int, nu: int, table) -> Poly:
    """sum_{i in I} g_i v_i x prod_{j in I - i} (x - rho_j) - nu n prod_{i in I} (x - rho_i),
    with I, v the row of ``table`` at mu; an empty I gives the constant -nu n."""
    spec = curve.spec
    branch = place_classes(curve)  # the branch classes first, in branch order
    row = table[mu]
    total = Poly.zero(spec)
    for i in row.I:
        others = _linear_product(spec, [(branch[j - 1].rho, 1) for j in row.I if j != i])
        total = total + Poly.x(spec) * others * spec.element(branch[i - 1].npoints * row.v[i - 1])
    support = _linear_product(spec, [(branch[i - 1].rho, 1) for i in row.I])
    return total - support * spec.element(nu * curve.n)


def as_omega_mu(curve, mu: int, table) -> FFDiff:
    """(mu - 1) g_{p-mu} y^(mu-2) / prod (x - rho_i)^(l_i + 1) dx, zero at mu = 1."""
    if mu == 1:
        return FFDiff(FFElem.zero(curve))
    spec = curve.spec
    num = table[curve.p - mu].g_mu * spec.element(mu - 1)
    den = _linear_product(spec, [(rho, l + 1) for rho, l in curve.branch])
    return FFDiff(FFElem.monomial(curve, mu - 2, RatFn(num, den)))


def ratfn_derivative(a: RatFn) -> RatFn:
    """The formal derivative of a rational function by the quotient rule, reduced by Euclid."""
    return RatFn(a.num.derivative() * a.den - a.num * a.den.derivative(), a.den * a.den)


def exterior_derivative(f: FFElem) -> FFDiff:
    """d f as a global (element) * dx differential: the sum of its
    ``differential_terms``, each reduced by Euclid."""
    return FFDiff(FFElem(f.curve, [(k, RatFn(num, den)) for k, num, den in f.differential_terms()]))


def cocycle_residual(triple) -> FFElem:
    """The dx coefficient of d f_0inf - omega_0 + omega_inf in reduced
    arithmetic: one element on the terms of ``exterior_derivative`` and of the slots."""
    terms = exterior_derivative(triple.f0inf).coeff.terms + (-triple.omega0).coeff.terms + triple.omega_inf.coeff.terms
    return FFElem(triple.f0inf.curve, terms)


def dense_add(a, b) -> list[RatFn]:
    return [x + y for x, y in zip(a, b)]


def dense_neg(a) -> list[RatFn]:
    return [-x for x in a]


def dense_mul(curve, a, b) -> list[RatFn]:
    """The product of two dense vectors, every index pair multiplied but
    for the rows of a zero entry of ``a``, with y^deg replaced once by the
    curve's equation: y^n = f (Kummer), resp. y^p = y + r (Artin-Schreier)."""
    spec, deg = curve.spec, curve.degree
    raw = [RatFn.zero(spec)] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            raw[i + j] = raw[i + j] + x * y
    kummer = curve.kind == "kummer"
    relation = RatFn(curve.f) if kummer else curve.r_fn
    out = raw[:deg]
    for k in range(deg, 2 * deg - 1):
        out[k - deg] = out[k - deg] + raw[k] * relation
        if not kummer:
            out[k - deg + 1] = out[k - deg + 1] + raw[k]
    return out


def _order(poly: Poly, rho) -> int:
    """The multiplicity of rho as a root of a nonzero poly, by repeated division by x - rho."""
    linear = Poly(poly.spec, [-rho, poly.spec.one()])
    m = 0
    while True:
        quo, rem = divmod(poly, linear)
        if not rem.is_zero:
            return m
        poly, m = quo, m + 1


def dense_valuations(coeffs, places) -> tuple[int, ...]:
    """Per place class, min over every index j with a_j != 0 of e (ord num -
    ord den) + j v(y), with deg den - deg num over infinity."""
    best = []
    for place in places:
        scores = []
        for j, a in enumerate(coeffs):
            if a.is_zero:
                continue
            if place.rho is None:
                v = a.den.degree - a.num.degree
            else:
                v = place.e * (_order(a.num, place.rho) - _order(a.den, place.rho))
            scores.append(v + j * place.v_y)
        best.append(min(scores))
    return tuple(best)


def dense_pairing(curve, f, w) -> int:
    """The encoding of c * Res_inf(Tr(f w)), from the whole dense product."""
    tr = dense_trace(curve, dense_mul(curve, f, w))
    return curve.spec.mul(pairing_scale(curve).encoding, fraction_residue(tr.num, tr.den))
