"""Reference routes the tests compare the report path against: the Galois
action, the traces, powers and scaling, the Kummer psi and the
Artin-Schreier omega_mu.  Each is written from the curve data (n, zeta_n,
the branch points, the mu-tables) on ``FFElem`` ``+``/``*``, ``RatFn``
and ``Poly``; none reads the curve's family table, so an oracle built on
them shares no code with the path it checks."""

import math

from cycliccover.curve import ram_data
from cycliccover.funcfield import FFDiff, FFElem
from cycliccover.gf import nth_root_of_unity
from cycliccover.polyrat import Poly, RatFn


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
        return FFElem(curve, [a * zeta ** (j * k) for k, a in enumerate(h.coeffs)])
    out = [RatFn.zero(spec)] * curve.degree
    shift = spec.element(j)
    for k, a in enumerate(h.coeffs):
        for m in range(k + 1):
            out[m] = out[m] + a * (spec.element(math.comb(k, m)) * shift ** (k - m))
    return FFElem(curve, out)


def orbit_sum(h: FFElem) -> FFElem:
    total = h
    for j in range(1, h.curve.degree):
        total = total + galois(h, j)
    return total


def trace_by_orbit(h: FFElem) -> RatFn:
    return orbit_sum(h).coeffs[0]


def trace(h: FFElem) -> RatFn:
    """The trace table: Tr(y^k) = 0 but for Tr(1) = n (Kummer) and Tr(y^(p-1)) = -1 (Artin-Schreier)."""
    curve = h.curve
    if curve.kind == "kummer":
        return h.coeffs[0] * curve.spec.element(curve.n)
    return -h.coeffs[curve.p - 1]


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
    return FFElem(obj.curve, [a * c for a in obj.coeffs])


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
    branch = ram_data(curve).branch
    row = table[mu]
    total = Poly.zero(spec)
    for i in row.I:
        others = _linear_product(spec, [(branch[j - 1].rho, 1) for j in row.I if j != i])
        total = total + Poly.x(spec) * others * spec.element(branch[i - 1].g * row.v[i - 1])
    support = _linear_product(spec, [(branch[i - 1].rho, 1) for i in row.I])
    return total - support * spec.element(nu * curve.n)


def as_omega_mu(curve, mu: int, table) -> FFDiff:
    """(mu - 1) g_{p-mu} y^(mu-2) / prod (x - rho_i)^(l_i + 1) dx, zero at mu = 1."""
    if mu == 1:
        return FFDiff.zero(curve)
    spec = curve.spec
    num = table[curve.p - mu].g_mu * spec.element(mu - 1)
    den = _linear_product(spec, [(rho, l + 1) for rho, l in curve.branch])
    return FFDiff(FFElem.monomial(curve, mu - 2, RatFn(num, den)))
