"""Constructors for the three cohomology bases and the maps of the exact
sequence.

Index conventions.  A pair (mu, nu) is admissible on the differential
side when t_mu >= 2 and 1 <= nu <= t_mu - 1; the Kummer H^1 side reuses
the same index set, while the Artin-Schreier H^1 side indexes by the
partner exponent (t_{p-mu} >= 2), which under the extended policy also
admits mu = p paired with the mu = 0 differentials.

The basis elements are

    Kummer:          omega = x^{nu-1} (g_mu / y^mu) dx      h = y^mu / (x^nu g_mu)
    Artin-Schreier:  omega = x^{nu-1} (y^mu / g_mu) dx      h = g_{p-mu} y^{mu-1} / x^nu

with the Kummer omegas stored with y cleared from the denominator
(g_mu / y^mu = g_mu y^{n-mu} / f), so all elements stay y-polynomial.

A de Rham class is a triple (omega_0, omega_inf, f_0inf) with
d f_0inf = omega_0 - omega_inf; omega_0 regular away from the fiber over
0, omega_inf away from the fiber over infinity, f_0inf away from both.
The a-family is built by splitting a polynomial (psi for Kummer, phi and
psi for Artin-Schreier) so that the low part divided by the x-power
stays bounded at infinity and the high part stays regular at 0.  Two
knobs exist because the source formulas need adjustment to satisfy the
membership conditions verbatim:

* sign convention: the displayed triples satisfy d f = omega_0 +
  omega_inf (the split is a sum), while the Cech quotient wants a
  difference; the default "negated-infty" negates the omega_inf slot,
  which keeps its pole locus and restores the cocycle identity.
* Kummer split degree: the degree-(nu+1) split makes omega_0 regular at
  infinity only when the companion index satisfies t_{n-mu} >= 2.  When
  t_{n-mu} = 1 the companion differential g_{n-mu}/y^{n-mu} dx has a
  simple pole over infinity and the split must stop at degree nu; with
  that adjustment every emitted triple passes the membership checks.

Each nonzero y coefficient of an a-class slot is one closed-form fraction,
written as an unreduced num/den product and reduced once:

    Kummer, y^mu:              g_{n-mu} lo|hi(psi) / (n x^{nu+1} f)
    Artin-Schreier, y^{mu-1}:  lo|hi(phi) / (x^{nu+1} g_{mu-1})
    Artin-Schreier, y^{mu-2}:  (mu-1) g_{p-mu} lo|hi(psi) / (x^nu prod (x-rho_i)^{l_i+1})

(the last absent at mu = 1).  psi_AS and prod (x-rho_i)^{l_i+1} are built
once per curve (the divisor check's dy item reads them too), the Kummer
psi parts and the Artin-Schreier phi parts once per mu.

Every denominator here and in the omega and H^1 bases is x^shift times
a product of branch factors (x - rho_i)^m whose exponents come from the
curve (l_i, l_i + 1) or from the mu-table's m rows (g_mu).  So each
coefficient is reduced by ``polyrat.reduce_over_roots`` over those known
roots, with no gcd: ``_over`` pairs the branch points with the exponent
row, a branch point at rho = 0 included, and the Kummer constant n moves
into the numerator as 1/n.

The a-class f_0inf is the H^1 representative h[mu, nu] itself, since
p(a[mu, nu]) = h[mu, nu]: the builder takes the ``h1_basis`` objects, as
the delta-family takes the ``omega_basis`` objects, and rebuilds neither.

``build_bases`` builds every basis of one curve, policy and sign once,
into a ``Bases`` value that the checks and the report document share;
``omega_basis`` and ``h1_basis`` build their one basis on each call.
The checks read H^1 coordinates off the columns of
``funcfield.pairing_matrix`` (``verify.exactness_check``).
"""

from __future__ import annotations

from typing import NamedTuple

from .curve import ASCurve, Curve, KummerCurve, MuRow, PlaceClass, mu_table, place_classes
from .funcfield import FFDiff, FFElem, pairing_matrix, poles
from .gf import FieldElement, FieldSpec
from .polyrat import Poly, RatFn, _axpy, reduce_over_roots, split_at_degree


class BasisIndex(NamedTuple):
    mu: int
    nu: int


class DeRhamTriple(NamedTuple):
    omega0: FFDiff
    omega_inf: FFDiff
    f0inf: FFElem


class DeRhamClass(NamedTuple):
    kind: str  # "a" | "delta"
    index: BasisIndex
    triple: DeRhamTriple

    @property
    def label(self) -> str:
        return f"{self.kind}[{self.index.mu},{self.index.nu}]"


# -- index sets -------------------------------------------------------------


def omega_indices(curve: Curve, range_policy: str = "extended") -> list[BasisIndex]:
    """Admissible (mu, nu) pairs on the differential side, mu then nu ascending."""
    table = mu_table(curve, range_policy)
    out = []
    for mu in table:
        t = table[mu].t
        if t >= 2:
            out.extend(BasisIndex(mu, nu) for nu in range(1, t))
    return out


def _partner(curve: Curve, idx: BasisIndex) -> BasisIndex:
    """H^1 index dual to a differential index."""
    if curve.kind == "kummer":
        return idx
    return BasisIndex(curve.p - idx.mu, idx.nu)


def h1_indices(curve: Curve, range_policy: str = "extended") -> list[BasisIndex]:
    """Admissible (mu, nu) pairs on the H^1 side, mu then nu ascending: the
    partners of the differential indices."""
    return sorted(_partner(curve, idx) for idx in omega_indices(curve, range_policy))


# -- bases -------------------------------------------------------------------


def _over(curve: Curve, num: Poly, shift: int, den: Poly, ms) -> RatFn:
    """num / (x^shift den) for den = prod (x - rho_i)^(m_i) over the branch
    points, reduced over those roots."""
    return reduce_over_roots(num, shift, den, [(rho.encoding, m) for (rho, _), m in zip(curve.branch, ms) if m])


def omega_basis(curve: Curve, range_policy: str = "extended") -> list[tuple[BasisIndex, FFDiff]]:
    """Basis of holomorphic differentials for the active policy range."""
    table = mu_table(curve, range_policy)
    spec = curve.spec
    out = []
    for idx in omega_indices(curve, range_policy):
        row = table[idx.mu]
        if curve.kind == "kummer":  # x^(nu-1) g_mu / f
            coeff = _over(curve, row.g_mu.shift(idx.nu - 1), 0, curve.f, [l for _, l in curve.branch])
            elem = FFElem.monomial(curve, curve.n - idx.mu, coeff)
        else:
            elem = FFElem.monomial(curve, idx.mu, _over(curve, Poly.monomial(spec, idx.nu - 1), 0, row.g_mu, row.m))
        out.append((idx, FFDiff(elem)))
    return out


def h1_basis(curve: Curve, range_policy: str = "extended") -> list[tuple[BasisIndex, FFElem]]:
    """Basis representatives of H^1(O), poles confined over 0 and infinity."""
    table = mu_table(curve, range_policy)
    spec = curve.spec
    out = []
    for idx in h1_indices(curve, range_policy):
        if curve.kind == "kummer":
            row = table[idx.mu]
            elem = FFElem.monomial(curve, idx.mu, _over(curve, Poly.one(spec), idx.nu, row.g_mu, row.m))
        else:  # g_{p-mu} / x^nu
            g = table[curve.p - idx.mu].g_mu
            elem = FFElem.monomial(curve, idx.mu - 1, reduce_over_roots(g, idx.nu, Poly.one(spec), ()))
        out.append((idx, elem))
    return out


# -- splitting polynomials of the de Rham builder ----------------------------------


def _cofactor_parts(spec: FieldSpec, terms: list[tuple[FieldElement, FieldElement]]) -> tuple[Poly, Poly]:
    """(sum_i w_i prod_{j != i} (x - rho_j), prod_i (x - rho_i)) over the (rho, w) pairs,
    from one walk over the roots: (S, P) |-> (S (x - rho) + w P, P (x - rho)),
    each step a shift of S and P by x plus the rows -rho S, w P and -rho P
    (``polyrat._axpy``)."""
    total, support = [0], [1]  # ascending encodings, total padded to the length of support
    for rho, weight in terms:
        r, w = (-rho).encoding, weight.encoding
        new_total, new_support = [0] + total, [0] + support
        for out, src, c in ((new_total, total, r), (new_total, support, w), (new_support, support, r)):
            if c:
                _axpy(spec, out, 0, src, c)
        total, support = new_total, new_support
    return Poly.from_encodings(spec, total), Poly.from_encodings(spec, support)


def _kummer_psi_parts(curve: KummerCurve, mu: int, table: dict[int, MuRow]) -> tuple[Poly, Poly]:
    """(x A_mu, n S_mu), where A_mu = sum_{i in I} g_i v_i prod_{j in I \\ {i}} (x - rho_j)
    and S_mu = prod_{i in I} (x - rho_i): psi_{mu,nu} = x A_mu - nu n S_mu,
    and neither part depends on nu."""
    row, spec = table[mu], curve.spec
    places = place_classes(curve)  # the branch classes first, in branch order
    weights = [(places[i - 1].rho, spec.element(places[i - 1].npoints * row.v[i - 1])) for i in row.I]
    total, support = _cofactor_parts(spec, weights)
    return total.shift(1), support * spec.element(curve.n)


def _psi_at(parts: tuple[Poly, Poly], nu: int) -> Poly:
    """A - nu B from the parts (A, B) at mu: psi_{mu,nu} from ``_kummer_psi_parts``,
    phi_{mu,nu} from ``_as_phi_parts``."""
    a, b = parts
    return a - b * b.spec.element(nu)


def as_psi(curve: ASCurve) -> Poly:
    """Numerator of dy: f sum_i l_i prod_{j != i}(x - rho_j) - f' prod_i (x - rho_i)."""
    if curve.psi is None:
        total, support = _cofactor_parts(curve.spec, [(rho, curve.spec.element(l)) for rho, l in curve.branch])
        curve.psi = curve.f * total - curve.f.derivative() * support
    return curve.psi


def as_pole_den(curve: ASCurve) -> Poly:
    """prod_i (x - rho_i)^{l_i + 1}, the denominator of dy and of omega_mu."""
    if curve.pole_den is None:
        curve.pole_den = Poly.from_roots(curve.spec, [(rho, l + 1) for rho, l in curve.branch])
    return curve.pole_den


def _as_phi_parts(curve: ASCurve, table: dict[int, MuRow], mu: int) -> tuple[Poly, Poly]:
    """(x g_{p-mu}' g_{mu-1}, g_{p-mu} g_{mu-1}): the splitting polynomial
    phi_{mu,nu} is the first minus nu times the second, and neither part
    depends on nu."""
    g_pm, g_prev = table[curve.p - mu].g_mu, table[mu - 1].g_mu
    return (g_pm.derivative() * g_prev).shift(1), g_pm * g_prev


# -- de Rham basis ------------------------------------------------------------------


SIGN_CONVENTIONS = ("paper", "negated-infty")


def _build_derham_basis(
    curve: Curve,
    range_policy: str,
    sign_convention: str,
    omegas: list[tuple[BasisIndex, FFDiff]],
    hs: list[tuple[BasisIndex, FFElem]],
) -> list[DeRhamClass]:
    """The a-family on the given H^1 representatives as f_0inf, then the
    delta-family on the given differential objects."""
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError(f"unknown sign convention {sign_convention!r}; use one of {SIGN_CONVENTIONS}")
    table = mu_table(curve, range_policy)
    spec = curve.spec
    kummer = curve.kind == "kummer"
    ls = [l for _, l in curve.branch]
    if hs:  # the a-family's fixed parts
        if kummer:
            inv_n = spec.element(curve.n).inverse()
        else:
            psi, pole_den, pole_ms = as_psi(curve), as_pole_den(curve), [l + 1 for l in ls]
    parts_mu, parts = None, None  # the indices come mu ascending: rebuild when mu changes
    out: list[DeRhamClass] = []
    for idx, f0inf in hs:
        mu, nu = idx
        if mu != parts_mu:
            parts_mu, parts = mu, _kummer_psi_parts(curve, mu, table) if kummer else _as_phi_parts(curve, table, mu)
        if kummer:
            row = table[curve.n - mu]
            split_deg = nu + 1 if row.t >= 2 else nu
            split = split_at_degree(_psi_at(parts, nu), split_deg, inclusive=True)
            c = row.g_mu * inv_n  # the n of the denominator n x^(nu+1) f
            slots = [[(mu, _over(curve, c * part, nu + 1, curve.f, ls))] for part in split]
        else:
            g = table[mu - 1]
            split = split_at_degree(_psi_at(parts, nu), nu + 1, inclusive=False)
            slots = [[(mu - 1, _over(curve, part, nu + 1, g.g_mu, g.m))] for part in split]
            if mu > 1:  # the omega_mu term, zero at mu = 1
                c = table[curve.p - mu].g_mu * spec.element(mu - 1)
                for terms, part in zip(slots, split_at_degree(psi, nu, inclusive=False)):
                    terms.append((mu - 2, _over(curve, c * part, nu, pole_den, pole_ms)))
        omega0, omega_inf = (FFDiff(FFElem(curve, terms)) for terms in slots)  # the low part, then the high
        if sign_convention == "negated-infty":
            omega_inf = -omega_inf
        out.append(DeRhamClass("a", idx, DeRhamTriple(omega0, omega_inf, f0inf)))
    for idx, w in omegas:
        out.append(DeRhamClass("delta", idx, DeRhamTriple(w, w, FFElem.zero(curve))))
    return out


class Bases(NamedTuple):
    """The bases of one curve under one mu-range policy and sign convention.
    ``columns`` is the H^1 basis in duality order: column j is the partner
    of the j-th differential."""

    omega: list[tuple[BasisIndex, FFDiff]]
    h1: list[tuple[BasisIndex, FFElem]]
    derham: list[DeRhamClass]
    columns: list[tuple[BasisIndex, FFElem]]


def build_bases(curve: Curve, range_policy: str = "extended", sign_convention: str = "negated-infty") -> Bases:
    """Every basis built once; the de Rham a-family reuses the H^1
    representatives as f_0inf, the delta-family the differentials."""
    omegas = omega_basis(curve, range_policy)
    hs = h1_basis(curve, range_policy)
    derham = _build_derham_basis(curve, range_policy, sign_convention, omegas, hs)
    by_index = dict(hs)
    columns = [(_partner(curve, idx), by_index[_partner(curve, idx)]) for idx, _ in omegas]
    return Bases(omegas, hs, derham, columns)


# -- canonical maps of the exact sequence ----------------------------------------------


def map_i(omega: FFDiff) -> DeRhamTriple:
    """H^0(Omega) -> H^1_dR: omega |-> (omega, omega, 0)."""
    return DeRhamTriple(omega, omega, FFElem.zero(omega.curve))


def map_p(triple: DeRhamTriple) -> FFElem:
    """H^1_dR -> H^1(O): (omega_0, omega_inf, f_0inf) |-> f_0inf."""
    return triple.f0inf


def off_fiber_poles(f: FFElem) -> list[tuple[PlaceClass, int]]:
    """The poles of f away from the fibers over 0 and infinity, where an
    O(U_0 cap U_inf) class has none."""
    return poles(f, lambda place: place.kind != "branch" or place.covers_zero)
