"""Constructors for the three cohomology bases, the maps of the exact
sequence and H^1 coordinates.

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
written as an unreduced num/den product and reduced once by ``RatFn``:

    Kummer, y^mu:              g_{n-mu} lo|hi(psi) / (n x^{nu+1} f)
    Artin-Schreier, y^{mu-1}:  lo|hi(phi) / (x^{nu+1} g_{mu-1})
    Artin-Schreier, y^{mu-2}:  (mu-1) g_{p-mu} lo|hi(psi) / (x^nu prod (x-rho_i)^{l_i+1})

(the last absent at mu = 1).  psi_AS and prod (x-rho_i)^{l_i+1} are built
once per build, the Kummer psi parts once per mu.

Compute once.  Each curve keeps one ``BasisContext`` per mu-range policy
in ``curve.basis_contexts``.  It builds the differential and H^1 bases on
first use, one de Rham basis per sign convention (whose delta-family
reuses the differentials), and the pairing matrix of the differentials
against the H^1 basis in duality order.  ``omega_basis``, ``h1_basis``,
``derham_basis`` and ``h1_coordinates`` read the context, so every check
and the report document see the same objects; the readers return fresh
lists.  The context lives on the curve and goes away with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .curve import ASCurve, Curve, KummerCurve, MuTable, mu_table, ram_data, require_valid
from .funcfield import FFDiff, FFElem, pairing, poles
from .gf import FieldElement
from .polyrat import Poly, RatFn, split_at_degree


class BasisIndex(NamedTuple):
    mu: int
    nu: int


@dataclass(frozen=True)
class DeRhamTriple:
    omega0: FFDiff
    omega_inf: FFDiff
    f0inf: FFElem


@dataclass(frozen=True)
class DeRhamClass:
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
    for mu in table.mus():
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


def _build_omega_basis(curve: Curve, range_policy: str) -> list[tuple[BasisIndex, FFDiff]]:
    table = mu_table(curve, range_policy)
    spec = curve.spec
    out = []
    for idx in omega_indices(curve, range_policy):
        g_mu = table[idx.mu].g_mu
        x_pow = Poly.monomial(spec, idx.nu - 1)
        if curve.kind == "kummer":
            coeff = RatFn(x_pow * g_mu, curve.f)
            elem = FFElem.monomial(curve, curve.n - idx.mu, coeff)
        else:
            coeff = RatFn(x_pow, g_mu)
            elem = FFElem.monomial(curve, idx.mu, coeff)
        out.append((idx, FFDiff(elem)))
    return out


def _build_h1_basis(curve: Curve, range_policy: str) -> list[tuple[BasisIndex, FFElem]]:
    table = mu_table(curve, range_policy)
    spec = curve.spec
    out = []
    for idx in h1_indices(curve, range_policy):
        if curve.kind == "kummer":
            den = Poly.monomial(spec, idx.nu) * table[idx.mu].g_mu
            elem = FFElem.monomial(curve, idx.mu, RatFn(Poly.one(spec), den))
        else:
            g_pm = table[curve.p - idx.mu].g_mu
            elem = FFElem.monomial(curve, idx.mu - 1, RatFn(g_pm, Poly.monomial(spec, idx.nu)))
        out.append((idx, elem))
    return out


def omega_basis(curve: Curve, range_policy: str = "extended") -> list[tuple[BasisIndex, FFDiff]]:
    """Basis of holomorphic differentials for the active policy range."""
    return list(basis_context(curve, range_policy).omega)


def h1_basis(curve: Curve, range_policy: str = "extended") -> list[tuple[BasisIndex, FFElem]]:
    """Basis representatives of H^1(O), poles confined over 0 and infinity."""
    return list(basis_context(curve, range_policy).h1)


# -- splitting polynomials of the de Rham builder ----------------------------------


def _kummer_psi_parts(curve: KummerCurve, mu: int, table: MuTable) -> tuple[Poly, Poly]:
    """(x A_mu, n S_mu), where A_mu = sum_{i in I} g_i v_i prod_{j in I \\ {i}} (x - rho_j)
    and S_mu = prod_{i in I} (x - rho_i): psi_{mu,nu} = x A_mu - nu n S_mu,
    and neither part depends on nu."""
    row = table[mu]
    spec = curve.spec
    ram = ram_data(curve)
    I = row.I
    rhos = {i: ram.branch[i - 1].rho for i in I}
    total = Poly.zero(spec)
    for i in I:
        weight = spec.element(ram.branch[i - 1].g * row.v[i - 1])
        total = total + Poly.from_roots(spec, [(rhos[j], 1) for j in I if j != i]) * weight
    full = Poly.from_roots(spec, [(rhos[i], 1) for i in I])
    return total.shift(1), full * spec.element(curve.n)


def _psi_at(parts: tuple[Poly, Poly], nu: int) -> Poly:
    """psi_{mu,nu} from the parts of ``_kummer_psi_parts`` at mu."""
    x_a, n_s = parts
    return x_a - n_s * n_s.spec.element(nu)


def as_psi(curve: ASCurve) -> Poly:
    """Numerator of dy: f sum_i l_i prod_{j != i}(x - rho_j) - f' prod_i (x - rho_i)."""
    if curve.psi is not None:
        return curve.psi
    spec = curve.spec
    total = Poly.zero(spec)
    for i, (rho, l) in enumerate(curve.branch):
        others = Poly.from_roots(spec, [(r, 1) for k, (r, _) in enumerate(curve.branch) if k != i])
        total = total + others * spec.element(l)
    support = Poly.from_roots(spec, [(rho, 1) for rho, _ in curve.branch])
    curve.psi = curve.f * total - curve.f.derivative() * support
    return curve.psi


def _as_pole_den(curve: ASCurve) -> Poly:
    """prod_i (x - rho_i)^{l_i + 1}, the denominator of dy and of omega_mu."""
    return Poly.from_roots(curve.spec, [(rho, l + 1) for rho, l in curve.branch])


def _as_phi(curve: ASCurve, table: MuTable, mu: int, nu: int) -> Poly:
    """The splitting polynomial phi_{mu,nu} = x g_{p-mu}' g_{mu-1} - nu g_{p-mu} g_{mu-1}."""
    g_pm, g_prev = table[curve.p - mu].g_mu, table[mu - 1].g_mu
    return (g_pm.derivative() * g_prev).shift(1) - g_pm * g_prev * curve.spec.element(nu)


# -- de Rham basis ------------------------------------------------------------------


SIGN_CONVENTIONS = ("paper", "negated-infty")


def _slot(curve: Curve, terms: list[tuple[int, Poly, Poly]]) -> FFDiff:
    """One slot: the differential sum of (num/den) y^j dx over the (j, num, den) terms,
    at distinct j, each coefficient reduced once."""
    coeffs = [RatFn.zero(curve.spec)] * curve.degree
    for j, num, den in terms:
        coeffs[j] = RatFn(num, den)
    return FFDiff(FFElem(curve, coeffs))


def _build_derham_basis(
    curve: Curve,
    range_policy: str,
    sign_convention: str,
    omegas: tuple[tuple[BasisIndex, FFDiff], ...],
) -> list[DeRhamClass]:
    table = mu_table(curve, range_policy)
    spec = curve.spec
    kummer = curve.kind == "kummer"
    if kummer:
        n_f = curve.f * spec.element(curve.n)
        parts_mu, psi_parts = None, None  # the indices come mu ascending: rebuild when mu changes
    else:
        psi, pole_den = as_psi(curve), _as_pole_den(curve)
    out: list[DeRhamClass] = []
    for idx in h1_indices(curve, range_policy):
        mu, nu = idx
        if kummer:
            if mu != parts_mu:
                parts_mu, psi_parts = mu, _kummer_psi_parts(curve, mu, table)
            row = table[curve.n - mu]
            split_deg = nu + 1 if row.t >= 2 else nu
            lo, hi = split_at_degree(_psi_at(psi_parts, nu), split_deg, inclusive=True)
            den = n_f.shift(nu + 1)
            terms0, terms_inf = [(mu, row.g_mu * lo, den)], [(mu, row.g_mu * hi, den)]
            f0inf = FFElem.monomial(curve, mu, RatFn(Poly.one(spec), table[mu].g_mu.shift(nu)))
        else:
            g_pm = table[curve.p - mu].g_mu
            lo_phi, hi_phi = split_at_degree(_as_phi(curve, table, mu, nu), nu + 1, inclusive=False)
            phi_den = table[mu - 1].g_mu.shift(nu + 1)
            terms0, terms_inf = [(mu - 1, lo_phi, phi_den)], [(mu - 1, hi_phi, phi_den)]
            if mu > 1:  # the omega_mu term, zero at mu = 1
                lo_psi, hi_psi = split_at_degree(psi, nu, inclusive=False)
                c, psi_den = g_pm * spec.element(mu - 1), pole_den.shift(nu)
                terms0.append((mu - 2, c * lo_psi, psi_den))
                terms_inf.append((mu - 2, c * hi_psi, psi_den))
            f0inf = FFElem.monomial(curve, mu - 1, RatFn(g_pm, Poly.monomial(spec, nu)))
        omega0, omega_inf = _slot(curve, terms0), _slot(curve, terms_inf)
        if sign_convention == "negated-infty":
            omega_inf = -omega_inf
        out.append(DeRhamClass("a", idx, DeRhamTriple(omega0, omega_inf, f0inf)))
    for idx, w in omegas:
        out.append(DeRhamClass("delta", idx, DeRhamTriple(w, w, FFElem.zero(curve))))
    return out


def derham_basis(
    curve: Curve,
    range_policy: str = "extended",
    sign_convention: str = "negated-infty",
) -> list[DeRhamClass]:
    """The 2g de Rham classes: the a-family projecting onto the H^1 basis
    followed by the delta-family lifting the holomorphic differentials."""
    if sign_convention not in SIGN_CONVENTIONS:
        raise ValueError(f"unknown sign convention {sign_convention!r}; use one of {SIGN_CONVENTIONS}")
    return list(basis_context(curve, range_policy).derham(sign_convention))


# -- canonical maps of the exact sequence ----------------------------------------------


def map_i(omega: FFDiff) -> DeRhamTriple:
    """H^0(Omega) -> H^1_dR: omega |-> (omega, omega, 0)."""
    return DeRhamTriple(omega, omega, FFElem.zero(omega.curve))


def map_p(triple: DeRhamTriple) -> FFElem:
    """H^1_dR -> H^1(O): (omega_0, omega_inf, f_0inf) |-> f_0inf."""
    return triple.f0inf


def _require_h1_class(curve: Curve, f: FFElem) -> None:
    """f must be regular away from the fibers over 0 and infinity."""
    require_valid(curve)
    if f.curve is not curve:
        raise ValueError("element does not live on the given curve")
    found = poles(f, lambda place: place.kind != "branch" or place.covers_zero)
    if found:
        raise ValueError(f"element has a pole at {found[0][0].label()}: not an O(U_0 cap U_inf) class")


def h1_coordinates(
    curve: Curve, f: FFElem, range_policy: str = "extended"
) -> tuple[FieldElement, ...]:
    """Coordinates of a class [f] in the H^1 basis, read off by pairing
    against the differential basis (valid once duality holds).

    Requires f to be regular away from the fibers over 0 and infinity.
    """
    _require_h1_class(curve, f)
    return tuple(pairing(f, w) for _, w in basis_context(curve, range_policy).omega)


# -- per-curve context -------------------------------------------------------------------


class BasisContext:
    """The bases of one curve under one mu-range policy, each built on first
    use and kept: the differential and H^1 bases, one de Rham basis per sign
    convention (its delta-family reuses the differentials), and the pairing
    matrix.  Everything is held in tuples, and the public readers hand out
    fresh lists, so no caller can change what the next one reads."""

    def __init__(self, curve: Curve, range_policy: str):
        self.curve = curve
        self.range_policy = range_policy
        self._derham: dict[str, tuple[DeRhamClass, ...]] = {}

    @cached_property
    def omega(self) -> tuple[tuple[BasisIndex, FFDiff], ...]:
        return tuple(_build_omega_basis(self.curve, self.range_policy))

    @cached_property
    def h1(self) -> tuple[tuple[BasisIndex, FFElem], ...]:
        return tuple(_build_h1_basis(self.curve, self.range_policy))

    def derham(self, sign_convention: str) -> tuple[DeRhamClass, ...]:
        if sign_convention not in self._derham:
            classes = _build_derham_basis(self.curve, self.range_policy, sign_convention, self.omega)
            self._derham[sign_convention] = tuple(classes)
        return self._derham[sign_convention]

    @cached_property
    def columns(self) -> tuple[tuple[BasisIndex, FFElem], ...]:
        """The H^1 basis in duality order: column j is the partner of the
        j-th differential."""
        hs = dict(self.h1)
        return tuple(
            (_partner(self.curve, idx), hs[_partner(self.curve, idx)]) for idx, _ in self.omega
        )

    @cached_property
    def pairing_matrix(self) -> tuple[tuple[FieldElement, ...], ...]:
        """Entry (i, j) pairs column j against the i-th differential, so
        column j holds the H^1 coordinates of its representative."""
        return tuple(tuple(pairing(h, w) for _, h in self.columns) for _, w in self.omega)

    def column_coordinates(self, f: FFElem) -> tuple[FieldElement, ...] | None:
        """H^1 coordinates of f read from the pairing matrix when f equals
        the representative behind a column (after the same regularity
        precondition as ``h1_coordinates``); None for any other element."""
        for j, (_, h) in enumerate(self.columns):
            if f == h:
                _require_h1_class(self.curve, f)
                return tuple(row[j] for row in self.pairing_matrix)
        return None


def basis_context(curve: Curve, range_policy: str = "extended") -> BasisContext:
    """The curve's context for the policy, created on first use and kept on
    the curve, so it lives exactly as long as the curve does."""
    context = curve.basis_contexts.get(range_policy)
    if context is None:
        mu_table(curve, range_policy)  # refuse unknown policies and invalid curves up front
        context = curve.basis_contexts[range_policy] = BasisContext(curve, range_policy)
    return context
