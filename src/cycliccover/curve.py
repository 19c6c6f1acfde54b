"""Curve models for both cover families plus the tables everything consumes.

A Kummer cover is y^n = f(x) with f = prod (x - rho_i)^{l_i}, n prime to
the characteristic and deg f divisible by n, so the fiber over infinity
is unramified.  An Artin-Schreier cover is y^p - y = r(x) with
r = f / prod (x - rho_i)^{l_i}, each l_i prime to p, f prime to the
denominator and to x, and deg f equal to the total pole degree so that y
is finite and nonzero over infinity.

Construction never raises on mathematically inconsistent data; the
``validate`` operation reports violations as data, and the table
operations refuse to run on invalid curves.

The per-mu Euclidean bookkeeping follows the defining divisions

    Kummer:        mu * lambda_i = m_i * e_i + v_i,   0 <= v_i < e_i
    Artin-Schreier: (p-1-mu) l_i + (p-1) = m_i * p + v_i,  0 <= v_i < p

with g_mu = prod (x - rho_i)^{m_i} and t_mu = (1/n) sum g_i v_i
(Kummer) resp. t_mu = sum m_i (Artin-Schreier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from .gf import FieldElement, FieldSpec
from .polyrat import Poly, RatFn

if TYPE_CHECKING:
    from .cohomology import BasisContext
    from .funcfield import FamilyTable, PlaceClass


class Violation(NamedTuple):
    code: str
    message: str


class CurveInvalidError(ValueError):
    """Raised when a table operation is asked to run on an invalid curve."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        codes = ", ".join(v.code for v in violations)
        super().__init__(f"curve fails validation: {codes}")


BranchSpec = Sequence[tuple[FieldElement, int]]


class CyclicCover:
    """What both families share: the field, the branch data, and the
    per-curve values each computed once, on first use, by the operation
    named beside it (None until then)."""

    def __init__(self, spec: FieldSpec, branch: BranchSpec):
        self.spec = spec
        self.branch = tuple((spec.element(rho), int(l)) for rho, l in branch)
        self.r = len(self.branch)
        self.l = sum(l for _, l in self.branch)
        self.violations: tuple[Violation, ...] | None = None  # validate
        self.ram: RamData | None = None  # ram_data
        self.mu_tables: dict[str, MuTable] = {}  # mu_table, per mu-range policy
        self.places: tuple[PlaceClass, ...] | None = None  # funcfield.place_classes
        self.family_table: FamilyTable | None = None  # funcfield: relation, dy, trace index
        self.psi: Poly | None = None  # cohomology.as_psi, Artin-Schreier: numerator of dy
        self.basis_contexts: dict[str, BasisContext] = {}  # cohomology.basis_context, per policy


class KummerCurve(CyclicCover):
    """y^n = f(x) = prod (x - rho_i)^{l_i} over F_q."""

    kind = "kummer"

    def __init__(self, spec: FieldSpec, n: int, branch: BranchSpec):
        if not isinstance(n, int) or n < 2:
            raise ValueError("Kummer degree n must be an integer >= 2")
        super().__init__(spec, branch)
        self.n = n
        self.f = Poly.from_roots(spec, self.branch)

    @property
    def t(self) -> int:
        return self.l // self.n

    @property
    def degree(self) -> int:
        """Degree of the cover (size of a generic fiber)."""
        return self.n

    def __repr__(self) -> str:
        pts = ", ".join(f"({rho.render()},{l})" for rho, l in self.branch)
        return f"KummerCurve(y^{self.n} = f, q={self.spec.q}, branch=[{pts}])"


class ASCurve(CyclicCover):
    """y^p - y = r(x) = f(x) / prod (x - rho_i)^{l_i} over F_q, p >= 3."""

    kind = "artin-schreier"

    def __init__(self, spec: FieldSpec, f: Poly, branch: BranchSpec):
        super().__init__(spec, branch)
        self.p = spec.p
        self.f = f
        self.branch_poly = Poly.from_roots(spec, self.branch)
        self.r_fn = RatFn(f, self.branch_poly) if not f.is_zero else RatFn.zero(spec)

    @property
    def degree(self) -> int:
        return self.p

    def __repr__(self) -> str:
        pts = ", ".join(f"({rho.render()},{l})" for rho, l in self.branch)
        return f"ASCurve(y^{self.p} - y = r, q={self.spec.q}, branch=[{pts}])"


Curve = Union[KummerCurve, ASCurve]


def validate(curve: Curve) -> list[Violation]:
    """Check every standing hypothesis; an empty list means valid."""
    if curve.violations is not None:
        return list(curve.violations)
    out: list[Violation] = []
    rhos = [rho for rho, _ in curve.branch]
    if curve.r < 1:
        out.append(Violation("empty_branch_locus", "at least one branch point is required"))
    if len({rho.encoding for rho in rhos}) != len(rhos):
        out.append(Violation("branch_points_not_distinct", "branch points must be pairwise distinct"))
    for i, (_, l) in enumerate(curve.branch, start=1):
        if l < 1:
            out.append(Violation("nonpositive_multiplicity", f"l_{i} = {l} must be >= 1"))

    if curve.kind == "kummer":
        p = curve.spec.p
        if curve.l % curve.n != 0:
            out.append(Violation("l_not_divisible_by_n", f"deg f = {curve.l} is not divisible by n = {curve.n}"))
        if math.gcd(curve.n, p) != 1:
            out.append(Violation("n_shares_characteristic", f"gcd(n, p) = gcd({curve.n}, {p}) != 1"))
        if (curve.spec.q - 1) % curve.n != 0:
            out.append(Violation("n_not_dividing_q_minus_1", f"n = {curve.n} does not divide q-1 = {curve.spec.q - 1}"))
        if curve.branch:
            d = curve.n
            for _, l in curve.branch:
                d = math.gcd(d, l)
            if d != 1:
                out.append(
                    Violation(
                        "cover_reducible",
                        f"gcd(n, l_1, ..., l_r) = {d} > 1: y^n - f splits into {d} components",
                    )
                )
    else:
        p = curve.p
        if p < 3:
            out.append(Violation("characteristic_too_small", "Artin-Schreier covers require p >= 3"))
        for i, (rho, l) in enumerate(curve.branch, start=1):
            if math.gcd(l, p) != 1:
                out.append(Violation("multiplicity_divisible_by_p", f"gcd(l_{i}, p) = gcd({l}, {p}) != 1"))
        if curve.f.is_zero or int(curve.f.degree) != curve.l:
            out.append(
                Violation(
                    "numerator_degree_mismatch",
                    f"deg f = {curve.f.degree} must equal sum of l_i = {curve.l}",
                )
            )
        if not curve.f.is_zero:
            for i, (rho, _) in enumerate(curve.branch, start=1):
                if curve.f.evaluate(rho).is_zero:
                    out.append(
                        Violation("numerator_vanishes_at_branch", f"f(rho_{i}) = 0: f must be prime to the denominator")
                    )
            if curve.f.evaluate(curve.spec.zero()).is_zero:
                out.append(Violation("numerator_vanishes_at_zero", "f(0) = 0: x must not divide f"))

    curve.violations = tuple(out)
    return out


def require_valid(curve: Curve) -> None:
    violations = validate(curve)
    if violations:
        raise CurveInvalidError(violations)


@dataclass(frozen=True)
class BranchRam:
    rho: FieldElement
    l: int
    e: int
    g: int
    lam: int | None  # valuation of y above the point; Kummer only


@dataclass(frozen=True)
class RamData:
    branch: tuple[BranchRam, ...]
    l0: int | None
    e0: int
    g0: int
    infinity_points: int


def ram_data(curve: Curve) -> RamData:
    """Ramification data at branch points plus the zero and infinity conventions."""
    require_valid(curve)
    if curve.ram is not None:
        return curve.ram
    entries = []
    for rho, l in curve.branch:
        if curve.kind == "kummer":
            g = math.gcd(curve.n, l)
            entries.append(BranchRam(rho=rho, l=l, e=curve.n // g, g=g, lam=l // g))
        else:
            entries.append(BranchRam(rho=rho, l=l, e=curve.p, g=1, lam=None))
    zero_entry = next((entry for entry in entries if entry.rho.is_zero), None)
    if zero_entry is not None:
        data = RamData(tuple(entries), zero_entry.l, zero_entry.e, zero_entry.g, curve.degree)
    else:  # 0 is not a branch point
        l0 = curve.n if curve.kind == "kummer" else None
        data = RamData(tuple(entries), l0, 1, curve.degree, curve.degree)
    curve.ram = data
    return data


@dataclass(frozen=True)
class MuRow:
    mu: int
    m: tuple[int, ...]
    v: tuple[int, ...]
    g_mu: Poly
    t: int
    I: tuple[int, ...]  # 1-based branch indices with v_i != 0


class MuTable:
    """Euclidean-division rows indexed by mu for the active policy range."""

    def __init__(self, policy: str, rows: dict[int, MuRow]):
        self.policy = policy
        self.rows = rows

    def __getitem__(self, mu: int) -> MuRow:
        return self.rows[mu]

    def mus(self) -> list[int]:
        return sorted(self.rows)


POLICIES = ("paper", "extended")


def _check_policy(range_policy: str) -> None:
    if range_policy not in POLICIES:
        raise ValueError(f"unknown mu-range policy {range_policy!r}; use one of {POLICIES}")


def mu_table(curve: Curve, range_policy: str = "extended") -> MuTable:
    """The m_i / v_i / g_mu / t table over the policy's mu range.

    Kummer curves use mu in 1..n-1 under both policies.  Artin-Schreier
    curves use 1..p-1 under the paper policy and 0..p-1 under the
    extended policy (the extra mu = 0 row indexes the differentials whose
    H^1 partners sit at mu = p).
    """
    _check_policy(range_policy)
    require_valid(curve)
    if range_policy in curve.mu_tables:
        return curve.mu_tables[range_policy]
    ram = ram_data(curve)
    p = curve.spec.p
    if curve.kind == "kummer":
        mus = range(1, curve.n)
    else:
        mus = range(1, p) if range_policy == "paper" else range(0, p)
    rows: dict[int, MuRow] = {}
    for mu in mus:
        if curve.kind == "kummer":
            divisions = [divmod(mu * entry.lam, entry.e) for entry in ram.branch]
        else:
            divisions = [divmod((p - 1 - mu) * entry.l + (p - 1), p) for entry in ram.branch]
        ms = tuple(m for m, _ in divisions)
        vs = tuple(v for _, v in divisions)
        if curve.kind == "kummer":
            total = sum(entry.g * v for entry, v in zip(ram.branch, vs))
            if total % curve.n:
                raise ArithmeticError(f"t_{mu} is not an integer, although mu*l == 0 mod n forces it")
            t = total // curve.n
        else:
            t = sum(ms)
        g_mu = Poly.from_roots(curve.spec, [(entry.rho, m) for entry, m in zip(ram.branch, ms)])
        I = tuple(i for i, v in enumerate(vs, start=1) if v != 0)
        rows[mu] = MuRow(mu, ms, vs, g_mu, t, I)
    table = curve.mu_tables[range_policy] = MuTable(range_policy, rows)
    return table


def genus_rh(curve: Curve) -> int:
    """Genus from the degree of the canonical divisor; the independent
    oracle for every dimension count."""
    require_valid(curve)
    if curve.kind == "kummer":
        ram = ram_data(curve)
        two_g_minus_2 = -2 * curve.n + sum(e.g * (e.e - 1) for e in ram.branch)
    else:
        two_g_minus_2 = -2 * curve.p + sum((curve.p - 1) * (l + 1) for _, l in curve.branch)
    if two_g_minus_2 % 2:
        raise ArithmeticError(f"canonical degree {two_g_minus_2} is odd")
    return (two_g_minus_2 + 2) // 2


def genus_from_basis(curve: Curve, range_policy: str = "extended") -> int:
    """Genus as the basis count sum of max(t_mu - 1, 0) over the active range."""
    table = mu_table(curve, range_policy)
    return sum(max(row.t - 1, 0) for row in table.rows.values())
