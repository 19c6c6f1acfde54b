"""Machine verification of every identity asserted about the bases.

Each check returns a ``CheckResult`` whose status is pass, fail, or
inconclusive.  Inconclusive is reserved for valuation-bound checks where
the bound is negative but not exact (over the fibers at 0 and infinity a
bound is only a lower bound), so a limitation of the bound is never
mistaken for a counterexample; the emitted bases never trigger it.

Serre duality itself is not re-proved: the duality check computes the
full pairing matrix and demands the identity.  The exactness check reads
H^1 coordinates through that pairing, so ``full_report`` orders duality
before exactness.

The checks read their bases and the pairing matrix from the curve's
``cohomology.BasisContext``, so a full report builds each basis once per
policy and sign convention and pairs the matrix once: the duality check
compares every entry of that matrix with the identity, and the exactness
check takes the coordinates of an a-class whose image is an H^1 basis
representative from that representative's column.  ``full_report`` hands
its sign convention to every check that reads the de Rham basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import (
    DeRhamClass,
    DeRhamTriple,
    as_psi,
    basis_context,
    derham_basis,
    h1_basis,
    h1_coordinates,
    map_i,
    map_p,
    omega_basis,
)
from .curve import Curve, genus_rh, mu_table, ram_data, validate
from .funcfield import FFDiff, FFElem, place_classes, valuation_bound
from .gf import FieldElement
from .polyrat import Poly, RatFn


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    details: str
    payload: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerifyOptions:
    mu_range: str = "extended"
    sign: str = "negated-infty"


@dataclass
class Report:
    checks: list[CheckResult]
    all_pass: bool
    pairing_matrix: list[list[FieldElement]] | None = None


def duality_matrix(
    curve: Curve, range_policy: str = "extended"
) -> tuple[list[list[FieldElement]], CheckResult]:
    """Full pairing matrix of the differential basis against the H^1
    basis in duality-respecting column order; passes iff it is the
    identity."""
    one = curve.spec.one()
    zero = curve.spec.zero()
    matrix = [list(row) for row in basis_context(curve, range_policy).pairing_matrix]
    mismatches = []
    for i, row in enumerate(matrix):
        for j, value in enumerate(row):
            expected = one if i == j else zero
            if value != expected:
                mismatches.append((i, j, value.render()))
    if mismatches:
        result = CheckResult(
            "duality",
            "fail",
            f"{len(mismatches)} pairing entries differ from the identity matrix",
            {"mismatches": mismatches[:10], "size": len(matrix)},
        )
    else:
        result = CheckResult(
            "duality",
            "pass",
            f"{len(matrix)}x{len(matrix)} pairing matrix is the identity",
            {"size": len(matrix)},
        )
    return matrix, result


def cocycle_check(item: DeRhamTriple | DeRhamClass, label: str | None = None) -> CheckResult:
    """d f_0inf = omega_0 - omega_inf, demanded as exact equality of all
    reduced coefficients."""
    if isinstance(item, DeRhamClass):
        triple = item.triple
        label = label or item.label
    else:
        triple = item
        label = label or "triple"
    name = f"cocycle:{label}"
    residual = triple.f0inf.exterior_d() - triple.omega0 + triple.omega_inf
    if residual.is_zero:
        return CheckResult(name, "pass", "exterior derivative matches the slot difference")
    return CheckResult(
        name,
        "fail",
        "d(f_0inf) - omega_0 + omega_inf is nonzero",
        {"residual": residual.render()},
    )


def locus_check(item: DeRhamTriple | DeRhamClass, label: str | None = None) -> CheckResult:
    """Membership of the three slots in their sheaves: omega_0 regular off
    the fiber over 0, omega_inf off the fiber over infinity, f_0inf off
    both fibers."""
    if isinstance(item, DeRhamClass):
        triple = item.triple
        label = label or item.label
    else:
        triple = item
        label = label or "triple"
    name = f"locus:{label}"
    places = None
    confirmed: list[str] = []
    possible: list[str] = []

    def scan(obj, slot: str, skip) -> None:
        nonlocal places
        inner = obj.coeff if isinstance(obj, FFDiff) else obj
        if inner.is_zero:
            return
        if places is None:
            places = place_classes(inner.curve)
        for place in places:
            if skip(place):
                continue
            bound, exact = valuation_bound(obj, place)
            if bound < 0:
                note = f"{slot} at {place.label()}: bound {bound}"
                (confirmed if exact else possible).append(note)

    scan(triple.omega0, "omega_0", lambda pl: pl.covers_zero)
    scan(triple.omega_inf, "omega_inf", lambda pl: pl.kind == "over_infinity")
    scan(triple.f0inf, "f_0inf", lambda pl: pl.kind != "branch" or pl.covers_zero)

    if confirmed:
        return CheckResult(name, "fail", "; ".join(confirmed), {"violations": confirmed})
    if possible:
        return CheckResult(
            name,
            "inconclusive",
            "; ".join(possible),
            {"unresolved_bounds": possible},
        )
    return CheckResult(name, "pass", "all slots regular away from their allowed fibers")


def _valuation_item(obj, place, expected: int, what: str, items: list) -> int:
    bound, _ = valuation_bound(obj, place)
    ok = bound == expected
    items.append(
        {
            "item": f"({what}) at {place.label()}",
            "ok": ok,
            "expected": expected,
            "got": bound,
        }
    )
    return bound * place.npoints


def divisor_checks(curve: Curve) -> CheckResult:
    """Recompute the valuations of the displayed functions and
    differentials at every place class, compare with the closed-form
    exponents, and balance every divisor degree (0 for functions, 2g - 2
    for dx).  The per-mu polynomial identities that control the de Rham
    construction are verified here as well."""
    table = mu_table(curve, "extended")
    ram = ram_data(curve)
    places = place_classes(curve)
    spec = curve.spec
    g = genus_rh(curve)
    items: list[dict] = []

    def expect_degree(total: int, target: int, what: str) -> None:
        items.append(
            {"item": f"deg({what})", "ok": total == target, "expected": target, "got": total}
        )

    x_elem = FFElem.from_ratfn(curve, RatFn.from_poly(Poly.x(spec)))
    y_elem = FFElem.y(curve)
    dx = FFDiff(FFElem.one(curve))

    if curve.kind == "kummer":
        n = curve.n
        branch_by_index = {i: entry for i, entry in enumerate(ram.branch, start=1)}
        # (x)
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = place.e if place.rho.is_zero else 0
            elif place.kind == "over_zero":
                expected = 1
            else:
                expected = -1
            total += _valuation_item(x_elem, place, expected, "x", items)
        expect_degree(total, 0, "x")
        # (y)
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = branch_by_index[place.index].lam
            elif place.kind == "over_zero":
                expected = 0
            else:
                expected = -curve.t
            total += _valuation_item(y_elem, place, expected, "y", items)
        expect_degree(total, 0, "y")
        # (dx)
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = place.e - 1
            elif place.kind == "over_zero":
                expected = 0
            else:
                expected = -2
            total += _valuation_item(dx, place, expected, "dx", items)
        expect_degree(total, 2 * g - 2, "dx")
        # (y^mu / g_mu) for every mu
        for mu in table.mus():
            row = table[mu]
            elem = FFElem.monomial(curve, mu, RatFn(Poly.one(spec), row.g_mu))
            total = 0
            for place in places:
                if place.kind == "branch":
                    expected = row.v[place.index - 1]
                elif place.kind == "over_zero":
                    expected = 0
                else:
                    expected = -row.t
                total += _valuation_item(elem, place, expected, f"y^{mu}/g_{mu}", items)
            expect_degree(total, 0, f"y^{mu}/g_{mu}")
        # polynomial identities per mu: the gg product and the log derivative
        for mu in table.mus():
            row = table[mu]
            other = table[n - mu]
            support = Poly.from_roots(spec, [(ram.branch[i - 1].rho, 1) for i in row.I])
            items.append(
                {
                    "item": f"gg:mu={mu}",
                    "ok": row.g_mu * other.g_mu * support == curve.f,
                    "expected": "g_mu * g_{n-mu} * prod_I (x-rho) == f",
                    "got": "equal" if row.g_mu * other.g_mu * support == curve.f else "unequal",
                }
            )
            phi = Poly.from_roots(
                spec, [(e.rho, v * e.g) for e, v in zip(ram.branch, row.v)]
            )
            lhs = phi.derivative() * support
            rhs = Poly.zero(spec)
            for i in row.I:
                weight = spec.element(row.v[i - 1] * ram.branch[i - 1].g)
                partial = Poly.from_roots(
                    spec, [(ram.branch[j - 1].rho, 1) for j in row.I if j != i]
                )
                rhs = rhs + partial * weight
            rhs = phi * rhs
            items.append(
                {
                    "item": f"logder:mu={mu}",
                    "ok": lhs == rhs,
                    "expected": "phi' * prod_I == phi * sum_I v g prod_(I-i)",
                    "got": "equal" if lhs == rhs else "unequal",
                }
            )
    else:
        p = curve.p
        branch_l = {i: l for i, (_, l) in enumerate(curve.branch, start=1)}
        # (x)
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = p if place.rho.is_zero else 0
            elif place.kind == "over_zero":
                expected = 1
            else:
                expected = -1
            total += _valuation_item(x_elem, place, expected, "x", items)
        expect_degree(total, 0, "x")
        # (y): pole part at the branch points, root part of degree deg f elsewhere
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = -branch_l[place.index]
            else:
                expected = 0
            total += _valuation_item(y_elem, place, expected, "y", items)
        expect_degree(total + curve.l, 0, "y (pole part balanced by deg f)")
        # (prod (x - rho_i)^{l_i})
        denom_elem = FFElem.from_ratfn(curve, RatFn.from_poly(curve.branch_poly))
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = p * branch_l[place.index]
            elif place.kind == "over_zero":
                expected = 0
            else:
                expected = -curve.l
            total += _valuation_item(denom_elem, place, expected, "prod (x-rho)^l", items)
        expect_degree(total, 0, "prod (x-rho)^l")
        # (dx)
        total = 0
        for place in places:
            if place.kind == "branch":
                expected = (p - 1) * (branch_l[place.index] + 1)
            elif place.kind == "over_zero":
                expected = 0
            else:
                expected = -2
            total += _valuation_item(dx, place, expected, "dx", items)
        expect_degree(total, 2 * g - 2, "dx")
        # (g_mu) for every mu
        for mu in table.mus():
            row = table[mu]
            if row.g_mu.degree == 0:
                continue  # constant: trivial divisor
            elem = FFElem.from_ratfn(curve, RatFn.from_poly(row.g_mu))
            total = 0
            for place in places:
                if place.kind == "branch":
                    expected = p * row.m[place.index - 1]
                elif place.kind == "over_zero":
                    expected = 0
                else:
                    expected = -row.t
                total += _valuation_item(elem, place, expected, f"g_{mu}", items)
            expect_degree(total, 0, f"g_{mu}")
        # (g_{p-mu} y^{mu-1}) pole parts and the exponent identity
        for m in table.mus():
            mu = p - m
            if mu < 1:
                continue
            row = table[m]
            elem = FFElem.monomial(curve, mu - 1, RatFn.from_poly(row.g_mu))
            total = 0
            for place in places:
                if place.kind == "branch":
                    i = place.index
                    expected = p * row.m[i - 1] - (mu - 1) * branch_l[i]
                    identity_ok = expected == p - 1 - row.v[i - 1] and expected >= 0
                    items.append(
                        {
                            "item": f"exponent:g_{m}*y^{mu - 1} at branch[{i}]",
                            "ok": identity_ok,
                            "expected": p - 1 - row.v[i - 1],
                            "got": expected,
                        }
                    )
                elif place.kind == "over_zero":
                    expected = 0
                else:
                    expected = -row.t
                total += _valuation_item(elem, place, expected, f"g_{m}*y^{mu - 1}", items)
            expect_degree(total + (mu - 1) * curve.l, 0, f"g_{m}*y^{mu - 1} (with root part)")
        # dy against its closed form
        dy = FFElem.y(curve).exterior_d()
        closed = RatFn(
            as_psi(curve),
            Poly.from_roots(spec, [(rho, l + 1) for rho, l in curve.branch]),
        )
        expected_dy = FFDiff(FFElem.from_ratfn(curve, closed))
        items.append(
            {
                "item": "dy == psi / prod (x-rho)^{l+1} dx",
                "ok": dy == expected_dy,
                "expected": expected_dy.render(),
                "got": dy.render(),
            }
        )

    bad = [it for it in items if not it["ok"]]
    if bad:
        return CheckResult(
            "divisors",
            "fail",
            f"{len(bad)} of {len(items)} divisor identities failed",
            {"items": bad},
        )
    return CheckResult(
        "divisors", "pass", f"all {len(items)} divisor identities hold", {"count": len(items)}
    )


def dimension_check(
    curve: Curve, range_policy: str = "extended", sign: str = "negated-infty"
) -> CheckResult:
    """Basis sizes against the Riemann-Hurwitz genus: g, g, and 2g."""
    g = genus_rh(curve)
    n_omega = len(omega_basis(curve, range_policy))
    n_h1 = len(h1_basis(curve, range_policy))
    n_dr = len(derham_basis(curve, range_policy, sign))
    counts = {"omega": n_omega, "h1": n_h1, "derham": n_dr, "genus": g}
    if n_omega == g and n_h1 == g and n_dr == 2 * g:
        return CheckResult(
            "dimension", "pass", f"counts ({n_omega}, {n_h1}, {n_dr}) match genus {g}", counts
        )
    return CheckResult(
        "dimension",
        "fail",
        f"counts ({n_omega}, {n_h1}, {n_dr}) do not match genus {g} (expected {g}, {g}, {2 * g})",
        counts,
    )


def exactness_check(
    curve: Curve, range_policy: str = "extended", sign: str = "negated-infty"
) -> CheckResult:
    """Exactness of 0 -> H^0(Omega) -> H^1_dR -> H^1(O) -> 0 on the
    constructed bases: i lands in the kernel of p, the a-family surjects
    onto the H^1 basis with unit coordinates, and the delta-family has
    zero third slot.  An a-class whose image is an H^1 basis
    representative takes its coordinates from that representative's
    column of the pairing matrix; every other image is paired afresh."""
    zero = curve.spec.zero()
    one = curve.spec.one()
    context = basis_context(curve, range_policy)
    problems = []
    omegas = omega_basis(curve, range_policy)
    for idx, w in omegas:
        coords = h1_coordinates(curve, map_p(map_i(w)), range_policy)
        if any(c != zero for c in coords):
            problems.append(f"p(i(omega[{idx.mu},{idx.nu}])) has nonzero coordinates")
    classes = derham_basis(curve, range_policy, sign)
    a_classes = [c for c in classes if c.kind == "a"]
    seen_positions = []
    for cls in a_classes:
        image = map_p(cls.triple)
        coords = context.column_coordinates(image)
        if coords is None:
            coords = h1_coordinates(curve, image, range_policy)
        hits = [k for k, c in enumerate(coords) if c != zero]
        if len(hits) != 1 or coords[hits[0]] != one:
            problems.append(f"p({cls.label}) is not a unit coordinate vector")
        else:
            seen_positions.append(hits[0])
    if sorted(seen_positions) != list(range(len(a_classes))):
        problems.append("a-family does not map onto the full H^1 basis")
    for cls in classes:
        if cls.kind == "delta" and not cls.triple.f0inf.is_zero:
            problems.append(f"{cls.label} has a nonzero third slot")
    if problems:
        return CheckResult("exactness", "fail", "; ".join(problems), {"problems": problems})
    return CheckResult(
        "exactness",
        "pass",
        "kernel, surjectivity and zero-section conditions all hold",
        {"a_count": len(a_classes), "omega_count": len(omegas)},
    )


def full_report(curve: Curve, options: VerifyOptions | None = None) -> Report:
    """Run every check in a deterministic order and aggregate the outcome."""
    options = options or VerifyOptions()
    checks: list[CheckResult] = []
    violations = validate(curve)
    if violations:
        for v in violations:
            checks.append(CheckResult(f"validate:{v.code}", "fail", v.message))
        return Report(checks, all_pass=False, pairing_matrix=None)
    checks.append(CheckResult("validation", "pass", "all curve hypotheses hold"))
    checks.append(divisor_checks(curve))
    checks.append(dimension_check(curve, options.mu_range, options.sign))
    matrix, duality = duality_matrix(curve, options.mu_range)
    checks.append(duality)
    for cls in derham_basis(curve, options.mu_range, options.sign):
        checks.append(cocycle_check(cls))
        checks.append(locus_check(cls))
    checks.append(exactness_check(curve, options.mu_range, options.sign))
    all_pass = all(c.status == "pass" for c in checks)
    return Report(checks, all_pass=all_pass, pairing_matrix=matrix)
