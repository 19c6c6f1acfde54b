"""Machine verification of every identity asserted about the bases.

Each check returns a ``CheckResult`` whose status is pass or fail.  The
locus check reads exact class valuations (``funcfield.poles``, from the
one walk ``funcfield.valuations``), so a negative one is a pole at some
point of the class, never a limitation of the bound.

Serre duality itself is not re-proved: the duality check computes the
full pairing matrix (``funcfield.pairing_matrix``, the one pairing
route, each residue once per key) and demands the identity.  The matrix
stays in field encodings from ``pairing_matrix`` to the report; only a
failing entry is made a ``FieldElement``, to render it.  The exactness
check reads H^1 coordinates from that matrix, so ``full_report`` orders
duality before exactness.

The cocycle check sums each y coefficient of d f_0inf - omega_0 +
omega_inf as one unreduced fraction (``polyrat.fraction_sum``): its
denominator is the largest x-power of the terms' denominators times the
product of their distinct x-free parts, and no gcd is taken.  It passes
iff every numerator is zero; an index at which no slot has a term is not
summed.  Only a failing check reduces the sums, into the canonical
residual its payload renders.

``full_report`` builds the bases once (``cohomology.build_bases``) and
hands the one ``Bases`` value to every check that reads a basis, so a
report builds each basis once and pairs the matrix once: the duality
check compares every entry of that matrix with the identity, and the
exactness check takes the coordinates of an a-class whose image is an H^1
basis representative from that representative's column; the builder
makes that image the representative itself.  An a-class image is its
f_0inf slot: ``full_report`` finds each f_0inf's poles off the fibers once,
for the locus check of its class and the exactness check.

The divisor check is a table: each divisor is one row holding its label,
its element or differential, and its closed-form exponents at each branch
place, over 0 and over infinity, written from the spec's branch data and
the mu-table (never from the ``PlaceClass`` fields whose valuations are
being checked, so a wrong place formula fails at its place, not only in
a degree), plus the degree its place total must reach.  One loop turns
every row into its valuation items and its ``deg(...)`` item; the (x) row
is shared by both families.  An item holds its verdict, its expected and
computed values and a label template with its arguments; only a failing
check formats labels, into the payload dicts of its failing items.  The
Kummer gg product and log derivative of each mu are decided on the
integers of its mu-table row, building no polynomial (``_kummer_identities``).
The Artin-Schreier dy item is decided as the cocycle check is, by a zero
test on the unreduced sums of dy - psi / prod (x - rho_i)^(l_i + 1) dx,
and renders its two reduced differentials only when it fails.  Only a
failing item reduces by Euclid (``_reduced``), as its den is arbitrary.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .cohomology import Bases, DeRhamTriple, as_pole_den, as_psi, build_bases, map_i, map_p, off_fiber_poles
from .curve import ASCurve, Curve, KummerCurve, MuRow, PlaceClass, genus_rh, mu_table, place_classes, validate
from .funcfield import FFDiff, FFElem, pairing_matrix, poles, valuation_bound
from .gf import FieldElement
from .polyrat import Poly, RatFn, fraction_sum


_Poles = list[tuple[PlaceClass, int]]  # the (place class, valuation) poles of an element


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail"
    details: str
    payload: dict  # a fresh dict per result, {} when the check reports nothing more


class VerifyOptions(NamedTuple):
    mu_range: str = "extended"
    sign: str = "negated-infty"


class Report(NamedTuple):
    checks: list[CheckResult]
    all_pass: bool
    pairing_matrix: list[list[int]] | None = None  # encodings, as ``pairing_matrix`` gives them
    bases: Bases | None = None


def duality_matrix(curve: Curve, bases: Bases) -> tuple[list[list[int]], CheckResult]:
    """Full pairing matrix of the differential basis against the H^1
    basis in duality-respecting column order, as the encodings
    ``pairing_matrix`` gives; passes iff it is the identity.  Entry (i, j)
    pairs column j against the i-th differential, so column j holds the
    H^1 coordinates of its representative."""
    matrix = pairing_matrix(curve, [w for _, w in bases.omega], [h for _, h in bases.columns])
    mismatches = [
        (i, j, FieldElement(curve.spec, c).render())
        for i, row in enumerate(matrix)
        for j, c in enumerate(row)
        if c != (1 if i == j else 0)
    ]
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


def _dx_sums(f: FFElem, terms: Sequence[tuple[int, Poly, Poly]]) -> dict[int, tuple[Poly, Poly]]:
    """Per y index that has a nonzero term, the dx coefficient of d f plus
    the (index, num, den) terms as one unreduced fraction num/den: the sum
    is zero iff every numerator is."""
    by_index: dict[int, list[tuple[Poly, Poly]]] = {}
    for k, num, den in f.differential_terms() + list(terms):
        if num.ints:
            by_index.setdefault(k, []).append((num, den))
    return {k: fraction_sum(f.curve.spec, index_terms) for k, index_terms in by_index.items()}


def _reduced(curve: Curve, sums: dict[int, tuple[Poly, Poly]]) -> FFDiff:
    """The differential of per y index sums num/den reduced by Euclid, for a
    failing item to render: a faulty slot can put any factor into den."""
    return FFDiff(FFElem(curve, [(k, RatFn(num, den)) for k, (num, den) in sums.items()]))


def _cocycle_sums(triple: DeRhamTriple) -> dict[int, tuple[Poly, Poly]]:
    """Per y index with a term, the dx coefficient of d f_0inf - omega_0 +
    omega_inf as one unreduced fraction num/den (at any other index it is
    0): the identity holds iff every numerator is zero.  Slots on
    mismatched curves are refused."""
    f, omega0, omega_inf = triple.f0inf, triple.omega0.coeff, triple.omega_inf.coeff
    if not (f.curve is omega0.curve is omega_inf.curve):
        raise ValueError("de Rham triple slots on mismatched curves")
    slots = [(k, -a.num, a.den) for k, a in omega0.terms] + [(k, b.num, b.den) for k, b in omega_inf.terms]
    return _dx_sums(f, slots)


def cocycle_check(triple: DeRhamTriple, label: str) -> CheckResult:
    """d f_0inf = omega_0 - omega_inf, demanded as exact equality: every
    y coefficient of the difference, summed unreduced, has numerator zero.
    A failing check reduces the sums into the residual it reports."""
    name = f"cocycle:{label}"
    sums = _cocycle_sums(triple)
    if all(num.is_zero for num, _ in sums.values()):
        return CheckResult(name, "pass", "exterior derivative matches the slot difference", {})
    return CheckResult(
        name,
        "fail",
        "d(f_0inf) - omega_0 + omega_inf is nonzero",
        {"residual": _reduced(triple.f0inf.curve, sums).render()},
    )


def locus_check(triple: DeRhamTriple, label: str, f0inf_poles: _Poles | None = None) -> CheckResult:
    """Membership of the three slots in their sheaves: omega_0 regular off
    the fiber over 0, omega_inf off the fiber over infinity, f_0inf off
    both fibers (``f0inf_poles``, when given, are its poles found already)."""
    name = f"locus:{label}"
    slots = (
        ("omega_0", poles(triple.omega0, lambda pl: pl.covers_zero)),
        ("omega_inf", poles(triple.omega_inf, lambda pl: pl.kind == "over_infinity")),
        ("f_0inf", off_fiber_poles(triple.f0inf) if f0inf_poles is None else f0inf_poles),
    )
    violations = [f"{slot} at {place.label}: bound {value}" for slot, found in slots for place, value in found]
    if violations:
        return CheckResult(name, "fail", "; ".join(violations), {"violations": violations})
    return CheckResult(name, "pass", "all slots regular away from their allowed fibers", {})


# A divisor item is (ok, expected, got, template, args): its label is the
# template formatted with the args, which only a failing payload does (``_failed``).
_Item = tuple[bool, object, object, str, tuple]


class _Row(NamedTuple):
    """One divisor: its closed-form exponent at each branch place (by
    branch index), over 0 and over infinity, and the degree its place
    total must reach once ``shift`` (the root part of y the places do not
    see) is added.  ``before`` holds, per branch index, identity items
    emitted just before that branch's valuation item."""

    label: str
    elem: FFElem | FFDiff
    at_branch: Sequence[int]
    at_zero: int
    at_infinity: int
    degree: int = 0
    shift: int = 0
    degree_label: str | None = None
    before: Sequence[_Item] = ()


def _identity(ok: bool, expected: str, template: str, *args) -> _Item:
    return ok, expected, "equal" if ok else "unequal", template, args


def _failed(items: Sequence[_Item]) -> list[dict]:
    """The failing items as payload dicts, each label formatted."""
    return [
        {"item": template.format(*args), "ok": ok, "expected": expected, "got": got}
        for ok, expected, got, template, args in items
        if not ok
    ]


def _kummer_rows(curve: KummerCurve, table: dict[int, MuRow], dx: FFDiff, g: int) -> list[_Row]:
    rows = [  # at a branch, v(y) = lambda_i = l_i / g_i and v(dx) = e_i - 1, with g_i = gcd(n, l_i)
        _Row("y", FFElem.y(curve), [l // math.gcd(curve.n, l) for _, l in curve.branch], 0, -curve.t),
        _Row("dx", dx, [curve.n // math.gcd(curve.n, l) - 1 for _, l in curve.branch], 0, -2, 2 * g - 2),
    ]
    for mu in table:
        row = table[mu]
        elem = FFElem.monomial(curve, mu, RatFn._of(Poly.one(curve.spec), row.g_mu))  # reduced, with no record
        rows.append(_Row(f"y^{mu}/g_{mu}", elem, row.v, 0, -row.t))
    return rows


def _gg_holds(curve: KummerCurve, row: MuRow, partner: MuRow) -> bool:
    """g_mu g_(n-mu) prod_I (x - rho) == f, on the exponent of each x - rho_i."""
    return all(a + b + (i in row.I) == l for i, (a, b, (_, l)) in enumerate(zip(row.m, partner.m, curve.branch), 1))


def _logder_holds(curve: KummerCurve, row: MuRow, branches: Sequence[PlaceClass]) -> bool:
    """phi' prod_I (x - rho) == phi sum_I v g prod_(I-i) (x - rho), on the residues v_i g_i mod p."""
    return all(i in row.I for i, (b, v) in enumerate(zip(branches, row.v), 1) if v * b.npoints % curve.spec.p)


def _kummer_identities(curve: KummerCurve, table: dict[int, MuRow], branches: Sequence[PlaceClass]) -> list[_Item]:
    """Per mu: the gg product and the log derivative of phi = prod (x -
    rho_i)^(v_i g_i), decided on the mu-table row.  Each side is a product
    of the distinct primes x - rho_i (``validate``; g_mu and f are
    ``Poly.from_roots`` of these exponents).  gg: by unique factorization it
    holds iff m_i(mu) + m_i(n - mu) + [i in I] = l_i at every i.  logder:
    phi'/phi = sum_i (v_i g_i mod p)/(x - rho_i), the right side over phi
    prod_I (x - rho) is that sum over I, and partial fractions over distinct
    poles are unique, so it holds iff every i with v_i g_i != 0 mod p is in
    I.  The y^mu/g_mu rows still certify each g_mu from scratch; the kernels
    these items no longer run (``from_roots``, ``derivative``, the products)
    have their own oracles."""
    items = []
    for mu, row in table.items():
        gg = _gg_holds(curve, row, table[curve.n - mu])
        items.append(_identity(gg, "g_mu * g_{n-mu} * prod_I (x-rho) == f", "gg:mu={}", mu))
        logder = _logder_holds(curve, row, branches)
        items.append(_identity(logder, "phi' * prod_I == phi * sum_I v g prod_(I-i)", "logder:mu={}", mu))
    return items


def _as_rows(curve: ASCurve, table: dict[int, MuRow], dx: FFDiff, g: int) -> list[_Row]:
    p = curve.p
    ls = [l for _, l in curve.branch]
    rows = [
        # pole part at the branch points; the root part, of degree deg f, lies elsewhere
        _Row(
            "y", FFElem.y(curve), [-l for l in ls], 0, 0,
            shift=curve.l, degree_label="y (pole part balanced by deg f)",
        ),
        _Row(
            "prod (x-rho)^l", FFElem.monomial(curve, 0, RatFn(curve.branch_poly)),
            [p * l for l in ls], 0, -curve.l,
        ),
        _Row("dx", dx, [(p - 1) * (l + 1) for l in ls], 0, -2, 2 * g - 2),
    ]
    for mu in table:
        row = table[mu]
        if row.g_mu.degree != 0:  # a constant has the trivial divisor
            elem = FFElem.monomial(curve, 0, RatFn(row.g_mu))
            rows.append(_Row(f"g_{mu}", elem, [p * m for m in row.m], 0, -row.t))
    # g_m y^{mu-1} with mu = p - m: the pole parts, and the exponent identity
    for m in table:
        row, mu = table[m], p - m
        label = f"g_{m}*y^{mu - 1}"
        exponents = [p * mi - (mu - 1) * l for mi, l in zip(row.m, ls)]
        before = [
            (got == p - 1 - v and got >= 0, p - 1 - v, got, "exponent:{} at branch[{}]", (label, i))
            for i, (got, v) in enumerate(zip(exponents, row.v), start=1)
        ]
        elem = FFElem.monomial(curve, mu - 1, RatFn(row.g_mu))
        rows.append(
            _Row(
                label, elem, exponents, 0, -row.t,
                shift=(mu - 1) * curve.l, degree_label=f"{label} (with root part)", before=before,
            )
        )
    return rows


def _dy_matches(curve: ASCurve, psi: Poly, pole_den: Poly) -> bool:
    """Whether dy = psi/pole_den dx, tested as every unreduced sum of
    dy - psi/pole_den dx having numerator zero."""
    sums = _dx_sums(FFElem.y(curve), [(0, -psi, pole_den)])
    return all(num.is_zero for num, _ in sums.values())


def divisor_checks(curve: Curve) -> CheckResult:
    """Recompute the valuations of the displayed functions and
    differentials at every place class, compare with the closed-form
    exponents, and balance every divisor degree (0 for functions, 2g - 2
    for dx).  The per-mu polynomial identities that control the de Rham
    construction are verified here as well."""
    table = mu_table(curve, "extended")
    places = place_classes(curve)
    spec = curve.spec
    g = genus_rh(curve)
    dx = FFDiff(FFElem.one(curve))
    x_elem = FFElem.monomial(curve, 0, RatFn(Poly.x(spec)))
    deg = curve.degree  # e_i = deg / gcd(deg, l_i) in both families, as gcd(p, l_i) = 1
    x_row = _Row("x", x_elem, [deg // math.gcd(deg, l) if rho.is_zero else 0 for rho, l in curve.branch], 1, -1)
    if curve.kind == "kummer":
        rows = [x_row] + _kummer_rows(curve, table, dx, g)
    else:
        rows = [x_row] + _as_rows(curve, table, dx, g)

    items: list[_Item] = []
    for row in rows:
        total = row.shift
        for place in places:
            if place.kind == "branch":
                if row.before:
                    items.append(row.before[place.position])
                expected = row.at_branch[place.position]
            else:
                expected = row.at_zero if place.kind == "over_zero" else row.at_infinity
            bound = valuation_bound(row.elem, place)
            items.append((bound == expected, expected, bound, "({0.label}) at {1.label}", (row, place)))
            total += bound * place.npoints
        items.append((total == row.degree, row.degree, total, "deg({})", (row.degree_label or row.label,)))

    if curve.kind == "kummer":
        items += _kummer_identities(curve, table, places[:curve.r])
    else:
        psi, pole_den = as_psi(curve), as_pole_den(curve)
        ok = _dy_matches(curve, psi, pole_den)
        shown = (None, None)  # a passing item is not reported
        if not ok:
            got_dy = _dx_sums(FFElem.y(curve), [])
            shown = (_reduced(curve, {0: (psi, pole_den)}).render(), _reduced(curve, got_dy).render())
        items.append((ok, *shown, "{}", ("dy == psi / prod (x-rho)^{l+1} dx",)))

    bad = _failed(items)
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


def dimension_check(curve: Curve, bases: Bases) -> CheckResult:
    """Basis sizes against the Riemann-Hurwitz genus: g, g, and 2g."""
    g = genus_rh(curve)
    n_omega, n_h1, n_dr = len(bases.omega), len(bases.h1), len(bases.derham)
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
    curve: Curve, bases: Bases, matrix: list[list[int]], a_poles: Sequence[_Poles] | None = None
) -> CheckResult:
    """Exactness of 0 -> H^0(Omega) -> H^1_dR -> H^1(O) -> 0 on the
    constructed bases: i lands in the kernel of p, the a-family surjects
    onto the H^1 basis with unit coordinates, and the delta-family has
    zero third slot.  The kernel condition asks p(i(omega)) to be the
    zero element itself, so nothing is paired for it; an a-class whose
    image is an H^1 basis representative takes its coordinates from that
    representative's column of ``matrix`` (``duality_matrix`` of the same
    bases), and the other images are paired afresh, all in one
    ``pairing_matrix`` call.  Coordinates are compared as encodings.  An
    image with a pole off the fibers over 0 and infinity is no H^1 class:
    it is reported, by class and place, and not paired.  ``a_poles``, when
    given, are the images' poles in a-class order, found already."""
    problems = []
    for idx, w in bases.omega:
        if not map_p(map_i(w)).is_zero:
            problems.append(f"p(i(omega[{idx.mu},{idx.nu}])) is not zero")
    a_classes = [c for c in bases.derham if c.kind == "a"]
    images = [map_p(cls.triple) for cls in a_classes]
    off_fiber = a_poles if a_poles is not None else [off_fiber_poles(image) for image in images]
    columns: dict[FFElem, int] = {}  # each representative's first column
    for j, (_, h) in enumerate(bases.columns):
        columns.setdefault(h, j)
    fresh = [image for image, found in zip(images, off_fiber) if not found and image not in columns]
    if fresh:  # a passing report has none: its a-class images are the representatives
        paired = pairing_matrix(curve, [w for _, w in bases.omega], fresh)
        matrix = [row + more for row, more in zip(matrix, paired)]
        columns.update((image, len(bases.columns) + k) for k, image in enumerate(fresh))
    seen_positions = []
    for cls, image, found in zip(a_classes, images, off_fiber):
        if found:
            places = ", ".join(place.label for place, _ in found)
            problems.append(f"p({cls.label}) has a pole at {places}: not an O(U_0 cap U_inf) class")
            continue
        column = columns[image]
        coords = [row[column] for row in matrix]
        hits = [k for k, c in enumerate(coords) if c]
        if len(hits) != 1 or coords[hits[0]] != 1:
            problems.append(f"p({cls.label}) is not a unit coordinate vector")
        else:
            seen_positions.append(hits[0])
    if sorted(seen_positions) != list(range(len(a_classes))):
        problems.append("a-family does not map onto the full H^1 basis")
    for cls in bases.derham:
        if cls.kind == "delta" and not cls.triple.f0inf.is_zero:
            problems.append(f"{cls.label} has a nonzero third slot")
    if problems:
        return CheckResult("exactness", "fail", "; ".join(problems), {"problems": problems})
    return CheckResult(
        "exactness",
        "pass",
        "kernel, surjectivity and zero-section conditions all hold",
        {"a_count": len(a_classes), "omega_count": len(bases.omega)},
    )


def full_report(curve: Curve, options: VerifyOptions | None = None) -> Report:
    """Run every check in a deterministic order and aggregate the outcome."""
    options = options or VerifyOptions()
    checks: list[CheckResult] = []
    violations = validate(curve)
    if violations:
        for v in violations:
            checks.append(CheckResult(f"validate:{v.code}", "fail", v.message, {}))
        return Report(checks, all_pass=False, pairing_matrix=None)
    checks.append(CheckResult("validation", "pass", "all curve hypotheses hold", {}))
    checks.append(divisor_checks(curve))
    bases = build_bases(curve, options.mu_range, options.sign)
    checks.append(dimension_check(curve, bases))
    matrix, duality = duality_matrix(curve, bases)
    checks.append(duality)
    f0inf_poles = [off_fiber_poles(cls.triple.f0inf) for cls in bases.derham]  # each f_0inf walked once
    for cls, found in zip(bases.derham, f0inf_poles):
        checks.append(cocycle_check(cls.triple, cls.label))
        checks.append(locus_check(cls.triple, cls.label, found))
    a_poles = [found for cls, found in zip(bases.derham, f0inf_poles) if cls.kind == "a"]
    checks.append(exactness_check(curve, bases, matrix, a_poles))
    all_pass = all(c.status == "pass" for c in checks)
    return Report(checks, all_pass=all_pass, pairing_matrix=matrix, bases=bases)
