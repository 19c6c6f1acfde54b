from reference import as_omega_mu, cocycle_residual, dense, kummer_psi

from cycliccover import cohomology, verify
from cycliccover.cohomology import (
    BasisIndex,
    as_psi,
    build_bases,
    h1_basis,
    h1_indices,
    map_i,
    map_p,
    omega_basis,
    omega_indices,
)
from cycliccover.curve import ASCurve, KummerCurve, MuRow, genus_rh, mu_table, place_classes
from cycliccover.funcfield import FFElem, pairing_matrix, valuation_bound
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)

QUARTIC = KummerCurve(F5, 2, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
AS_P3 = ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(1), 1), (F3.element(2), 1)])
CUBIC_F7 = KummerCurve(F7, 3, [(F7.element(i), 1) for i in (1, 2, 3)])  # the t_{n-mu} = 1 case
SEXTIC_F7 = KummerCurve(F7, 3, [(F7.element(i), 1) for i in range(1, 7)])  # genus 4, three nu at mu = 2


def _corpus():
    return [
        QUARTIC,
        AS_P3,
        CUBIC_F7,
        KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(2), 1), (F5.element(3), 1)]),
        KummerCurve(F5, 2, [(F5.element(i), 1) for i in (0, 1, 2, 3)]),
        ASCurve(F5, Poly.from_ints(F5, [2, 0, 1]), [(F5.element(1), 1), (F5.element(2), 1)]),
        ASCurve(F7, Poly.from_ints(F7, [3, 0, 1]), [(F7.element(1), 2)]),
    ]


def test_omega_basis_examples():
    basis = omega_basis(QUARTIC)
    assert len(basis) == 1
    idx, w = basis[0]
    assert idx == BasisIndex(1, 1)
    assert w.render() == "(1/(4 + x^4))*y * dx"

    as_basis = omega_basis(AS_P3, "extended")
    assert [tuple(i) for i, _ in as_basis] == [(0, 1), (1, 1)]
    assert as_basis[0][1].render() == "(1/(2 + x^2)) * dx"
    assert as_basis[1][1].render() == "(1/(2 + x^2))*y * dx"

    g0 = ASCurve(F3, Poly.from_ints(F3, [2, 1]), [(F3.element(2), 1)])
    assert omega_basis(g0) == []


def test_omega_basis_is_holomorphic_everywhere():
    for curve in _corpus():
        basis = omega_basis(curve)
        assert len(basis) == genus_rh(curve)
        for _, w in basis:
            for place in place_classes(curve):
                bound = valuation_bound(w, place)
                assert bound >= 0


def test_h1_basis_examples():
    basis = h1_basis(QUARTIC)
    assert [(tuple(i), h.render()) for i, h in basis] == [((1, 1), "(1/x)*y")]

    ext = h1_basis(AS_P3, "extended")
    assert [(tuple(i), h.render()) for i, h in ext] == [
        ((2, 1), "((2 + x^2)/x)*y"),
        ((3, 1), "((2 + x^2)/x)*y^2"),
    ]
    paper = h1_basis(AS_P3, "paper")
    assert [tuple(i) for i, _ in paper] == [(2, 1)]


def test_h1_representatives_have_poles_only_over_zero_and_infinity():
    for curve in _corpus():
        for _, h in h1_basis(curve):
            for place in place_classes(curve):
                if place.kind != "branch" or place.covers_zero:
                    continue
                bound = valuation_bound(h, place)
                assert bound >= 0


def test_kummer_psi_quartic():
    table = mu_table(QUARTIC)
    row = table[1]
    assert row.I == (1, 2, 3, 4)
    expected = Poly.from_ints(F5, [2, 0, 0, 0, 2])
    assert cohomology._psi_at(cohomology._kummer_psi_parts(QUARTIC, 1, table), 1) == expected
    assert kummer_psi(QUARTIC, 1, 1, table) == expected
    # the divisor table checks g_mu g_{n-mu} prod_I (x - rho) = f and phi_mu = prod (x - rho)^(v g)
    items = verify._kummer_identities(QUARTIC, table, place_classes(QUARTIC)[:QUARTIC.r])
    assert {template.format(*args): ok for ok, _, _, template, args in items} == {"gg:mu=1": True, "logder:mu=1": True}


def test_kummer_psi_degenerate_empty_support():
    # An empty support set cannot occur on an irreducible cover, so feed the
    # formula a synthetic row: psi must degenerate to the constant -nu*n.
    table = mu_table(QUARTIC)
    fake = {1: MuRow(1, (0, 0, 0, 0), (0, 0, 0, 0), Poly.one(F5), 0, ())}
    expected = Poly.from_ints(F5, [-2])
    assert cohomology._psi_at(cohomology._kummer_psi_parts(QUARTIC, 1, fake), 1) == expected
    assert kummer_psi(QUARTIC, 1, 1, fake) == expected


def test_derham_builder_builds_the_psi_parts_once_per_mu(monkeypatch):
    curve = SEXTIC_F7
    calls = []
    original = cohomology._kummer_psi_parts

    def counted(curve, mu, table):
        calls.append(mu)
        return original(curve, mu, table)

    monkeypatch.setattr(cohomology, "_kummer_psi_parts", counted)
    classes = [c for c in build_bases(curve).derham if c.kind == "a"]
    mus = [idx.mu for idx in h1_indices(curve)]
    assert len(classes) == len(mus) > len(set(mus))  # some mu has several nu
    assert sorted(calls) == sorted(set(mus))


def test_divisor_identities_do_not_read_the_psi_builder(monkeypatch):
    # the per-mu identities rebuild their products from the branch data
    def broken(*args, **kwargs):
        raise AssertionError("the divisor check must not call the de Rham builder's psi")

    for module in (cohomology, verify):  # verify would hold its own binding after a from-import
        for name in ("_kummer_psi_parts", "_psi_at"):
            monkeypatch.setattr(module, name, broken, raising=False)
    assert verify.divisor_checks(SEXTIC_F7).status == "pass"


def test_as_phi_psi_and_omega_mu_examples():
    table = mu_table(AS_P3)
    # phi_{mu,nu} = x g_{p-mu}' g_{mu-1} - nu g_{p-mu} g_{mu-1}, from parts built once per mu
    phi = {
        (mu, nu): cohomology._psi_at(cohomology._as_phi_parts(AS_P3, table, mu), nu).ints
        for mu in (1, 2) for nu in (1, 2, 3)
    }
    assert phi[2, 1] == Poly.from_ints(F3, [2, 0, 0, 0, 1]).ints  # x^4 + 2
    assert phi == {
        (1, 1): (1, 0, 2), (1, 2): (2, 0, 1), (1, 3): (),
        (2, 1): (2, 0, 0, 0, 1), (2, 2): (1, 0, 2), (2, 3): (0, 0, 1, 0, 2),
    }
    assert as_psi(AS_P3) == Poly.from_ints(F3, [0, 1])  # x
    assert as_omega_mu(AS_P3, 2, table).render() == "(1/(2 + x^2)) * dx"
    # dy cross-check: coefficient of d(y) equals psi over prod (x-rho)^{l+1}
    dy = FFElem.y(AS_P3).exterior_d()
    den = Poly.from_roots(F3, [(rho, l + 1) for rho, l in AS_P3.branch])
    assert cohomology.as_pole_den(AS_P3) == den
    assert dense(dy.coeff)[0] == RatFn(as_psi(AS_P3), den)


def test_as_omega_mu_vanishes_at_mu_one():
    assert as_omega_mu(AS_P3, 1, mu_table(AS_P3)).is_zero


def test_derham_quartic_worked_triple():
    classes = build_bases(QUARTIC).derham
    assert [c.label for c in classes] == ["a[1,1]", "delta[1,1]"]
    a = classes[0].triple
    # psi = 2x^4 + 2 split at degree nu + 1 = 2 gives (2, 2x^4)
    assert a.omega0.coeff == FFElem.monomial(
        QUARTIC, 1, RatFn(Poly.from_ints(F5, [1]), Poly.from_ints(F5, [0, 0, 4, 0, 0, 0, 1]))
    )
    assert a.f0inf == FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), Poly.x(F5)))
    # cocycle identity, exact
    assert cocycle_residual(a).is_zero
    delta = classes[1].triple
    assert delta.omega0 == delta.omega_inf
    assert delta.f0inf.is_zero


def test_derham_paper_sign_flips_infinity_slot():
    default = build_bases(QUARTIC).derham[0].triple
    paper = build_bases(QUARTIC, sign_convention="paper").derham[0].triple
    assert paper.omega_inf == -default.omega_inf
    assert paper.omega0 == default.omega0
    # under the paper sign the displayed triple satisfies df = w0 + winf
    assert cocycle_residual(default).is_zero
    assert cocycle_residual(paper) == FFElem(QUARTIC, paper.omega_inf.coeff.terms * 2)


def test_derham_counts_and_cocycles_on_corpus():
    for curve in _corpus():
        classes = build_bases(curve).derham
        g = genus_rh(curve)
        assert len(classes) == 2 * g
        assert sum(1 for c in classes if c.kind == "a") == g
        for cls in classes:
            assert cocycle_residual(cls.triple).is_zero


def test_derham_split_adjustment_keeps_omega0_finite_at_infinity():
    # t^{(n-mu)} = 1 on this curve: the top slot must stay regular over infinity
    classes = [c for c in build_bases(CUBIC_F7).derham if c.kind == "a"]
    assert classes, "the cubic has a nonempty a-family"
    inf = [p for p in place_classes(CUBIC_F7) if p.kind == "over_infinity"][0]
    for cls in classes:
        bound = valuation_bound(cls.triple.omega0, inf)
        assert bound >= 0


def test_maps_of_the_exact_sequence():
    idx, w = omega_basis(QUARTIC)[0]
    triple = map_i(w)
    assert triple.omega0 == w and triple.omega_inf == w
    assert map_p(triple).is_zero
    delta = [c for c in build_bases(QUARTIC).derham if c.kind == "delta"][0]
    assert delta.triple == map_i(w)

    a_classes = {tuple(c.index): c for c in build_bases(AS_P3).derham if c.kind == "a"}
    for h_idx, h in h1_basis(AS_P3):
        assert map_p(a_classes[tuple(h_idx)].triple) == h


def test_h1_coordinates_examples():
    # the coordinates of [h] are the column of h paired against the differential basis
    y_over_x = FFElem.monomial(QUARTIC, 1, RatFn(Poly.one(F5), Poly.x(F5)))
    omegas = [w for _, w in omega_basis(QUARTIC)]
    assert pairing_matrix(QUARTIC, omegas, [y_over_x, FFElem.one(QUARTIC)]) == [[1, 0]]


def test_h1_coordinates_linearity():
    reps = [h for _, h in h1_basis(AS_P3)]
    omegas = [w for _, w in omega_basis(AS_P3)]
    matrix = pairing_matrix(AS_P3, omegas, [FFElem(AS_P3, reps[0].terms + reps[1].terms), *reps])
    assert [total for total, _, _ in matrix] == [F3.add(a, b) for _, a, b in matrix]


def test_index_sets_align_under_duality():
    for curve in _corpus():
        omegas = omega_indices(curve)
        hs = h1_indices(curve)
        assert len(omegas) == len(hs)
        if curve.kind == "kummer":
            assert omegas == hs
        else:
            partners = [BasisIndex(curve.p - i.mu, i.nu) for i in hs]
            assert sorted(partners) == sorted(omegas)
