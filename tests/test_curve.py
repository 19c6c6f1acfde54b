import pytest

from cycliccover import curve as curve_module
from cycliccover.curve import (
    ASCurve,
    CurveInvalidError,
    KummerCurve,
    Violation,
    genus_from_basis,
    genus_rh,
    mu_table,
    place_classes,
    require_valid,
    validate,
)
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)


def quartic():
    return KummerCurve(F5, 2, [(F5.element(i), 1) for i in (1, 2, 3, 4)])


def as_p3():
    return ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(1), 1), (F3.element(2), 1)])


def test_validate_examples():
    assert validate(quartic()) == []
    bad = KummerCurve(F5, 3, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
    codes = {v.code for v in validate(bad)}
    assert "l_not_divisible_by_n" in codes
    assert "n_not_dividing_q_minus_1" in codes
    assert validate(as_p3()) == []


def test_validate_rejects_reducible_covers():
    # y^4 = ((x-1)(x-2))^2 splits into two components
    bad = KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(2), 2)])
    assert "cover_reducible" in {v.code for v in validate(bad)}


def test_validate_as_violations():
    f = Poly.from_ints(F3, [1, 0, 1])
    dup = ASCurve(F3, f, [(F3.element(1), 1), (F3.element(1), 1)])
    assert "branch_points_not_distinct" in {v.code for v in validate(dup)}
    bad_l = ASCurve(F3, Poly.from_ints(F3, [1, 0, 0, 1]), [(F3.element(1), 3)])
    assert "multiplicity_divisible_by_p" in {v.code for v in validate(bad_l)}
    wrong_deg = ASCurve(F3, Poly.from_ints(F3, [1, 1]), [(F3.element(1), 2)])
    assert "numerator_degree_mismatch" in {v.code for v in validate(wrong_deg)}
    at_branch = ASCurve(F3, Poly.from_ints(F3, [2, 1]), [(F3.element(1), 1)])  # f(1) = 0
    assert "numerator_vanishes_at_branch" in {v.code for v in validate(at_branch)}
    at_zero = ASCurve(F3, Poly.from_ints(F3, [0, 1]), [(F3.element(1), 1)])
    assert "numerator_vanishes_at_zero" in {v.code for v in validate(at_zero)}


def test_tables_refuse_invalid_curves():
    bad = KummerCurve(F5, 3, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
    with pytest.raises(CurveInvalidError):
        place_classes(bad)
    with pytest.raises(CurveInvalidError):
        mu_table(bad)


def test_the_kept_verdict_survives_edits_to_a_returned_list(monkeypatch):
    # validate hands out a fresh list each call; require_valid reads the kept verdict
    good, bad = quartic(), KummerCurve(F5, 3, [(F5.element(i), 1) for i in (1, 2, 3, 4)])
    codes = [v.code for v in validate(bad)]
    validate(good)
    with monkeypatch.context() as mp:
        mp.setattr(curve_module, "validate", lambda c: pytest.fail("require_valid judged a judged curve again"))
        require_valid(good)
    for _ in range(2):
        validate(good).append(Violation("planted", "not a real violation"))
        validate(bad).clear()
        assert validate(good) == []
        require_valid(good)
        assert [v.code for v in validate(bad)] == codes
        with pytest.raises(CurveInvalidError) as caught:
            require_valid(bad)
        assert [v.code for v in caught.value.violations] == codes


def _zero_conventions(curve):
    """(l0, e0, g0): l, e and npoints of the place class over x = 0."""
    zero = next(place for place in place_classes(curve) if place.covers_zero)
    return zero.l, zero.e, zero.npoints


def test_place_classes_examples():
    c = quartic()
    places = place_classes(c)
    assert all((b.e, b.npoints, b.v_y) == (2, 1, 1) for b in places[:c.r])  # (e, g, lambda)
    assert _zero_conventions(c) == (2, 1, 2)  # 0 unbranched: l0 = n, e0 = 1, g0 = n
    assert places[-1].kind == "over_infinity" and places[-1].npoints == 2

    mixed = KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(2), 1), (F5.element(3), 1)])
    entry = place_classes(mixed)[0]
    assert (entry.l, entry.e, entry.npoints, entry.v_y) == (2, 2, 2, 1)

    a = as_p3()
    assert all(b.e == 3 and b.npoints == 1 for b in place_classes(a)[:a.r])
    assert _zero_conventions(a) == (None, 1, 3)  # 0 unbranched: no l0 for Artin-Schreier


def test_place_classes_zero_branch_conventions():
    c = KummerCurve(F5, 2, [(F5.element(i), 1) for i in (0, 1, 2, 3)])
    assert _zero_conventions(c) == (1, 2, 1)
    a = ASCurve(F3, Poly.from_ints(F3, [1, 0, 1]), [(F3.element(0), 1), (F3.element(1), 1)])
    assert _zero_conventions(a) == (1, 3, 1)


def test_mu_table_kummer_quartic():
    row = mu_table(quartic())[1]
    assert row.m == (0, 0, 0, 0)
    assert row.v == (1, 1, 1, 1)
    assert row.g_mu == Poly.one(F5)
    assert row.t == 2
    assert row.I == (1, 2, 3, 4)


def test_mu_table_as_paper_pinned_value():
    # p = 7 with a single branch point of multiplicity 2: the table row at
    # index 1 has quotient equal to the multiplicity
    F7loc = FieldSpec(7)
    c = ASCurve(F7loc, Poly.from_ints(F7loc, [1, 0, 1]), [(F7loc.element(1), 2)])
    row = mu_table(c)[1]
    assert row.m == (2,)
    assert row.v == (2,)


def test_mu_table_as_f3_rows():
    t = mu_table(as_p3(), "extended")
    assert (t[0].m, t[0].v, t[0].t) == ((1, 1), (1, 1), 2)
    assert (t[1].m, t[1].v, t[1].t) == ((1, 1), (0, 0), 2)
    assert (t[2].m, t[2].v, t[2].t) == ((0, 0), (2, 2), 0)
    paper = mu_table(as_p3(), "paper")
    assert list(paper) == [1, 2]
    assert list(mu_table(as_p3(), "extended")) == [0, 1, 2]
    assert list(mu_table(quartic(), "paper")) == list(mu_table(quartic(), "extended"))


def test_genus_examples():
    assert genus_rh(quartic()) == 1
    assert genus_rh(as_p3()) == 2
    g0 = ASCurve(F3, Poly.from_ints(F3, [2, 1]), [(F3.element(2), 1)])
    assert genus_rh(g0) == 0


def test_genus_from_basis_examples():
    assert genus_from_basis(quartic()) == 1
    assert genus_from_basis(as_p3(), "extended") == 2
    assert genus_from_basis(as_p3(), "paper") == 1
    g0 = ASCurve(F3, Poly.from_ints(F3, [2, 1]), [(F3.element(2), 1)])
    assert genus_from_basis(g0, "extended") == 0
    assert genus_from_basis(g0, "paper") == 0


def _corpus():
    curves = [
        quartic(),
        as_p3(),
        KummerCurve(F7, 3, [(F7.element(i), 1) for i in (1, 2, 3)]),
        KummerCurve(F7, 2, [(F7.element(1), 3), (F7.element(2), 1), (F7.element(3), 1), (F7.element(4), 1)]),
        KummerCurve(F5, 4, [(F5.element(1), 2), (F5.element(2), 1), (F5.element(3), 1)]),
        KummerCurve(F5, 2, [(F5.element(i), 1) for i in (0, 1, 2, 3)]),
        ASCurve(F5, Poly.from_ints(F5, [1, 0, 0, 1]), [(F5.element(1), 1), (F5.element(2), 2)]),
        ASCurve(F7, Poly.from_ints(F7, [3, 0, 1]), [(F7.element(1), 2)]),
    ]
    assert all(validate(c) == [] for c in curves)
    return curves


def test_degree_identities_on_corpus():
    for c in _corpus():
        if c.kind != "kummer":
            continue
        branches = place_classes(c)[:c.r]
        assert sum(b.npoints * b.v_y for b in branches) == c.l == c.t * c.n
        table = mu_table(c)
        for row in table.values():
            assert sum(b.npoints * v for b, v in zip(branches, row.v)) == c.n * row.t


def test_extended_basis_count_matches_genus_on_corpus():
    for c in _corpus():
        assert genus_from_basis(c, "extended") == genus_rh(c)
        if c.kind == "kummer":
            assert genus_from_basis(c, "paper") == genus_rh(c)


def test_as_top_row_vanishes():
    for c in _corpus():
        if c.kind != "artin-schreier":
            continue
        row = mu_table(c)[c.p - 1]
        assert all(m == 0 for m in row.m)
        assert row.t == 0


def test_broken_invariants_raise_explicit_errors():
    # y^2 = (x-1)(x-2)(x-3) fails validation (deg f odd); with the verdict
    # forced to "valid" the table operations reach their invariants, which
    # must raise even when assertions are stripped
    curve = KummerCurve(F5, 2, [(F5.element(i), 1) for i in (1, 2, 3)])
    assert [v.code for v in validate(curve)] == ["l_not_divisible_by_n"]
    curve.violations = ()
    with pytest.raises(ArithmeticError, match="t_1 is not an integer"):
        mu_table(curve)
    with pytest.raises(ArithmeticError, match="canonical degree -1 is odd"):
        genus_rh(curve)
