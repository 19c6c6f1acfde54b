import random

import pytest
from reference import nth_root_of_unity

from cycliccover.gf import FieldSpec, find_irreducible_poly, is_prime

F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, [1, 0, 1])  # z^2 + 1
F25 = FieldSpec(5, [2, 0, 1])  # z^2 + 2


def test_field_op_examples():
    assert F7.element(1) * F7.element(3).inverse() == F7.element(5)
    assert (F5.element(2) * F5.element(3)) == F5.element(1)
    z = F9.element([0, 1])
    assert (z * z) == F9.element(2)


def test_pow_examples():
    assert F5.element(2) ** 4 == F5.one()
    assert F7.element(3) ** 6 == F7.one()
    assert F7.element(2) ** -1 == F7.element(4)


def test_division_and_pow_errors():
    with pytest.raises(ZeroDivisionError):
        F5.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        F5.zero() ** -1
    with pytest.raises(ValueError):
        F5.element(1) + F7.element(1)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(6)
    with pytest.raises(ValueError):
        FieldSpec(5, [1, 0, 1])  # z^2 + 1 = (z-2)(z+2) over F_5
    with pytest.raises(ValueError):
        FieldSpec(3, [1, 1])  # degree 1 modulus
    assert FieldSpec(5, [2, 0, 1]).q == 25
    with pytest.raises(ValueError, match="exceeds the budget"):
        FieldSpec(2, [1] + [0] * 16 + [1])  # q = 2^17
    with pytest.raises(ValueError, match="exceeds the budget"):
        FieldSpec(1000000000000000003)  # before any trial division


def test_encoding_roundtrip():
    for spec in (F5, F9, F25):
        for k in range(spec.q):
            assert spec.from_encoding(k).encoding == k


def _orders_by_brute_force(spec, n):
    """Multiplicative order check by repeated multiplication only."""
    hits = []
    for k in range(1, spec.q):
        a = spec.from_encoding(k)
        power = a
        order = 1
        while power != spec.one():
            power = power * a
            order += 1
        if order == n:
            hits.append(k)
    return hits


@pytest.mark.parametrize(
    "spec,n,expected",
    [(F5, 4, 2), (F7, 3, 2), (F7, 6, 3), (F9, 8, 4), (F9, 4, 3), (F9, 2, 2)],
)
def test_nth_root_of_unity_matches_brute_force(spec, n, expected):
    candidates = _orders_by_brute_force(spec, n)
    assert candidates, "the field must contain elements of this order"
    zeta = nth_root_of_unity(spec, n)
    assert zeta.encoding == min(candidates)
    assert zeta.encoding == expected


def test_nth_root_requires_divisibility():
    with pytest.raises(ValueError):
        nth_root_of_unity(F5, 3)


def test_root_of_unity_order_is_exact():
    for spec, n in [(F5, 4), (F7, 3), (F9, 8), (F25, 24), (F25, 8)]:
        zeta = nth_root_of_unity(spec, n)
        assert zeta**n == spec.one()
        for d in range(1, n):
            if n % d == 0:
                assert zeta**d != spec.one()


def test_fermat_property():
    for spec in (F5, F7, F9, F25):
        for k in range(1, spec.q):
            a = spec.from_encoding(k)
            assert a ** (spec.q - 1) == spec.one()


def test_field_axioms_on_random_triples():
    rng = random.Random(0)
    for spec in (F7, F9, F25):
        for _ in range(100):
            a, b, c = (spec.from_encoding(rng.randrange(spec.q)) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * a.inverse() == spec.one()


def test_find_irreducible_poly():
    assert find_irreducible_poly(3, 2) == [1, 0, 1]
    m = find_irreducible_poly(2, 2)
    assert m == [1, 1, 1]
    assert FieldSpec(2, m).q == 4


def test_is_prime_small_values():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
