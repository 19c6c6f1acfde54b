"""``polyrat.fraction_sum`` against the reduced ``RatFn`` sum, over F_7,
F_9 and F_25, with ``hypothesis``.

Each case draws denominators x^e u from a small pool of x-free parts u
(constants among them, monic or not), so x-free parts are shared and
whole denominators repeat; a case may add the negation of every fraction,
so that the sum cancels, and may be a single fraction.  The unreduced
result must have the value of the reduced sum, a zero numerator exactly
when that sum is zero, and the denominator the docstring states: x^E,
E the largest x-order, times the distinct x-free parts whose fractions
do not cancel; 0/1 when every group cancels.

Two planted faults, each made by recompiling ``fraction_sum`` with one
line changed, must fail the same oracle: a numerator shift that is off by
one, and a common denominator that drops its x-power."""

import inspect
import textwrap
from functools import reduce

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from cycliccover import polyrat
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, fraction_sum

FIELDS = (FieldSpec(7), FieldSpec(3, [1, 0, 1]), FieldSpec(5, [2, 0, 1]))


def _x_free_part(den: Poly) -> tuple[int, tuple[int, ...]]:
    """(e, encodings of u) for den = x^e u with u(0) != 0, by counting zero coefficients."""
    e = 0
    while not den.ints[e]:
        e += 1
    return e, den.ints[e:]


@st.composite
def cases(draw):
    spec = draw(st.sampled_from(FIELDS))
    code = st.integers(0, spec.q - 1)
    unit = st.integers(1, spec.q - 1)

    def poly(head, degree):
        return Poly.from_encodings(spec, [draw(head)] + draw(st.lists(code, max_size=degree)))

    # x-free parts: a nonzero constant coefficient, so u(0) != 0; constants included
    pool = [poly(unit, 2) for _ in range(draw(st.integers(1, 3)))]
    fractions = []
    for _ in range(draw(st.integers(1, 5))):
        num = poly(code, 3)
        if num.is_zero:
            num = Poly.one(spec)
        fractions.append((num, draw(st.sampled_from(pool)).shift(draw(st.integers(0, 3)))))
    if draw(st.booleans()):
        fractions += [(-num, den) for num, den in fractions]
    return spec, draw(st.permutations(fractions))


def _agrees(fsum, spec, fractions) -> bool:
    total, common = fsum(spec, iter(fractions))
    exact = reduce(lambda acc, t: acc + RatFn(*t), fractions, RatFn.zero(spec))
    if common.is_zero or RatFn(total, common) != exact or total.is_zero != exact.is_zero:
        return False
    groups: dict[tuple[int, ...], RatFn] = {}
    for num, den in fractions:
        _, u = _x_free_part(den)
        groups[u] = groups.get(u, RatFn.zero(spec)) + RatFn(num, den)
    kept = [Poly.from_encodings(spec, u) for u, value in groups.items() if not value.is_zero]
    if not kept:
        return (total, common) == (Poly.zero(spec), Poly.one(spec))
    top = max(_x_free_part(den)[0] for _, den in fractions)
    return common == reduce(lambda a, b: a * b, kept).shift(top)


@settings(max_examples=150)
@given(case=cases())
def test_fraction_sum_matches_the_reduced_sum(case):
    assert _agrees(fraction_sum, *case)


def test_the_cases_cover_shared_parts_cancellation_and_single_fractions():
    seen = {"shared x-free part": False, "repeated denominator": False, "cancels": False, "single": False}

    def note(case):
        spec, fractions = case
        dens = [den.ints for _, den in fractions]
        parts = [_x_free_part(den) for _, den in fractions]
        seen["repeated denominator"] |= len(set(dens)) < len(dens)
        seen["shared x-free part"] |= len({u for _, u in parts}) < len({(e, u) for e, u in parts})
        seen["cancels"] |= reduce(lambda acc, t: acc + RatFn(*t), fractions, RatFn.zero(spec)).is_zero
        seen["single"] |= len(fractions) == 1
        return all(seen.values())

    find(cases(), note, settings=settings(max_examples=500))


def _planted(old: str, new: str):
    """``fraction_sum`` recompiled in the ``polyrat`` namespace with one line changed."""
    source = textwrap.dedent(inspect.getsource(polyrat.fraction_sum))
    assert source.count(old) == 1
    namespace = dict(vars(polyrat))
    exec(compile(source.replace(old, new), polyrat.__file__, "exec"), namespace)
    return namespace["fraction_sum"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("num = num.shift(top - e)", "num = num.shift(top - e + 1)"),  # a shift off by one
        ("return total, common.shift(top)", "return total, common"),  # the x-power dropped
    ],
    ids=["shift-off-by-one", "dropped-x-power"],
)
def test_planted_faults_fail_the_oracle(old, new):
    planted = _planted(old, new)
    spec, fractions = find(cases(), lambda case: not _agrees(planted, *case), settings=settings(max_examples=500))
    assert not _agrees(planted, spec, fractions)
