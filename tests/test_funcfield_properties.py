"""``hypothesis`` properties of the function field on covers the worked
examples do not reach: Kummer covers of degree n >= 3 over F_4, F_9 and
F_25, where the primitive n-th root of unity is not -1 and lies outside
the prime field (and over F_25, 1/n is not 1), and an Artin-Schreier
cover over F_9.

For random elements a, b of F = F_q(x)[y]: each power of the generator is
a ring automorphism fixing F_q(x), the powers compose, the coefficient
trace equals the sum over the Galois orbit, ``exterior_d`` obeys the
Leibniz rule, and d(a^p) = 0 in characteristic p.  On each curve, the
generator has order exactly deg, and y^deg satisfies the defining
relation, written here from the curve data alone.  The Galois action,
the traces and the powers are the ``reference`` routes.

End to end, every random valid small spec document of either family
(p <= 7, total branch multiplicity <= 8) verifies: ``full_report`` passes
every check, and no check reports a status other than pass or fail.

The sparse representation: on both spec files and an Artin-Schreier cover
of degree 19, an element built from a dense vector with random zero
positions holds only its nonzero terms, ascending, gives the vector back
through ``reference.dense``, compares and hashes as the dense vector
does, and its sum (the constructor on both operands' terms), negation,
product, valuations and pairing equal the dense walks of ``reference``,
which visit every index (the product skips only the rows of zero
entries).  ``poles`` of the element and of its differential, over 0,
over infinity and both fibers, equal the filter of the dense valuations
before and after ``valuations`` keeps its tuple, and keep none
themselves.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    dense,
    dense_add,
    dense_mul,
    dense_neg,
    dense_pairing,
    dense_valuations,
    galois,
    power,
    trace,
    trace_by_orbit,
)

from cycliccover.cli import parse_curve_spec
from cycliccover.curve import ASCurve, KummerCurve, place_classes, validate
from cycliccover.funcfield import FFDiff, FFElem, pairing_matrix, poles, valuations
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn
from cycliccover.verify import full_report

F4 = FieldSpec(2, [1, 1, 1])  # z^2 + z + 1
F9 = FieldSpec(3, [1, 0, 1])  # z^2 + 1
F25 = FieldSpec(5, [2, 0, 1])  # z^2 + 2
Z4, Z9, Z25 = F4.element([0, 1]), F9.element([0, 1]), F25.element([0, 1])

CURVES = {
    # y^3 = x (x - 1) (x - z): zeta_3 = z or z + 1 has no Z/2 form
    "kummer_n3_F4": KummerCurve(F4, 3, [(F4.zero(), 1), (F4.one(), 1), (Z4, 1)]),
    # y^4 = (x - 1) (x - z)^3: zeta_4 = z, with zeta_4^2 = -1
    "kummer_n4_F9": KummerCurve(F9, 4, [(F9.one(), 1), (Z9, 3)]),
    # y^3 = (x - 1) (x - z)^2: zeta_3 = z + 2, and 1/3 = 2
    "kummer_n3_F25": KummerCurve(F25, 3, [(F25.one(), 1), (Z25, 2)]),
    # y^3 - y = (x^2 + z) / ((x - 1) (x - z))
    "as_p3_F9": ASCurve(F9, Poly(F9, [Z9, F9.zero(), F9.one()]), [(F9.one(), 1), (Z9, 1)]),
}
IDS = sorted(CURVES)


def ratfns(spec):
    codes = st.integers(0, spec.q - 1)
    return st.builds(
        lambda num, den, lead: RatFn(
            Poly(spec, [spec.from_encoding(c) for c in num]),
            Poly(spec, [spec.from_encoding(c) for c in den + [lead]]),
        ),
        st.lists(codes, max_size=3),
        st.lists(codes, max_size=1),
        st.integers(1, spec.q - 1),
    )


def elements(curve):
    return st.lists(ratfns(curve.spec), min_size=curve.degree, max_size=curve.degree).map(
        lambda coeffs: FFElem(curve, enumerate(coeffs))
    )


def test_the_curves_are_valid():
    assert all(validate(curve) == [] for curve in CURVES.values())


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_galois_is_a_ring_automorphism_fixing_the_base(name, data):
    curve = CURVES[name]
    a, b = data.draw(elements(curve)), data.draw(elements(curve))
    c = data.draw(ratfns(curve.spec))
    j = data.draw(st.integers(1, curve.degree - 1))
    assert galois(a * b, j) == galois(a, j) * galois(b, j)
    assert galois(FFElem(curve, a.terms + b.terms), j) == FFElem(curve, galois(a, j).terms + galois(b, j).terms)
    assert galois(FFElem.monomial(curve, 0, c), j) == FFElem.monomial(curve, 0, c)


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_generator_powers_compose(name, data):
    curve = CURVES[name]
    a = data.draw(elements(curve))
    image = a
    for j in range(1, curve.degree):
        image = galois(image, 1)
        assert image == galois(a, j)
    assert galois(image, 1) == a


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_trace_equals_the_orbit_sum(name, data):
    a = data.draw(elements(CURVES[name]))
    assert trace(a) == trace_by_orbit(a)


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_exterior_d_obeys_leibniz(name, data):
    curve = CURVES[name]
    a, b = data.draw(elements(curve)), data.draw(elements(curve))
    lhs = (a * b).exterior_d()
    rhs = FFDiff(FFElem(curve, (a * b.exterior_d().coeff).terms + (b * a.exterior_d().coeff).terms))
    assert lhs == rhs


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=15)
@given(data=st.data())
def test_exterior_d_kills_pth_powers(name, data):
    curve = CURVES[name]
    a = data.draw(elements(curve))
    assert power(a, curve.spec.p).exterior_d().is_zero


@pytest.mark.parametrize("name", IDS)
def test_the_generator_has_order_deg(name):
    curve = CURVES[name]
    y = FFElem.y(curve)
    assert all(galois(y, j) != y for j in range(1, curve.degree))


@pytest.mark.parametrize("name", IDS)
def test_y_to_the_degree_satisfies_the_relation(name):
    curve = CURVES[name]
    y = FFElem.y(curve)
    if isinstance(curve, KummerCurve):
        expected = FFElem.monomial(curve, 0, RatFn(curve.f))  # y^n = f
    else:
        expected = FFElem(curve, [(1, RatFn.one(curve.spec)), (0, curve.r_fn)])  # y^p = y + r
    assert power(y, curve.degree) == expected


SMALL_PRIMES = (3, 5, 7)
MAX_BRANCH_DEGREE = 8


@st.composite
def kummer_docs(draw):
    """y^n = prod (x - rho_i)^(l_i) over F_p: n | p - 1, n | sum l_i and
    gcd(n, l_1, ..., l_r) = 1."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.sampled_from([d for d in range(2, p) if (p - 1) % d == 0]))
    total = n * draw(st.integers(1, MAX_BRANCH_DEGREE // n))
    rhos = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, total), unique=True))
    cuts = draw(st.lists(st.integers(1, total - 1), min_size=len(rhos) - 1, max_size=len(rhos) - 1, unique=True))
    bounds = [0] + sorted(cuts) + [total]
    ls = [b - a for a, b in zip(bounds, bounds[1:])]
    assume(math.gcd(n, *ls) == 1)
    return {"type": "kummer", "p": p, "n": n, "branch": [{"rho": r, "l": l} for r, l in zip(rhos, ls)]}


@st.composite
def as_docs(draw):
    """y^p - y = f / prod (x - rho_i)^(l_i) over F_p: p prime to each l_i,
    deg f = sum l_i, and f nonzero at 0 and at every rho_i."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    rhos = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3, unique=True))
    ls = [draw(st.integers(1, 4).filter(lambda l: l % p)) for _ in rhos]
    assume(sum(ls) <= MAX_BRANCH_DEGREE)
    f = draw(st.lists(st.integers(0, p - 1), min_size=sum(ls), max_size=sum(ls)))
    f.append(draw(st.integers(1, p - 1)))
    assume(all(sum(c * x**k for k, c in enumerate(f)) % p for x in set(rhos) | {0}))
    return {"type": "artin-schreier", "p": p, "branch": [{"rho": r, "l": l} for r, l in zip(rhos, ls)], "f": f}


@settings(max_examples=60)
@given(doc=st.one_of(kummer_docs(), as_docs()))
def test_small_valid_specs_pass_every_check(doc):
    report = full_report(parse_curve_spec(doc))
    assert {c.status for c in report.checks} <= {"pass", "fail"}
    assert report.all_pass, [c.name for c in report.checks if c.status != "pass"]


SPECS = Path(__file__).resolve().parents[1] / "specs"
SPARSE_CURVES = {
    name: parse_curve_spec(json.loads((SPECS / f"{name}.json").read_text())) for name in ("kummer_quartic", "as_p3")
}
# y^19 - y = (x^2 + 1) / (x - 1)^2, genus 9: 19 y indices, most of them zero
SPARSE_CURVES["as_p19"] = parse_curve_spec(
    {"type": "artin-schreier", "p": 19, "branch": [{"rho": 1, "l": 2}], "f": [1, 0, 1]}
)
SPARSE_IDS = sorted(SPARSE_CURVES)
# the loci the checks allow poles on: over 0, over infinity, and both fibers
LOCI = (
    lambda place: place.covers_zero,
    lambda place: place.kind == "over_infinity",
    lambda place: place.covers_zero or place.kind == "over_infinity",
)


def dense_vectors(curve):
    """Dense vectors with a random set of nonzero positions (at most 4)."""
    deg, zero = curve.degree, RatFn.zero(curve.spec)
    positions = st.lists(st.integers(0, deg - 1), unique=True, max_size=min(deg, 4))
    return positions.flatmap(
        lambda js: st.lists(ratfns(curve.spec), min_size=len(js), max_size=len(js)).map(
            lambda values: [dict(zip(js, values)).get(j, zero) for j in range(deg)]
        )
    )


@pytest.mark.parametrize("name", SPARSE_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_terms_are_the_nonzero_coefficients_ascending(name, data):
    curve = SPARSE_CURVES[name]
    a = data.draw(dense_vectors(curve))
    elem = FFElem(curve, enumerate(a))
    assert [j for j, _ in elem.terms] == [j for j, c in enumerate(a) if not c.is_zero]
    assert all(not c.is_zero for _, c in elem.terms)
    assert dense(elem) == a
    assert elem.is_zero == all(c.is_zero for c in a)
    assert FFElem(curve, reversed(elem.terms)) == elem


@pytest.mark.parametrize("name", SPARSE_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_equality_and_hash_follow_the_dense_vector(name, data):
    curve = SPARSE_CURVES[name]
    a = data.draw(dense_vectors(curve))
    b = data.draw(st.one_of(st.just(list(a)), dense_vectors(curve)))
    x, y = FFElem(curve, enumerate(a)), FFElem(curve, enumerate(b))
    assert (x == y) == (a == b)
    if a == b:
        assert hash(x) == hash(y)


@pytest.mark.parametrize("name", SPARSE_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ring_operations_match_the_dense_walks(name, data):
    curve = SPARSE_CURVES[name]
    a, b = data.draw(dense_vectors(curve)), data.draw(dense_vectors(curve))
    x, y = FFElem(curve, enumerate(a)), FFElem(curve, enumerate(b))
    for got, want in ((FFElem(curve, x.terms + y.terms), dense_add(a, b)), (-x, dense_neg(a)),
                      (x * y, dense_mul(curve, a, b))):
        assert dense(got) == want
        assert [j for j, _ in got.terms] == [j for j, c in enumerate(want) if not c.is_zero]
    assert FFElem(curve, x.terms + (-x).terms).terms == ()


@pytest.mark.parametrize("name", SPARSE_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_valuations_and_pairing_match_the_dense_walks(name, data):
    curve = SPARSE_CURVES[name]
    a, w = data.draw(dense_vectors(curve)), data.draw(dense_vectors(curve))
    x = FFElem(curve, enumerate(a))
    if x.is_zero:
        with pytest.raises(ValueError):
            valuations(x)
        assert all(poles(x, allowed) == poles(FFDiff(x), allowed) == [] for allowed in LOCI)
    else:
        places = place_classes(curve)
        want = dense_valuations(a, places)
        for kept in (False, True):  # poles walks the classes off the locus, then reads the kept tuple
            for obj, dx in ((x, 0), (FFDiff(x), 1)):
                values = [v + dx * place.v_dx for place, v in zip(places, want)]
                for allowed in LOCI:
                    expected = [(place, v) for place, v in zip(places, values) if v < 0 and not allowed(place)]
                    assert poles(obj, allowed) == expected
            assert (x._valuations is None) != kept  # poles keeps no partial tuple
            assert valuations(x) == want
    assert pairing_matrix(curve, [FFDiff(FFElem(curve, enumerate(w)))], [x]) == [[dense_pairing(curve, a, w)]]
