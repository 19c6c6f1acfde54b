"""Oracle for the denominator factorizations that ``reduce_over_roots``
records (``RatFn.den_roots``) and for the walk ``poles`` runs off a locus.

Every y coefficient of every basis object carries the (encoding of rho,
m) pairs of its denominator, den = prod (x - rho)^m, x = x - 0 among
them.  Each recorded m is checked against the multiplicity of x - rho in
den found by the ``reference`` route (repeated long division by x - rho),
and the record must multiply out to den, so no factor is missing.
``valuations`` reads den's multiplicity off the record; the same terms
rebuilt by the reducing ``RatFn(num, den)`` carry none and are walked by
synthetic division, and the two walks must agree.  ``poles`` runs the
same walk over the classes outside the locus only; it must equal the
filter of the full ``valuations`` tuple, for both kinds of coefficient
and every locus the checks use.

The objects are the omega, H^1 and de Rham slot objects of both
``specs/`` files (each policy and sign), of the README Kummer and
Artin-Schreier corpora and of the genus-171 cover of ``test_golden``."""

import json
from functools import cache
from pathlib import Path

import pytest
from reference import _order
from test_golden import SHA_SPECS

from cycliccover.cli import enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import build_bases
from cycliccover.curve import place_classes
from cycliccover.funcfield import FFDiff, FFElem, poles, valuations
from cycliccover.gf import FieldSpec
from cycliccover.polyrat import Poly, RatFn, reduce_over_roots

SPECS = Path(__file__).resolve().parents[1] / "specs"
DOCS = {
    **{path.stem: json.loads(path.read_text()) for path in sorted(SPECS.glob("*.json"))},
    "kummer_q961_n20": SHA_SPECS["kummer_q961_n20"],
    **{f"kummer{i}": doc for i, doc in enumerate(enumerate_kummer_specs(13, 6, 12, 64, seed=7))},
    **{f"as{i}": doc for i, doc in enumerate(enumerate_as_specs(7, 3, 4, 40, seed=7))},
}
# every policy and sign on the spec files, the defaults on the corpora
OPTIONS = [("extended", "negated-infty"), ("paper", "negated-infty"), ("extended", "paper")]
LOCI = {
    "covers_zero": lambda place: place.covers_zero,
    "over_infinity": lambda place: place.kind == "over_infinity",
    "off_fiber": lambda place: place.kind != "branch" or place.covers_zero,
}


@cache
def _objects(name: str) -> tuple:
    """The distinct nonzero omega, H^1 and de Rham slot objects of the curve."""
    curve = parse_curve_spec(DOCS[name])
    out = {}
    for policy, sign in OPTIONS if name in ("as_p3", "kummer_quartic") else OPTIONS[:1]:
        bases = build_bases(curve, policy, sign)
        for obj in [w for _, w in bases.omega] + [h for _, h in bases.h1] + [s for c in bases.derham for s in c.triple]:
            if not obj.is_zero:
                out[id(obj)] = obj
    return tuple(out.values())


def _element(obj) -> FFElem:
    return obj.coeff if isinstance(obj, FFDiff) else obj


def _copy(obj, rebuild: bool):
    """obj with no kept valuations: on the same terms, or on the terms
    rebuilt by the reducing ``RatFn(num, den)``, which record nothing."""
    elem = _element(obj)
    terms = [(j, RatFn(a.num, a.den)) for j, a in elem.terms] if rebuild else elem.terms
    copy = FFElem(elem.curve, terms)
    return FFDiff(copy) if isinstance(obj, FFDiff) else copy


@pytest.mark.parametrize("name", DOCS)
def test_every_recorded_root_is_the_denominator_multiplicity(name):
    for obj in _objects(name):
        for _, a in _element(obj).terms:
            spec, den = a.num.spec, a.den
            assert a.den_roots is not None, a.render()
            rhos = [r for r, _ in a.den_roots]
            assert len(set(rhos)) == len(rhos), a.den_roots
            for r, m in a.den_roots:
                assert m > 0 and _order(den, spec.from_encoding(r)) == m, (a.render(), r, m)
            assert Poly.from_roots(spec, [(spec.from_encoding(r), m) for r, m in a.den_roots]) == den, a.render()


@pytest.mark.parametrize("name", DOCS)
def test_valuations_from_the_record_match_a_walk_of_the_rebuilt_terms(name):
    for obj in _objects(name):
        rebuilt = _copy(obj, rebuild=True)
        assert all(a.den_roots is None for _, a in _element(rebuilt).terms)
        assert valuations(_copy(obj, rebuild=False)) == valuations(rebuilt)


@pytest.mark.parametrize("name", DOCS)
def test_poles_is_the_filter_of_the_full_walk(name):
    for obj in _objects(name):
        places = place_classes(_element(obj).curve)
        full = valuations(_copy(obj, rebuild=True))
        for allowed in LOCI.values():
            expected = [(place, v) for place, v in zip(places, full) if v < 0 and not allowed(place)]
            for rebuild in (False, True):
                assert poles(_copy(obj, rebuild), allowed) == expected, (obj.render(), rebuild)


def test_the_corpora_reach_recorded_roots_and_poles():
    # the tests above see recorded roots, and poles: a slot checked
    # against another slot's locus has some, so the walk is not only seen passing
    # and x entries recorded on curves with a branch point at 0, where x's
    # exponent comes from the branch row and not only from the shift
    objects = [obj for name in DOCS for obj in _objects(name)]
    roots = sum(len(a.den_roots) for obj in objects for _, a in _element(obj).terms)
    found = sum(bool(poles(obj, allowed)) for obj in objects for allowed in LOCI.values())
    at_zero = sum(not r for obj in objects if any(not rho.encoding for rho, _ in _element(obj).curve.branch)
                  for _, a in _element(obj).terms for r, _ in a.den_roots)
    assert len(objects) >= 1000 and roots >= 1000 and found >= 500, (len(objects), roots, found)
    assert at_zero >= 500, at_zero


F5, F9 = FieldSpec(5), FieldSpec(3, [1, 0, 1])


def test_the_record_is_carried_by_negation_and_scalars_only():
    # 3 x^2 / (x^3 (x - 1)^2 (x - 2)) reduces to 3 / (x (x - 1)^2 (x - 2)), x recorded last
    roots = [(1, 2), (2, 1)]
    den = Poly.from_roots(F5, [(F5.element(r), m) for r, m in roots])
    a = reduce_over_roots(Poly.monomial(F5, 2, F5.element(3)), 3, den, roots)
    assert a == RatFn(Poly.from_ints(F5, [3]), den.shift(1))
    assert a.den_roots == ((1, 2), (2, 1), (0, 1))
    assert (-a).den_roots == (a * F5.element(2)).den_roots == a.den_roots
    zero = a * F5.zero()
    assert zero.is_zero and zero.den_roots is None
    b = RatFn(Poly.one(F5), Poly.from_ints(F5, [-1, 1]))  # 1 / (x - 1)
    for other in (b, a * b, a + a, a.derivative(), RatFn(a.num, a.den), RatFn.one(F5), RatFn(a.num)):
        assert other.den_roots is None, other.render()


def test_a_cancelled_root_leaves_the_record():
    # x (x - z) (x - 1) / (x^2 (x - z)^2 (x - 1) (x - 1 - z)) over F_9, the root 0 in the row:
    # one x and one x - z are left, x - 1 goes
    z, one, zero = F9.element([0, 1]), F9.one(), F9.zero()
    roots = [(zero.encoding, 2), (z.encoding, 2), (one.encoding, 1), ((z + one).encoding, 1)]
    den = Poly.from_roots(F9, [(F9.from_encoding(r), m) for r, m in roots])
    a = reduce_over_roots(Poly.from_roots(F9, [(zero, 1), (z, 1), (one, 1)]), 0, den, roots)
    assert a.den_roots == ((z.encoding, 1), ((z + one).encoding, 1), (0, 1))
    assert a.den == Poly.from_roots(F9, [(z, 1), (z + one, 1), (zero, 1)])
