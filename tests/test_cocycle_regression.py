"""The cocycle check against the reduced route it replaced.

``cocycle_check`` sums each y coefficient of d f_0inf - omega_0 +
omega_inf unreduced and passes iff every numerator is zero; only a
failing check reduces the sums into its residual.  The reduced route
builds the residual from reduced ``RatFn`` arithmetic (the exterior
derivative, written here term by term, then the slot difference) and
renders it; ``reference.exterior_derivative`` must agree with that derivative.  On planted
nonzero residuals, the ``--sign paper`` triples of both spec files and
both README sweep corpora, and basis triples whose omega_0 is perturbed
by a random element, both routes must give the same status and
byte-equal payloads.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dense, dense_add, dense_neg, exterior_derivative, ratfn_derivative
from test_funcfield_properties import CURVES, elements

from cycliccover.cli import enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import DeRhamTriple, build_bases
from cycliccover.funcfield import FFDiff, FFElem, _family_table
from cycliccover.polyrat import RatFn
from cycliccover.verify import cocycle_check

REPO = Path(__file__).resolve().parents[1]
SPECS = {name: json.loads((REPO / "specs" / f"{name}.json").read_text()) for name in ("kummer_quartic", "as_p3")}
CORPORA = {
    "specs": lambda: list(SPECS.values()),
    "kummer_sweep": lambda: enumerate_kummer_specs(p_max=13, n_max=6, l_max=12, cap=64, seed=7),
    "as_sweep": lambda: enumerate_as_specs(p_max=7, r_max=3, li_max=4, cap=40, seed=7),
}
# the property curves of positive genus (the other two have no de Rham classes), and the spec files
CURVE_NAMES = ("as_p3_F9", "kummer_n3_F4") + tuple(sorted(SPECS))


def reduced_d(f: FFElem) -> list[RatFn]:
    """The dense dx coefficients of d(sum a_j y^j) = sum a_j' y^j dx +
    j a_j y^(j-1) dy in reduced ``RatFn`` arithmetic, dy = c y^e dx from
    the family table."""
    curve = f.curve
    table = _family_table(curve)
    out = [RatFn.zero(curve.spec)] * curve.degree
    for j, a in f.terms:
        out[j] = out[j] + ratfn_derivative(a)
        if j:
            k = j - 1 + table.dy_exponent
            out[k] = out[k] + a * table.dy_coeff * curve.spec.element(j)
    return out


def reduced_route(triple: DeRhamTriple) -> tuple[str, str]:
    """Status and JSON payload from the reduced residual."""
    curve, d = triple.f0inf.curve, reduced_d(triple.f0inf)
    assert exterior_derivative(triple.f0inf) == FFDiff(FFElem(curve, enumerate(d)))
    out = dense_add(dense_add(d, dense_neg(dense(triple.omega0.coeff))), dense(triple.omega_inf.coeff))
    residual = FFDiff(FFElem(curve, enumerate(out)))
    if residual.is_zero:
        return "pass", json.dumps({})
    return "fail", json.dumps({"residual": residual.render()})


def _agree(triple: DeRhamTriple) -> str:
    result = cocycle_check(triple, "triple")
    assert (result.status, json.dumps(result.payload)) == reduced_route(triple)
    return result.status


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_paper_sign_triples_match_the_reduced_route(corpus):
    statuses = []
    for doc in CORPORA[corpus]():
        for cls in build_bases(parse_curve_spec(doc), "extended", "paper").derham:
            statuses.append(_agree(cls.triple))
    # the paper's sign leaves a nonzero residual on some a-classes of every corpus
    assert "fail" in statuses and "pass" in statuses


def _curve(name):
    return CURVES[name] if name in CURVES else parse_curve_spec(SPECS[name])


@pytest.mark.parametrize("name", CURVE_NAMES)
@settings(max_examples=20)
@given(data=st.data())
def test_perturbed_triples_match_the_reduced_route(name, data):
    curve = _curve(name)
    classes = [cls for cls in build_bases(curve).derham if cls.kind == "a"]
    triple = data.draw(st.sampled_from(classes)).triple
    noise = FFDiff(data.draw(elements(curve)))
    planted = DeRhamTriple(FFDiff(FFElem(curve, triple.omega0.coeff.terms + noise.coeff.terms)), triple.omega_inf,
                           triple.f0inf)
    assert _agree(planted) == ("pass" if noise.is_zero else "fail")
