"""The Serre duality pairing against a full-product route.

``funcfield.pairing_matrix`` is the only pairing route in ``src/``, so
this module checks its entries, as encodings.  The matrix forms only the
y^k coefficient of f * coeff(omega) that the trace reads, and sums
residues of unreduced fractions.  The oracle forms the whole reduced
product, takes its trace (the trace table, or the
independent Galois orbit sum, both from ``reference``) and then the
residue: c * Res_inf(Tr(f * coeff(omega))), with c = -1/n for Kummer and
1 for Artin-Schreier taken from the curve, not from its family table.

The two are compared on every (differential, H^1 column) pair of both
spec files and both README sweep corpora, under both mu-range policies,
and on random elements of the four curves of the function field
property module.  A ``hypothesis`` property also checks Galois
invariance: <sigma^j f, sigma^j omega> = <f, omega>, because the trace is
invariant under the Galois group and sigma fixes dx.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import galois, pairing_scale, trace, trace_by_orbit
from test_funcfield_properties import CURVES, IDS, elements

from cycliccover.cli import enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import build_bases
from cycliccover.funcfield import FFDiff, pairing_matrix
from cycliccover.polyrat import fraction_residue

REPO = Path(__file__).resolve().parents[1]
SPEC_FILES = ("kummer_quartic.json", "as_p3.json")
POLICIES = ("extended", "paper")
CORPORA = {
    "specs": lambda: [json.loads((REPO / "specs" / name).read_text()) for name in SPEC_FILES],
    "kummer_sweep": lambda: enumerate_kummer_specs(p_max=13, n_max=6, l_max=12, cap=64, seed=7),
    "as_sweep": lambda: enumerate_as_specs(p_max=7, r_max=3, li_max=4, cap=40, seed=7),
}
# sum of g^2 over each corpus: every pair is compared
PAIRS = {
    ("specs", "extended"): 5, ("specs", "paper"): 2,
    ("kummer_sweep", "extended"): 1195, ("kummer_sweep", "paper"): 1195,
    ("as_sweep", "extended"): 1038, ("as_sweep", "paper"): 460,
}


def full_product_pairing(f, omega, orbit=False) -> int:
    """The encoding of c * Res_inf(Tr(f * coeff(omega))) from the whole
    reduced product, with the trace read from the trace table or summed
    over the orbit."""
    product = f * omega.coeff
    tr = trace_by_orbit(product) if orbit else trace(product)
    return f.curve.spec.mul(pairing_scale(f.curve).encoding, fraction_residue(tr.num, tr.den))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_pairing_matches_the_full_product_route(corpus, policy):
    pairs = 0
    for doc in CORPORA[corpus]():
        curve = parse_curve_spec(doc)
        bases = build_bases(curve, policy)
        matrix = pairing_matrix(curve, [w for _, w in bases.omega], [h for _, h in bases.columns])
        for i, (_, w) in enumerate(bases.omega):
            for j, (_, h) in enumerate(bases.columns):
                expected = full_product_pairing(h, w)
                assert matrix[i][j] == expected, (doc, policy, i, j)
                assert full_product_pairing(h, w, orbit=True) == expected, (doc, policy, i, j)
                pairs += 1
    assert pairs == PAIRS[corpus, policy]


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=30)
@given(data=st.data())
def test_pairing_matches_the_full_product_route_on_random_elements(name, data):
    curve = CURVES[name]
    f, w = data.draw(elements(curve)), FFDiff(data.draw(elements(curve)))
    assert pairing_matrix(curve, [w], [f]) == [[full_product_pairing(f, w)]]


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=25)
@given(data=st.data())
def test_pairing_is_galois_invariant(name, data):
    curve = CURVES[name]
    f, w = data.draw(elements(curve)), data.draw(elements(curve))
    j = data.draw(st.integers(1, curve.degree - 1))
    matrix = pairing_matrix(curve, [FFDiff(galois(w, j)), FFDiff(w)], [galois(f, j), f])
    assert matrix[0][0] == matrix[1][1]
