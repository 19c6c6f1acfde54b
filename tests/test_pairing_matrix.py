"""``pairing_matrix`` against the full-product route.

``pairing_matrix``, the one pairing route in ``src/``, pairs every column
of the H^1 basis against every differential at once.  It indexes the
columns' terms by y index, and it computes each residue once per key: the
x-free parts of the two coefficients, the reach row and the summed
x-order m.  Every entry is compared with ``reference.dense_pairing``,
which forms the whole dense product from the dense vectors of its row and
column, each read once, and shares no code with the matrix, on both spec
files and both README sweep corpora under both mu-range policies, on the two larger
pinned curves of ``test_golden``, and on random elements of the four
curves of the function field property module.

Two planted faults must fail the comparison: a key that drops the reach
row, which merges the residue of a term pair read through the relation
with one read directly, and an x-order that is off by one.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dense, dense_pairing
from test_funcfield_properties import CURVES, IDS, elements
from test_golden import SHA_SPECS
from test_pairing_oracle import CORPORA, PAIRS, POLICIES

from cycliccover import funcfield
from cycliccover.cli import parse_curve_spec
from cycliccover.cohomology import build_bases
from cycliccover.funcfield import FFDiff, FFElem, pairing_matrix
from cycliccover.polyrat import Poly, RatFn

PLANTED = {
    "reach row dropped": ("key = (id_a, id_b, row, m)", "key = (id_a, id_b, m)"),
    "x-order off by one": ("m = m_a + m_b\n", "m = m_a + m_b + 1\n"),
}


def _planted(fault: str):
    """``pairing_matrix`` with one planted fault, compiled in the module's namespace."""
    old, new = PLANTED[fault]
    source = inspect.getsource(funcfield.pairing_matrix)
    assert source.count(old) == 1, fault
    namespace = dict(vars(funcfield))
    exec(compile(source.replace(old, new), funcfield.__file__, "exec"), namespace)
    return namespace["pairing_matrix"]


def _mismatches(matrix_fn, curve, omegas, columns) -> int:
    """How many entries of ``matrix_fn`` differ from the dense full-product
    route."""
    codes = matrix_fn(curve, omegas, columns)
    assert len(codes) == len(omegas) and all(len(row) == len(columns) for row in codes)
    dense_columns = [dense(h) for h in columns]
    bad = 0
    for row, w in zip(codes, omegas):
        dense_w = dense(w.coeff)
        for code, column in zip(row, dense_columns):
            bad += code != dense_pairing(curve, column, dense_w)
    return bad


def _basis_cases(docs, policy):
    for doc in docs:
        curve = parse_curve_spec(doc)
        bases = build_bases(curve, policy)
        yield curve, [w for _, w in bases.omega], [h for _, h in bases.columns]


def _probe():
    """A column a + a y against (b + b y^(n-1)) dx on the Kummer quartic:
    the pairs (a, b) at y^0 and (a y, b y^(n-1)) share their x-free parts
    and x-order, and only the second is read through the relation y^n = f."""
    curve = parse_curve_spec(CORPORA["specs"]()[0])
    spec = curve.spec
    a, b = RatFn.one(spec), RatFn(Poly.one(spec), Poly.x(spec))
    column = FFElem(curve, [(0, a), (1, a)])
    omega = FFDiff(FFElem(curve, [(0, b), (curve.n - 1, b)]))
    return curve, [omega], [column]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_every_entry_matches_the_full_product(corpus, policy):
    entries = 0
    for curve, omegas, columns in _basis_cases(CORPORA[corpus](), policy):
        assert _mismatches(pairing_matrix, curve, omegas, columns) == 0
        entries += len(omegas) * len(columns)
    assert entries == PAIRS[corpus, policy]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(SHA_SPECS))
def test_the_pinned_curves_match_the_full_product(name, policy):
    ((curve, omegas, columns),) = _basis_cases([SHA_SPECS[name]], policy)
    assert omegas and _mismatches(pairing_matrix, curve, omegas, columns) == 0


@pytest.mark.parametrize("name", IDS)
@settings(max_examples=20)
@given(data=st.data())
def test_random_elements_match_the_full_product(name, data):
    curve = CURVES[name]
    omegas = [FFDiff(data.draw(elements(curve))) for _ in range(data.draw(st.integers(0, 3)))]
    columns = [data.draw(elements(curve)) for _ in range(data.draw(st.integers(0, 3)))]
    assert _mismatches(pairing_matrix, curve, omegas, columns) == 0


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_a_planted_fault_fails_the_comparison(fault):
    planted = _planted(fault)
    cases = [_probe(), *_basis_cases(CORPORA["specs"](), "extended")]
    assert all(_mismatches(pairing_matrix, *case) == 0 for case in cases)
    assert sum(_mismatches(planted, *case) for case in cases) > 0


def test_mismatched_curves_are_refused():
    curve, omegas, columns = _probe()
    other = parse_curve_spec(CORPORA["specs"]()[0])
    with pytest.raises(ValueError, match="mismatched curves"):
        pairing_matrix(other, omegas, columns)
    with pytest.raises(ValueError, match="mismatched curves"):
        pairing_matrix(curve, [FFDiff(FFElem.one(other))], columns)
    assert pairing_matrix(curve, [], columns) == [] and pairing_matrix(curve, omegas, []) == [[]]


def test_the_probe_needs_the_reach_row_in_the_key():
    curve, omegas, columns = _probe()
    assert pairing_matrix(curve, omegas, columns) != _planted("reach row dropped")(curve, omegas, columns)
