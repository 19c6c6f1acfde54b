"""The Kummer divisor items ``gg:mu`` and ``logder:mu``, decided on the
integers of the mu-table row (``verify._kummer_identities``), against
their polynomial forms

    gg:     g_mu g_(n-mu) prod_I (x - rho) = f,
    logder: phi' prod_I (x - rho) = phi sum_(i in I) v_i g_i prod_(I-i) (x - rho),

with phi = prod (x - rho_i)^(v_i g_i) and g_mu = prod (x - rho_i)^(m_i),
built from the same row integers.  Over a prime field the products are
``sympy.polys.galoistools`` ones, which share no code with ``polyrat``;
over an extension field they are the one-linear-factor-at-a-time
products of ``tests/reference.py``.  The verdicts must be equal on every
Kummer curve of the README corpus, on ``specs/kummer_quartic.json`` and on
the genus-171 cover of ``test_golden``, and on rows with a planted fault:
m_i + 1 at one branch, I missing an index whose v_i g_i is nonzero mod p,
and I with an extra index.  Each planted fault must fail some item.
"""

import json
from pathlib import Path

import pytest
from reference import _linear_product
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_diff, gf_mul, gf_mul_ground
from test_golden import SHA_SPECS

from cycliccover import verify
from cycliccover.cli import enumerate_kummer_specs, parse_curve_spec
from cycliccover.curve import mu_table, place_classes
from cycliccover.polyrat import Poly

SPECS = Path(__file__).resolve().parents[1] / "specs"
DOCS = {
    "kummer_quartic": json.loads((SPECS / "kummer_quartic.json").read_text()),
    "kummer_q961_n20": SHA_SPECS["kummer_q961_n20"],
}
DOCS.update((f"corpus{i}", doc) for i, doc in enumerate(enumerate_kummer_specs(13, 6, 12, 64, 7)))
PLANTED_MUS = {"kummer_q961_n20": (1, 10)}  # the genus-171 cover plants at two rows, the others at every row


class PrimeRing:
    """F_p[x] on descending coefficient lists, by ``galoistools``."""

    def __init__(self, spec):
        self.p = spec.p
        self.zero = []

    def product(self, factors):
        out = [1]
        for rho, m in factors:
            for _ in range(m):
                out = gf_mul(out, [1, -rho.encoding % self.p], self.p, ZZ)
        return out

    def lift(self, poly):
        return list(poly.ints[::-1])

    def mul(self, a, b):
        return gf_mul(a, b, self.p, ZZ)

    def add(self, a, b):
        return gf_add(a, b, self.p, ZZ)

    def scale(self, a, c):
        return gf_mul_ground(a, c % self.p, self.p, ZZ)

    def derivative(self, a):
        return gf_diff(a, self.p, ZZ)


class ReferenceRing:
    """F_q[x] on ``Poly``, each product one linear factor at a time."""

    def __init__(self, spec):
        self.spec = spec
        self.zero = Poly.zero(spec)

    def product(self, factors):
        return _linear_product(self.spec, factors)

    def lift(self, poly):
        return poly

    def mul(self, a, b):
        return a * b

    def add(self, a, b):
        return a + b

    def scale(self, a, c):
        return a * self.spec.element(c)

    def derivative(self, a):
        return a.derivative()


def ring_of(spec):
    return PrimeRing(spec) if spec.q == spec.p else ReferenceRing(spec)


def polynomial_verdicts(curve, table, mus) -> dict[str, bool]:
    """The polynomial form of the gg and logder items at each mu of ``mus``."""
    ring = ring_of(curve.spec)
    branches = place_classes(curve)[:curve.r]
    rhos = [b.rho for b in branches]
    f = ring.product(curve.branch)
    out = {}
    for mu in mus:
        row, partner = table[mu], table[curve.n - mu]
        support = ring.product([(rhos[i - 1], 1) for i in row.I])
        g_mu, g_partner = ring.product(zip(rhos, row.m)), ring.product(zip(rhos, partner.m))
        out[f"gg:mu={mu}"] = ring.mul(ring.mul(g_mu, g_partner), support) == f
        phi = ring.product([(b.rho, v * b.npoints) for b, v in zip(branches, row.v)])
        cofactors = ring.zero
        for i in row.I:
            others = ring.product([(rhos[j - 1], 1) for j in row.I if j != i])
            cofactors = ring.add(cofactors, ring.scale(others, row.v[i - 1] * branches[i - 1].npoints))
        out[f"logder:mu={mu}"] = ring.mul(ring.derivative(phi), support) == ring.mul(phi, cofactors)
    return out


def decided_verdicts(curve, table) -> dict[str, bool]:
    items = verify._kummer_identities(curve, table, place_classes(curve)[:curve.r])
    return {template.format(*args): ok for ok, _, _, template, args in items}


def planted_rows(curve, row):
    """Each planted fault of ``row`` that the row admits, by name."""
    p = curve.spec.p
    branches = place_classes(curve)[:curve.r]
    yield "m_1 + 1", row._replace(m=(row.m[0] + 1,) + row.m[1:])
    missing = [i for i in row.I if row.v[i - 1] * branches[i - 1].npoints % p]
    if missing:
        yield f"I without {missing[0]}", row._replace(I=tuple(i for i in row.I if i != missing[0]))
    extra = [i for i in range(1, curve.r + 1) if i not in row.I]
    if extra:
        yield f"I with {extra[0]}", row._replace(I=tuple(sorted(row.I + (extra[0],))))


@pytest.mark.parametrize("name", list(DOCS))
def test_the_exponent_verdicts_match_the_polynomial_forms(name):
    curve = parse_curve_spec(DOCS[name])
    table = mu_table(curve, "extended")
    ring = ring_of(curve.spec)
    rhos = [b.rho for b in place_classes(curve)[:curve.r]]
    # the table's g_mu is the product of the row's exponents, which the forms build
    assert all(ring.lift(row.g_mu) == ring.product(zip(rhos, row.m)) for row in table.values())
    decided = decided_verdicts(curve, table)
    assert decided == polynomial_verdicts(curve, table, list(table))
    assert all(decided.values())

    faults = 0
    for mu in PLANTED_MUS.get(name, list(table)):
        for fault, row in planted_rows(curve, table[mu]):
            planted = {**table, mu: row}
            touched = {mu, curve.n - mu}  # the rows whose items read the planted one
            want = polynomial_verdicts(curve, planted, sorted(touched))
            got = decided_verdicts(curve, planted)
            assert {label: got[label] for label in want} == want, (mu, fault)
            assert not all(want.values()), (mu, fault)
            assert all(ok for label, ok in got.items() if label not in want), (mu, fault)
            faults += 1
    assert faults >= 2
