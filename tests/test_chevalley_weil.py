"""Chevalley-Weil eigenspace counts of the Kummer bases.

The generator y -> zeta_n y of the Galois group of y^n = f acts on each
cohomology space, and the size of each eigenspace follows from the
branch data alone (Chevalley-Weil).  With <t> the fractional part of t
and r_mu = #{i : n does not divide mu l_i}, for 1 <= mu < n:

* the differentials omega[mu, .] number sum_i <mu l_i / n> - 1;
* the a-classes at mu and the delta classes at n - mu, which all lie in
  the y^mu eigenspace of H^1_dR, number r_mu - 2.

The counts are computed with ``Fraction`` from the n and l_i of the spec
document, and share no code with ``mu_table``.  They are checked on
``specs/kummer_quartic.json``, the README Kummer corpus and the genus-171
cover of ``test_golden``.  Reading the bases at mu + 1 instead of mu, for
every mu with mu + 1 < n, a planted shift of the mu convention, must
break them on that cover and on 41 of the 64 corpus curves.
"""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from test_golden import SHA_SPECS

from cycliccover.cli import enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import build_bases

SPECS = Path(__file__).resolve().parents[1] / "specs"
QUARTIC = json.loads((SPECS / "kummer_quartic.json").read_text())
CORPUS = enumerate_kummer_specs(p_max=13, n_max=6, l_max=12, cap=64, seed=7)
GENUS_171 = SHA_SPECS["kummer_q961_n20"]


def predicted(doc: dict, mu: int) -> tuple[int, int]:
    """The differential count at mu and the de Rham count of the y^mu
    eigenspace, from n and the l_i alone."""
    n, ls = doc["n"], [entry["l"] for entry in doc["branch"]]
    omega = sum(Fraction(mu * l, n) % 1 for l in ls) - 1
    r_mu = sum(1 for l in ls if mu * l % n)
    return omega, r_mu - 2


def counted(doc: dict) -> tuple[Counter, Counter]:
    """The differentials per mu, and the a-classes at mu plus the delta
    classes at n - mu per mu, of the built bases."""
    n, bases = doc["n"], build_bases(parse_curve_spec(doc))
    omega = Counter(idx.mu for idx, _ in bases.omega)
    derham = Counter(cls.index.mu if cls.kind == "a" else n - cls.index.mu for cls in bases.derham)
    return omega, derham


def mismatches(doc: dict, shift: int = 0) -> list[int]:
    """The mu at which the bases, read at mu + shift, miss the counts, over
    the mu that keep mu + shift below n."""
    omega, derham = counted(doc)
    return [mu for mu in range(1, doc["n"] - shift) if (omega[mu + shift], derham[mu + shift]) != predicted(doc, mu)]


def test_the_corpus_is_the_readme_kummer_sweep():
    assert len(CORPUS) == 64 and all(doc["type"] == "kummer" for doc in CORPUS)


@pytest.mark.parametrize("doc", [QUARTIC, GENUS_171] + CORPUS,
                         ids=["kummer_quartic", "kummer_q961_n20"] + [f"corpus{i}" for i in range(len(CORPUS))])
def test_the_eigenspace_counts_hold(doc):
    assert mismatches(doc) == []


def test_a_shifted_mu_convention_breaks_the_counts():
    assert mismatches(GENUS_171, shift=1)
    assert sum(1 for doc in CORPUS if mismatches(doc, shift=1)) == 41
