"""The curve's own fractions against their Euclid references, and a
passing report that takes no gcd.

A passing report reduces every fraction over the branch roots its
denominator is built from (``polyrat.reduce_over_roots``): the
Artin-Schreier r = f / prod (x - rho_i)^(l_i) (``ASCurve.r_fn``) and the
family table's dy coefficient, f'/(n f) for Kummer and -r' for
Artin-Schreier.  Each is compared with the fraction ``RatFn(num, den)``
reduces by Euclid, over a denominator multiplied out one linear factor
at a time, and -r' with the quotient rule of ``reference``.  Each
record (``den_roots``) must multiply out to its den.  The 1/g_mu
coefficients of the Kummer y^mu/g_mu divisor rows carry no record, so
the walk finds g_mu's multiplicities from scratch.  This runs on both
spec files, both README sweep corpora, the genus-171 cover of
``test_golden`` and random valid small spec documents.

With ``polyrat.poly_gcd`` patched to raise, ``verify --json`` of both
spec files under the default options still matches its golden file, and
every curve of both README corpora passes.  A failing report still
reduces its residual by Euclid: the ``--sign paper`` reports match their
golden files, and under the patch they raise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _linear_product, ratfn_derivative
from test_derham_oracle import CORPORA
from test_funcfield_properties import as_docs, kummer_docs
from test_golden import GOLDEN, REPO, SHA_SPECS

from cycliccover import polyrat, verify
from cycliccover.cli import main, parse_curve_spec
from cycliccover.curve import genus_rh, mu_table
from cycliccover.funcfield import FFDiff, FFElem, _family_table
from cycliccover.polyrat import RatFn
from cycliccover.verify import full_report

SPEC_NAMES = ("as_p3", "kummer_quartic")
DOCS = {
    "corpus": lambda: [doc for corpus in sorted(CORPORA) for doc in CORPORA[corpus]()],
    "kummer_q961_n20": lambda: [SHA_SPECS["kummer_q961_n20"]],
}


def _record_holds(a: RatFn) -> bool:
    """Whether a's recorded roots are distinct, with positive exponents,
    and multiply out to its den."""
    spec, record = a.den.spec, a.den_roots or ()
    roots = [(spec.from_encoding(r), m) for r, m in record]
    return len({r for r, _ in record}) == len(record) and all(m > 0 for _, m in record) \
        and _linear_product(spec, roots) == a.den


def check_family_fractions(curve) -> None:
    spec, table = curve.spec, _family_table(curve)
    branch_product = _linear_product(spec, curve.branch)
    if curve.kind == "kummer":
        assert table.dy_coeff == RatFn(curve.f.derivative(), branch_product) * spec.element(curve.n).inverse()
        rows = verify._kummer_rows(curve, mu_table(curve), FFDiff(FFElem.one(curve)), genus_rh(curve))
        coefficients = [a for row in rows if "/g_" in row.label for _, a in row.elem.terms]
        assert len(coefficients) == curve.n - 1
        assert all(a.den_roots is None for a in coefficients)
        fractions = [table.dy_coeff]
    else:
        r = RatFn(curve.f, branch_product)
        assert curve.r_fn == r
        assert table.dy_coeff == -ratfn_derivative(r)
        fractions = [curve.r_fn, table.dy_coeff]
    assert all(_record_holds(a) for a in fractions if not a.is_zero)


@pytest.mark.parametrize("docs", sorted(DOCS))
def test_the_family_fractions_match_euclid(docs):
    for doc in DOCS[docs]():
        check_family_fractions(parse_curve_spec(doc))


@settings(max_examples=60)
@given(doc=st.one_of(kummer_docs(), as_docs()))
def test_the_family_fractions_of_small_valid_specs_match_euclid(doc):
    check_family_fractions(parse_curve_spec(doc))


def _refused(a, b):
    raise AssertionError("no gcd on a passing report")


def _verify(spec: str, flags: list[str], capsys) -> tuple[int, str]:
    code = main(["verify", str(REPO / "specs" / f"{spec}.json"), "--json", *flags])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_a_passing_report_takes_no_gcd(spec, monkeypatch, capsys):
    monkeypatch.setattr(polyrat, "poly_gcd", _refused)
    assert _verify(spec, [], capsys) == (0, (GOLDEN / f"verify_{spec}.json").read_text(encoding="utf-8"))


def test_the_corpora_pass_without_a_gcd(monkeypatch):
    monkeypatch.setattr(polyrat, "poly_gcd", _refused)
    docs = [doc for corpus in sorted(CORPORA) for doc in CORPORA[corpus]()]
    assert len(docs) == 106  # both spec files, 64 Kummer and 40 Artin-Schreier sweep curves
    for doc in docs:
        assert full_report(parse_curve_spec(doc)).all_pass, doc


@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_a_failing_report_reduces_its_residual_by_euclid(spec, monkeypatch, capsys):
    golden = (GOLDEN / f"verify_{spec}_sign_paper.json").read_text(encoding="utf-8")
    assert _verify(spec, ["--sign", "paper"], capsys) == (1, golden)
    monkeypatch.setattr(polyrat, "poly_gcd", _refused)
    with pytest.raises(AssertionError, match="no gcd"):
        _verify(spec, ["--sign", "paper"], capsys)
