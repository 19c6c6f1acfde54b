"""The per-curve basis context: every basis and the pairing matrix are
built once per curve and policy, and reading coordinates from the matrix
gives the same exactness verdict as pairing every element afresh."""

import json
from pathlib import Path

import pytest

from cycliccover import cohomology
from cycliccover.cli import build_report_document, enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec
from cycliccover.cohomology import (
    basis_context,
    derham_basis,
    h1_basis,
    h1_coordinates,
    map_i,
    map_p,
    omega_basis,
)
from cycliccover.verify import CheckResult, VerifyOptions, exactness_check, full_report

REPO = Path(__file__).resolve().parents[1]
SPECS = [json.loads((REPO / "specs" / name).read_text()) for name in ("kummer_quartic.json", "as_p3.json")]
POLICIES = ("extended", "paper")
SIGNS = ("negated-infty", "paper")
BUILDERS = ("_build_omega_basis", "_build_h1_basis", "_build_derham_basis")


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("doc", SPECS, ids=["kummer_quartic", "as_p3"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sign", SIGNS)
def test_report_and_document_build_each_basis_once(doc, policy, sign, monkeypatch):
    counts: dict[str, int] = {}
    for name in BUILDERS + ("pairing",):
        _counting(monkeypatch, cohomology, name, counts)
    curve = parse_curve_spec(doc)
    report = full_report(curve, VerifyOptions(mu_range=policy, sign=sign))
    build_report_document(curve, policy, sign, include_bases=True, report=report)
    assert {name: counts.get(name, 0) for name in BUILDERS} == dict.fromkeys(BUILDERS, 1)
    # the pairing matrix once; exactness pairs nothing more
    assert counts["pairing"] == len(omega_basis(curve, policy)) ** 2


def test_contexts_are_kept_per_policy_and_sign(monkeypatch):
    counts: dict[str, int] = {}
    for name in BUILDERS:
        _counting(monkeypatch, cohomology, name, counts)
    curve = parse_curve_spec(SPECS[1])
    for _ in range(2):
        for policy in POLICIES:
            for sign in SIGNS:
                derham_basis(curve, policy, sign)
    assert counts == {"_build_omega_basis": 2, "_build_derham_basis": 4}
    assert set(curve.basis_contexts) == set(POLICIES)


def test_readers_hand_out_fresh_lists():
    curve = parse_curve_spec(SPECS[0])
    for reader in (omega_basis, h1_basis, derham_basis):
        first = reader(curve)
        expected = list(first)
        first.clear()
        assert reader(curve) == expected and reader(curve) is not reader(curve)


def test_unknown_policy_and_sign_leave_no_context():
    curve = parse_curve_spec(SPECS[0])
    with pytest.raises(ValueError, match="policy"):
        omega_basis(curve, "literal")
    with pytest.raises(ValueError, match="sign convention"):
        derham_basis(curve, "extended", "flipped")
    assert curve.basis_contexts == {}


def test_column_coordinates_only_for_column_representatives():
    curve = parse_curve_spec(SPECS[1])
    context = basis_context(curve)
    for j, (_, h) in enumerate(context.columns):
        assert context.column_coordinates(h) == h1_coordinates(curve, h)
        assert context.column_coordinates(h) == tuple(row[j] for row in context.pairing_matrix)
    _, h = context.columns[0]
    assert context.column_coordinates(h + h) is None
    assert context.column_coordinates(h - h) is None


def _exactness_by_pairing(curve, range_policy, sign) -> CheckResult:
    """The exactness check with every image paired afresh through
    ``h1_coordinates``: the reference the matrix-reading check must match."""
    zero = curve.spec.zero()
    one = curve.spec.one()
    problems = []
    omegas = omega_basis(curve, range_policy)
    for idx, w in omegas:
        coords = h1_coordinates(curve, map_p(map_i(w)), range_policy)
        if any(c != zero for c in coords):
            problems.append(f"p(i(omega[{idx.mu},{idx.nu}])) has nonzero coordinates")
    classes = derham_basis(curve, range_policy, sign)
    a_classes = [c for c in classes if c.kind == "a"]
    seen_positions = []
    for cls in a_classes:
        coords = h1_coordinates(curve, map_p(cls.triple), range_policy)
        hits = [k for k, c in enumerate(coords) if c != zero]
        if len(hits) != 1 or coords[hits[0]] != one:
            problems.append(f"p({cls.label}) is not a unit coordinate vector")
        else:
            seen_positions.append(hits[0])
    if sorted(seen_positions) != list(range(len(a_classes))):
        problems.append("a-family does not map onto the full H^1 basis")
    for cls in classes:
        if cls.kind == "delta" and not cls.triple.f0inf.is_zero:
            problems.append(f"{cls.label} has a nonzero third slot")
    if problems:
        return CheckResult("exactness", "fail", "; ".join(problems), {"problems": problems})
    return CheckResult(
        "exactness",
        "pass",
        "kernel, surjectivity and zero-section conditions all hold",
        {"a_count": len(a_classes), "omega_count": len(omegas)},
    )


DIFFERENTIAL_DOCS = (
    SPECS
    + enumerate_kummer_specs(11, 5, 10, 4, 7)
    + enumerate_as_specs(7, 2, 3, 4, 7)
)


@pytest.mark.parametrize("index", range(len(DIFFERENTIAL_DOCS)))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("sign", SIGNS)
def test_exactness_reading_the_matrix_matches_pairing_afresh(index, policy, sign):
    doc = DIFFERENTIAL_DOCS[index]
    got = exactness_check(parse_curve_spec(doc), policy, sign)
    want = _exactness_by_pairing(parse_curve_spec(doc), policy, sign)
    assert (got.status, got.details, got.payload) == (want.status, want.details, want.payload)
    curve = parse_curve_spec(doc)
    context = basis_context(curve, policy)
    for cls in derham_basis(curve, policy, sign):
        if cls.kind == "a":
            assert context.column_coordinates(map_p(cls.triple)) is not None
