"""Pinned ``divisors`` payloads: the complete item list of every curve of
both sample specs and both README sweep corpora, passing and with every
item forced to fail.

Failure is forced by shifting every valuation bound by 1000, making the
Kummer gg and log-derivative decisions and the Artin-Schreier dy zero
test always false, and adding 1 to every Artin-Schreier ``v``, so each
item's label, expected value and computed value shows up in the
payload.  The golden file
records the output of the two-branch check that the row table replaced;
re-record it with ``python tests/test_divisor_payloads.py`` only when a
change to the payload is intended.
"""

import json
from pathlib import Path

import pytest

from cycliccover import verify
from cycliccover.cli import enumerate_as_specs, enumerate_kummer_specs, parse_curve_spec

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden" / "divisors.json"


def _cases() -> list[tuple[str, dict]]:
    cases = [
        (f"specs/{name}", json.loads((REPO / "specs" / f"{name}.json").read_text()))
        for name in ("kummer_quartic", "as_p3")
    ]
    corpora = (
        ("sweep_kummer", enumerate_kummer_specs(13, 6, 12, 64, 7)),
        ("sweep_artin_schreier", enumerate_as_specs(7, 3, 4, 40, 7)),
    )
    for name, docs in corpora:
        cases += [(f"{name}[{i}]", doc) for i, doc in enumerate(docs)]
    return cases


def _outcome(result) -> dict:
    return {"status": result.status, "details": result.details, "payload": result.payload}


def _forced_failure(doc: dict) -> dict:
    curve = parse_curve_spec(doc)
    bound = verify.valuation_bound
    table = verify.mu_table

    def shifted_bound(obj, place):
        return bound(obj, place) + 1000

    def shifted_table(c, range_policy="extended"):
        original = table(c, range_policy)
        if c.kind == "kummer":
            return original
        return {mu: row._replace(v=tuple(v + 1 for v in row.v)) for mu, row in original.items()}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "valuation_bound", shifted_bound)
        mp.setattr(verify, "mu_table", shifted_table)
        mp.setattr(verify, "_gg_holds", lambda c, row, partner: False)
        mp.setattr(verify, "_logder_holds", lambda c, row, branches: False)
        mp.setattr(verify, "_dy_matches", lambda c, psi, pole_den: False)
        return _outcome(verify.divisor_checks(curve))


def _payloads(cases) -> dict:
    return {
        case: {"pass": _outcome(verify.divisor_checks(parse_curve_spec(doc))), "fail": _forced_failure(doc)}
        for case, doc in cases
    }


CASES = _cases()


def test_divisor_payloads_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(_payloads(CASES)))
    assert list(got) == list(golden)
    for case in golden:
        assert got[case] == golden[case], case


def test_forcing_fails_every_item():
    # the golden failing payloads are complete: every item of the passing run
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case, outcome in golden.items():
        assert outcome["pass"]["status"] == "pass", case
        assert outcome["fail"]["status"] == "fail", case
        assert len(outcome["fail"]["payload"]["items"]) == outcome["pass"]["payload"]["count"], case


def _dump(payloads: dict) -> str:
    """The golden layout: one line per case and its passing outcome, one
    per failing item."""
    cases = []
    for case, outcome in payloads.items():
        fail = outcome["fail"]
        items = ",\n".join(f"   {json.dumps(item)}" for item in fail["payload"]["items"])
        cases.append(
            f' {json.dumps(case)}: {{"pass": {json.dumps(outcome["pass"])},\n'
            f'  "fail": {{"status": {json.dumps(fail["status"])}, "details": {json.dumps(fail["details"])}, '
            f'"payload": {{"items": [\n{items}\n  ]}}}}}}'
        )
    return "{\n" + ",\n".join(cases) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.write_text(_dump(_payloads(CASES)), encoding="utf-8")
