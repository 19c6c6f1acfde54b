"""Byte-for-byte comparison of CLI reports with the committed golden files.

The files under ``tests/golden/`` are the ``verify --json`` documents of
both sample specs under the default policy and under each paper-deviation
knob, and the ``sweep --json`` summaries of both README corpora.  Any
change to a report byte shows up here; re-record a file only when the
change is intended.
"""

from pathlib import Path

import pytest

from cycliccover.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"

VERIFY_CASES = [
    (spec, suffix, flags, code)
    for spec, codes in (("kummer_quartic", (0, 0, 1)), ("as_p3", (0, 1, 1)))
    for (suffix, flags), code in zip(
        (("", []), ("_mu_paper", ["--mu-range", "paper"]), ("_sign_paper", ["--sign", "paper"])),
        codes,
    )
]

SWEEP_CASES = [
    ("kummer", ["--family", "kummer", "--p-max", "13", "--n-max", "6", "--l-max", "12", "--count-cap", "64"]),
    ("artin_schreier", ["--family", "artin-schreier", "--p-max", "7", "--r-max", "3", "--li-max", "4", "--count-cap", "40"]),
]


def _run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("spec,suffix,flags,code", VERIFY_CASES)
def test_verify_json_matches_golden(spec, suffix, flags, code, capsys):
    got_code, out = _run(["verify", str(REPO / "specs" / f"{spec}.json"), "--json", *flags], capsys)
    assert got_code == code
    assert out == (GOLDEN / f"verify_{spec}{suffix}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,flags", SWEEP_CASES)
def test_sweep_json_matches_golden(name, flags, capsys):
    code, out = _run(["sweep", *flags, "--seed", "7", "--json"], capsys)
    assert code == 0
    assert out == (GOLDEN / f"sweep_{name}.json").read_text(encoding="utf-8")
