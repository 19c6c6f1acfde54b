"""Byte-for-byte comparison of CLI reports with the committed golden files.

The files under ``tests/golden/`` are the ``verify --json`` documents of
both sample specs under the default policy and under each paper-deviation
knob, and the ``sweep --json`` summaries of both README corpora.  Any
change to a report byte shows up here; re-record a file only when the
change is intended.

Two larger curves, whose elements leave most y indices zero, are pinned
by the sha256 of their ``verify --json`` documents under both mu-range
policies and both sign conventions: an Artin-Schreier cover with p = 19
and genus 9, and a Kummer cover of degree 8 over F_9 of genus 7.  Two
high-genus curves from the sweep bounds, where the polynomial rows are
long, are pinned the same way under the default options and each
paper-deviation knob: a Kummer cover of degree 20 over F_961 of genus
171 and an Artin-Schreier cover with p = 31 of genus 105.
"""

import hashlib
import json
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


SHA_SPECS = {
    # y^19 - y = (x^2 + 1) / (x - 1)^2
    "as_p19": {"type": "artin-schreier", "p": 19, "branch": [{"rho": 1, "l": 2}], "f": [1, 0, 1]},
    # y^8 = (x - 1) (x - 2) (x - z) (x - 1 - z)^5 over F_9 = F_3[z]/(z^2 + 1)
    "kummer_q9_n8": {
        "type": "kummer", "p": 3, "ext_modulus": [1, 0, 1], "n": 8,
        "branch": [{"rho": 1, "l": 1}, {"rho": 2, "l": 1}, {"rho": [0, 1], "l": 1}, {"rho": [1, 1], "l": 5}],
    },
    # entry 173 of enumerate_kummer_specs(31, 32, 20, 400, 7): y^20 = prod of 20 simple branch factors over F_961
    "kummer_q961_n20": {
        "type": "kummer", "p": 31, "ext_modulus": [1, 0, 1], "n": 20,
        "branch": [{"rho": rho, "l": 1} for rho in (
            [11, 14], [7, 7], [18, 21], [11, 10], [18, 19], [7, 26], [19, 23], [26, 4], [14, 3], [24, 21],
            [8, 5], [29, 11], [9, 9], [11, 3], [14, 25], [14, 9], [8, 0], [10, 18], [22, 13], [7, 14],
        )],
    },
    # entry 399 of enumerate_as_specs(31, 4, 8, 400, 7): y^31 - y = (x^7 + 1) / ((x - 23)^3 (x - 6)^4)
    "as_p31": {
        "type": "artin-schreier", "p": 31, "branch": [{"rho": 23, "l": 3}, {"rho": 6, "l": 4}],
        "f": [1, 0, 0, 0, 0, 0, 0, 1],
    },
}
SHA_CASES = [
    ("as_p19", [], 0, "ae0f53427c3ab369edd4e5865db626fdeeeb10eac9787815ab8de6c4ebc0f439"),
    ("as_p19", ["--mu-range", "paper"], 1, "3d1e592690ff02b6f9665784c06ae5c3e1771c27cf7109416965f25dd1c150b3"),
    ("as_p19", ["--sign", "paper"], 1, "e50f02c60612131e4458050289c823dae6b9a4cf2c10c2b2c20b9d7d46a521ab"),
    ("as_p19", ["--mu-range", "paper", "--sign", "paper"], 1,
     "3e3d5ec34bebca70a00eb6098a258740228262f25290ffd992b4d7bd7919a4e4"),
    ("kummer_q9_n8", [], 0, "762ed1642c2e64c5234cffbb9636dd9d2f7e6c42867944a5d4f0b93fa5095bf6"),
    ("kummer_q9_n8", ["--mu-range", "paper"], 0, "96ca6543234217ddaa4ee2de1ab0dc4ecd6f202a227962d6bb6742a4f35aa090"),
    ("kummer_q9_n8", ["--sign", "paper"], 1, "1d00c3f29f60140d2daf2444587b7d40c49b31ab5bfd7176a33f41cfb255d070"),
    ("kummer_q9_n8", ["--mu-range", "paper", "--sign", "paper"], 1,
     "7bc62b7e88b889bef2d5089c08df65c3514a9acbf1f57bccab5ae69c43c174ff"),
    ("kummer_q961_n20", [], 0, "1a7869c5cb6fc68d34dbffb0904d9a2be609eff7565a39f1f678f90c235a6f99"),
    ("kummer_q961_n20", ["--mu-range", "paper"], 0, "5554d6c8be782dac9f37a5fb333d8ae7bf94e87f11b36d0d63aa66595597800e"),
    ("kummer_q961_n20", ["--sign", "paper"], 1, "61bf2bb19b2b3c794c5dbc2205ff053056db758f9587716d6c6224483b386f44"),
    ("as_p31", [], 0, "29bd09bc7170259dd2de5499d31eb3fdae6bba8aba54b2b066f8c54a4481ba22"),
    ("as_p31", ["--mu-range", "paper"], 1, "8b544c9544ac3e8e198b32b1a7d0aaeca01e98eaeff7cd5e122e7216b9b8904b"),
    ("as_p31", ["--sign", "paper"], 1, "0be302fe2928ce8ef0511eb5647832aa0f49b017f01e84780ba46aafed5fbb98"),
]


@pytest.mark.parametrize("name,flags,code,digest", SHA_CASES, ids=[f"{c[0]}{''.join(c[1])}" for c in SHA_CASES])
def test_verify_json_of_the_larger_curves_matches_its_sha256(name, flags, code, digest, tmp_path, capsys):
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(SHA_SPECS[name]), encoding="utf-8")
    got_code, out = _run(["verify", str(spec), "--json", *flags], capsys)
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
