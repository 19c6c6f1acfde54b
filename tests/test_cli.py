import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cycliccover import gf
from cycliccover.cli import (
    MAX_DEGREE,
    MAX_F_TERMS,
    MAX_P,
    SWEEP_MAX,
    SpecFileError,
    bases_section,
    curve_to_spec_doc,
    enumerate_as_specs,
    enumerate_kummer_specs,
    main,
    parse_curve_spec,
)
from cycliccover.gf import FieldSpec

REPO = Path(__file__).resolve().parents[1]
QUARTIC_SPEC = REPO / "specs" / "kummer_quartic.json"
AS_SPEC = REPO / "specs" / "as_p3.json"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_kummer_spec():
    curve = parse_curve_spec(json.loads(QUARTIC_SPEC.read_text()))
    assert curve.kind == "kummer" and curve.n == 2 and curve.l == 4


def test_parse_as_spec():
    curve = parse_curve_spec(json.loads(AS_SPEC.read_text()))
    assert curve.kind == "artin-schreier" and curve.p == 3


def test_parse_extension_field_spec():
    doc = {
        "type": "kummer",
        "p": 3,
        "ext_modulus": [1, 0, 1],
        "n": 4,
        "branch": [{"rho": [0, 1], "l": 1}, {"rho": [1, 1], "l": 1}, {"rho": 1, "l": 1}, {"rho": 2, "l": 1}],
    }
    curve = parse_curve_spec(doc)
    assert curve.spec.q == 9 and curve.n == 4


def test_parsed_curves_share_field_specs_within_the_table_budget(monkeypatch):
    monkeypatch.setattr(gf, "_SHARED", {})
    doc = json.loads(QUARTIC_SPEC.read_text())
    spec = parse_curve_spec(doc).spec
    assert parse_curve_spec(doc).spec is spec and FieldSpec.shared(spec.p) is spec
    # the held sizes q sum to at most MAX_Q; the least recently used go first
    FieldSpec.shared(gf.MAX_Q - 15)  # 65521, prime
    assert FieldSpec.shared(spec.p) is spec
    assert list(gf._SHARED) == [(gf.MAX_Q - 15, None), (spec.p, None)]
    FieldSpec.shared(31)
    assert list(gf._SHARED) == [(spec.p, None), (31, None)]
    assert sum(s.q for s in gf._SHARED.values()) <= gf.MAX_Q
    bad = {"type": "kummer", "p": 3, "ext_modulus": [1, 1, 1], "n": 2, "branch": [{"rho": 1, "l": 2}]}
    for _ in range(2):
        with pytest.raises(SpecFileError, match="^ext_modulus: .* not irreducible"):
            parse_curve_spec(bad)
    assert list(gf._SHARED) == [(spec.p, None), (31, None)]


def test_parse_rejects_unknown_keys():
    doc = json.loads(QUARTIC_SPEC.read_text())
    doc["extra"] = 1
    with pytest.raises(SpecFileError, match="unknown keys"):
        parse_curve_spec(doc)
    doc = json.loads(AS_SPEC.read_text())
    doc["branch"][0]["weight"] = 2
    with pytest.raises(SpecFileError, match=r"branch\[0\]"):
        parse_curve_spec(doc)


def test_parse_errors_are_positional():
    doc = json.loads(QUARTIC_SPEC.read_text())
    doc["branch"][2]["rho"] = "x"
    with pytest.raises(SpecFileError, match=r"branch\[2\].rho"):
        parse_curve_spec(doc)


def test_parse_rejects_invalid_curves():
    doc = {"type": "kummer", "p": 5, "n": 3, "branch": [{"rho": 1, "l": 1}]}
    with pytest.raises(SpecFileError, match="validation"):
        parse_curve_spec(doc)


def test_spec_doc_roundtrip():
    curve = parse_curve_spec(json.loads(AS_SPEC.read_text()))
    doc = curve_to_spec_doc(curve)
    again = parse_curve_spec(doc)
    assert curve_to_spec_doc(again) == doc


def test_cmd_info_text(capsys):
    assert main(["info", str(QUARTIC_SPEC)]) == 0
    out = capsys.readouterr().out
    assert "genus: 1" in out
    assert "y^2" in out


def test_cmd_info_paper_pinned_row(capsys):
    doc = {
        "type": "artin-schreier",
        "p": 7,
        "branch": [{"rho": 1, "l": 2}],
        "f": [1, 0, 1],
    }
    path = _write_tmp(doc)
    assert main(["info", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["curve", "policy"]
    row = [r for r in report["curve"]["mu_table"] if r["mu"] == 1][0]
    assert row["m"] == [2]


def _write_tmp(doc):
    import tempfile

    fh = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    json.dump(doc, fh)
    fh.close()
    return fh.name


def test_cmd_basis_golden_line(capsys):
    assert main(["basis", str(QUARTIC_SPEC), "omega"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "omega[1,1] = (1/(4 + x^4))*y * dx"


def test_cmd_basis_policy_changes_h1_count(capsys):
    assert main(["basis", str(AS_SPEC), "h1", "--mu-range=paper"]) == 0
    paper_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("h[")]
    assert main(["basis", str(AS_SPEC), "h1", "--mu-range=extended"]) == 0
    ext_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("h[")]
    assert len(paper_lines) == 1 and len(ext_lines) == 2


def test_cmd_basis_derham_rendering(capsys):
    assert main(["basis", str(QUARTIC_SPEC), "derham"]) == 0
    out = capsys.readouterr().out
    assert "a[1,1]:" in out and "delta[1,1]:" in out


def test_bases_section_renders_each_differential_once(monkeypatch):
    from cycliccover.cohomology import build_bases
    from cycliccover.funcfield import FFDiff

    bases = build_bases(parse_curve_spec(json.loads(AS_SPEC.read_text())), "extended", "negated-infty")
    omegas, classes = bases.omega, bases.derham
    distinct = {id(w) for _, w in omegas}
    distinct |= {id(slot) for c in classes for slot in (c.triple.omega0, c.triple.omega_inf)}
    expected = {
        "omega": [f"omega[{i.mu},{i.nu}] = {w.render()}" for i, w in omegas],
        "derham": [(c.triple.omega0.render(), c.triple.omega_inf.render()) for c in classes],
    }
    calls = []
    original = FFDiff.render
    monkeypatch.setattr(FFDiff, "render", lambda self: calls.append(id(self)) or original(self))
    section = bases_section(bases)
    assert sorted(calls) == sorted(distinct) and len(distinct) < len(omegas) + 2 * len(classes)
    assert section["omega"] == expected["omega"]
    assert [(d["omega0"], d["omega_inf"]) for d in section["derham"]] == expected["derham"]


def test_cmd_verify_exit_codes(capsys):
    assert main(["verify", str(QUARTIC_SPEC)]) == 0
    capsys.readouterr()
    assert main(["verify", str(AS_SPEC)]) == 0
    capsys.readouterr()
    assert main(["verify", str(AS_SPEC), "--mu-range=paper"]) == 1
    out = capsys.readouterr().out
    assert "dimension" in out and "fail" in out
    assert main(["verify", str(QUARTIC_SPEC), "--sign=paper"]) == 1
    out = capsys.readouterr().out
    assert "cocycle:a[1,1]" in out


def test_cmd_verify_json_document(capsys):
    assert main(["verify", str(AS_SPEC), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["curve", "bases", "pairing_matrix", "checks", "policy", "all_pass"]
    assert doc["all_pass"] is True
    assert doc["pairing_matrix"] == [[1, 0], [0, 1]]
    assert doc["policy"] == {"mu_range": "extended", "sign": "negated-infty"}
    assert {c["name"] for c in doc["checks"]} >= {"validation", "divisors", "dimension", "duality", "exactness"}


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["info", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    assert main(["info", str(bad)]) == 2
    invalid = _write(tmp_path, "invalid.json", {"type": "kummer", "p": 5, "n": 3, "branch": [{"rho": 1, "l": 1}]})
    assert main(["verify", invalid]) == 2


# spec files that json.load refuses with something other than JSONDecodeError
UNPARSABLE_FILES = {
    "deep_nesting": b"[" * 200000,  # RecursionError
    "non_utf8": b'{"type": "kummer\xff"}',  # UnicodeDecodeError
    "long_integer": b'{"type": "kummer", "p": ' + b"1" * 5000 + b"}",  # ValueError: over 4300 digits
}


@pytest.mark.parametrize("name", UNPARSABLE_FILES)
def test_unparsable_spec_files_exit_2(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNPARSABLE_FILES[name])
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: malformed JSON: ")


HOSTILE_SPECS = {
    # trial-division primality of a 60-bit p
    "huge_p": {"type": "kummer", "p": 1000000000000000003, "n": 2, "branch": [{"rho": 1, "l": 2}]},
    # a defining polynomial of degree 10^6
    "huge_l": {"type": "kummer", "p": 5, "n": 2, "branch": [{"rho": 1, "l": 1000001}, {"rho": 2, "l": 1}]},
}


@pytest.mark.parametrize("name", HOSTILE_SPECS)
def test_hostile_specs_exit_2_within_a_second(name, tmp_path, capsys):
    path = _write(tmp_path, f"{name}.json", HOSTILE_SPECS[name])
    start = time.perf_counter()
    assert main(["verify", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds the budget" in capsys.readouterr().err


AS_BRANCH = [{"rho": 1, "l": 1}, {"rho": 2, "l": 1}]


@pytest.mark.parametrize(
    "doc,position",
    [
        ({"type": "kummer", "p": MAX_P + 1, "n": 2, "branch": [{"rho": 1, "l": 2}]}, "p"),
        ({"type": "kummer", "p": 3, "ext_modulus": [1] * 12, "n": 2, "branch": [{"rho": 1, "l": 2}]}, "ext_modulus"),
        ({"type": "kummer", "p": 3, "ext_modulus": [1] * 10**5, "n": 2, "branch": [{"rho": 1, "l": 2}]}, "ext_modulus"),
        ({"type": "kummer", "p": 5, "n": 2, "branch": [{"rho": 1, "l": MAX_DEGREE + 1}]}, "branch"),
        ({"type": "kummer", "p": 5, "n": 2, "branch": [{"rho": 1, "l": 10**6}, {"rho": 2, "l": -10**6}]}, "branch"),
        ({"type": "artin-schreier", "p": 3, "branch": AS_BRANCH, "f": [1] * (MAX_F_TERMS + 1)}, "f"),
    ],
)
def test_over_budget_specs_raise_positional_errors(doc, position):
    with pytest.raises(SpecFileError, match=rf"^{position}: .* exceeds? the budget"):
        parse_curve_spec(doc)


AS_P3 = {"type": "artin-schreier", "p": 3, "branch": AS_BRANCH, "f": [1, 0, 1]}


@pytest.mark.parametrize(
    "doc,position",
    [
        ({**AS_P3, "branch": [{"rho": [True], "l": 1}, AS_BRANCH[1]]}, r"branch\[0\]\.rho"),
        ({**AS_P3, "f": [[True], 0, 1]}, r"f\[0\]"),
        ({**AS_P3, "ext_modulus": [1, False, True]}, "ext_modulus"),
    ],
)
def test_booleans_inside_lists_are_rejected(doc, position, tmp_path, capsys):
    with pytest.raises(SpecFileError, match=rf"^{position}: expected "):
        parse_curve_spec(doc)
    assert main(["verify", _write(tmp_path, "bool.json", doc)]) == 2
    assert re.match(rf"error: {position}: expected ", capsys.readouterr().err)


HOSTILE_SWEEPS = {
    "p_max": ["--p-max", "1000000000"],
    "l_max": ["--l-max", "1000"],
    "li_max": ["--family", "artin-schreier", "--li-max", "200"],
    "count_cap": ["--count-cap", "-5"],
}


@pytest.mark.parametrize("option", HOSTILE_SWEEPS)
def test_hostile_sweeps_exit_2_within_a_second(option, capsys):
    start = time.perf_counter()
    assert main(["sweep", *HOSTILE_SWEEPS[option]]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"error: --{option.replace('_', '-')} ")


@pytest.mark.parametrize("option", SWEEP_MAX)
def test_sweep_bounds_are_inclusive_and_checked_before_enumeration(option, capsys, monkeypatch):
    bound = SWEEP_MAX[option]
    flag = "--" + option.replace("_", "-")
    calls = []
    monkeypatch.setattr("cycliccover.cli.enumerate_kummer_specs", lambda *args: calls.append(args) or [])
    monkeypatch.setattr("cycliccover.cli.enumerate_as_specs", lambda *args: calls.append(args) or [])
    for value in (1, bound):
        assert main(["sweep", flag, str(value)]) == 0
    assert len(calls) == 4  # both families at both values
    for value in (0, bound + 1):
        assert main(["sweep", flag, str(value)]) == 2
        assert capsys.readouterr().err == f"error: {flag} {value} is outside the bound 1..{bound}\n"
    assert len(calls) == 4


def test_enumeration_at_the_sweep_bounds_takes_under_ten_seconds():
    bound = SWEEP_MAX
    start = time.process_time()
    kummer = enumerate_kummer_specs(bound["p_max"], bound["n_max"], bound["l_max"], bound["count_cap"], seed=7)
    artin_schreier = enumerate_as_specs(bound["p_max"], bound["r_max"], bound["li_max"], bound["count_cap"], seed=7)
    assert time.process_time() - start < 10.0  # CPU time, so other load on the machine cannot fail it
    assert len(kummer) == len(artin_schreier) == bound["count_cap"]


def test_byte_identical_reports():
    cmd = [sys.executable, "-m", "cycliccover", "verify", str(QUARTIC_SPEC), "--json"]
    first = subprocess.run(cmd, capture_output=True, cwd=REPO)
    second = subprocess.run(cmd, capture_output=True, cwd=REPO)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# sha256 of json.dumps(docs, sort_keys=True): the README sweeps and the large Kummer slice
ENUMERATION_DIGESTS = [
    (enumerate_kummer_specs, (13, 6, 12, 64, 7), "54d6d6265a4cad6e11b14c86b1bd7f063b4e55806ee98f840be4a19e94af8c9f"),
    (enumerate_as_specs, (7, 3, 4, 40, 7), "0c0122cd65c25ff5c72a096f3724ac728d87bbbd375bc693ad26efcd930d11e5"),
    (enumerate_kummer_specs, (31, 10, 20, 200, 7), "5d849d2161db9a73c12685966eadbe5f113cdc0c280e774e5caab290ba699da5"),
]


@pytest.mark.parametrize("enumerate_specs, bounds, digest", ENUMERATION_DIGESTS, ids=["kummer", "as", "slice"])
def test_enumerated_documents_are_pinned(enumerate_specs, bounds, digest):
    docs = enumerate_specs(*bounds)
    assert len(docs) == bounds[3]
    assert hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest() == digest


def test_the_readme_library_snippet_runs(capsys):
    snippet = (REPO / "README.md").read_text(encoding="utf-8").split("## Library\n\n```python\n")[1].split("```")[0]
    exec(snippet, {})
    assert capsys.readouterr().out == "omega[1,1] = (1/(4 + x^4))*y * dx\n"


def test_enumerators_are_deterministic():
    a = enumerate_kummer_specs(7, 4, 8, 30, seed=5)
    b = enumerate_kummer_specs(7, 4, 8, 30, seed=5)
    assert a == b
    c = enumerate_as_specs(7, 3, 4, 20, seed=5)
    d = enumerate_as_specs(7, 3, 4, 20, seed=5)
    assert c == d
    assert len(a) == 30 and len(c) == 20
    # distinctness
    keys = {json.dumps(doc, sort_keys=True) for doc in a}
    assert len(keys) == len(a)


def test_enumerated_specs_parse_and_validate():
    for doc in enumerate_kummer_specs(7, 4, 8, 20, seed=1) + enumerate_as_specs(5, 2, 3, 10, seed=1):
        parse_curve_spec(doc)


def test_sweep_command_and_failure_roundtrip(tmp_path, capsys):
    assert (
        main(
            [
                "sweep", "--family", "artin-schreier", "--p-max", "5", "--r-max", "2",
                "--li-max", "3", "--count-cap", "12", "--seed", "3", "--json",
            ]
        )
        == 0
    )
    summary = json.loads(capsys.readouterr().out)
    assert summary["total"] == 12 and summary["failed"] == 0

    # paper policy: failures appear and the echoed specs reproduce them verbatim
    code = main(
        [
            "sweep", "--family", "artin-schreier", "--p-max", "5", "--r-max", "2",
            "--li-max", "3", "--count-cap", "12", "--seed", "3", "--json", "--mu-range=paper",
        ]
    )
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed"] > 0
    entry = summary["failures"][0]
    path = _write(tmp_path, "failing.json", entry["curve"])
    assert main(["verify", path, "--mu-range=paper", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    refailed = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
    assert refailed == entry["failing_checks"]
