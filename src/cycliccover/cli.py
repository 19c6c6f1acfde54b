"""Batch front end: parse curve spec files, run constructions and checks,
emit reports, drive corpus sweeps.

Curve spec files are strict JSON: unknown keys are rejected so option
typos fail closed, and all decoding errors carry the offending position.
Field elements encode as a plain integer in prime fields and as an
ascending coordinate list in extension fields.

Exit codes: 0 all checks pass, 1 at least one verification failure,
2 input or validation error.  Reports are built with a fixed key order
and no environmental data, so identical invocations produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Any, Iterable

from .cohomology import Bases, build_bases
from .curve import ASCurve, Curve, KummerCurve, genus_from_basis, genus_rh, mu_table, ram_data, validate
from .funcfield import FFDiff, FFElem
from .gf import FieldElement, FieldSpec, digits, find_irreducible_poly, is_prime
from .polyrat import Poly
from .verify import Report, VerifyOptions, full_report


class SpecFileError(ValueError):
    """A curve spec file failed to parse, decode, or validate."""


# Input budgets, checked before any work that grows with them: trial-division
# primality costs sqrt(p), and the defining polynomials have degree sum l_i.
# The field size q = p^d is held to gf.MAX_Q by FieldSpec, whose tables grow
# with q.  Every corpus in the repository stays far below them (p <= 31,
# q <= 961, sum l_i <= 20).
MAX_P = 2**16  # characteristic
MAX_DEGREE = 512  # sum of |l_i| over the branch points
MAX_F_TERMS = MAX_DEGREE + 1  # coefficients of the Artin-Schreier numerator f

# Sweep option bounds: each option must lie in 1..bound, checked before any
# enumeration, which is eager and exponential in l_max.  With every option at
# its bound, enumerating both families takes about 3 s of CPU time (CPython
# 3.11, one core); the README sweeps and the p <= 31, n <= 10, l <= 20,
# cap 200 slice lie inside.
SWEEP_MAX = {"p_max": 31, "n_max": 32, "l_max": 20, "r_max": 4, "li_max": 8, "count_cap": 1000}


# -- spec file decoding -----------------------------------------------------------


def _require_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SpecFileError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SpecFileError(f"{where}: missing keys {sorted(missing)}")


def _is_int(value: Any) -> bool:
    """A JSON integer: true and false decode to bool, which Python counts as int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_field(spec: FieldSpec, value: Any, where: str) -> FieldElement:
    if isinstance(value, bool):
        raise SpecFileError(f"{where}: expected a field element encoding, got a boolean")
    if _is_int(value):
        return spec.element(value)
    if isinstance(value, list) and all(map(_is_int, value)):
        if len(value) > spec.d:
            raise SpecFileError(f"{where}: {len(value)} coordinates but field degree is {spec.d}")
        return spec.element(value)
    raise SpecFileError(f"{where}: expected an integer or list of integers")


def _decode_int(value: Any, where: str) -> int:
    if not _is_int(value):
        raise SpecFileError(f"{where}: expected an integer")
    return value


def parse_curve_spec(doc: Any) -> Curve:
    """Decode a curve spec document into a validated curve."""
    if not isinstance(doc, dict):
        raise SpecFileError("top level: expected a JSON object")
    ctype = doc.get("type")
    if ctype == "kummer":
        _require_keys(doc, {"type", "p", "ext_modulus", "n", "branch"}, {"type", "p", "n", "branch"}, "top level")
    elif ctype == "artin-schreier":
        _require_keys(doc, {"type", "p", "ext_modulus", "branch", "f"}, {"type", "p", "branch", "f"}, "top level")
    else:
        raise SpecFileError(f"type: expected \"kummer\" or \"artin-schreier\", got {ctype!r}")

    p = _decode_int(doc["p"], "p")
    if p > MAX_P:
        raise SpecFileError(f"p: {p} exceeds the budget {MAX_P}")
    if not is_prime(p):
        raise SpecFileError(f"p: {p} is not prime")
    modulus = doc.get("ext_modulus")
    if modulus is not None:
        if not isinstance(modulus, list) or not all(map(_is_int, modulus)):
            raise SpecFileError("ext_modulus: expected a list of integers")
        try:
            spec = FieldSpec.shared(p, modulus)
        except ValueError as exc:
            raise SpecFileError(f"ext_modulus: {exc}") from exc
    else:
        spec = FieldSpec.shared(p)

    branch_doc = doc["branch"]
    if not isinstance(branch_doc, list):
        raise SpecFileError("branch: expected a list")
    branch = []
    for i, entry in enumerate(branch_doc):
        where = f"branch[{i}]"
        if not isinstance(entry, dict):
            raise SpecFileError(f"{where}: expected an object")
        _require_keys(entry, {"rho", "l"}, {"rho", "l"}, where)
        rho = _decode_field(spec, entry["rho"], f"{where}.rho")
        l = _decode_int(entry["l"], f"{where}.l")
        branch.append((rho, l))
    degree = sum(abs(l) for _, l in branch)
    if degree > MAX_DEGREE:
        raise SpecFileError(f"branch: total multiplicity {degree} exceeds the budget {MAX_DEGREE}")

    if ctype == "kummer":
        n = _decode_int(doc["n"], "n")
        if n < 2:
            raise SpecFileError(f"n: must be >= 2, got {n}")
        curve: Curve = KummerCurve(spec, n, branch)
    else:
        f_doc = doc["f"]
        if not isinstance(f_doc, list):
            raise SpecFileError("f: expected an ascending coefficient list")
        if len(f_doc) > MAX_F_TERMS:
            raise SpecFileError(f"f: {len(f_doc)} coefficients exceed the budget {MAX_F_TERMS}")
        coeffs = [_decode_field(spec, v, f"f[{k}]") for k, v in enumerate(f_doc)]
        curve = ASCurve(spec, Poly(spec, coeffs), branch)

    violations = validate(curve)
    if violations:
        lines = "; ".join(f"{v.code}: {v.message}" for v in violations)
        raise SpecFileError(f"curve fails validation: {lines}")
    return curve


def load_curve_file(path: str) -> Curve:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed JSON, non-UTF-8 bytes, over-long integers, deep nesting
        raise SpecFileError(f"{path}: malformed JSON: {exc}") from exc
    return parse_curve_spec(doc)


# -- report document construction ------------------------------------------------------


def _encoding_doc(k: int, p: int, d: int) -> int | list[int]:
    """The JSON form of the encoding k of an element of F_(p^d): k itself
    in a prime field, its d base-p digits, ascending, otherwise."""
    return k if d == 1 else digits(k, p, d)


def encode_field(elem: FieldElement) -> int | list[int]:
    return _encoding_doc(elem.encoding, elem.spec.p, elem.spec.d)


def curve_to_spec_doc(curve: Curve) -> dict:
    """Re-runnable spec document for a curve (the sweep failure echo)."""
    doc: dict[str, Any] = {"type": curve.kind, "p": curve.spec.p}
    if curve.spec.modulus is not None:
        doc["ext_modulus"] = list(curve.spec.modulus)
    if curve.kind == "kummer":
        doc["n"] = curve.n
    doc["branch"] = [{"rho": encode_field(rho), "l": l} for rho, l in curve.branch]
    if curve.kind == "artin-schreier":
        doc["f"] = [encode_field(c) for c in curve.f.coeffs]
    return doc


def curve_section(curve: Curve, policy: str) -> dict:
    ram = ram_data(curve)
    table = mu_table(curve, policy)
    section = curve_to_spec_doc(curve)
    section["q"] = curve.spec.q
    section["genus"] = genus_rh(curve)
    section["genus_from_basis"] = genus_from_basis(curve, policy)
    ramification = []
    for entry in ram.branch:
        row = {"rho": encode_field(entry.rho), "l": entry.l, "e": entry.e, "g": entry.g}
        if curve.kind == "kummer":
            row["lambda"] = entry.lam
        ramification.append(row)
    section["ramification"] = ramification
    section["zero_conventions"] = {"l0": ram.l0, "e0": ram.e0, "g0": ram.g0}
    section["points_over_infinity"] = ram.infinity_points
    section["mu_table"] = [
        {
            "mu": mu,
            "m": list(table[mu].m),
            "v": list(table[mu].v),
            "g_mu": table[mu].g_mu.render(),
            "t": table[mu].t,
            "I": list(table[mu].I),
        }
        for mu in table.mus()
    ]
    return section


def bases_section(bases: Bases) -> dict:
    # a delta class's omega_0 and omega_inf are a differential of the basis, and an
    # a-class's f_0inf is an H^1 representative: each basis object is rendered once
    rendered = {id(w): w.render() for _, w in bases.omega}
    rendered.update((id(h), h.render()) for _, h in bases.h1)

    def render(obj: FFElem | FFDiff) -> str:
        return rendered.get(id(obj)) or obj.render()

    omega_lines = [f"omega[{i.mu},{i.nu}] = {rendered[id(w)]}" for i, w in bases.omega]
    h1_lines = [f"h[{i.mu},{i.nu}] = {rendered[id(h)]}" for i, h in bases.h1]
    derham_docs = [
        {
            "label": cls.label,
            "omega0": render(cls.triple.omega0),
            "omega_inf": render(cls.triple.omega_inf),
            "f0inf": render(cls.triple.f0inf),
        }
        for cls in bases.derham
    ]
    return {"omega": omega_lines, "h1": h1_lines, "derham": derham_docs}


def checks_section(report: Report) -> list[dict]:
    return [
        {"name": c.name, "status": c.status, "details": c.details, "payload": c.payload}
        for c in report.checks
    ]


def build_report_document(
    curve: Curve,
    policy: str,
    sign: str,
    *,
    include_bases: bool = False,
    report: Report | None = None,
) -> dict:
    """The report document; its bases are the report's own when one is given."""
    doc: dict[str, Any] = {"curve": curve_section(curve, policy)}
    if include_bases:
        doc["bases"] = bases_section(report.bases if report is not None else build_bases(curve, policy, sign))
    if report is not None:
        p, d = curve.spec.p, curve.spec.d
        doc["pairing_matrix"] = (
            [[_encoding_doc(k, p, d) for k in row] for row in report.pairing_matrix]
            if report.pairing_matrix is not None
            else None
        )
        doc["checks"] = checks_section(report)
    doc["policy"] = {"mu_range": policy, "sign": sign}
    if report is not None:
        doc["all_pass"] = report.all_pass
    return doc


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2)


# -- text rendering ----------------------------------------------------------------------


def _print_info_text(curve: Curve, policy: str) -> None:
    section = curve_section(curve, policy)
    print(f"type: {curve.kind}")
    ext = f" = p^{curve.spec.d}" if curve.spec.d > 1 else ""
    print(f"field: q = {curve.spec.q}{ext} (p = {curve.spec.p})")
    if curve.kind == "kummer":
        print(f"equation: y^{curve.n} = {curve.f.render()}")
    else:
        print(f"equation: y^{curve.p} - y = ({curve.f.render()}) / ({curve.branch_poly.render()})")
    print(f"genus: {section['genus']} (basis count {section['genus_from_basis']}, policy {policy})")
    print("branch points:")
    header = "  i   rho        l   e   g" + ("   lambda" if curve.kind == "kummer" else "")
    print(header)
    for i, row in enumerate(section["ramification"], start=1):
        line = f"  {i:<3} {str(row['rho']):<10} {row['l']:<3} {row['e']:<3} {row['g']:<3}"
        if curve.kind == "kummer":
            line += f" {row['lambda']}"
        print(line)
    conv = section["zero_conventions"]
    print(f"zero conventions: l0 = {conv['l0']}, e0 = {conv['e0']}, g0 = {conv['g0']}")
    print(f"points over infinity: {section['points_over_infinity']}")
    print("mu-table:")
    print("  mu  t    m               v               g_mu")
    for row in section["mu_table"]:
        m_s = ",".join(str(v) for v in row["m"])
        v_s = ",".join(str(v) for v in row["v"])
        print(f"  {row['mu']:<3} {row['t']:<4} [{m_s}]{' ' * max(0, 13 - len(m_s))} [{v_s}]{' ' * max(0, 13 - len(v_s))} {row['g_mu']}")


def _print_bases_text(curve: Curve, policy: str, sign: str, which: str) -> None:
    section = bases_section(build_bases(curve, policy, sign))
    if which in ("omega", "all"):
        for line in section["omega"]:
            print(line)
    if which in ("h1", "all"):
        for line in section["h1"]:
            print(line)
    if which in ("derham", "all"):
        for entry in section["derham"]:
            print(f"{entry['label']}:")
            print(f"  omega_0   = {entry['omega0']}")
            print(f"  omega_inf = {entry['omega_inf']}")
            print(f"  f_0inf    = {entry['f0inf']}")


def _print_checks_text(report: Report) -> None:
    width = max((len(c.name) for c in report.checks), default=10) + 2
    for c in report.checks:
        line = f"{c.name:<{width}} {c.status}"
        if c.status != "pass":
            line += f"   {c.details}"
        print(line)
    if report.all_pass:
        print("all checks passed")
    else:
        failed = sum(1 for c in report.checks if c.status != "pass")
        print(f"FAILED: {failed} check(s) did not pass")


# -- subcommands ---------------------------------------------------------------------------


def cmd_info(args: argparse.Namespace) -> int:
    curve = load_curve_file(args.path)
    if args.json:
        print(_dump(build_report_document(curve, args.mu_range, args.sign)))
    else:
        _print_info_text(curve, args.mu_range)
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    curve = load_curve_file(args.path)
    if args.json:
        doc = build_report_document(curve, args.mu_range, args.sign, include_bases=True)
        if args.which != "all":
            keep = {"omega": ["omega"], "h1": ["h1"], "derham": ["derham"]}[args.which]
            doc["bases"] = {k: v for k, v in doc["bases"].items() if k in keep}
        print(_dump(doc))
    else:
        _print_bases_text(curve, args.mu_range, args.sign, args.which)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    curve = load_curve_file(args.path)
    options = VerifyOptions(mu_range=args.mu_range, sign=args.sign)
    report = full_report(curve, options)
    if args.json:
        doc = build_report_document(curve, args.mu_range, args.sign, include_bases=True, report=report)
        print(_dump(doc))
    else:
        _print_checks_text(report)
    return 0 if report.all_pass else 1


# -- sweep -------------------------------------------------------------------------------------


def _primes_up_to(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if is_prime(p)]


def _multiplicity_patterns(total: int, max_parts: int, part_max: int) -> Iterable[tuple[int, ...]]:
    """Nondecreasing tuples with the given sum, at most max_parts parts."""

    def rec(remaining: int, parts: int, minimum: int):
        if remaining == 0:
            yield ()
            return
        if parts == 0:
            return
        for first in range(minimum, min(remaining, part_max) + 1):
            for rest in rec(remaining - first, parts - 1, first):
                yield (first,) + rest

    yield from rec(total, max_parts, 1)


def _point_tuples(q: int, r: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The deterministic first choice plus one seeded distinct sample."""
    if r > q:
        return []
    out = [tuple(range(r))]
    for _ in range(20):
        cand = tuple(rng.sample(range(q), r))
        if cand != out[0]:
            return out + [cand]
    return out


def enumerate_kummer_specs(
    p_max: int, n_max: int, l_max: int, cap: int, seed: int
) -> list[dict]:
    """Spec documents for valid Kummer curves within the bounds.

    Cells (p, n) with the minimal field containing zeta_n are filled
    independently and merged round-robin, so a small cap still spans the
    whole (p, n) grid; branch point tuples mix one deterministic choice
    with seeded samples."""
    rng = random.Random(seed)
    cells: list[list[dict]] = []
    for p in _primes_up_to(p_max):
        for n in range(2, n_max + 1):
            if math.gcd(n, p) != 1:
                continue
            if (p - 1) % n == 0:
                ext, degree = None, 1
            elif (p * p - 1) % n == 0:
                ext, degree = find_irreducible_poly(p, 2), 2
            else:
                continue
            q = p**degree
            cell: list[dict] = []
            for total in range(n, l_max + 1, n):
                for pattern in _multiplicity_patterns(total, min(total, q), l_max):
                    d = n
                    for part in pattern:
                        d = math.gcd(d, part)
                    if d != 1:
                        continue
                    r = len(pattern)
                    for points in _point_tuples(q, r, rng):
                        doc: dict[str, Any] = {"type": "kummer", "p": p}
                        if ext is not None:
                            doc["ext_modulus"] = list(ext)
                        doc["n"] = n
                        doc["branch"] = [
                            {"rho": _encoding_doc(enc, p, degree), "l": l} for enc, l in zip(points, pattern)
                        ]
                        cell.append(doc)
            cells.append(cell)
    return _round_robin(cells, cap)


def _round_robin(cells: list[list[dict]], cap: int) -> list[dict]:
    """The first document of every cell, then the second, and so on, cut at
    cap.  Cells hold distinct documents (each pattern gets distinct point
    tuples) and differ in p or n, so the merge has no duplicates."""
    out: list[dict] = []
    for index in range(max(map(len, cells), default=0)):
        out += [cell[index] for cell in cells if index < len(cell)]
        if len(out) >= cap:
            break
    return out[:cap]


def _admissible_numerator(spec: FieldSpec, branch: list, l: int) -> Poly | None:
    """The first monic degree-l numerator, in encoding order, prime to the
    branch denominator and to x, if any."""
    zero = spec.zero()
    limit = spec.q ** min(l, 3)  # vary only the low coefficients; ample choice
    for enc in range(limit):
        coeffs = [spec.from_encoding(c) for c in digits(enc, spec.q, min(l, 3))]
        while len(coeffs) < l:
            coeffs.append(zero)
        coeffs.append(spec.one())
        f = Poly(spec, coeffs)
        if f.evaluate(zero).is_zero:
            continue
        if any(f.evaluate(rho).is_zero for rho, _ in branch):
            continue
        return f
    return None


def enumerate_as_specs(p_max: int, r_max: int, li_max: int, cap: int, seed: int) -> list[dict]:
    """Spec documents for valid Artin-Schreier curves within the bounds,
    with numerators drawn from the deterministic encoding-order family."""
    rng = random.Random(seed)
    cells: list[list[dict]] = []
    for p in _primes_up_to(p_max):
        if p < 3:
            continue
        spec = FieldSpec.shared(p)
        cell: list[dict] = []
        for r in range(1, r_max + 1):
            if r > p:
                continue
            for total in range(r, r * li_max + 1):
                for pattern in _multiplicity_patterns(total, r, li_max):
                    if len(pattern) != r:
                        continue
                    if any(math.gcd(part, p) != 1 for part in pattern):
                        continue
                    for points in _point_tuples(p, r, rng):
                        branch = [(spec.from_encoding(enc), l) for enc, l in zip(points, pattern)]
                        f = _admissible_numerator(spec, branch, total)
                        if f is not None:
                            cell.append({
                                "type": "artin-schreier",
                                "p": p,
                                "branch": [{"rho": encode_field(rho), "l": l} for rho, l in branch],
                                "f": [encode_field(c) for c in f.coeffs],
                            })
        cells.append(cell)
    return _round_robin(cells, cap)


def cmd_sweep(args: argparse.Namespace) -> int:
    for option, bound in SWEEP_MAX.items():
        value = getattr(args, option)
        if not 1 <= value <= bound:
            print(f"error: --{option.replace('_', '-')} {value} is outside the bound 1..{bound}", file=sys.stderr)
            return 2
    options = VerifyOptions(mu_range=args.mu_range, sign=args.sign)
    docs: list[dict] = []
    if args.family in ("kummer", "both"):
        docs += enumerate_kummer_specs(args.p_max, args.n_max, args.l_max, args.count_cap, args.seed)
    if args.family in ("artin-schreier", "both"):
        docs += enumerate_as_specs(args.p_max, args.r_max, args.li_max, args.count_cap, args.seed)

    total = 0
    passed = 0
    failures = []
    for doc in docs:
        curve = parse_curve_spec(doc)
        report = full_report(curve, options)
        total += 1
        if report.all_pass:
            passed += 1
        else:
            failures.append(
                {
                    "curve": doc,
                    "failing_checks": [c.name for c in report.checks if c.status != "pass"],
                }
            )

    summary = {
        "family": args.family,
        "params": {
            "p_max": args.p_max,
            "n_max": args.n_max,
            "l_max": args.l_max,
            "r_max": args.r_max,
            "li_max": args.li_max,
            "count_cap": args.count_cap,
            "seed": args.seed,
        },
        "policy": {"mu_range": args.mu_range, "sign": args.sign},
        "total": total,
        "passed": passed,
        "failed": total - passed,
        "failures": failures,
    }
    if args.json:
        print(_dump(summary))
    else:
        print(f"swept {total} curves: {passed} passed, {total - passed} failed")
        for entry in failures:
            print(f"  FAIL {json.dumps(entry['curve'], sort_keys=True)}")
            print(f"       failing checks: {', '.join(entry['failing_checks'])}")
    return 0 if not failures else 1


# -- entry point -----------------------------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mu-range", choices=["paper", "extended"], default="extended", dest="mu_range")
    sub.add_argument("--sign", choices=["paper", "negated-infty"], default="negated-infty")
    sub.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycliccover",
        description="Exact cohomology bases and identity verification for cyclic covers of the projective line",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_info = subs.add_parser("info", help="print genus, ramification and mu-tables")
    p_info.add_argument("path")
    _add_common_flags(p_info)
    p_info.set_defaults(func=cmd_info)

    p_basis = subs.add_parser("basis", help="print a cohomology basis")
    p_basis.add_argument("path")
    p_basis.add_argument("which", choices=["omega", "h1", "derham", "all"])
    _add_common_flags(p_basis)
    p_basis.set_defaults(func=cmd_basis)

    p_verify = subs.add_parser("verify", help="run the full identity report")
    p_verify.add_argument("path")
    _add_common_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="enumerate curves within bounds and verify each")
    p_sweep.add_argument("--family", choices=["kummer", "artin-schreier", "both"], default="both")
    p_sweep.add_argument("--p-max", type=int, default=7, dest="p_max")
    p_sweep.add_argument("--n-max", type=int, default=4, dest="n_max")
    p_sweep.add_argument("--l-max", type=int, default=8, dest="l_max")
    p_sweep.add_argument("--r-max", type=int, default=3, dest="r_max")
    p_sweep.add_argument("--li-max", type=int, default=4, dest="li_max")
    p_sweep.add_argument("--count-cap", type=int, default=100, dest="count_cap")
    p_sweep.add_argument("--seed", type=int, default=0)
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
