"""Every function in ``src/`` is reached by a CLI path or listed here.

The CLI paths run in-process under ``sys.setprofile``: ``info``, ``basis
all`` and ``verify``, with and without ``--json``, on both spec files
under each mu-range policy and sign convention, and one small ``sweep
--family both`` whose Kummer cells take the fields F_4, F_9 and F_25
from the q = p^2 enumerator, then the README Kummer sweep, whose basis
products are the first on these paths large enough for the Kronecker
route.  The shared field specs are emptied
first, so the table build runs too.  Every ``def`` in the package must
then have been called or stand in ``UNREACHED`` with its reason: a name
the benchmark's tracer reads (``bench/tracing.py``), a primitive the
oracles of ``tests/`` build on, an error or failing-payload path, or a
repr.  An
unlisted unreached ``def`` fails, and so does a listed name that is no
longer defined or that a path now reaches, so the list stays exact.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import cycliccover
from cycliccover import cli, gf

PACKAGE = Path(cycliccover.__file__).resolve().parent
SPECS = Path(__file__).resolve().parents[1] / "specs"

TRACER = "tracer pin: bench/tracing.py counts its calls, or a tracer-pinned operator calls it"
ORACLE = "oracle primitive: the tests' reference routes and value comparisons build on it"
ERROR = "error or failing-payload path"
REPR = "repr: pytest's failure messages"
UNREACHED = {
    "curve.ASCurve.__repr__": REPR,
    "curve.CurveInvalidError.__init__": ERROR,
    "curve.KummerCurve.__repr__": REPR,
    "funcfield.FFDiff.__eq__": ORACLE,
    "funcfield.FFDiff.__hash__": ORACLE,
    "funcfield.FFDiff.__repr__": REPR,
    "funcfield.FFElem.__eq__": ORACLE,
    "funcfield.FFElem.__mul__": TRACER,
    "funcfield.FFElem.__repr__": REPR,
    "funcfield.FFElem._check": TRACER,
    "gf.FieldElement.__add__": TRACER,
    "gf.FieldElement.__eq__": ORACLE,
    "gf.FieldElement.__hash__": ORACLE,
    "gf.FieldElement.__mul__": TRACER,
    "gf.FieldElement.__pow__": ORACLE,  # the Galois reference raises zeta_n to powers
    "gf.FieldElement.__repr__": REPR,
    "gf.FieldElement.__sub__": TRACER,
    "gf.FieldElement._check": TRACER,
    "gf.FieldSpec.__eq__": ORACLE,  # only the value comparisons of Poly and FieldElement compare specs
    "gf.FieldSpec.__repr__": REPR,
    "gf.FieldSpec.mul": ORACLE,
    "gf.FieldSpec.pow": ORACLE,
    "polyrat.Poly.__eq__": ORACLE,  # the report path decides no identity by comparing two polynomials
    "polyrat.Poly.__repr__": REPR,
    "polyrat.Poly.from_ints": ORACLE,  # the test literals rely on its reduction mod p
    "polyrat.RatFn.__add__": ORACLE,  # and the FFElem constructor when two terms share a y index
    "polyrat.RatFn.__eq__": ORACLE,
    "polyrat.RatFn.__mul__": TRACER,  # FFElem.__mul__ multiplies coefficients with it
    "polyrat.RatFn.__repr__": REPR,
    "polyrat.RatFn.is_zero": ORACLE,
    "polyrat.RatFn.zero": ORACLE,
}


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> module-qualified name, per
    ``def`` in the package; a decorated def starts at its first decorator."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), line)] = f"{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return out


def _cli_paths() -> list[list[str]]:
    paths = []
    for spec in ("kummer_quartic.json", "as_p3.json"):
        for policy in ("paper", "extended"):
            for sign in ("paper", "negated-infty"):
                for command in (["info"], ["basis", "all"], ["verify"]):
                    for json_flag in ([], ["--json"]):
                        argv = [command[0], str(SPECS / spec), *command[1:], "--mu-range", policy, "--sign", sign]
                        paths.append(argv + json_flag)
    paths.append(["sweep", "--family", "both", "--p-max", "5", "--n-max", "4", "--l-max", "4",
                  "--r-max", "1", "--li-max", "2", "--count-cap", "6"])
    paths.append(["sweep", "--family", "kummer", "--p-max", "13", "--n-max", "6", "--l-max", "12", "--count-cap", "64"])
    return paths


def _reached(monkeypatch) -> set[tuple[str, int]]:
    """(file, first line) of every code object called on the CLI paths."""
    monkeypatch.setattr(gf, "_SHARED", {})
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in _cli_paths():
                cli.main(argv)
        finally:
            sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes}


def test_every_def_is_reached_or_listed_with_a_reason(monkeypatch):
    definitions = _definitions()
    reached = _reached(monkeypatch)
    unreached = {name for key, name in definitions.items() if key not in reached}
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - set(definitions.values())) == []
    assert sorted(set(UNREACHED) - unreached) == []
    assert set(UNREACHED.values()) <= {TRACER, ORACLE, ERROR, REPR}
