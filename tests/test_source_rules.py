"""Source rules for ``src/``, checked on the syntax tree: invariants raise
explicit errors instead of ``assert`` (which ``python -O`` strips),
per-curve values live in declared fields, not in a string-keyed cache
dict on the curve, the function field arithmetic (``FFElem``,
``FFDiff``, ``pairing``) reads every family fact from the curve's family
table, never from ``.kind``, the polynomial arithmetic works on field
encodings: it neither builds a ``FieldElement`` nor reads one out of a
``Poly``, and every ``CheckResult`` is built with the literal status
"pass" or "fail", the only two verdicts."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cycliccover"
MODULES = sorted(SRC.glob("*.py"))
CACHE_DICT = "_" "cache"  # the retired string-keyed dict; spelt apart so a grep for it stays empty
FAMILY_BLIND = ("FFElem", "FFDiff", "pairing")  # funcfield definitions that must not read .kind
# polyrat arithmetic on encodings, by class ("" for module level)
INT_CODED = {
    "Poly": ("__add__", "__sub__", "__mul__", "__divmod__", "derivative", "multiplicity_at", "monic"),
    "RatFn": ("__init__",),
    "": ("poly_gcd",),
}
# attributes that hand out a FieldElement: Poly's readers and FieldSpec's constructors
ELEMENT_ATTRS = ("coeffs", "coefficient", "leading", "evaluate", "element", "from_encoding")
STATUSES = ("pass", "fail")


def _violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert statement"))
        elif isinstance(node, ast.Attribute) and node.attr == CACHE_DICT:
            out.append((node.lineno, f"{CACHE_DICT} attribute"))
    return [f"line {line}: {what}" for line, what in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_keeps_the_source_rules(path):
    assert _violations(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_rules_catch_violations():
    tree = ast.parse(f"assert x\ncurve.{CACHE_DICT}['ram'] = 1\ny = curve.{CACHE_DICT}\n")
    assert _violations(tree) == [
        "line 1: assert statement",
        f"line 2: {CACHE_DICT} attribute",
        f"line 3: {CACHE_DICT} attribute",
    ]


def _kind_reads(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in FAMILY_BLIND:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "kind":
                    out.append(f"line {sub.lineno}: {node.name} reads .kind")
    return out


def test_function_field_arithmetic_reads_no_kind():
    tree = ast.parse((SRC / "funcfield.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert set(FAMILY_BLIND) <= defined
    assert _kind_reads(tree) == []


def test_the_kind_rule_catches_violations():
    tree = ast.parse(
        "class FFElem:\n"
        "    def trace(self):\n"
        "        return self.curve.kind\n"
        "def pairing(f, omega):\n"
        "    kummer = f.curve.kind == 'kummer'\n"
        "def place_classes(curve):\n"
        "    return curve.kind\n"
    )
    assert _kind_reads(tree) == ["line 3: FFElem reads .kind", "line 5: pairing reads .kind"]


def _element_uses(tree: ast.Module) -> tuple[set[str], list[str]]:
    """The INT_CODED definitions found, and each place one of them builds or
    reads a ``FieldElement``: a ``FieldElement(...)`` call, an attribute from
    ``ELEMENT_ATTRS``, or a nullary ``.zero()``/``.one()`` (``spec.one()``
    is an element, ``Poly.one(spec)`` is not)."""
    found, out = set(), []
    scopes = [("", tree)] + [(n.name, n) for n in tree.body if isinstance(n, ast.ClassDef)]
    for owner, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in INT_CODED.get(owner, ()):
                continue
            name = f"{owner}.{fn.name}" if owner else fn.name
            found.add(name)
            for sub in ast.walk(fn):
                what = None
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "FieldElement":
                    what = "FieldElement(...)"
                elif isinstance(sub, ast.Attribute) and sub.attr in ELEMENT_ATTRS:
                    what = f".{sub.attr}"
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                      and sub.func.attr in ("zero", "one") and not sub.args):
                    what = f".{sub.func.attr}()"
                if what:
                    out.append(f"line {sub.lineno}: {name} uses {what}")
    return found, sorted(out, key=lambda line: int(line.split()[1].rstrip(":")))


def test_polynomial_arithmetic_works_on_encodings():
    found, uses = _element_uses(ast.parse((SRC / "polyrat.py").read_text(encoding="utf-8")))
    assert found == {f"{c}.{f}" if c else f for c, fs in INT_CODED.items() for f in fs}
    assert uses == []


def test_the_encoding_rule_catches_violations():
    tree = ast.parse(
        "class Poly:\n"
        "    def monic(self):\n"
        "        return self * self.leading.inverse()\n"
        "    def __mul__(self, other):\n"
        "        return Poly(self.spec, [a * b for a in self.coeffs for b in other.coeffs])\n"
        "    def derivative(self):\n"
        "        return [self.spec.element(k) for k in range(3)] + [Poly.zero(self.spec)]\n"
        "    def render(self):\n"
        "        return self.coeffs\n"
        "class RatFn:\n"
        "    def __init__(self, num, den):\n"
        "        self.unit = den.spec.one()\n"
        "def poly_gcd(a, b):\n"
        "    return FieldElement(a.spec, 1)\n"
    )
    found, uses = _element_uses(tree)
    assert found == {"Poly.monic", "Poly.__mul__", "Poly.derivative", "RatFn.__init__", "poly_gcd"}
    assert uses == [
        "line 3: Poly.monic uses .leading",
        "line 5: Poly.__mul__ uses .coeffs",
        "line 5: Poly.__mul__ uses .coeffs",
        "line 7: Poly.derivative uses .element",
        "line 12: RatFn.__init__ uses .one()",
        "line 14: poly_gcd uses FieldElement(...)",
    ]


def _check_results(tree: ast.AST) -> tuple[int, list[str]]:
    """How many ``CheckResult(...)`` calls the tree makes, and each one whose
    status (second positional argument or ``status=``) is not a literal
    from ``STATUSES``."""
    calls, out = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "CheckResult":
            continue
        calls += 1
        keyword = [k.value for k in node.keywords if k.arg == "status"]
        status = node.args[1] if len(node.args) > 1 else (keyword[0] if keyword else None)
        if not (isinstance(status, ast.Constant) and status.value in STATUSES):
            shown = ast.unparse(status) if status is not None else "missing"
            out.append(f"line {node.lineno}: CheckResult status {shown}")
    return calls, out


def test_check_results_have_literal_pass_or_fail_status():
    calls = 0
    for path in MODULES:
        found, bad = _check_results(ast.parse(path.read_text(encoding="utf-8")))
        assert bad == [], path.name
        calls += found
    assert calls >= 10  # the rule sees the checks of verify.py


def test_the_status_rule_catches_violations():
    tree = ast.parse(
        "CheckResult('a', 'pass', 'ok')\n"
        "CheckResult('b', 'inconclusive', 'maybe')\n"
        "verify.CheckResult('c', status)\n"
        "CheckResult(name='d', status='fail', details='')\n"
        "CheckResult(name='e', status='unknown', details='')\n"
        "CheckResult('f')\n"
    )
    assert _check_results(tree) == (
        6,
        [
            "line 2: CheckResult status 'inconclusive'",
            "line 3: CheckResult status status",
            "line 5: CheckResult status 'unknown'",
            "line 6: CheckResult status missing",
        ],
    )
