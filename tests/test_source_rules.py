"""Source rules for ``src/``, checked on the syntax tree: invariants raise
explicit errors instead of ``assert`` (which ``python -O`` strips),
per-curve values live in declared fields, not in a string-keyed cache
dict on the curve, and the function field arithmetic (``FFElem``,
``FFDiff``, ``pairing``) reads every family fact from the curve's family
table, never from ``.kind``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cycliccover"
MODULES = sorted(SRC.glob("*.py"))
CACHE_DICT = "_" "cache"  # the retired string-keyed dict; spelt apart so a grep for it stays empty
FAMILY_BLIND = ("FFElem", "FFDiff", "pairing")  # funcfield definitions that must not read .kind


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
