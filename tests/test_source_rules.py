"""Source rules for ``src/``, checked on the syntax tree: invariants raise
explicit errors instead of ``assert`` (which ``python -O`` strips),
per-curve values live in declared fields, not in a string-keyed cache
dict on the curve, every ``funcfield`` definition but ``_family_table``
reads every family fact from the curve's family table, never from
``.kind``, the polynomial arithmetic works on field
encodings: it neither builds a ``FieldElement`` nor reads one out of a
``Poly``, and every ``CheckResult`` is built with the literal status
"pass" or "fail", the only two verdicts.  The pairing and the cocycle
zero test compute only what their verdicts read: they and the helpers
they call build no reduced ``RatFn``, take no gcd and form no product of function field elements.  The divisor
identities in ``verify`` never name the de Rham builder's Kummer psi or
its cofactor-sum helper, so they stay an independent check of it.
``verify`` and ``cohomology`` never name a root multiplicity or a
per-coefficient valuation, so every valuation they read comes from
``funcfield.valuations``, the one walk.  The denominator factorization that
``reduce_over_roots`` records on a ``RatFn`` (``den_roots``) is handed to
the constructor ``RatFn._of`` only there, stored only by ``_of`` and
cleared to None by ``RatFn.__init__``, carried into ``_of`` only by
``RatFn.__neg__`` and ``RatFn.__mul__`` and read elsewhere only in
``funcfield``, so no check can read a record around that walk.  In
``funcfield`` the class-score formula is written once: only ``_walk``
names ``multiplicity_at``, so ``valuations`` and ``poles`` share one walk.
No class, function or field in ``src/`` takes the name of a route kept in
``tests/reference.py`` or of a retired family-table field, so the
references stay out of the path they check, nor the name of a retired
second route to a value (a wrapper beside ``pairing_matrix``,
``build_bases`` or ``fraction_residue``, the root of unity the Galois
oracle keeps, the ``MuTable`` wrapper of the mu-table dict, the
class-or-triple fork ``_triple`` of the de Rham checks, an unreached
operator or second constructor of a value type, banned by its
class-qualified name such as ``RatFn.inverse``, the second
ramification table ``ram_data`` beside ``curve.place_classes``, the
pole pre-pass ``_scores_below_zero`` beside the one valuation walk, the
cofactor sum ``_cofactor_sum`` of the Kummer identities, which ``verify``
decides on the mu-table's exponents, or a second factored form of a
denominator beside ``RatFn.den_roots``: ``_Den``, ``_factored``,
``_g_dens`` and ``_den_multiplicity``), so each value and each operation
keeps one way in.  The coefficient loops that
read the field tables inline, and the root walks that call the row kernel
``polyrat._axpy``, neither call ``FieldSpec.add``/``mul``/``neg`` nor bind
one to a local, so no per-coefficient call comes back.  Only ``gf`` and
``polyrat`` read the field tables ``exp``, ``log`` and ``zech``, and in
``polyrat`` only ``_axpy``, ``_horner`` and ``Poly.__add__`` read ``zech``,
so a Zech sum is written in those three places only.  The
function field arithmetic, the bases and the checks walk an element's
nonzero ``terms``: ``FFElem`` has no dense view, and no code in
``funcfield``, ``cohomology`` or ``verify`` reads a ``.coeffs``.  The
basis builders reduce every coefficient over the roots its denominator
is built from: ``cohomology`` calls neither ``poly_gcd`` nor
the reducing two-argument ``RatFn(num, den)``.  The pairing has one
route: only ``pairing_matrix`` sums pairing residues, so in ``src/`` only
it calls ``fraction_residue``.  Every value record is a ``NamedTuple``:
``src/`` imports no ``dataclasses``, decorates nothing ``@dataclass`` and
uses no ``cached_property``.  Each module imports only from the layers
below it, gf -> polyrat -> curve -> funcfield -> cohomology -> verify ->
cli, except inside an ``if TYPE_CHECKING:`` block."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cycliccover"
MODULES = sorted(SRC.glob("*.py"))
CACHE_DICT = "_" "cache"  # the retired string-keyed dict; spelt apart so a grep for it stays empty
KIND_READERS = ("_family_table",)  # the one funcfield definition that may read .kind
# polyrat arithmetic on encodings, by class ("" for module level)
INT_CODED = {
    "Poly": ("__add__", "__sub__", "__mul__", "__divmod__", "derivative", "multiplicity_at", "monic", "from_roots"),
    "RatFn": ("__init__",),
    "": ("poly_gcd", "fraction_residue", "fraction_sum", "_kronecker_product", "_digit_planes",
         "reduce_over_roots", "_divide_out", "_root_product", "_axpy"),
}
# attributes that hand out a FieldElement: Poly's readers and FieldSpec's constructors
ELEMENT_ATTRS = ("coeffs", "coefficient", "leading", "evaluate", "element", "from_encoding")
STATUSES = ("pass", "fail")
# the pairing, the cocycle zero test and the helpers they call, by module and class ("" for module level)
UNREDUCED = {
    "funcfield.py": {"": ("pairing_matrix", "_reach"), "FFElem": ("differential_terms",)},
    "verify.py": {"": ("_cocycle_sums", "_dx_sums", "_dy_matches")},
    "polyrat.py": {"": ("fraction_residue", "fraction_sum")},
}
REDUCING_CALLS = ("RatFn", "poly_gcd", "exterior_d")
# attributes holding a function field element or differential
ELEMENT_FIELDS = ("coeff", "f0inf", "omega0", "omega_inf")
BUILDER_PSI = ("kummer_psi", "_kummer_psi_parts", "_psi_at", "_cofactor_parts")  # names verify.py must not use
# valuation primitives that verify.py and cohomology.py must not use
VALUATION_PRIMITIVES = ("multiplicity_at", "coeff_valuation")
RECORD = "den_roots"  # the denominator factorization that reduce_over_roots records on a RatFn
RECORDER = "reduce_over_roots"  # the one definition that hands RatFn._of a record of its own
RECORD_SETTERS = ("RatFn._of", "RatFn.__init__")  # the one store of a record, and the None of every other constructor
RECORD_CARRIERS = ("RatFn.__neg__", "RatFn.__mul__")  # keep den, so they hand _of self's record
SCORE_CALLS = ("multiplicity_at",)  # the multiplicities the class-score formula reads
NAME_ACCESS = ("getattr", "setattr", "delattr", "hasattr")
# the coefficient loops that read the field tables inline, and the root walks that call
# their row kernel, by module and class ("" for module level)
TABLE_KERNELS = {
    "polyrat.py": {
        "Poly": ("__add__", "__neg__", "_scale", "__mul__", "__divmod__", "multiplicity_at", "from_roots",
                 "evaluate", "derivative"),
        "": ("_axpy", "_horner", "_divide_out", "_reduce", "poly_gcd", "reduce_over_roots", "_root_product"),
    },
    "cohomology.py": {"": ("_cofactor_parts",)},
}
FIELD_CALLS = ("add", "mul", "neg")  # the FieldSpec methods those loops must not call or bind
FIELD_TABLES = ("exp", "log", "zech")  # read only in TABLE_MODULES
TABLE_MODULES = ("gf.py", "polyrat.py")
ZECH_READERS = ("_axpy", "_horner", "Poly.__add__")  # the polyrat definitions that read zech
SPARSE_MODULES = ("funcfield.py", "cohomology.py", "verify.py")  # modules that walk terms, never .coeffs
RESIDUE_CALLERS = ("pairing_matrix",)  # the only caller of fraction_residue
# reference routes and retired family-table fields that no src/ definition may be named
REFERENCE_NAMES = (
    "galois", "trace", "trace_by_orbit", "kummer_aux", "as_aux", "kummer_psi", "as_omega_mu",
    "gen_a", "gen_b", "trace_value", "pairing_scale", "KummerAux", "ASAux",
)
RECORD_MACHINERY = ("dataclass", "cached_property")  # the record idiom that NamedTuple replaced
# retired second routes to a value that no src/ definition may be named; a class-qualified
# name bans the method (or a class-level alias) of that name in that class only
RETIRED_NAMES = (
    "pairing", "h1_coordinates", "require_h1_class", "derham_basis", "residue_at_infinity", "nth_root_of_unity",
    "MuTable", "_triple", "FieldElement.__truediv__", "Poly.constant", "Poly.leading", "Poly.__mod__",
    "RatFn.from_poly", "RatFn.constant", "RatFn.spec", "RatFn.__sub__", "RatFn.inverse", "RatFn.__truediv__",
    "FFElem.__add__", "FFElem.__sub__", "FFElem.from_ratfn", "FFDiff.zero", "FFDiff.__add__", "FFDiff.__sub__",
    "BranchRam", "RamData", "ram_data", "CyclicCover.ram", "_scores_below_zero", "_cofactor_sum",
    "_Den", "_factored", "_g_dens", "_den_multiplicity",
)
# the package's layers, lowest first: each module imports only from those before it
LAYERS = ("gf", "polyrat", "curve", "funcfield", "cohomology", "verify", "cli")
TOP = ("__init__", "__main__")  # above every layer


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
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name not in KIND_READERS:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "kind":
                    out.append(f"line {sub.lineno}: {node.name} reads .kind")
    return out


def test_function_field_arithmetic_reads_no_kind():
    tree = ast.parse((SRC / "funcfield.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert set(KIND_READERS) < defined and {"FFElem", "FFDiff", "valuations", "pairing_matrix"} <= defined
    assert _kind_reads(tree) == []


def test_the_kind_rule_catches_violations():
    tree = ast.parse(
        "class FFElem:\n"
        "    def trace(self):\n"
        "        return self.curve.kind\n"
        "def pairing_matrix(curve, omegas, columns):\n"
        "    kummer = curve.kind == 'kummer'\n"
        "def place_classes(curve):\n"
        "    return curve.kind\n"
        "def _family_table(curve):\n"
        "    return curve.kind == 'kummer'\n"
        "def valuations(obj):\n"
        "    kummer = obj.curve.kind == 'kummer'\n"
    )
    assert _kind_reads(tree) == [
        "line 3: FFElem reads .kind",
        "line 5: pairing_matrix reads .kind",
        "line 7: place_classes reads .kind",
        "line 11: valuations reads .kind",
    ]


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


def _is_element(node: ast.AST, names: set[str]) -> bool:
    return (isinstance(node, ast.Name) and node.id in names) or (
        isinstance(node, ast.Attribute) and node.attr in ELEMENT_FIELDS
    )


def _reductions(tree: ast.Module, wanted: dict[str, tuple[str, ...]]) -> tuple[set[str], list[str]]:
    """The wanted definitions found, and each place one of them calls a
    name or method from ``REDUCING_CALLS`` or ``__mul__``, or multiplies a
    function field element: a parameter annotated ``FFElem``/``FFDiff``,
    ``self`` in an ``FFElem`` method, a name bound (also by tuple
    unpacking) to one of those or to an attribute from ``ELEMENT_FIELDS``,
    or such an attribute itself."""
    found, out = set(), []
    scopes = [("", tree)] + [(n.name, n) for n in tree.body if isinstance(n, ast.ClassDef)]
    for owner, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in wanted.get(owner, ()):
                continue
            name = f"{owner}.{fn.name}" if owner else fn.name
            found.add(name)
            elements = {a.arg for a in fn.args.args if a.annotation is not None
                        and ast.unparse(a.annotation) in ("FFElem", "FFDiff")}
            if owner == "FFElem" and fn.args.args:
                elements.add(fn.args.args[0].arg)
            for sub in ast.walk(fn):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    unpacked = isinstance(target, ast.Tuple) and isinstance(sub.value, ast.Tuple)
                    pairs = zip(target.elts, sub.value.elts) if unpacked else [(target, sub.value)]
                    elements |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _is_element(v, elements)}
            for sub in ast.walk(fn):
                what = None
                if isinstance(sub, ast.Call):
                    func = sub.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called in REDUCING_CALLS + ("__mul__",):
                        what = f"calls {called}"
                elif isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Mult):
                    operands = (sub.left, sub.right) if isinstance(sub, ast.BinOp) else (sub.target, sub.value)
                    if any(_is_element(op, elements) for op in operands):
                        what = "multiplies function field elements"
                if what:
                    out.append(f"line {sub.lineno}: {name} {what}")
    return found, out


def test_the_pairing_and_the_cocycle_zero_test_reduce_nothing():
    for module, wanted in UNREDUCED.items():
        found, bad = _reductions(ast.parse((SRC / module).read_text(encoding="utf-8")), wanted)
        assert found == {f"{c}.{f}" if c else f for c, fs in wanted.items() for f in fs}, module
        assert bad == [], module


def test_the_reduction_rule_catches_violations():
    tree = ast.parse(
        "class FFElem:\n"
        "    def differential_terms(self):\n"
        "        return [(0, RatFn(a.num, a.den).num, 1) for a in self.coeffs]\n"
        "    def galois(self, j):\n"
        "        return self * self\n"
        "def pairing(f: FFElem, omega: FFDiff):\n"
        "    w = omega.coeff\n"
        "    tr = (f * w).trace()\n"
        "    g = poly_gcd(tr.num, tr.den)\n"
        "    return f.__mul__(w), omega.coeff * f, f.coeffs[0] * w.coeffs[0]\n"
        "def _cocycle_sums(triple):\n"
        "    f, w = triple.f0inf, triple.omega0.coeff\n"
        "    residual = f.exterior_d() - w\n"
        "    return f * w, triple.f0inf * 2\n"
    )
    wanted = {"": ("pairing", "_cocycle_sums"), "FFElem": ("differential_terms",)}
    found, bad = _reductions(tree, wanted)
    assert found == {"pairing", "_cocycle_sums", "FFElem.differential_terms"}
    assert sorted(bad, key=lambda line: int(line.split()[1].rstrip(":"))) == [
        "line 3: FFElem.differential_terms calls RatFn",
        "line 8: pairing multiplies function field elements",
        "line 9: pairing calls poly_gcd",
        "line 10: pairing calls __mul__",
        "line 10: pairing multiplies function field elements",
        "line 13: _cocycle_sums calls exterior_d",
        "line 14: _cocycle_sums multiplies function field elements",
        "line 14: _cocycle_sums multiplies function field elements",
    ]


def _uses(tree: ast.Module, banned: tuple[str, ...]) -> list[str]:
    """Each name, attribute or import of a banned name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for alias in node.names for n in (alias.name.rsplit(".", 1)[-1], alias.asname)]
        else:
            continue
        out += [f"line {node.lineno}: uses {n}" for n in names if n in banned]
    return out


def test_the_divisor_identities_do_not_use_the_builder_psi():
    assert _uses(ast.parse((SRC / "verify.py").read_text(encoding="utf-8")), BUILDER_PSI) == []


def test_the_builder_psi_rule_catches_violations():
    tree = ast.parse(
        "from .cohomology import _kummer_psi_parts, as_psi\n"
        "from . import cohomology as kummer_psi\n"
        "def f(curve):\n"
        "    return cohomology._psi_at(_kummer_psi_parts(curve, 1, t), 2), as_psi(curve)\n"
        "def g(spec, weights):\n"
        "    return cohomology._cofactor_parts(spec, weights)[0]\n"
    )
    assert sorted(_uses(tree, BUILDER_PSI)) == [
        "line 1: uses _kummer_psi_parts",
        "line 2: uses kummer_psi",
        "line 4: uses _kummer_psi_parts",
        "line 4: uses _psi_at",
        "line 6: uses _cofactor_parts",
    ]


def test_the_checks_read_valuations_only_through_the_walk():
    for module in ("verify.py", "cohomology.py"):
        assert _uses(ast.parse((SRC / module).read_text(encoding="utf-8")), VALUATION_PRIMITIVES) == [], module


def test_the_valuation_rule_catches_violations():
    tree = ast.parse(
        "from .polyrat import multiplicity_at as order\n"
        "def f(place, a, poly, rho):\n"
        "    v = place.coeff_valuation(a) + a.num.multiplicity_at(rho)\n"
        "    return v + poly.multiplicity_at(rho) + valuation_bound(a, place)\n"
    )
    assert sorted(_uses(tree, VALUATION_PRIMITIVES)) == [
        "line 1: uses multiplicity_at",
        "line 3: uses coeff_valuation",
        "line 3: uses multiplicity_at",
        "line 4: uses multiplicity_at",
    ]


def _self_record(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == RECORD
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _record_uses(tree: ast.Module, module: str) -> list[str]:
    """Each use of the recorded factorization ``RatFn.den_roots`` outside
    its rule.  In ``polyrat`` only ``reduce_over_roots`` hands the
    constructor ``_of`` a record of its own, the carriers hand it only
    ``self.den_roots``, only ``_of`` stores one and ``RatFn.__init__``
    stores only None; only ``funcfield`` reads it elsewhere, and no module
    reaches it by name through ``getattr`` or its kin."""
    out = []

    def found(node: ast.AST, owner: str) -> str | None:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in NAME_ACCESS
                and any(isinstance(a, ast.Constant) and a.value == RECORD for a in node.args)):
            return f"reaches {RECORD} by name"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_of":
            handed = node.args[2:] + [k.value for k in node.keywords if k.arg == RECORD]
            if not handed or module == "polyrat" and owner == RECORDER:
                return None
            if module == "polyrat" and owner in RECORD_CARRIERS:
                return None if _self_record(handed[0]) else f"hands _of a {RECORD} other than self.{RECORD}"
            return f"hands _of a {RECORD}"
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and module == "polyrat":
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == RECORD for t in targets):
                value = node.value
                if owner == "RatFn.__init__" and not (isinstance(value, ast.Constant) and value.value is None):
                    return f"stores a {RECORD} other than None"
            return None
        if not (isinstance(node, ast.Attribute) and node.attr == RECORD):
            return None
        if module == "polyrat":
            allowed = RECORD_CARRIERS if isinstance(node.ctx, ast.Load) else RECORD_SETTERS
            return None if owner in allowed else f"{'reads' if isinstance(node.ctx, ast.Load) else 'stores'} {RECORD}"
        if module == "funcfield" and isinstance(node.ctx, ast.Load):
            return None
        return f"uses {RECORD}"

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            else:
                what = found(child, owner)
                if what:
                    out.append((child.lineno, f"{owner or 'module'} {what}"))
            visit(child, name)

    visit(tree, "")
    return [f"line {line}: {what}" for line, what in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_reduce_over_roots_records_a_factorization(path):
    source = path.read_text(encoding="utf-8")
    assert _record_uses(ast.parse(source), path.stem) == []
    if path.stem in ("polyrat", "funcfield"):  # the rule sees the record
        assert f".{RECORD}" in source


def test_the_factorization_rule_catches_violations():
    polyrat = ast.parse(
        "class RatFn:\n"
        "    def __init__(self, num, den):\n"
        f"        self.{RECORD} = None\n"
        f"        self.{RECORD} = den.roots\n"
        "    @classmethod\n"
        f"    def _of(cls, num, den, {RECORD}=None):\n"
        f"        out.num, out.den, out.{RECORD} = num, den, {RECORD}\n"
        "    def __neg__(self):\n"
        f"        return RatFn._of(-self.num, self.den, self.{RECORD})\n"
        "    def __mul__(self, other):\n"
        f"        out = RatFn._of(self.num, self.den, other.{RECORD})\n"
        f"        out.{RECORD} = self.{RECORD}\n"
        "    def __add__(self, other):\n"
        f"        return RatFn._of(self.num, self.den, {RECORD}=self.{RECORD})\n"
        "def reduce_over_roots(num, e, den, roots):\n"
        "    out = RatFn._of(num, den, tuple(roots))\n"
        f"    out.{RECORD} = tuple(roots)\n"
        "def fraction_sum(spec, terms):\n"
        f"    return getattr(terms[0], '{RECORD}')\n"
    )
    assert _record_uses(polyrat, "polyrat") == [
        f"line 4: RatFn.__init__ stores a {RECORD} other than None",
        f"line 11: RatFn.__mul__ hands _of a {RECORD} other than self.{RECORD}",
        f"line 12: RatFn.__mul__ stores {RECORD}",
        f"line 14: RatFn.__add__ hands _of a {RECORD}",
        f"line 14: RatFn.__add__ reads {RECORD}",
        f"line 17: reduce_over_roots stores {RECORD}",
        f"line 19: fraction_sum reaches {RECORD} by name",
    ]
    checks = ast.parse(
        "def locus_check(triple, label):\n"
        f"    roots = triple.f0inf.terms[0][1].{RECORD}\n"
        f"    return setattr(a, '{RECORD}', None), hasattr(a, '{RECORD}')\n"
        "def _over(curve, num, den):\n"
        "    return RatFn._of(num, den, ((0, 1),)), FFElem._of(curve, ())\n"
    )
    for module in ("verify", "cohomology"):
        assert _record_uses(checks, module) == [
            f"line 2: locus_check uses {RECORD}",
            f"line 3: locus_check reaches {RECORD} by name",
            f"line 3: locus_check reaches {RECORD} by name",
            f"line 5: _over hands _of a {RECORD}",
        ]
    funcfield = ast.parse(
        "def valuations(obj):\n"
        f"    recorded = a.{RECORD}\n"
        f"    a.{RECORD} = ()\n"
    )
    assert _record_uses(funcfield, "funcfield") == [f"line 3: valuations uses {RECORD}"]


def _score_formulas(tree: ast.Module) -> list[str]:
    """Each definition that names a call of the class-score formula
    (``SCORE_CALLS``), by name or attribute, with the names it uses
    ("module" at module level)."""

    def found(node: ast.AST) -> str | None:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return f"uses {name}" if isinstance(node, (ast.Name, ast.Attribute)) and name in SCORE_CALLS else None

    uses: dict[str, set[str]] = {}
    for line in _outside(tree, (), found):
        owner, name = line.split(": ", 1)[1].split(" uses ")
        uses.setdefault(owner, set()).add(name)
    return [f"{owner} uses {', '.join(sorted(names))}" for owner, names in sorted(uses.items())]


def test_one_walk_scores_the_place_classes():
    tree = ast.parse((SRC / "funcfield.py").read_text(encoding="utf-8"))
    assert _score_formulas(tree) == ["_walk uses multiplicity_at"]


def test_the_score_formula_rule_catches_violations():
    tree = ast.parse(
        "def _walk(elem, places):\n"
        "    m = den.multiplicity_at(rho) if recorded is None else recorded.get(r, 0)\n"
        "    return m or num.multiplicity_at(rho)\n"
        "def _scores_below_zero(j, a, places, dx):\n"
        "    return a.num.multiplicity_at(place.rho)\n"
        "def poles(obj, allowed):\n"
        "    order = Poly.multiplicity_at\n"
        "    return [order(a.num, rho) for rho in allowed]\n"
        "class FFElem:\n"
        "    def valuation(self, rho):\n"
        "        return self.den.multiplicity_at(rho)\n"
        "ORDER = multiplicity_at(F, X)\n"
    )
    assert _score_formulas(tree) == [
        "FFElem.valuation uses multiplicity_at",
        "_scores_below_zero uses multiplicity_at",
        "_walk uses multiplicity_at",
        "module uses multiplicity_at",
        "poles uses multiplicity_at",
    ]


def _definitions(tree: ast.AST, banned: tuple[str, ...]) -> list[str]:
    """Each class, function or field (an annotated name in a class body)
    that takes a banned name, and each method, class-level alias or
    declared instance field (an annotated ``self.name`` in a method) whose
    class-qualified name (``RatFn.inverse``, ``CyclicCover.ram``) is banned."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(sub.lineno, sub.target.id) for sub in node.body
                      if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]
            found += [(sub.lineno, f"{node.name}.{sub.target.attr}") for method in node.body
                      if isinstance(method, ast.FunctionDef) for sub in ast.walk(method)
                      if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Attribute)
                      and isinstance(sub.target.value, ast.Name) and sub.target.value.id == "self"]
            found += [(sub.lineno, f"{node.name}.{sub.name}") for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
            found += [(sub.lineno, f"{node.name}.{target.id}") for sub in node.body if isinstance(sub, ast.Assign)
                      for target in sub.targets if isinstance(target, ast.Name)]
    return [f"line {line}: names {name}" for line, name in sorted(found) if name in banned]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_definition_takes_a_reference_name(path):
    assert _definitions(ast.parse(path.read_text(encoding="utf-8")), REFERENCE_NAMES) == []


def test_the_reference_name_rule_catches_violations():
    tree = ast.parse(
        "class FFElem:\n"
        "    def galois(self, j):\n"
        "        return self\n"
        "@dataclass\n"
        "class FamilyTable:\n"
        "    gen_a: int\n"
        "    trace_index: int\n"
        "def kummer_aux(curve):\n"
        "    curve.pairing_scale = 1\n"
        "    return FamilyTable(gen_a=1, trace_index=0)\n"
        "class KummerAux:\n"
        "    pass\n"
        "def pairing(f, w):\n"
        "    return trace(f) + f.trace_value\n"
    )
    assert _definitions(tree, REFERENCE_NAMES) == [
        "line 2: names galois",
        "line 6: names gen_a",
        "line 8: names kummer_aux",
        "line 11: names KummerAux",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_definition_takes_a_retired_name(path):
    assert _definitions(ast.parse(path.read_text(encoding="utf-8")), RETIRED_NAMES) == []


def test_the_retired_name_rule_catches_violations():
    tree = ast.parse(
        "def pairing(f, omega):\n"
        "    return pairing_matrix(f.curve, [omega], [f])[0][0]\n"
        "def pairing_matrix(curve, omegas, columns):\n"
        "    def residue_at_infinity(h):\n"
        "        return fraction_residue(h.num, h.den)\n"
        "class Bases:\n"
        "    derham_basis: list\n"
        "    derham: list\n"
        "    def h1_coordinates(self, f):\n"
        "        return nth_root_of_unity(self.spec, 2)\n"
        "class RatFn:\n"
        "    def inverse(self):\n"
        "        return RatFn(self.den, self.num)\n"
        "class FFElem:\n"
        "    def inverse(self):\n"
        "        return self\n"
        "    __add__ = _plus\n"
        "    __mul__ = _times\n"
        "class RamData(NamedTuple):\n"
        "    l0: int | None\n"
        "def ram_data(curve):\n"
        "    return curve.ram\n"
        "class CyclicCover:\n"
        "    def __init__(self, spec):\n"
        "        self.ram: RamData | None = None\n"
        "        self.places: tuple | None = None\n"
        "        self.ram = None\n"
    )
    assert _definitions(tree, RETIRED_NAMES) == [
        "line 1: names pairing",
        "line 4: names residue_at_infinity",
        "line 7: names derham_basis",
        "line 9: names h1_coordinates",
        "line 12: names RatFn.inverse",
        "line 17: names FFElem.__add__",
        "line 19: names RamData",
        "line 21: names ram_data",
        "line 25: names CyclicCover.ram",
    ]


def _field_calls(tree: ast.Module, wanted: dict[str, tuple[str, ...]]) -> tuple[set[str], list[str]]:
    """The wanted definitions found, and each place one of them reaches a
    method from ``FIELD_CALLS``: an attribute of that name, whether called
    (``spec.add(a, b)``) or bound (``add = spec.add``), or a ``getattr``
    of it."""
    found, out = set(), []
    scopes = [("", tree)] + [(n.name, n) for n in tree.body if isinstance(n, ast.ClassDef)]
    for owner, scope in scopes:
        for fn in scope.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in wanted.get(owner, ()):
                continue
            name = f"{owner}.{fn.name}" if owner else fn.name
            found.add(name)
            for sub in ast.walk(fn):
                if isinstance(sub, ast.Attribute) and sub.attr in FIELD_CALLS:
                    out.append(f"line {sub.lineno}: {name} uses .{sub.attr}")
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "getattr"
                      and any(isinstance(a, ast.Constant) and a.value in FIELD_CALLS for a in sub.args)):
                    out.append(f"line {sub.lineno}: {name} uses getattr")
    return found, sorted(out, key=lambda line: int(line.split()[1].rstrip(":")))


def test_the_table_kernels_make_no_field_calls():
    for module, wanted in TABLE_KERNELS.items():
        found, bad = _field_calls(ast.parse((SRC / module).read_text(encoding="utf-8")), wanted)
        assert found == {f"{c}.{f}" if c else f for c, fs in wanted.items() for f in fs}, module
        assert bad == [], module


def test_the_field_call_rule_catches_violations():
    tree = ast.parse(
        "class Poly:\n"
        "    def __mul__(self, other):\n"
        "        add, mul = self.spec.add, self.spec.mul\n"
        "        return [add(x, mul(x, y)) for x, y in zip(self.ints, other.ints)]\n"
        "    def _scale(self, c):\n"
        "        return [self.spec.mul(a, c) for a in self.ints]\n"
        "    def render(self):\n"
        "        return self.spec.neg(1)\n"
        "def poly_gcd(a, b):\n"
        "    return getattr(a.spec, 'neg')(1), a.spec.inv(1)\n"
        "def _cofactor_parts(spec, terms):\n"
        "    return [spec.neg(r) for r, _ in terms]\n"
    )
    wanted = {"Poly": ("__mul__", "_scale", "evaluate"), "": ("poly_gcd", "_cofactor_parts")}
    found, bad = _field_calls(tree, wanted)
    assert found == {"Poly.__mul__", "Poly._scale", "poly_gcd", "_cofactor_parts"}
    assert bad == [
        "line 3: Poly.__mul__ uses .add",
        "line 3: Poly.__mul__ uses .mul",
        "line 6: Poly._scale uses .mul",
        "line 10: poly_gcd uses getattr",
        "line 12: _cofactor_parts uses .neg",
    ]


def _dense_reads(tree: ast.Module) -> list[str]:
    """Each read of ``.coeffs``, as an attribute or by ``getattr``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            out.append((node.lineno, "reads .coeffs"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
              and any(isinstance(a, ast.Constant) and a.value == "coeffs" for a in node.args)):
            out.append((node.lineno, "reads coeffs by getattr"))
    return [f"line {line}: {what}" for line, what in sorted(out)]


def test_the_sparse_modules_read_no_dense_vector():
    for module in SPARSE_MODULES:
        assert _dense_reads(ast.parse((SRC / module).read_text(encoding="utf-8"))) == [], module


def test_the_dense_read_rule_catches_violations():
    tree = ast.parse(
        "class FFElem:\n"
        "    @property\n"
        "    def coeffs(self):\n"
        "        return self.dense.coeffs\n"
        "    def render(self):\n"
        "        return [a for a in self.coeffs if a]\n"
        "class FFDiff:\n"
        "    def coeffs(self):\n"
        "        return self.coeff.coeffs\n"
        "def pairing(f, omega):\n"
        "    return f.coeffs[0], getattr(omega, 'coeffs')\n"
    )
    assert _dense_reads(tree) == [
        "line 4: reads .coeffs",
        "line 6: reads .coeffs",
        "line 9: reads .coeffs",
        "line 11: reads .coeffs",
        "line 11: reads coeffs by getattr",
    ]


def _euclid_calls(tree: ast.AST) -> list[str]:
    """Each call of ``poly_gcd``, and each ``RatFn`` call with a second
    argument, positional or by keyword."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == "poly_gcd" or (called == "RatFn" and len(node.args) + len(node.keywords) >= 2):
            out.append((node.lineno, called))
    return [f"line {line}: calls {name}" for line, name in sorted(out)]


def test_the_builders_take_no_euclid_route():
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    assert _uses(tree, ("reduce_over_roots",))  # the rule sees the builders' route
    assert _euclid_calls(tree) == []


def test_the_euclid_rule_catches_violations():
    tree = ast.parse(
        "def omega_basis(curve):\n"
        "    a = RatFn(x_pow * g_mu, curve.f)\n"
        "    b = polyrat.RatFn(num, den=curve.f)\n"
        "    c = RatFn(Poly.one(spec)) + RatFn.from_poly(g)\n"
        "    return poly_gcd(a.num, b.den), polyrat.poly_gcd(c.num, c.den)\n"
    )
    assert _euclid_calls(tree) == [
        "line 2: calls RatFn",
        "line 3: calls RatFn",
        "line 5: calls poly_gcd",
        "line 5: calls poly_gcd",
    ]


def _outside(tree: ast.Module, allowed: tuple[str, ...], found) -> list[str]:
    """Each node that ``found`` describes (it returns a description or None)
    outside the definitions named in ``allowed`` ("function" or
    "Class.method"), with the innermost enclosing definition it is in
    ("module" at module level)."""
    out = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            elif owner not in allowed:
                what = found(child)
                if what:
                    out.append((child.lineno, f"{owner or 'module'} {what}"))
            visit(child, name)

    visit(tree, "")
    return [f"line {line}: {what}" for line, what in sorted(out)]


def _table_reads(tree: ast.Module, tables: tuple[str, ...], allowed: tuple[str, ...] = ()) -> list[str]:
    """Each read of a table from ``tables``, as an attribute or by
    ``getattr``, outside the definitions named in ``allowed``."""

    def found(node: ast.AST) -> str | None:
        if isinstance(node, ast.Attribute) and node.attr in tables:
            return f"reads .{node.attr}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and any(isinstance(a, ast.Constant) and a.value in tables for a in node.args)):
            return "reads a table by getattr"
        return None

    return _outside(tree, allowed, found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_kernels_read_the_field_tables(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "polyrat.py":
        assert _table_reads(tree, FIELD_TABLES)  # the rule sees the table reads
        assert _table_reads(tree, ("zech",), ZECH_READERS) == []
    elif path.name not in TABLE_MODULES:
        assert _table_reads(tree, FIELD_TABLES) == []


def test_the_table_read_rule_catches_violations():
    tree = ast.parse(
        "def _cofactor_parts(spec, terms):\n"
        "    exp, log = spec.exp, spec.log\n"
        "    def step(a, b):\n"
        "        return spec.zech[log[a] - log[b]]\n"
        "    return [exp[log[r]] for r, _ in terms]\n"
        "class Poly:\n"
        "    def __add__(self, other):\n"
        "        return self.spec.zech\n"
        "    def __mul__(self, other):\n"
        "        return getattr(self.spec, 'exp'), self.spec.zech\n"
        "TABLE = FieldSpec(2).log\n"
    )
    assert _table_reads(tree, FIELD_TABLES) == [
        "line 2: _cofactor_parts reads .exp",
        "line 2: _cofactor_parts reads .log",
        "line 4: _cofactor_parts.step reads .zech",
        "line 8: Poly.__add__ reads .zech",
        "line 10: Poly.__mul__ reads .zech",
        "line 10: Poly.__mul__ reads a table by getattr",
        "line 11: module reads .log",
    ]
    assert _table_reads(tree, ("zech",), ZECH_READERS) == [
        "line 4: _cofactor_parts.step reads .zech",
        "line 10: Poly.__mul__ reads .zech",
    ]


def _residue_calls(tree: ast.Module, allowed: tuple[str, ...] = ()) -> list[str]:
    """Each call of ``fraction_residue``, by name or attribute, outside the
    definitions named in ``allowed``."""

    def found(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "fraction_residue":
                return "calls fraction_residue"
        return None

    return _outside(tree, allowed, found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_pairing_matrix_sums_residues(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "funcfield.py":  # the rule sees the matrix's one call
        assert [line.split(": ")[1] for line in _residue_calls(tree)] == ["pairing_matrix calls fraction_residue"]
    assert _residue_calls(tree, RESIDUE_CALLERS) == []


def test_the_residue_rule_catches_violations():
    tree = ast.parse(
        "def pairing(f, omega):\n"
        "    return fraction_residue(f.num * omega.num, f.den * omega.den)\n"
        "def pairing_matrix(curve, omegas, columns):\n"
        "    def entry(num, den):\n"
        "        return polyrat.fraction_residue(num, den)\n"
        "    return fraction_residue(num, den)\n"
        "def residue_at_infinity(h):\n"
        "    return fraction_residue(h.num, h.den)\n"
        "class FFDiff:\n"
        "    def residue(self):\n"
        "        return fraction_residue(self.num, self.den)\n"
        "TOTAL = fraction_residue(NUM, DEN)\n"
    )
    assert _residue_calls(tree, RESIDUE_CALLERS) == [
        "line 2: pairing calls fraction_residue",
        "line 5: pairing_matrix.entry calls fraction_residue",
        "line 8: residue_at_infinity calls fraction_residue",
        "line 11: FFDiff.residue calls fraction_residue",
        "line 12: module calls fraction_residue",
    ]


def _record_machinery(tree: ast.AST) -> list[str]:
    """Each import of ``dataclasses`` or ``cached_property``, each
    ``@dataclass`` decorator and each use of ``cached_property``, by name
    or attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, "imports dataclasses") for alias in node.names if alias.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "dataclasses":
                out.append((node.lineno, "imports dataclasses"))
            else:
                out += [(node.lineno, f"imports {a.name}") for a in node.names if a.name in RECORD_MACHINERY]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in RECORD_MACHINERY:
                out.append((node.lineno, f"uses {name}"))
    return [f"line {line}: {what}" for line, what in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_record_is_a_named_tuple(path):
    assert _record_machinery(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_record_rule_catches_violations():
    tree = ast.parse(
        "import dataclasses, json\n"
        "from dataclasses import dataclass, field\n"
        "from functools import cached_property, lru_cache\n"
        "@dataclass(frozen=True)\n"
        "class RamData:\n"
        "    e0: int\n"
        "@dataclasses.dataclass\n"
        "class PlaceClass(NamedTuple):\n"
        "    @functools.cached_property\n"
        "    def label(self):\n"
        "        return self.kind\n"
        "class MuRow(NamedTuple):\n"
        "    t: int\n"
        "    @property\n"
        "    def label(self):\n"
        "        return str(self.t)\n"
    )
    assert _record_machinery(tree) == [
        "line 1: imports dataclasses",
        "line 2: imports dataclasses",
        "line 3: imports cached_property",
        "line 4: uses dataclass",
        "line 7: uses dataclass",
        "line 9: uses cached_property",
    ]


def _is_type_checking(test: ast.AST) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _upward_imports(tree: ast.Module, module: str) -> list[str]:
    """Each import of a package module at or above ``module``'s layer,
    relative or absolute, at any depth, outside an ``if TYPE_CHECKING:``
    block."""
    rank = LAYERS.index(module)
    out = []

    def imported(node: ast.AST) -> list[str]:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            return [node.module] if node.module else [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("cycliccover."):
            return [node.module.split(".", 1)[1]]
        if isinstance(node, ast.Import):
            return [a.name.split(".", 1)[1] for a in node.names if a.name.startswith("cycliccover.")]
        return []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                continue
            for name in imported(child):
                layer = name.split(".")[0]
                if layer not in LAYERS or LAYERS.index(layer) >= rank:
                    out.append((child.lineno, f"{module} imports {layer}"))
            visit(child)

    visit(tree)
    return [f"line {line}: {what}" for line, what in sorted(out)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_each_module_imports_only_from_the_layers_below(path):
    assert path.stem in LAYERS + TOP, f"{path.name} has no layer"
    if path.stem in LAYERS:
        assert _upward_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem) == []


def test_the_layer_rule_catches_violations():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from .gf import FieldSpec\n"
        "from .polyrat import Poly\n"
        "from .funcfield import PlaceClass\n"
        "if TYPE_CHECKING:\n"
        "    from .funcfield import FamilyTable\n"
        "if typing.TYPE_CHECKING:\n"
        "    from .verify import Report\n"
        "def mu_table(curve):\n"
        "    from .cohomology import build_bases\n"
        "    from . import cli, gf\n"
        "    import cycliccover.verify\n"
        "    from cycliccover.curve import Curve\n"
        "from .tracing import span\n"
    )
    assert _upward_imports(tree, "curve") == [
        "line 4: curve imports funcfield",
        "line 10: curve imports cohomology",
        "line 11: curve imports cli",
        "line 12: curve imports verify",
        "line 13: curve imports curve",
        "line 14: curve imports tracing",
    ]
