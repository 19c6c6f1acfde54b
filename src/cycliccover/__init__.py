"""Exact cohomology bases for cyclic covers of the projective line.

The package constructs explicit bases of the holomorphic differentials,
the first sheaf cohomology of the structure sheaf, and the first de Rham
cohomology of curves y^n = f(x) (Kummer covers, n prime to the
characteristic) and y^p - y = r(x) (Artin-Schreier covers), over a finite
field chosen large enough to contain all branch points and roots of unity
in play.  Everything is exact: field elements, polynomials, rational
functions and function-field elements carry no floating point anywhere.

Modules
-------
gf          finite field arithmetic F_q = F_p[z]/(m(z))
polyrat     polynomials and reduced rational functions over F_q
curve       curve models, validation, ramification and Euclidean tables
funcfield   function field arithmetic, differentials, valuations, pairing
cohomology  the three bases and the maps of the exact sequence
verify      machine verification of the asserted identities
cli         batch front end (info / basis / verify / sweep)
"""

from .gf import FieldSpec, FieldElement
from .polyrat import Poly, RatFn, poly_gcd, split_at_degree
from .curve import (
    KummerCurve,
    ASCurve,
    Violation,
    CurveInvalidError,
    validate,
    PlaceClass,
    place_classes,
    mu_table,
    genus_rh,
    genus_from_basis,
)
from .funcfield import FFElem, FFDiff, valuations, valuation_bound
from .cohomology import (
    BasisIndex,
    DeRhamTriple,
    DeRhamClass,
    Bases,
    build_bases,
    omega_basis,
    h1_basis,
    map_i,
    map_p,
)
from .verify import (
    CheckResult,
    VerifyOptions,
    duality_matrix,
    cocycle_check,
    locus_check,
    divisor_checks,
    dimension_check,
    exactness_check,
    full_report,
)

__all__ = [
    "FieldSpec",
    "FieldElement",
    "Poly",
    "RatFn",
    "poly_gcd",
    "split_at_degree",
    "KummerCurve",
    "ASCurve",
    "Violation",
    "CurveInvalidError",
    "validate",
    "mu_table",
    "genus_rh",
    "genus_from_basis",
    "FFElem",
    "FFDiff",
    "PlaceClass",
    "place_classes",
    "valuations",
    "valuation_bound",
    "BasisIndex",
    "DeRhamTriple",
    "DeRhamClass",
    "Bases",
    "build_bases",
    "omega_basis",
    "h1_basis",
    "map_i",
    "map_p",
    "CheckResult",
    "VerifyOptions",
    "duality_matrix",
    "cocycle_check",
    "locus_check",
    "divisor_checks",
    "dimension_check",
    "exactness_check",
    "full_report",
]

__version__ = "0.1.0"
