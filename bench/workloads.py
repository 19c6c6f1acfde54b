"""Seeded curve-spec generator owned by the benchmark.

The program under test receives only the spec documents built here, so a
change to ``cycliccover.cli.enumerate_*`` cannot change a workload.  This
module imports nothing from ``cycliccover``.

Each workload is a fixed list of curve *shapes*: for Kummer curves the
characteristic p, the degree n, the field size q and the branch
multiplicities; for Artin-Schreier curves p and the multiplicities.  The
shape decides the genus and most of the cost, so it is the same for every
seed.  The seed draws the rest: the branch points, the Artin-Schreier
numerator and the curve order.  Different seeds therefore give different
curves with nearly the same total work, which keeps run-to-run spread
small while a held-out seed still gives inputs no change was tuned on.
Whether x = 0 is a branch point is part of the shape too: it changes the
place structure and about a fifth of a curve's work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 7
# Seed reserved for checking a claimed gain on inputs the change was not
# written against; do not tune anything on it.
HELD_OUT_SEED = 20261017

KUMMER_P_MAX = 31
KUMMER_N_MAX = 10
KUMMER_L_MAX = 20


def primes_up_to(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def kummer_genus(n: int, pattern: tuple[int, ...]) -> int:
    """Riemann-Hurwitz for y^n = prod (x - rho_i)^{l_i} with n | sum l_i:
    2g - 2 = -2n + sum_i (n - gcd(n, l_i)); infinity is unramified."""
    two_g_minus_2 = -2 * n + sum(n - math.gcd(n, l) for l in pattern)
    return (two_g_minus_2 + 2) // 2


def as_genus(p: int, pattern: tuple[int, ...]) -> int:
    """Riemann-Hurwitz for y^p - y = f / prod (x - rho_i)^{l_i} with
    deg f = sum l_i and p prime to every l_i: each branch point is totally
    ramified with different exponent (p - 1)(l_i + 1)."""
    two_g_minus_2 = -2 * p + sum((p - 1) * (l + 1) for l in pattern)
    return (two_g_minus_2 + 2) // 2


def kummer_field(p: int, n: int) -> int | None:
    """Smallest q in {p, p^2} with n | q - 1, or None."""
    if math.gcd(n, p) != 1:
        return None
    if (p - 1) % n == 0:
        return p
    if (p * p - 1) % n == 0:
        return p * p
    return None


def quadratic_modulus(p: int) -> list[int]:
    """Ascending coefficients of the first monic irreducible x^2 + a x + b
    over Z/p in (a, b) order; irreducible means no root in Z/p."""
    for a in range(p):
        for b in range(1, p):
            if all((x * x + a * x + b) % p for x in range(p)):
                return [b, a, 1]
    raise ValueError(f"no irreducible quadratic over Z/{p}")


def partitions(total: int, part_max: int, min_part: int = 1) -> list[tuple[int, ...]]:
    """Nondecreasing tuples of positive parts <= part_max summing to total."""
    if total == 0:
        return [()]
    out = []
    for first in range(min_part, min(total, part_max) + 1):
        for rest in partitions(total - first, part_max, first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class KummerShape:
    p: int
    n: int
    q: int
    pattern: tuple[int, ...]
    at_zero: bool = False  # the first branch point is x = 0

    @property
    def genus(self) -> int:
        return kummer_genus(self.n, self.pattern)


@dataclass(frozen=True)
class ASShape:
    p: int
    pattern: tuple[int, ...]
    at_zero: bool = False  # the first branch point is x = 0

    @property
    def genus(self) -> int:
        return as_genus(self.p, self.pattern)


def kummer_cells() -> list[tuple[int, int, int]]:
    """Every (p, n, q) cell of the grid p <= 31, 2 <= n <= 10 with q <= p^2."""
    cells = []
    for p in primes_up_to(KUMMER_P_MAX):
        for n in range(2, KUMMER_N_MAX + 1):
            q = kummer_field(p, n)
            if q is not None:
                cells.append((p, n, q))
    return cells


def kummer_patterns(p: int, n: int, q: int) -> list[tuple[int, ...]]:
    """Valid multiplicity patterns of a cell: n | sum, sum <= 20, at most q
    points, gcd(n, l_1, ..., l_r) = 1 so the cover is irreducible."""
    out = []
    for total in range(n, KUMMER_L_MAX + 1, n):
        for pattern in partitions(total, KUMMER_L_MAX):
            if len(pattern) <= q and math.gcd(n, *pattern) == 1:
                out.append(pattern)
    return out


def kummer_small_shapes() -> list[KummerShape]:
    """Two low-genus shapes (g <= 4) in every cell of the (p, n) grid: the
    cell's lowest genus, and the genus nearest a target that alternates
    2, 4, 2, ... over the cells (at least 1).  Each is of least degree, then
    fewest branch points, so every genus from 0 to 4 appears while cheap
    curves keep per-curve fixed cost the larger share.  The low shape of
    every other cell is branched at x = 0, as is a shape that uses every
    element of F_q."""
    shapes = []
    for index, (p, n, q) in enumerate(kummer_cells()):
        pool = [pat for pat in kummer_patterns(p, n, q) if kummer_genus(n, pat) <= 4]
        if not pool:
            continue
        low = min(pool, key=lambda pat: (kummer_genus(n, pat), sum(pat), len(pat), pat))
        target = 2 if index % 2 == 0 else 4
        positive = [pat for pat in pool if kummer_genus(n, pat) >= 1] or pool
        high = min(positive, key=lambda pat: (abs(kummer_genus(n, pat) - target), sum(pat), len(pat), pat))
        shapes.append(KummerShape(p, n, q, low, at_zero=index % 2 == 1 or len(low) == q))
        if high != low:
            shapes.append(KummerShape(p, n, q, high, at_zero=len(high) == q))
    return shapes


AS_PRIMES = (3, 5, 7, 11, 13, 17, 19)
AS_R_MAX = 3
AS_L_MAX = 6
AS_GENUS_MAX = 8
AS_COPIES = 3


def as_shapes() -> list[ASShape]:
    """Artin-Schreier shapes over prime fields, p <= 19, r <= 3, l_i <= 6,
    g <= 8: every such multiplicity pattern, AS_COPIES times over, so the
    seed draws that many curves of each shape.  The first copy is branched
    at x = 0, as is every shape that uses all p points."""
    shapes = []
    for p in AS_PRIMES:
        pool = []
        for r in range(1, AS_R_MAX + 1):
            for total in range(r, r * AS_L_MAX + 1):
                for pattern in partitions(total, AS_L_MAX):
                    if len(pattern) != r or any(l % p == 0 for l in pattern):
                        continue
                    if as_genus(p, pattern) <= AS_GENUS_MAX:
                        pool.append(pattern)
        pool.sort(key=lambda pat: (as_genus(p, pat), len(pat), pat))
        shapes.extend(
            ASShape(p, pat, at_zero=copy == 0 or len(pat) == p) for pat in pool for copy in range(AS_COPIES)
        )
    return shapes


# -- spec documents -------------------------------------------------------------


def _encode(p: int, q: int, k: int) -> int | list[int]:
    """Spec encoding of the field element with integer encoding k."""
    if q == p:
        return k
    return [k % p, k // p]


def branch_points(q: int, r: int, at_zero: bool, rng: random.Random) -> list[int]:
    """r distinct field encodings: x = 0 first if at_zero, the rest drawn
    from the nonzero elements."""
    if at_zero:
        return [0] + rng.sample(range(1, q), r - 1)
    return rng.sample(range(1, q), r)


def kummer_doc(shape: KummerShape, rng: random.Random) -> dict:
    points = branch_points(shape.q, len(shape.pattern), shape.at_zero, rng)
    doc: dict = {"type": "kummer", "p": shape.p}
    if shape.q != shape.p:
        doc["ext_modulus"] = quadratic_modulus(shape.p)
    doc["n"] = shape.n
    doc["branch"] = [{"rho": _encode(shape.p, shape.q, k), "l": l} for k, l in zip(points, shape.pattern)]
    return doc


def _eval_mod(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def as_doc(shape: ASShape, rng: random.Random) -> dict:
    """A random monic numerator of degree sum l_i, prime to x and to every
    branch factor, over random distinct branch points."""
    p = shape.p
    points = branch_points(p, len(shape.pattern), shape.at_zero, rng)
    degree = sum(shape.pattern)
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        if _eval_mod(f, 0, p) and all(_eval_mod(f, rho, p) for rho in points):
            break
    return {
        "type": "artin-schreier",
        "p": p,
        "branch": [{"rho": rho, "l": l} for rho, l in zip(points, shape.pattern)],
        "f": f,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "sweep": parse, full_report, verdict; "document": verify --json
    shapes: Callable[[], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("kummer_small", "sweep", kummer_small_shapes),
        Workload("as_report", "document", as_shapes),
    )
}


def generate(name: str, seed: int) -> list[dict]:
    """The workload's spec documents for a seed, in run order."""
    rng = random.Random(f"{name}:{seed}")
    docs = []
    for shape in WORKLOADS[name].shapes():
        docs.append(kummer_doc(shape, rng) if isinstance(shape, KummerShape) else as_doc(shape, rng))
    rng.shuffle(docs)
    return docs


def genus_of(doc: dict) -> int:
    """Riemann-Hurwitz genus of a generated spec document."""
    pattern = tuple(b["l"] for b in doc["branch"])
    if doc["type"] == "kummer":
        return kummer_genus(doc["n"], pattern)
    return as_genus(doc["p"], pattern)


def canonical_bytes(docs: list[dict]) -> bytes:
    """Byte form of a workload's inputs, for comparing two generations."""
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()
