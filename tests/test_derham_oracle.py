"""The de Rham builder against the route it replaced.

``_build_derham_basis`` writes each nonzero y coefficient of omega_0 and
omega_inf as one unreduced num/den product and reduces it once.  The
oracle keeps the old route: it scales whole differentials by reduced
rational functions and adds them, so every coefficient is reduced after
each step.  The Kummer psi and the Artin-Schreier omega_mu come from
``reference``, built from their defining formulas.

    Kummer:          omega_{0|inf} = (g_{n-mu}/f y^mu dx) * lo|hi / (n x^{nu+1})
    Artin-Schreier:  omega_{0|inf} = (y^{mu-1}/g_{mu-1} dx) * lo|hi(phi) / x^{nu+1}
                                     + omega_mu * lo|hi(psi) / x^nu

Both routes are compared triple by triple on both spec files and both
README sweep corpora, under both mu-range policies and both sign
conventions.  A count test pins that the builder, which reduces every
slot coefficient over the roots of its denominator, takes no gcd.
"""

import pytest
from reference import as_omega_mu, kummer_psi, scale
from test_pairing_oracle import CORPORA, POLICIES

from cycliccover import cohomology, polyrat
from cycliccover.cli import parse_curve_spec
from cycliccover.cohomology import SIGN_CONVENTIONS, as_psi, build_bases, h1_basis, h1_indices, omega_basis
from cycliccover.curve import mu_table
from cycliccover.funcfield import FFDiff, FFElem
from cycliccover.polyrat import Poly, RatFn, split_at_degree

# a-classes per corpus and policy: every one is compared
A_CLASSES = {
    ("specs", "extended"): 3, ("specs", "paper"): 2,
    ("kummer_sweep", "extended"): 175, ("kummer_sweep", "paper"): 175,
    ("as_sweep", "extended"): 166, ("as_sweep", "paper"): 100,
}


def scaled_route(curve, policy, sign):
    """The a-family triples by scaling and adding reduced differentials."""
    table = mu_table(curve, policy)
    spec = curve.spec
    out = []
    for mu, nu in h1_indices(curve, policy):
        if curve.kind == "kummer":
            n = curve.n
            psi = kummer_psi(curve, mu, nu, table)
            lo, hi = split_at_degree(psi, nu + 1 if table[n - mu].t >= 2 else nu, inclusive=True)
            base = FFElem.monomial(curve, mu, RatFn(table[n - mu].g_mu, curve.f))
            scale_den = Poly.monomial(spec, nu + 1, spec.element(n))
            omega0 = FFDiff(scale(base, RatFn(lo, scale_den)))
            omega_inf = FFDiff(scale(base, RatFn(hi, scale_den)))
            f0inf = FFElem.monomial(curve, mu, RatFn(Poly.one(spec), Poly.monomial(spec, nu) * table[mu].g_mu))
        else:
            g_pm, g_prev = table[curve.p - mu].g_mu, table[mu - 1].g_mu
            phi = (g_pm.derivative() * g_prev).shift(1) - g_pm * g_prev * spec.element(nu)
            omega_mu = as_omega_mu(curve, mu, table)
            w_prev = FFDiff(FFElem.monomial(curve, mu - 1, RatFn(Poly.one(spec), g_prev)))
            lo_phi, hi_phi = split_at_degree(phi, nu + 1, inclusive=False)
            lo_psi, hi_psi = split_at_degree(as_psi(curve), nu, inclusive=False)
            x_nu1, x_nu = Poly.monomial(spec, nu + 1), Poly.monomial(spec, nu)
            omega0 = FFDiff(FFElem(curve, scale(w_prev, RatFn(lo_phi, x_nu1)).coeff.terms
                                   + scale(omega_mu, RatFn(lo_psi, x_nu)).coeff.terms))
            omega_inf = FFDiff(FFElem(curve, scale(w_prev, RatFn(hi_phi, x_nu1)).coeff.terms
                                      + scale(omega_mu, RatFn(hi_psi, x_nu)).coeff.terms))
            f0inf = FFElem.monomial(curve, mu - 1, RatFn(g_pm, x_nu))
        if sign == "negated-infty":
            omega_inf = -omega_inf
        out.append((omega0, omega_inf, f0inf))
    return out


@pytest.mark.parametrize("sign", SIGN_CONVENTIONS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_builder_matches_the_scaled_route(corpus, policy, sign):
    compared = 0
    for doc in CORPORA[corpus]():
        curve = parse_curve_spec(doc)
        classes = build_bases(curve, policy, sign).derham
        a_family = [c for c in classes if c.kind == "a"]
        expected = scaled_route(curve, policy, sign)
        assert len(a_family) == len(expected), doc
        for cls, (omega0, omega_inf, f0inf) in zip(a_family, expected):
            t = cls.triple
            assert (t.omega0, t.omega_inf, t.f0inf) == (omega0, omega_inf, f0inf), (doc, cls.label)
            compared += 1
    assert compared == A_CLASSES[corpus, policy]


def _slot_coefficients(classes):
    return sum(
        len(slot.terms)
        for cls in classes
        if cls.kind == "a"
        for slot in (cls.triple.omega0.coeff, cls.triple.omega_inf.coeff, cls.triple.f0inf)
    )


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_builder_takes_no_gcd(corpus, policy, monkeypatch):
    original = polyrat.poly_gcd
    calls = []

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(polyrat, "poly_gcd", counted)
    gcds = slots = 0
    for doc in CORPORA[corpus]():
        curve = parse_curve_spec(doc)  # an Artin-Schreier curve reduces r = f / prod (x - rho)^l here
        omegas, hs = omega_basis(curve, policy), h1_basis(curve, policy)
        for sign in SIGN_CONVENTIONS:
            calls.clear()
            classes = cohomology._build_derham_basis(curve, policy, sign, omegas, hs)
            gcds += len(calls)
            slots += _slot_coefficients(classes)
    assert gcds == 0 and slots > 0
