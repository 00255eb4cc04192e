"""Tests for multiplicity sets, Fulton recursion, discriminants, emptiness."""

import random
from fractions import Fraction as F

import pytest

from fixtures import CURATED, IRRATIONAL_BOUNDARY
from oracles import discriminant_curve_oracle
from jelonek import multiplicity
from jelonek.parsing import parse_polynomial as P
from jelonek.poly import (
    PolyError,
    SparsePoly,
    gcd_multivar,
    resultant,
    squarefree_decomposition,
    squarefree_part_multivar,
)
from jelonek.core import edge_transform, minkowski_sum, newton_polygon, sparse_jelonek_2, Options
from jelonek.extension import ZeroDivisor
from jelonek.multiplicity import (
    FULTON_INFINITY,
    EdgeSystem,
    discriminant_curve,
    fulton_condition_polynomials,
    fulton_multiplicity,
    ms_fulton,
    ms_fulton_all,
    ms_resultant,
    norm_form,
    _at_rho,
    _critical_box_bound,
    _eval_possibly_ext,
    _find_rational_point_on,
    _fulton,
    _line_roots,
    _multiplicity_at_rho,
    _odd_jump_shortcut,
    _resultant_certifies_coprime,
    _ScanLine,
    _shift_to_rho,
)
from jelonek.realroots import isolate_real_roots, rational_roots, sign_at

x1 = SparsePoly.variable("x1")
x2 = SparsePoly.variable("x2")
z1 = SparsePoly.variable("z1")
z2 = SparsePoly.variable("z2")
y1 = SparsePoly.variable("y1")
y2 = SparsePoly.variable("y2")

INTRO_F1 = P("1 + 2*x1*x2 - x1^2*x2^3")
INTRO_F2 = P("5 + 12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5")


# In the torus coordinates s = x1*x2, u = x1*x2^2 this map reads
# (1 + s*(u^2 - 2), 5 + s*(u^2 - 2)*(u^2 - 3)).  Letting s run off to real
# infinity while u -> +-sqrt(2) reaches every point of the rational line
# y1 + y2 = 6, the component of both irrational boundary roots.
IRRATIONAL_RHO_LINE = ("1 + x1*x2*(x1^2*x2^4 - 2)", "5 + x1*x2*(x1^2*x2^4 - 2)*(x1^2*x2^4 - 3)")
# the third curated map with (x1 - 1) replaced by (x1 - 1)*(x1^2 - 3): one
# squarefree factor of the boundary polynomial has a rational root and two
# irrational ones
MIXED_BOUNDARY = ("1 + x2^2*((x1-1)*(x1^2-3))^2*(x1+2)", "1 + x1*x2^2 + x2^4*((x1-1)*(x1^2-3))^2")


def intro_edge_system():
    A, records = minkowski_sum(newton_polygon(INTRO_F1), newton_polygon(INTRO_F2))
    edge = [r for r in records if r.pertinent][0]
    return edge_transform(INTRO_F1, INTRO_F2, edge, A)


def pertinent_edge_systems(f1: str, f2: str):
    """The edge systems of the pertinent infinity edges of a map whose
    coordinates have nonzero constant terms."""
    f1, f2 = P(f1), P(f2)
    A, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
    return [edge_transform(f1, f2, e, A) for e in records if e.pertinent and e.infinity]


def test_edge_transform_intro():
    sys = intro_edge_system()
    assert sys.transform.U == ((-1, 1), (-2, 1))
    assert sys.g1 == 2 - z1 + z2 * (1 - y1)
    assert sys.g2 == 12 - 10 * z1 + 2 * z1 ** 2 + z2 * (5 - y2)
    assert sys.g == (z1 - 2).normalized()
    assert sys.g.degree("z1") >= 1


def test_ms_resultant_intro_real():
    sys = intro_edge_system()
    comps = ms_resultant(sys, "R")
    assert len(comps) == 1
    c = comps[0]
    assert c.defining.normalized() == (2 * y1 - y2 + 3).normalized()
    assert c.rho is not None and c.rho.as_fraction() == 2
    assert c.realness == "undetermined"


def test_intro_resultant_factor_structure():
    # the z1 elimination leaves a pure z2 power as content, and the z2
    # elimination a pure z1 polynomial
    from jelonek.poly import content_wrt

    sys = intro_edge_system()
    R1 = resultant(sys.g1, sys.g2, "z2")
    R2 = resultant(sys.g1, sys.g2, "z1")
    R11, R12 = content_wrt(R1, ["z1"])
    R21, R22 = content_wrt(R2, ["z2"])
    assert R11.vars_present() <= {"z1"}
    assert R21.vars_present() <= {"z2"}
    assert len(R21.terms) == 1  # a pure power of z2
    assert R11 * R12 == R1
    assert R21 * R22 == R2
    assert R22.eval_rational({"z2": 0}).normalized() == (2 * y1 - y2 + 3).normalized()


def test_ms_resultant_intro_complex():
    sys = intro_edge_system()
    comps = ms_resultant(sys, "C")
    assert len(comps) == 1
    assert comps[0].defining.normalized() == (2 * y1 - y2 + 3).normalized()
    assert comps[0].realness == "not-applicable"


def test_ms_resultant_coprime_gives_nothing():
    # a transformed pair whose residual factors share nothing
    g1 = (z1 - 2) + z2 * (1 - y1)
    g2 = (z1 - 2) * (z1 - 5) + z2 ** 2 * (3 - y2) + z2 * (z1 - 1)
    from jelonek.multiplicity import EdgeSystem

    g = (z1 - 2).normalized()
    sys = EdgeSystem(g1=g1, g2=g2, g=g, transform=None, edge=None)
    comps = ms_resultant(sys, "R")
    for c in comps:
        assert not c.defining.is_zero()


def test_ms_resultant_removes_rational_roots_from_the_modulus():
    # the rational root 1 gets its own component over Q; the modulus of the
    # irrational roots +-sqrt(3) is the factor with z1 - 1 divided out
    (sys,) = pertinent_edge_systems(*MIXED_BOUNDARY)
    assert squarefree_decomposition(sys.g, "z1") == [(((z1 - 1) * (z1 ** 2 - 3)).normalized(), 2)]
    a = SparsePoly.variable("a")
    line = (y1 + 2 * a + 2) ** 2 - (a ** 2 - 3) * 4
    comps = ms_resultant(sys, "R")
    assert [(c.defining, c.minpoly) for c in comps] == [
        ((y1 + 2).normalized(), None),
        (line.normalized(), (a ** 2 - 3).normalized()),
        (line.normalized(), (a ** 2 - 3).normalized()),
    ]
    assert comps[0].rho.as_fraction() == 1
    assert [c.rho.to_float() for c in comps[1:]] == pytest.approx([-3 ** 0.5, 3 ** 0.5])


def test_fulton_multiplicity_basics():
    assert fulton_multiplicity(z1, z2) == 1
    assert fulton_multiplicity(z2 - z1 ** 2, z2) == 2
    assert fulton_multiplicity(z1 + 1, z2) == 0
    assert fulton_multiplicity(z1 * z2, z1 * (z1 - z2)) == FULTON_INFINITY
    # a zero operand contains every curve: I(F, 0) is 0 off F and infinite on it
    assert fulton_multiplicity(z1 + 1, SparsePoly.zero()) == 0
    assert fulton_multiplicity(z1, SparsePoly.zero()) == FULTON_INFINITY
    # generic line products: mu = m * n
    rng = random.Random(11)
    for _ in range(8):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        Fp = SparsePoly.constant(1)
        for _ in range(m):
            Fp = Fp * (z1 - F(rng.randrange(1, 9)) * z2)
        Gp = SparsePoly.constant(1)
        for _ in range(n):
            Gp = Gp * (z1 - F(rng.randrange(11, 19)) * z2)
        assert fulton_multiplicity(Fp, Gp) == m * n


def test_fulton_multiplicity_symmetric_and_translated():
    Fp = (z2 - z1 ** 2) * (z1 + z2)
    Gp = z2 * (z1 - z2)
    assert fulton_multiplicity(Fp, Gp) == fulton_multiplicity(Gp, Fp)


def test_fulton_condition_polynomials_trailing_coefficient():
    # F = z2 is divided out, and the multiplicity is the order in z1 of G on
    # z2 = 0, which rises where its trailing coefficient y1 - 1 vanishes
    G = (y1 - 1) * z1 + z1 ** 2 + z2 ** 2
    assert fulton_condition_polynomials(z2, G) == (1, [y1 - 1])
    assert fulton_multiplicity(z2, G.eval_rational({"y1": 1})) == 2
    with pytest.raises(PolyError):
        fulton_condition_polynomials(z2 * (z1 - y1 * z2), z2 * G)


# (F, G, resultant certificate holds, _fulton result): a shared factor of
# positive z2-degree makes Res_z2 vanish; the shared factor z1 divides both;
# either way the gcd decides.  A shared z2-free factor off the origin leaves
# the resultant nonzero, so the gcd is skipped and the multiplicity is finite.
FULTON_ROUTES = {
    "through-origin": ((z1 - z2) * (z1 + 2), (z1 - z2) * (z2 + 3), False, (FULTON_INFINITY, [])),
    "factor-u": (z1 * (z2 + 1), z1 * (z2 - z1 + 2), False, (FULTON_INFINITY, [])),
    "off-origin": ((z1 + 1) * z2, (z1 + 1) * (z2 - z1 ** 2), True, (2, [])),
    "off-origin-in-v": ((z2 + 1) * z1, (z2 + 1) * (z1 - z2 ** 2), False, (2, [])),
    "through-origin-y": ((z1 - z2) * (z1 + y1), (z1 - z2) * (z2 + y2), False, (FULTON_INFINITY, [])),
    "factor-u-y": (z1 * (z2 + y1), z1 * (z2 - y2 * z1 + 2), False, (FULTON_INFINITY, [])),
    "off-origin-y": ((z1 + 1) * z2, (z1 + 1) * (z2 - y1 * z1), True, (1, [-y1])),
    # z1 + y1 vanishes at the origin only on y1 = 0, not for every y
    "off-origin-generic-y": ((z1 + y1) * z2, (z1 + y1) * (z2 - z1 ** 2), True, (2, [-y1, y1])),
}


@pytest.mark.parametrize("name", FULTON_ROUTES)
def test_fulton_shared_component_routes(name):
    Fp, Gp, certified, expected = FULTON_ROUTES[name]
    assert _resultant_certifies_coprime(Fp, Gp, "z1", "z2") == certified
    assert _fulton(Fp, Gp, ("z1", "z2"), None) == expected
    assert _fulton(Gp, Fp, ("z1", "z2"), None)[0] == expected[0]


def test_ms_fulton_intro():
    sys = intro_edge_system()
    rho = [r for r, _ in isolate_real_roots(sys.g, "z1")][0]
    comps = ms_fulton(sys, rho)
    assert len(comps) == 1
    assert comps[0].defining.normalized() == (2 * y1 - y2 + 3).normalized()


def test_ms_fulton_matches_ms_resultant_zero_sets():
    sys = intro_edge_system()
    res_comps = ms_resultant(sys, "R")
    ful_comps = []
    for root, _ in isolate_real_roots(sys.g, "z1"):
        ful_comps.extend(ms_fulton(sys, root))
    res_set = sorted(str(c.defining.normalized()) for c in res_comps)
    ful_set = sorted(str(c.defining.normalized()) for c in ful_comps)
    assert res_set == ful_set


def test_multiplicity_at_rho_agrees_with_generic_multiplicity():
    # off every condition curve, the numeric multiplicity of the edge system
    # specialized at a target point equals the generic multiplicity of the
    # symbolic recursion, at rational and at irrational boundary roots; at a
    # rational point on a condition curve over Q it jumps above it
    texts = [IRRATIONAL_BOUNDARY] + [(a, b) for _, a, b, _, _ in CURATED]
    rng = random.Random(8)
    checked = jumps = 0
    for f1, f2 in dict.fromkeys(texts):
        f1, f2 = P(f1), P(f2)
        A, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
        for edge in records:
            if not (edge.pertinent and edge.infinity):
                continue
            sys = edge_transform(f1, f2, edge, A)
            if sys.g.degree("z1") < 1:
                continue
            for factor, _ in squarefree_decomposition(sys.g, "z1"):
                for rho, _ in isolate_real_roots(factor, "z1"):
                    G1, G2, modulus = _shift_to_rho(sys.g1, sys.g2, rho)
                    _, (mult, conds) = _at_rho(
                        modulus, rho, lambda ctx: fulton_condition_polynomials(G1, G2, ctx))
                    for _ in range(6):
                        pt = (F(rng.randrange(-40, 41), rng.randrange(1, 6)),
                              F(rng.randrange(-40, 41), rng.randrange(1, 6)))
                        values = [c.eval_rational({"y1": pt[0], "y2": pt[1]}) for c in conds]
                        if any(v.is_zero() or (not v.is_constant() and sign_at(v, rho, "a") == 0)
                               for v in values):
                            continue
                        assert _multiplicity_at_rho(sys, rho, pt) == mult
                        checked += 1
                    for c in conds:
                        pt = _find_rational_point_on(c, rng) if c.degree("a") <= 0 else None
                        if pt is not None:
                            assert _multiplicity_at_rho(sys, rho, pt) > mult
                            jumps += 1
    assert checked >= 40 and jumps >= 5


def test_at_rho_narrows_the_modulus_to_the_factor_holding_rho():
    a = SparsePoly.variable("a")
    modulus = ((a ** 2 - 2) * (a ** 2 - 3)).normalized()
    sqrt3 = max((r for r, _ in isolate_real_roots(modulus, "a")), key=lambda r: r.to_float())
    calls = []

    def compute(ctx):
        calls.append(ctx.minpoly)
        if len(calls) == 1:
            raise ZeroDivisor(a ** 2 - 2)
        return "done"

    assert _at_rho(modulus, sqrt3, compute) == ((a ** 2 - 3).normalized(), "done")
    assert calls == [modulus, (a ** 2 - 3).normalized()]


def test_multiplicity_accumulation_invariant():
    # multiplicity of a rational resultant root equals the fiber sum of
    # intersection multiplicities when the leading coefficients survive
    rng = random.Random(2025)
    checked = 0
    for _ in range(60):
        pts = [(F(rng.randrange(-2, 3)), F(rng.randrange(-2, 3)))]
        a = pts[0][0]
        pts.append((a, pts[0][1] + rng.randrange(1, 3)))

        def plant(seed_poly):
            lam_mu = []
            g = seed_poly
            b, c = pts[0][1], pts[1][1]
            v1 = g.eval_rational({"x1": a, "x2": b}).constant_value()
            v2 = g.eval_rational({"x1": a, "x2": c}).constant_value()
            mu = (v2 - v1) / (b - c)
            lam = -v1 - mu * b
            return g + SparsePoly.constant(lam) + SparsePoly.constant(mu) * x2

        def rp():
            p = SparsePoly.zero()
            for _ in range(6):
                p = p + SparsePoly.monomial({"x1": rng.randrange(0, 4), "x2": rng.randrange(0, 4)},
                                            rng.randrange(-5, 6))
            return p

        f1 = plant(rp())
        f2 = plant(rp())
        if f1.is_zero() or f2.is_zero():
            continue
        if not gcd_multivar(f1, f2).is_constant():
            continue
        if f1.degree("x2") < 1 or f2.degree("x2") < 1:
            continue
        R = resultant(f1, f2, "x2")
        if R.is_zero() or R.degree("x1") < 1:
            continue
        lc1 = f1.leading_coeff_wrt("x2")
        lc2 = f2.leading_coeff_wrt("x2")
        for r, mult in isolate_real_roots(R, "x1"):
            if not r.is_rational():
                continue
            rv = r.as_fraction()
            if lc1.eval_rational({"x1": rv}).constant_value() == 0:
                continue
            if lc2.eval_rational({"x1": rv}).constant_value() == 0:
                continue
            s1 = f1.eval_rational({"x1": rv})
            s2 = f2.eval_rational({"x1": rv})
            fiber = gcd_multivar(s1, s2)
            if fiber.degree("x2") < 1:
                continue
            roots2 = rational_roots(fiber, "x2")
            if len(roots2) != squarefree_part_multivar(fiber).degree("x2"):
                continue  # fiber not fully rational; the identity needs all of it
            total = 0
            for b2 in roots2:
                Fs = f1.subs_poly("x1", x1 + SparsePoly.constant(rv)).subs_poly("x2", x2 + SparsePoly.constant(b2))
                Gs = f2.subs_poly("x1", x1 + SparsePoly.constant(rv)).subs_poly("x2", x2 + SparsePoly.constant(b2))
                mu = fulton_multiplicity(Fs, Gs, pair=("x1", "x2"))
                assert mu != FULTON_INFINITY
                total += mu
            assert total == mult
            checked += 1
    assert checked >= 20


def test_discriminant_examples():
    assert discriminant_curve_oracle(P("x1"), P("x2")).is_constant()
    d = discriminant_curve_oracle(P("x1^2"), P("x2"))
    assert d.normalized() == y1.normalized()
    d2 = discriminant_curve_oracle(P("x1^2 + x2^2"), P("x2"))
    assert d2.normalized() == (y2 ** 2 - y1).normalized()
    with pytest.raises(PolyError):
        discriminant_curve_oracle(P("x1"), P("x1"))


# Two-target discriminant curves of the ladder-real maps, pinned so that a
# faster kernel under the oracle leaves its printed form unchanged.  The big
# worked example is left out: its curve runs for minutes, and the emptiness
# phase decides that map without a scan.
LADDER_REAL_DISCRIMINANTS = {
    "intro": (CURATED[3][1:3],
        'y1^3*y2^3 - 15*y1^3*y2^2 - 3*y1^2*y2^3 + 75*y1^3*y2 + 45*y1^2*y2^2 + 3*y1*y2^3 '
        '- 125*y1^3 - 225*y1^2*y2 - 45*y1*y2^2 - y2^3 + 375*y1^2 + 225*y1*y2 + 15*y2^2 - 375*y1 '
        '- 75*y2 + 125'),
    "empty-line-no-real-fibers": (CURATED[0][1:3],
        '4*y1^3*y2^2 - 7*y1^3*y2 - 4*y1^2*y2^2 + 3*y1^3 + 6*y1^2*y2 - 2*y1^2 + y1*y2 - y1'),
    "nonempty-line": (CURATED[1][1:3],
        '4*y1^3*y2^2 - 7*y1^3*y2 - 20*y1^2*y2^2 + 3*y1^3 + 36*y1^2*y2 + 32*y1*y2^2 - 16*y1^2 '
        '- 59*y1*y2 - 16*y2^2 + 27*y1 + 30*y2 - 14'),
    "empty-line-with-real-fibers": (CURATED[2][1:3],
        '16*y1^5*y2^3 - 40*y1^5*y2^2 + 4*y1^4*y2^3 - 81*y1^3*y2^4 + 33*y1^5*y2 - 31*y1^4*y2^2 '
        '+ 175*y1^3*y2^3 - 243*y1^2*y2^4 - 9*y1^5 + 47*y1^4*y2 - 61*y1^3*y2^2 + 965*y1^2*y2^3 '
        '- 20*y1^4 - 80*y1^3*y2 - 1364*y1^2*y2^2 + 284*y1*y2^3 + 324*y2^4 + 47*y1^3 '
        '+ 816*y1^2*y2 - 896*y1*y2^2 - 1444*y2^3 - 174*y1^2 + 928*y1*y2 + 2392*y2^2 - 316*y1 '
        '- 1744*y2 + 472'),
    "even-row-2": (("1 + x2^4*(x1-1)^2", "1 + x1*x2^4 + x2^8*(x1-1)^2"),
        '4*y1^3*y2^2 - 7*y1^3*y2 - 4*y1^2*y2^2 + 3*y1^3 + 6*y1^2*y2 - 2*y1^2 + y1*y2 - y1'),
    "extra-factor": (("1 + x2^2*(x1-1)^2*(x1+2)*(x1+3)", CURATED[0][2]),
        '46656*y1^7*y2^4 - 151632*y1^7*y2^3 + 789696*y1^6*y2^4 - 1752064*y1^5*y2^5 '
        '+ 183708*y1^7*y2^2 - 2901744*y1^6*y2^3 + 8122976*y1^5*y2^4 - 34345984*y1^4*y2^5 '
        '+ 1327104*y1^3*y2^6 - 98415*y1^7*y2 + 4003884*y1^6*y2^2 - 16666648*y1^5*y2^3 '
        '+ 135856064*y1^4*y2^4 - 129551872*y1^3*y2^5 + 27869184*y1^2*y2^6 + 19683*y1^7 '
        '- 2458755*y1^6*y2 + 18257092*y1^5*y2^2 - 201992764*y1^4*y2^3 + 680256308*y1^3*y2^4 '
        '+ 286973440*y1^2*y2^5 + 131383296*y1*y2^6 + 566919*y1^6 - 10290455*y1^5*y2 '
        '+ 135597640*y1^4*y2^2 - 1440554908*y1^3*y2^3 - 1836255212*y1^2*y2^4 '
        '- 1137657344*y1*y2^5 - 160579584*y2^6 + 2329099*y1^5 - 36763823*y1^4*y2 '
        '+ 1514559136*y1^3*y2^2 + 3905797372*y1^2*y2^3 + 3671630620*y1*y2^4 + 1016333824*y2^5 '
        '+ 1648867*y1^4 - 788902553*y1^3*y2 - 3987348424*y1^2*y2^2 - 5933082092*y1*y2^3 '
        '- 2660447108*y2^4 + 162866785*y1^3 + 2000412323*y1^2*y2 + 5175419504*y1*y2^2 '
        '+ 3689552416*y2^3 - 397448683*y1^2 - 2338192177*y1*y2 - 2860672540*y2^2 + 430498193*y1 '
        '+ 1176293855*y2 - 200480863'),
    "irrational-boundary": (IRRATIONAL_BOUNDARY,
        '729*y1^9*y2^3 - 2187*y1^9*y2^2 + 2997*y1^8*y2^3 - 34504*y1^7*y2^4 + 2187*y1^9*y2 '
        '- 9207*y1^8*y2^2 + 117499*y1^7*y2^3 - 164048*y1^6*y2^4 + 144*y1^5*y2^5 - 729*y1^9 '
        '+ 9423*y1^8*y2 - 145413*y1^7*y2^2 + 643811*y1^6*y2^3 + 774936*y1^5*y2^4 '
        '+ 1008*y1^4*y2^5 - 3213*y1^8 + 76361*y1^7*y2 - 943054*y1^6*y2^2 - 2838672*y1^5*y2^3 '
        '+ 1284224*y1^4*y2^4 - 1152*y1^3*y2^5 - 13943*y1^7 + 610835*y1^6*y2 + 3853125*y1^5*y2^2 '
        '- 5762240*y1^4*y2^3 - 9027296*y1^3*y2^4 - 9216*y1^2*y2^5 - 147544*y1^6 '
        '- 2290986*y1^5*y2 + 9584847*y1^4*y2^2 + 36503936*y1^3*y2^3 + 14907744*y1^2*y2^4 '
        '+ 18432*y1*y2^5 + 501453*y1^5 - 7023502*y1^4*y2 - 55345621*y1^3*y2^2 '
        '- 59050188*y1^2*y2^3 - 10524544*y1*y2^4 - 9216*y2^5 + 1915663*y1^4 + 37291706*y1^3*y2 '
        '+ 87804054*y1^2*y2^2 + 41122768*y1*y2^3 + 2783488*y2^4 - 9421573*y1^3 '
        '- 58039848*y1^2*y2 - 60411888*y1*y2^2 - 10740640*y2^3 + 14387454*y1^2 + 39460208*y1*y2 '
        '+ 15615344*y2^2 - 9664976*y1 - 10096384*y2 + 2447408'),
}


def test_discriminant_curve_pinned():
    for name, ((f1, f2), expected) in LADDER_REAL_DISCRIMINANTS.items():
        assert str(discriminant_curve_oracle(P(f1), P(f2))) == expected, name


def test_line_discriminant_examples():
    # the fold (x1, x2^2): the line y1 = 3 meets the fold line y2 = 0, where
    # the real fiber count jumps from 0 to 2, although the preimage x1 = 3 of
    # the line is free of x2
    fold = (P("x1"), P("x2^2"))
    d = discriminant_curve(*fold, _ScanLine("y1", "y2", F(3)))
    assert not d.is_zero() and d.eval_rational({"y2": 0}).is_zero()
    # the line y2 = 0 is all critical values: zero, and the scan skips it
    assert discriminant_curve(*fold, _ScanLine("y2", "y1", F(0))).is_zero()
    assert discriminant_curve(*fold, _ScanLine("y2", "y1", F(1))) == SparsePoly.constant(1)
    d2 = discriminant_curve(P("x1^2 + x2^2"), P("x2"), _ScanLine("y2", "y1", F(2)))
    assert d2 == (y1 - 4).normalized()
    # over y2 = 5 the first curated map has critical points at (1, +-2), with
    # value y1 = 1, where both leading coefficients in x2 vanish
    f1, f2 = P(CURATED[0][1]), P(CURATED[0][2])
    d3 = discriminant_curve(f1, f2, _ScanLine("y2", "y1", F(5)))
    assert not d3.is_zero() and d3.eval_rational({"y1": 1}).is_zero()


def _scan_records(monkeypatch, maps, shortcut=True):
    """Run the real pipeline on each map and return, for every line on which
    the scan computes a line discriminant, (f1, f2, J, avoid, line, disc)."""
    records, current = [], []

    def scan(J, f1, f2, avoid):
        current[:] = [J, avoid]
        return scan_and_count(J, f1, f2, avoid)

    def line_disc(f1, f2, line):
        disc = discriminant_curve(f1, f2, line)
        records.append((f1, f2, *current, line, disc))
        return disc

    scan_and_count = multiplicity._scan_and_count
    monkeypatch.setattr(multiplicity, "_scan_and_count", scan)
    monkeypatch.setattr(multiplicity, "discriminant_curve", line_disc)
    if not shortcut:
        monkeypatch.setattr(multiplicity, "_odd_jump_shortcut", lambda comp, sys, rng: None)
    verdicts = [{str(c.defining): c.realness
                 for c in sparse_jelonek_2(P(a), P(b), "R", Options(mv_optimization=False)).components}
                for a, b in maps]
    return records, verdicts


def test_line_discriminant_contains_oracle_curve(monkeypatch):
    # every real point of the two-target curve on a line the scan reaches is
    # a root of the line discriminant, of the component or of a norm in avoid
    maps = dict.fromkeys([m for m, _ in LADDER_REAL_DISCRIMINANTS.values()]
                         + [(a, b) for _, a, b, _, _ in CURATED])
    records, _ = _scan_records(monkeypatch, maps)
    oracles = {}
    for f1, f2, J, avoid, line, disc in records:
        key = (str(f1), str(f2))
        if key not in oracles:
            oracles[key] = discriminant_curve_oracle(f1, f2)
        on_line = oracles[key].eval_rational({line.fixed_var: line.level})
        catchers = [q.eval_rational({line.fixed_var: line.level}) for q in [disc, J] + avoid]
        if on_line.is_zero():  # the curve holds the whole line
            assert any(q.is_zero() for q in catchers), (key, line)
            continue
        for r, _ in isolate_real_roots(on_line, line.free_var):
            assert any(q.is_zero() or sign_at(q, r, line.free_var) == 0 for q in catchers), \
                (key, line, r.to_float())
    assert len(records) >= 5 and len(oracles) >= 5


def test_scan_route_agrees_with_shortcut(monkeypatch):
    # the intro map and most components are decided by the odd-jump shortcut;
    # with it off, the scan alone must give the same verdicts
    maps = [CURATED[3][1:3]] + [(a, b) for _, a, b, _, _ in CURATED[:3]]
    maps.append(LADDER_REAL_DISCRIMINANTS["extra-factor"][0])
    records, with_shortcut = _scan_records(monkeypatch, maps)
    monkeypatch.undo()
    scan_records, scan_only = _scan_records(monkeypatch, maps, shortcut=False)
    assert scan_only == with_shortcut
    assert len(scan_records) > len(records)


def test_critical_box_bound_of_a_general_curve():
    # both partials of y1^2 + y2^2 - 4 keep the variable they eliminate:
    # Res_y1(J, 2*y1) and Res_y2(J, 2*y2) are multiples of y2^2 - 4 and
    # y1^2 - 4, whose Cauchy bound 5 beats the default 4
    assert _critical_box_bound(y1 ** 2 + y2 ** 2 - 4) == 6
    # a vertical line takes the univariate branch
    assert _critical_box_bound(y1 - 10) == 12
    # the hyperbola y1*y2 = 1 has no critical point: Res_y2(J, y2) is constant
    assert _critical_box_bound(y1 * y2 - 1) == 5


def test_scan_helpers_on_degenerate_input():
    # no rational point: y1^2 + y2^2 = -1 has no real point at all
    assert _find_rational_point_on(y1 ** 2 + y2 ** 2 + 1, random.Random(0)) is None
    # the scan line y1 = 3 lies inside y1 - 3 = 0
    assert _line_roots(y1 - 3, _ScanLine("y1", "y2", F(3))) is None
    # a boundary polynomial without roots gives no component on either route
    sys = EdgeSystem(g1=z1 + z2 - y1, g2=z1 * z2 - y2, g=SparsePoly.constant(1), transform=None, edge=None)
    for fld in ("R", "C"):
        assert ms_fulton_all(sys, fld) == ms_resultant(sys, fld) == []


def test_eval_possibly_ext_decides_by_the_sign_at_rho():
    a = SparsePoly.variable("a")
    sqrt3 = [r for r, _ in isolate_real_roots(a ** 2 - 3, "a") if r.cmp_fraction(0) > 0][0]
    pt = (F(1), F(2))
    assert _eval_possibly_ext(y1 - 1, pt, sqrt3) is False
    assert _eval_possibly_ext(y2 - 1, pt, sqrt3) is True
    assert _eval_possibly_ext(a * y1 - y2, pt, sqrt3) is True
    # a value with the extension variable vanishes where it vanishes at rho
    assert _eval_possibly_ext(a ** 2 * y1 - 3, pt, sqrt3) is False
    assert _eval_possibly_ext(a ** 2 * y1 - 2, pt, sqrt3) is True
    with pytest.raises(PolyError):
        _eval_possibly_ext(a * y1 - y2, pt, isolate_real_roots(z1 - 2, "z1")[0][0])


def test_odd_jump_shortcut_at_an_irrational_rho():
    # the component y1 + y2 = 6 is rational, so the shortcut runs with J1
    # reduced over Q[a]/(a^2 - 2) at both boundary roots +-sqrt(2)
    (sys,) = pertinent_edge_systems(*IRRATIONAL_RHO_LINE)
    a = SparsePoly.variable("a")
    comps = ms_resultant(sys, "R")
    assert [(c.defining, c.minpoly) for c in comps] == [
        ((y1 + y2 - 6).normalized(), (a ** 2 - 2).normalized())] * 2
    assert [c.rho.to_float() for c in comps] == pytest.approx([-2 ** 0.5, 2 ** 0.5])
    for seed in range(3):
        for c in comps:
            assert _odd_jump_shortcut(c, sys, random.Random(seed)) == "confirmed-nonempty"


def test_norm_form():
    a = SparsePoly.variable("a")
    defining = y2 - a
    minpoly = a ** 2 - 2
    n = norm_form(defining, minpoly)
    assert n.normalized() == (y2 ** 2 - 2).normalized()
    assert norm_form(y1 - 3, None) == (y1 - 3).normalized()


def test_emptiness_verdicts_on_curated_fixtures():
    import sys as _s
    import os
    _s.path.insert(0, os.path.dirname(__file__))
    from fixtures import CURATED

    for name, a, b, comp, expected in CURATED[:3]:
        out = sparse_jelonek_2(P(a), P(b), "R", Options(mv_optimization=False))
        got = {str(c.defining): c.realness for c in out.components if c.defining is not None}
        key = str(P(comp, allowed=("y1", "y2")).normalized())
        assert key in got, (name, got)
        assert got[key] == expected, name
