"""Tests for multiplicity sets, Fulton recursion, discriminants, emptiness."""

import random
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import CURATED, IRRATIONAL_BOUNDARY, MIXED_BOUNDARY
from oracles import (crossing_neighbours, discriminant_curve_oracle, escape_oracle, fulton_oracle,
                     odd_jump_oracle, resultant_certifies_coprime)
from strategies import polys_in
from jelonek import multiplicity
from jelonek.parsing import parse_polynomial as P
from jelonek.poly import (
    PolyError,
    SparsePoly,
    dense_int,
    from_dense,
    dense_squarefree,
    gcd_multivar,
    resultant,
    squarefree_part_multivar,
)
from jelonek.core import edge_transform, minkowski_sum, newton_polygon, sparse_jelonek_2, Options
from jelonek.extension import ExtContext, ZeroDivisor
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
    _bracket,
    _critical_box_bound,
    _find_rational_point_on,
    _fulton,
    _fulton_at,
    _int_fulton,
    _line_roots,
    _odd_jump_shortcut,
    _rows_fulton,
    _Rows,
    _ScanLine,
    _scan_and_count,
    _verdict_at_point,
)
from jelonek.realroots import (
    RealAlgebraic,
    at_root,
    compare,
    count_real_solutions,
    isolate_real_roots,
    rational_between,
    rational_roots,
    real_roots,
    sign_at_dense,
)

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
    assert dense_squarefree(dense_int(sys.g, "z1")) == [(dense_int((z1 - 1) * (z1 ** 2 - 3), "z1"), 2)]
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
    sqrt2 = ExtContext(SparsePoly.variable("a") ** 2 - 2)
    assert fulton_multiplicity(z1 + 1, SparsePoly.zero(), ctx=sqrt2) == 0
    assert fulton_multiplicity(SparsePoly.zero(), z1, ctx=sqrt2) == FULTON_INFINITY
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


ZPAIR = ("z1", "z2")
PARAMS = ("y1", "y2")


def _shift_origin_to(p, point):
    """p(z1 - a, z2 - b): the polynomial whose behaviour at (a, b) is that of p at the origin."""
    for var, c in zip(ZPAIR, point):
        p = p.subs_poly(var, SparsePoly.variable(var) - SparsePoly.constant(c))
    return p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(*[st.builds(SparsePoly.__add__, polys_in(ZPAIR, max_deg=1, max_terms=3),
                    polys_in(ZPAIR, max_deg=3, max_terms=4)).filter(lambda p: len(p.terms) >= 3)] * 2,
       polys_in(ZPAIR, max_deg=2, max_terms=3), st.sampled_from(["both", "both", "F", "none"]),
       st.sampled_from(["plain", "plain", "plain", "plain", "plant", "zero F", "zero G"]),
       st.tuples(*[st.builds(F, st.integers(-5, 5), st.integers(1, 4))] * 2))
def test_integer_fulton_matches_the_sparse_recursion(Fl, Gl, h, through_origin, case, point):
    # the integer route at a rational point equals the parameter-free
    # SparsePoly recursion on the curves moved so that the point is the origin
    def at_origin(p):
        return SparsePoly.constant(p.eval_rational({"z1": 0, "z2": 0}).constant_value())

    if through_origin != "none":
        Fl = Fl - at_origin(Fl)
    if through_origin == "both":
        Gl = Gl - at_origin(Gl)
    if case == "plant":  # a common factor through the origin
        h = h - at_origin(h)
        Fl, Gl = Fl * h, Gl * h
    elif case == "zero F":
        Fl = SparsePoly.zero()
    elif case == "zero G":
        Gl = SparsePoly.zero()
    expected = fulton_oracle(Fl, Gl)[0]
    assert fulton_multiplicity(_shift_origin_to(Fl, point), _shift_origin_to(Gl, point), point=point) == expected
    assert fulton_multiplicity(Fl, Gl) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(*[st.builds(lambda a, b, c: a + b + c, polys_in(ZPAIR, max_deg=1, max_terms=3),
                   polys_in(ZPAIR, max_deg=3, max_terms=3),
                   polys_in(ZPAIR + PARAMS, max_deg=1, max_terms=3)).filter(lambda p: len(p.terms) >= 4)] * 2,
       polys_in(ZPAIR + PARAMS, max_deg=1, max_terms=3), polys_in(PARAMS, max_deg=1, max_terms=2),
       st.sampled_from(["plain", "plain", "through", "off", "content F", "content both", "zero F", "zero G"]),
       st.tuples(*[st.builds(F, st.integers(-3, 3), st.integers(1, 3))] * 2))
def test_integer_rows_match_the_fulton_oracle(Fl, Gl, h, c, case, point):
    # with y1, y2 in the coefficients: the integer rows of the curves moved
    # to a rational point give the oracle's multiplicity at the origin, and
    # its conditions up to rational multiples
    def through_origin(p):
        return p - p.eval_rational({"z1": 0, "z2": 0})

    Fl, Gl = through_origin(Fl), through_origin(Gl)
    if case == "through":  # a common factor through the origin
        Fl, Gl = Fl * through_origin(h), Gl * through_origin(h)
    elif case == "off":  # a common factor off it
        Fl, Gl = Fl * (through_origin(h) + 1), Gl * (through_origin(h) + 1)
    elif case.startswith("content") and not c.is_constant():  # no coefficient of Fl is an integer
        Fl, Gl = Fl * c, (Gl * c if case == "content both" else Gl)
    elif case == "zero F":
        Fl = SparsePoly.zero()
    elif case == "zero G":
        Gl = SparsePoly.zero()
    mult, conds = fulton_oracle(Fl, Gl)
    got = _rows_fulton(_shift_origin_to(Fl, point), _shift_origin_to(Gl, point), ZPAIR, point, PARAMS)
    assert (got[0], [p.normalized() for p in got[1]]) == (mult, [p.normalized() for p in conds])


def test_integer_rows_divide_out_a_parameter_content():
    # F / z2 = y1 + 1 has no integer coefficient, so its content comes off
    # by a gcd; left on, it would be the condition y1 + 1 at the end
    assert _rows_fulton((y1 + 1) * z2, z2 - z1 ** 2, ZPAIR, (0, 0), PARAMS) == (2, [])
    assert fulton_condition_polynomials((y1 + 1) * z2, z2 - (z1 - 3) ** 2, point=(3, 0)) == (2, [])


def test_integer_rows_widen_the_fields_past_a_guard_bit():
    # the first width for this pair is 3 bits: y1^4 reaches the guard bit
    # of its field, and the recursion restarts with wider fields
    Fp, Gp = 2 * z1 ** 4, z1 ** 3 - z1 * y1 + 2 * z2
    results = []
    for width in (3, 4):
        rows = _Rows(ZPAIR, ("y1",), width, Fp.vars)
        results.append(_int_fulton(rows.pack(Fp), rows.pack(Gp), rows))
    assert results == [None, (4, [{2: -1}, {2: -1}, {2: -1}, {4: 1}, {3: 1}])]
    mult, conds = _rows_fulton(Fp, Gp, ZPAIR, (0, 0), PARAMS)
    assert (mult, conds) == (4, [-y1 ** 2] * 3 + [y1 ** 4, y1 ** 3])
    assert fulton_oracle(Fp, Gp)[0] == 4


def test_integer_fulton_pins_the_shared_component_exits():
    point = (F(1, 2), F(-2, 3))
    u, v = (_shift_origin_to(z, point) for z in (z1, z2))
    # both vanish at the point and share the line u = v through it: the
    # resultant certificate fails and the gcd decides
    assert fulton_multiplicity((u - v) * (u + 2), (u - v) * (v + 3), point=point) == FULTON_INFINITY
    # sharing u + 2, which misses the point, leaves the multiplicity finite
    assert fulton_multiplicity((u + 2) * v, (u + 2) * (v - u ** 2), point=point) == 2
    # a zero operand: infinite on the other curve, 0 off it
    assert fulton_multiplicity(u * v + u ** 3, SparsePoly.zero(), point=point) == FULTON_INFINITY
    assert fulton_multiplicity(SparsePoly.zero(), u + 1, point=point) == 0


def test_integer_fulton_raises_typed_errors():
    # a negative exponent, and variables outside the pair
    for Fp in (SparsePoly.monomial({"z1": -1}) + z2, z1 + y1 * z2, x1):
        with pytest.raises(PolyError, match="not a polynomial in"):
            fulton_multiplicity(Fp, z1)


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
    # the oracle, the integer rows at the origin and at a rational point, and
    # the recursion over Q(sqrt(2)) give the same result in both orders
    Fp, Gp, certified, expected = FULTON_ROUTES[name]
    assert resultant_certifies_coprime(Fp, Gp, "z1", "z2") == certified
    assert fulton_oracle(Fp, Gp) == expected
    point = (F(1, 2), F(-2, 3))
    sqrt2 = ExtContext(SparsePoly.variable("a") ** 2 - 2)
    for A, B in ((Fp, Gp), (Gp, Fp)):
        mult, conds = fulton_oracle(A, B)
        assert mult == expected[0]
        for got in (_rows_fulton(A, B, ZPAIR, (0, 0), PARAMS), _fulton(A, B, ZPAIR, sqrt2),
                    _rows_fulton(_shift_origin_to(A, point), _shift_origin_to(B, point), ZPAIR, point, PARAMS)):
            assert (got[0], [c.normalized() for c in got[1]]) == (mult, [c.normalized() for c in conds])


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

    def at_point(sys, rho, pt):
        at = {"y1": pt[0], "y2": pt[1]}
        return _fulton_at(sys.g1.eval_rational(at), sys.g2.eval_rational(at), rho)[1][0]

    for f1, f2 in dict.fromkeys(texts):
        f1, f2 = P(f1), P(f2)
        A, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
        for edge in records:
            if not (edge.pertinent and edge.infinity):
                continue
            sys = edge_transform(f1, f2, edge, A)
            if sys.g.degree("z1") < 1:
                continue
            for factor, _ in dense_squarefree(dense_int(sys.g, "z1")):
                for rho in real_roots(factor):
                    _, (mult, conds) = _fulton_at(sys.g1, sys.g2, rho)
                    for _ in range(6):
                        pt = (F(rng.randrange(-40, 41), rng.randrange(1, 6)),
                              F(rng.randrange(-40, 41), rng.randrange(1, 6)))
                        values = [c.eval_rational({"y1": pt[0], "y2": pt[1]}) for c in conds]
                        if any(v.is_zero() or (not v.is_constant() and sign_at_dense(dense_int(v, "a"), rho) == 0)
                               for v in values):
                            continue
                        assert at_point(sys, rho, pt) == mult
                        checked += 1
                    for c in conds:
                        pt = _find_rational_point_on(c, rng) if c.degree("a") <= 0 else None
                        if pt is not None:
                            assert at_point(sys, rho, pt) > mult
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

    assert at_root(sqrt3, compute) == ((a ** 2 - 3).normalized(), "done")
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
            assert any(q.is_zero() or sign_at_dense(dense_int(q, line.free_var), r) == 0 for q in catchers), \
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


def _recording(monkeypatch, name):
    """Wrap a function of ``multiplicity``; the calls' arguments collect in the returned list."""
    calls, real = [], getattr(multiplicity, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(multiplicity, name, wrapped)
    return calls


def test_scan_skips_a_line_inside_an_avoided_curve(monkeypatch):
    # the avoided line y2 = 5 is the first scan line of J = y1 + 2 (bound 5):
    # no discriminant is computed there, and the third line decides
    f1, f2 = (P(s) for s in CURATED[2][1:3])
    J = (y1 + 2).normalized()
    assert _critical_box_bound(J) == 5
    lines = _recording(monkeypatch, "discriminant_curve")
    assert _scan_and_count(J, f1, f2, [y2 - 5]) == "confirmed-empty"
    assert [(line.fixed_var, line.level) for _, _, line in lines] == [("y2", -5)]


def test_scan_skips_points_on_an_obstacle_and_lines_without_roots(monkeypatch):
    # on y2 = 5 the avoided curve y1 + y2 = 3 passes through J's point
    # y1 = -2, which is skipped; the lines y1 = +-5 miss J, and the scan goes
    # on to y2 = -5.  With every point left undecided the scan is undetermined
    f1, f2 = (P(s) for s in CURATED[2][1:3])
    points = []
    monkeypatch.setattr(multiplicity, "_verdict_at_point",
                        lambda f1, f2, line, p, own, obstacles: points.append((line.fixed_var, line.level, p)))
    assert _scan_and_count((y1 + 2).normalized(), f1, f2, [y1 + y2 - 3]) == "undetermined"
    assert [(v, level, p.as_fraction()) for v, level, p in points] == [("y2", -5, -2)]


def test_verdict_at_point_rejects_a_neighbour_on_a_missed_critical_value():
    # the fold (x1, x2^2) on the line y1 = 3, with its critical value y2 = 0
    # left out of the obstacles: q- lands on it, where the fiber is a double
    # point, and the point gives no verdict
    fold = (P("x1"), P("x2^2"))
    line = _ScanLine("y1", "y2", F(3))
    assert _verdict_at_point(*fold, line, RealAlgebraic.from_rational(F(1, 2)), [[-1, 2]], []) is None


def test_verdict_at_point_rejects_a_multiple_fiber_at_the_point():
    # (x1, x2^3 - x1^2*x2) on y2 = 0: three simple real solutions on each
    # side of y1 = 0 and one triple solution at it
    f1, f2 = P("x1"), P("x2^3 - x1^2*x2")
    line = _ScanLine("y2", "y1", F(0))
    assert _verdict_at_point(f1, f2, line, RealAlgebraic.from_rational(0), [[0, 1]], []) is None


def test_verdict_at_point_without_a_drop_at_the_point_is_undecided():
    # (x1, x2^3 - x2) on y1 = 0 with its critical values y2 = -+2/(3*sqrt(3))
    # left out: the counts are 3 at q- = 0 and at p = 1/10 but 1 at q+ = 1
    f1, f2 = P("x1"), P("x2^3 - x2")
    line = _ScanLine("y1", "y2", F(0))
    assert _verdict_at_point(f1, f2, line, RealAlgebraic.from_rational(F(1, 10)), [[-1, 10]], []) is None


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _real_roots_of(f):
    return [r for r, _ in isolate_real_roots(from_dense(f, "x1"), "x1")]


def _inside(r, lo, hi):
    return r.cmp_fraction(lo) > 0 and r.cmp_fraction(hi) < 0


def _assert_bracket(p, own, obstacles):
    lo, q, hi = _bracket(p, own, obstacles)
    assert lo < q.lo <= q.hi < hi and compare(q, p) == 0
    for o in obstacles:
        assert not any(_inside(r, lo, hi) for r in _real_roots_of(o))
    inside = [r for f in own for r in _real_roots_of(f) if _inside(r, lo, hi)]
    assert len(inside) == 1 and compare(inside[0], p) == 0
    return lo, q, hi


# (k, side, kind): an obstacle factor with a real root at p + side * 2^-k, or
# with the complex pair p +- i * 2^-k, which has no real root
PLANTED = st.tuples(st.integers(1, 30), st.sampled_from([-1, 1]), st.sampled_from(["real", "complex"]))


RATIONAL_POINT = st.tuples(st.integers(-20, 20), st.integers(1, 9))
IRRATIONAL_POINT = st.tuples(st.sampled_from([2, 3, 5, 7]), st.sampled_from([-1, 1]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(RATIONAL_POINT.map(lambda ab: ("a/b", ab)), IRRATIONAL_POINT.map(lambda ms: ("sqrt", ms))),
       st.lists(st.lists(PLANTED, min_size=1, max_size=3, unique=True), min_size=1, max_size=3),
       st.one_of(st.none(), st.integers(1, 30)))
def test_bracket_holds_only_the_point(point, planted, own_near):
    """Roots planted at p +- 2^-k, for a rational p = a/b and for p = +-sqrt(m);
    ``own_near`` j adds an own factor with a rational root within 2^-j of p."""
    kind_of_point, (u, v) = point
    if kind_of_point == "a/b":
        a, b = u, v
        p = RealAlgebraic.from_rational(F(a, b))
        own = [[-a, b]]

        def factor(k, side, kind):
            # 2^k*b*x - (2^k*a + side*b), or (2^k*(b*x - a))^2 + b^2
            if kind == "real":
                return [-(a << k) - side * b, b << k]
            square = _mul([-(a << k), b << k], [-(a << k), b << k])
            return [square[0] + b * b, *square[1:]]
        near = None if own_near is None else [-(a << own_near) - b, b << own_near]
    else:
        m, sign = u, v
        p = real_roots([-m, 0, 1])[sign > 0]
        own = [[-m, 0, 1]]

        def factor(k, side, kind):
            # (2^k*x - side)^2 - m*4^k: roots +-sqrt(m) + side*2^-k;
            # 4^k*(x^2 - m)^2 + 1: complex roots within 2^-k/sqrt(m) of +-sqrt(m)
            if kind == "real":
                return [1 - (m << 2 * k), -side << (k + 1), 1 << 2 * k]
            return [(m * m << 2 * k) + 1, 0, -(m << (2 * k + 1)), 0, 1 << 2 * k]
        near = None if own_near is None else [-sign * isqrt(m << 2 * own_near), 1 << own_near]
    if near is not None:
        own.append(near)
    obstacles = []
    for group in planted:
        o = [1]
        for k, side, kind in group:
            o = _mul(o, factor(k, side, kind))
        obstacles.append(o)
    lo, q, hi = _assert_bracket(p, own, obstacles)
    # the neighbours lie in the open cells of the reference neighbours
    q_minus, q_plus = rational_between(lo, q.lo), rational_between(q.hi, hi)
    for x, y in zip((q_minus, q_plus), crossing_neighbours(p, own, obstacles)):
        x, y = min(x, y), max(x, y)
        for f in own + obstacles:
            assert not any(r.cmp_fraction(x) >= 0 and r.cmp_fraction(y) <= 0 for r in _real_roots_of(f))


def test_bracket_on_a_large_polynomial():
    # degree 102 with coefficients past 1000 bits, the size of the big map's
    # line polynomial: 100 rational roots n/d with 12-bit n and d, and the
    # pair +-sqrt(2) + 2^-20 next to p = sqrt(2)
    rng = random.Random(5)
    roots = [F(rng.randrange(-1 << 12, 1 << 12), rng.randrange(1, 1 << 12)) for _ in range(100)]
    near = [1 - (2 << 40), -(1 << 21), 1 << 40]  # (2^20*x - 1)^2 - 2*4^20
    o = near
    for r in roots:
        o = _mul(o, [-r.numerator, r.denominator])
    assert len(o) - 1 >= 100 and max(abs(c) for c in o).bit_length() >= 1000
    sqrt2 = real_roots([-2, 0, 1])[1]
    lo, q, hi = _bracket(sqrt2, [[-2, 0, 1]], [o])
    assert lo < q.lo <= q.hi < hi and compare(q, sqrt2) == 0
    assert not any(lo < r < hi for r in roots)
    assert not any(_inside(r, lo, hi) for r in real_roots(near))


def test_bracket_neighbours_count_as_the_crossing_oracle(monkeypatch):
    # at every point the scan tries on the ladder-real maps and two maps with
    # irrational boundary roots, with the shortcut off, the real counts at q-
    # and q+ equal those at the reference neighbours of the old crossing lists
    maps = [CURATED[3][1:3]] + [(a, b) for _, a, b, _, _ in CURATED[:3]]
    maps += [LADDER_REAL_DISCRIMINANTS["extra-factor"][0], MIXED_BOUNDARY, IRRATIONAL_RHO_LINE]
    calls = _recording(monkeypatch, "_verdict_at_point")
    records, _ = _scan_records(monkeypatch, maps, shortcut=False)
    assert len(calls) >= len(maps) and len(records) >= len(maps)

    def counts(f1, f2, line, value):
        pt = {line.fixed_var: line.level, line.free_var: value}
        return count_real_solutions(f1 - SparsePoly.constant(pt["y1"]), f2 - SparsePoly.constant(pt["y2"]))

    for f1, f2, line, p, own, obstacles in calls:
        lo, q, hi = _assert_bracket(p, own, obstacles)
        ours = (rational_between(lo, q.lo), rational_between(q.hi, hi))
        for x, y in zip(ours, crossing_neighbours(p, own, obstacles)):
            assert counts(f1, f2, line, x) == counts(f1, f2, line, y), (line, p, x, y)


def test_odd_jump_shortcut_at_an_irrational_rho():
    # the component y1 + y2 = 6 is rational, so the shortcut runs at both
    # boundary roots +-sqrt(2): Fulton's recursion over Q(sqrt(2)) gives the
    # generic multiplicity and that at a rational point of the line
    (sys,) = pertinent_edge_systems(*IRRATIONAL_RHO_LINE)
    a = SparsePoly.variable("a")
    comps = ms_resultant(sys, "R")
    assert [(c.defining, c.minpoly) for c in comps] == [
        ((y1 + y2 - 6).normalized(), (a ** 2 - 2).normalized())] * 2
    assert [c.rho.to_float() for c in comps] == pytest.approx([-2 ** 0.5, 2 ** 0.5])
    for seed in range(3):
        for c in comps:
            assert _odd_jump_shortcut(c, sys, random.Random(seed)) == "confirmed-nonempty"


def test_odd_jump_shortcut_agrees_with_the_reference_point_oracle():
    # wherever the old certificate (a random reference point q off the
    # component where J1 or J2 does not vanish) decides, its parity of
    # mu_p - mu_q is the shortcut's verdict; both routes, seeds 0..2
    maps = dict.fromkeys([(a, b) for _, a, b, _, _ in CURATED]
                         + [m for m, _ in LADDER_REAL_DISCRIMINANTS.values()]
                         + [("1 + x2^6*(x1-1)^2", "1 + x1*x2^6 + x2^12*(x1-1)^2"),
                            IRRATIONAL_RHO_LINE, MIXED_BOUNDARY])
    decided = []
    for f1, f2 in maps:
        for sys in pertinent_edge_systems(f1, f2):
            for route in (ms_resultant, ms_fulton_all):
                for c in route(sys, "R"):
                    if c.minpoly is not None and c.defining.degree("a") > 0:
                        continue  # the emptiness test leaves these undetermined
                    J = c.defining.normalized()
                    for seed in range(3):
                        p = _find_rational_point_on(J, random.Random(seed))
                        verdict = _odd_jump_shortcut(c, sys, random.Random(seed))
                        odd = None if p is None else odd_jump_oracle(sys, J, c.rho, p, random.Random(seed))
                        if odd is not None:
                            assert verdict == ("confirmed-nonempty" if odd else None), (f1, f2, str(J), seed)
                            decided.append(odd)
    assert len(decided) >= 60 and True in decided and False in decided


def test_odd_jump_shortcut_without_a_rational_point_gives_no_verdict():
    # the finder tries rational lines only, and y1^2 = 2 meets none of them
    # in a rational point: the shortcut leaves the component to the scan
    sys = intro_edge_system()
    comp = multiplicity.Component(defining=y1 ** 2 - 2, realness="undetermined",
                                  rho=RealAlgebraic.from_rational(2))
    assert _find_rational_point_on(comp.defining, random.Random(0)) is None
    assert _odd_jump_shortcut(comp, sys, random.Random(0)) is None


@pytest.mark.parametrize("case", ["origin value", "trailing coefficient"])
def test_fulton_splits_the_modulus_at_a_zero_divisor(case):
    # a value the recursion branches on is nonzero in Q[a]/((a - 1)(a^2 - 3))
    # but vanishes at sqrt(3): the recursion raises the factor a^2 - 3,
    # at_root narrows the modulus to it, and the multiplicity is that over
    # Q(sqrt(3)).  The origin value a^2 - 3 of F: z2 = 0 meets z1 = 0 once.
    # The order (a^2 - 3)*u in u of G at z2 = 0, F = z2: it is 2, from z1^2
    a = SparsePoly.variable("a")
    modulus = ((a - 1) * (a ** 2 - 3)).normalized()
    sqrt3 = max((r for r, _ in isolate_real_roots(modulus, "a")), key=lambda r: r.to_float())
    assert sqrt3.dense == tuple(dense_int(modulus, "a"))
    Fp, Gp, mult = {"origin value": (z2 + a ** 2 - 3, z1, 1),
                    "trailing coefficient": (z2, (a ** 2 - 3) * z1 + z1 ** 2, 2)}[case]
    got = at_root(sqrt3, lambda ctx: fulton_multiplicity(Fp, Gp, ctx=ctx))
    assert got == ((a ** 2 - 3).normalized(), mult)


def test_escape_oracle_is_inconclusive_where_escapes_fade():
    # the line y1 + y2 = 6 does attract real escapes: on the torus
    # s = x1*x2, u = x1*x2^2 the map is (1 + s*(u^2 - 2), 5 + s*(u^2 - 2)*(u^2 - 3)),
    # and s -> infinity with u -> sqrt(2) reaches every point of the line.
    # Towards (2, 4) the real solution norms grow to about 1e47, then read 0
    # at the finest offset, where the numerics lose the solutions: that is
    # no proof that the line is empty
    f1, f2 = (P(s) for s in IRRATIONAL_RHO_LINE)
    assert escape_oracle(f1, f2, y1 + y2 - 6, samples=[(F(2), F(4))]) is None


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
