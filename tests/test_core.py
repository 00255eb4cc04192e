"""Pipeline tests: dominance, preprocessing, per-edge components, assembly."""

import random
from fractions import Fraction as F

import pytest

from jelonek.parsing import parse_polynomial as P
from jelonek.poly import PolyError, SparsePoly, squarefree_part_multivar
from jelonek.core import (
    FIELD_COMPLEX,
    FIELD_REAL,
    NotDominantError,
    Options,
    check_dominant,
    degree_bound,
    generic_fiber_size,
    implicitize_param,
    jelonek_2_baseline,
    edge_transform,
    preprocess_translate,
    semi_origin_components,
    sparse_jelonek_2,
    _linear_image,
)
from jelonek.polytope import minkowski_sum, newton_polygon
from fixtures import BIG_F1, BIG_F2, CURATED, INTRO_F1, INTRO_F2, IRRATIONAL_BOUNDARY
from oracles import divides

y1 = SparsePoly.variable("y1")
y2 = SparsePoly.variable("y2")

INTRO = ("1 + 2*x1*x2 - x1^2*x2^3", "5 + 12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5")
BIG = ("1 + x1*x2 + 2*x1^2*x2^2 - 7/10*x1^2*x2 - 3*x1^3*x2^2",
       "1 + 3*x1*x2 - 4*x1^2*x2^2 + 5*x1^3*x2^3 - 6*x1^4*x2^4 + 2187/32*x1^10*x2^4"
       " - 54*x1^6*x2^3 + 5103/320*x1^9*x2^3 + x1^7*x2^2 + x1^4*x2")


def rand_dominant_map(rng, max_deg=4, min_terms=4):
    while True:
        def rp():
            p = SparsePoly.zero()
            for _ in range(rng.randrange(min_terms, min_terms + 3)):
                e1 = rng.randrange(0, max_deg + 1)
                e2 = rng.randrange(0, max_deg + 1 - e1)
                p = p + SparsePoly.monomial({"x1": e1, "x2": e2}, rng.randrange(-9, 10))
            return p

        f1, f2 = rp(), rp()
        if len(f1.terms) < min_terms or len(f2.terms) < min_terms:
            continue
        ok, _ = check_dominant(f1, f2)
        if ok:
            return f1, f2


def test_check_dominant():
    assert check_dominant(P("x1"), P("x1*x2"))[0] is True
    ok, reason = check_dominant(P("x1"), P("x1"))
    assert not ok and "Jacobian" in reason
    ok, reason = check_dominant(P("x1 + 1"), P("x1^2"))
    assert not ok
    assert check_dominant(SparsePoly.zero(), P("x1")) == (False, "a coordinate polynomial is zero")


def test_linear_image():
    t = SparsePoly.variable("t")
    # (1 + t^2, 3 + 2*t^2) lies on y2 = 2*y1 + 1; (1 + t^2, t + t^2) is a parabola
    assert _linear_image(1 + t ** 2, 3 + 2 * t ** 2) == (y2 - 2 * y1 - 1).normalized()
    assert _linear_image(1 + t ** 2, t + t ** 2) is None
    assert _linear_image(1 + t ** 2, t) is None
    assert _linear_image(SparsePoly.constant(2), t) == (y1 - 2).normalized()


def test_preprocess_translate():
    f1, f2 = P(INTRO[0]), P(INTRO[1])
    t1, t2, a = preprocess_translate(f1, f2, 0)
    assert a == (0, 0) and t1 == f1 and t2 == f2
    g1 = P("x1*x2")
    t1, t2, a = preprocess_translate(g1, f2, 0)
    assert a[0] != 0 and a[1] == 0
    assert t1.eval_rational({"x1": F(0), "x2": F(0)}).constant_value() == a[0]


def test_semi_origin_components_big_example():
    f1, f2 = P(BIG[0]), P(BIG[1])
    A, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
    # the two short semi-origin edges both produce the line y1 = 1
    shorts = [r for r in records if r.short and r.semi_origin and r.infinity]
    line_defs = []
    for e in shorts:
        for c in semi_origin_components(f1, f2, e, FIELD_REAL):
            line_defs.append(c.defining.normalized())
    assert all(d == (y1 - 1).normalized() for d in line_defs)
    assert len(line_defs) >= 1
    # the origin edge produces the quartic parametrization
    origin_edges = [r for r in records if r.origin and r.infinity and r.long]
    assert len(origin_edges) == 1
    comps = semi_origin_components(f1, f2, origin_edges[0], FIELD_REAL)
    assert len(comps) == 1
    Pt, Qt = comps[0].param
    t = SparsePoly.variable("t")
    assert Pt == 1 + t + 2 * t ** 2
    assert Qt == 1 + 3 * t - 4 * t ** 2 + 5 * t ** 3 - 6 * t ** 4


def test_semi_origin_no_real_roots_gives_nothing():
    # the edge restriction of f2 is 1 + t^2: no real roots, so over R the
    # family is empty while over C it is the implicit resultant form
    f1 = P("1 + x2")
    f2 = P("1 + x1 + x1*x2^2")
    A, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
    target = [e for e in records if e.semi_origin and e.infinity and not e.origin
              and e.long and e.inner_normal == (-1, 0)]
    assert len(target) == 1
    comps_r = semi_origin_components(f1, f2, target[0], FIELD_REAL)
    assert comps_r == []
    comps_c = semi_origin_components(f1, f2, target[0], FIELD_COMPLEX)
    assert len(comps_c) == 1
    expected = ((y1 - 1) ** 2 + 1).normalized()
    assert comps_c[0].defining.normalized() == expected


def test_non_infinity_edges_are_axis_bound():
    # after translation, every non-infinity edge lies on a coordinate axis and
    # carries an origin summand, which is why the pipeline may skip them
    rng = random.Random(123)
    for _ in range(10):
        f1, f2 = rand_dominant_map(rng)
        from jelonek.core import preprocess_translate

        t1, t2, _ = preprocess_translate(f1, f2, 0)
        A, records = minkowski_sum(newton_polygon(t1), newton_polygon(t2))
        for e in records:
            if not e.infinity:
                assert e.semi_origin
                assert not e.pertinent
                p, q = e.endpoints
                assert p[0] == q[0] == 0 or p[1] == q[1] == 0


def test_boundary_gcd_has_no_root_at_zero():
    # each z2 = 0 slice of edge_transform keeps a term free of z1 (see its
    # comment), so no boundary root is 0 and the per-root loops need no zero
    # check; the maps are the benchmark ladders' and the curated suite's
    maps = [(INTRO_F1, INTRO_F2), (BIG_F1, BIG_F2), IRRATIONAL_BOUNDARY,
            ("1 + x2^2*(x1-1)^2*(x1+2)*(x1+3)", CURATED[0][2])]
    maps += [(f"1 + x2^{2 * k}*(x1-1)^2", f"1 + x1*x2^{2 * k} + x2^{4 * k}*(x1-1)^2") for k in (2, 3)]
    maps += [(f1, f2) for _, f1, f2, _, _ in CURATED]
    for s1, s2 in maps:
        t1, t2, _ = preprocess_translate(P(s1), P(s2), 0)
        A, records = minkowski_sum(newton_polygon(t1), newton_polygon(t2))
        pertinent = [e for e in records if e.pertinent and e.infinity]
        assert pertinent, (s1, s2)
        for e in pertinent:
            g = edge_transform(t1, t2, e, A).g
            assert g.eval_rational({"z1": 0}).constant_value() != 0, (s1, s2, e.index)


def test_intro_complex_components():
    out = sparse_jelonek_2(P(INTRO[0]), P(INTRO[1]), FIELD_COMPLEX, Options(mv_optimization=False))
    defs = sorted(str(c.defining.normalized()) for c in out.components if c.defining is not None)
    assert str((2 * y1 - y2 + 3).normalized()) in defs
    assert str((6 * y1 - y2 - 1).normalized()) in defs
    assert str((y1 - 1).normalized()) in defs
    raw, sf = jelonek_2_baseline(P(INTRO[0]), P(INTRO[1]))
    for c in out.components:
        assert divides(c.defining.normalized(), sf)


def test_big_example_components_and_merge():
    out = sparse_jelonek_2(P(BIG[0]), P(BIG[1]), FIELD_REAL, Options(mv_optimization=False))
    assert len(out.components) == 5
    by_def = {str(c.defining): c for c in out.components if c.defining is not None}
    line = by_def[str((y1 - 1).normalized())]
    assert len(line.provenance) == 2  # merged from two edges
    assert str((729 * y1 - 761).normalized()) in by_def
    assert str((10935 * y1 - 4697).normalized()) in by_def
    assert str((18225 * y1 - 16757).normalized()) in by_def
    pert = [c for c in out.components if any(p.source == "pertinent" for p in c.provenance)]
    assert len(pert) == 2
    assert all(c.realness == "confirmed-nonempty" for c in pert)
    param = [c for c in out.components if c.param is not None]
    assert len(param) == 1


def test_baseline_examples():
    raw, sf = jelonek_2_baseline(P("x1"), P("x2"))
    assert raw.is_constant()
    raw, sf = jelonek_2_baseline(P("x1"), P("x1*x2"))
    assert divides(y1.normalized(), raw)
    raw, sf = jelonek_2_baseline(P(BIG[0]), P(BIG[1]))
    for factor in (10935 * y1 - 4697, 729 * y1 - 761, y1 - 1, 18225 * y1 - 16757):
        assert divides(factor.normalized(), sf)


def test_baseline_contains_all_components_randomized():
    rng = random.Random(77)
    done = 0
    while done < 8:
        f1, f2 = rand_dominant_map(rng)
        try:
            raw, sf = jelonek_2_baseline(f1, f2)
            out = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False, seed=done))
        except (PolyError, NotDominantError):
            continue
        for c in out.components:
            d = c.defining if c.defining is not None else implicitize_param(*c.param)
            assert divides(squarefree_part_multivar(d), sf), (f1, f2, d)
        done += 1


def test_degree_bound_examples():
    assert degree_bound(P("x1"), P("x2")) == 0
    b = degree_bound(P(INTRO[0]), P(INTRO[1]))
    assert b == F(39, 5)
    out = sparse_jelonek_2(P(INTRO[0]), P(INTRO[1]), FIELD_COMPLEX, Options(mv_optimization=False))
    for c in out.components:
        assert c.defining.total_degree() <= b


def test_generic_fiber_size():
    assert generic_fiber_size(P("x1"), P("x2")) == 1
    assert generic_fiber_size(P(INTRO[0]), P(INTRO[1])) == 1
    assert generic_fiber_size(P("x1^2 - x2"), P("x2^2")) == 4


def test_implicitize():
    t = SparsePoly.variable("t")
    assert implicitize_param(t, t ** 2).normalized() == (y1 ** 2 - y2).normalized()
    assert implicitize_param(t ** 2, t ** 3).normalized() == (y1 ** 3 - y2 ** 2).normalized()
    # sample-check on the big parametrization
    Pq = 1 + t + 2 * t ** 2
    Qq = 1 + 3 * t - 4 * t ** 2 + 5 * t ** 3 - 6 * t ** 4
    impl = implicitize_param(Pq, Qq)
    rng = random.Random(5)
    for _ in range(5):
        tv = F(rng.randrange(-9, 10), rng.randrange(1, 7))
        pv = Pq.eval_rational({"t": tv}).constant_value()
        qv = Qq.eval_rational({"t": tv}).constant_value()
        assert impl.eval_rational({"y1": pv, "y2": qv}).constant_value() == 0


def test_back_translation_property():
    rng = random.Random(31)
    f1 = P("x1*x2 + x1^3")  # zero constant terms force a translation
    f2 = P("x2 + x1^2*x2^2")
    out = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False, seed=4))
    a = out.translation
    assert a != (0, 0)
    # shifting the input by hand must cancel the translation bookkeeping
    g1 = f1 + SparsePoly.constant(a[0], f1.vars)
    g2 = f2 + SparsePoly.constant(a[1], f1.vars)
    out2 = sparse_jelonek_2(g1, g2, FIELD_COMPLEX, Options(mv_optimization=False, seed=4))
    assert out2.translation == (0, 0)

    def keys(res):
        out = set()
        for c in res.components:
            if c.defining is not None:
                out.add(str(c.defining.normalized()))
            else:
                out.add(("param", str(c.param[0]), str(c.param[1])))
        return out

    shifted = set()
    for c in out2.components:
        if c.defining is not None:
            d = c.defining.subs_poly("y1", y1 + SparsePoly.constant(a[0], c.defining.vars))
            d = d.subs_poly("y2", y2 + SparsePoly.constant(a[1], d.vars))
            shifted.add(str(d.normalized()))
        else:
            Pp, Qq = c.param
            shifted.add(("param", str(Pp - SparsePoly.constant(a[0], Pp.vars)),
                         str(Qq - SparsePoly.constant(a[1], Qq.vars))))
    assert keys(out) == shifted


def test_mv_optimization_identity():
    rng = random.Random(9)
    agree = 0
    for trial in range(6):
        # dense maps are generically nondegenerate
        def dense(deg):
            p = SparsePoly.zero()
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    p = p + SparsePoly.monomial({"x1": i, "x2": j}, rng.randrange(1, 20))
            return p

        f1, f2 = dense(2), dense(2)
        ok, _ = check_dominant(f1, f2)
        if not ok:
            continue
        on = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=True, seed=trial))
        off = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False, seed=trial))

        def key(res):
            return sorted(str(c.defining.normalized()) if c.defining is not None
                          else str(c.param) for c in res.components)

        assert key(on) == key(off)
        agree += 1
    assert agree >= 4


def test_non_dominant_rejected():
    with pytest.raises(NotDominantError):
        sparse_jelonek_2(P("x1"), P("x1"), FIELD_COMPLEX)
    with pytest.raises(NotDominantError):
        jelonek_2_baseline(P("x1 + 1"), P("x1^2"))
