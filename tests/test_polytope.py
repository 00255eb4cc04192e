"""Geometry tests: hulls, Minkowski sums, classification, toric bases."""

import random

from oracles import lattice_points
from jelonek.parsing import parse_polynomial as P
from jelonek.poly import SparsePoly
from jelonek.polytope import (
    LatticePolygon,
    apply_transform,
    compute_lattice_basis,
    minkowski_sum,
    mixed_volume,
    newton_polygon,
    test_number_of_roots as count_equals_mv,
    toric_transform,
)



def poly(pts):
    return LatticePolygon.from_points(pts)


# the two running example maps
INTRO_F1 = "1 + 2*x1*x2 - x1^2*x2^3"
INTRO_F2 = "5 + 12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5"

# the larger worked example: A1 with 4 edges, A2 with 6
EX2_A1 = [(0, 0), (2, 1), (3, 2), (2, 2)]
EX2_A2 = [(0, 0), (4, 1), (7, 2), (9, 3), (10, 4), (4, 4)]


def test_newton_polygon():
    t = newton_polygon(P(INTRO_F1))
    assert t.vertices == ((0, 0), (1, 1), (2, 3))
    assert newton_polygon(P("5")).vertices == ((0, 0),)
    assert newton_polygon(P("1 + x1 + x1^2")).vertices == ((0, 0), (2, 0))


def test_newton_polygon_drops_interior_support():
    q = newton_polygon(P(INTRO_F2))
    assert q.vertices == ((0, 0), (1, 1), (3, 5))


def test_minkowski_identity_element():
    Q = poly([(0, 0), (2, 0), (0, 2)])
    S, records = minkowski_sum(Q, poly([(0, 0)]))
    assert S.vertices == Q.vertices
    assert all(r.short and r.semi_origin for r in records)


def test_minkowski_unit_square():
    S, records = minkowski_sum(poly([(0, 0), (1, 0)]), poly([(0, 0), (0, 1)]))
    assert S.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert len(records) == 4
    assert all(r.short for r in records)


def test_minkowski_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        pts1 = [(rng.randrange(0, 21), rng.randrange(0, 21)) for _ in range(rng.randrange(1, 13))]
        pts2 = [(rng.randrange(0, 21), rng.randrange(0, 21)) for _ in range(rng.randrange(1, 13))]
        Q1, Q2 = poly(pts1), poly(pts2)
        S, records = minkowski_sum(Q1, Q2)
        brute = LatticePolygon.from_points([(a[0] + b[0], a[1] + b[1]) for a in Q1.vertices for b in Q2.vertices])
        assert S.vertices == brute.vertices
        if S.dim() == 2:
            assert len(records) == len(S.edges())
            assert len(records) <= len(Q1.edges()) + len(Q2.edges()) + 2
            for r in records:
                # Minkowski identity for the edge, pointwise on endpoints
                assert r.origin == (_contains_origin(r.summand1) and _contains_origin(r.summand2))
                assert r.semi_origin == (_contains_origin(r.summand1) or _contains_origin(r.summand2))
                assert r.long == (len(r.summand1) == 2 and len(r.summand2) == 2)
                assert r.short != r.long
                if r.pertinent:
                    assert r.long and not r.semi_origin
                if r.origin:
                    assert r.semi_origin
                assert r.infinity == (r.inner_normal[0] < 0 or r.inner_normal[1] < 0)
                # the inner normal comes from a summand supporting an edge
                assert len(r.summand1) == 2 or len(r.summand2) == 2


def _contains_origin(face):
    if len(face) == 1:
        return face[0] == (0, 0)
    (x0, y0), (x1, y1) = face
    if x0 * y1 - x1 * y0 != 0:
        return False
    return min(x0, x1) <= 0 <= max(x0, x1) and min(y0, y1) <= 0 <= max(y0, y1)


def test_edge_classification_worked_example():
    Q1, Q2 = poly(EX2_A1), poly(EX2_A2)
    S, records = minkowski_sum(Q1, Q2)
    assert all(r.infinity for r in records)

    def find(direction):
        from math import gcd

        for r in records:
            d = (r.endpoints[1][0] - r.endpoints[0][0], r.endpoints[1][1] - r.endpoints[0][1])
            g = gcd(abs(d[0]), abs(d[1]))
            if (d[0] // g, d[1] // g) == direction:
                return r
        raise AssertionError(direction)

    # pertinent edges: directions (1,1) and (-1,0)
    p1 = find((1, 1))
    p2 = find((-1, 0))
    assert p1.pertinent and p2.pertinent
    assert p1.summand1 == ((2, 1), (3, 2)) and p1.summand2 == ((9, 3), (10, 4))
    assert p2.summand1 == ((3, 2), (2, 2)) and p2.summand2 == ((10, 4), (4, 4))
    # semi-origin long edges: (2,1) direction and the origin edge (-1,-1)
    so = find((2, 1))
    assert so.long and so.semi_origin and not so.origin
    og = find((-1, -1))
    assert og.long and og.origin and og.semi_origin
    # the two short semi-origin edges have the origin vertex of A1 as summand
    shorts = [r for r in records if r.short]
    assert len(shorts) == 2
    assert all(r.summand1 == ((0, 0),) and r.semi_origin for r in shorts)


def test_mixed_volume():
    tri = poly([(0, 0), (1, 0), (0, 1)])
    # MV(D, D) = 2 Vol(D)
    assert mixed_volume(tri, tri) == 1
    big = poly([(0, 0), (3, 0), (0, 3)])
    assert mixed_volume(big, big) == 9
    seg1 = poly([(0, 0), (1, 0)])
    seg2 = poly([(0, 0), (0, 1)])
    assert mixed_volume(seg1, seg2) == 1
    assert mixed_volume(seg1, poly([(0, 0), (3, 0)])) == 0
    assert mixed_volume(tri, poly([(0, 0)])) == 0


def test_mixed_volume_properties():
    rng = random.Random(5)
    for _ in range(20):
        Q1 = poly([(rng.randrange(0, 6), rng.randrange(0, 6)) for _ in range(4)])
        Q2 = poly([(rng.randrange(0, 6), rng.randrange(0, 6)) for _ in range(4)])
        assert mixed_volume(Q1, Q2) == mixed_volume(Q2, Q1)
        Q1t = poly([(x + 3, y + 1) for x, y in Q1.vertices])
        Q2t = poly([(x, y + 2) for x, y in Q2.vertices])
        assert mixed_volume(Q1t, Q2t) == mixed_volume(Q1, Q2)
        Q1k = LatticePolygon.from_points([(2 * x, 2 * y) for x, y in Q1.vertices])
        assert mixed_volume(Q1k, Q2) == 2 * mixed_volume(Q1, Q2)
        assert mixed_volume(Q1, Q2) >= 0


def test_lattice_basis_intro_example():
    f1, f2 = P(INTRO_F1), P(INTRO_F2)
    S, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
    pert = [r for r in records if r.pertinent]
    assert len(pert) == 1
    edge = pert[0]
    assert set(edge.endpoints) == {(2, 2), (5, 8)}
    basis = compute_lattice_basis(edge, S)
    assert basis.anchor == (2, 2)
    assert basis.v == (1, 2)
    tr = toric_transform(basis)
    assert tr.U == ((-1, 1), (-2, 1))
    # the inner normal maps to (0, 1) under U^(-T) = T
    a = edge.inner_normal
    v, w = basis.v, basis.w
    image = (v[0] * a[0] + v[1] * a[1], w[0] * a[0] + w[1] * a[1])
    D = basis.det
    assert (image[0] * D, image[1] * D) == (0, 1) or image == (0, 1)


def test_lattice_basis_axis_aligned():
    Q = poly([(0, 0), (2, 0), (2, 2), (0, 2)])
    S, records = minkowski_sum(Q, poly([(0, 0), (1, 0), (0, 1)]))
    for edge in records:
        basis = compute_lattice_basis(edge, S)
        _check_pi1_pi2(basis, S)


def _check_pi1_pi2(basis, A):
    v, w, a1 = basis.v, basis.w, basis.anchor
    D = v[0] * w[1] - v[1] * w[0]
    assert D in (1, -1)
    assert D == basis.det
    for p in lattice_points(A):
        rel = (p[0] - a1[0], p[1] - a1[1])
        b1 = (rel[0] * w[1] - rel[1] * w[0]) * D
        b2 = (v[0] * rel[1] - v[1] * rel[0]) * D
        assert b1 >= 0 and b2 >= 0, (basis, p)


def test_lattice_basis_random_polygons():
    rng = random.Random(99)
    done = 0
    for _ in range(40):
        Q1 = poly([(rng.randrange(0, 8), rng.randrange(0, 8)) for _ in range(4)])
        Q2 = poly([(rng.randrange(0, 8), rng.randrange(0, 8)) for _ in range(4)])
        S, records = minkowski_sum(Q1, Q2)
        if S.dim() < 2:
            continue
        for edge in records:
            basis = compute_lattice_basis(edge, S)
            _check_pi1_pi2(basis, S)
            done += 1
    assert done > 50


def test_transform_supports_nonnegative():
    rng = random.Random(7)
    f1, f2 = P(INTRO_F1), P(INTRO_F2)
    S, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
    y1 = SparsePoly.variable("y1")
    for edge in records:
        basis = compute_lattice_basis(edge, S)
        tr = toric_transform(basis)
        g = apply_transform(f1 - y1, tr.U)
        assert g.min_degree("z1") >= 0 and g.min_degree("z2") >= 0


def _numeric_torus_count(f1, f2):
    """Numeric oracle: count isolated torus roots (with multiplicity) of a
    bilinear-or-small system by solving the resultant and matching fibers."""
    import numpy as np
    from jelonek.poly import resultant

    R = resultant(f1, f2, "x2")
    coeffs = [float(c.constant_value()) for c in R.as_univariate("x1")]
    roots = np.roots(list(reversed(coeffs))) if len(coeffs) > 1 else []
    count = 0
    def eval_at(poly, r):
        return sum(complex(c) * r ** exps[0] for exps, c in poly.terms.items())

    for r in roots:
        if abs(r) < 1e-9:
            continue
        # solve the fiber of f1 and keep torus solutions solving f2
        fib = [eval_at(cf, r) for cf in f1.as_univariate("x2")]
        fr = np.roots(list(reversed(fib))) if len(fib) > 1 else []
        for x2r in fr:
            if abs(x2r) < 1e-9:
                continue
            v = sum(complex(c) * r ** exps[0] * x2r ** exps[1] for exps, c in f2.terms.items())
            if abs(v) < 1e-6:
                count += 1
    return count


def test_number_of_roots_generic_bilinear():
    rng = random.Random(3)
    trues = 0
    for trial in range(8):
        f1 = SparsePoly.zero()
        f2 = SparsePoly.zero()
        for e in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            f1 = f1 + SparsePoly.monomial({"x1": e[0], "x2": e[1]}, rng.randrange(1, 50))
            f2 = f2 + SparsePoly.monomial({"x1": e[0], "x2": e[1]}, -rng.randrange(1, 50))
        assert mixed_volume(newton_polygon(f1), newton_polygon(f2)) == 2
        got = count_equals_mv(f1, f2, seed=trial)
        if got is None:
            continue
        expected = _numeric_torus_count(f1, f2) == 2
        assert got == expected
        trues += got
    assert trues >= 5  # generic draws overwhelmingly reach the mixed volume


def test_number_of_roots_degenerate_intro():
    f1, f2 = P(INTRO_F1), P(INTRO_F2)
    assert count_equals_mv(f1, f2) is False


def test_number_of_roots_common_component():
    f1 = P(INTRO_F1)
    assert count_equals_mv(f1, f1) is None
