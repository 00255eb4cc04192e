"""Lattice polygons, Minkowski sums with summand tracking, toric bases.

Edges of the Minkowski sum are classified by their summand decomposition:
long (both summands one-dimensional), pertinent (long, neither summand
through the origin), semi-origin / origin (one / both summands through the
origin) and infinity (inner normal with a negative coordinate).  Only
infinity edges can contribute to the set of non-properness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd as int_gcd

from .poly import PolyError, SparsePoly, gcd_multivar, resultant

Point = tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[Point]:
    """Andrew monotone chain; counter-clockwise, no collinear vertices."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return hull[:1]
    return hull


@dataclass(frozen=True)
class LatticePolygon:
    """Convex lattice polygon; vertices counter-clockwise from the lowest
    (y, then x) vertex.  Points and segments are legal degenerate values."""

    vertices: tuple[Point, ...]

    @classmethod
    def from_points(cls, points) -> "LatticePolygon":
        pts = [(int(x), int(y)) for x, y in points]
        if not pts:
            raise PolyError("empty point set")
        hull = convex_hull(pts)
        if len(hull) > 2:
            start = min(range(len(hull)), key=lambda i: (hull[i][1], hull[i][0]))
            hull = hull[start:] + hull[:start]
        elif len(hull) == 2:
            hull = sorted(hull, key=lambda p: (p[1], p[0]))
        return cls(tuple(hull))

    def dim(self) -> int:
        if len(self.vertices) == 1:
            return 0
        if len(self.vertices) == 2:
            return 1
        return 2

    def doubled_area(self) -> int:
        v = self.vertices
        n = len(v)
        if n < 3:
            return 0
        return sum(v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1] for i in range(n))

    def edges(self) -> list[tuple[Point, Point]]:
        v = self.vertices
        if len(v) < 2:
            return []
        if len(v) == 2:
            return [(v[0], v[1])]
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def face_in_direction(self, n: Point) -> tuple[Point, ...]:
        """Face minimizing <n, .>: a vertex or the two endpoints of an edge."""
        vals = [n[0] * x + n[1] * y for x, y in self.vertices]
        m = min(vals)
        face = [p for p, v in zip(self.vertices, vals) if v == m]
        if len(face) > 2:
            raise PolyError("non-convex vertex data")
        if len(face) == 2:
            d = (face[1][0] - face[0][0], face[1][1] - face[0][1])
            if n[0] * d[1] - n[1] * d[0] == 0:
                raise PolyError("degenerate face direction")
        return tuple(face)

    def contains(self, p: Point) -> bool:
        v = self.vertices
        if len(v) == 1:
            return p == v[0]
        if len(v) == 2:
            return _on_segment(v[0], v[1], p)
        return all(_cross(a, b, p) >= 0 for a, b in self.edges())

    def lattice_points(self) -> list[Point]:
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        out = []
        for x in range(min(xs), max(xs) + 1):
            for y in range(min(ys), max(ys) + 1):
                if self.contains((x, y)):
                    out.append((x, y))
        return out


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _primitive(v: Point) -> Point:
    g = int_gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise PolyError("zero vector")
    return (v[0] // g, v[1] // g)


@dataclass(frozen=True)
class EdgeRecord:
    """An edge of the Minkowski sum with its summand decomposition and flags."""

    index: int
    endpoints: tuple[Point, Point]
    inner_normal: Point
    summand1: tuple[Point, ...]
    summand2: tuple[Point, ...]
    long: bool
    short: bool
    pertinent: bool
    semi_origin: bool
    origin: bool
    infinity: bool

    def flags(self) -> dict[str, bool]:
        return {
            "long": self.long,
            "short": self.short,
            "pertinent": self.pertinent,
            "semi_origin": self.semi_origin,
            "origin": self.origin,
            "infinity": self.infinity,
        }


def _face_contains_origin(face: tuple[Point, ...]) -> bool:
    if len(face) == 1:
        return face[0] == (0, 0)
    return _on_segment(face[0], face[1], (0, 0))


def minkowski_sum(Q1: LatticePolygon, Q2: LatticePolygon) -> tuple[LatticePolygon, list[EdgeRecord]]:
    """Minkowski sum with per-edge summand decomposition and classification."""
    pts = [(a[0] + b[0], a[1] + b[1]) for a in Q1.vertices for b in Q2.vertices]
    S = LatticePolygon.from_points(pts)
    records: list[EdgeRecord] = []
    if S.dim() < 2:
        return S, records
    for idx, (p, q) in enumerate(S.edges()):
        d = (q[0] - p[0], q[1] - p[1])
        n = _primitive((-d[1], d[0]))  # interior lies left of the CCW direction
        f1 = _orient_face(Q1.face_in_direction(n), d)
        f2 = _orient_face(Q2.face_in_direction(n), d)
        assert (f1[0][0] + f2[0][0], f1[0][1] + f2[0][1]) == p
        assert (f1[-1][0] + f2[-1][0], f1[-1][1] + f2[-1][1]) == q
        long = len(f1) == 2 and len(f2) == 2
        o1 = _face_contains_origin(f1)
        o2 = _face_contains_origin(f2)
        records.append(EdgeRecord(
            index=idx,
            endpoints=(p, q),
            inner_normal=n,
            summand1=f1,
            summand2=f2,
            long=long,
            short=not long,
            pertinent=long and not o1 and not o2,
            semi_origin=o1 or o2,
            origin=o1 and o2,
            infinity=n[0] < 0 or n[1] < 0,
        ))
    return S, records


def _orient_face(face: tuple[Point, ...], d: Point) -> tuple[Point, ...]:
    if len(face) == 1:
        return face
    a, b = face
    if (b[0] - a[0]) * d[0] + (b[1] - a[1]) * d[1] < 0:
        a, b = b, a
    return (a, b)


def mixed_volume(Q1: LatticePolygon, Q2: LatticePolygon) -> int:
    """Vol(Q1 + Q2) - Vol(Q1) - Vol(Q2); the generic torus root count."""
    S, _ = minkowski_sum(Q1, Q2)
    twice = S.doubled_area() - Q1.doubled_area() - Q2.doubled_area()
    if twice % 2 != 0:
        raise PolyError("mixed volume should be an integer")
    return twice // 2


def newton_polygon(p: SparsePoly) -> LatticePolygon:
    """Convex hull of the support of a polynomial in (x1, x2)."""
    if p.is_zero():
        raise PolyError("zero polynomial has no Newton polygon")
    i1, i2 = p._idx("x1"), p._idx("x2")
    pts = []
    for exps in p.terms:
        if exps[i1] < 0 or exps[i2] < 0:
            raise PolyError("negative exponents")
        pts.append((exps[i1], exps[i2]))
    return LatticePolygon.from_points(pts)


# -- lattice bases and toric transformations ---------------------------------


@dataclass(frozen=True)
class LatticeBasis:
    v: Point
    w: Point
    anchor: Point
    det: int  # det(v, w) = +-1


@dataclass(frozen=True)
class ToricTransform:
    U: tuple[tuple[int, int], tuple[int, int]]
    basis: LatticeBasis


def _det(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def compute_lattice_basis(edge: EdgeRecord, A: LatticePolygon) -> LatticeBasis:
    """A lattice basis (v, w) aligned with the edge, positively spanning A - a1.

    v is the primitive direction of the edge anchored at its vertex closest
    to the origin; w completes it to a basis with |det| = 1 such that every
    point of A - a1 has nonnegative coordinates.
    """
    e0, e1 = edge.endpoints
    a1 = e0 if (e0[0] ** 2 + e0[1] ** 2) <= (e1[0] ** 2 + e1[1] ** 2) else e1
    other = e1 if a1 == e0 else e0
    v = _primitive((other[0] - a1[0], other[1] - a1[1]))
    rel = [(p[0] - a1[0], p[1] - a1[1]) for p in A.vertices]
    side = [_det(v, p) for p in rel]
    pos = any(s > 0 for s in side)
    neg = any(s < 0 for s in side)
    if pos and neg:
        raise PolyError("edge does not support the polygon")
    D = 1 if not neg else -1
    # w0 with det(v, w0) = D via the extended Euclid identity
    s, t = _xgcd(v[0], v[1])
    w0 = (-t * D, s * D)
    assert _det(v, w0) == D
    # maximal shear k such that all first coordinates stay nonnegative
    k_best = None
    for p in rel:
        b2 = _det(v, p) * D  # = det(v,p)/D since D*D = 1
        if b2 == 0:
            continue
        c = _det(p, w0) * D
        k_cand = c // b2  # floor division; need c - k*b2 >= 0
        k_best = k_cand if k_best is None else min(k_best, k_cand)
    k = 0 if k_best is None else k_best
    w = (w0[0] + k * v[0], w0[1] + k * v[1])
    return LatticeBasis(v=v, w=w, anchor=a1, det=D)


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b = gcd(a, b); inputs here are coprime."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def toric_transform(basis: LatticeBasis) -> ToricTransform:
    """The unimodular monomial transform U = T^(-T)."""
    v, w, D = basis.v, basis.w, basis.det
    assert _det(v, w) == D and D in (1, -1)
    U = ((w[1] * D, -w[0] * D), (-v[1] * D, v[0] * D))
    return ToricTransform(U=U, basis=basis)


def apply_transform(p: SparsePoly, U, from_vars=("x1", "x2"), to_vars=("z1", "z2")) -> SparsePoly:
    """Monomial substitution followed by denominator clearing."""
    q = p.monomial_substitute(U, from_vars, to_vars)
    cleared, _ = q.clear_denominators(to_vars)
    return cleared


# -- Bernstein count check ----------------------------------------------------


def _strip_axis_factors(p: SparsePoly) -> SparsePoly:
    """Divide out the largest x1^i * x2^j monomial factor."""
    out = {}
    m1 = p.min_degree("x1")
    m2 = p.min_degree("x2")
    if m1 <= 0 and m2 <= 0:
        return p
    i1, i2 = p._idx("x1"), p._idx("x2")
    for exps, c in p.terms.items():
        e = list(exps)
        e[i1] -= max(m1, 0)
        e[i2] -= max(m2, 0)
        out[tuple(e)] = c
    return SparsePoly(out, p.vars)


def _torus_count(f1: SparsePoly, f2: SparsePoly) -> int | None:
    """Isolated torus solutions counted with multiplicity, or None when the
    direct resultant count cannot be certified."""
    f1 = _strip_axis_factors(f1)
    f2 = _strip_axis_factors(f2)
    if not gcd_multivar(f1, f2).is_constant():
        return None
    for f in (f1, f2):
        if f.degree("x2") <= 0 or f.degree("x1") <= 0:
            return None
    slice1 = f1.eval_rational({"x2": 0})
    slice2 = f2.eval_rational({"x2": 0})
    if slice1.is_zero() or slice2.is_zero():
        return None
    # common roots with x1 != 0 pollute the count; the x1 = 0 fiber is
    # removed wholesale by the valuation strip below
    if _strip_axis_factors(gcd_multivar(slice1, slice2)).degree("x1") > 0:
        return None
    lc1 = f1.leading_coeff_wrt("x2")
    lc2 = f2.leading_coeff_wrt("x2")
    if not lc1.is_constant() and not lc2.is_constant():
        if _strip_axis_factors(gcd_multivar(lc1, lc2)).degree("x1") > 0:
            return None  # projective roots at infinity over a torus fiber
    R = resultant(f1, f2, "x2")
    if R.is_zero():
        return None
    if R.is_constant():
        return 0
    return R.degree("x1") - R.min_degree("x1")


def _swap_vars(p: SparsePoly) -> SparsePoly:
    i1, i2 = p._idx("x1"), p._idx("x2")
    out = {}
    for exps, c in p.terms.items():
        e = list(exps)
        e[i1], e[i2] = e[i2], e[i1]
        out[tuple(e)] = c
    return SparsePoly(out, p.vars)


def _random_unimodular(rng: random.Random):
    k1 = rng.randrange(1, 4)
    k2 = rng.randrange(1, 4)
    # lower * upper shear: always determinant 1, entries stay small
    return ((1, k1), (k2, k1 * k2 + 1))


def test_number_of_roots(f1: SparsePoly, f2: SparsePoly, seed: int = 0) -> bool | None:
    """True iff the torus root count (with multiplicity) equals the mixed volume.

    None means indeterminate: the count could not be certified even after
    random unimodular coordinate changes (e.g. the system has a common
    component).  The caller must then treat the check as failed.
    """
    A1 = newton_polygon(f1)
    A2 = newton_polygon(f2)
    mv = mixed_volume(A1, A2)
    if mv == 0:
        return None
    rng = random.Random(seed)
    candidates = [((1, 0), (0, 1))] + [_random_unimodular(rng) for _ in range(4)]
    for U in candidates:
        g1 = apply_transform(f1, U, ("x1", "x2"), ("x1", "x2"))
        g2 = apply_transform(f2, U, ("x1", "x2"), ("x1", "x2"))
        n1 = _torus_count(g1, g2)
        if n1 is None:
            continue
        n2 = _torus_count(_swap_vars(g1), _swap_vars(g2))
        if n2 is None or n1 != n2:
            continue
        return n1 == mv
    return None
