"""Pipeline: preprocessing, per-edge dispatch, assembly of the final set.

The map is translated so both coordinates carry constant terms, the
Minkowski sum of the Newton polygons is classified, semi-origin infinity
edges contribute parametric or line components directly, pertinent infinity
edges go through the toric transform and the multiplicity-set machinery,
and everything is deduplicated and translated back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .extension import ExtContext
from .multiplicity import (
    Component,
    EdgeSystem,
    emptiness_test,
    jacobian_det,
    ms_fulton_all,
    ms_resultant,
    norm_form,
)
from .poly import (
    PolyError,
    QQ,
    SparsePoly,
    from_dense,
    gcd_multivar,
    resultant,
    squarefree_part_multivar,
)
from .polytope import (
    EdgeRecord,
    LatticePolygon,
    apply_transform,
    compute_lattice_basis,
    minkowski_sum,
    newton_polygon,
    test_number_of_roots,
    toric_transform,
    _face_contains_origin,
)
from .realroots import (
    SHEAR_CANDIDATES,
    ShearError,
    compare,
    isolate_real_roots,
    sheared_resultant,
    _shear,
)

FIELD_REAL = "R"
FIELD_COMPLEX = "C"


@dataclass(frozen=True)
class Options:
    mv_optimization: bool = True
    method: str = "resultant"  # or "fulton"
    seed: int = 0


@dataclass(frozen=True)
class Provenance:
    edge_index: int
    endpoints: tuple
    flags: dict
    source: str  # semi-origin | origin | pertinent
    method: str
    rho_index: int | None = None


@dataclass
class JelonekSet:
    components: list[Component]
    translation: tuple[int, int]
    field: str
    mv_skipped: bool
    edges: list[EdgeRecord]


class NotDominantError(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def check_dominant(f1: SparsePoly, f2: SparsePoly) -> tuple[bool, str]:
    """Dominance: a nonzero Jacobian determinant.

    It also gives the Newton polygons of f1 and f2, each with the origin
    added, a positive mixed volume: were one of them a point, or both
    segments on one line through the origin, f1 and f2 would be polynomials
    in one monomial.
    """
    if f1.is_zero() or f2.is_zero():
        return False, "a coordinate polynomial is zero"
    if jacobian_det(f1, f2).is_zero():
        return False, "Jacobian determinant is identically zero"
    return True, "dominant"


def preprocess_translate(f1: SparsePoly, f2: SparsePoly, seed: int = 0) -> tuple[SparsePoly, SparsePoly, tuple[int, int]]:
    """Shift the map by a constant vector so both constant terms are nonzero."""
    rng = random.Random(seed)
    shift = []
    for f in (f1, f2):
        c = f.eval_rational({"x1": QQ(0), "x2": QQ(0)}).constant_value()
        if c != 0:
            shift.append(0)
        else:
            a = rng.randrange(1, 9)
            shift.append(a)
    a1, a2 = shift
    return f1 + SparsePoly.constant(a1, f1.vars), f2 + SparsePoly.constant(a2, f2.vars), (a1, a2)


# -- semi-origin edges ---------------------------------------------------------


def _edge_parameter_direction(edge: EdgeRecord) -> tuple[int, int]:
    """Primitive direction for the common parameter monomial t = x^e.

    Oriented away from the origin when a summand contains it, so that
    restricted polynomials expand with their nonzero constant term first.
    """
    p, q = edge.endpoints
    d = (q[0] - p[0], q[1] - p[1])
    g = gcd(abs(d[0]), abs(d[1]))
    e = (d[0] // g, d[1] // g)
    for face in (edge.summand1, edge.summand2):
        if len(face) == 2 and _face_contains_origin(face):
            other = face[1] if face[0] == (0, 0) else face[0]
            # orient from the origin into the quadrant
            if other[0] * e[0] + other[1] * e[1] < 0:
                e = (-e[0], -e[1])
            return e
    # no origin-bearing one-dimensional summand: orient into the nonnegative span
    if e[0] < 0 or (e[0] == 0 and e[1] < 0):
        e = (-e[0], -e[1])
    return e


def _restricted_coefficients(f: SparsePoly, face, e: tuple[int, int]) -> list[Fraction]:
    """Coefficients a_0..a_k of f restricted to the face, along direction e."""
    pts = list(face)
    if len(pts) == 1:
        base = pts[0]
        steps = 0
    else:
        k0 = pts[0][0] * e[0] + pts[0][1] * e[1]
        k1 = pts[1][0] * e[0] + pts[1][1] * e[1]
        if k0 > k1:
            pts = [pts[1], pts[0]]
        base = pts[0]
        span = (pts[1][0] - pts[0][0], pts[1][1] - pts[0][1])
        steps = span[0] // e[0] if e[0] != 0 else span[1] // e[1]
        if steps < 1 or (span[0] != steps * e[0]) or (span[1] != steps * e[1]):
            raise PolyError("face not aligned with the parameter direction")
    coeffs = [QQ(0)] * (steps + 1)
    i1, i2 = f._idx("x1"), f._idx("x2")
    for exps, c in f.terms.items():
        p = (exps[i1], exps[i2])
        rel = (p[0] - base[0], p[1] - base[1])
        # p = base + j*e for integer j in range?
        j = None
        if e[0] != 0 and rel[0] % e[0] == 0:
            jj = rel[0] // e[0]
            if rel == (jj * e[0], jj * e[1]):
                j = jj
        elif e[0] == 0 and rel[0] == 0 and e[1] != 0 and rel[1] % e[1] == 0:
            j = rel[1] // e[1]
        if j is not None and 0 <= j <= steps:
            coeffs[j] += c
    if coeffs[0] == 0:
        raise PolyError("face base vertex carries no coefficient")
    return coeffs


def _linear_image(P: SparsePoly, Q: SparsePoly) -> SparsePoly | None:
    """If the parametric image (P(t), Q(t)) is a line, its defining equation."""
    y1 = SparsePoly.variable("y1", P.vars)
    y2 = SparsePoly.variable("y2", P.vars)
    dP, dQ = P.degree("t"), Q.degree("t")
    if dP <= 0:
        return (y1 - P).normalized()
    if dQ <= 0:
        return (y2 - Q).normalized()
    # line iff Q = u*P + v for rational u, v
    if dP != dQ:
        return None
    u = Q.coeff_of("t", dQ).constant_value() / P.coeff_of("t", dP).constant_value()
    rem = Q - P.scale(u)
    if rem.degree("t") > 0:
        return None
    v = rem.constant_value() if not rem.is_zero() else QQ(0)
    return (y2 - y1.scale(u) - SparsePoly.constant(v, P.vars)).normalized()


def semi_origin_components(f1: SparsePoly, f2: SparsePoly, edge: EdgeRecord, fld: str,
                           method: str = "resultant") -> list[Component]:
    """Components contributed by a semi-origin infinity edge."""
    e = _edge_parameter_direction(edge)
    a_coeffs = _restricted_coefficients(f1, edge.summand1, e)
    b_coeffs = _restricted_coefficients(f2, edge.summand2, e)
    vars_ = f1.vars
    P1 = from_dense(a_coeffs, "t", vars_)
    P2 = from_dense(b_coeffs, "t", vars_)
    o1 = _face_contains_origin(edge.summand1)
    o2 = _face_contains_origin(edge.summand2)
    prov = Provenance(edge_index=edge.index, endpoints=edge.endpoints, flags=edge.flags(),
                      source="origin" if edge.origin else "semi-origin", method=method)
    out: list[Component] = []
    if o1 and o2:
        line = _linear_image(P1, P2)
        if line is not None:
            out.append(Component(defining=line, provenance=[prov], realness=_semi_realness(fld)))
        else:
            out.append(Component(defining=None, param=(P1, P2), provenance=[prov],
                                 realness=_semi_realness(fld)))
        return out
    if not o1:
        # roots of P1 give horizontal lines y2 = P2(tau)
        out.extend(_line_family(P1, P2, "y2", fld, prov, vars_))
    if not o2:
        out.extend(_line_family(P2, P1, "y1", fld, prov, vars_))
    return out


def _semi_realness(fld: str) -> str:
    return "confirmed-nonempty" if fld == FIELD_REAL else "not-applicable"


def _line_family(P: SparsePoly, Q: SparsePoly, target_var: str, fld: str,
                 prov: Provenance, vars_) -> list[Component]:
    """Lines {target = Q(tau)} over the nonzero roots tau of P in the field."""
    out: list[Component] = []
    if P.degree("t") < 1:
        return out
    yv = SparsePoly.variable(target_var, vars_)
    if fld == FIELD_COMPLEX:
        R = resultant(yv - Q, P, "t")
        if R.is_zero():
            raise PolyError("implicit line family collapsed")
        defining = squarefree_part_multivar(R)
        out.append(Component(defining=defining, provenance=[prov], realness="not-applicable"))
        return out
    # real field: one line per nonzero real root, exact coefficients
    # (P(0) != 0: _restricted_coefficients rejects a zero constant term)
    for idx, (root, _) in enumerate(isolate_real_roots(P, "t")):
        minpoly = None
        if root.is_rational():
            val = Q.eval_rational({"t": root.as_fraction()}).constant_value()
            defining = (yv - SparsePoly.constant(val, vars_)).normalized()
        else:
            minpoly = root.minpoly_sparse("a", vars_)
            Qa = Q.subs_poly("t", SparsePoly.variable("a", vars_))
            defining = ExtContext(minpoly, "a").reduce(yv - Qa)
        out.append(Component(defining=defining, minpoly=minpoly,
                             provenance=[replace(prov, rho_index=idx)],
                             realness="confirmed-nonempty", rho=root))
    return out


# -- pertinent edges -----------------------------------------------------------


def edge_transform(f1: SparsePoly, f2: SparsePoly, edge: EdgeRecord, A: LatticePolygon) -> EdgeSystem:
    """Toric transform of f - y along a pertinent edge, plus boundary data.

    f1 and f2 have nonzero constant terms, as ``preprocess_translate`` leaves
    them, and A is the Minkowski sum of their Newton polygons.
    """
    if not edge.pertinent:
        raise PolyError("edge transform requires a pertinent edge")
    basis = compute_lattice_basis(edge, A)
    tr = toric_transform(basis)
    y1 = SparsePoly.variable("y1", f1.vars)
    y2 = SparsePoly.variable("y2", f1.vars)
    g1 = apply_transform(f1 - y1, tr.U)
    g2 = apply_transform(f2 - y2, tr.U)
    s1 = g1.eval_rational({"z2": QQ(0)})
    s2 = g2.eval_rational({"z2": QQ(0)})
    if s1.vars_present() & {"y1", "y2"} or s2.vars_present() & {"y1", "y2"}:
        raise PolyError("pertinent edge slice depends on the target variables")
    if s1.is_zero() or s2.is_zero():
        raise PolyError("degenerate boundary slice")
    # g(0) != 0.  The z1-exponent of a term is its first coordinate in the
    # basis (v, w), shifted so that the least one is 0.  That coordinate is
    # least over A at the anchor vertex of the edge, so over each summand at
    # a vertex of its edge face, and the slice keeps that vertex's term.
    g = gcd_multivar(s1, s2)
    return EdgeSystem(g1=g1, g2=g2, g=g.normalized(), transform=tr, edge=edge)


# -- orchestration ---------------------------------------------------------------


def sparse_jelonek_2(f1: SparsePoly, f2: SparsePoly, fld: str = FIELD_COMPLEX,
                     options: Options = Options()) -> JelonekSet:
    """The set of non-properness of (f1, f2), decomposed per edge."""
    ok, reason = check_dominant(f1, f2)
    if not ok:
        raise NotDominantError(reason)
    t1, t2, shift = preprocess_translate(f1, f2, options.seed)
    A1 = newton_polygon(t1)
    A2 = newton_polygon(t2)
    A, records = minkowski_sum(A1, A2)
    if A.dim() < 2:
        raise NotDominantError("Minkowski sum is degenerate")
    components: list[Component] = []
    for edge in records:
        if edge.semi_origin and edge.infinity:
            components.extend(semi_origin_components(t1, t2, edge, fld, options.method))
    pertinent = [e for e in records if e.pertinent and e.infinity]
    mv_skipped = False
    pending: list[tuple[EdgeSystem, Component]] = []
    if pertinent:
        if options.mv_optimization and test_number_of_roots(t1, t2, options.seed) is True:
            mv_skipped = True
        else:
            for edge in pertinent:
                sys = edge_transform(t1, t2, edge, A)
                prov = Provenance(edge_index=edge.index, endpoints=edge.endpoints,
                                  flags=edge.flags(), source="pertinent", method=options.method)
                route = ms_fulton_all if options.method == "fulton" else ms_resultant
                for comp in route(sys, fld):
                    comp.provenance.append(prov)
                    components.append(comp)
                    if fld == FIELD_REAL:
                        pending.append((sys, comp))
    if fld == FIELD_REAL and pending:
        _run_emptiness_phase(t1, t2, components, pending, options.seed)
    merged = _merge_components(components)
    final = [_back_translate(c, shift) for c in merged]
    return JelonekSet(components=final, translation=shift, field=fld,
                      mv_skipped=mv_skipped, edges=records)


def _run_emptiness_phase(f1, f2, components: list[Component],
                         pending: list[tuple[EdgeSystem, Component]], seed: int) -> None:
    """Two-phase contract: all components first, then decide realness."""
    norms = []
    for c in components:
        try:
            norms.append((c, _component_norm(c)))
        except PolyError:
            norms.append((c, None))
    for sys, comp in pending:
        mine = _component_norm(comp)
        others = [n for c, n in norms if c is not comp and n is not None and n != mine]
        comp.realness = emptiness_test(comp, sys, f1, f2, others, seed)


def _component_norm(c: Component) -> SparsePoly:
    if c.defining is None:
        return implicitize_param(*c.param)
    return norm_form(c.defining, c.minpoly)


def _merge_components(components: list[Component]) -> list[Component]:
    out: list[Component] = []
    for c in components:
        target = None
        for existing in out:
            if _same_component(existing, c):
                target = existing
                break
        if target is None:
            out.append(c)
        else:
            target.provenance.extend(c.provenance)
            if c.realness == "confirmed-nonempty" or target.realness in ("undetermined",):
                if c.realness != "undetermined":
                    target.realness = c.realness
    return out


def _same_component(a: Component, b: Component) -> bool:
    if a.param is not None or b.param is not None:
        return a.param == b.param
    if a.defining.normalized() != b.defining.normalized():
        return False
    if a.minpoly is None or b.minpoly is None:
        return a.minpoly is b.minpoly
    return (a.minpoly.normalized() == b.minpoly.normalized()
            and (a.rho is None or b.rho is None or compare(a.rho, b.rho) == 0))


def _back_translate(c: Component, shift: tuple[int, int]) -> Component:
    a1, a2 = shift
    if a1 == 0 and a2 == 0:
        return c
    defining = c.defining
    if defining is not None:
        y1 = SparsePoly.variable("y1", defining.vars)
        y2 = SparsePoly.variable("y2", defining.vars)
        defining = defining.subs_poly("y1", y1 + SparsePoly.constant(a1, defining.vars))
        defining = defining.subs_poly("y2", y2 + SparsePoly.constant(a2, defining.vars))
        defining = defining.normalized() if c.minpoly is None else defining
    param = c.param
    if param is not None:
        P, Q = param
        param = (P - SparsePoly.constant(a1, P.vars), Q - SparsePoly.constant(a2, Q.vars))
    return replace(c, defining=defining, param=param)


# -- baseline, degree bound, implicitization ------------------------------------


def jelonek_2_baseline(f1: SparsePoly, f2: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
    """The classical product of extreme resultant coefficients.

    Returns (raw product, normalized squarefree part); its zero locus
    contains the complex set of non-properness.
    """
    ok, reason = check_dominant(f1, f2)
    if not ok:
        raise NotDominantError(reason)
    y1 = SparsePoly.variable("y1", f1.vars)
    y2 = SparsePoly.variable("y2", f1.vars)
    G1 = f1 - y1
    G2 = f2 - y2
    r1 = resultant(G1, G2, "x2")
    r2 = resultant(G1, G2, "x1")
    if r1.is_zero() or r2.is_zero():
        raise PolyError("baseline resultant vanished")
    p1 = r1.leading_coeff_wrt("x1") if r1.degree("x1") > 0 else r1
    p2 = r2.leading_coeff_wrt("x2") if r2.degree("x2") > 0 else r2
    raw = p1 * p2
    if raw.is_constant():
        return raw, SparsePoly.constant(1, raw.vars)
    return raw, squarefree_part_multivar(raw)


def generic_fiber_size(f1: SparsePoly, f2: SparsePoly, seed: int = 0) -> int:
    """Cardinality of a generic fiber, certified at a verified-generic point."""
    rng = random.Random(seed)
    for attempt in range(24):
        q1 = QQ(rng.randrange(-99, 100), rng.randrange(1, 9))
        q2 = QQ(rng.randrange(-99, 100), rng.randrange(1, 9))
        F1 = f1 - SparsePoly.constant(q1, f1.vars)
        F2 = f2 - SparsePoly.constant(q2, f1.vars)
        if not gcd_multivar(F1, F2).is_constant():
            continue
        for s in SHEAR_CANDIDATES:
            try:
                R, factors = sheared_resultant(_shear(F1, s), _shear(F2, s))
            except ShearError:
                continue
            if R.is_constant() or any(mult > 1 for _, mult in factors):
                continue  # generic fibers are nonempty and simple; resample
            return R.degree("x1")
    raise PolyError("could not certify a generic fiber")


def degree_bound(f1: SparsePoly, f2: SparsePoly, seed: int = 0) -> Fraction:
    """Upper bound on the degree of the complex set of non-properness."""
    ok, reason = check_dominant(f1, f2)
    if not ok:
        raise NotDominantError(reason)
    mu = generic_fiber_size(f1, f2, seed)
    d1 = f1.total_degree()
    d2 = f2.total_degree()
    return QQ(d1 * d2 - mu, min(d1, d2))


def implicitize_param(P: SparsePoly, Q: SparsePoly) -> SparsePoly:
    """Implicit equation of the parametric curve (y1, y2) = (P(t), Q(t))."""
    if P.degree("t") <= 0 and Q.degree("t") <= 0:
        raise PolyError("constant parametrization")
    y1 = SparsePoly.variable("y1", P.vars)
    y2 = SparsePoly.variable("y2", P.vars)
    R = resultant(y1 - P, y2 - Q, "t")
    if R.is_zero():
        raise PolyError("implicitization collapsed")
    return squarefree_part_multivar(R)
