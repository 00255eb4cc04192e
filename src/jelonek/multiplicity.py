"""Per-edge multiplicity sets, intersection multiplicities, emptiness tests.

Given the toric transform of a map along a pertinent edge, the locus of
target points that raise the multiplicity of a boundary solution (rho, 0)
is carved out by two resultant eliminations and a gcd.  Over the reals a
component of that locus may still fail to attract real escapes; a
three-valued emptiness test settles each component by exact counting, never
by numerics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .extension import (
    ExtContext,
    ZeroDivisor,
    ext_content_wrt,
    ext_gcd_multivar,
    with_dynamic_splitting,
)
from .poly import (
    PolyError,
    QQ,
    SparsePoly,
    content_wrt,
    dense_int,
    exact_div,
    gcd_multivar,
    resultant,
    squarefree_decomposition,
    squarefree_part_multivar,
)
from .realroots import (
    RealAlgebraic,
    compare,
    count_real_solutions,
    count_real_solutions_param,
    isolate_real_roots,
    rational_between,
    rational_roots,
    root_bound,
    sign_at,
    _root_in,
    _select_modulus_factor,
)

# the intersection multiplicity of curves that share a component through the point
FULTON_INFINITY = "infinity"


@dataclass(frozen=True)
class EdgeSystem:
    """The transformed pair along a pertinent edge plus its boundary data."""

    g1: SparsePoly
    g2: SparsePoly
    g: SparsePoly  # gcd of the z2 = 0 slices, in Z[z1]
    transform: object
    edge: object

    # The two eliminations and their content splits are computed once per
    # edge and shared by ms_resultant and every real component's shortcut.

    @cached_property
    def R1(self) -> SparsePoly:
        """Res_z2(g1, g2), a polynomial in (z1, y1, y2)."""
        return resultant(self.g1, self.g2, "z2")

    @cached_property
    def R2(self) -> SparsePoly:
        """Res_z1(g1, g2), a polynomial in (z2, y1, y2)."""
        return resultant(self.g1, self.g2, "z1")

    @cached_property
    def R12(self) -> SparsePoly:
        """R1 with its content in z1 divided out."""
        return content_wrt(self.R1, ["z1"])[1]

    @cached_property
    def J2(self) -> SparsePoly:
        """R2 with its content in z2 divided out, at z2 = 0."""
        R21, R22 = content_wrt(self.R2, ["z2"])
        if set(R21.vars_present()) - {"z2"}:
            raise PolyError("z2 content split failed")
        return R22.eval_rational({"z2": 0})


@dataclass
class Component:
    """One piece of the Jelonek set, from the edge routine that finds it to
    the output.

    ``kind`` is read off ``defining``: vertical-line, horizontal-line or
    general-curve, and parametric-curve when the piece is the image of
    ``param`` instead.
    """

    defining: SparsePoly | None  # in (y1, y2), possibly with the extension variable
    realness: str  # confirmed-nonempty | confirmed-empty | undetermined | not-applicable
    provenance: list = field(default_factory=list)  # core.Provenance, one per edge
    minpoly: SparsePoly | None = None  # minimal polynomial of the extension variable
    rho: RealAlgebraic | None = None
    param: tuple[SparsePoly, SparsePoly] | None = None
    implicit: SparsePoly | None = None  # attached by the CLI after the pipeline

    @property
    def kind(self) -> str:
        return "parametric-curve" if self.defining is None else classify_defining(self.defining)


def jacobian_det(f1: SparsePoly, f2: SparsePoly) -> SparsePoly:
    return f1.derivative("x1") * f2.derivative("x2") - f1.derivative("x2") * f2.derivative("x1")


def classify_defining(p: SparsePoly) -> str:
    has_y1 = p.degree("y1") > 0
    has_y2 = p.degree("y2") > 0
    if has_y1 and not has_y2:
        return "vertical-line" if p.degree("y1") == 1 else "general-curve"
    if has_y2 and not has_y1:
        return "horizontal-line" if p.degree("y2") == 1 else "general-curve"
    return "general-curve"


def _split_factors(J: SparsePoly) -> list[SparsePoly]:
    """Squarefree grouping of a multivariate defining polynomial over Q."""
    out: list[SparsePoly] = []
    rest = J.normalized()
    for var in ("y1", "y2"):
        if rest.is_constant():
            break
        cont, prim = content_wrt(rest, [var])
        # cont is purely in var: univariate squarefree split
        if not cont.is_constant():
            for f, _ in squarefree_decomposition(cont, var):
                out.append(f.normalized())
        rest = prim
    if not rest.is_constant():
        out.append(squarefree_part_multivar(rest))
    return out


def ms_resultant(sys: EdgeSystem, fld: str) -> list[Component]:
    """The per-edge multiplicity set as curve components.

    Complex field: one batch of components over Q via the Poisson-style
    resultant against g.  Real field: one component per real root class of
    g, with coefficients in the corresponding extension when needed;
    realness verdicts are left undetermined for the later emptiness phase.
    """
    if sys.g.degree("z1") < 1:
        return []
    if sys.R1.is_zero() or sys.R2.is_zero():
        raise PolyError("transformed system not zero-dimensional for generic y")
    R12, J2 = sys.R12, sys.J2
    if J2.is_zero():
        raise PolyError("residual factor vanishes at z2 = 0")
    gsf = squarefree_part_multivar(sys.g)
    if fld == "C":
        H = resultant(R12, gsf, "z1")
        if H.is_zero():
            raise PolyError("Poisson resultant vanished")
        return [Component(defining=f, realness="not-applicable")
                for f in _split_factors(gcd_multivar(J2, H))]
    # real branch: group real roots of g by squarefree factor
    components: list[Component] = []
    for factor, _ in squarefree_decomposition(sys.g, "z1"):
        real_roots = [r for r, _ in isolate_real_roots(factor, "z1")]
        rational = [r for r in real_roots if r.is_rational()]
        irrational = [r for r in real_roots if not r.is_rational()]
        for r in rational:
            rho = r.as_fraction()
            J1 = R12.eval_rational({"z1": rho})
            if J1.is_zero():
                raise PolyError("content split left a vanishing specialization")
            for f in _split_factors(gcd_multivar(J1, J2)):
                components.append(Component(defining=f, realness="undetermined",
                                            rho=RealAlgebraic.from_rational(rho)))
        if irrational:
            mp = factor
            # remove rational linear factors so the modulus matches the
            # irrational roots only
            for r in rational:
                z1 = SparsePoly.variable("z1", factor.vars)
                lin = (z1 - SparsePoly.constant(r.as_fraction(), factor.vars)).normalized()
                mp = exact_div(mp, lin)
            mp = _rename_z1_to_a(mp.normalized())
            J1 = _rename_z1_to_a(R12)
            for m_factor, J in with_dynamic_splitting(mp, "a", lambda ctx: ext_gcd_multivar(J1, J2, ctx)):
                for r in irrational:
                    if _root_in(dense_int(m_factor, "a"), r.lo, r.hi):
                        if J.degree("y1") <= 0 and J.degree("y2") <= 0:
                            continue
                        components.append(Component(defining=J, realness="undetermined",
                                                    minpoly=m_factor, rho=r))
    return components


def _rename_z1_to_a(p: SparsePoly) -> SparsePoly:
    i_from, i_to = p.vars.index("z1"), p.vars.index("a")
    out = {}
    for exps, c in p.terms.items():
        if exps[i_to] != 0:
            raise PolyError("extension variable already in use")
        e = list(exps)
        e[i_to] = e[i_from]
        e[i_from] = 0
        out[tuple(e)] = c
    return SparsePoly(out, p.vars)


# -- Fulton's recursive intersection multiplicity ------------------------------


def _has_parameters(p: SparsePoly) -> bool:
    return bool(p.vars_present() & {"y1", "y2"})


def _fulton(F: SparsePoly, G: SparsePoly, zvars, ctx: ExtContext | None):
    """Fulton's recursion for the intersection multiplicity at the z-origin.

    Coefficients live in Q(y1, y2), extended by Q[a]/(m) when ``ctx`` is
    given.  Returns ``(mult, conditions)``: ``mult`` is the multiplicity
    valid off the condition curves (infinity when F and G share a component
    through the origin), and ``conditions`` lists every y-dependent
    coefficient whose vanishing would raise it.  Without y1, y2 the result
    is the numeric multiplicity and ``conditions`` is empty.

    A shared component through the origin is ruled out over Q without a gcd
    when Res_v(F, G) is nonzero and u does not divide both: a nonzero
    resultant leaves only v-free common factors, and a v-free factor that
    vanishes at the origin for every y is divisible by u.  Only when this
    certificate fails, and always over an extension, is gcd(F, G) taken.
    """
    u, v = zvars

    def red(p):
        return ctx.reduce(p) if ctx is not None else p

    def origin_value(p):
        return red(p.eval_rational({u: QQ(0), v: QQ(0)}))

    F, G = red(F), red(G)
    if origin_value(F).is_zero() and origin_value(G).is_zero():
        if F.is_zero() or G.is_zero():
            return FULTON_INFINITY, []
        if ctx is not None or not _resultant_certifies_coprime(F, G, u, v):
            h = ext_gcd_multivar(F, G, ctx) if ctx is not None else gcd_multivar(F, G)
            if not h.is_constant() and origin_value(h).is_zero():
                return FULTON_INFINITY, []
    conditions: list[SparsePoly] = []
    mult = 0
    for _ in range(5000):
        f00 = origin_value(F)
        g00 = origin_value(G)
        if not f00.is_zero() or not g00.is_zero():
            conditions.extend(val for val in (f00, g00) if _has_parameters(val))
            return mult, conditions
        pF = red(F.eval_rational({v: QQ(0)}))
        pG = red(G.eval_rational({v: QQ(0)}))
        if pF.is_zero() and pG.is_zero():
            return FULTON_INFINITY, conditions
        if pF.is_zero():
            F = _strip_parameter_content(_divide_monomial(F, v), zvars, ctx)
            nu = pG.min_degree(u)
            tc = pG.coeff_of(u, nu)
            if _has_parameters(tc):
                conditions.append(tc)
            mult += nu
            continue
        if pG.is_zero():
            F, G = G, F
            continue
        dF, dG = pF.degree(u), pG.degree(u)
        if dF > dG:
            F, G = G, F
            continue
        lcF = pF.coeff_of(u, dF)
        lcG = pG.coeff_of(u, dG)
        mono = SparsePoly.monomial({u: dG - dF}, 1, F.vars)
        G = red(G * lcF - F * lcG * mono)
        if G.is_zero():
            return FULTON_INFINITY, conditions
        F, G = _strip_parameter_content(G, zvars, ctx), F
    raise PolyError("multiplicity recursion failed to terminate")


def _resultant_certifies_coprime(F: SparsePoly, G: SparsePoly, u: str, v: str) -> bool:
    """True when Res_v(F, G) != 0 and u does not divide both F and G."""
    if F.min_degree(u) > 0 and G.min_degree(u) > 0:
        return False
    try:
        return not resultant(F, G, v).is_zero()
    except PolyError:  # both v-free: no resultant to certify with
        return False


def fulton_multiplicity(F: SparsePoly, G: SparsePoly, pair=("z1", "z2"), ctx: ExtContext | None = None):
    """Intersection multiplicity of the curves F = 0, G = 0 at the origin.

    Returns a nonnegative integer, or ``FULTON_INFINITY`` when F and G share
    a component through the origin.  Coefficients may live in Q or in a
    simple extension (supply ``ctx``).
    """
    return _fulton(F, G, pair, ctx)[0]


def fulton_condition_polynomials(G1: SparsePoly, G2: SparsePoly, ctx: ExtContext | None = None,
                                 zvars=("z1", "z2")) -> tuple[int, list[SparsePoly]]:
    """Generic multiplicity at the z-origin plus the jump-condition loci.

    Runs the reduction symbolically over the parameter field: the generic
    branch computes the multiplicity valid off a finite set of condition
    curves, and every y-dependent coefficient whose vanishing would raise
    the multiplicity is emitted as a condition polynomial.
    """
    mult, conditions = _fulton(G1, G2, zvars, ctx)
    if mult == FULTON_INFINITY:
        raise PolyError("shared component through the boundary point")
    return mult, conditions


def _divide_monomial(p: SparsePoly, var: str) -> SparsePoly:
    i = p._idx(var)
    out = {}
    for exps, c in p.terms.items():
        if exps[i] < 1:
            raise PolyError("not divisible by the variable")
        e = list(exps)
        e[i] -= 1
        out[tuple(e)] = c
    return SparsePoly(out, p.vars)


def _strip_parameter_content(p: SparsePoly, zvars, ctx: ExtContext | None) -> SparsePoly:
    """Primitive part of p with respect to the z-monomials: divide out the
    gcd of the coefficient polynomials in (y1, y2[, a])."""
    if not _has_parameters(p):
        return p
    inner = [v for v in p.vars if v not in zvars]
    return ext_content_wrt(p, inner, ctx)[1] if ctx is not None else content_wrt(p, inner)[1]


# -- working at a boundary root rho ----------------------------------------------


def _shift_to_rho(g1: SparsePoly, g2: SparsePoly, rho: RealAlgebraic):
    """g1, g2 with z1 -> z1 + rho, and the modulus of rho in ``a``.

    For rational rho the shift is by the rational value and the modulus is
    None; otherwise rho is written as ``a``, a root of its minimal polynomial.
    """
    z1 = SparsePoly.variable("z1", g1.vars)
    if rho.is_rational():
        modulus = None
        shift = z1 + SparsePoly.constant(rho.as_fraction(), g1.vars)
    else:
        modulus = rho.minpoly_sparse("a", g1.vars).normalized()
        shift = z1 + SparsePoly.variable("a", g1.vars)
    return g1.subs_poly("z1", shift), g2.subs_poly("z1", shift), modulus


def _at_rho(modulus: SparsePoly | None, rho: RealAlgebraic, compute):
    """``(modulus, compute(ctx))`` with ctx the arithmetic of Q(rho).

    ctx is None when ``modulus`` is None (rational rho), else Q[a]/(modulus);
    a zero divisor narrows the modulus to the factor that holds rho, and the
    computation reruns there.
    """
    while True:
        try:
            return modulus, compute(ExtContext(modulus, "a") if modulus is not None else None)
        except ZeroDivisor as zd:
            modulus = _select_modulus_factor(zd.factor, modulus, "a", rho)


def ms_fulton(sys: EdgeSystem, rho: RealAlgebraic) -> list[Component]:
    """Multiplicity-set components for one boundary root via the symbolic
    Fulton recursion; must agree with :func:`ms_resultant` on zero sets."""
    G1, G2, modulus = _shift_to_rho(sys.g1, sys.g2, rho)
    modulus, (_, conds) = _at_rho(modulus, rho, lambda ctx: fulton_condition_polynomials(G1, G2, ctx))
    out = []
    for c in conds:
        if modulus is None:
            out.extend(Component(defining=f, realness="undetermined", rho=rho)
                       for f in _split_factors(c))
        else:
            out.append(Component(defining=c.normalized(), realness="undetermined",
                                 minpoly=modulus, rho=rho))
    return _dedup_components(out)


def ms_fulton_all(sys: EdgeSystem, fld: str) -> list[Component]:
    """Fulton-based multiplicity sets for all boundary roots.

    Real field: per real root.  Complex field: conditions are gathered over
    every factor of the squarefree part of g and pushed down to Q by norm
    forms, to compare against the resultant route.
    """
    if sys.g.degree("z1") < 1:
        return []
    if fld == "R":
        # g(0) != 0 (see edge_transform), so no boundary root is 0
        out: list[Component] = []
        for factor, _ in squarefree_decomposition(sys.g, "z1"):
            for root, _m in isolate_real_roots(factor, "z1"):
                out.extend(ms_fulton(sys, root))
        return out
    # complex: dynamic splitting over the full squarefree part
    mp = _rename_z1_to_a(squarefree_part_multivar(sys.g))
    z1 = SparsePoly.variable("z1", sys.g1.vars)
    a = SparsePoly.variable("a", sys.g1.vars)
    G1 = sys.g1.subs_poly("z1", z1 + a)
    G2 = sys.g2.subs_poly("z1", z1 + a)
    results = with_dynamic_splitting(mp, "a", lambda ctx: fulton_condition_polynomials(G1, G2, ctx))
    norms = [norm_form(c.normalized(), m_factor) for m_factor, (_, conds) in results for c in conds]
    return _dedup_components([Component(defining=f, realness="not-applicable")
                              for n in norms for f in _split_factors(n)])


def _dedup_components(comps: list[Component]) -> list[Component]:
    seen = set()
    out = []
    for c in comps:
        key = (str(c.defining), str(c.minpoly) if c.minpoly is not None else "")
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
    return out


# -- real emptiness test --------------------------------------------------------


def norm_form(defining: SparsePoly, minpoly: SparsePoly | None) -> SparsePoly:
    """A rational polynomial containing the (possibly algebraic) component."""
    if minpoly is None or defining.degree("a") <= 0:
        return defining.normalized()
    n = resultant(minpoly, defining, "a")
    if n.is_zero():
        raise PolyError("norm form collapsed")
    return n.normalized()


def _eval_y(p: SparsePoly, pt: tuple[Fraction, Fraction]) -> Fraction:
    v = p.eval_rational({"y1": pt[0], "y2": pt[1]})
    if not v.is_constant():
        raise PolyError("unexpected free variables in avoidance polynomial")
    return v.constant_value()


def _multiplicity_at_rho(sys: EdgeSystem, rho: RealAlgebraic, pt: tuple[Fraction, Fraction]):
    """Intersection multiplicity of the specialized edge system at (rho, 0)."""
    at_pt = {"y1": pt[0], "y2": pt[1]}
    G1, G2, modulus = _shift_to_rho(sys.g1.eval_rational(at_pt), sys.g2.eval_rational(at_pt), rho)
    return _at_rho(modulus, rho, lambda ctx: fulton_multiplicity(G1, G2, ctx=ctx))[1]


def _find_rational_point_on(J: SparsePoly, rng: random.Random) -> tuple[Fraction, Fraction] | None:
    """A rational point of V(J), or None."""
    candidates = [QQ(0), QQ(1), QQ(-1), QQ(2), QQ(-2), QQ(1, 2), QQ(-1, 2), QQ(3), QQ(-3)]
    candidates += [QQ(rng.randrange(-30, 31), rng.randrange(1, 6)) for _ in range(6)]
    for fixed_var, free_var in (("y1", "y2"), ("y2", "y1")):
        for c in candidates:
            line = J.eval_rational({fixed_var: c})
            if line.is_zero() or line.degree(free_var) < 1:
                continue
            roots = rational_roots(line, free_var)
            if roots:
                return (c, roots[0]) if fixed_var == "y1" else (roots[0], c)
    return None


def _critical_box_bound(J: SparsePoly) -> Fraction:
    bound = QQ(4)
    for dv in ("y1", "y2"):
        dJ = J.derivative(dv)
        if dJ.is_zero():
            continue
        for ev, keep in (("y2", "y1"), ("y1", "y2")):
            if J.degree(ev) > 0 and dJ.degree(ev) > 0:
                # J is in Q[y1, y2], so r is in Q[keep]
                r = resultant(J, dJ, ev)
                if r.degree(keep) < 1:
                    continue
                bound = max(bound, root_bound(r, keep))
            elif J.degree(ev) <= 0 and J.degree(keep) > 0:
                bound = max(bound, root_bound(J, keep))
    return bound + 1


@dataclass
class _ScanLine:
    fixed_var: str
    free_var: str
    level: Fraction


def _scan_lines(J: SparsePoly, bound: Fraction) -> list[_ScanLine]:
    lines = []
    for level in (bound, -bound):
        lines.append(_ScanLine("y2", "y1", level))
        lines.append(_ScanLine("y1", "y2", level))
    return lines


def _line_roots(p: SparsePoly, line: _ScanLine) -> list[RealAlgebraic] | None:
    restricted = p.eval_rational({line.fixed_var: line.level})
    if restricted.is_zero():
        return None  # the whole line lies inside the curve
    if restricted.degree(line.free_var) < 1:
        return []
    return [r for r, _ in isolate_real_roots(restricted, line.free_var)]


def discriminant_curve(f1: SparsePoly, f2: SparsePoly, line: _ScanLine) -> SparsePoly:
    """The discriminant of one scan line: a polynomial in the line's free
    target that vanishes at every critical value of the map on the line.

    The line's equation L = f_fixed - level is the pivot of the elimination
    of x2 and x1 from {f_free - y_free, det Jac, L}.  L splits into its
    factor d in x1 alone (vertical lines over the scan line) and the rest
    L2.  For a pivot Q, d eliminated in u = x1 and L2 in u = x2, with v the
    other variable, B = Res_u(det Jac, Q) and A = Res_u(f_free - y_free, Q)
    with its factor in v alone divided out; Q contributes Res_v(A, B).

    Every critical point on the line is a common root of the specialized
    f_free - y_free, det Jac and one Q, so its value is a root of their
    resultant.  A resultant vanishes wherever its operands share a root or
    both leading coefficients vanish, so B vanishes at the point's v.  A
    vanishes for every y_free only at a v where roots of Q run off to
    infinity; without that factor it still vanishes at every finite point
    of Q = 0 with its value, and shares no factor with B, which is in v
    alone.  So Res_v(A, B) is nonzero.  Extra roots are harmless for an
    avoidance set.  B is zero when a curve of critical points lies over the
    line; the result is then zero, and the scan skips the line.

    A point of the two-target discriminant curve (the closure of the
    critical values) on the line that this polynomial misses is a limit of
    critical values whose critical points escape to infinity.  So it is a
    point of the Jelonek set: on the component under test or on a curve
    already in ``avoid``.
    """
    f_free, f_fixed = (f1, f2) if line.free_var == "y1" else (f2, f1)
    jac = jacobian_det(f1, f2)
    y = SparsePoly.variable(line.free_var, f1.vars)
    d, L2 = content_wrt(f_fixed - SparsePoly.constant(line.level, f1.vars), ["x1"])
    D = SparsePoly.constant(1, f1.vars)
    for Q, var, other in ((d, "x1", "x2"), (L2, "x2", "x1")):
        if Q.degree(var) < 1:
            continue
        B = resultant(jac, Q, var)
        if B.is_zero():
            return B
        if B.is_constant():
            continue
        A = content_wrt(resultant(f_free - y, Q, var), [other])[1]
        D = D * resultant(A, squarefree_part_multivar(B), other)
    return D.normalized()


def _eval_possibly_ext(p: SparsePoly, pt: tuple[Fraction, Fraction], rho: RealAlgebraic) -> bool:
    """True iff p(pt) is nonzero, with extension coefficients allowed."""
    v = p.eval_rational({"y1": pt[0], "y2": pt[1]})
    if v.is_zero():
        return False
    if v.is_constant():
        return True
    if rho is None or rho.is_rational():
        raise PolyError("unexpected extension variable")
    return sign_at(v, rho, "a") != 0


def _odd_jump_shortcut(comp: Component, sys: EdgeSystem, rng: random.Random) -> str | None:
    """Odd multiplicity difference between a point on the component and a
    certified-generic reference point forces a real escape."""
    J = comp.defining.normalized()
    # the jump locus is inside V(J1) cap V(J2): a reference point where not
    # both vanish certifiably carries the generic multiplicity
    if sys.R1.is_zero() or sys.R2.is_zero():
        return None
    R12, J2 = sys.R12, sys.J2
    rho = comp.rho
    if rho.is_rational():
        J1 = R12.eval_rational({"z1": rho.as_fraction()})
    else:
        mp = rho.minpoly_sparse("a", R12.vars)
        ctx = ExtContext(mp, "a")
        J1 = ctx.reduce(_rename_z1_to_a(R12))
    p_rat = _find_rational_point_on(J, rng)
    if p_rat is None:
        return None
    for _ in range(40):
        q = (QQ(rng.randrange(-60, 61), rng.randrange(1, 8)),
             QQ(rng.randrange(-60, 61), rng.randrange(1, 8)))
        if _eval_y(J, q) == 0:
            continue
        try:
            ok1 = _eval_possibly_ext(J1, q, rho)
            ok2 = _eval_possibly_ext(J2, q, rho)
        except PolyError:
            return None
        if not (ok1 or ok2):
            continue
        mu_p = _multiplicity_at_rho(sys, rho, p_rat)
        mu_q = _multiplicity_at_rho(sys, rho, q)
        if mu_p == FULTON_INFINITY or mu_q == FULTON_INFINITY:
            return None
        if (mu_p - mu_q) % 2 == 1:
            return "confirmed-nonempty"
        return None
    return None


def emptiness_test(comp: Component, sys: EdgeSystem, f1: SparsePoly, f2: SparsePoly,
                   avoid: list[SparsePoly], seed: int = 0) -> str:
    """Decide whether a real multiplicity-set component meets the Jelonek set.

    ``comp`` comes from a pertinent edge, so it carries its boundary root
    ``rho``.  ``avoid`` holds the rational norms of the other components;
    the caller leaves out every norm equal to the component's own.
    Returns confirmed-nonempty / confirmed-empty / undetermined; failures
    always degrade to undetermined, never to a wrong verdict.
    """
    rng = random.Random(seed * 7919 + len(str(comp.defining)))
    if comp.minpoly is not None and comp.defining.degree("a") > 0:
        return "undetermined"
    J = comp.defining.normalized()

    try:
        verdict = _odd_jump_shortcut(comp, sys, rng)
        if verdict is not None:
            return verdict
    except (PolyError, ZeroDivisor):
        pass

    # full scan: point on an unbounded branch, clean neighbors, count and compare
    try:
        return _scan_and_count(J, f1, f2, avoid)
    except (PolyError, ZeroDivisor):
        return "undetermined"


def _strip_shared(p: SparsePoly, J: SparsePoly) -> SparsePoly:
    """Remove the factors of p shared with J (they are accounted separately)."""
    out = p
    while not out.is_constant():
        g = gcd_multivar(out, J)
        if g.is_constant():
            break
        out = exact_div(out, g)
    return out


def _scan_and_count(J: SparsePoly, f1: SparsePoly, f2: SparsePoly, avoid: list[SparsePoly]) -> str:
    # another component's norm may contain the component itself; its shared
    # part must not veto the scan points -- fiber regularity is certified
    # pointwise by exact counting.
    avoid = [a for a in (_strip_shared(o, J) for o in avoid) if not a.is_constant()]
    bound = _critical_box_bound(J)
    for line in _scan_lines(J, bound):
        roots = _line_roots(J, line)
        if roots is None or not roots:
            continue
        obstacles: list[RealAlgebraic] = []
        degenerate = False
        for p in avoid:
            rr = _line_roots(p, line)
            if rr is None:
                degenerate = True
                break
            obstacles.extend(rr)
        if degenerate:
            continue
        disc = discriminant_curve(f1, f2, line)
        if disc.is_zero():
            continue
        # a real critical point over a root of J shows in the count there
        # (distinct and weighted counts differ), and a non-real one leaves
        # the real count alone: only the other critical values veto
        J_line = J.eval_rational({line.fixed_var: line.level})
        obstacles.extend(_line_roots(_strip_shared(disc, J_line), line))
        for p_free in roots:
            # p must avoid the other curves and the critical values
            if any(compare(p_free, o) == 0 for o in obstacles):
                continue
            verdict = _verdict_at_point(f1, f2, line, p_free, roots, obstacles)
            if verdict is not None:
                return verdict
    return "undetermined"


def _verdict_at_point(f1: SparsePoly, f2: SparsePoly, line: _ScanLine, p_free: RealAlgebraic,
                      own_roots: list[RealAlgebraic], obstacles: list[RealAlgebraic]) -> str | None:
    crossings = obstacles + [r for r in own_roots if compare(r, p_free) != 0]
    left = [r for r in crossings if compare(r, p_free) < 0]
    right = [r for r in crossings if compare(r, p_free) > 0]
    q_side = []
    for side, pool in (("-", left), ("+", right)):
        if pool:
            nearest = pool[0]
            for r in pool[1:]:
                if (side == "-" and compare(r, nearest) > 0) or (side == "+" and compare(r, nearest) < 0):
                    nearest = r
            q_free = rational_between(nearest, p_free)
        else:
            probe = p_free.refined(QQ(1, 16))
            q_free = probe.lo - 1 if side == "-" else probe.hi + 1
        q_side.append(q_free)
    q_minus, q_plus = q_side

    def full_point(free_value: Fraction) -> tuple[Fraction, Fraction]:
        if line.fixed_var == "y2":
            return (free_value, line.level)
        return (line.level, free_value)

    def count_at(free_value: Fraction):
        pt = full_point(free_value)
        F1 = f1 - SparsePoly.constant(pt[0], f1.vars)
        F2 = f2 - SparsePoly.constant(pt[1], f1.vars)
        return count_real_solutions(F1, F2)

    dq_m, wq_m = count_at(q_minus)
    dq_p, wq_p = count_at(q_plus)
    if dq_m != wq_m or dq_p != wq_p:
        return None  # neighbors are not generic; try another scan
    # count at p itself: one coordinate algebraic
    w = SparsePoly.variable("w", f1.vars)
    if line.fixed_var == "y2":
        F1 = f1 - w
        F2 = f2 - SparsePoly.constant(line.level, f1.vars)
    else:
        F1 = f1 - SparsePoly.constant(line.level, f1.vars)
        F2 = f2 - w
    dp, wp = count_real_solutions_param(F1, F2, "w", p_free)
    if dp != wp:
        return None  # p touches a multiple fiber despite the filters
    if wp < max(wq_m, wq_p):
        return "confirmed-nonempty"
    if wp == wq_m == wq_p:
        return "confirmed-empty"
    return None
