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
from math import comb, gcd, lcm

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
    dense_squarefree,
    exact_div,
    from_dense,
    gcd_multivar,
    resultant,
    squarefree_part_multivar,
    _dense_quo,
    _resultant_rows,
)
from .realroots import (
    RealAlgebraic,
    at_root,
    cauchy_bound,
    count_real_solutions,
    count_real_solutions_param,
    descartes_count,
    isolate_real_roots,
    rational_between,
    rational_roots,
    real_roots,
    sign_at_dense,
    _root_in,
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
            out.extend(from_dense(f, var, cont.vars) for f, _ in dense_squarefree(dense_int(cont, var)))
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
    if fld == "C":
        H = resultant(R12, squarefree_part_multivar(sys.g), "z1")
        if H.is_zero():
            raise PolyError("Poisson resultant vanished")
        return [Component(defining=f, realness="not-applicable")
                for f in _split_factors(gcd_multivar(J2, H))]
    # real branch: group real roots of g by squarefree factor
    components: list[Component] = []
    for factor, _ in dense_squarefree(dense_int(sys.g, "z1")):
        roots = real_roots(factor)
        rational = [r.as_fraction() for r in roots if r.is_rational()]
        irrational = [r for r in roots if not r.is_rational()]
        for rho in rational:
            J1 = R12.eval_rational({"z1": rho})
            if J1.is_zero():
                raise PolyError("content split left a vanishing specialization")
            for f in _split_factors(gcd_multivar(J1, J2)):
                components.append(Component(defining=f, realness="undetermined",
                                            rho=RealAlgebraic.from_rational(rho)))
        if irrational:
            # divide out the rational roots so the modulus holds the
            # irrational ones only
            mp = factor
            for rho in rational:
                mp = _dense_quo(mp, [-rho.numerator, rho.denominator])
            J1 = _z1_to_a(R12)
            for m_factor, J in with_dynamic_splitting(from_dense(mp, "a", R12.vars), "a",
                                                      lambda ctx: ext_gcd_multivar(J1, J2, ctx)):
                for r in irrational:
                    if _root_in(dense_int(m_factor, "a"), r.lo, r.hi):
                        if J.degree("y1") <= 0 and J.degree("y2") <= 0:
                            continue
                        components.append(Component(defining=J, realness="undetermined",
                                                    minpoly=m_factor, rho=r))
    return components


def _z1_to_a(p: SparsePoly) -> SparsePoly:
    """p with z1 written as the extension variable a."""
    return p.monomial_substitute(((1, 0), (0, 1)), ("z1", "z2"), ("a", "z2"))


# -- Fulton's recursive intersection multiplicity ------------------------------


def _has_parameters(p: SparsePoly) -> bool:
    return bool(p.vars_present() & {"y1", "y2"})


def _fulton(F: SparsePoly, G: SparsePoly, zvars, ctx: ExtContext):
    """Fulton's recursion at the z-origin over Q[a]/(m), the field of an
    irrational boundary root, and the parameters y1, y2.

    Returns ``(mult, conditions)``: ``mult`` is the multiplicity valid off
    the condition curves (infinity when F and G share a component through
    the origin, which gcd(F, G) decides), and ``conditions`` lists every
    y-dependent coefficient whose vanishing would raise it; without y1, y2
    it is empty.  The content in (y1, y2, a) is divided out after each
    division by v and each step.  Over Q, :func:`_int_fulton` runs the same
    steps on integer rows.
    """
    u, v = zvars

    def origin_value(p):
        return ctx.reduce(p.eval_rational({u: QQ(0), v: QQ(0)}))

    def strip(p):
        return ext_content_wrt(p, [x for x in p.vars if x not in zvars], ctx)[1] if _has_parameters(p) else p

    F, G = ctx.reduce(F), ctx.reduce(G)
    if origin_value(F).is_zero() and origin_value(G).is_zero():
        if F.is_zero() or G.is_zero():
            return FULTON_INFINITY, []
        h = ext_gcd_multivar(F, G, ctx)
        if not h.is_constant() and origin_value(h).is_zero():
            return FULTON_INFINITY, []
    conditions: list[SparsePoly] = []
    mult = 0
    for _ in range(5000):
        f00, g00 = origin_value(F), origin_value(G)
        if not f00.is_zero() or not g00.is_zero():
            return mult, conditions + [val for val in (f00, g00) if _has_parameters(val)]
        pF, pG = (ctx.reduce(p.eval_rational({v: QQ(0)})) for p in (F, G))
        if pF.is_zero() and pG.is_zero():
            raise PolyError("v divides both operands after the shared-component check")
        if pF.is_zero():
            F = strip(exact_div(F, SparsePoly.variable(v, F.vars)))
            nu = pG.min_degree(u)
            conditions += [tc for tc in (pG.coeff_of(u, nu),) if _has_parameters(tc)]
            mult += nu
        elif pG.is_zero() or pF.degree(u) > pG.degree(u):
            F, G = G, F
        else:
            dF, dG = pF.degree(u), pG.degree(u)
            mono = SparsePoly.monomial({u: dG - dF}, 1, F.vars)
            G = ctx.reduce(G * pF.coeff_of(u, dF) - F * pG.coeff_of(u, dG) * mono)
            if G.is_zero():
                raise PolyError("F divides G after the shared-component check")
            F, G = strip(G), F
    raise PolyError("multiplicity recursion failed to terminate")


def fulton_multiplicity(F: SparsePoly, G: SparsePoly, pair=("z1", "z2"), point=(0, 0),
                        ctx: ExtContext | None = None):
    """Intersection multiplicity at ``point`` of the curves F = 0, G = 0 in ``pair``.

    Returns a nonnegative integer, or ``FULTON_INFINITY`` when F and G share
    a component through the point.  Over Q it runs on integer rows; with
    ``ctx`` the coefficients live in Q[a]/(m) and the point is the origin.
    """
    if ctx is not None:
        return _fulton(F, G, pair, ctx)[0]
    return _rows_fulton(F, G, pair, point, ())[0]


@dataclass(frozen=True)
class _Rows:
    """Polynomials in ``pair`` = (u, v) over Z[``params``] as integer rows,
    in the format of poly._ducos: row j, the coefficient of v^j, maps a key
    to a nonzero int; zero is [{}].  The key packs the exponent of each
    parameter into a field ``width`` bits wide, the first parameter lowest,
    and the exponent of u above them all."""

    pair: tuple[str, str]
    params: tuple[str, ...]
    width: int
    variables: tuple[str, ...]

    def pack(self, p: SparsePoly, point=(0, 0)) -> list[dict[int, int]]:
        """An integer multiple of p((a + u) / q, (b + v) / s) for ``point`` =
        (a/q, b/s), which has the intersection multiplicities of p at the
        point at the origin."""
        if p.vars_present() - {*self.pair, *self.params} or any(x < 0 for e in p.terms for x in e):
            raise PolyError(f"not a polynomial in {self.pair}")
        iu, iv = p._idx(self.pair[0]), p._idx(self.pair[1])
        fields = [(p._idx(y), t * self.width) for t, y in enumerate(self.params)]
        den = lcm(*(c.denominator for c in p.terms.values()))
        terms = {(e[iu], e[iv], sum(e[i] << s for i, s in fields)): int(c * den) for e, c in p.terms.items()}
        for x in map(Fraction, point):
            # shift the first coordinate and swap the two: u^k in q^d * f((a + u) / q)
            # has the coefficient sum_i c_i * C(i, k) * a^(i-k) * q^(d-i)
            d, shifted = max((i for i, _, _ in terms), default=0), {}
            for (i, j, y), c in terms.items():
                for k in range(i + 1) if x else (i,):
                    t = c * comb(i, k) * x.numerator ** (i - k) * x.denominator ** (d - i)
                    shifted[j, k, y] = shifted.get((j, k, y), 0) + t
            terms = shifted
        # the top row of p stays nonzero, so no empty row trails
        su = self.width * len(self.params)
        rows: list[dict[int, int]] = [{} for _ in range(max((j for _, j, _ in terms), default=0) + 1)]
        for (i, j, y), c in terms.items():
            if c:
                rows[j][i << su | y] = c
        return rows

    def poly(self, rows: list[dict[int, int]]) -> SparsePoly:
        """The polynomial that :meth:`pack` turns into ``rows`` at the origin."""
        su, mask = self.width * len(self.params), (1 << self.width) - 1
        iu, iv, *iy = (self.variables.index(x) for x in (*self.pair, *self.params))
        terms = {}
        for j, row in enumerate(rows):
            for key, c in row.items():
                e = [0] * len(self.variables)
                e[iu], e[iv] = key >> su, j
                for t, i in enumerate(iy):
                    e[i] = key >> t * self.width & mask
                terms[tuple(e)] = c
        return SparsePoly(terms, self.variables)


def _rows_fulton(F: SparsePoly, G: SparsePoly, pair, point, params):
    """Fulton's recursion at the rational ``point`` for F, G over
    Q[``params``], on integer rows: ``(mult, conditions)`` as :func:`_fulton`.

    Packed fields never carry.  The exponent of u, in the top field, is
    unbounded.  A parameter field is ``width`` bits wide, its top bit a guard
    bit.  The resultant certificate (poly._resultant_rows on the packed F
    and G) forms products and subresultants of degree below (n + 2) * n * d
    in a parameter, n the larger degree in v and d the largest sum of the
    two degrees in one parameter (the bound of poly._subresultants); the
    width holds that without its guard bit.  A Fulton step multiplies rows
    whose fields are below the guard bit, so each sum fits its field, and a
    step that sets a guard bit restarts the recursion with fields twice as
    wide.  Dividing out a content only lowers exponents.
    """
    params = tuple(y for y in params if F.degree(y) > 0 or G.degree(y) > 0)
    n = max(F.degree(pair[1]), G.degree(pair[1]), 1)
    d = max([F.degree(y) + G.degree(y) for y in params] + [1])
    width = ((n + 2) * n * d).bit_length() + 1
    while True:
        rows = _Rows(pair, params, width, F.vars)
        out = _int_fulton(rows.pack(F, point), rows.pack(G, point), rows)
        if out is not None:
            return out[0], [rows.poly([c]) for c in out[1]]
        width *= 2


def _int_fulton(F: list[dict[int, int]], G: list[dict[int, int]], rows: _Rows):
    """:func:`_fulton` at the origin on integer rows packed by ``rows``.

    The integer content is divided out after each step (F / v has the
    coefficients of F), the content in the parameters also after each
    division by v, as :func:`_fulton` does.  Returns ``(mult, conditions)``
    with packed conditions, or None when a step sets a guard bit.
    """
    su = rows.width * len(rows.params)
    top = 1 << su  # keys below top have no u
    low = top - 1  # the parameter fields
    guard = sum(1 << s - 1 for s in range(rows.width, su + 1, rows.width))

    def coeff(row, i):  # the coefficient of u^i
        return {k - (i << su): c for k, c in row.items() if k >> su == i}

    def primitive(R):  # R over its content in the parameters, which is 1
        # when the coefficient of one monomial in u, v is an integer
        if not low:
            return R
        for row in R:
            mixed = {k >> su for k in row if k & low}
            if any(k >> su not in mixed for k in row if not k & low):
                return R
        return rows.pack(content_wrt(rows.poly(R), rows.params)[1])

    if min(F[0], default=top) >= top and min(G[0], default=top) >= top:  # both vanish at the origin
        if not any(F) or not any(G):
            return FULTON_INFINITY, []
        # A nonzero Res_v(F, G) leaves only v-free common factors, and a
        # v-free factor that vanishes at the origin for every parameter
        # value is divisible by u.  So when u does not divide both and
        # Res_v(F, G) != 0, no component through the origin is shared;
        # otherwise the gcd decides.
        if all(k > low for row in F + G for k in row) or not _resultant_rows(F, G):
            h = gcd_multivar(rows.poly(F), rows.poly(G))
            if not h.is_constant() and h.eval_rational(dict.fromkeys(rows.pair, QQ(0))).is_zero():
                return FULTON_INFINITY, []
    # Now F and G share no component through the origin, and no step makes
    # one: a swap, a division by the content and G -> lc(F)*G - lc(G)*u^k*F
    # keep the ideal (F, G), and F -> F/v keeps a divisor of F.  So the two
    # raises below, a shared v and F dividing G, never run.
    mult, conditions = 0, []
    for _ in range(5000):
        if min(F[0], default=top) < top or min(G[0], default=top) < top:
            return mult, conditions + [c for c in (coeff(F[0], 0), coeff(G[0], 0)) if any(c)]
        pF, pG = F[0], G[0]
        if not pF and not pG:
            raise PolyError("v divides both operands after the shared-component check")
        if not pF:
            nu = min(pG) >> su
            if low:
                conditions += [tc for tc in (coeff(pG, nu),) if any(tc)]
            F, mult = primitive(F[1:]), mult + nu
            continue
        dF, dG = max(pF) >> su, max(pG, default=-1) >> su
        if dF > dG:
            F, G = G, F
        else:
            # H = lc(F)*G - lc(G)*u^(dG - dF)*F: G times the first term of
            # lc(F) by comprehensions, the other products added term by term
            lcF = coeff(pF, dF)
            m = {k - (dF << su): -c for k, c in pG.items() if k >> su == dG}
            (k0, c0), *more = lcF.items()
            H = [{k + k0: c * c0 for k, c in g.items()} for g in G] + [{} for _ in F[len(G):]]
            for R, lc in ((G, more), (F, m.items())):
                for h, row in zip(H, R):
                    for kl, cl in lc:
                        for k, c in row.items():
                            h[k + kl] = h.get(k + kl, 0) + cl * c
            g = gcd(*(c for h in H for c in h.values()))
            if not g:
                raise PolyError("F divides G after the shared-component check")
            F, G = primitive([{k: c // g for k, c in h.items() if c} for h in H]), F
            if guard and any(k & guard for row in F for k in row):
                return None
    raise PolyError("multiplicity recursion failed to terminate")


def fulton_condition_polynomials(G1: SparsePoly, G2: SparsePoly, ctx: ExtContext | None = None,
                                 point=(0, 0)) -> tuple[int, list[SparsePoly]]:
    """Generic multiplicity at (z1, z2) = ``point`` plus the jump-condition loci.

    Runs the reduction symbolically over the parameters y1, y2: the generic
    branch computes the multiplicity valid off a finite set of condition
    curves, and every y-dependent coefficient whose vanishing would raise
    the multiplicity is emitted as a condition polynomial.  Without ``ctx``
    the coefficients are in Q[y1, y2], the point is rational and the
    recursion runs on integer rows, shifted to the point while packing.
    With ``ctx``, the arithmetic of an irrational boundary root, the point
    is the origin and the recursion runs on ``SparsePoly``s.
    """
    if ctx is None:
        mult, conditions = _rows_fulton(G1, G2, ("z1", "z2"), point, ("y1", "y2"))
    else:
        mult, conditions = _fulton(G1, G2, ("z1", "z2"), ctx)
    if mult == FULTON_INFINITY:
        raise PolyError("shared component through the boundary point")
    return mult, conditions


# -- working at a boundary root rho ----------------------------------------------


def _shift_to_a(g1: SparsePoly, g2: SparsePoly):
    """g1, g2 with z1 -> z1 + a, for an irrational boundary root written as
    ``a``, the root of the modulus that :func:`at_root` holds."""
    shift = SparsePoly.variable("z1", g1.vars) + SparsePoly.variable("a", g1.vars)
    return g1.subs_poly("z1", shift), g2.subs_poly("z1", shift)


def ms_fulton(sys: EdgeSystem, rho: RealAlgebraic) -> list[Component]:
    """Multiplicity-set components for one boundary root via the symbolic
    Fulton recursion; must agree with :func:`ms_resultant` on zero sets."""
    if rho.is_rational():
        modulus, conds = None, fulton_condition_polynomials(sys.g1, sys.g2, point=(rho.as_fraction(), 0))[1]
    else:
        G1, G2 = _shift_to_a(sys.g1, sys.g2)
        modulus, (_, conds) = at_root(rho, lambda ctx: fulton_condition_polynomials(G1, G2, ctx),
                                      variables=G1.vars)
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
    every factor of the squarefree part of g, by dynamic splitting, and
    pushed down to Q by norm forms, to compare against the resultant route.
    A linear factor's root is rational: there the recursion takes the
    unshifted g1, g2 and that point, and runs on integer rows.
    """
    if sys.g.degree("z1") < 1:
        return []
    if fld == "R":
        # g(0) != 0 (see edge_transform), so no boundary root is 0
        out: list[Component] = []
        for factor, _ in dense_squarefree(dense_int(sys.g, "z1")):
            for root in real_roots(factor):
                out.extend(ms_fulton(sys, root))
        return out

    def conditions(ctx: ExtContext):
        if ctx.deg == 1:
            c0, c1 = dense_int(ctx.minpoly, "a")
            return fulton_condition_polynomials(sys.g1, sys.g2, point=(Fraction(-c0, c1), 0))
        return fulton_condition_polynomials(*_shift_to_a(sys.g1, sys.g2), ctx)

    mp = _z1_to_a(squarefree_part_multivar(sys.g))
    results = with_dynamic_splitting(mp, "a", conditions)
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
    g1, g2 = sys.g1.eval_rational(at_pt), sys.g2.eval_rational(at_pt)
    if rho.is_rational():
        return fulton_multiplicity(g1, g2, point=(rho.as_fraction(), 0))
    G1, G2 = _shift_to_a(g1, g2)
    return at_root(rho, lambda ctx: fulton_multiplicity(G1, G2, ctx=ctx), variables=G1.vars)[1]


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
                bound = max(bound, cauchy_bound(dense_int(r, keep)))
            elif J.degree(ev) <= 0 and J.degree(keep) > 0:
                bound = max(bound, cauchy_bound(dense_int(J, keep)))
    return bound + 1


@dataclass
class _ScanLine:
    fixed_var: str
    free_var: str
    level: Fraction


def _scan_lines(bound: Fraction) -> list[_ScanLine]:
    lines = []
    for level in (bound, -bound):
        lines.append(_ScanLine("y2", "y1", level))
        lines.append(_ScanLine("y1", "y2", level))
    return lines


def _line_roots(p: SparsePoly, line: _ScanLine) -> list[RealAlgebraic] | None:
    restricted = p.eval_rational({line.fixed_var: line.level})
    if restricted.is_zero():
        return None  # the whole line lies inside the curve
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
    return sign_at_dense(dense_int(v, "a"), rho) != 0


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
        ctx = ExtContext(from_dense(rho.dense, "a", R12.vars), "a")
        J1 = ctx.reduce(_z1_to_a(R12))
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
    for line in _scan_lines(bound):
        roots = _line_roots(J, line)
        if not roots:
            continue
        on_line = [o.eval_rational({line.fixed_var: line.level}) for o in avoid]
        if any(o.is_zero() for o in on_line):
            continue
        disc = discriminant_curve(f1, f2, line)
        if disc.is_zero():
            continue
        # a real critical point over a root of J shows in the count there
        # (distinct and weighted counts differ), and a non-real one leaves
        # the real count alone: only the other critical values veto
        J_line = J.eval_rational({line.fixed_var: line.level})
        on_line.append(_strip_shared(disc, J_line))
        obstacles = [dense_int(o, line.free_var) for o in on_line if not o.is_constant()]
        own = [f for f, _ in dense_squarefree(dense_int(J_line, line.free_var))]
        for p_free in roots:
            # p must avoid the other curves and the critical values
            if any(sign_at_dense(o, p_free) == 0 for o in obstacles):
                continue
            verdict = _verdict_at_point(f1, f2, line, p_free, own, obstacles)
            if verdict is not None:
                return verdict
    return "undetermined"


def _bracket(p: RealAlgebraic, own: list[list[int]],
             obstacles: list[list[int]]) -> tuple[Fraction, RealAlgebraic, Fraction]:
    """(lo, p, hi): p refined, with no obstacle root and no own root but p
    in (lo, hi), proved by Descartes counts of 0 on every obstacle and of 1
    in sum over J's squarefree factors on the line, as eps halves from 1.
    It ends: no obstacle vanishes at p, and p is a simple root of just one
    of the coprime own factors."""
    eps = QQ(1)
    while True:
        p = p.refined(eps)
        lo, hi = p.lo - eps, p.hi + eps
        if (sum(descartes_count(f, lo, hi) for f in own) == 1
                and all(descartes_count(o, lo, hi) == 0 for o in obstacles)):
            return lo, p, hi
        eps /= 2


def _verdict_at_point(f1: SparsePoly, f2: SparsePoly, line: _ScanLine, p_free: RealAlgebraic,
                      own: list[list[int]], obstacles: list[list[int]]) -> str | None:
    lo, p_free, hi = _bracket(p_free, own, obstacles)

    def system_at(free: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
        fixed = SparsePoly.constant(line.level, f1.vars)
        y = (free, fixed) if line.fixed_var == "y2" else (fixed, free)
        return f1 - y[0], f2 - y[1]

    # the least-height rationals in the open cells on either side of p
    q_minus, q_plus = rational_between(lo, p_free.lo), rational_between(p_free.hi, hi)
    dq_m, wq_m = count_real_solutions(*system_at(SparsePoly.constant(q_minus, f1.vars)))
    dq_p, wq_p = count_real_solutions(*system_at(SparsePoly.constant(q_plus, f1.vars)))
    if dq_m != wq_m or dq_p != wq_p:
        return None  # neighbors are not generic; try another scan
    # count at p itself: one coordinate algebraic
    dp, wp = count_real_solutions_param(*system_at(SparsePoly.variable("w", f1.vars)), "w", p_free)
    if dp != wp:
        return None  # p touches a multiple fiber despite the filters
    if wp < max(wq_m, wq_p):
        return "confirmed-nonempty"
    if wp == wq_m == wq_p:
        return "confirmed-empty"
    return None
