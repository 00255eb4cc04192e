"""Independent numeric oracles used by the test suite.

The escape oracle decides whether a candidate component attracts real
escapes: it follows the real solutions of f - y_k = 0 as y_k approaches a
sample point on the component and watches their norms.  High-precision
arithmetic (mpmath on exactly specialized resultants) keeps it reliable at
step sizes far beyond double precision.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import cmp_to_key

import mpmath as mp

from jelonek.extension import ExtContext
from jelonek.multiplicity import (FULTON_INFINITY, fulton_multiplicity, jacobian_det, _has_parameters,
                                  _shift_to_a, _z1_to_a)
from jelonek.polytope import LatticePolygon, _cross, _on_segment
from jelonek.poly import (
    PolyError,
    SparsePoly,
    coeffs_wrt,
    content_wrt,
    dense_int,
    dense_squarefree,
    exact_div,
    from_dense,
    gcd_multivar,
    resultant,
    resultant_and_penultimate,
    squarefree_part_multivar,
)
from jelonek.realroots import (
    SHEAR_CANDIDATES,
    RealAlgebraic,
    at_root,
    compare,
    isolate_real_roots,
    rational_between,
    rational_roots,
    sign_at_dense,
    _shear,
)

ESCAPE_NORM = 1e6


def polygon_contains(A: LatticePolygon, p: tuple[int, int]) -> bool:
    v = A.vertices
    if len(v) == 1:
        return p == v[0]
    if len(v) == 2:
        return _on_segment(v[0], v[1], p)
    return all(_cross(a, b, p) >= 0 for a, b in A.edges())


def lattice_points(A: LatticePolygon) -> list[tuple[int, int]]:
    """Every integer point of the polygon A, by brute force over its box."""
    xs = [x for x, _ in A.vertices]
    ys = [y for _, y in A.vertices]
    return [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
            if polygon_contains(A, (x, y))]


def divides(q: SparsePoly, p: SparsePoly) -> bool:
    """True iff q divides p exactly (q nonzero)."""
    try:
        exact_div(p, q)
        return True
    except PolyError:
        return False


def grlex_exact_div(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Reference exact division: cancel the graded-lex leading term of the
    remainder until it vanishes, on ``SparsePoly`` arithmetic.

    Raises :class:`PolyError` when a quotient term would need a negative
    exponent, which for rational coefficients is exactly when q does not
    divide p with a polynomial quotient.
    """
    if q.is_zero():
        raise PolyError("division by zero polynomial")
    if p.is_zero():
        return p
    lead_q, lc_q = q.leading_term()
    rem = p
    quot: dict[tuple[int, ...], F] = {}
    while not rem.is_zero():
        lead_r, lc_r = rem.leading_term()
        e = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(x < 0 for x in e):
            raise PolyError("not divisible")
        c = lc_r / lc_q
        quot[e] = quot.get(e, F(0)) + c
        rem = rem - q * SparsePoly({e: c}, p.vars)
    return SparsePoly(quot, p.vars)


def squarefree_part_by_partials(p: SparsePoly) -> SparsePoly:
    """Reference squarefree part: p divided by its gcd with every first
    partial derivative, normalized."""
    if p.is_zero():
        raise PolyError("zero polynomial")
    g = p
    for v in sorted(p.vars_present()):
        d = p.derivative(v)
        if d.is_zero():
            continue
        g = gcd_multivar(g, d)
        if g.is_constant():
            break
    if g.is_constant():
        return p.normalized()
    return exact_div(p, g).normalized()


def content_by_coefficient_gcd(p: SparsePoly, inner_vars) -> tuple[SparsePoly, SparsePoly]:
    """Reference content_wrt: the gcd, by ``gcd_multivar``, of p's
    coefficients over the outer monomials, one ``SparsePoly`` each,
    normalized; the primitive part by the multivariate ``exact_div``."""
    coeffs = coeffs_wrt(p, inner_vars)
    content = coeffs[0]
    for c in coeffs[1:]:
        content = gcd_multivar(content, c)
    content = content.normalized()
    return content, exact_div(p, content)


def resultant_certifies_coprime(f: SparsePoly, g: SparsePoly, u: str, v: str) -> bool:
    """True when u does not divide both f and g and Res_v(f, g) != 0.  Both
    vanish at the origin, so if they pass the first test not both are v-free."""
    return (f.min_degree(u) == 0 or g.min_degree(u) == 0) and not resultant(f, g, v).is_zero()


def fulton_oracle(f: SparsePoly, g: SparsePoly, zvars=("z1", "z2")):
    """Reference Fulton recursion at the z-origin over Q(y1, y2), on
    ``SparsePoly`` arithmetic: ``(mult, conditions)`` as the library's
    recursion gives them, the conditions up to rational multiples.

    A shared component through the origin is ruled out by
    :func:`resultant_certifies_coprime`, and by gcd(f, g) when that fails.
    The content in y1, y2 is divided out after each division by v and each
    step.
    """
    u, v = zvars

    def origin_value(p):
        return p.eval_rational({u: F(0), v: F(0)})

    def strip(p):
        return content_wrt(p, [x for x in p.vars if x not in zvars])[1] if _has_parameters(p) else p

    if origin_value(f).is_zero() and origin_value(g).is_zero():
        if f.is_zero() or g.is_zero():
            return FULTON_INFINITY, []
        if not resultant_certifies_coprime(f, g, u, v):
            h = gcd_multivar(f, g)
            if not h.is_constant() and origin_value(h).is_zero():
                return FULTON_INFINITY, []
    conditions: list[SparsePoly] = []
    mult = 0
    for _ in range(5000):
        f00, g00 = origin_value(f), origin_value(g)
        if not f00.is_zero() or not g00.is_zero():
            return mult, conditions + [val for val in (f00, g00) if _has_parameters(val)]
        pf, pg = f.eval_rational({v: F(0)}), g.eval_rational({v: F(0)})
        if pf.is_zero() and pg.is_zero():
            raise PolyError("v divides both operands after the shared-component check")
        if pf.is_zero():
            f = strip(exact_div(f, SparsePoly.variable(v, f.vars)))
            nu = pg.min_degree(u)
            tc = pg.coeff_of(u, nu)
            if _has_parameters(tc):
                conditions.append(tc)
            mult += nu
        elif pg.is_zero() or pf.degree(u) > pg.degree(u):
            f, g = g, f
        else:
            df, dg = pf.degree(u), pg.degree(u)
            mono = SparsePoly.monomial({u: dg - df}, 1, f.vars)
            h = g * pf.coeff_of(u, df) - f * pg.coeff_of(u, dg) * mono
            if h.is_zero():
                raise PolyError("f divides g after the shared-component check")
            f, g = strip(h), f
    raise PolyError("multiplicity recursion failed to terminate")


def odd_jump_oracle(sys, J: SparsePoly, rho: RealAlgebraic, p: tuple[F, F], rng, draws: int = 40):
    """The odd-jump certificate by a reference point: True when the
    multiplicity at (rho, 0) of the edge system ``sys`` specialized at the
    rational point p on the component J = 0 exceeds that at a certified
    generic point q by an odd number, False when by an even one, and None
    when no draw is certified or a multiplicity is infinite.

    The multiplicity jumps only where J1 = R12(rho) and J2 both vanish: R12
    is Res_z2(g1, g2) with its content in z1 divided out, and J2 is
    Res_z1(g1, g2) with its content in z2 divided out, at z2 = 0.  So a
    random q off J where J1 or J2 is nonzero carries the generic
    multiplicity.  At an irrational rho, J1 has coefficients in
    Q[a]/(rho's dense form), and its value at q vanishes where its sign at
    rho is 0.  The multiplicity at a rational rho is :func:`fulton_oracle`'s
    after the shift z1 -> z1 + rho, and the library's recursion over Q(rho)
    otherwise.
    """
    R1, R2 = resultant(sys.g1, sys.g2, "z2"), resultant(sys.g1, sys.g2, "z1")
    R12 = content_wrt(R1, ["z1"])[1]
    J2 = content_wrt(R2, ["z2"])[1].eval_rational({"z2": 0})
    if rho.is_rational():
        J1 = R12.eval_rational({"z1": rho.as_fraction()})
    else:
        J1 = ExtContext(from_dense(rho.dense, "a", R12.vars)).reduce(_z1_to_a(R12))

    def vanishes(P, q):
        v = P.eval_rational({"y1": q[0], "y2": q[1]})
        return v.is_zero() or (not v.is_constant() and sign_at_dense(dense_int(v, "a"), rho) == 0)

    def mu(pt):
        at = {"y1": pt[0], "y2": pt[1]}
        g1, g2 = sys.g1.eval_rational(at), sys.g2.eval_rational(at)
        if rho.is_rational():
            shift = SparsePoly.variable("z1", g1.vars) + SparsePoly.constant(rho.as_fraction(), g1.vars)
            return fulton_oracle(g1.subs_poly("z1", shift), g2.subs_poly("z1", shift))[0]
        G1, G2 = _shift_to_a(g1, g2)
        return at_root(rho, lambda ctx: fulton_multiplicity(G1, G2, ctx=ctx), variables=G1.vars)[1]

    for _ in range(draws):
        q = (F(rng.randrange(-60, 61), rng.randrange(1, 8)), F(rng.randrange(-60, 61), rng.randrange(1, 8)))
        if vanishes(J, q) or (vanishes(J1, q) and vanishes(J2, q)):
            continue
        mu_p, mu_q = mu(p), mu(q)
        if FULTON_INFINITY in (mu_p, mu_q):
            return None
        return (mu_p - mu_q) % 2 == 1
    return None


def _decomposition_squarefree_part(p: SparsePoly, var: str) -> SparsePoly:
    """Product of the squarefree factors of a univariate polynomial, normalized."""
    acc = SparsePoly.constant(1, p.vars)
    for f, _ in dense_squarefree(dense_int(p, var)):
        acc = acc * from_dense(f, var, p.vars)
    return acc.normalized()


def euclid_gcd(a: list[F], b: list[F]) -> list[F]:
    """Reference univariate gcd: Euclid's algorithm on ascending ``Fraction``
    coefficient lists, monic; [] only for gcd(0, 0)."""
    a, b = list(a), list(b)
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            k = len(a) - len(b)
            a = [c - q * b[i - k] if i >= k else c for i, c in enumerate(a)][:-1]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a] if a else a


def discriminant_curve_oracle(f1: SparsePoly, f2: SparsePoly) -> SparsePoly:
    """Reference discriminant curve: a nonzero polynomial in (y1, y2) vanishing
    on the critical values of the map, with both targets symbolic.

    Eliminates x2, then x1, from {f1 - y1, f2 - y2, det Jac}, dividing out a
    gcd where an elimination collapses.  The result may carry extra
    components: the intro map's curve holds the lines y1 = 1 and y2 = 5,
    although its only critical value is (1, 5).
    """
    y1 = SparsePoly.variable("y1", f1.vars)
    y2 = SparsePoly.variable("y2", f1.vars)
    jac = jacobian_det(f1, f2)
    if jac.is_zero():
        raise PolyError("map is not dominant")
    if jac.is_constant():
        return SparsePoly.constant(1, f1.vars)
    polys = [f1 - y1, f2 - y2, jac]
    collected: list[SparsePoly] = []

    def reduce_poly(p: SparsePoly) -> SparsePoly | None:
        # peel off target-only content (a valid factor of the projection)
        # and drop multiplicities; the zero set is what matters here
        if p.is_constant():
            return None
        if not (p.vars_present() - {"y1", "y2"}):
            collected.append(p)
            return None
        if p.vars_present() & {"y1", "y2"}:
            cont, prim = content_wrt(p, ["y1", "y2"])
            if not cont.is_constant():
                collected.append(cont)
            p = prim
        return squarefree_part_multivar(p)

    polys = [q for q in (reduce_poly(p) for p in polys) if q is not None]
    for var in ("x2", "x1"):
        with_var = [p for p in polys if p.degree(var) > 0]
        without = [p for p in polys if p.degree(var) <= 0]
        if not with_var:
            polys = without
            continue
        pivot = with_var[-1]
        new = []
        for p in with_var[:-1]:
            r = resultant(p, pivot, var)
            if r.is_zero():
                g = gcd_multivar(p, pivot)
                r = resultant(exact_div(p, g), pivot, var)
                if r.is_zero():
                    raise PolyError("discriminant elimination collapsed")
            r = reduce_poly(r)
            if r is not None:
                new.append(r)
        polys = new + without
    D = SparsePoly.constant(1, f1.vars)
    for p in polys + collected:
        if p.vars_present() - {"y1", "y2"}:
            raise PolyError("discriminant elimination left source variables")
        D = D * p
    if D.is_constant():
        return SparsePoly.constant(1, D.vars)
    return D.normalized()


def _between_numbers(a: RealAlgebraic, b: RealAlgebraic) -> F:
    """The least-height rational in the gap between the isolating intervals
    of a < b, refined until they are disjoint."""
    while a.hi >= b.lo:
        a = a.refined(a.width() / 4 if a.width() > 0 else F(1))
        b = b.refined(b.width() / 4 if b.width() > 0 else F(1))
    return rational_between(a.hi, b.lo)


def crossing_neighbours(p: RealAlgebraic, own: list[list[int]], obstacles: list[list[int]]) -> tuple[F, F]:
    """Reference scan neighbours (q-, q+) of a root p of the own factors:
    every real root of the obstacles and of the own factors is isolated,
    and q- and q+ are the least-height rationals between p and the nearest
    such root on each side, or one past p's interval refined to 1/16 when a
    side has none."""
    crossings = [r for f in obstacles + own for r, _ in isolate_real_roots(from_dense(f, "x1"), "x1")
                 if compare(r, p) != 0]
    left = [r for r in crossings if compare(r, p) < 0]
    right = [r for r in crossings if compare(r, p) > 0]
    probe = p.refined(F(1, 16))
    q_minus = _between_numbers(max(left, key=cmp_to_key(compare)), p) if left else probe.lo - 1
    q_plus = _between_numbers(p, min(right, key=cmp_to_key(compare))) if right else probe.hi + 1
    return q_minus, q_plus


def count_real_solutions_by_isolation(f1: SparsePoly, f2: SparsePoly) -> tuple[int, int]:
    """Reference real-solution count: a gcd pre-check for a shared curve,
    then a certified shear whose resultant roots are isolated as real
    algebraic numbers (rational roots extracted, intervals made disjoint)
    and tallied with their multiplicities."""
    if f1.is_zero() or f2.is_zero():
        raise PolyError("not zero-dimensional")
    if f1.is_constant() or f2.is_constant():
        return 0, 0
    if not gcd_multivar(f1, f2).is_constant():
        raise PolyError("not zero-dimensional")
    for s in SHEAR_CANDIDATES:
        F1, F2 = _shear(f1, s), _shear(f2, s)
        if any(F.degree("x2") <= 0 or not F.coeff_of("x2", F.degree("x2")).is_constant() for F in (F1, F2)):
            continue
        R, penult = resultant_and_penultimate(F1, F2, "x2")
        if R.is_zero():
            raise PolyError("not zero-dimensional")
        if R.is_constant():
            return 0, 0
        if penult.degree("x2") != 1:
            continue
        c1 = penult.coeff_of("x2", 1)
        if not c1.is_constant() and gcd_multivar(_decomposition_squarefree_part(R, "x1"), c1).degree("x1") > 0:
            continue
        roots = isolate_real_roots(R, "x1")
        return len(roots), sum(m for _, m in roots)
    raise PolyError("no generic shear found")


def _specialize_exact(sym: SparsePoly, y: tuple[F, F], var: str) -> list[F]:
    spec = sym.eval_rational({"y1": y[0], "y2": y[1]})
    if spec.is_zero():
        return []
    return [c.constant_value() for c in spec.as_univariate(var)]


def _exact_squarefree(coeffs: list[F]) -> list:
    p = from_dense(coeffs, "x1")
    if p.degree("x1") < 1:
        return coeffs
    return dense_int(_decomposition_squarefree_part(p, "x1"), "x1")


def _mp_real_roots(coeffs: list[F], dps: int = 60):
    if len(coeffs) <= 1:
        return []
    coeffs = _exact_squarefree(coeffs)
    with mp.workdps(dps):
        cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(coeffs)]
        while cs and cs[0] == 0:
            cs = cs[1:]
        if len(cs) <= 1:
            return []
        try:
            roots = mp.polyroots(cs, maxsteps=400, extraprec=260)
        except (mp.libmp.NoConvergence, ZeroDivisionError):
            return None
        return [r.real for r in roots if abs(r.imag) < mp.mpf("1e-25") * (1 + abs(r))]


def real_solutions_near(f1: SparsePoly, f2: SparsePoly, y: tuple[F, F], dps: int = 60):
    """All real solutions of f = y, found through an exact resultant."""
    y1 = SparsePoly.variable("y1", f1.vars)
    y2 = SparsePoly.variable("y2", f1.vars)
    Rsym = resultant(f1 - y1, f2 - y2, "x2")
    return _real_solutions_from_resultant(Rsym, f1, f2, y, dps)


def _mp_eval_coeff(c: SparsePoly, x1r) -> "mp.mpf":
    """Evaluate a coefficient polynomial (in x1 only) at an mpf point."""
    acc = mp.mpf(0)
    i = c._idx("x1")
    for exps, cc in c.terms.items():
        acc += mp.mpf(cc.numerator) / mp.mpf(cc.denominator) * (x1r ** exps[i])
    return acc


def _real_solutions_from_resultant(Rsym, f1, f2, y, dps=60):
    coeffs = _specialize_exact(Rsym, y, "x1")
    roots1 = _mp_real_roots(coeffs, dps)
    if roots1 is None:
        return None
    F1 = f1 - SparsePoly.constant(y[0], f1.vars)
    fiber_coeffs = F1.as_univariate("x2")
    sols = []
    with mp.workdps(dps):
        for x1r in roots1:
            vals = [_mp_eval_coeff(c, x1r) for c in fiber_coeffs]
            while vals and vals[-1] == 0:
                vals.pop()
            if len(vals) <= 1:
                continue
            try:
                roots2 = mp.polyroots(list(reversed(vals)), maxsteps=200, extraprec=120)
            except mp.libmp.NoConvergence:
                continue
            for x2r in roots2:
                if abs(x2r.imag) > mp.mpf("1e-25") * (1 + abs(x2r)):
                    continue
                val = mp.mpf(0)
                for exps, cc in f2.terms.items():
                    val += mp.mpf(cc.numerator) / mp.mpf(cc.denominator) * (x1r ** exps[0]) * (x2r.real ** exps[1])
                val -= mp.mpf(y[1].numerator) / mp.mpf(y[1].denominator)
                size = 1 + abs(x1r) ** f2.total_degree() + abs(x2r.real) ** f2.total_degree()
                if abs(val) < mp.mpf("1e-20") * size:
                    sols.append((x1r, x2r.real))
    return sols


def escape_oracle(f1: SparsePoly, f2: SparsePoly, component: SparsePoly,
                  samples: list[tuple[F, F]] | None = None, dps: int = 60) -> bool | None:
    """True if the component attracts real escapes, False if provably not,
    None when the numerics are inconclusive.

    Approaches each sample point on the component from six directions with
    exactly-represented offsets down to 1e-30 and tracks the largest real
    solution norm.  A direction whose norm passed ``ESCAPE_NORM`` at some
    scale without the consistent growth of an escape is an anomaly: an
    escape the numerics lost at the finest offsets reads that way too.
    """
    if samples is None:
        samples = _sample_points(component)
        if not samples:
            return None
    y1 = SparsePoly.variable("y1", f1.vars)
    y2 = SparsePoly.variable("y2", f1.vars)
    Rsym = resultant(f1 - y1, f2 - y2, "x2")
    directions = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)),
                  (F(1), F(1)), (F(-1), F(-1))]
    saw_escape = False
    anomalies = False
    for y_star in samples:
        for d in directions:
            norms = []
            for e in (6, 12, 18, 24, 30):
                eps = F(1, 10 ** e)
                yk = (y_star[0] + eps * d[0], y_star[1] + eps * d[1])
                sols = _real_solutions_from_resultant(Rsym, f1, f2, yk, dps)
                if sols is None:
                    return None
                norms.append(max((max(abs(a), abs(b)) for a, b in sols), default=mp.mpf(0)))
            # a genuine escape grows consistently across probe scales; an
            # isolated huge norm is a conjugate-pair artifact of the numerics
            trending = (norms[-1] > ESCAPE_NORM and norms[-3] > 0
                        and norms[-2] > 5 * norms[-3] and norms[-1] > 5 * norms[-2]
                        and norms[-2] > 100)
            if trending:
                saw_escape = True
            elif max(norms) > ESCAPE_NORM:
                anomalies = True
    if saw_escape:
        return True
    if anomalies:
        return None
    return False


def _sample_points(component: SparsePoly) -> list[tuple[F, F]]:
    out = []
    for fixed_var, free_var in (("y1", "y2"), ("y2", "y1")):
        for c in (F(1, 3), F(-7, 5), F(13, 7)):
            line = component.eval_rational({fixed_var: c})
            if line.is_zero() or line.degree(free_var) < 1:
                continue
            for r in rational_roots(line, free_var):
                pt = (c, r) if fixed_var == "y1" else (r, c)
                out.append(pt)
        if out:
            break
    return out[:3]
