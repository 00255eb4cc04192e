"""Independent numeric oracles used by the test suite.

The escape oracle decides whether a candidate component attracts real
escapes: it follows the real solutions of f - y_k = 0 as y_k approaches a
sample point on the component and watches their norms.  High-precision
arithmetic (mpmath on exactly specialized resultants) keeps it reliable at
step sizes far beyond double precision.
"""

from __future__ import annotations

from fractions import Fraction as F

import mpmath as mp

from jelonek.multiplicity import jacobian_det
from jelonek.polytope import LatticePolygon, _cross, _on_segment
from jelonek.poly import (
    PolyError,
    SparsePoly,
    content_wrt,
    dense_int,
    exact_div,
    from_dense,
    gcd_multivar,
    resultant,
    resultant_and_penultimate,
    squarefree_decomposition,
    squarefree_part_multivar,
)
from jelonek.realroots import SHEAR_CANDIDATES, isolate_real_roots, rational_roots, _shear

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


def _yun_squarefree_part(p: SparsePoly, var: str) -> SparsePoly:
    """Product of the Yun factors of a univariate polynomial, normalized."""
    acc = SparsePoly.constant(1, p.vars)
    for f, _ in squarefree_decomposition(p, var):
        acc = acc * f
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
        if not c1.is_constant() and gcd_multivar(_yun_squarefree_part(R, "x1"), c1).degree("x1") > 0:
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
    return dense_int(_yun_squarefree_part(p, "x1"), "x1")


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

    Approaches each sample point on the component from four directions with
    exactly-represented offsets down to 1e-30 and tracks the largest real
    solution norm.
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
            elif norms[-1] > ESCAPE_NORM:
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
