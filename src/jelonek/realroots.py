"""Real algebraic numbers and exact real-root machinery.

Univariate real roots are isolated by Descartes sign-variation bisection on
the squarefree part, with multiplicities recovered from the squarefree
decomposition.  The bisection tree is fixed by the Cauchy bound and exact
midpoints; along it every interval carries an integer multiple of the
polynomial mapped onto (0, 1), so the tests run on ``int`` coefficients
(Collins-Akritas; Rouillier-Zimmermann) and only the interval endpoints
are ``Fraction``s.  Numbers are carried in isolating-interval representation:
a squarefree dense form (``poly.dense_int``: coprime ``int`` coefficients)
plus a rational interval containing exactly one of its roots; its sign at a
rational u/v is the sign of the integer sum c_i u^i v^(n-i), so refinement,
comparison and the gcds behind them (``poly.dense_gcd``) never evaluate in
``Fraction`` arithmetic.

Real-solution counting for zero-dimensional bivariate systems works in a
sheared coordinate generic enough that every fiber over a resultant root
carries exactly one solution; the shear is certified through the first
subresultant, never assumed (:func:`sheared_resultant`).  The counts are
the numbers of Descartes isolating intervals of the resultant's squarefree
factors, weighted by multiplicity; no root is built as a number.  At a
real algebraic parameter value alpha they are Sturm counts over Q[a]/(m)
(:func:`sturm_count_ext`), with m narrowed to the factor that holds alpha
(:func:`at_root`).  :func:`first_shear` is the one loop over the shears.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .extension import (
    ExtContext,
    ZeroDivisor,
    ext_gcd_multivar,
    ext_monic,
    ext_pseudo_rem,
    split_minpoly,
)
from .poly import (
    DEFAULT_VARS,
    PolyError,
    QQ,
    SparsePoly,
    dense_gcd,
    dense_int,
    dense_squarefree,
    from_dense,
    gcd_multivar,
    resultant_and_penultimate,
)


# -- dense univariate root isolation ----------------------------------------


def _sign_at(p: Sequence[int], x: Fraction) -> int:
    """Sign of p(x) for integer p, by Horner on sum p_i u^i v^(n-i), x = u/v."""
    u, v = x.numerator, x.denominator
    acc, vpow = 0, 1
    for c in reversed(p):
        acc = acc * u + c * vpow
        vpow *= v
    return (acc > 0) - (acc < 0)


def cauchy_bound(p: Sequence[int]) -> Fraction:
    """1 + max |a_i| / |a_n| of a dense form: every complex root has
    magnitude below this."""
    if len(p) <= 1:
        raise PolyError("bound needs a nonconstant polynomial")
    return 1 + QQ(max(abs(c) for c in p[:-1]), abs(p[-1]))


def _shift1(q: Sequence[int]) -> list[int]:
    """Taylor shift by one: coefficients of q(x + 1)."""
    out = list(q)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _on_interval(p: Sequence[int], lo: Fraction, hi: Fraction) -> list[int]:
    """D^n p(lo + (hi - lo) x), D a common denominator of lo and hi: a
    positive integer multiple of p mapped onto (0, 1), by Horner's rule."""
    den = math.lcm(lo.denominator, hi.denominator)
    a, w = int(lo * den), int((hi - lo) * den)
    q, dpow = [p[-1]], 1
    for c in reversed(p[:-1]):
        dpow *= den
        # q <- q * (a + w x) + c * den^k
        q = [a * s + w * t for s, t in zip(q + [0], [0] + q)]
        q[0] += c * dpow
    return q


def _variations(q: Sequence[int]) -> int:
    """Sign changes of (x + 1)^n q(1/(x + 1)), a bound on q's roots in (0, 1)."""
    return _sign_changes(_shift1(q[::-1]))


def descartes_count(p: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """The roots of a dense form in the open interval (lo, hi), with
    multiplicity, plus an even number: 0 proves there is none, 1 that there
    is one.  The count is 0 when no complex root lies in the disc on [lo, hi]
    and 1 when a simple root is the only one in the two circumcircles of the
    equilateral triangles on [lo, hi] (Obreshkoff), so on intervals closing
    in on x it ends at 0 if p(x) != 0 and at 1 if x is a simple root.
    """
    return _variations(_on_interval(p, lo, hi))


def isolate_squarefree_dense(p: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for all real roots of a squarefree dense form.

    Returns (lo, hi) pairs with lo == hi for exactly-hit rational roots and
    p(lo) * p(hi) < 0 otherwise.

    Descartes bisection of (-B, 0) and (0, B), B the Cauchy bound, at exact
    midpoints in LIFO order.  Each interval (a, b) carries a positive integer
    multiple q of p(a + (b - a) x), first from :func:`_on_interval`: q[0]
    and sum(q) have the signs of p(a) and p(b), and the sign changes of
    (x + 1)^n q(1/(x + 1)) bound the number of roots inside.  Halving
    takes q(x/2) 2^n; the right half is the left half shifted by one.
    """
    if len(p) <= 1:
        return []
    out: list[tuple[Fraction, Fraction]] = []
    bound = cauchy_bound(p)
    n = len(p) - 1
    if p[0] == 0:
        out.append((QQ(0), QQ(0)))
    stack = [(a, b, _on_interval(p, a, b)) for a, b in ((-bound, QQ(0)), (QQ(0), bound))]
    while stack:
        a, b, q = stack.pop()
        v = _variations(q)
        if v == 0:
            continue
        if v == 1 and q[0] != 0 and sum(q) != 0:
            out.append((a, b))
            continue
        m = (a + b) / 2
        lower = [c << (n - i) for i, c in enumerate(q)]
        upper = _shift1(lower)
        if upper[0] == 0:
            out.append((m, m))
        stack.append((a, m, lower))
        stack.append((m, b, upper))
    out.sort(key=lambda ab: ab[0])
    return out


# -- real algebraic numbers --------------------------------------------------


class RealAlgebraic:
    """A real algebraic number in isolating-interval representation."""

    __slots__ = ("dense", "lo", "hi")

    def __init__(self, dense: Sequence[int], lo: Fraction, hi: Fraction):
        self.dense = tuple(-c for c in dense) if dense[-1] < 0 else tuple(dense)
        self.lo = QQ(lo)
        self.hi = QQ(hi)
        if self.lo > self.hi:
            raise PolyError("empty interval")
        if self.lo != self.hi:
            slo = _sign_at(self.dense, self.lo)
            shi = _sign_at(self.dense, self.hi)
            if slo == 0 or shi == 0 or slo == shi:
                raise PolyError("interval does not isolate a root by sign change")

    @classmethod
    def from_rational(cls, r) -> "RealAlgebraic":
        r = QQ(r)
        return cls([-r.numerator, r.denominator], r, r)

    @property
    def degree(self) -> int:
        return len(self.dense) - 1

    def is_rational(self) -> bool:
        return self.lo == self.hi or self.degree == 1

    def as_fraction(self) -> Fraction:
        if self.lo == self.hi:
            return self.lo
        if self.degree == 1:
            return QQ(-self.dense[0], self.dense[1])
        raise PolyError("not a rational number")

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refined(self, eps: Fraction) -> "RealAlgebraic":
        """Same number, interval narrower than ``eps``."""
        if self.lo == self.hi:
            return self
        lo, hi = self.lo, self.hi
        slo = _sign_at(self.dense, lo)
        while hi - lo >= eps:
            m = (lo + hi) / 2
            sm = _sign_at(self.dense, m)
            if sm == 0:
                return RealAlgebraic(self.dense, m, m)
            if sm != slo:
                hi = m
            else:
                lo = m
        return RealAlgebraic(self.dense, lo, hi)

    def to_float(self) -> float:
        a = self.refined(QQ(1, 10 ** 12))
        return float(a.mid())

    def cmp_fraction(self, r: Fraction) -> int:
        """-1, 0, +1 as self <, ==, > r."""
        r = QQ(r)
        if self.lo == self.hi:
            return (self.lo > r) - (self.lo < r)
        if _sign_at(self.dense, r) == 0 and self.lo <= r <= self.hi:
            return 0
        a = self
        while a.lo <= r <= a.hi:
            a = a.refined(a.width() / 4)
        return 1 if a.lo > r else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        return compare(self, other) == 0

    def __hash__(self):
        raise TypeError("unhashable; compare via intervals")

    def __repr__(self) -> str:
        if self.is_rational():
            return f"RealAlgebraic({self.as_fraction()})"
        return f"RealAlgebraic(~{self.to_float():.6f})"


def _interval_eval(p: Sequence[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    mn, mx = QQ(0), QQ(0)
    for c in reversed(p):
        cands = (mn * lo, mn * hi, mx * lo, mx * hi)
        mn, mx = min(cands) + c, max(cands) + c
    return mn, mx


def sign_at_dense(dense: Sequence[int], alpha: RealAlgebraic) -> int:
    """Exact sign at alpha of the polynomial with dense form ``dense``."""
    if not dense:
        return 0
    if alpha.is_rational():
        return _sign_at(dense, alpha.as_fraction())
    g = dense_gcd(dense, alpha.dense)
    if len(g) > 1:
        glo = _sign_at(g, alpha.lo)
        ghi = _sign_at(g, alpha.hi)
        if glo == 0 or ghi == 0:
            raise PolyError("isolating interval has root endpoint")
        if glo != ghi:
            return 0
    a = alpha
    while True:
        mn, mx = _interval_eval(dense, a.lo, a.hi)
        if mn > 0:
            return 1
        if mx < 0:
            return -1
        a = a.refined(a.width() / 4 if a.width() > 0 else QQ(1))


def compare(a: RealAlgebraic, b: RealAlgebraic) -> int:
    if a.is_rational():
        return -b.cmp_fraction(a.as_fraction())
    if b.is_rational():
        return a.cmp_fraction(b.as_fraction())
    g = dense_gcd(a.dense, b.dense)
    x, y = a, b
    while not (x.hi < y.lo or y.hi < x.lo):
        if len(g) > 1:
            lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
            # equal iff the shared root sits inside the interval intersection
            if lo <= hi and _root_in(g, lo, hi):
                return 0
        x = x.refined(x.width() / 4)
        y = y.refined(y.width() / 4)
    return -1 if x.hi < y.lo else 1


def _root_in(g: Sequence[int], lo: Fraction, hi: Fraction) -> bool:
    glo, ghi = _sign_at(g, lo), _sign_at(g, hi)
    return glo == 0 or ghi == 0 or glo != ghi


def rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in the open interval (lo, hi),
    lo < hi, and the one of least absolute value among those: 0 when the
    interval holds 0, the mirror image for a negative interval, else the
    continued fraction that the two ends share, closed by the least partial
    quotient that lands inside (a walk down the Stern-Brocot tree)."""
    if lo < 0 < hi:
        return QQ(0)
    if hi <= 0:
        return -rational_between(-hi, -lo)
    quotients = []
    while True:
        n = lo.numerator // lo.denominator
        if n + 1 < hi:
            quotients.append(n + 1)
            break
        # n <= lo < hi <= n + 1: the answer is n + 1/r with r in (1/(hi - n), 1/(lo - n))
        quotients.append(n)
        if lo == n:
            quotients.append(int(1 / (hi - n)) + 1)
            break
        lo, hi = 1 / (hi - n), 1 / (lo - n)
    r = QQ(quotients.pop())
    while quotients:
        r = quotients.pop() + 1 / r
    return r


# -- isolation with multiplicities -------------------------------------------


def real_roots(p: Sequence[int]) -> list[RealAlgebraic]:
    """The real roots of a squarefree dense form, ascending, each rational
    one made exact."""
    roots = []
    for lo, hi in isolate_squarefree_dense(p):
        root = RealAlgebraic(p, lo, hi)
        r = _extract_rational(root)
        roots.append(root if r is None else RealAlgebraic.from_rational(r))
    return roots


def isolate_real_roots(p: SparsePoly, var: str) -> list[tuple[RealAlgebraic, int]]:
    """All real roots of a polynomial in ``var`` alone with multiplicities, sorted."""
    if p.is_zero():
        raise PolyError("zero polynomial")
    roots = [(r, mult) for f, mult in dense_squarefree(dense_int(p, var)) for r in real_roots(f)]
    only = [r for r, _ in roots]
    _make_disjoint(only)
    roots = [(r, m) for r, (_, m) in zip(only, roots)]
    roots.sort(key=lambda rm: (rm[0].lo, rm[0].hi))
    return roots


def _make_disjoint(roots: list[RealAlgebraic]) -> None:
    changed = True
    while changed:
        changed = False
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                a, b = roots[i], roots[j]
                if a.dense == b.dense:
                    continue  # same squarefree factor isolates distinctly
                if a.hi < b.lo or b.hi < a.lo:
                    continue
                roots[i] = a.refined(a.width() / 4 if a.width() > 0 else QQ(1))
                roots[j] = b.refined(b.width() / 4 if b.width() > 0 else QQ(1))
                changed = True


def rational_roots(p: SparsePoly, var: str) -> list[Fraction]:
    """All rational roots of a polynomial in ``var`` alone, ascending."""
    return [r.as_fraction() for r, _ in isolate_real_roots(p, var) if r.is_rational()]


def _extract_rational(alpha: RealAlgebraic) -> Fraction | None:
    """alpha as a Fraction when it is rational, else None.

    A rational root u/v of the primitive dense form has v dividing its
    leading coefficient lc, so it is k/lc for an integer k; on an interval
    narrower than 1/lc the only candidate is ceil(lo*lc)/lc.
    """
    if alpha.is_rational():
        return alpha.as_fraction()
    lc = abs(alpha.dense[-1])
    a = alpha.refined(QQ(1, lc))
    cand = QQ(math.ceil(a.lo * lc), lc)
    if cand <= a.hi and _sign_at(alpha.dense, cand) == 0:
        return cand
    return None


# -- Sturm counting over a simple extension ----------------------------------


def sturm_count_ext(p: SparsePoly, main: str, ctx: ExtContext, alpha: RealAlgebraic) -> tuple[int, int]:
    """(distinct, with multiplicity) real roots of p in (Q[a]/(m))[main] at a = alpha.

    Sturm's sequence of p counts its distinct real roots and ends at
    gcd(p, p'), which holds each root of p one time fewer; so the counts of
    the chain p, gcd(p, p'), ... sum to the count with multiplicity.  A
    leading coefficient that vanishes at alpha raises :class:`ZeroDivisor`.
    """
    counts = []
    p = ext_monic(p, ctx)
    while p.degree(main) > 0:
        seq = [p, ctx.reduce(p.derivative(main))]
        while seq[-1].degree(main) > 0:
            # the remainder by seq[-1] is the remainder by its monic associate
            r = ext_pseudo_rem(seq[-2], ext_monic(seq[-1], ctx), main, ctx)
            seq.append(ctx.reduce(-r))
        if seq[-1].is_zero():
            seq.pop()
        plus, minus = [], []
        for f in seq:
            d = f.degree(main)
            lc = f.coeff_of(main, d)
            s = sign_at_dense(dense_int(lc, ctx.var), alpha)
            if s == 0:
                raise ZeroDivisor(gcd_multivar(lc, ctx.minpoly))
            plus.append(s)
            minus.append(s if d % 2 == 0 else -s)
        counts.append(_sign_changes(minus) - _sign_changes(plus))
        p = seq[-1]
    return (counts[0] if counts else 0), sum(counts)


def _sign_changes(values: Sequence) -> int:
    """Sign changes along a sequence, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


# -- real-solution counting for bivariate systems ----------------------------


SHEAR_CANDIDATES = (1, -1, 2, -2, 3, 5, -3, 7, -5, 11)


class ShearError(PolyError):
    pass


def _shear(p: SparsePoly, s: int) -> SparsePoly:
    x1 = SparsePoly.variable("x1", p.vars)
    x2 = SparsePoly.variable("x2", p.vars)
    return p.subs_poly("x1", x1 + SparsePoly.constant(s, p.vars) * x2)


def first_shear(f1: SparsePoly, f2: SparsePoly, attempt):
    """``attempt(F1, F2)`` on the first shear x1 -> x1 + s*x2 of
    ``SHEAR_CANDIDATES`` at which it raises no :class:`ShearError`."""
    last_error = None
    for s in SHEAR_CANDIDATES:
        try:
            return attempt(_shear(f1, s), _shear(f2, s))
        except ShearError as e:
            last_error = e
    raise ShearError(f"no generic shear found: {last_error}")


def count_real_solutions(f1: SparsePoly, f2: SparsePoly) -> tuple[int, int]:
    """(distinct, with multiplicity) real solutions of f1 = f2 = 0 in R^2.

    The system must be zero-dimensional; a shared curve raises
    :class:`PolyError` without a gcd.  Under a shear that keeps the shared
    factor's x2-degree positive the resultant vanishes; a shear that makes
    it x2-free makes the leading coefficients nonconstant, so the shear is
    rejected and the next one is tried.
    """
    if f1.is_zero() or f2.is_zero():
        raise PolyError("not zero-dimensional")
    if f1.is_constant() or f2.is_constant():
        return 0, 0
    return first_shear(f1, f2, _count_sheared)


def _check_x2_leading(F1: SparsePoly, F2: SparsePoly) -> None:
    """Both polynomials have positive degree and a constant leading coefficient in x2."""
    for F in (F1, F2):
        d = F.degree("x2")
        if d <= 0:
            raise ShearError("degenerate x2 degree")
        if not F.coeff_of("x2", d).is_constant():
            raise ShearError("leading coefficient not constant after shear")


def sheared_resultant(F1: SparsePoly, F2: SparsePoly) -> tuple[SparsePoly, list[tuple[list[int], int]]]:
    """(R, factors): R = Res_x2(F1, F2) and the squarefree decomposition of
    its dense form in x1, shear certified.

    Certifies that every root of R carries exactly one solution of
    F1 = F2 = 0: both leading coefficients in x2 are constant, the
    penultimate subresultant has degree 1 in x2, and its coefficient c1 has
    no common root with any factor.
    Raises :class:`ShearError` otherwise, and :class:`PolyError` when R
    vanishes.  A constant R (no solutions) comes with no factors.
    """
    _check_x2_leading(F1, F2)
    R, penult = resultant_and_penultimate(F1, F2, "x2")
    if R.is_zero():
        raise PolyError("not zero-dimensional")
    if R.is_constant():
        return R, []
    if penult.degree("x2") != 1:
        raise ShearError("defective remainder sequence")
    c1 = penult.coeff_of("x2", 1)
    factors = dense_squarefree(dense_int(R, "x1"))
    if not c1.is_constant():
        c = dense_int(c1, "x1")
        if any(len(dense_gcd(f, c)) > 1 for f, _ in factors):
            raise ShearError("fiber degeneracy at a resultant root")
    return R, factors


def _count_sheared(F1: SparsePoly, F2: SparsePoly) -> tuple[int, int]:
    """Every real root of R is one real solution: count isolating intervals."""
    _, factors = sheared_resultant(F1, F2)
    distinct = 0
    with_mult = 0
    for f, mult in factors:
        n = len(isolate_squarefree_dense(f))
        distinct += n
        with_mult += n * mult
    return distinct, with_mult


def at_root(alpha: RealAlgebraic, compute, var: str = "a", variables=DEFAULT_VARS):
    """``(modulus, compute(ctx))`` with ctx the arithmetic of Q(alpha).

    alpha is ``var``, a root of the modulus, which starts as alpha's dense
    form; a zero divisor narrows the modulus to the factor that holds alpha,
    and the computation reruns there.  The callers take a rational alpha on
    their own rational paths.
    """
    modulus = from_dense(alpha.dense, var, variables)
    while True:
        try:
            return modulus, compute(ExtContext(modulus, var))
        except ZeroDivisor as zd:
            f, co = split_minpoly(modulus, zd.factor)
            modulus = f if _root_in(dense_int(f, var), alpha.lo, alpha.hi) else co


def count_real_solutions_param(f1: SparsePoly, f2: SparsePoly, pvar: str, alpha: RealAlgebraic) -> tuple[int, int]:
    """Real-solution counts for a system with one algebraic parameter value.

    ``f1, f2`` live in (x1, x2, pvar); the counts are taken at pvar = alpha.
    """
    if alpha.is_rational():
        r = alpha.as_fraction()
        return count_real_solutions(f1.eval_rational({pvar: r}), f2.eval_rational({pvar: r}))
    return at_root(alpha, lambda ctx: first_shear(f1, f2, lambda F1, F2: _count_sheared_param(F1, F2, ctx, alpha)),
                   pvar, f1.vars)[1]


def _count_sheared_param(F1: SparsePoly, F2: SparsePoly, ctx: ExtContext, alpha: RealAlgebraic) -> tuple[int, int]:
    _check_x2_leading(F1, F2)
    R, penult = resultant_and_penultimate(F1, F2, "x2")
    R = ctx.reduce(R)
    if R.is_zero():
        raise PolyError("system degenerate at the parameter value")
    if R.degree("x1") <= 0:
        return 0, 0
    if penult.degree("x2") != 1:
        raise ShearError("defective remainder sequence")
    c1 = ctx.reduce(penult.coeff_of("x2", 1))
    if c1.is_zero():
        raise ShearError("vanishing subresultant")
    # certify: no common root of R and the first subresultant
    if c1.degree("x1") > 0:
        if ext_gcd_multivar(R, c1, ctx).degree("x1") > 0:
            raise ShearError("fiber degeneracy at a resultant root")
    elif not c1.is_constant():
        # x1-free but parameter-dependent: must not vanish at alpha
        if sign_at_dense(dense_int(c1, ctx.var), alpha) == 0:
            raise ShearError("first subresultant vanishes at the parameter")
    return sturm_count_ext(R, "x1", ctx, alpha)
