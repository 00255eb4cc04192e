"""Arithmetic over simple algebraic extensions Q[a]/(m).

The minimal polynomial ``m`` is only required to be squarefree.  When it is
reducible, arithmetic may hit a zero divisor; the offending nontrivial
factor is raised as :class:`ZeroDivisor` so callers can split the modulus
and continue per factor (dynamic evaluation).  Elements and polynomials
over the extension are plain :class:`SparsePoly` values kept reduced in the
extension variable.

One routine per job: :func:`divmod_univar` divides with remainder,
:func:`ext_exact_div` gives exact quotients, :func:`ext_monic` normalizes and
:func:`ext_gcd_multivar` is the one gcd; its pseudo-remainder sequence is
kept monic, so a zero divisor met on the way splits the modulus.
"""

from __future__ import annotations

from typing import Callable

from .poly import PolyError, QQ, SparsePoly, coeffs_wrt, exact_div, gcd_multivar, grlex_key


class ZeroDivisor(Exception):
    """A nontrivial factor of the modulus was discovered mid-computation."""

    def __init__(self, factor: SparsePoly):
        super().__init__(f"zero divisor; modulus factor {factor}")
        self.factor = factor


def divmod_univar(p: SparsePoly, q: SparsePoly, var: str,
                  ctx: ExtContext | None = None) -> tuple[SparsePoly, SparsePoly]:
    """Division with remainder in K[var], K = Q or Q[a]/(m) when ``ctx`` is given.

    Coefficients may involve other variables.  Without ``ctx`` the leading
    coefficient of ``q`` in ``var`` must be a nonzero rational constant (it
    is for minimal polynomials in canonical form); with ``ctx`` it is
    inverted in Q[a]/(m), which may raise :class:`ZeroDivisor`, and every
    step is reduced modulo m.
    """
    if ctx is not None:
        p, q = ctx.reduce(p), ctx.reduce(q)
    dq = q.degree(var)
    if dq < 0:
        raise PolyError("division by zero")
    lc = q.coeff_of(var, dq)
    if ctx is not None:
        inv = ctx.inverse(lc)
    elif lc.is_constant():
        inv = 1 / lc.constant_value()
    else:
        raise PolyError("divisor leading coefficient is not constant")
    quo = SparsePoly.zero(p.vars)
    rem = p
    shift = [0] * len(p.vars)
    i = p._idx(var)
    while not rem.is_zero() and rem.degree(var) >= dq:
        dr = rem.degree(var)
        shift[i] = dr - dq
        mono = SparsePoly({tuple(shift): QQ(1)}, p.vars)
        if ctx is None:
            coeff = rem.coeff_of(var, dr).scale(inv)
            rem = rem - q * coeff * mono
        else:
            coeff = ctx.mul(rem.coeff_of(var, dr), inv)
            rem = ctx.reduce(rem - q * coeff * mono)
            if rem.degree(var) == dr:  # leading coefficient was a zero divisor view
                raise PolyError("division failed to reduce degree")
        quo = quo + coeff * mono
    return quo, rem


class ExtContext:
    """Computation context for Q[a]/(minpoly) with ``a`` a universe variable."""

    def __init__(self, minpoly: SparsePoly, var: str = "a"):
        if minpoly.is_zero() or minpoly.degree(var) < 1:
            raise PolyError("minimal polynomial must be nonconstant")
        if minpoly.vars_present() - {var}:
            raise PolyError("minimal polynomial must be univariate")
        self.var = var
        self.minpoly = minpoly.normalized()
        self.deg = self.minpoly.degree(var)

    def reduce(self, p: SparsePoly) -> SparsePoly:
        if p.degree(self.var) < self.deg:
            return p
        return divmod_univar(p, self.minpoly, self.var)[1]

    def mul(self, p: SparsePoly, q: SparsePoly) -> SparsePoly:
        return self.reduce(p * q)

    def inverse(self, u: SparsePoly) -> SparsePoly:
        """Inverse of an element of Q[a]/(m); raises ZeroDivisor on failure."""
        u = self.reduce(u)
        if u.vars_present() - {self.var}:
            raise PolyError("not an extension element")
        if u.is_zero():
            raise PolyError("inverse of zero")
        if u.is_constant():
            return SparsePoly.constant(1 / u.constant_value(), u.vars)
        # extended Euclid in Q[a]
        r0, r1 = self.minpoly, u
        s0, s1 = SparsePoly.zero(u.vars), SparsePoly.constant(1, u.vars)
        while not r1.is_zero() and r1.degree(self.var) > 0:
            q, r = divmod_univar(r0, r1, self.var)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r1.is_zero():
            g = r0.normalized()
            if g.degree(self.var) >= self.deg:
                raise PolyError("inverse of zero in quotient ring")
            raise ZeroDivisor(g)
        return self.reduce(s1.scale(1 / r1.constant_value()))


def _ext_lead(p: SparsePoly, ctx: ExtContext) -> tuple[tuple[int, ...], SparsePoly]:
    """(exponents, coefficient in Q[a]/(m)) of the graded-lex leading term
    of nonzero p over the variables other than the extension variable."""
    ai = p._idx(ctx.var)
    groups: dict[tuple[int, ...], dict[tuple[int, ...], QQ]] = {}
    for exps, c in p.terms.items():
        key = exps[:ai] + (0,) + exps[ai + 1:]
        groups.setdefault(key, {})[tuple(e if i == ai else 0 for i, e in enumerate(exps))] = c
    lead = max(groups, key=grlex_key)
    return lead, SparsePoly(groups[lead], p.vars)


def ext_monic(p: SparsePoly, ctx: ExtContext) -> SparsePoly:
    """p reduced and scaled so that its graded-lex leading coefficient over
    the variables other than the extension variable is 1.

    Inverting that coefficient raises :class:`ZeroDivisor` when it vanishes
    on a proper factor of m.
    """
    p = ctx.reduce(p)
    if p.is_zero():
        return p
    _, lc = _ext_lead(p, ctx)
    if lc.is_constant():
        return p.scale(1 / lc.constant_value())
    return ctx.reduce(p * ctx.inverse(lc))


def ext_exact_div(p: SparsePoly, q: SparsePoly, ctx: ExtContext) -> SparsePoly:
    """Exact quotient p/q in (Q[a]/(m))[vars]; raises :class:`PolyError` if
    q does not divide p.

    q's leading coefficient (:func:`_ext_lead`) is inverted once, which may
    raise :class:`ZeroDivisor`; each step cancels the remainder's leading
    term and reduces modulo m.  A leading term that is not a multiple of
    q's leading monomial means q does not divide p.
    """
    p, q = ctx.reduce(p), ctx.reduce(q)
    if q.is_zero():
        raise PolyError("division by zero")
    lq, lc = _ext_lead(q, ctx)
    inv = ctx.inverse(lc)
    q = ctx.reduce(q * inv)
    quo = SparsePoly.zero(p.vars)
    rem = p
    while not rem.is_zero():
        lr, c = _ext_lead(rem, ctx)
        shift = tuple(er - eq for er, eq in zip(lr, lq))
        if min(shift) < 0:
            raise PolyError("not divisible over extension")
        term = c * SparsePoly({shift: QQ(1)}, p.vars)
        quo = quo + term
        rem = ctx.reduce(rem - q * term)
    return ctx.reduce(quo * inv)


def ext_content_wrt(p: SparsePoly, inner_vars, ctx: ExtContext) -> tuple[SparsePoly, SparsePoly]:
    """Split p = content * primitive over Q[a]/(m) with content in ``inner_vars``.

    The polynomial is viewed in the variables outside ``inner_vars`` and the
    extension variable, with coefficients in (Q[a]/(m))[inner_vars]; the
    content is the gcd of those coefficients over the extension.  May raise
    :class:`ZeroDivisor`.
    """
    if p.is_zero():
        raise PolyError("zero polynomial")
    coeffs = coeffs_wrt(p, set(inner_vars) | {ctx.var})
    content = coeffs[0]
    for c in coeffs[1:]:
        content = ext_gcd_multivar(content, c, ctx)
        if content.is_constant():
            break
    if content.is_constant():
        return SparsePoly.constant(1, p.vars), p
    return content, ext_exact_div(p, content, ctx)


def ext_gcd_multivar(p: SparsePoly, q: SparsePoly, ctx: ExtContext) -> SparsePoly:
    """Gcd of multivariate polynomials over Q[a]/(m), made :func:`ext_monic`.

    An operand that vanishes on a proper factor of m raises
    :class:`ZeroDivisor` with that factor.  An operand with variables the
    other lacks is then replaced by its content over the common variables,
    as in :func:`gcd_multivar`, and a pseudo-remainder sequence runs in the
    last common variable.  The operands and each remainder are made
    primitive (recursive content extraction) and then monic; inverting a
    leading coefficient raises :class:`ZeroDivisor` where it vanishes on a
    factor of m, as content extraction may.
    """
    p = ctx.reduce(p)
    q = ctx.reduce(q)
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd(0, 0) undefined")
    if p.is_zero():
        return ext_monic(q, ctx)
    if q.is_zero():
        return ext_monic(p, ctx)
    # where an operand vanishes the gcd is the other one: split there first
    _split_where_zero(p, ctx)
    _split_where_zero(q, ctx)
    pv = p.vars_present() - {ctx.var}
    qv = q.vars_present() - {ctx.var}
    common = pv & qv
    if not common:
        return SparsePoly.constant(1, p.vars)
    # a common factor lives in the common variables, so it divides the
    # content of each operand over (Q[a]/(m))[common]
    if pv != common:
        return ext_gcd_multivar(ext_content_wrt(p, common, ctx)[0], q, ctx)
    if qv != common:
        return ext_gcd_multivar(p, ext_content_wrt(q, common, ctx)[0], ctx)
    main = [v for v in p.vars if v in common][-1]
    coeff_vars = [v for v in p.vars if v != main]
    cp, pp = ext_content_wrt(p, coeff_vars, ctx)
    cq, qq = ext_content_wrt(q, coeff_vars, ctx)
    if cp.is_constant() and cq.is_constant():
        cont = SparsePoly.constant(1, p.vars)
    else:
        cont = ext_gcd_multivar(cp, cq, ctx)
    # inverting every leading coefficient of the sequence splits m where one
    # vanishes on a factor, where the degrees and so the remainders differ;
    # a and b stay nonzero and primitive
    a, b = ext_monic(pp, ctx), ext_monic(qq, ctx)
    if a.degree(main) < b.degree(main):
        a, b = b, a
    while True:
        if b.degree(main) == 0:
            g = SparsePoly.constant(1, p.vars)
            break
        r = ext_pseudo_rem(a, b, main, ctx)
        if r.is_zero():
            g = b
            break
        # the content is a unit over Q[a]/(m) when r is univariate: making r
        # monic also keeps the coefficients from growing
        r = ext_monic(ext_content_wrt(r, coeff_vars, ctx)[1], ctx)
        a, b = b, r
    return ext_monic(cont * g, ctx)


def _split_where_zero(p: SparsePoly, ctx: ExtContext) -> None:
    """Raise :class:`ZeroDivisor` on the factor of m where p vanishes, if any.

    That factor is the gcd of m with every coefficient of p in Q[a].
    """
    g = ctx.minpoly
    for c in coeffs_wrt(p, [ctx.var]):
        if c.is_constant():
            return
        g = gcd_multivar(g, c)
        if g.is_constant():
            return
    raise ZeroDivisor(g)


def ext_pseudo_rem(p: SparsePoly, q: SparsePoly, main: str, ctx: ExtContext) -> SparsePoly:
    dq = q.degree(main)
    lc_q = q.coeff_of(main, dq)
    rem = p
    i = p._idx(main)
    guard = 0
    while not rem.is_zero() and rem.degree(main) >= dq:
        dr = rem.degree(main)
        lc_r = rem.coeff_of(main, dr)
        shift = [0] * len(p.vars)
        shift[i] = dr - dq
        mono = SparsePoly({tuple(shift): QQ(1)}, p.vars)
        rem = ctx.reduce(rem * lc_q - q * lc_r * mono)
        guard += 1
        if guard > 10000:
            raise PolyError("pseudo-remainder failed to terminate")
    return rem


def split_minpoly(minpoly: SparsePoly, factor: SparsePoly) -> list[SparsePoly]:
    f = factor.normalized()
    co = exact_div(minpoly.normalized(), f).normalized()
    return [f, co]


def with_dynamic_splitting(minpoly: SparsePoly, var: str,
                           compute: Callable[[ExtContext], object]) -> list[tuple[SparsePoly, object]]:
    """Run ``compute`` over Q[a]/(minpoly), splitting on zero divisors.

    Returns one (modulus factor, result) pair per branch; a linear factor
    yields ordinary rational arithmetic on that branch automatically via the
    same code path.
    """
    pending = [minpoly.normalized()]
    out: list[tuple[SparsePoly, object]] = []
    while pending:
        m = pending.pop()
        try:
            out.append((m, compute(ExtContext(m, var))))
        except ZeroDivisor as zd:
            pending.extend(split_minpoly(m, zd.factor))
    out.sort(key=lambda fr: str(fr[0]))
    return out
