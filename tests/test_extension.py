"""Tests for arithmetic over Q[a]/(m) and gcds with dynamic splitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jelonek.poly import PolyError, SparsePoly, dense_int, gcd_multivar
from jelonek.extension import (
    ExtContext,
    ZeroDivisor,
    divmod_univar,
    ext_exact_div,
    ext_gcd_multivar,
    ext_monic,
    with_dynamic_splitting,
)
from jelonek.realroots import RealAlgebraic, at_root, count_real_solutions_param, isolate_real_roots, sturm_count_ext
from strategies import polys_in

a = SparsePoly.variable("a")
x1 = SparsePoly.variable("x1")
x2 = SparsePoly.variable("x2")
w = SparsePoly.variable("w")
y1 = SparsePoly.variable("y1")
y2 = SparsePoly.variable("y2")
z1 = SparsePoly.variable("z1")
z2 = SparsePoly.variable("z2")


def test_reduce_and_inverse():
    ctx = ExtContext(a ** 2 - 2)
    assert ctx.reduce(a ** 2) == SparsePoly.constant(2)
    inv = ctx.inverse(a)  # 1/sqrt2 = a/2
    assert ctx.mul(inv, a) == SparsePoly.constant(1)
    assert ctx.inverse(SparsePoly.constant(3)) == SparsePoly.constant(Fraction(1, 3))
    assert ctx.mul(ctx.inverse(a + 1), a + 1) == SparsePoly.constant(1)


@pytest.mark.parametrize("p, q, var, ctx", [
    # rational leading coefficient, other coefficients in y1, y2
    (y1 * z1 ** 3 + (y2 - 1) * z1 + 5, 2 * z1 ** 2 + y1 * z1 - 3, "z1", None),
    # univariate over Q
    (3 * a ** 5 - a + SparsePoly.constant(Fraction(7, 2)),
     SparsePoly.constant(Fraction(2, 3)) * a ** 2 + a - 1, "a", None),
    # over Q[a]/(a^2 - 2) with leading coefficient a + 1
    (z1 ** 4 + a * z1 ** 3 - 3 * z1 + a, (a + 1) * z1 ** 2 + a * z1 + 1, "z1", ExtContext(a ** 2 - 2)),
], ids=["rational-lc-multivariate", "univariate-over-Q", "over-Q(sqrt2)"])
def test_divmod_univar(p, q, var, ctx):
    quo, rem = divmod_univar(p, q, var, ctx)
    red = ctx.reduce if ctx is not None else (lambda f: f)
    assert red(quo * q + rem - p).is_zero()
    assert rem.degree(var) < q.degree(var)
    assert not quo.is_zero()


def test_divmod_univar_zero_divisor_leading_coefficient():
    with pytest.raises(ZeroDivisor):
        divmod_univar(z1 ** 2, (a - 1) * z1 + 1, "z1", ExtContext(a ** 2 - 1))


def test_divmod_univar_needs_rational_leading_coefficient():
    with pytest.raises(PolyError):
        divmod_univar(z1 ** 2, y1 * z1 + 1, "z1")


def test_inverse_zero_divisor():
    # reducible modulus (a-1)(a-2): inverting (a-1) reveals the factor
    ctx = ExtContext((a - 1) * (a - 2))
    with pytest.raises(ZeroDivisor) as e:
        ctx.inverse(a - 1)
    f = e.value.factor.normalized()
    assert f in ((a - 1).normalized(), (a - 2).normalized())


def test_gcd_mod_minpoly_rational_degenerate():
    # rational root branch agrees with the plain gcd
    p = (y1 - 2) * (y2 + 1)
    q = (y1 - 2) * (y1 + y2)
    out = with_dynamic_splitting(a - 5, "a", lambda ctx: ext_gcd_multivar(p, q, ctx))
    assert len(out) == 1
    _, g = out[0]
    assert g == gcd_multivar(p, q) or gcd_multivar(g, gcd_multivar(p, q)).total_degree() == g.total_degree()


def test_gcd_mod_minpoly_sqrt2():
    # gcd(y1 - a, y1^2 - 2) = y1 - a in Q(sqrt2)
    out = with_dynamic_splitting(a ** 2 - 2, "a", lambda ctx: ext_gcd_multivar(y1 - a, y1 ** 2 - 2, ctx))
    assert len(out) == 1
    _, g = out[0]
    assert g == (y1 - a).normalized() or g == y1 - a


def test_gcd_mod_minpoly_splits():
    # modulus (a^2-1): gcd differs per branch a=1 / a=-1
    p = y1 - a
    q = y1 - 1
    out = with_dynamic_splitting(a ** 2 - 1, "a", lambda ctx: ext_gcd_multivar(p, q, ctx))
    results = {str(f.normalized()): g for f, g in out}
    assert len(out) == 2
    got_nontrivial = [g for _, g in out if g.degree("y1") > 0]
    assert len(got_nontrivial) == 1
    assert got_nontrivial[0] == (y1 - 1).normalized()


def test_sturm_count_ext_counts_multiplicities():
    # the double root z1 = a and the simple root z1 = -1, at both roots of the modulus
    ctx = ExtContext(a ** 2 - 2)
    p = (z1 - a) ** 2 * (z1 + 1)
    roots = [alpha for alpha, _ in isolate_real_roots(a ** 2 - 2, "a")]
    assert len(roots) == 2
    for alpha in roots:
        assert sturm_count_ext(p, "z1", ctx, alpha) == (2, 3)


def test_ext_gcd_multivar_bivariate():
    ctx = ExtContext(a ** 2 - 3)
    common = y1 + a * y2
    p = ctx.reduce(common * (y1 - 1))
    q = ctx.reduce(common * (y2 + 2))
    g = ext_gcd_multivar(p, q, ctx)
    # g is associate to common over Q(a): their difference after monic scaling vanishes
    assert ctx.reduce(g - ext_monic(common, ctx)).is_zero()
    assert ext_monic(a ** 2 - 3, ctx).is_zero()


@pytest.mark.parametrize("modulus, p, q, expected", [
    (a - 2, (z1 - a * z2) * (y1 + z2), (z1 - a * z2) * (y2 * z1 + 1),
     [("a - 2", "z1 - 2*z2")]),
    (3 * a + 1, (z1 + a) * (y1 * y2 + z1), (z1 + a) * (y2 * z2 - 1) * (z1 - 1),
     [("3*a + 1", "z1 - 1/3")]),
    (a ** 2 - 3, (z1 ** 2 - 3 * z2 ** 2) * (y1 + z1), (z1 - a * z2) * (y2 + z2),
     [("a^2 - 3", "-z2*a + z1")]),
    (a ** 2 - 3, (z1 - a * z2) * (y1 + z1), (z1 + a * z2) * (y2 * z2 + 1),
     [("a^2 - 3", "1")]),
    # the zero divisor a - 1 still splits the modulus
    (a ** 2 - 1, (z1 - z2) * (y1 + z2), (z1 - a * z2) * (y2 * z1 + 1),
     [("a + 1", "1"), ("a - 1", "z1 - z2")]),
    (a ** 2 - 1, (z1 ** 2 - z2 ** 2) * (y1 * z1 + 2), (z1 - a * z2) * (y2 + z2 ** 2),
     [("a^2 - 1", "-z2*a + z1")]),
    # the content of p over z1 is gcd(a - 1, z1): a - 1 vanishes on a factor
    (a ** 2 - 1, (a - 1) * y1 + z1, z1,
     [("a + 1", "1"), ("a - 1", "z1")]),
    # the coefficients (a - 1)*z1 and z2 of p share no variable
    (a ** 2 - 1, (a - 1) * z1 * y1 + z2, z2 * (z1 + 1),
     [("a + 1", "1"), ("a - 1", "z2")]),
    # p is zero on the factor a, where the gcd is q
    (a ** 2 - a, a * z1 * (z1 - a), z1 * (y2 + 1),
     [("a", "z1*y2 + z1"), ("a - 1", "z1")]),
    # univariate pairs whose remainder sequence ends in a constant that
    # vanishes on one factor of the modulus
    ((a - 1) * (a - 2), -x1 + 2 * a - 4, 2 * x1 ** 2 - 2 * x1,
     [("a - 1", "1"), ("a - 2", "x1")]),
    ((a - 1) * (a - 2), x1 + 2, 2 * x1 ** 2 * a - 3 * x1 ** 2 + x1 * a - 2 * x1 + 2,
     [("a - 1", "x1 + 2"), ("a - 2", "1")]),
    ((a - 1) * (a - 2), -x1 ** 2 + 1, x1 ** 2 - 2 * x1 + 2 * a - 5,
     [("a - 1", "x1 + 1"), ("a - 2", "1")]),
    # leading coefficients that vanish on one factor each; the terms come
    # lowest degree first, so the content check does not meet them
    ((a - 1) * (a - 2), -3 * x1 + 3 + 4 * (a - 1) * x1 ** 2, x1 + 1 + 2 * (a - 2) * x1 ** 2,
     [("a - 1", "x1 - 1"), ("a - 2", "1")]),
], ids=["linear", "linear-shared-y", "sqrt3", "sqrt3-coprime", "split", "reducible-no-split",
        "split-in-content", "split-disjoint-coefficients", "operand-vanishes-on-a-factor",
        "constant-remainder-zero-on-a-1", "constant-remainder-zero-on-a-2",
        "constant-remainder-after-two-steps", "leading-coefficients-zero-divisors"])
def test_ext_gcd_multivar_unshared_variables(modulus, p, q, expected):
    """Pinned gcds over a modulus, most with operands that have variables
    only one of them has, as in the shared-component check of the Fulton
    recursion.  The first eight outputs were recorded before the
    common-variable reduction was added; "operand-vanishes-on-a-factor" used
    to come out as z1 with no split.  The univariate rows below it check
    splits at zero divisors met inside the remainder sequence."""
    out = with_dynamic_splitting(modulus, "a", lambda ctx: ext_gcd_multivar(p, q, ctx))
    assert [(str(f), str(g)) for f, g in out] == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.just(SparsePoly.constant(1)), polys_in(["z1", "z2", "a"])),
       st.one_of(st.just(SparsePoly.zero()), polys_in(["z1"]), polys_in(["y1", "z1"])),
       polys_in(["y1", "z1", "a"]), polys_in(["y2", "z2", "a"]),
       st.lists(st.sampled_from([Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(5, 2)]),
                min_size=1, max_size=2, unique=True))
def test_ext_gcd_multivar_matches_rational_gcd_at_each_root(g, u0, u1, v, roots):
    """Under m = prod(a - r) the gcd on each branch, at each root r of the
    branch, is the rational gcd of the operands at a = r.  At the first root
    the cofactor u of p is u0, which may be zero or lack y1."""
    u = u0 + (a - SparsePoly.constant(roots[0])) * u1
    p, q = g * u, g * v
    at = {r: (p.eval_rational({"a": r}), q.eval_rational({"a": r})) for r in roots}
    if p.is_zero() or any(pr.is_zero() and qr.is_zero() for pr, qr in at.values()):
        return
    modulus = SparsePoly.constant(1)
    for r in roots:
        modulus = modulus * (a - SparsePoly.constant(r))
    out = with_dynamic_splitting(modulus, "a", lambda ctx: ext_gcd_multivar(p, q, ctx))
    assert sorted(r for f, _ in out for r in roots if f.eval_rational({"a": r}).is_zero()) == sorted(roots)
    for f, h in out:
        for r in roots:
            if f.eval_rational({"a": r}).is_zero():
                assert h.eval_rational({"a": r}).normalized() == gcd_multivar(*at[r])


def _modulus(roots):
    m = SparsePoly.constant(1)
    for r in roots:
        m = m * (a - SparsePoly.constant(r))
    return m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys_in(["x1", "a"]), polys_in(["x1", "a"]), polys_in(["x1", "a"]), st.integers(1, 2),
       st.lists(st.sampled_from([Fraction(0), Fraction(2), Fraction(-1, 3), Fraction(5, 2)]),
                min_size=2, max_size=2, unique=True))
def test_sturm_count_ext_matches_rational_at_each_root(g0, u1, v, k, roots):
    """At each root r of m = (a - r1)(a - r2), the count over the modulus
    that at_root keeps is the (distinct, with multiplicity) real-root count
    of p at a = r.  At r1, p = g0 * v^(k+1) gains a multiplicity."""
    p = v ** k * (g0 * v + (a - SparsePoly.constant(roots[0])) * u1)
    if any(p.eval_rational({"a": r}).is_zero() for r in roots):
        return
    m = dense_int(_modulus(roots), "a")
    for r in roots:
        alpha = RealAlgebraic(m, r - Fraction(1, 8), r + Fraction(1, 8))
        modulus, counts = at_root(alpha, lambda ctx: sturm_count_ext(p, "x1", ctx, alpha))
        assert modulus.eval_rational({"a": r}).is_zero()
        rational = isolate_real_roots(p.eval_rational({"a": r}), "x1")
        assert counts == (len(rational), sum(mult for _, mult in rational))


# a cubic and a linear factor that share the root x1 = -1 when a = 1 and
# x1 = 0 when a = 2; the squarefree decomposition differs per branch:
# (x1^2 - 1)^2 at a = 1 and (x1 - 2) * x1^3 at a = 2
A = x1 ** 3 - x1 ** 2 * a + x1 * a + a ** 2 - 2 * x1 - 4 * a + 4
H = -x1 + a - 2


def test_sturm_count_ext_narrows_a_reducible_modulus():
    # the chain's second Sturm sequence ends at a multiple of a - 2, a zero
    # divisor that vanishes on the branch a = 2 only: there the modulus
    # narrows to a - 2
    for lo, hi, kept in ((Fraction(1, 2), Fraction(3, 2), a ** 2 - 3 * a + 2),
                         (Fraction(3, 2), Fraction(5, 2), a - 2)):
        alpha = RealAlgebraic([2, -3, 1], lo, hi)  # a root of a^2 - 3a + 2
        modulus, counts = at_root(alpha, lambda ctx: sturm_count_ext(A * H, "x1", ctx, alpha))
        assert modulus == kept
        assert counts == (2, 4)


@pytest.mark.parametrize("minpoly", [w ** 2 - 2, (w ** 2 - 2) * (w ** 2 - 3)], ids=["minimal", "reducible"])
def test_count_real_solutions_param_at_sqrt2(minpoly):
    # at w = sqrt2, a = w^2 - 1 = 1 and A*H = -(x1^2 - 1)^2
    sqrt2 = [r for r, _ in isolate_real_roots(minpoly, "w") if 1 < r.to_float() < 3 / 2][0]
    AH = (A * H).subs_poly("a", w ** 2 - 1)
    assert count_real_solutions_param(x2, x2 ** 2 + AH, "w", sqrt2) == (2, 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([a ** 2 - 2, a ** 3 - a - 1]),
       polys_in(["x1", "y1", "a"]), polys_in(["x1", "y1", "a"]))
def test_ext_exact_div(minpoly, q, h):
    ctx = ExtContext(minpoly)
    q = ctx.reduce(q)
    if not q.vars_present() - {"a"}:
        return  # a unit of Q(a) divides everything
    p = ctx.reduce(q * h)
    assert ext_exact_div(p, q, ctx) == ctx.reduce(h)
    with pytest.raises(PolyError):
        ext_exact_div(p + 1, q, ctx)


def test_ext_exact_div_zero_divisor_leading_coefficient():
    with pytest.raises(ZeroDivisor):
        ext_exact_div(x1 ** 2, (a - 1) * x1 + 1, ExtContext(a ** 2 - 1))
