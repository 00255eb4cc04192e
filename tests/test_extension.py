"""Tests for arithmetic over Q[a]/(m) and gcds with dynamic splitting."""

from fractions import Fraction

import pytest

from jelonek.poly import PolyError, SparsePoly, gcd_multivar
from jelonek.extension import (
    ExtContext,
    ZeroDivisor,
    divmod_univar,
    ext_gcd_multivar,
    ext_squarefree_decomposition,
    gcd_mod_minpoly,
)

a = SparsePoly.variable("a")
y1 = SparsePoly.variable("y1")
y2 = SparsePoly.variable("y2")
z1 = SparsePoly.variable("z1")


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
    out = gcd_mod_minpoly(p, q, a - 5)
    assert len(out) == 1
    _, g = out[0]
    assert g == gcd_multivar(p, q) or gcd_multivar(g, gcd_multivar(p, q)).total_degree() == g.total_degree()


def test_gcd_mod_minpoly_sqrt2():
    # gcd(y1 - a, y1^2 - 2) = y1 - a in Q(sqrt2)
    out = gcd_mod_minpoly(y1 - a, y1 ** 2 - 2, a ** 2 - 2)
    assert len(out) == 1
    _, g = out[0]
    assert g == (y1 - a).normalized() or g == y1 - a


def test_gcd_mod_minpoly_splits():
    # modulus (a^2-1): gcd differs per branch a=1 / a=-1
    p = y1 - a
    q = y1 - 1
    out = gcd_mod_minpoly(p, q, a ** 2 - 1)
    results = {str(f.normalized()): g for f, g in out}
    assert len(out) == 2
    got_nontrivial = [g for _, g in out if g.degree("y1") > 0]
    assert len(got_nontrivial) == 1
    assert got_nontrivial[0] == (y1 - 1).normalized()


def test_gcd_minpoly_not_squarefree_rejected():
    with pytest.raises(PolyError):
        gcd_mod_minpoly(y1, y1, (a - 1) ** 2)


def test_ext_squarefree_decomposition():
    ctx = ExtContext(a ** 2 - 2)
    p = (z1 - a) ** 2 * (z1 + 1)
    dec = ext_squarefree_decomposition(p, "z1", ctx)
    assert sorted(m for _, m in dec) == [1, 2]
    rebuilt = SparsePoly.constant(1)
    for f, m in dec:
        rebuilt = ctx.reduce(rebuilt * f ** m)
    # rebuilt is monic and proportional to p over the extension
    lead = p.coeff_of("z1", 3)
    assert ctx.reduce(rebuilt * lead - p).is_zero()


def test_ext_gcd_multivar_bivariate():
    ctx = ExtContext(a ** 2 - 3)
    common = y1 + a * y2
    p = ctx.reduce(common * (y1 - 1))
    q = ctx.reduce(common * (y2 + 2))
    g = ext_gcd_multivar(p, q, ctx)
    # g is associate to common over Q(a): their difference after monic scaling vanishes
    from jelonek.extension import _ext_normal

    assert ctx.reduce(g - _ext_normal(common, ctx)).is_zero()
