"""Tests for root isolation, real algebraic numbers, and solution counting."""

import random
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import count_real_solutions_by_isolation
from strategies import polys_in
from jelonek.poly import PolyError, SparsePoly, dense_int, from_dense, resultant
from jelonek.realroots import (
    RealAlgebraic,
    ShearError,
    compare,
    count_real_solutions,
    count_real_solutions_param,
    isolate_real_roots,
    isolate_squarefree_dense,
    rational_between,
    rational_roots,
    root_bound,
    sheared_resultant,
    sign_at,
    _shear,
    _sign_at,
)

x1 = SparsePoly.variable("x1")
x2 = SparsePoly.variable("x2")
w = SparsePoly.variable("w")


def approx(alpha, places=9):
    return round(alpha.to_float(), places)


def test_isolate_classic():
    roots = isolate_real_roots(x1 ** 2 - 2)
    assert len(roots) == 2
    (r1, m1), (r2, m2) = roots
    assert m1 == m2 == 1
    assert approx(r1, 6) == -1.414214
    assert approx(r2, 6) == 1.414214


def test_isolate_with_multiplicities():
    p = (x1 - 1) ** 2 * (x1 + 2)
    roots = isolate_real_roots(p)
    assert [(approx(r, 6), m) for r, m in roots] == [(-2.0, 1), (1.0, 2)]


def test_isolate_example_quadratic():
    p = 2 * x1 ** 2 - 10 * x1 + 12
    roots = isolate_real_roots(p)
    vals = sorted(r.as_fraction() if r.is_rational() else None for r, _ in roots)
    assert vals == [F(2), F(3)]


def test_isolate_no_real_roots_and_errors():
    assert isolate_real_roots(x1 ** 2 + 1) == []
    assert isolate_real_roots(SparsePoly.constant(5)) == []
    assert isolate_real_roots(SparsePoly.constant(5), "x1") == []
    assert isolate_squarefree_dense([5]) == []
    with pytest.raises(PolyError):
        isolate_real_roots(SparsePoly.zero())
    # x1 - 4/x1: the exponent -1 is refused, not read as a list index
    with pytest.raises(PolyError):
        isolate_real_roots(x1 - SparsePoly.monomial({"x1": -1}, 4))


# Expected (lo, hi) pairs recorded from the Fraction Taylor-shift bisection
# that preceded the integer one; the bisection tree must not change.
PINNED_INTERVALS = {
    "both-sides": (
        (x1 + 3) * (x1 - 5) * (x1 ** 2 - 2) * (x1 ** 2 - 7 * x1 + 11),
        [("-331/64", "-331/128"), ("-331/128", "0"), ("331/256", "993/512"),
         ("993/512", "331/128"), ("2317/512", "4965/1024"), ("4965/1024", "331/64")],
    ),
    "root-at-zero": (
        x1 * (x1 ** 2 - 3) * (x1 + 1),
        [("-2", "-3/2"), ("-1", "-1"), ("0", "0"), ("1", "2")],
    ),
    "midpoint-hits": ((x1 - 1) * (x1 - 2), [("1", "1"), ("2", "2")]),
    "fraction-coefficients": (
        (x1 - F(1, 3)) * (x1 + F(5, 7)) * (x1 ** 2 - F(1, 2)) * F(3, 5),
        [("-3869/5376", "-365/512"), ("-365/512", "-949/1344"), ("0", "73/168"), ("73/168", "73/84")],
    ),
    "degree-one": (2 * x1 - 3, [("0", "5/2")]),
    # degree 10, 251-bit coefficients, no real roots
    "no-real-roots-wide": (prod((x1 ** 2 + 2 ** 50 + 7 * 3 ** k for k in range(5)), start=x1 ** 0), []),
    # degree 12, 228-bit coefficients, no real roots; the pairs k +- i sit
    # close to the axis against a Cauchy bound near 2^228, so the tree is deep
    "no-real-roots-near-axis": (
        prod(((x1 ** 2 - 2 * k * x1 + k * k + 1) * (x1 ** 2 + 3 ** k * 2 ** 70) for k in range(1, 4)), start=x1 ** 0),
        [],
    ),
}


@pytest.mark.parametrize("name", PINNED_INTERVALS)
def test_isolate_squarefree_dense_pinned(name):
    p, expected = PINNED_INTERVALS[name]
    got = isolate_squarefree_dense(dense_int(p, "x1"))
    assert got == [(F(lo), F(hi)) for lo, hi in expected]


def test_isolation_against_numpy_oracle():
    import numpy as np

    rng = random.Random(97)
    for _ in range(25):
        deg = rng.randrange(2, 13)
        coeffs = [rng.randrange(-9, 10) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = SparsePoly.zero()
        for k, c in enumerate(coeffs):
            p = p + SparsePoly.constant(c) * x1 ** k
        if p.degree("x1") < 1:
            continue
        roots = isolate_real_roots(p)
        numeric = np.roots(list(reversed(coeffs)))
        real_numeric = sorted(z.real for z in numeric if abs(z.imag) < 1e-9)
        # counts with multiplicity match (random integer polys are squarefree
        # essentially always; tolerate clustered numeric roots by comparing sets)
        assert len(roots) <= len(real_numeric)
        got = [r.to_float() for r, _ in roots]
        for val in got:
            assert any(abs(val - z) < 1e-6 for z in real_numeric)
        # every isolating interval contains exactly one numeric root
        for r, _ in roots:
            rr = r.refined(F(1, 10 ** 9))
            inside = [z for z in real_numeric if float(rr.lo) - 1e-9 <= z <= float(rr.hi) + 1e-9]
            assert len(inside) == 1


def test_parity_invariant():
    rng = random.Random(13)
    for _ in range(20):
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(-5, 6) for _ in range(deg)] + [rng.randrange(1, 6)]
        p = SparsePoly.zero()
        for k, c in enumerate(coeffs):
            p = p + SparsePoly.constant(c) * x1 ** k
        d = p.degree("x1")
        if d < 1:
            continue
        total = sum(m for _, m in isolate_real_roots(p))
        assert (d - total) % 2 == 0


def test_refine():
    r2 = [r for r, _ in isolate_real_roots(x1 ** 2 - 2) if r.cmp_fraction(0) > 0][0]
    fine = r2.refined(F(1, 10 ** 6))
    assert fine.width() < F(1, 10 ** 6)
    assert compare(fine, r2) == 0
    again = fine.refined(F(1, 10 ** 6))
    assert compare(again, fine) == 0
    rat = RealAlgebraic.from_rational(F(3, 7))
    assert rat.refined(F(1, 100)).as_fraction() == F(3, 7)
    assert repr(rat) == "RealAlgebraic(3/7)"
    assert repr(r2) == "RealAlgebraic(~1.414214)"


def test_equality_is_by_value_and_hashing_raises():
    assert RealAlgebraic.from_rational(1) == RealAlgebraic.from_rational(1)
    assert RealAlgebraic.from_rational(1) != RealAlgebraic.from_rational(2)
    r2 = [r for r, _ in isolate_real_roots(x1 ** 2 - 2) if r.cmp_fraction(0) > 0][0]
    assert r2 == r2.refined(F(1, 10 ** 6))
    assert r2 != RealAlgebraic.from_rational(F(3, 2))
    assert r2 != 1.4142
    with pytest.raises(TypeError, match="compare via intervals"):
        hash(r2)


def test_cmp_fraction_at_a_rational_root_inside_the_interval():
    two = RealAlgebraic([-4, 0, 1], F(1), F(3))
    assert [two.cmp_fraction(r) for r in (F(1), F(2), F(5, 2))] == [1, 0, -1]


def test_sign_at():
    r2 = [r for r, _ in isolate_real_roots(x1 ** 2 - 2) if r.cmp_fraction(0) > 0][0]
    assert sign_at(x1 ** 2 - 2, r2) == 0
    assert sign_at(x1, r2) == 1
    assert sign_at(x1 ** 2 - 3, r2) == -1
    assert sign_at(x1 ** 3 - 2 * x1, r2) == 0
    assert sign_at(x1 ** 3 - 2 * x1 + 1, r2) == 1
    assert sign_at(SparsePoly.zero(), r2) == 0


def test_root_bound():
    assert root_bound(x1 ** 2 - 2) >= F(3, 2)
    assert root_bound(x1 - 10) >= 10
    p = x1 ** 4 + x1 - 1
    assert root_bound(p) <= 2


def test_rational_roots():
    p = (3 * x1 - 2) * (x1 + 5) * (x1 ** 2 - 2)
    assert rational_roots(p) == [F(-5), F(2, 3)]


def test_rational_roots_with_a_large_leading_coefficient():
    assert rational_roots((10 ** 13 * x1 - 3) * (x1 ** 2 - 2)) == [F(3, 10 ** 13)]


def test_compare_and_between():
    roots = [r for r, _ in isolate_real_roots((x1 ** 2 - 2) * (x1 ** 2 - 3))]
    assert [sign_at(x1, r) for r in roots] == [-1, -1, 1, 1]
    sqrt2 = roots[2]
    sqrt3 = roots[3]
    assert compare(sqrt2, sqrt3) == -1
    q = rational_between(sqrt2, sqrt3)
    assert sign_at(x1 - SparsePoly.constant(q), sqrt2) == -1
    assert sign_at(x1 - SparsePoly.constant(q), sqrt3) == 1
    assert compare(sqrt2, sqrt2.refined(F(1, 1000))) == 0


def test_count_real_solutions_basic():
    assert count_real_solutions(x1 ** 2 - 1, x2 - x1) == (2, 2)
    assert count_real_solutions(x1 ** 2 + 1, x2) == (0, 0)
    assert count_real_solutions((x1 - 1) ** 2, x2 - 1) == (1, 2)
    assert count_real_solutions(x1 - 1, SparsePoly.constant(2)) == (0, 0)


def test_count_real_solutions_not_zero_dim():
    with pytest.raises(PolyError):
        count_real_solutions(x1 * x2 - 1, (x1 * x2 - 1) * (x1 + x2))


@pytest.mark.parametrize("f1, f2", [
    # x1 - x2 is x2-free under the first shear (s = 1): that shear is
    # rejected for its nonconstant leading coefficient, the next one has a
    # vanishing resultant
    ((x1 - x2) * (x2 ** 2 + 1), (x1 - x2) * (x2 + x1 ** 2)),
    ((x1 - x2) * (x1 + 2), (x1 - x2) * (x2 - 3)),
    (x1 * (x2 - 1), x1 * (x1 + x2)),
], ids=["shear-one-x2-free", "shear-one-x2-free-linear", "x2-free"])
def test_count_real_solutions_shared_component(f1, f2):
    with pytest.raises(PolyError):
        count_real_solutions(f1, f2)


def test_shared_factor_x2_free_under_first_shear():
    assert _shear(x1 - x2, 1).degree("x2") == 0


# the shared factor h: none (twice as likely), or a curve; x2^2 and x1^2 - 1
# keep most systems with h = 1 zero-dimensional
_shared = st.sampled_from([SparsePoly.constant(1), SparsePoly.constant(1), x1 - x2, x1 + 2 * x2 - 1, x2 ** 2 - x1])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys_in(("x1", "x2"), max_deg=2, max_terms=4), polys_in(("x1", "x2"), max_deg=2, max_terms=4), _shared)
@example(-x1, x2 - 1, SparsePoly.constant(1))
@example(x1 - 1, x2 - x1 ** 2, x1 - x2)
def test_count_matches_isolation_oracle(a, b, h):
    """The interval count without a gcd pre-check agrees with the
    isolate-based count that checks the gcd first, errors included."""
    f1, f2 = (a + x2 ** 2) * h, (b + x1 ** 2 - 1) * h
    try:
        expected = count_real_solutions_by_isolation(f1, f2)
    except PolyError:
        with pytest.raises(PolyError):
            count_real_solutions(f1, f2)
        return
    assert count_real_solutions(f1, f2) == expected


_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_rationals, min_size=1, max_size=7), _rationals)
@example([F(-2), F(0), F(1)], F(0))
@example([F(1, 3), F(-1)], F(1, 3))
def test_integer_sign_matches_fraction_evaluation(p, x):
    value = sum((c * x ** i for i, c in enumerate(p)), F(0))
    assert _sign_at(dense_int(from_dense(p, "x1"), "x1"), x) == (value > 0) - (value < 0)


def test_count_matches_numeric_oracle():
    import numpy as np

    rng = random.Random(541)
    tested = 0
    for _ in range(40):
        def rp():
            p = SparsePoly.zero()
            for _ in range(5):
                e1, e2 = rng.randrange(0, 3), rng.randrange(0, 3)
                p = p + SparsePoly.monomial({"x1": e1, "x2": e2}, rng.randrange(-5, 6))
            return p

        f1, f2 = rp(), rp()
        try:
            distinct, with_mult = count_real_solutions(f1, f2)
        except PolyError:
            continue
        # numeric oracle: roots of the resultant + fiber matching
        try:
            from jelonek.poly import resultant

            R = resultant(f1, f2, "x2")
        except PolyError:
            continue
        if R.is_zero() or R.is_constant():
            continue
        coeffs = [float(c.constant_value()) for c in R.as_univariate("x1")]
        xs = np.roots(list(reversed(coeffs)))
        count = 0
        seen = []
        for xr in xs:
            if abs(xr.imag) > 1e-7:
                continue
            if any(abs(xr.real - s) < 1e-7 for s in seen):
                continue
            t1 = [float(c.constant_value()) for c in f1.eval_rational({}).subs_poly("x1", SparsePoly.constant(F(xr.real).limit_denominator(10 ** 12))).as_univariate("x2")]
            # numeric fiber: solve f1(xr, x2) = 0 and check f2
            import numpy.polynomial.polynomial as npoly

            fib1 = np.array(t1, dtype=float)
            if len(fib1) <= 1:
                continue
            roots2 = npoly.polyroots(fib1)
            ok = False
            for x2r in roots2:
                if abs(x2r.imag) > 1e-6:
                    continue
                # evaluate f2
                val = 0.0
                for exps, c in f2.terms.items():
                    val += float(c) * (xr.real ** exps[0]) * (x2r.real ** exps[1])
                if abs(val) < 1e-4:
                    ok = True
            if ok:
                seen.append(xr.real)
                count += 1
        # numeric matching is approximate: require counts to agree when clean
        if count == distinct:
            tested += 1
    assert tested >= 10


def test_count_param_algebraic():
    # system x1^2 - w = 0, x2 - x1 = 0 at w = sqrt(2): two real solutions
    sqrt2 = [r for r, _ in isolate_real_roots(x1 ** 2 - 2) if r.cmp_fraction(0) > 0][0]
    f1 = x1 ** 2 - w
    f2 = x2 - x1
    assert count_real_solutions_param(f1, f2, "w", sqrt2) == (2, 2)
    # at w = -sqrt2 there are none
    msqrt2 = [r for r, _ in isolate_real_roots(x1 ** 2 - 2) if r.cmp_fraction(0) < 0][0]
    assert count_real_solutions_param(f1, f2, "w", msqrt2) == (0, 0)


def test_count_param_fiber_certificate_rejects_a_colliding_shear():
    # x2 = +-1 and x1 - x2 = w: at w = sqrt(2) two simple real solutions,
    # (w + 1, 1) and (w - 1, -1).  The first shear x1 -> x1 + x2 puts both
    # over x1 = w: there R = 3*(x1 - w)^2 and the first subresultant is
    # (x1 - w)*(x2 + 2), so its x2-coefficient shares the root x1 = w with R.
    # Only the certificate sends the count to the next shear; counted at the
    # first one, the two solutions would read as one double solution (1, 2).
    sqrt2 = [r for r, _ in isolate_real_roots(x1 ** 2 - 2) if r.cmp_fraction(0) > 0][0]
    f1 = x2 ** 2 - 1
    f2 = x2 ** 2 - 1 + (x1 - x2 - w) * (x2 + 2)
    assert count_real_solutions_param(f1, f2, "w", sqrt2) == (2, 2)


def test_sheared_resultant_certified():
    # x2^2 = x1 and x1*x2 + x1 - 1 = 0: three solutions over distinct x1;
    # the penultimate subresultant is x1*x2 + x1 - 1, whose c1 = x1 is
    # nonzero at every root of R
    f1 = x2 ** 2 + x1 * x2 - 1
    f2 = x2 ** 2 - x1
    R, factors = sheared_resultant(f1, f2)
    assert R == resultant(f1, f2, "x2")
    assert R.degree("x1") == 3
    assert factors == [(R.normalized(), 1)]


@pytest.mark.parametrize("f1, f2", [
    (x1 * x2 + 1, x2 ** 2 - x1),                # leading coefficient x1 in x2
    (x2 ** 2 - 1, x2 ** 2 + x1 - 1),            # two solutions over x1 = 0
], ids=["nonconstant-leading-coefficient", "two-points-per-fiber"])
def test_sheared_resultant_rejects_shear(f1, f2):
    with pytest.raises(ShearError):
        sheared_resultant(f1, f2)
