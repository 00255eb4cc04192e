"""Kernel tests: arithmetic, substitution, resultants, gcd, content."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from jelonek.poly import (
    DEFAULT_VARS,
    PolyError,
    SparsePoly,
    content_wrt,
    dense_gcd,
    dense_int,
    dense_squarefree,
    exact_div,
    from_dense,
    gcd_multivar,
    poly_to_str,
    pseudo_division,
    resultant,
    squarefree_part_multivar,
)
from jelonek.parsing import parse_polynomial as P
from oracles import content_by_coefficient_gcd, divides, euclid_gcd, grlex_exact_div, squarefree_part_by_partials
from strategies import polys_in


x1 = SparsePoly.variable("x1")
x2 = SparsePoly.variable("x2")
z1 = SparsePoly.variable("z1")
z2 = SparsePoly.variable("z2")
y1 = SparsePoly.variable("y1")
y2 = SparsePoly.variable("y2")
one = SparsePoly.constant(1)


def rand_poly(rng, variables, deg=3, nterms=4, vars_universe=DEFAULT_VARS):
    terms = {}
    for _ in range(nterms):
        e = [0] * len(vars_universe)
        for v in variables:
            e[vars_universe.index(v)] = rng.randrange(0, deg + 1)
        terms[tuple(e)] = F(rng.randrange(-9, 10))
    return SparsePoly(terms, vars_universe)


def rand_point(rng, variables):
    return {v: F(rng.randrange(-7, 8), rng.randrange(1, 5)) for v in variables}


def test_add_mul_basic():
    assert (x1 + 1) * (x1 - 1) == x1 ** 2 - 1
    p = 1 + 2 * x1 * x2
    assert p + SparsePoly.zero() == p
    assert p * one == p


def test_zero_polynomial_and_scalar_comparisons():
    zero = SparsePoly.zero()
    assert zero.min_degree("x1") == zero.total_degree() == -1
    assert zero.normalized() is zero
    assert (1 + x1).scale(0) == zero
    assert not zero and x1
    assert x1 - x1 == 0 and 2 * one == F(2)
    assert x1 != "x1"


def test_universe_mismatch_rejected():
    q = SparsePoly.variable("u", ("u", "v"))
    with pytest.raises(PolyError):
        _ = x1 + q


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_poly(rng, ["x1", "x2"])
        b = rand_poly(rng, ["x1", "x2"])
        c = rand_poly(rng, ["x1", "x2"])
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        pt = rand_point(rng, ["x1", "x2"])
        lhs = (a * b).eval_rational(pt).constant_value()
        rhs = a.eval_rational(pt).constant_value() * b.eval_rational(pt).constant_value()
        assert lhs == rhs


def test_monomial_substitute_paper_matrix():
    # x1^2*x2^3 under U = ((-1,1),(-2,1)) -> z1 * z2^(-1)
    p = x1 ** 2 * x2 ** 3
    q = p.monomial_substitute([[-1, 1], [-2, 1]], ("x1", "x2"), ("z1", "z2"))
    assert q == SparsePoly.monomial({"z1": 1, "z2": -1})


def test_monomial_substitute_identity():
    rng = random.Random(3)
    p = rand_poly(rng, ["x1", "x2"])
    assert p.monomial_substitute([[1, 0], [0, 1]], ("x1", "x2"), ("x1", "x2")) == p


def test_monomial_substitute_cancels_colliding_terms():
    # a singular matrix sends x1 and x2 to the same monomial z1*z2
    p = x1 - x2 + 3
    q = p.monomial_substitute([[1, 1], [1, 1]], ("x1", "x2"), ("z1", "z2"))
    assert q == SparsePoly.constant(3)


def test_monomial_substitute_composes_and_inverts():
    rng = random.Random(11)
    U = [[2, 1], [1, 1]]
    V = [[1, 3], [0, 1]]
    VU = [[V[0][0] * U[0][0] + V[0][1] * U[1][0], V[0][0] * U[0][1] + V[0][1] * U[1][1]],
          [V[1][0] * U[0][0] + V[1][1] * U[1][0], V[1][0] * U[0][1] + V[1][1] * U[1][1]]]
    for _ in range(10):
        p = rand_poly(rng, ["x1", "x2"])
        a = p.monomial_substitute(U, ("x1", "x2"), ("x1", "x2"))
        b = a.monomial_substitute(V, ("x1", "x2"), ("x1", "x2"))
        assert b == p.monomial_substitute(VU, ("x1", "x2"), ("x1", "x2"))
    Uinv = [[1, -1], [-1, 2]]
    for _ in range(10):
        p = rand_poly(rng, ["x1", "x2"])
        q = p.monomial_substitute(U, ("x1", "x2"), ("x1", "x2"))
        assert q.monomial_substitute(Uinv, ("x1", "x2"), ("x1", "x2")) == p


def test_clear_denominators():
    p = SparsePoly.monomial({"z1": 1, "z2": -1}) + 1
    cleared, shift = p.clear_denominators(["z1", "z2"])
    assert cleared == z1 + z2
    assert shift == {"z2": 1}
    q = z1 + z2 ** 2
    cleared, shift = q.clear_denominators(["z1", "z2"])
    assert cleared == q and shift == {}


def test_transformed_intro_system():
    # U((-1,1),(-2,1)) applied to f1 - y1 of the running example, denominators
    # cleared, gives 2 - z1 + z2*(1 - y1); checked against the known solution
    # sigma of the transformed system.
    f1 = 1 + 2 * x1 * x2 - x1 ** 2 * x2 ** 3
    g = (f1 - y1).monomial_substitute([[-1, 1], [-2, 1]], ("x1", "x2"), ("z1", "z2"))
    g, _ = g.clear_denominators(["z1", "z2"])
    assert g == 2 - z1 + z2 * (1 - y1)


def test_pseudo_division_by_a_higher_degree_divisor():
    assert pseudo_division(x1 + x2, x1 ** 2, "x1") == (SparsePoly.zero(), x1 + x2)


def test_pseudo_division_identity():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, ["x1", "x2"], deg=4, nterms=5)
        q = rand_poly(rng, ["x1", "x2"], deg=2, nterms=3)
        if q.degree("x2") < 1:
            continue
        quo, rem = pseudo_division(p, q, "x2")
        dp, dq = max(p.degree("x2"), 0), q.degree("x2")
        e = dp - dq + 1 if dp >= dq else 0
        lc = q.coeff_of("x2", dq)
        assert lc ** e * p == quo * q + rem
        assert rem.degree("x2") < dq


def _sylvester_resultant_numeric(p, q, var, pt):
    """Oracle: Sylvester determinant after specializing all other variables."""
    ps = p.eval_rational(pt)
    qs = q.eval_rational(pt)
    cp = [c.constant_value() for c in ps.as_univariate(var)]
    cq = [c.constant_value() for c in qs.as_univariate(var)]
    n, m = len(cp) - 1, len(cq) - 1
    size = n + m
    rows = []
    for i in range(m):
        row = [F(0)] * size
        for j, c in enumerate(reversed(cp)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [F(0)] * size
        for j, c in enumerate(reversed(cq)):
            row[i + j] = c
        rows.append(row)
    # fraction-free-ish Gaussian elimination over Q
    det = F(1)
    mat = [row[:] for row in rows]
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return F(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            f = mat[r][col] * inv
            if f != 0:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    return det


def test_resultant_hand_examples():
    r = resultant(x1 * x2 - 1, x2 - x1, "x2")
    assert r.normalized() == (x1 ** 2 - 1).normalized()
    assert resultant(x1 * x2 - 1, x1 * x2 - 1, "x2").is_zero()


def test_resultant_intro_system():
    g1 = 2 - z1 + z2 * (1 - y1)
    g2 = 12 - 10 * z1 + 2 * z1 ** 2 + z2 * (5 - y2)
    r1 = resultant(g1, g2, "z2")
    expect = (z1 - 2) * ((5 - y2) + 2 * (1 - y1) * (z1 - 3))
    assert r1.normalized() == expect.normalized()


def test_resultant_against_sylvester_oracle():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        p = rand_poly(rng, ["x1", "x2", "y1"], deg=3, nterms=4)
        q = rand_poly(rng, ["x1", "x2", "y1"], deg=3, nterms=4)
        if p.degree("x2") < 1 or q.degree("x2") < 1:
            continue
        r = resultant(p, q, "x2")
        pt = rand_point(rng, ["x1", "y1"])
        # degree drop at the specialization point invalidates the oracle
        if p.leading_coeff_wrt("x2").eval_rational(pt).constant_value() == 0:
            continue
        if q.leading_coeff_wrt("x2").eval_rational(pt).constant_value() == 0:
            continue
        expected = _sylvester_resultant_numeric(p, q, "x2", pt)
        assert r.eval_rational(pt).constant_value() == expected
        checked += 1
    assert checked >= 15


def test_resultant_vanishes_iff_common_root():
    # res(p, q, v) at a specialization is zero iff p, q share a root there
    rng = random.Random(23)
    for _ in range(20):
        a = F(rng.randrange(-4, 5))
        b = F(rng.randrange(-4, 5))
        c = F(rng.randrange(-4, 5))
        p = (x2 - a) * (x2 - b * x1)
        q = (x2 - c) * (x2 - a - x1)
        r = resultant(p, q, "x2")
        for t in range(-3, 4):
            pt = {"x1": F(t)}
            roots_p = {a, b * t}
            roots_q = {c, a + t}
            shared = bool(roots_p & roots_q)
            assert (r.eval_rational(pt).constant_value() == 0) == shared


def test_resultant_errors():
    with pytest.raises(PolyError):
        resultant(one * 3, one * 5, "x1")
    assert resultant(SparsePoly.zero(), x1, "x1").is_zero()


def test_content_split_intro():
    r1 = (z1 - 2) * ((5 - y2) + 2 * (1 - y1) * (z1 - 3))
    content, primitive = content_wrt(r1, ["z1"])
    assert content.normalized() == (z1 - 2).normalized()
    assert primitive.normalized() == ((5 - y2) + 2 * (1 - y1) * (z1 - 3)).normalized()
    assert content * primitive == r1


def test_content_times_primitive_reconstructs():
    rng = random.Random(31)
    for _ in range(15):
        c = rand_poly(rng, ["z1"], deg=2, nterms=2)
        p = rand_poly(rng, ["y1", "y2", "z1"], deg=2, nterms=3)
        if c.is_zero() or p.is_zero():
            continue
        full = c * p
        content, primitive = content_wrt(full, ["z1"])
        assert content * primitive == full
        content2, _ = content_wrt(primitive, ["z1"])
        assert content2.is_constant()
        assert divides(c.normalized(), content)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys_in(["z1"], max_deg=3), polys_in(["z1", "y1", "y2"], max_terms=4))
# one outer monomial
@example(2 * z1 ** 2 - 4, F(3, 2) * y1 * y2)
# content 1
@example(one, z1 * y1 + y2)
# negative leading coefficient
@example(2 - z1, y1 - F(1, 3))
# content of positive degree
@example(z1 - 2, y1 + z1 * y2)
# the row of y1 is 2*z1, a non-primitive multiple of the content z1
@example(one, 2 * z1 * y1 + z1)
def test_content_in_one_variable_matches_coefficient_gcd(c, q):
    """With z1 the only inner variable, content_wrt runs on dense rows; it
    must give the oracle's normalized content and primitive part."""
    p = c * q
    if "z1" not in p.vars_present():
        return
    content, primitive = content_wrt(p, ["z1"])
    assert (content, primitive) == content_by_coefficient_gcd(p, ["z1"])
    assert content * primitive == p
    assert content.vars_present() <= {"z1"}


def test_gcd_examples():
    g = gcd_multivar(2 - z1, 2 * z1 ** 2 - 10 * z1 + 12)
    assert g == (z1 - 2).normalized()
    g2 = gcd_multivar(2 * y1 - y2 + 3, y2 - 2 * y1 - 3)
    assert g2 == (2 * y1 - y2 + 3).normalized()
    assert gcd_multivar(x1 + 1, one) == one


def test_gcd_divides_and_cofactor_property():
    rng = random.Random(41)
    for _ in range(12):
        p = rand_poly(rng, ["x1", "x2"], deg=2, nterms=3)
        q = rand_poly(rng, ["x1", "x2"], deg=2, nterms=3)
        h = rand_poly(rng, ["x1", "x2"], deg=2, nterms=2)
        if p.is_zero() or q.is_zero() or h.is_zero():
            continue
        g = gcd_multivar(p, q)
        assert divides(g, p) and divides(g, q)
        gh = gcd_multivar(p * h, q * h)
        assert divides((h * g).normalized(), gh) and divides(gh, (h * g).normalized())


def test_gcd_variables_in_one_operand_only():
    # from the discriminant of the extra-factor map over R
    p = (3 * x1 ** 6 + 21 * x1 ** 5 + 45 * x1 ** 4 + 6 * x1 ** 3 * y1 + 15 * x1 ** 3 + 10 * x1 ** 2 * y1
         - 34 * x1 ** 2 - 14 * x1 * y1 - 16 * x1 - 2 * y1 - 34)
    q = (36 * x1 ** 6 * y2 - 27 * x1 ** 6 + 120 * x1 ** 5 * y2 - 72 * x1 ** 5 - 68 * x1 ** 4 * y2
         + 137 * x1 ** 4 - 304 * x1 ** 3 * y2 + 310 * x1 ** 3 + 156 * x1 ** 2 * y2 - 192 * x1 ** 2
         + 56 * x1 * y2 - 116 * x1 + 4 * y2 - 40)
    assert (len(p.terms), len(q.terms)) == (11, 14)
    assert gcd_multivar(p, q) == x1 - 1
    assert gcd_multivar(q, p) == x1 - 1
    # contents x1 + 1 and x1 - 1 over Q[x1] are coprime
    assert gcd_multivar((x1 + 1) * (y1 + x1), (x1 - 1) * (y2 ** 2 + x1)) == one
    assert gcd_multivar(y1 * x1 + 1, x1 * y2 ** 2 - 3) == one


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_in(["x1"]), polys_in(["x1", "y1"]), polys_in(["x1", "y2"]))
def test_gcd_with_unshared_variables_property(g, a, b):
    if g.is_zero() or a.is_zero() or b.is_zero():
        return
    p, q = g * a, g * b
    h = gcd_multivar(p, q)
    assert h == h.normalized()
    assert divides(h, p) and divides(h, q)
    assert divides(g, h)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys_in(["x1"], max_deg=4, max_terms=4), polys_in(["x1"], max_deg=4, max_terms=4),
       polys_in(["x1"], max_deg=3))
@example(x1 ** 2 - 4, x1 ** 2 + 4 * x1 + 4, one)
@example(x1 - F(1, 3), SparsePoly.zero(), x1 + F(2, 5))
def test_dense_layer_matches_euclid_oracle(a, b, h):
    """dense_int is a positive multiple of p with coprime ints, from_dense
    inverts it up to that multiple, and dense_gcd is a positive multiple of
    Euclid's monic gcd over Q."""
    for p in (a, b, h):
        d = dense_int(p, "x1")
        assert all(isinstance(c, int) for c in d)
        if p.is_zero():
            assert d == []
            continue
        back = from_dense(d, "x1")
        ratio = p.leading_term()[1] / back.leading_term()[1]
        assert ratio > 0 and back.scale(ratio) == p
        assert gcd(*d) == 1
    A, B = a * h, b * h
    if A.is_zero() and B.is_zero():
        return
    g = dense_gcd(dense_int(A, "x1"), dense_int(B, "x1"))
    assert g[-1] > 0
    a_coeffs, b_coeffs = ([c.constant_value() for c in p.as_univariate("x1")] for p in (A, B))
    assert [F(c, g[-1]) for c in g] == euclid_gcd(a_coeffs, b_coeffs)


def test_dense_int_rejects_laurent_and_extra_variables():
    # x1 - 4/x1 and x1 - 2 share the factor x1 - 2; a Laurent operand is
    # rejected rather than read with its exponent -1 as an index
    p = x1 - SparsePoly.monomial({"x1": -1}, 4)
    with pytest.raises(PolyError):
        dense_int(p, "x1")
    with pytest.raises(PolyError):
        gcd_multivar(p, x1 - 2)
    with pytest.raises(PolyError):
        dense_int(x1 * x2, "x1")
    assert dense_int(SparsePoly.zero(), "x1") == []
    assert dense_int(F(3, 4) * x1 ** 2 - F(1, 6), "x1") == [-2, 0, 9]


def test_squarefree():
    p = (x1 - 1) ** 2 * (x1 + 2)
    assert squarefree_part_multivar(p) == ((x1 - 1) * (x1 + 2)).normalized()
    dec = dense_squarefree(dense_int(p, "x1"))
    assert dec == [(dense_int(x1 + 2, "x1"), 1), (dense_int(x1 - 1, "x1"), 2)]
    assert squarefree_part_multivar(x1 + 5) == (x1 + 5).normalized()
    assert dense_squarefree(dense_int(x1 ** 3, "x1")) == [(dense_int(x1, "x1"), 3)]
    assert dense_squarefree(dense_int(SparsePoly.constant(3), "x1")) == []
    rng = random.Random(53)
    for _ in range(10):
        f1 = rand_poly(rng, ["x1"], deg=2, nterms=2)
        f2 = rand_poly(rng, ["x1"], deg=2, nterms=2)
        if f1.degree("x1") < 1 or f2.degree("x1") < 1:
            continue
        p = f1 ** 2 * f2
        rebuilt = SparsePoly.constant(1)
        for fac, mult in dense_squarefree(dense_int(p, "x1")):
            rebuilt = rebuilt * from_dense(fac, "x1") ** mult
        assert rebuilt.normalized() == p.normalized()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(polys_in(["x1"], max_deg=3), st.integers(1, 3)), min_size=1, max_size=3))
def test_dense_squarefree_properties(powers):
    """The product of factor^multiplicity is p up to a rational unit; the
    factors are squarefree, pairwise coprime, with positive leading
    coefficient; the multiplicities ascend."""
    p = one
    for f, k in powers:
        p = p * f ** k
    if p.is_zero():
        return
    dec = dense_squarefree(dense_int(p, "x1"))
    rebuilt = one
    for f, k in dec:
        rebuilt = rebuilt * from_dense(f, "x1") ** k
    assert rebuilt.normalized() == p.normalized()
    for i, (f, k) in enumerate(dec):
        assert len(f) > 1 and f[-1] > 0
        assert len(dense_gcd(f, [j * c for j, c in enumerate(f)][1:])) == 1
        for g, m in dec[i + 1:]:
            assert dense_gcd(f, g) == [1]
            assert k < m


line = 4 * y2 * (x1 - 1) - 3 * x1 + 5


@pytest.mark.parametrize("p, expected", [
    # a discriminant-phase input: repeated content and a repeated primitive factor
    ((x1 - 1) ** 20 * line ** 4, (x1 - 1) * line),
    # univariate: no content variables
    ((2 * x1 - 1) ** 3 * (x1 + 2) ** 2, (2 * x1 - 1) * (x1 + 2)),
    # already squarefree: the resultant with the derivative is nonzero
    ((x1 ** 2 + y1 ** 2 - 1) * (x1 - y1), (x1 ** 2 + y1 ** 2 - 1) * (x1 - y1)),
    # primitive part of degree 1 in y1, repeated content x1^3
    (x1 ** 3 * (x1 * y1 + 1), x1 * (x1 * y1 + 1)),
    # the derivative divides p, so the engine returns it as the subresultant
    ((x1 + y1) ** 2, x1 + y1),
    (SparsePoly.constant(F(-3, 2)), one),
])
def test_squarefree_part_multivar_examples(p, expected):
    assert squarefree_part_multivar(p) == expected.normalized()
    assert squarefree_part_by_partials(p) == expected.normalized()


def test_squarefree_part_multivar_rejects():
    with pytest.raises(PolyError):
        squarefree_part_multivar(SparsePoly.zero())
    with pytest.raises(PolyError):
        squarefree_part_multivar(SparsePoly.monomial({"x1": -1}) * (y1 + 1) ** 2)
    # one variable, where the dense path would start
    with pytest.raises(PolyError):
        squarefree_part_multivar(SparsePoly.monomial({"x1": -1}) * (x1 + 1) ** 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_in(["x1", "y2"]), polys_in(["x1", "y1"]), polys_in(["x1"]), st.integers(1, 3))
def test_squarefree_part_multivar_matches_partials(a, b, c, k):
    # c is in x1 alone, so it lands in the content over Q[x1]
    p = a ** 2 * b * c ** k
    if p.is_zero():
        return
    assert squarefree_part_multivar(p) == squarefree_part_by_partials(p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(polys_in(["x1"], max_deg=3), st.integers(1, 3)), min_size=1, max_size=3))
# a repeated factor, and p' = 2*(x1 - 1)*(3*x1 + 2) is not primitive
@example([(x1 - 1, 2), (2 * x1 + 3, 1)])
def test_squarefree_part_in_one_variable_matches_partials(powers):
    p = one
    for f, k in powers:
        p = p * f ** k
    if p.is_zero():
        return
    assert squarefree_part_multivar(p) == squarefree_part_by_partials(p)


def test_exact_div_and_divides():
    p = (x1 + x2) * (x1 - 2 * x2 + 1)
    assert exact_div(p, x1 + x2) == x1 - 2 * x2 + 1
    assert divides(x1 + x2, p)
    assert not divides(x1 - x2, p)


def _quotient_or_error(p, q, div):
    try:
        return div(p, q)
    except PolyError:
        return "not divisible"


def _small_laurent(max_terms=4, min_deg=-2, variables=("x1", "x2", "y2", "a")):
    return polys_in(variables, max_deg=4, max_terms=max_terms, min_deg=min_deg)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(_small_laurent(min_deg=0), _small_laurent(), _small_laurent(max_terms=1),
              _small_laurent(max_terms=1, variables=())),
    st.one_of(_small_laurent(min_deg=0), _small_laurent()),
    _small_laurent(max_terms=2),
    st.sampled_from(["product", "perturbed", "swapped"]),
)
def test_exact_div_matches_grlex_reference(q, h, extra, pair):
    """Divisible products, perturbed products and swapped operands (a divisor
    wider than the dividend), with Laurent, monomial and constant divisors:
    the packed division agrees with the graded-lex reference, quotient for
    quotient, and raises exactly when the reference does."""
    if q.is_zero() or h.is_zero():
        return
    p = q * h
    if pair == "perturbed":
        p = p + extra
    elif pair == "swapped":
        p, q = q, p
    assert _quotient_or_error(p, q, exact_div) == _quotient_or_error(p, q, grlex_exact_div)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_exact_div_at_field_boundaries(k):
    """Exponents 2^k - 1 and 2^k side by side in neighbouring variables, where
    a field one bit too narrow carries and a missed borrow goes unseen."""
    a, b = 2 ** k - 1, 2 ** k
    h = x1 ** a * x2 ** b + x1 ** b - 3 * x2 ** a + 1
    q = x1 ** b * x2 + x2 ** a - 2
    p = h * q
    shift = SparsePoly.monomial({"x1": -b, "x2": -a})
    # quotients that reach the top of a field of span 2^k - 1 or 2^k
    h_top, q_low = x1 ** b * x2 ** a - x1 ** a * x2 ** b + 2 * x1 - 1, x1 - x2 + 3
    h_span, q_span = x1 ** (a - 1) - x2 ** (a - 1), x1 * x2 + 1
    cases = [
        (p, q, h),
        (p, h, q),
        (h_top * q_low, q_low, h_top),
        (h_top * q_low, h_top, q_low),
        (h_span * q_span, q_span, h_span),
        # x1 + 1 divides the packed dividend as a univariate polynomial in the
        # key, so only the per-term box check stands between it and a quotient
        (x2 ** b - x1 ** (a - 1), x1 + 1, "not divisible"),
        (p * shift, q * shift, h),  # Laurent operands, polynomial quotient
        (p * shift, q, "not divisible"),  # the quotient needs x1^-b
        (p + x1 ** a, q, "not divisible"),
        (p + x1 ** b * x2 ** b, h, "not divisible"),
        # the remainder's lead x2^b over q's lead x1*x2^a borrows from the x2 field
        (x2 ** b + x1 ** 2, x1 * x2 ** a + 1, "not divisible"),
        (x2 ** b * x1 ** a + x1 ** b, x1 ** b * x2 ** a + 1, "not divisible"),
        (x1 ** a + x2, x1 ** b + 1, "not divisible"),  # divisor wider in x1
        (x1 ** b * x2 ** a, x1 ** a * x2 ** a, x1),  # monomial divisor
        (3 * p, F(3, 2), 2 * p),  # constant divisor
        (p * shift, F(3, 2), "not divisible"),  # constant divisor, Laurent dividend
        (SparsePoly.zero(), q, SparsePoly.zero()),  # zero dividend
    ]
    for dividend, divisor, expected in cases:
        divisor = dividend._check(divisor)
        assert _quotient_or_error(dividend, divisor, exact_div) == expected
        assert _quotient_or_error(dividend, divisor, grlex_exact_div) == expected


def test_leading_trailing_coeffs():
    p = y1 * x1 ** 2 + x1 + y2
    assert p.leading_coeff_wrt("x1") == y1
    assert (y1 + y2).leading_coeff_wrt("x1") == y1 + y2


def test_poly_printer_roundtrip():
    rng = random.Random(61)
    for _ in range(20):
        p = rand_poly(rng, ["x1", "x2"], deg=3, nterms=5)
        if p.is_zero():
            continue
        assert P(poly_to_str(p), allowed=("x1", "x2")) == p


def _naive_eval(p, assignment):
    """Term-by-term partial evaluation: c * prod(x ** k) for every assigned variable."""
    out = SparsePoly.zero(p.vars)
    for exps, c in p.terms.items():
        rest = {}
        for v, k in zip(p.vars, exps):
            if v in assignment:
                if assignment[v] == 0 and k < 0:
                    raise PolyError("negative power at zero")
                c *= F(assignment[v]) ** k
            elif k:
                rest[v] = k
        out = out + SparsePoly.monomial(rest, c, p.vars)
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    polys_in(["x1", "x2", "y1"], max_deg=3, max_terms=5, min_deg=-2),
    st.dictionaries(st.sampled_from(["x1", "x2", "y1", "y2"]),
                    st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)]), max_size=3),
)
# the term x1 * x2^-1 vanishes through x1 but still divides by x2 = 0
@example(SparsePoly.monomial({"x1": 1, "x2": -1}), {"x1": F(0), "x2": F(0)})
def test_eval_rational_matches_naive_evaluator(p, assignment):
    """Zero assignments drop terms instead of multiplying by 0 ** k, and a
    negative power of a variable set to 0 still raises."""
    try:
        expected = _naive_eval(p, assignment)
    except PolyError:
        with pytest.raises(PolyError):
            p.eval_rational(assignment)
        return
    assert p.eval_rational(assignment) == expected
