"""The resultant engine against an independent Sylvester-determinant reference.

The reference below shares no code with ``jelonek.poly``: polynomials are
plain dicts from exponent tuples to ``Fraction``, and determinants of
Sylvester-type matrices are expanded by minors.  The library is only used
to build the inputs and to read its answers.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from jelonek.poly import DEFAULT_VARS, SparsePoly, resultant, resultant_and_penultimate

VAR = "x2"
LIVE = ("x1", "y1", "y2")
N = len(DEFAULT_VARS)
IV = DEFAULT_VARS.index(VAR)


# -- reference arithmetic on {exponent tuple: Fraction} ----------------------


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _ref_det(rows):
    """Determinant by expansion along columns, memoized on the used rows."""
    n = len(rows)
    memo = {}

    def minor(col, used):
        if col == n:
            return {(0,) * N: Fraction(1)}
        if used in memo:
            return memo[used]
        acc = {}
        sign = 1
        for r in range(n):
            if used >> r & 1:
                continue
            if rows[r][col]:
                acc = _ref_add(acc, _ref_mul(rows[r][col], minor(col + 1, used | 1 << r)), sign)
            sign = -sign
        memo[used] = acc
        return acc

    return minor(0, 0)


def _coeffs(p, d):
    """Descending coefficients in VAR of p, as reference polynomials."""
    out = [{} for _ in range(d + 1)]
    for exps, c in p.terms.items():
        e = list(exps)
        k = e[IV]
        e[IV] = 0
        out[d - k][tuple(e)] = c
    return out


def _sylvester_minor(p, q, j):
    """Principal subresultant coefficient of index j (j = 0: the resultant)."""
    dp, dq = p.degree(VAR), q.degree(VAR)
    a, b = _coeffs(p, dp), _coeffs(q, dq)
    size = dp + dq - 2 * j
    rows = []
    for src, count in ((a, dq - j), (b, dp - j)):
        for i in range(count):
            row = [{} for _ in range(size)]
            for k, c in enumerate(src):
                if i + k < size:
                    row[i + k] = c
            rows.append(row)
    return _ref_det(rows)


# -- inputs --------------------------------------------------------------------


def _poly(terms):
    out = {}
    for dv, lv, c in terms:
        e = [0] * N
        e[IV] = dv
        for name, k in zip(LIVE, lv):
            e[DEFAULT_VARS.index(name)] = k
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return SparsePoly(out)


def polys(max_deg, low=0, high=3):
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    term = st.tuples(st.integers(0, max_deg), st.tuples(*[st.integers(low, high)] * len(LIVE)), coeff)
    return st.lists(term, min_size=1, max_size=4).map(_poly)


def in_powers(k, m, low):
    """x2^m * f(x2^k), with f of x2-degree at most max(1, (8 - m) // k)."""
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    term = st.tuples(st.integers(0, max(1, (8 - m) // k)), st.tuples(*[st.integers(low, 2)] * len(LIVE)), coeff)
    return st.lists(term, min_size=1, max_size=4).map(lambda ts: _poly([(m + k * d, lv, c) for d, lv, c in ts]))


@st.composite
def structured_pairs(draw):
    """Two operands in x2^k for one k in 1..4, each with a factor x2^m, m in 0..2.

    Most pairs have m = 0 on one side at least: both factors give 0 at once.
    """
    k = draw(st.integers(1, 4))
    low = draw(st.sampled_from((0, -2)))
    ms = draw(st.sampled_from([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 2)]))
    return tuple(draw(in_powers(k, m, low)) for m in ms)


def _pair_ok(p, q):
    return not p.is_zero() and not q.is_zero() and (p.degree(VAR) > 0 or q.degree(VAR) > 0)


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# -- properties ----------------------------------------------------------------


@SETTINGS
@given(polys(3), polys(3))
def test_resultant_matches_sylvester(p, q):
    if not _pair_ok(p, q):
        return
    assert resultant(p, q, VAR).terms == _sylvester_minor(p, q, 0)


@SETTINGS
@given(polys(4), polys(0, high=4))
def test_degree_zero_operand(p, q):
    if not _pair_ok(p, q):
        return
    expected = _sylvester_minor(p, q, 0)
    assert resultant(p, q, VAR).terms == expected
    assert resultant(q, p, VAR).terms == expected  # (-1)^(dp*0) = 1


@SETTINGS
@given(polys(3, low=-3, high=2), polys(2, low=-2, high=3))
def test_laurent_exponents_in_other_variables(p, q):
    if not _pair_ok(p, q):
        return
    assert resultant(p, q, VAR).terms == _sylvester_minor(p, q, 0)


@SETTINGS
@given(polys(2), polys(2), polys(2))
def test_shared_factor_gives_zero(h, a, b):
    if h.degree(VAR) < 1 or a.is_zero() or b.is_zero():
        return
    assert resultant(h * a, h * b, VAR).is_zero()


@SETTINGS
@given(polys(3), polys(3))
def test_swap_sign(p, q):
    if not _pair_ok(p, q):
        return
    dp, dq = p.degree(VAR), q.degree(VAR)
    r = resultant(p, q, VAR)
    assert resultant(q, p, VAR) == (r if dp * dq % 2 == 0 else -r)


@SETTINGS
@given(polys(4), polys(3))
def test_penultimate_degree(p, q):
    """The last subresultant of positive degree has degree min{j >= 1 : s_j != 0}."""
    if p.is_zero() or q.is_zero() or p.degree(VAR) < 1 or q.degree(VAR) < 1:
        return
    if p.degree(VAR) < q.degree(VAR):
        p, q = q, p
    res, pen = resultant_and_penultimate(p, q, VAR)
    assert res.terms == _sylvester_minor(p, q, 0)
    first = next(j for j in range(1, q.degree(VAR) + 1) if _sylvester_minor(p, q, j))
    assert pen.degree(VAR) == first


_x1, _y1, _y2, _t = (SparsePoly.variable(v) for v in ("x1", "y1", "y2", VAR))


@settings(SETTINGS, max_examples=150)
# both operands with a factor x2: the resultant is 0
@example(pair=(_t * (_y1 + _t ** 2), _t ** 2 * (_y2 - 1)))
# c * x2^m is constant in x2 once x2^m is stripped, on either side
@example(pair=(3 * _y1 * _t ** 2, _y1 + _y2 * _t ** 3 + 1))
@example(pair=(_x1 * _t ** 5 + _y2 * _t ** 2 - 1, (_y1 - 2) * _t))
# stripping x2^2 leaves degree 1 against 3: the sign (-1)^(1*3) of a swap
@example(pair=(_t ** 2 * (_y1 + _t), _y2 + _x1 * _t + _t ** 3))
# an operand of degree 1 in y = x2^4
@example(pair=(_t ** 8 + _y2 * _t ** 4 + _x1, _y1 * _t ** 4 - 2))
# Laurent exponents in the live variables; operands in x2^6 once the
# factor x2 is stripped
@example(pair=(SparsePoly.monomial({"y1": -2, VAR: 7}) + _x1 * _t, SparsePoly.monomial({"y2": -1, VAR: 6}) - _y1))
@given(structured_pairs())
def test_stripped_and_deflated_operands(pair):
    """Res(x^m f, g) = g(0)^m Res(f, g), its mirror with (-1)^(deg f), and
    Res(f(x^k), g(x^k)) = Res(f, g)^k give the Sylvester resultant, in both
    argument orders."""
    p, q = pair
    if not _pair_ok(p, q):
        return
    expected = _sylvester_minor(p, q, 0)
    assert resultant(p, q, VAR).terms == expected
    sign = -1 if p.degree(VAR) * q.degree(VAR) % 2 else 1
    assert resultant(q, p, VAR).terms == {e: sign * c for e, c in expected.items()}


def test_penultimate_with_a_constant_operand():
    # Res(p, c) = c^(deg p) in either order, and no subresultant of
    # positive degree
    t = SparsePoly.variable(VAR)
    y1 = SparsePoly.variable("y1")
    p = y1 * t ** 3 - 2 * t + 5
    c = y1 ** 2 + 3
    for a, b in ((p, c), (c, p)):
        res, pen = resultant_and_penultimate(a, b, VAR)
        assert res == c ** 3 and pen is None


def test_penultimate_of_a_defective_sequence():
    # p, q are polynomials in VAR^3, so every subresultant from index 5
    # down to 1 vanishes except S_3; the resultant is a cube
    t = SparsePoly.variable(VAR)
    y1, y2 = SparsePoly.variable("y1"), SparsePoly.variable("y2")
    p = (y1 + 1) * t ** 6 + y2 * t ** 3 + 2
    q = (y2 - 3) * t ** 3 + y1
    res, pen = resultant_and_penultimate(p, q, VAR)
    assert res.terms == _sylvester_minor(p, q, 0)
    assert pen.degree(VAR) == 3


def test_exponents_at_the_packing_width():
    """The result reaches the degree bound D_v = dq*deg_v p + dp*deg_v q.

    Here D_v = 3*7 + 4*5 = 41 in y1 and in y2, whose bit fields are
    neighbours in a packed key.  A field too narrow for D_v would carry
    into the next variable and change the terms.
    """
    x1, y1, y2 = (SparsePoly.variable(v) for v in ("x1", "y1", "y2"))
    t = SparsePoly.variable(VAR)
    p = y1 ** 7 * t ** 4 + x1 ** 7 * t ** 2 + y2 ** 7 * y1 ** 3 + 3
    q = y2 ** 5 * t ** 3 + x1 ** 5 * y1 * t + y1 ** 5 - 2
    r = resultant(p, q, VAR)
    assert r.degree("y1") == r.degree("y2") == 41
    assert r.terms == _sylvester_minor(p, q, 0)
