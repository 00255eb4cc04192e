"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as a dictionary mapping exponent tuples to nonzero
``Fraction`` coefficients.  Every polynomial carries an ordered variable
universe; two polynomials interoperate only when their universes coincide.
Exponents may be negative (Laurent terms), which the toric change of
variables produces; the elimination operations (resultant, gcd, content)
require nonnegative exponents in their active variables.

The canonical term order is graded lexicographic with respect to the
universe order, so structural equality of dictionaries is equality of
polynomials.

The public API is ``Fraction``-based throughout.  Eliminations, squarefree
parts and exact division run inside on integer coefficients with packed
monomials: ``resultant`` and ``resultant_and_penultimate`` clear
denominators and monomial factors on entry, run one subresultant engine on
``int`` coefficients keyed by packed integer monomials, and convert back;
``squarefree_part_multivar`` divides by that engine's last subresultant
and ``exact_div`` packs both operands the same way for its heap division.

Univariate polynomials also have one dense form, owned by this module: the
ascending list of coprime ``int`` coefficients (:func:`dense_int`), a
positive rational multiple of the polynomial.  It has the same roots and
the same sign at every point, which is all root isolation, sign tests and
univariate gcds need; :func:`dense_gcd` runs the primitive PRS on it and
:func:`from_dense` turns a coefficient list back into a ``SparsePoly``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm
from typing import Iterable, Mapping, Sequence


QQ = Fraction

#: Default variable universe used throughout the pipeline.  x1, x2 are the
#: source coordinates, z1, z2 the toric coordinates, y1, y2 the target
#: coordinates, t the edge parameter, w a spare parameter (shears, sample
#: points) and a an auxiliary algebraic quantity.
DEFAULT_VARS = ("x1", "x2", "z1", "z2", "y1", "y2", "t", "w", "a")


class PolyError(ValueError):
    """Structural misuse of the polynomial kernel."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise PolyError(f"coefficient {c!r} is not rational")


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key realizing graded-lex order (later keys are larger terms)."""
    return (sum(exps), exps)


class SparsePoly:
    """A sparse multivariate Laurent polynomial with rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, terms: Mapping[tuple[int, ...], Fraction], variables: Sequence[str] = DEFAULT_VARS):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        n = len(self.vars)
        for exps, c in terms.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            if len(exps) != n:
                raise PolyError(f"exponent tuple {exps} does not match universe {self.vars}")
            clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = DEFAULT_VARS) -> "SparsePoly":
        return cls({}, variables)

    @classmethod
    def constant(cls, c, variables: Sequence[str] = DEFAULT_VARS) -> "SparsePoly":
        c = _as_fraction(c)
        n = len(variables)
        if c == 0:
            return cls({}, variables)
        return cls({(0,) * n: c}, variables)

    @classmethod
    def variable(cls, name: str, variables: Sequence[str] = DEFAULT_VARS) -> "SparsePoly":
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls({tuple(e): QQ(1)}, variables)

    @classmethod
    def monomial(cls, exps: Mapping[str, int], c=1, variables: Sequence[str] = DEFAULT_VARS) -> "SparsePoly":
        variables = tuple(variables)
        e = [0] * len(variables)
        for name, k in exps.items():
            e[variables.index(name)] = k
        return cls({tuple(e): _as_fraction(c)}, variables)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return QQ(0)
        if not self.is_constant():
            raise PolyError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def vars_present(self) -> set[str]:
        out: set[str] = set()
        for exps in self.terms:
            for name, e in zip(self.vars, exps):
                if e != 0:
                    out.add(name)
        return out

    def _idx(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise PolyError(f"variable {var!r} not in universe {self.vars}") from None

    def degree(self, var: str) -> int:
        """Degree in ``var``; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        i = self._idx(var)
        return max(exps[i] for exps in self.terms)

    def min_degree(self, var: str) -> int:
        if self.is_zero():
            return -1
        i = self._idx(var)
        return min(exps[i] for exps in self.terms)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(exps) for exps in self.terms)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if self.is_zero():
            raise PolyError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(other, self.vars)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "SparsePoly") -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            return SparsePoly.constant(other, self.vars)
        if not isinstance(other, SparsePoly):
            raise PolyError(f"cannot combine SparsePoly with {type(other).__name__}")
        if other.vars != self.vars:
            raise PolyError(f"variable universes differ: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other) -> "SparsePoly":
        other = self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, QQ(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return SparsePoly(out, self.vars)

    __radd__ = __add__

    def __neg__(self) -> "SparsePoly":
        return SparsePoly({e: -c for e, c in self.terms.items()}, self.vars)

    def __sub__(self, other) -> "SparsePoly":
        return self + (-self._check(other))

    def __rsub__(self, other) -> "SparsePoly":
        return (-self) + other

    def __mul__(self, other) -> "SparsePoly":
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return SparsePoly.zero(self.vars)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, QQ(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return SparsePoly(out, self.vars)

    __rmul__ = __mul__

    def scale(self, c) -> "SparsePoly":
        c = _as_fraction(c)
        if c == 0:
            return SparsePoly.zero(self.vars)
        return SparsePoly({e: k * c for e, k in self.terms.items()}, self.vars)

    def __pow__(self, k: int) -> "SparsePoly":
        if not isinstance(k, int) or k < 0:
            raise PolyError("exponent must be a nonnegative integer")
        result = SparsePoly.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- structure by one variable -----------------------------------------

    def coeff_of(self, var: str, k: int) -> "SparsePoly":
        """Coefficient of ``var**k`` as a polynomial in the other variables."""
        i = self._idx(var)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                e = list(exps)
                e[i] = 0
                out[tuple(e)] = c
        return SparsePoly(out, self.vars)

    def as_univariate(self, var: str) -> list["SparsePoly"]:
        """Dense coefficient list ``[c0, c1, ..., cd]`` with respect to ``var``."""
        if self.is_zero():
            return []
        i = self._idx(var)
        if self.min_degree(var) < 0:
            raise PolyError(f"negative exponents in {var}")
        d = self.degree(var)
        coeffs = [dict() for _ in range(d + 1)]
        for exps, c in self.terms.items():
            e = list(exps)
            k = e[i]
            e[i] = 0
            coeffs[k][tuple(e)] = c
        return [SparsePoly(m, self.vars) for m in coeffs]

    def leading_coeff_wrt(self, var: str) -> "SparsePoly":
        if self.is_zero():
            raise PolyError("zero polynomial")
        return self.coeff_of(var, self.degree(var))

    # -- substitution -------------------------------------------------------

    def eval_rational(self, assignment: Mapping[str, Fraction]) -> "SparsePoly":
        """Substitute rational values for some variables (partial evaluation)."""
        idx = {self._idx(v): _as_fraction(x) for v, x in assignment.items()}
        # a term with a positive power of a variable set to 0 vanishes
        zero = [i for i, x in idx.items() if x == 0]
        idx = {i: x for i, x in idx.items() if x != 0}
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            if any(exps[i] for i in zero):
                if any(exps[i] < 0 for i in zero):
                    raise PolyError("evaluating negative power at zero")
                continue
            val = c
            e = list(exps)
            for i, x in idx.items():
                k = e[i]
                if k != 0:
                    e[i] = 0
                    val *= x ** k
            e = tuple(e)
            s = out.get(e, QQ(0)) + val
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return SparsePoly(out, self.vars)

    def subs_poly(self, var: str, replacement: "SparsePoly") -> "SparsePoly":
        """Substitute a polynomial for ``var`` (exponents in ``var`` must be >= 0)."""
        replacement = self._check(replacement)
        if self.is_zero():
            return self
        if self.min_degree(var) < 0:
            raise PolyError(f"negative exponents in {var}")
        coeffs = self.as_univariate(var)
        # Horner evaluation in the replacement polynomial.
        result = SparsePoly.zero(self.vars)
        for coeff in reversed(coeffs):
            result = result * replacement + coeff
        return result

    def monomial_substitute(self, U: Sequence[Sequence[int]], from_vars: tuple[str, str], to_vars: tuple[str, str]) -> "SparsePoly":
        """Apply the monomial change of variables sending x^a to z^(U a).

        ``U`` is a 2x2 integer matrix acting on the exponent pair of
        ``from_vars``; all other variables are carried through untouched.
        The result may be Laurent.
        """
        i1, i2 = self._idx(from_vars[0]), self._idx(from_vars[1])
        j1, j2 = self._idx(to_vars[0]), self._idx(to_vars[1])
        if from_vars[0] != to_vars[0] and to_vars[0] in self.vars_present():
            raise PolyError(f"target variable {to_vars[0]} already present")
        if from_vars[1] != to_vars[1] and to_vars[1] in self.vars_present():
            raise PolyError(f"target variable {to_vars[1]} already present")
        (u11, u12), (u21, u22) = U
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            a1, a2 = exps[i1], exps[i2]
            e = list(exps)
            e[i1] = 0
            e[i2] = 0
            e[j1] += u11 * a1 + u12 * a2
            e[j2] += u21 * a1 + u22 * a2
            e = tuple(e)
            s = out.get(e, QQ(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return SparsePoly(out, self.vars)

    def clear_denominators(self, variables: Iterable[str]) -> tuple["SparsePoly", dict[str, int]]:
        """Multiply by the minimal monomial making exponents nonnegative.

        Returns the cleared polynomial together with the exponent map of the
        clearing monomial.
        """
        shift: dict[str, int] = {}
        for v in variables:
            m = self.min_degree(v)
            if m < 0:
                shift[v] = -m
        if not shift:
            return self, {}
        idx = {self._idx(v): k for v, k in shift.items()}
        out = {}
        for exps, c in self.terms.items():
            e = list(exps)
            for i, k in idx.items():
                e[i] += k
            out[tuple(e)] = c
        return SparsePoly(out, self.vars), shift

    def derivative(self, var: str) -> "SparsePoly":
        i = self._idx(var)
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            e = list(exps)
            e[i] = k - 1
            out[tuple(e)] = c * k
        return SparsePoly(out, self.vars)

    # -- normalization -----------------------------------------------------

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c integer-coefficient and primitive."""
        if self.is_zero():
            raise PolyError("zero polynomial")
        num = 0
        den = 1
        for c in self.terms.values():
            num = int_gcd(num, c.numerator)
            den = den * c.denominator // int_gcd(den, c.denominator)
        return QQ(num, den)

    def normalized(self) -> "SparsePoly":
        """Integer-primitive scalar multiple with positive leading coefficient."""
        if self.is_zero():
            return self
        c = self.rational_content()
        _, lead = self.leading_term()
        if lead < 0:
            c = -c
        return self.scale(1 / c)

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if any(e < 0 for exps in self.terms for e in exps):
            # the CLI grammar has no negative exponents
            return f"SparsePoly({self.terms!r}, {self.vars!r})"
        return f"SparsePoly({self})"

    def __str__(self) -> str:
        return poly_to_str(self)


def poly_to_str(p: SparsePoly) -> str:
    """Render in the CLI grammar: ``3/2*x1^2*x2 - 1`` (descending graded-lex)."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=grlex_key, reverse=True):
        c = p.terms[exps]
        factors = []
        for name, e in zip(p.vars, exps):
            if e == 0:
                continue
            if e < 0:
                raise PolyError("cannot render Laurent term")
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(c)
        coeff_str = str(mag)
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = "*".join([coeff_str] + factors)
        else:
            body = coeff_str
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- division, gcd, resultant ---------------------------------------------


def exact_div(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Exact quotient p/q; raises :class:`PolyError` if q does not divide p.

    The quotient must be a polynomial: one that needs a negative exponent
    raises, also when p and q are Laurent.  The division runs in the
    engine's representation (see below): p times the lcm of its
    denominators and q over its rational content are packed, each offset by
    its own minimum exponents, and ``_iquo`` divides.  In every variable a
    quotient's exponents lie in the box [min p - min q, max p - max q], and
    ``_iquo`` raises on the first quotient term outside it.
    """
    q = p._check(q)
    if q.is_zero():
        raise PolyError("division by zero polynomial")
    if p.is_zero():
        return p
    if q.is_constant():
        if min(map(min, p.terms)) < 0:
            raise PolyError("not divisible")
        return p.scale(1 / q.constant_value())
    low: list[int] = []  # the quotient's least exponent in each variable
    live: list[tuple[int, int, int, int]] = []  # (index, min p, min q, box span)
    width = 0
    for i, (ep, eq) in enumerate(zip(zip(*p.terms), zip(*q.terms))):
        lo_p, hi_p, lo_q = min(ep), max(ep), min(eq)
        lo, span = lo_p - lo_q, hi_p - max(eq) - lo_p + lo_q
        if lo < 0 or span < 0:
            raise PolyError("not divisible")
        low.append(lo)
        if hi_p > lo_p:
            live.append((i, lo_p, lo_q, span))
            width = max(width, (hi_p - lo_p).bit_length())
    # The offset exponents of p, of q and of every product formed during the
    # division stay below 2^width once each quotient term lies in the box, so
    # fields never carry.  The bit above each field is a guard: subtracting
    # keys whose fields are below 2^width sets the guard of the lowest field
    # that went negative.
    shifts = range(0, (width + 1) * len(live), width + 1)
    guard = sum(1 << (s + width) for s in shifts)
    hi = sum(span << s for (_, _, _, span), s in zip(live, shifts))
    den, cq = p.rational_content().denominator, q.rational_content()
    P = {sum((e[i] - lo) << s for (i, lo, _, _), s in zip(live, shifts)): c.numerator * (den // c.denominator)
         for e, c in p.terms.items()}
    Q = {sum((e[i] - lo) << s for (i, _, lo, _), s in zip(live, shifts)): int(c / cq)
         for e, c in q.terms.items()}
    # q = cq * Q with Q primitive, so by Gauss's lemma Q divides the integer
    # P = den * p over Q iff it does over Z, and every quotient term is exact
    scale = 1 / (cq * den)
    mask = (1 << width) - 1
    terms: dict[tuple[int, ...], Fraction] = {}
    for key, t in _iquo(P, Q, hi, guard).items():
        e = list(low)
        for (i, _, _, _), s in zip(live, shifts):
            e[i] += key >> s & mask
        terms[tuple(e)] = t * scale
    return SparsePoly(terms, p.vars)


def pseudo_division(p: SparsePoly, q: SparsePoly, var: str) -> tuple[SparsePoly, SparsePoly]:
    """Pseudo-quotient and -remainder of p by q with respect to ``var``.

    Satisfies lc(q)^(dp-dq+1) * p == quo * q + rem with deg_var(rem) < deg_var(q).
    """
    dq = q.degree(var)
    if dq < 0:
        raise PolyError("pseudo-division by zero")
    lc_q = q.coeff_of(var, dq)
    quo = SparsePoly.zero(p.vars)
    rem = p
    dp = rem.degree(var)
    if dp < dq:
        return quo, rem
    steps = dp - dq + 1
    i = p._idx(var)
    done = 0
    while not rem.is_zero() and rem.degree(var) >= dq:
        dr = rem.degree(var)
        lc_r = rem.coeff_of(var, dr)
        shift = [0] * len(p.vars)
        shift[i] = dr - dq
        mono = SparsePoly({tuple(shift): QQ(1)}, p.vars)
        quo = quo * lc_q + lc_r * mono
        rem = rem * lc_q - q * lc_r * mono
        done += 1
    if done < steps:
        f = lc_q ** (steps - done)
        quo = quo * f
        rem = rem * f
    return quo, rem


def pseudo_rem(p: SparsePoly, q: SparsePoly, var: str) -> SparsePoly:
    return pseudo_division(p, q, var)[1]


def resultant(p: SparsePoly, q: SparsePoly, var: str) -> SparsePoly:
    """Exact resultant of p and q with respect to ``var``.

    Returns the zero polynomial when the inputs share a factor involving
    ``var``.
    """
    return resultant_and_penultimate(p, q, var)[0]


def resultant_and_penultimate(p: SparsePoly, q: SparsePoly, var: str) -> tuple[SparsePoly, SparsePoly | None]:
    """Res_var(p, q) and the last subresultant of positive degree in ``var``.

    Both come from one pass of the subresultant engine below.  The
    subresultant is fixed up to sign; when the resultant vanishes it is the
    last nonzero one, a multiple of gcd(p, q).  It is None when p or q is
    zero or constant in ``var``.
    """
    q = p._check(q)
    if p.is_zero() or q.is_zero():
        return SparsePoly.zero(p.vars), None
    dp, dq = p.degree(var), q.degree(var)
    if dp == 0 and dq == 0:
        raise PolyError(f"both inputs constant in {var}")
    if p.min_degree(var) < 0 or q.min_degree(var) < 0:
        raise PolyError(f"negative exponents in {var}")
    if dp < dq:
        res, pen = _subresultants(q, p, var)
        return (-res if dp * dq % 2 else res), pen
    return _subresultants(p, q, var)


# -- the integer subresultant engine ------------------------------------------
#
# Inside the engine a polynomial is a dense list in the eliminated variable
# whose entries are dicts from a packed monomial key to a nonzero int.  The
# key holds the exponents of the live (non-eliminated) variables in
# fixed-width bit fields, so integer order on keys is lex order on
# monomials and monomial multiplication is key addition.


def _subresultants(p: SparsePoly, q: SparsePoly, var: str) -> tuple[SparsePoly, SparsePoly | None]:
    """The engine's entry and exit, for deg p >= deg q.

    Each input f is entered as f / (c*m) with c its rational content and m
    the gcd of its monomials, so the engine sees primitive integer
    polynomials without Laurent terms.  Exit puts them back: the
    subresultant of index j (j = 0 is the resultant) is homogeneous of
    degree dq - j in the coefficients of p and dp - j in those of q.
    """
    vi = p._idx(var)
    dp, dq = p.degree(var), q.degree(var)
    present = p.vars_present() | q.vars_present()
    live = [i for i, v in enumerate(p.vars) if i != vi and v in present]
    lows = [[min(e[i] for e in f.terms) for i in live] for f in (p, q)]
    spans = [[max(e[i] for e in f.terms) - lo for i, lo in zip(live, low)] for f, low in zip((p, q), lows)]
    # Every subresultant has degree at most D_v = dq*deg_v p + dp*deg_v q in
    # a live variable v, and so do the Lazard quotients.  A pseudo-remainder
    # before its exact division, the products formed around it and the
    # divisor s^delta * lc(A) have degree below (dp + 2) * D_v.  Fields that
    # wide never carry into each other.  (The max with deg_v p only matters
    # when dq = 0, where D_v does not cover the packed p.)
    bound = max([max(a, dq * a + dp * b) for a, b in zip(*spans)], default=0)
    width = max(1, ((dp + 2) * bound).bit_length())
    shifts = range(0, width * len(live), width)
    mask = (1 << width) - 1
    cp, cq = p.rational_content(), q.rational_content()

    def pack(f: SparsePoly, c: Fraction, low: list[int]) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [{} for _ in range(f.degree(var) + 1)]
        for e, a in f.terms.items():
            out[e[vi]][sum((e[i] - lo) << s for i, lo, s in zip(live, low, shifts))] = int(a / c)
        return out

    def unpack(coeffs: list[dict[int, int]], j: int) -> SparsePoly:
        ep, eq = dq - j, dp - j
        scale = cp ** ep * cq ** eq
        base = [ep * a + eq * b for a, b in zip(*lows)]
        terms: dict[tuple[int, ...], Fraction] = {}
        for k, coeff in enumerate(coeffs):
            for key, a in coeff.items():
                e = [0] * len(p.vars)
                e[vi] = k
                for i, b, s in zip(live, base, shifts):
                    e[i] = (key >> s & mask) + b
                terms[tuple(e)] = a * scale
        return SparsePoly(terms, p.vars)

    P, Q = pack(p, cp, lows[0]), pack(q, cq, lows[1])
    if dq == 0:
        return unpack([_ipow(Q[0], dp)], 0), None
    res, last = _ducos(P, Q)
    return unpack([res], 0), (q if last is None else unpack(*last))


def _ducos(P: list[dict[int, int]], Q: list[dict[int, int]]):
    """Subresultant PRS of P, Q (deg P >= deg Q > 0) with Lazard's optimization.

    Follows Ducos, "Optimizations of the subresultant algorithm" (JPAA
    2000): after Q, A runs through the regular subresultants S_d with
    s = lc(S_d), B through S_(d-1) of degree e, and C = lc(B)^(delta-1) *
    B / s^(delta-1) is S_e, computed by Lazard's repeated exact division
    instead of through powers of s.  The next B, S_(e-1), is
    prem(A, -B) / (s^delta * lc(A)).  Returns S_0 and the last nonzero
    subresultant of positive degree with its index, or None in place of
    that pair when it is Q itself.
    """
    s = _ipow(Q[-1], len(P) - len(Q))
    A = Q
    B = _iprem(P, Q)
    last = None
    while True:
        if not B:
            return {}, last
        d, e = len(A) - 1, len(B) - 1
        delta = d - e
        if delta > 1:
            c = _lazard(B[-1], s, delta - 1)
            C = [_iquo(_imul(c, b), s) for b in B]
        else:
            C = B
        if e == 0:
            return C[0], last
        last = (B, d - 1)
        div = _imul(_ipow(s, delta), A[-1])
        B = [_iquo(r, div) for r in _iprem(A, B)]
        A = C
        s = A[-1]


def _lazard(x: dict[int, int], y: dict[int, int], n: int) -> dict[int, int]:
    """x^n / y^(n-1) for n >= 1; every intermediate quotient is exact."""
    a = 1 << (n.bit_length() - 1)
    c = x
    n -= a
    while a > 1:
        a >>= 1
        c = _iquo(_imul(c, c), y)
        if n >= a:
            c = _iquo(_imul(c, x), y)
            n -= a
    return c


def _imul(a: dict[int, int], b: dict[int, int], acc: dict[int, int] | None = None) -> dict[int, int]:
    """acc + a*b, with acc = 0 when omitted."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(acc) if acc else {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _ipow(a: dict[int, int], n: int) -> dict[int, int]:
    out = {0: 1}
    while n:
        if n & 1:
            out = _imul(out, a)
        n >>= 1
        if n:
            a = _imul(a, a)
    return out


def _iquo(a: dict[int, int], b: dict[int, int], hi: int = 0, guard: int = 0) -> dict[int, int]:
    """Exact quotient a / b, by lex-ordered division; raises if b does not divide a.

    The remainder's leading key comes from a max-heap; each quotient term
    cancels it.  Keys made zero are dropped and their heap entries skipped.
    With ``guard`` set (the bit above each field), a quotient key must have
    every field between 0 and that of ``hi``; the engine's field widths need
    no such check.
    """
    kb = max(b)
    cb = b[kb]
    rest = [(k, c) for k, c in b.items() if k != kb]
    r = dict(a)
    heap = [-k for k in r]
    heapify(heap)
    out: dict[int, int] = {}
    while heap:
        k = -heappop(heap)
        c = r.pop(k, 0)
        if not c:
            continue
        t, rem = divmod(c, cb)
        k -= kb
        if rem or guard and (k | hi - k) & guard:
            raise PolyError("not divisible")
        out[k] = t
        for kc, cc in rest:
            kk = k + kc
            v = r.get(kk)
            if v is None:
                r[kk] = -t * cc
                heappush(heap, -kk)
            elif v == t * cc:
                del r[kk]
            else:
                r[kk] = v - t * cc
    return out


def _iprem(A: list[dict[int, int]], B: list[dict[int, int]]) -> list[dict[int, int]]:
    """prem(A, -B) = lc(-B)^(deg A - deg B + 1) * A reduced modulo B."""
    db = len(B) - 1
    lb = {k: -c for k, c in B[-1].items()}  # lc(-B)
    r = list(A)
    idle = 0
    for k in range(len(A) - 1, db - 1, -1):
        c = r.pop()
        if not c:
            idle += 1  # this step's factor lc(-B) is applied at the end
            continue
        r = [_imul(x, lb) if x else x for x in r]
        for i in range(db):
            if B[i]:
                r[k - db + i] = _imul(c, B[i], r[k - db + i])
    if idle:
        f = _ipow(lb, idle)
        r = [_imul(x, f) if x else x for x in r]
    while r and not r[-1]:
        r.pop()
    return r


def _content_of_coeffs(coeffs: list[SparsePoly]) -> SparsePoly:
    nonzero = [c for c in coeffs if not c.is_zero()]
    if not nonzero:
        raise PolyError("all coefficients zero")
    acc = nonzero[0]
    for c in nonzero[1:]:
        acc = gcd_multivar(acc, c)
        if acc.is_constant():
            break
    return acc.normalized()


def content_wrt(p: SparsePoly, inner_vars: Iterable[str]) -> tuple[SparsePoly, SparsePoly]:
    """Split p = content * primitive with content purely in ``inner_vars``.

    The polynomial is viewed in the complementary (outer) variables with
    coefficients in the inner ring; the content is the gcd of those
    coefficients, normalized integer-primitive with positive leading
    coefficient.
    """
    if p.is_zero():
        raise PolyError("zero polynomial")
    content = _content_of_coeffs(coeffs_wrt(p, inner_vars))
    primitive = exact_div(p, content)
    return content, primitive


def coeffs_wrt(p: SparsePoly, inner_vars: Iterable[str]) -> list[SparsePoly]:
    """Coefficients of p viewed in the variables outside ``inner_vars``.

    One polynomial in ``inner_vars`` per outer monomial, in order of first
    appearance among p's terms.
    """
    inner = set(inner_vars)
    outer_coeffs: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    inner_idx = [i for i, v in enumerate(p.vars) if v in inner]
    for exps, c in p.terms.items():
        outer = list(exps)
        within = [0] * len(p.vars)
        for i in inner_idx:
            within[i] = exps[i]
            outer[i] = 0
        outer_coeffs.setdefault(tuple(outer), {})[tuple(within)] = c
    return [SparsePoly(m, p.vars) for m in outer_coeffs.values()]


# -- the dense univariate layer ------------------------------------------------


def dense_int(p: SparsePoly, var: str) -> list[int]:
    """The dense form of p, univariate in ``var``: its ascending coprime
    ``int`` coefficients, a positive rational multiple of p; [] for zero."""
    i = p._idx(var)
    extra = p.vars_present() - {var}
    if extra:
        raise PolyError(f"not univariate in {var}: extra variables {sorted(extra)}")
    if p.is_zero():
        return []
    if any(exps[i] < 0 for exps in p.terms):
        raise PolyError("negative exponents")
    den = lcm(*(c.denominator for c in p.terms.values()))
    out = [0] * (p.degree(var) + 1)
    for exps, c in p.terms.items():
        out[exps[i]] = c.numerator * (den // c.denominator)
    g = int_gcd(*out)
    return [c // g for c in out] if g > 1 else out


def from_dense(coeffs: Sequence, var: str, variables: Sequence[str] = DEFAULT_VARS) -> SparsePoly:
    """The polynomial sum coeffs[k] var^k; ``int`` or ``Fraction`` coefficients."""
    variables = tuple(variables)
    i = variables.index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * len(variables)
            e[i] = k
            terms[tuple(e)] = c
    return SparsePoly(terms, variables)


def dense_trim(a: list) -> list:
    """Drop trailing zero coefficients in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """The pseudo-remainder of a by a nonconstant b, primitive with positive
    leading coefficient."""
    db = len(b) - 1
    lb = b[-1]
    while len(a) > db:
        la = a[-1]
        k = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[k + i] -= la * c
        a = dense_trim(a)
    if not a:
        return a
    g = int_gcd(*a) if a[-1] > 0 else -int_gcd(*a)
    return [c // g for c in a] if g != 1 else a


def dense_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Gcd of two dense forms, not both zero, by the primitive PRS: primitive
    with positive leading coefficient, [1] when coprime."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _primitive_prem(a, b)
    return [-c for c in a] if a[-1] < 0 else list(a)


def gcd_multivar(p: SparsePoly, q: SparsePoly) -> SparsePoly:
    """Gcd over Q, normalized integer-primitive with positive leading coeff.

    Primitive polynomial remainder sequence with recursive content
    extraction; gcd(p, 0) is the normalization of p.
    """
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd(0, 0) undefined")
    if p.is_zero():
        return q.normalized()
    if q.is_zero():
        return p.normalized()
    pv = p.vars_present()
    qv = q.vars_present()
    if not pv or not qv:
        return SparsePoly.constant(1, p.vars)
    common = pv & qv
    if not common:
        return SparsePoly.constant(1, p.vars)
    # a common factor lives in the common variables, so it divides the
    # content of each operand over Q[common]
    if pv != common:
        return gcd_multivar(content_wrt(p, common)[0], q)
    if qv != common:
        return gcd_multivar(p, content_wrt(q, common)[0])
    if len(common) == 1:
        v = next(iter(common))
        return from_dense(dense_gcd(dense_int(p, v), dense_int(q, v)), v, p.vars)
    # main variable: the last common one in universe order keeps elimination
    # variables (x, z) as coefficients less often than not; any choice works.
    var = [v for v in p.vars if v in common][-1]
    cp, pp = content_wrt(p, [v for v in p.vars if v != var])
    cq, qq = content_wrt(q, [v for v in q.vars if v != var])
    # p = pp * cp where cp is free of var; swap roles: we need content w.r.t.
    # the coefficient ring (all vars except var).
    cont_gcd = gcd_multivar(cp, cq) if (not cp.is_constant() or not cq.is_constant()) else SparsePoly.constant(1, p.vars)
    a, b = pp, qq
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while True:
        if b.degree(var) == 0:
            g = SparsePoly.constant(1, p.vars)
            break
        r = pseudo_rem(a, b, var)
        if r.is_zero():
            g = b
            break
        _, r = content_wrt(r, [v for v in p.vars if v != var])
        a, b = b, r
    if not g.is_constant():
        _, g = content_wrt(g, [v for v in p.vars if v != var])
    result = (cont_gcd * g).normalized()
    return result


def squarefree_decomposition(p: SparsePoly, var: str | None = None) -> list[tuple[SparsePoly, int]]:
    """Yun decomposition [(factor, multiplicity), ...] of a univariate polynomial.

    Factors are normalized, pairwise coprime and squarefree; the product of
    factor^multiplicity equals p up to a rational unit.
    """
    if p.is_zero():
        raise PolyError("zero polynomial")
    present = p.vars_present()
    if var is None:
        if len(present) > 1:
            raise PolyError("polynomial is not univariate")
        if not present:
            return []
        var = next(iter(present))
    if p.degree(var) == 0:
        return []
    dp = p.derivative(var)
    g = gcd_multivar(p, dp)
    out: list[tuple[SparsePoly, int]] = []
    c = exact_div(p, g)
    d = exact_div(dp, g) - c.derivative(var)
    i = 1
    while True:
        if c.degree(var) == 0:
            break
        a = gcd_multivar(c, d)
        if a.degree(var) > 0:
            out.append((a.normalized(), i))
        c = exact_div(c, a)
        d = exact_div(d, a) - c.derivative(var)
        i += 1
    return out


def squarefree_part_multivar(p: SparsePoly) -> SparsePoly:
    """Product of the distinct irreducible factors of p, normalized.

    p must be a polynomial in the variables it contains.  With v the last of
    them and W the others, p = cont * prim, cont in Q[W], prim primitive in
    v.  In characteristic 0 gcd(prim, d prim/dv) is prim's repeated part: a
    nonzero Res_v(prim, d prim/dv) certifies prim squarefree, else the last
    nonzero subresultant of that engine pass is a Q[W]-multiple of the gcd,
    and its primitive part is divided out.  cont, coprime to prim, recurses.
    """
    if p.is_zero():
        raise PolyError("zero polynomial")
    present = p.vars_present()
    active = [u for u in p.vars if u in present]
    if not active:
        return p.normalized()
    if any(min(exps) < 0 for exps in p.terms):
        raise PolyError("negative exponents")
    v, inner = active[-1], active[:-1]
    cont, prim = content_wrt(p, inner)
    if prim.degree(v) >= 2:
        res, sub = resultant_and_penultimate(prim, prim.derivative(v), v)
        if res.is_zero():
            prim = exact_div(prim, content_wrt(sub, inner)[1])
    if cont.is_constant():
        return prim.normalized()
    return (squarefree_part_multivar(cont) * prim).normalized()
