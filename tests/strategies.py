"""Hypothesis strategies shared by the polynomial test modules."""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import strategies as st

from jelonek.poly import SparsePoly


def _sparse(terms):
    return sum((SparsePoly.monomial(exps, c) for exps, c in terms), SparsePoly.zero())


def polys_in(variables, max_deg=2, max_terms=3, min_deg=0):
    """Sparse polynomials in ``variables`` with small rational coefficients;
    exponents lie in [min_deg, max_deg], so a negative ``min_deg`` gives
    Laurent polynomials."""
    coeff = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    exps = st.fixed_dictionaries({v: st.integers(min_deg, max_deg) for v in variables})
    return st.lists(st.tuples(exps, coeff), min_size=1, max_size=max_terms).map(_sparse)
