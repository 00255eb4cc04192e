"""Shared fixture maps for the suite.

The two worked examples plus a curated set of maps with pertinent-edge
components whose real status is known: the even-row family locks the
escaping branch to z2^2 = -(x1-1)^2 * s / u with a fixed sign along a
vertical-line component, so the escapes are forced real or forced
complex-conjugate by the sign choice.  The escape oracle independently
verified every entry (see test_acceptance).
"""

INTRO_F1 = "1 + 2*x1*x2 - x1^2*x2^3"
INTRO_F2 = "5 + 12*x1*x2 - 10*x1^2*x2^3 + 2*x1^3*x2^5"

# the first curated map with (x1 - 1) replaced by x1^2 - 3: its pertinent
# boundary roots are irrational, +-sqrt(3)
IRRATIONAL_BOUNDARY = ("1 + x2^2*(x1^2-3)^2*(x1+2)", "1 + x1*x2^2 + x2^4*(x1^2-3)^2")

# the larger worked example, with the sign of x1^7*x2^2 fixed to the value
# consistent with its own per-edge outputs (see the decisions ledger)
BIG_F1 = "1 + x1*x2 + 2*x1^2*x2^2 - 7/10*x1^2*x2 - 3*x1^3*x2^2"
BIG_F2 = ("1 + 3*x1*x2 - 4*x1^2*x2^2 + 5*x1^3*x2^3 - 6*x1^4*x2^4 + 2187/32*x1^10*x2^4"
          " - 54*x1^6*x2^3 + 5103/320*x1^9*x2^3 + x1^7*x2^2 + x1^4*x2")

# curated suite: (name, f1, f2, pertinent component as a string, expected real status)
CURATED = [
    ("empty-line-no-real-fibers",
     "1 + x2^2*(x1-1)^2",
     "1 + x1*x2^2 + x2^4*(x1-1)^2",
     "y1", "confirmed-empty"),
    ("nonempty-line",
     "1 + x2^2*(x1-1)^2",
     "1 + (x1-2)*x2^2 + x2^4*(x1-1)^2",
     "y1 - 2", "confirmed-nonempty"),
    ("empty-line-with-real-fibers",
     "1 + x2^2*(x1-1)^2*(x1+2)",
     "1 + x1*x2^2 + x2^4*(x1-1)^2",
     "y1 + 2", "confirmed-empty"),
    ("intro-pertinent",
     INTRO_F1, INTRO_F2,
     "2*y1 - y2 + 3", "confirmed-nonempty"),
    ("big-pertinent-a",
     BIG_F1, BIG_F2,
     "10935*y1 - 4697", "confirmed-nonempty"),
    ("big-pertinent-b",
     BIG_F1, BIG_F2,
     "18225*y1 - 16757", "confirmed-nonempty"),
]


def rand_dominant_map(rng, max_deg=4, min_terms=4, coeff_bound=9):
    """Seeded sparse dominant map: total degree <= max_deg, >= min_terms
    monomials per coordinate, coefficients bounded by coeff_bound."""
    from jelonek.poly import SparsePoly
    from jelonek.core import check_dominant

    while True:
        def rp():
            p = SparsePoly.zero()
            for _ in range(rng.randrange(min_terms, min_terms + 3)):
                e1 = rng.randrange(0, max_deg + 1)
                e2 = rng.randrange(0, max_deg + 1 - e1)
                c = rng.randrange(-coeff_bound, coeff_bound + 1)
                p = p + SparsePoly.monomial({"x1": e1, "x2": e2}, c)
            return p

        f1, f2 = rp(), rp()
        if len(f1.terms) < min_terms or len(f2.terms) < min_terms:
            continue
        ok, _ = check_dominant(f1, f2)
        if ok:
            return f1, f2
