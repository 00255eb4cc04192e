"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import os
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(__file__))

from fixtures import BIG_F1, BIG_F2, CURATED, INTRO_F1, INTRO_F2, rand_dominant_map
from oracles import divides, escape_oracle, lattice_points

from jelonek.parsing import parse_polynomial as P
from jelonek.poly import SparsePoly, gcd_multivar, resultant, squarefree_part_multivar
from jelonek.core import (
    FIELD_COMPLEX,
    FIELD_REAL,
    Options,
    check_dominant,
    degree_bound,
    edge_transform,
    implicitize_param,
    jelonek_2_baseline,
    sparse_jelonek_2,
)
from jelonek.multiplicity import fulton_multiplicity, ms_fulton_all, ms_resultant, norm_form, FULTON_INFINITY
from jelonek.polytope import (
    LatticePolygon,
    compute_lattice_basis,
    minkowski_sum,
    mixed_volume,
    newton_polygon,
    test_number_of_roots as count_equals_mv,
    toric_transform,
)
from jelonek.realroots import isolate_real_roots, rational_roots

y1 = SparsePoly.variable("y1")
y2 = SparsePoly.variable("y2")


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {title}")
        raise
    print(f"PASS criterion {n}: {title}")


# ---------------------------------------------------------------- suite cache

_SUITE = None


def suite_maps(count=20):
    """The seeded random dominant sparse-map suite shared by criteria 3/5/8/10."""
    global _SUITE
    if _SUITE is None:
        rng = random.Random(20240)
        maps = []
        while len(maps) < count:
            f1, f2 = rand_dominant_map(rng, max_deg=4, min_terms=4, coeff_bound=9)
            maps.append((f1, f2))
        _SUITE = maps
    return _SUITE


_COMPLEX_RUNS = None


def suite_complex_runs():
    global _COMPLEX_RUNS
    if _COMPLEX_RUNS is None:
        runs = []
        for i, (f1, f2) in enumerate(suite_maps()):
            out = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False, seed=i))
            raw, sf = jelonek_2_baseline(f1, f2)
            runs.append((f1, f2, out, sf))
        _COMPLEX_RUNS = runs
    return _COMPLEX_RUNS


def _component_poly(c):
    if c.defining is not None:
        return c.defining
    return implicitize_param(*c.param)


def test_criterion_1_intro_example_complex():
    with criterion(1, "intro example over C: pertinent component and its transform"):
        t0 = time.monotonic()
        f1, f2 = P(INTRO_F1), P(INTRO_F2)
        out = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False))
        elapsed = time.monotonic() - t0
        target = (y2 - 2 * y1 - 3).normalized()
        hits = [c for c in out.components if c.defining is not None
                and c.defining.normalized() == target]
        assert len(hits) == 1
        prov = hits[0].provenance[0]
        assert prov.source == "pertinent"
        # the contributing edge's toric transform is the expected matrix
        A, records = minkowski_sum(newton_polygon(f1), newton_polygon(f2))
        edge = records[prov.edge_index]
        sysm = edge_transform(f1, f2, edge, A)
        assert sysm.transform.U == ((-1, 1), (-2, 1))
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_worked_example_real():
    with criterion(2, "worked example over R: five components, oracle-anchored constants"):
        f1, f2 = P(BIG_F1), P(BIG_F2)
        t0 = time.monotonic()
        out = sparse_jelonek_2(f1, f2, FIELD_REAL, Options(mv_optimization=False))
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        assert len(out.components) == 5
        by_def = {str(c.defining.normalized()): c for c in out.components if c.defining is not None}
        # (a) merged line y1 = 1 with both contributing edges
        line = by_def[str((y1 - 1).normalized())]
        assert len(line.provenance) == 2
        srcs = {p.edge_index for p in line.provenance}
        assert len(srcs) == 2
        # (b) the semi-origin line
        assert str((729 * y1 - 761).normalized()) in by_def
        # (c) the exact parametrization
        t = SparsePoly.variable("t")
        par = [c for c in out.components if c.param is not None]
        assert len(par) == 1
        assert par[0].param[0] == 1 + t + 2 * t ** 2
        assert par[0].param[1] == 1 + 3 * t - 4 * t ** 2 + 5 * t ** 3 - 6 * t ** 4
        # (d) two pertinent vertical lines, confirmed nonempty, constants
        # anchored on the escape oracle (ground truth; the printed constants
        # in the source differ and are recorded in the decisions ledger)
        pert = [c for c in out.components if any(p.source == "pertinent" for p in c.provenance)]
        assert len(pert) == 2
        assert {str(c.defining.normalized()) for c in pert} == {
            str((10935 * y1 - 4697).normalized()), str((18225 * y1 - 16757).normalized())}
        for c in pert:
            assert c.kind == "vertical-line"
            assert c.realness == "confirmed-nonempty"
            oracle = escape_oracle(f1, f2, c.defining)
            assert oracle is True


def test_criterion_3_baseline_containment():
    with criterion(3, "baseline containment on 20 random dominant sparse maps"):
        t0 = time.monotonic()
        for f1, f2, out, sf in suite_complex_runs():
            for c in out.components:
                d = squarefree_part_multivar(_component_poly(c))
                assert divides(d, sf), (str(f1), str(f2), str(d))
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_4_multiplicity_accumulation():
    with criterion(4, "resultant multiplicities accumulate fiber multiplicities (50 systems)"):
        rng = random.Random(4242)
        x1v = SparsePoly.variable("x1")
        x2v = SparsePoly.variable("x2")
        systems_checked = 0
        attempts = 0
        while systems_checked < 50 and attempts < 600:
            attempts += 1
            a = F(rng.randrange(-2, 3))
            b = F(rng.randrange(-2, 3))
            c2 = b + rng.randrange(1, 3)

            def plant(g):
                v1 = g.eval_rational({"x1": a, "x2": b}).constant_value()
                v2 = g.eval_rational({"x1": a, "x2": c2}).constant_value()
                mu = (v2 - v1) / (b - c2)
                lam = -v1 - mu * b
                return g + SparsePoly.constant(lam) + SparsePoly.constant(mu) * x2v

            def rp():
                p = SparsePoly.zero()
                for _ in range(6):
                    p = p + SparsePoly.monomial(
                        {"x1": rng.randrange(0, 4), "x2": rng.randrange(0, 4)},
                        rng.randrange(-5, 6))
                return p

            f1 = plant(rp())
            f2 = plant(rp())
            if f1.is_zero() or f2.is_zero() or f1.degree("x2") < 1 or f2.degree("x2") < 1:
                continue
            if not gcd_multivar(f1, f2).is_constant():
                continue
            R = resultant(f1, f2, "x2")
            if R.is_zero() or R.degree("x1") < 1:
                continue
            lc1 = f1.leading_coeff_wrt("x2")
            lc2 = f2.leading_coeff_wrt("x2")
            checked_here = 0
            for r, mult in isolate_real_roots(R, "x1"):
                if not r.is_rational():
                    continue
                rv = r.as_fraction()
                if lc1.eval_rational({"x1": rv}).constant_value() == 0:
                    continue
                if lc2.eval_rational({"x1": rv}).constant_value() == 0:
                    continue
                fiber = gcd_multivar(f1.eval_rational({"x1": rv}), f2.eval_rational({"x1": rv}))
                if fiber.degree("x2") < 1:
                    continue
                roots2 = rational_roots(fiber, "x2")
                if len(roots2) != squarefree_part_multivar(fiber).degree("x2"):
                    continue
                total = 0
                for b2 in roots2:
                    Fs = f1.subs_poly("x1", x1v + SparsePoly.constant(rv)).subs_poly(
                        "x2", x2v + SparsePoly.constant(b2))
                    Gs = f2.subs_poly("x1", x1v + SparsePoly.constant(rv)).subs_poly(
                        "x2", x2v + SparsePoly.constant(b2))
                    mu = fulton_multiplicity(Fs, Gs, pair=("x1", "x2"))
                    assert mu != FULTON_INFINITY
                    total += mu
                assert total == mult, (str(f1), str(f2), str(rv))
                checked_here += 1
            if checked_here:
                systems_checked += 1
        assert systems_checked >= 50, systems_checked


def _pertinent_component_sets(f1, f2, fld):
    """Per-pertinent-edge normalized component sets for both methods."""
    from jelonek.core import preprocess_translate

    t1, t2, _ = preprocess_translate(f1, f2, 0)
    A, records = minkowski_sum(newton_polygon(t1), newton_polygon(t2))
    per_edge = []
    for e in records:
        if not (e.pertinent and e.infinity):
            continue
        sysm = edge_transform(t1, t2, e, A)
        res = ms_resultant(sysm, fld) if sysm.g.degree("z1") >= 1 else []
        ful = ms_fulton_all(sysm, fld) if sysm.g.degree("z1") >= 1 else []

        def normset(comps):
            out = set()
            for c in comps:
                d = norm_form(c.defining, c.minpoly)
                out.add(str(squarefree_part_multivar(d)))
            return out

        per_edge.append((e.index, normset(res), normset(ful)))
    return per_edge


def test_criterion_5_fulton_equals_resultant():
    with criterion(5, "ms_fulton and ms_resultant agree on every pertinent edge"):
        cases = [(P(INTRO_F1), P(INTRO_F2)), (P(BIG_F1), P(BIG_F2))]
        cases += [(f1, f2) for f1, f2, _, _ in suite_complex_runs()]
        edges_with_content = 0
        for f1, f2 in cases:
            for fld in (FIELD_COMPLEX, FIELD_REAL):
                for idx, res_set, ful_set in _pertinent_component_sets(f1, f2, fld):
                    assert res_set == ful_set, (str(f1), str(f2), fld, idx)
                    if res_set:
                        edges_with_content += 1
        assert edges_with_content >= 4


def test_criterion_6_geometry_oracles():
    with criterion(6, "Minkowski sums match brute force; worked classification exact"):
        rng = random.Random(606)
        for _ in range(100):
            pts1 = [(rng.randrange(0, 21), rng.randrange(0, 21)) for _ in range(rng.randrange(1, 13))]
            pts2 = [(rng.randrange(0, 21), rng.randrange(0, 21)) for _ in range(rng.randrange(1, 13))]
            Q1 = LatticePolygon.from_points(pts1)
            Q2 = LatticePolygon.from_points(pts2)
            S, records = minkowski_sum(Q1, Q2)
            brute = LatticePolygon.from_points(
                [(a[0] + b[0], a[1] + b[1]) for a in Q1.vertices for b in Q2.vertices])
            assert S.vertices == brute.vertices
            twice = brute.doubled_area() - Q1.doubled_area() - Q2.doubled_area()
            assert mixed_volume(Q1, Q2) == twice // 2
        # the worked classification
        Q1 = LatticePolygon.from_points([(0, 0), (2, 1), (3, 2), (2, 2)])
        Q2 = LatticePolygon.from_points([(0, 0), (4, 1), (7, 2), (9, 3), (10, 4), (4, 4)])
        S, records = minkowski_sum(Q1, Q2)
        assert all(r.infinity for r in records)
        pert = {(r.summand1, r.summand2) for r in records if r.pertinent}
        assert pert == {
            (((2, 1), (3, 2)), ((9, 3), (10, 4))),
            (((3, 2), (2, 2)), ((10, 4), (4, 4))),
        }


def test_criterion_7_lattice_basis_properties():
    with criterion(7, "lattice bases satisfy unimodularity and positive spanning"):
        rng = random.Random(707)
        pairs = 0
        while pairs < 100:
            pts1 = [(rng.randrange(0, 21), rng.randrange(0, 21)) for _ in range(4)]
            pts2 = [(rng.randrange(0, 21), rng.randrange(0, 21)) for _ in range(4)]
            Q1 = LatticePolygon.from_points(pts1)
            Q2 = LatticePolygon.from_points(pts2)
            S, records = minkowski_sum(Q1, Q2)
            if S.dim() < 2:
                continue
            pairs += 1
            lattice = lattice_points(S)
            for edge in records:
                basis = compute_lattice_basis(edge, S)
                v, w, a1 = basis.v, basis.w, basis.anchor
                D = v[0] * w[1] - v[1] * w[0]
                assert D in (1, -1) and D == basis.det
                tr = toric_transform(basis)
                U = tr.U
                assert abs(U[0][0] * U[1][1] - U[0][1] * U[1][0]) == 1
                for p in lattice:
                    rel = (p[0] - a1[0], p[1] - a1[1])
                    b1 = (rel[0] * w[1] - rel[1] * w[0]) * D
                    b2 = (v[0] * rel[1] - v[1] * rel[0]) * D
                    assert b1 >= 0 and b2 >= 0


def test_criterion_8_real_complex_coherence():
    with criterion(8, "real output is coherent with complex output and the escape oracle"):
        # curated suite: verdicts must match the oracle exactly
        contradictions = 0
        for name, a, b, comp, expected in CURATED:
            f1, f2 = P(a), P(b)
            out = sparse_jelonek_2(f1, f2, FIELD_REAL, Options(mv_optimization=False))
            target = P(comp, allowed=("y1", "y2")).normalized()
            mine = [c for c in out.components if c.defining is not None
                    and c.defining.normalized() == target]
            assert mine, name
            verdict = mine[0].realness
            oracle = escape_oracle(f1, f2, target)
            assert oracle is not None, name
            oracle_verdict = "confirmed-nonempty" if oracle else "confirmed-empty"
            if verdict != "undetermined" and verdict != oracle_verdict:
                contradictions += 1
            assert verdict == expected, (name, verdict)
        assert contradictions == 0
        assert any(expected == "confirmed-empty" for *_, expected in CURATED)
        # random suite over R: confirmed components divide complex output
        undetermined = 0
        total = 0
        for i, (f1, f2, cout, sf) in enumerate(suite_complex_runs()):
            rout = sparse_jelonek_2(f1, f2, FIELD_REAL, Options(mv_optimization=False, seed=i))
            cdefs = [squarefree_part_multivar(_component_poly(c)) for c in cout.components]
            cprod = SparsePoly.constant(1, sf.vars)
            for d in cdefs:
                cprod = cprod * d
            cprod = squarefree_part_multivar(cprod)
            for c in rout.components:
                if c.realness == "undetermined":
                    undetermined += 1
                total += 1
                if c.realness != "confirmed-nonempty":
                    continue
                if c.param is not None:
                    d = squarefree_part_multivar(implicitize_param(*c.param))
                else:
                    d = squarefree_part_multivar(norm_form(c.defining, c.minpoly))
                assert any(divides(d, cd) for cd in cdefs) or divides(d, cprod), (str(f1), str(f2), str(d))
        rate = undetermined / total if total else 0.0
        print(f"  [criterion 8] undetermined rate: {undetermined}/{total} = {rate:.2%}")


def test_criterion_9_mv_optimization():
    with criterion(9, "generic dense maps: count check true and outputs identical"):
        rng = random.Random(909)
        passed = 0
        trial = 0
        while passed < 10 and trial < 30:
            trial += 1
            deg = rng.choice([2, 3])

            def dense():
                p = SparsePoly.zero()
                for i in range(deg + 1):
                    for j in range(deg + 1 - i):
                        p = p + SparsePoly.monomial({"x1": i, "x2": j},
                                                    rng.randrange(1, 60) * rng.choice([1, -1]))
                return p

            f1, f2 = dense(), dense()
            ok, _ = check_dominant(f1, f2)
            if not ok:
                continue
            if count_equals_mv(f1, f2, seed=trial) is not True:
                continue
            on = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=True, seed=trial))
            off = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False, seed=trial))

            def key(res):
                return sorted(str(c.defining.normalized()) if c.defining is not None
                              else str(c.param) for c in res.components)

            assert key(on) == key(off)
            assert on.mv_skipped
            passed += 1
        assert passed >= 10, passed


def test_criterion_10_degree_bound():
    with criterion(10, "every complex component degree is within the bound"):
        cases = [(P(INTRO_F1), P(INTRO_F2)), (P(BIG_F1), P(BIG_F2))]
        cases += [(f1, f2) for f1, f2, _, _ in suite_complex_runs()]
        runs = {id(c): None for c in []}
        for i, (f1, f2) in enumerate(cases):
            bound = degree_bound(f1, f2, seed=i)
            if i >= 2:
                out = suite_complex_runs()[i - 2][2]
            else:
                out = sparse_jelonek_2(f1, f2, FIELD_COMPLEX, Options(mv_optimization=False))
            for c in out.components:
                d = _component_poly(c)
                assert d.total_degree() <= bound, (str(f1), str(f2), str(d), bound)
