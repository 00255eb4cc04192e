"""Workload definitions: the cases each named workload runs.

A case is one call of ``sparse_jelonek_2`` with its field, route and
``Options``.  ``build_cases`` is the set-up step whose cost ``setup_s``
reports: it imports the library and parses or generates the inputs.  The
workload seed feeds the random-map generators and, on the ladders,
``Options.seed``; no reference output depends on it.  suite-default runs
``Options()`` unchanged, seed 0 included, as a user with no flags does.

Why each workload exists is recorded in NOTES.md next to this file.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("ladder-complex", "ladder-real", "suite-default")

# Per-case time limit in normalised seconds (see speed.py).  The ladders'
# slowest case (even-row k=3 on the resultant route) takes about 10-14 s on
# a 2-core machine; suite-default's slowest legitimate case about 50 ms,
# while the big worked example's mixed-volume check runs for more than 15
# min under default options.
CASE_LIMIT_S = {"ladder-complex": 120.0, "ladder-real": 120.0, "suite-default": 2.0}

# Within a pass a case shorter than this many seconds is repeated and timed
# by the median of its repeats.  The ladders have 8-16 cases, many of them
# 10-100 ms, so one unlucky run of a short case would move their medians;
# suite-default's 228 cases need no repeats.
REPEAT_S = {"ladder-complex": 0.3, "ladder-real": 0.3, "suite-default": 0.0}

# suite-default composition, per field.  Random maps come from
# tests/fixtures.rand_dominant_map and are kept only when they have no
# pertinent infinity edge.  Random maps with one run the mixed-volume check,
# whose cost is heavy-tailed: on 200 such degree-4 maps the median was
# 47 ms but 4 ran past 4 s, so a few per seed would decide the workload's
# sum and its failure count by chance.  That defect stays visible through
# the big worked example.  Dense maps are mostly of degree 3, so the median
# case is a dense map's mixed-volume check and not the gap between clusters.
SUITE_SPARSE = {4: 16, 7: 16}          # maps per maximal degree
SUITE_DENSE = {2: 8, 3: 72}            # maps per degree


def add_library_paths() -> None:
    for sub in ("tests", "src"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)


def even_row(k: int) -> tuple[str, str]:
    """The first curated map with x2 -> x2^k, i.e. x2^(2k) in place of x2^2."""
    return (f"1 + x2^{2 * k}*(x1-1)^2", f"1 + x1*x2^{2 * k} + x2^{4 * k}*(x1-1)^2")


def ladder_maps() -> dict[str, tuple[str, str]]:
    """Every map the two ladders use, as source text."""
    from fixtures import BIG_F1, BIG_F2, CURATED, INTRO_F1, INTRO_F2

    maps = {"intro": (INTRO_F1, INTRO_F2), "big": (BIG_F1, BIG_F2)}
    for name, f1, f2, _comp, _status in CURATED[:3]:
        maps[name] = (f1, f2)
    maps["even-row-2"] = even_row(2)
    maps["even-row-3"] = even_row(3)
    maps["extra-factor"] = ("1 + x2^2*(x1-1)^2*(x1+2)*(x1+3)", CURATED[0][2])
    maps["irrational-boundary"] = ("1 + x2^2*(x1^2-3)^2*(x1+2)", "1 + x1*x2^2 + x2^4*(x1^2-3)^2")
    return maps


LADDER_COMPLEX_MAPS = ("intro", "big", "empty-line-no-real-fibers", "nonempty-line",
                       "empty-line-with-real-fibers", "even-row-2", "even-row-3",
                       "irrational-boundary")
LADDER_REAL_MAPS = ("intro", "big", "empty-line-no-real-fibers", "nonempty-line",
                    "empty-line-with-real-fibers", "even-row-2", "extra-factor",
                    "irrational-boundary")


@dataclass
class Case:
    name: str        # unique within the workload, e.g. "even-row-3/C/resultant"
    map_name: str    # ladder map name, or the generated map's label
    f1: object       # SparsePoly
    f2: object
    field: str       # "C" or "R"
    options: object  # jelonek Options
    check: str       # "reference" | "mv-off" | "proper"


def build_cases(workload: str, seed: int) -> list[Case]:
    """Import the library and parse or generate the workload's inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    add_library_paths()
    import jelonek
    from jelonek import Options

    maps = ladder_maps()
    parse = jelonek.parsing.parse_polynomial  # module attribute: traced when wrapped
    cases: list[Case] = []
    if workload == "ladder-complex":
        for name in LADDER_COMPLEX_MAPS:
            f1, f2 = (parse(s) for s in maps[name])
            for method in ("resultant", "fulton"):
                cases.append(Case(f"{name}/C/{method}", name, f1, f2, "C",
                                  Options(mv_optimization=False, method=method, seed=seed),
                                  "reference"))
    elif workload == "ladder-real":
        for name in LADDER_REAL_MAPS:
            f1, f2 = (parse(s) for s in maps[name])
            cases.append(Case(f"{name}/R", name, f1, f2, "R",
                              Options(mv_optimization=False, seed=seed), "reference"))
    else:
        # default Options, seed included: what `jelonek compute` runs with no flags
        cases = _suite_default(seed, maps, parse, Options())
    return cases


def _suite_default(seed: int, maps, parse, options) -> list[Case]:
    rng = random.Random(seed)
    generated = []
    for deg, count in SUITE_SPARSE.items():
        for i, (f1, f2) in enumerate(_maps_without_pertinent_edge(rng, deg, count)):
            generated.append((f"sparse{deg}-{i}", f1, f2, "mv-off"))
    for deg, count in SUITE_DENSE.items():
        for i in range(count):
            generated.append((f"dense{deg}-{i}", *_proper_dense_map(rng, deg), "proper"))
    for name in ("intro", "big"):
        generated.append((name, *(parse(s) for s in maps[name]), "reference"))
    cases = []
    for label, f1, f2, check in generated:
        for fld in ("C", "R"):
            cases.append(Case(f"{label}/{fld}", label, f1, f2, fld, options, check))
    return cases


def _maps_without_pertinent_edge(rng: random.Random, max_deg: int, count: int):
    from fixtures import rand_dominant_map

    out = []
    while len(out) < count:
        f1, f2 = rand_dominant_map(rng, max_deg=max_deg)
        if not _has_pertinent_edge(f1, f2):
            out.append((f1, f2))
    return out


def _has_pertinent_edge(f1, f2) -> bool:
    """Whether the library will reach the mixed-volume check (at Options().seed)."""
    from jelonek.core import preprocess_translate
    from jelonek.polytope import minkowski_sum, newton_polygon

    t1, t2, _ = preprocess_translate(f1, f2, 0)
    _, records = minkowski_sum(newton_polygon(t1), newton_polygon(t2))
    return any(e.pertinent and e.infinity for e in records)


# -- dense generic maps ------------------------------------------------------


def _proper_dense_map(rng: random.Random, deg: int):
    """A dense map of degree ``deg`` built like acceptance criterion 9.

    Redrawn until the top-degree forms of f1 and f2 have no common zero in
    P^1, checked by a Sylvester determinant computed here.  Such a map is
    proper, so its set of non-properness is empty; with a nonzero constant
    term its torus root count equals the mixed volume, which makes the
    mixed-volume check skip every pertinent edge.
    """
    from jelonek import check_dominant
    from jelonek.poly import SparsePoly

    while True:
        c1 = _dense_coeffs(rng, deg)
        c2 = _dense_coeffs(rng, deg)
        top1 = [c1[(deg - j, j)] for j in range(deg + 1)]
        top2 = [c2[(deg - j, j)] for j in range(deg + 1)]
        if sylvester_resultant(top1, top2) == 0:
            continue
        f1, f2 = (sum((SparsePoly.monomial({"x1": i, "x2": j}, c) for (i, j), c in cs.items()),
                      SparsePoly.zero()) for cs in (c1, c2))
        if check_dominant(f1, f2)[0]:
            return f1, f2


def _dense_coeffs(rng: random.Random, deg: int) -> dict[tuple[int, int], int]:
    out = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            out[(i, j)] = rng.randrange(1, 60) * rng.choice([1, -1])
    return out


def sylvester_resultant(a: list, b: list) -> Fraction:
    """Resultant of two binary forms given by coefficient lists of equal degree.

    Both forms have a nonzero x1^deg coefficient here (every dense
    coefficient is nonzero), so the determinant of the Sylvester matrix of
    the dehomogenized polynomials decides a common projective zero.
    """
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(x) for x in a] + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(x) for x in b] + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det
