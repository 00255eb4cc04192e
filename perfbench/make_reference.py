"""Build reference.json: the vetted outputs every ladder run is compared with.

    python3 perfbench/make_reference.py          # a few minutes; needs mpmath

For every ladder map it computes the library output over C (both routes,
which must agree) and over R, then vets each component independently of
the library's own answer:

* ``acceptance``: constants asserted by tests/test_acceptance.py
  (criterion 1 for the intro pertinent line, criterion 2 for the five
  components of the big map);
* ``CURATED``: the curated suite in tests/fixtures.py, whose verdicts the
  acceptance suite checks against the escape oracle;
* ``escape-oracle``: tests/oracles.escape_oracle, which approaches sample
  points of the component and follows the real solutions.  It resolves x1
  first and can miss an escape in which x1 tends to 0 very fast, so it is
  also run on the same map with x1 and x2 swapped (same image, same set of
  non-properness).  Either run seeing an escape gives "nonempty"; both
  certifying none, with the real probe below seeing none either, gives
  "empty" (a slow escape stays under the oracle's norm threshold);
* ``real-escape probe``/``complex-escape probe``: built from the oracle's
  helpers; it watches the real (or all complex) roots of the eliminants
  Res_x2(f1-y1, f2-y2) (x1-coordinates of the solutions) and
  Res_x1(f1-y1, f2-y2) (x2-coordinates) and needs one of them to grow at
  every probe scale.  The real probe is used where the oracle is
  inconclusive; the complex one vets components with no real escapes.

A component that no source vets stops the script, so the reference never
rests on the library's output alone.  Real verdicts: a component whose
escapes are confirmed accepts that verdict or ``undetermined`` (the
library may decline to decide, never contradict).  A real component whose
verdict no source settles is still vetted as a complex component, and its
entry accepts every verdict and says so in its source.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import LADDER_COMPLEX_MAPS, LADDER_REAL_MAPS, add_library_paths, ladder_maps  # noqa: E402

add_library_paths()

import mpmath as mp  # noqa: E402
from fixtures import CURATED  # noqa: E402
from oracles import _sample_points, _specialize_exact, _exact_squarefree, escape_oracle  # noqa: E402

from jelonek import Options, parse_polynomial, sparse_jelonek_2  # noqa: E402
from jelonek.multiplicity import norm_form  # noqa: E402
from jelonek.poly import SparsePoly, resultant  # noqa: E402
from jelonek.realroots import isolate_real_roots  # noqa: E402

from reference import REFERENCE_PATH, component_key, is_pertinent  # noqa: E402

Y1 = SparsePoly.variable("y1")
Y2 = SparsePoly.variable("y2")
DIRECTIONS = [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1)), (F(1), F(1)), (F(-1), F(-1))]

# constants the acceptance suite asserts (criteria 1 and 2)
ACCEPTANCE = {
    ("intro", "2*y1 - y2 + 3"): "acceptance criterion 1 (pertinent line of the intro example)",
    ("big", "y1 - 1"): "acceptance criterion 2 (merged line y1 = 1)",
    ("big", "729*y1 - 761"): "acceptance criterion 2 (semi-origin line)",
    ("big", "10935*y1 - 4697"): "acceptance criterion 2 (pertinent line, oracle-anchored)",
    ("big", "18225*y1 - 16757"): "acceptance criterion 2 (pertinent line, oracle-anchored)",
    ("big", "param"): "acceptance criterion 2 (exact parametrization)",
}


def _curated_status(map_name: str, defining: str):
    for name, _f1, _f2, comp, status in CURATED:
        if name == map_name and str(parse_polynomial(comp, allowed=("y1", "y2")).normalized()) == defining:
            return status
    return None


def sample_points(c) -> list[tuple[F, F]]:
    """Up to two points on the component, exact or within 1e-45."""
    if c.param is not None:
        P, Q = c.param
        return [(P.eval_rational({"t": t}).constant_value(), Q.eval_rational({"t": t}).constant_value())
                for t in (F(1, 3), F(-7, 5))]
    if c.minpoly is None:
        pts = _sample_points(c.defining.normalized())
        if pts:
            return pts[:2]
    # no rational point: approximate real points of the rational norm at y2 = 1/3,
    # keeping, for an algebraic component, the one its own defining vanishes on
    base = norm_form(c.defining, c.minpoly)
    line = base.eval_rational({"y2": F(1, 3)})
    pts = [(r.refined(F(1, 10 ** 45)).mid(), F(1, 3)) for r, _ in isolate_real_roots(line, "y1")]
    if c.minpoly is not None:
        a = c.rho.refined(F(1, 10 ** 45)).mid()
        spec = c.defining.eval_rational({"a": a, "y2": F(1, 3)})
        pts = [min(pts, key=lambda p: abs(spec.eval_rational({"y1": p[0]}).constant_value()))]
    return pts[:2]


def _roots_norm(R, y, var, real_only: bool, dps=100):
    coeffs = _specialize_exact(R, y, var)
    if len(coeffs) <= 1:
        return mp.mpf(0)
    coeffs = _exact_squarefree(coeffs)
    with mp.workdps(dps):
        cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in reversed(coeffs)]
        while cs and cs[0] == 0:
            cs = cs[1:]
        if len(cs) <= 1:
            return mp.mpf(0)
        roots = mp.polyroots(cs, maxsteps=800, extraprec=400)
        if real_only:
            roots = [r for r in roots if abs(r.imag) < mp.mpf("1e-25") * (1 + abs(r))]
        return max((abs(r) for r in roots), default=mp.mpf(0))


class EscapeProbe:
    """Roots of both eliminants of f - y near a point, as y approaches it.

    Res_x2(f1-y1, f2-y2) has the x1-coordinates of the solutions as roots
    and Res_x1 the x2-coordinates, so a solution running off to infinity
    shows as a root of one of them growing at every probe scale.  With
    ``real_only`` only real roots count: at a real y a real root that is a
    simple common root of the fiber gives a real solution.
    """

    def __init__(self, f1, f2):
        self.f1, self.f2 = f1, f2
        self.eliminants = None

    def escapes(self, samples, real_only: bool) -> bool:
        if self.eliminants is None:
            G1, G2 = self.f1 - Y1, self.f2 - Y2
            self.eliminants = [(resultant(G1, G2, "x2"), "x1"), (resultant(G1, G2, "x1"), "x2")]
        for y_star in samples:
            for d in DIRECTIONS:
                norms = []
                for e in (8, 16, 24, 32, 40, 48):
                    eps = F(1, 10 ** e)
                    y = (y_star[0] + eps * d[0], y_star[1] + eps * d[1])
                    norms.append(max(_roots_norm(R, y, var, real_only) for R, var in self.eliminants))
                if norms[-1] > 1e4 and all(b > 3 * a for a, b in zip(norms, norms[1:])):
                    return True
        return False


def _swapped(text: str) -> str:
    return text.replace("x1", "X").replace("x2", "x1").replace("X", "x2")


def real_oracle(texts: tuple[str, str], samples) -> list[bool | None]:
    """The escape oracle on the map and on its coordinate-swapped twin."""
    verdicts = []
    for pair in (texts, tuple(_swapped(t) for t in texts)):
        f1, f2 = (parse_polynomial(t) for t in pair)
        verdicts.append(escape_oracle(f1, f2, None, samples=samples))
        if verdicts[-1] is True:
            break
    return verdicts


def vet_real(name, texts, c, probe: EscapeProbe) -> dict:
    key = component_key(c)
    short = "param" if c.param is not None else str(c.defining.normalized())
    entry = {"key": key, "pertinent": is_pertinent(c)}
    status = _curated_status(name, short) if c.minpoly is None else None
    if (name, short) in ACCEPTANCE:
        entry.update(truth="nonempty", source=ACCEPTANCE[(name, short)])
    elif status is not None:
        entry.update(truth=status.removeprefix("confirmed-"), source=f"CURATED ({status})")
    else:
        samples = sample_points(c)
        verdicts = real_oracle(texts, samples)
        if True in verdicts:
            entry.update(truth="nonempty", source=f"escape-oracle {verdicts}")
        elif probe.escapes(samples, real_only=True):
            entry.update(truth="nonempty", source=f"real-escape probe (escape-oracle {verdicts})")
        elif verdicts == [False, False]:
            entry.update(truth="empty", source=f"escape-oracle {verdicts}")
        elif probe.escapes(samples, real_only=False):
            entry.update(truth=None, source=f"complex-escape probe; real verdict unvetted "
                                            f"(escape-oracle {verdicts})")
        else:
            raise SystemExit(f"{name}/R {key}: no source confirms this component")
    entry["verdicts"] = ([f"confirmed-{entry['truth']}", "undetermined"] if entry["truth"]
                         else ["confirmed-nonempty", "confirmed-empty", "undetermined"])
    if c.realness not in entry["verdicts"]:
        raise SystemExit(f"{name}/R {key}: library verdict {c.realness} contradicts {entry['source']}")
    print(f"  R {key}: {c.realness}; {entry['source']}", flush=True)
    return entry


def vet_complex(name, c, real_truth: dict, probe: EscapeProbe) -> dict:
    key = component_key(c)
    short = "param" if c.param is not None else str(c.defining.normalized())
    if (name, short) in ACCEPTANCE:
        source = ACCEPTANCE[(name, short)]
    elif real_truth.get(key) == "nonempty":
        source = "real escapes (see the R entry)"
    elif probe.escapes(sample_points(c), real_only=False):
        source = "complex-escape probe"
    else:
        raise SystemExit(f"{name}/C {key}: no source confirms this component")
    print(f"  C {key}: {source}", flush=True)
    return {"key": key, "verdicts": ["not-applicable"], "source": source}


def main() -> int:
    texts = ladder_maps()
    out = {}
    for name in dict.fromkeys(LADDER_COMPLEX_MAPS + LADDER_REAL_MAPS):
        print(name, flush=True)
        f1, f2 = (parse_polynomial(s) for s in texts[name])
        entry = {"f1": texts[name][0], "f2": texts[name][1]}
        real_truth = {}
        probe = EscapeProbe(f1, f2)
        if name in LADDER_REAL_MAPS:
            res = sparse_jelonek_2(f1, f2, "R", Options(mv_optimization=False))
            entry["R"] = [vet_real(name, texts[name], c, probe) for c in res.components]
            real_truth = {e["key"]: e["truth"] for e in entry["R"]}
        if name in LADDER_COMPLEX_MAPS:
            rows = [sparse_jelonek_2(f1, f2, "C", Options(mv_optimization=False, method=m))
                    for m in ("resultant", "fulton")]
            keys = [sorted(component_key(c) for c in r.components) for r in rows]
            if keys[0] != keys[1]:
                raise SystemExit(f"{name}: resultant and fulton routes disagree: {keys}")
            entry["C"] = [vet_complex(name, c, real_truth, probe) for c in rows[0].components]
        out[name] = entry
    doc = {"about": "Vetted ladder outputs; written by make_reference.py, read by reference.py.",
           "maps": out}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
