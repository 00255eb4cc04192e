"""Command-line frontend.

Commands operate on a dominant map given by two polynomial expressions in
x1, x2 with rational coefficients:

    jelonek compute  "f1" "f2" [--field real|complex] [--json] ...
    jelonek baseline "f1" "f2"
    jelonek polytope "f1" "f2"
    jelonek mv-check "f1" "f2"
    jelonek bound    "f1" "f2"
    jelonek multiplicity "F" "G" --point a,b

Exit codes: 0 success, 1 computation error (``error: ...`` on stderr),
2 non-dominant input, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import (
    FIELD_COMPLEX,
    FIELD_REAL,
    Component,
    JelonekSet,
    NotDominantError,
    Options,
    degree_bound,
    implicitize_param,
    jelonek_2_baseline,
    sparse_jelonek_2,
)
from .multiplicity import fulton_multiplicity
from .parsing import ParseError, parse_polynomial
from .poly import PolyError, QQ, SparsePoly, from_dense, poly_to_str
from .polytope import minkowski_sum, mixed_volume, newton_polygon, test_number_of_roots

SCHEMA_VERSION = "1.0"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jelonek",
                                 description="Set of non-properness of plane polynomial maps")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_map=True):
        if needs_map:
            p.add_argument("f1", nargs="?", help="first coordinate polynomial in x1, x2")
            p.add_argument("f2", nargs="?", help="second coordinate polynomial in x1, x2")
            p.add_argument("--stdin", action="store_true", help="read the two polynomials from stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=0, help="seed for all internal random choices")

    c = sub.add_parser("compute", help="compute the set of non-properness")
    common(c)
    c.add_argument("--field", choices=["real", "complex"], default="complex")
    c.add_argument("--method", choices=["resultant", "fulton"], default="resultant")
    c.add_argument("--no-mv-optimization", action="store_true",
                   help="always process pertinent edges")
    c.add_argument("--emit-implicit", action="store_true",
                   help="attach implicit equations to parametric components")
    c.add_argument("--trace", action="store_true", help="list every edge with its flags")
    c.add_argument("--with-baseline", action="store_true",
                   help="include the classical superset polynomial in the output")

    b = sub.add_parser("baseline", help="classical resultant-coefficient superset")
    common(b)

    p = sub.add_parser("polytope", help="Minkowski sum and edge classification")
    common(p)

    m = sub.add_parser("mv-check", help="torus root count versus mixed volume")
    common(m)

    d = sub.add_parser("bound", help="degree bound for the complex set")
    common(d)

    mu = sub.add_parser("multiplicity", help="intersection multiplicity at a point")
    common(mu)
    mu.add_argument("--point", required=True, help="rational point a,b")
    return ap


def _read_map(args) -> tuple[SparsePoly, SparsePoly]:
    if getattr(args, "stdin", False):
        data = sys.stdin.read().split("\n")
        exprs = [line.strip() for line in data if line.strip()]
        if len(exprs) < 2:
            raise ParseError("expected two polynomials on stdin", 0)
        s1, s2 = exprs[0], exprs[1]
    else:
        if args.f1 is None or args.f2 is None:
            raise ParseError("two polynomial arguments required", 0)
        s1, s2 = args.f1, args.f2
    return parse_polynomial(s1), parse_polynomial(s2)


def _poly_json(p: SparsePoly | None) -> str | None:
    return None if p is None else poly_to_str(p)


def _rho_json(c: Component):
    r = c.rho.refined(QQ(1, 10 ** 6))
    return {
        "minpoly": poly_to_str(from_dense(r.dense, "t")),
        "interval": [str(r.lo), str(r.hi)],
        "approx": r.to_float(),
    }


def _component_json(c: Component):
    out = {
        "kind": c.kind,
        "realness": c.realness,
        "provenance": [
            {
                "edge": {"endpoints": [list(p.endpoints[0]), list(p.endpoints[1])], "flags": p.flags},
                "method": p.method,
                "source": p.source,
                **({"rho_index": p.rho_index} if p.rho_index is not None else {}),
            }
            for p in c.provenance
        ],
    }
    if c.defining is not None:
        out["defining"] = _poly_json(c.defining)
    if c.minpoly is not None:
        out["minpoly"] = _poly_json(c.minpoly)
    if c.param is not None:
        out["param"] = {"y1": _poly_json(c.param[0]), "y2": _poly_json(c.param[1])}
    if c.implicit is not None:
        out["implicit"] = _poly_json(c.implicit)
    if c.rho is not None:
        out["rho"] = _rho_json(c)
    return out


def _realness_label(c: Component) -> str:
    return {
        "confirmed-nonempty": "real: nonempty",
        "confirmed-empty": "real: empty",
        "undetermined": "real: undetermined",
        "not-applicable": "complex",
    }[c.realness]


def _component_text(c: Component) -> str:
    prov = ", ".join(f"{p.source} edge #{p.edge_index}" for p in c.provenance)
    extra = ""
    if c.rho is not None:
        extra = f", rho = {c.rho.to_float():.6f}"
    if c.param is not None:
        body = f"y1 = {poly_to_str(c.param[0])}, y2 = {poly_to_str(c.param[1])}"
        if c.implicit is not None:
            body += f"; implicit {poly_to_str(c.implicit)} = 0"
        return f"component: {body} [{prov}{extra}, {_realness_label(c)}]"
    return f"component: {poly_to_str(c.defining)} = 0 [{prov}{extra}, {_realness_label(c)}]"


def _emit_compute(result: JelonekSet, args, baseline: SparsePoly | None = None) -> None:
    if args.json:
        doc = {
            "version": SCHEMA_VERSION,
            "tool": "jelonek",
            "field": "real" if result.field == FIELD_REAL else "complex",
            "translation": list(result.translation),
            "mv_optimization_skipped_pertinent": result.mv_skipped,
            "components": [_component_json(c) for c in result.components],
        }
        if baseline is not None:
            doc["baseline"] = poly_to_str(baseline)
        if args.trace:
            doc["edges"] = [
                {"endpoints": [list(e.endpoints[0]), list(e.endpoints[1])],
                 "inner_normal": list(e.inner_normal), "flags": e.flags()}
                for e in result.edges
            ]
        print(json.dumps(doc, sort_keys=True))
        return
    print(f"field: {'real' if result.field == FIELD_REAL else 'complex'}")
    print(f"translation: {result.translation}")
    if baseline is not None:
        print(f"baseline (squarefree): {poly_to_str(baseline)}")
    if result.mv_skipped:
        print("pertinent edges skipped: torus count equals the mixed volume")
    for c in result.components:
        print(_component_text(c))
    if args.trace:
        for e in result.edges:
            on = ", ".join(k for k, v in e.flags().items() if v)
            print(f"edge #{e.index}: {e.endpoints[0]} -> {e.endpoints[1]} normal {e.inner_normal} [{on}]")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 3
    except NotDominantError as e:
        print(f"not dominant: {e}", file=sys.stderr)
        return 2
    except PolyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    f1, f2 = _read_map(args)
    if args.command == "compute":
        fld = FIELD_REAL if args.field == "real" else FIELD_COMPLEX
        options = Options(mv_optimization=not args.no_mv_optimization,
                          method=args.method, seed=args.seed)
        result = sparse_jelonek_2(f1, f2, fld, options)
        if args.emit_implicit:
            for c in result.components:
                if c.param is not None and c.implicit is None:
                    c.implicit = implicitize_param(*c.param)
        baseline = None
        if args.with_baseline:
            _, baseline = jelonek_2_baseline(f1, f2)
        _emit_compute(result, args, baseline)
        return 0
    if args.command == "baseline":
        raw, sf = jelonek_2_baseline(f1, f2)
        if args.json:
            print(json.dumps({"version": SCHEMA_VERSION, "raw": poly_to_str(raw),
                              "squarefree": poly_to_str(sf)}, sort_keys=True))
        else:
            print(f"baseline: {poly_to_str(raw)}")
            print(f"squarefree: {poly_to_str(sf)}")
        return 0
    if args.command == "polytope":
        A1 = newton_polygon(f1)
        A2 = newton_polygon(f2)
        A, records = minkowski_sum(A1, A2)
        if args.json:
            print(json.dumps({
                "version": SCHEMA_VERSION,
                "np1": [list(v) for v in A1.vertices],
                "np2": [list(v) for v in A2.vertices],
                "sum": [list(v) for v in A.vertices],
                "mixed_volume": mixed_volume(A1, A2),
                "edges": [{"endpoints": [list(e.endpoints[0]), list(e.endpoints[1])],
                           "inner_normal": list(e.inner_normal),
                           "summand1": [list(p) for p in e.summand1],
                           "summand2": [list(p) for p in e.summand2],
                           "flags": e.flags()} for e in records],
            }, sort_keys=True))
        else:
            print(f"NP(f1): {list(A1.vertices)}")
            print(f"NP(f2): {list(A2.vertices)}")
            print(f"sum: {list(A.vertices)}")
            print(f"mixed volume: {mixed_volume(A1, A2)}")
            for e in records:
                on = ", ".join(k for k, v in e.flags().items() if v)
                print(f"edge #{e.index}: {e.endpoints[0]} -> {e.endpoints[1]} "
                      f"normal {e.inner_normal} summands {e.summand1} + {e.summand2} [{on}]")
        return 0
    if args.command == "mv-check":
        got = test_number_of_roots(f1, f2, args.seed)
        text = "indeterminate" if got is None else ("true" if got else "false")
        if args.json:
            print(json.dumps({"version": SCHEMA_VERSION, "equal": got, "verdict": text}))
        else:
            print(text)
        return 0
    if args.command == "bound":
        b = degree_bound(f1, f2, args.seed)
        if args.json:
            print(json.dumps({"version": SCHEMA_VERSION, "bound": str(b)}))
        else:
            print(str(b))
        return 0
    if args.command == "multiplicity":
        try:
            parts = args.point.split(",")
            pt = (Fraction(parts[0].strip()), Fraction(parts[1].strip()))
        except (ValueError, IndexError, ZeroDivisionError):
            raise ParseError("point must be two rationals a,b", 0)
        mu = fulton_multiplicity(f1, f2, ("x1", "x2"), pt)
        text = str(mu)  # FULTON_INFINITY prints as "infinity"
        if args.json:
            print(json.dumps({"version": SCHEMA_VERSION, "multiplicity": text}))
        else:
            print(text)
        return 0
    raise PolyError(f"unknown command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
