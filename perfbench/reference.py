"""Canonical output keys and the correctness checks run on every case.

Ladder cases and the worked examples are compared with ``reference.json``,
whose entries were vetted once by acceptance constants, the curated suite
or the escape oracle (see make_reference.py).  Generated suite maps are
checked against the same map with the mixed-volume check off, and dense
proper maps must give the empty set.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DECIDED = ("confirmed-nonempty", "confirmed-empty")


def component_key(c) -> str:
    """Seed-independent description of one output component, without realness."""
    if c.param is not None:
        return f"parametric-curve: ({c.param[0]}, {c.param[1]})"
    key = f"{c.kind}: {c.defining.normalized() if c.minpoly is None else c.defining}"
    if c.minpoly is not None:
        key += f" mod {c.minpoly.normalized()}"
        if c.rho is not None:
            key += f" at rho~{c.rho.to_float():.6f}"
    return key


def is_pertinent(c) -> bool:
    return any(p.source == "pertinent" for p in c.provenance)


def output_key(result) -> list[str]:
    """The whole output: sorted component keys with their realness."""
    return sorted(f"{component_key(c)} [{c.realness}]" for c in result.components)


def real_pertinent_counts(result) -> tuple[int, int]:
    """(decided, total) real pertinent components of a real-field result."""
    if result.field != "R":
        return 0, 0
    comps = [c for c in result.components if is_pertinent(c)]
    return sum(c.realness in DECIDED for c in comps), len(comps)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["maps"]


def check_against_reference(case, result, reference: dict, map_texts: dict) -> str | None:
    """None if the output matches the vetted reference, else the mismatch."""
    entry = reference.get(case.map_name)
    if entry is None:
        return f"no reference entry for map {case.map_name}"
    if (entry["f1"], entry["f2"]) != map_texts[case.map_name]:
        return f"reference map text differs from the workload's {case.map_name}"
    expected = entry[case.field]
    got = {}
    for c in result.components:
        got.setdefault(component_key(c), []).append(c)
    want = {}
    for e in expected:
        want.setdefault(e["key"], []).append(e)
    if sorted((k, len(v)) for k, v in got.items()) != sorted((k, len(v)) for k, v in want.items()):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"components differ: missing {missing}, unexpected {extra}"
    for key, comps in got.items():
        allowed = {v for e in want[key] for v in e["verdicts"]}
        for c in comps:
            if c.realness not in allowed:
                return f"verdict {c.realness} for {key}, allowed {sorted(allowed)}"
    return None


def check_mv_off(result, reference_result) -> str | None:
    """Default options must give exactly the output of the check-free route."""
    got, want = output_key(result), output_key(reference_result)
    if got != want:
        return f"output differs from mv_optimization=False: {got} vs {want}"
    return None


def check_proper(result) -> str | None:
    if result.components:
        return f"proper dense map gave components {output_key(result)}"
    return None
