"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Runs one small case per workload through the untraced and the traced
paths, and checks the reference comparison, the failure accounting and
the self-time arithmetic.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import build_cases, ladder_maps  # noqa: E402

SMALL = {
    "ladder-complex": ["intro/C/resultant", "intro/C/fulton"],
    "ladder-real": ["intro/R"],
    "suite-default": ["dense2-0/C", "sparse7-0/R", "intro/R"],
}


PROBE = SpeedProbe()


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def small_cases(workload: str, seed: int):
    by_name = {c.name: c for c in build_cases(workload, seed)}
    return [by_name[n] for n in SMALL[workload]]


def test_workload(workload: str) -> None:
    cases = small_cases(workload, 1)
    first = run.run_pass(cases, 30.0, PROBE, repeat_s=0.05)
    check(all(o.runs > 1 for o in first.outcomes if o.seconds < 0.025),
          f"{workload}: short cases are repeated")
    run.check_first_pass(cases, first.outcomes, 30.0, PROBE)
    check(all(o.cause is None for o in first.outcomes), f"{workload}: untraced small cases pass their checks")

    tracer = Tracer()
    with tracer:
        traced = run.run_pass(cases, 30.0, PROBE, tracer=tracer)
    run.check_repeat(first, traced)
    check(all(o.cause is None for o in traced.outcomes), f"{workload}: traced outputs equal untraced ones")
    check(tracer.calls[SPAN_NAMES.index("core.sparse_jelonek_2")] == len(cases),
          f"{workload}: one root span per case")

    summary = tracer.per_case_summary([c.name for c in cases])
    for i, name in enumerate(SPAN_NAMES):
        offline = sum(rows.get(name, {}).get("self_s", 0.0) for rows in summary.values())
        assert abs(offline - tracer.self_time[i]) < 1e-9, name
    check(True, f"{workload}: online self times equal those recomputed from the spans")
    for case in cases:
        rows = summary[case.name]
        root = rows["core.sparse_jelonek_2"]["total_s"]
        total_self = sum(r["self_s"] for r in rows.values())
        check(abs(total_self - root) < 1e-6, f"{case.name}: self times add up to the root span")

    # another workload seed gives the same outputs on the fixed maps
    other = run.run_pass(small_cases(workload, 2), 30.0, PROBE)
    fixed = [i for i, c in enumerate(cases) if c.check == "reference"]
    check([ref.output_key(other.outcomes[i].result) for i in fixed]
          == [ref.output_key(first.outcomes[i].result) for i in fixed],
          f"{workload}: outputs do not depend on the seed")


def test_self_time_arithmetic() -> None:
    tracer = Tracer()
    inner = tracer._wrap("poly.exact_div", lambda: time.sleep(0.03))

    def outer_fn():
        time.sleep(0.02)
        inner()
        inner()

    outer = tracer._wrap("core.check_dominant", outer_fn)
    outer()
    i_out, i_in = SPAN_NAMES.index("core.check_dominant"), SPAN_NAMES.index("poly.exact_div")
    check(tracer.calls[i_out] == 1 and tracer.calls[i_in] == 2, "synthetic spans: call counts")
    check(abs(tracer.self_time[i_out] - 0.02) < 0.015, "synthetic spans: outer self time excludes children")
    check(abs(tracer.total[i_out] - tracer.self_time[i_out] - tracer.total[i_in]) < 1e-9,
          "synthetic spans: total = self + children")


def test_speed_normalisation() -> None:
    from speed import REF_PROBE_S

    probe = SpeedProbe()
    probe.samples = [2 * REF_PROBE_S] * 5
    check(abs(probe.normalise(1.0 + 10 * REF_PROBE_S, 0) - 0.5) < 1e-12,
          "normalisation drops the probes inside a case and scales by their mean")
    probe.samples += [REF_PROBE_S] * 2
    check(abs(probe.normalise(0.2, 5) - (0.2 - 2 * REF_PROBE_S) / 2) < 1e-12,
          "a short span is scaled by the median of the recent probes")


def test_bindings() -> None:
    build_cases("ladder-real", 1)
    tracer = Tracer()
    with tracer:
        bound = set(tracer.bindings())
    for name in ("jelonek.poly.resultant", "jelonek.multiplicity.resultant", "jelonek.core.ms_resultant",
                 "jelonek.polytope.resultant", "jelonek.core.sparse_jelonek_2", "jelonek.sparse_jelonek_2"):
        check(name in bound, f"wrapped in every namespace: {name}")
    import jelonek.poly

    check(not hasattr(jelonek.poly.resultant, "__wrapped__"), "uninstall restores the originals")


def test_reference_rejects_wrong_outputs() -> None:
    texts = ladder_maps()
    reference = ref.load_reference()
    for case in small_cases("ladder-complex", 1)[:1] + small_cases("ladder-real", 1):
        result = run.solve(case, 30.0, PROBE).result
        check(ref.check_against_reference(case, result, reference, texts) is None, f"{case.name}: matches")
        dropped = replace(result, components=result.components[:-1])
        check(ref.check_against_reference(case, dropped, reference, texts) is not None,
              f"{case.name}: a missing component is caught")
    comp = result.components[-1]
    old = comp.realness
    comp.realness = "confirmed-empty"
    check(ref.check_against_reference(case, result, reference, texts) is not None,
          "a contradicted real verdict is caught")
    comp.realness = old


def test_failure_accounting() -> None:
    signal.signal(signal.SIGALRM, run._on_alarm)
    big = [c for c in build_cases("suite-default", 1) if c.name == "big/C"]
    probe = SpeedProbe()
    probe.start()
    try:
        out = run.solve(big[0], 0.3, probe)
    finally:
        probe.stop()
    check(out.cause is not None and out.cause.startswith("time limit") and 0.3 <= out.seconds < 1.0,
          "a case over its (normalised) time limit fails with cause 'time limit'")


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    test_self_time_arithmetic()
    test_speed_normalisation()
    test_bindings()
    test_reference_rejects_wrong_outputs()
    test_failure_accounting()
    for workload in ("ladder-complex", "ladder-real", "suite-default"):
        test_workload(workload)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
