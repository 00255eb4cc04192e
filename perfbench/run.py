"""The repository benchmark: one workload per run, closed loop, one case at a time.

    python3 perfbench/run.py --workload ladder-complex --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it times whole passes over the workload's cases for
about ``--seconds`` and prints the end-to-end metrics; with ``--trace 1``
it traces one set-up and one pass, between untraced passes, and prints the
per-layer metrics, writing the spans to ``.bench_trace/``.  Every case's output is checked on every run.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from speed import CaseTimeout, SpeedProbe, normalised_once  # noqa: E402
from workloads import CASE_LIMIT_S, REPEAT_S, ROOT, WORKLOADS, build_cases, ladder_maps  # noqa: E402

SETUP_REPEATS = 5
TRACE_DIR = ".bench_trace"
# wall-clock backstop, as a multiple of the normalised limit the probe enforces
WALL_LIMIT_FACTOR = 3
MAX_REPEATS = 25


def _on_alarm(signum, frame):
    raise CaseTimeout()


@dataclass
class Outcome:
    seconds: float             # speed-normalised (speed.py); median of the repeats
    net: float                 # raw seconds, probes excluded
    result: object = None
    cause: str | None = None   # None when the case succeeded
    runs: int = 1


@dataclass
class Pass:
    raw_wall: float            # real seconds, for the run's time budget
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def solve(case, limit: float, probe: SpeedProbe, tracer=None, case_id: int = -1) -> Outcome:
    """One case under the per-case time limit."""
    import jelonek.core

    if tracer is not None:
        tracer.case_id = case_id
    result, cause = None, None
    probe.begin(limit)
    # every path ends the probe's clock inside a handler, so a time-out that
    # lands just as the case returns is still caught
    try:
        signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_FACTOR * limit)
        try:
            result = jelonek.core.sparse_jelonek_2(case.f1, case.f2, case.field, case.options)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        net, seconds = probe.end()
    except CaseTimeout:
        net, seconds = probe.end()
        result, cause = None, f"time limit {limit:g} s"
        if tracer is not None:
            tracer.close_open_spans(time.perf_counter())
    except Exception as exc:  # a raise is a failed case, recorded with its cause
        net, seconds = probe.end()
        cause = f"raised {type(exc).__name__}: {exc}"
    return Outcome(seconds, net, result, cause)


def solve_repeated(case, limit: float, probe: SpeedProbe, repeat_s: float) -> Outcome:
    """Repeat a short case until it has run ``repeat_s``; time it by the median.

    The repeats are scaled together, by the probes taken during all of them.
    """
    mark = probe.mark()
    first = solve(case, limit, probe)
    runs = [first]
    while first.cause is None and sum(o.seconds for o in runs) < repeat_s and len(runs) < MAX_REPEATS:
        again = solve(case, limit, probe)
        runs.append(again)
        if again.cause is not None:
            first.cause = again.cause
        elif ref.output_key(again.result) != ref.output_key(first.result):
            first.cause = "wrong output: a repeat differs from the first run"
    if len(runs) > 1:
        first.seconds = statistics.median(o.net for o in runs) * probe.scale(mark)
        first.runs = len(runs)
    return first


def run_pass(cases, limit: float, probe: SpeedProbe, repeat_s: float = 0.0, tracer=None) -> Pass:
    """One pass; the traced pass runs each case once."""
    start = time.perf_counter()
    if tracer is not None:
        outcomes = [solve(c, limit, probe, tracer, i) for i, c in enumerate(cases)]
    else:
        outcomes = [solve_repeated(c, limit, probe, repeat_s) for c in cases]
    return Pass(time.perf_counter() - start, outcomes)


def check_first_pass(cases, outcomes, limit: float, probe: SpeedProbe) -> None:
    """Compare every successful output with its reference; mark mismatches."""
    reference = ref.load_reference()
    texts = ladder_maps()
    mv_off_cache = {}
    for case, out in zip(cases, outcomes):
        if out.cause is not None:
            continue
        if case.check == "reference":
            bad = ref.check_against_reference(case, out.result, reference, texts)
        elif case.check == "proper":
            bad = ref.check_proper(out.result)
        else:
            key = (case.map_name, case.field)
            if key not in mv_off_cache:
                off = solve(replace(case, options=replace(case.options, mv_optimization=False)),
                            limit, probe)
                mv_off_cache[key] = off
            off = mv_off_cache[key]
            bad = (f"mv_optimization=False reference failed: {off.cause}" if off.cause
                   else ref.check_mv_off(out.result, off.result))
        if bad:
            out.cause = f"wrong output: {bad}"
    # the two routes of each ladder-complex map must agree with each other too
    by_map = {}
    for case, out in zip(cases, outcomes):
        if case.check == "reference" and out.cause is None:
            by_map.setdefault((case.map_name, case.field), []).append((case, out))
    for rows in by_map.values():
        keys = {tuple(ref.output_key(o.result)) for _, o in rows}
        if len(keys) > 1:
            for _, o in rows:
                o.cause = "wrong output: resultant and fulton routes disagree"


def check_repeat(first: Pass, later: Pass) -> None:
    """Later passes must reproduce the first pass's (checked) outputs."""
    for a, b in zip(first.outcomes, later.outcomes):
        if b.cause is None and a.cause is None and ref.output_key(a.result) != ref.output_key(b.result):
            b.cause = "wrong output: differs from the first pass"
        elif b.cause is None and a.cause is not None and a.cause.startswith("wrong output"):
            b.cause = a.cause


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input construction (normalised)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("set-up failed: the jelonek package or its inputs could not be loaded")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(cases, passes: list[Pass], setup_s: float) -> dict:
    per_case = [statistics.median(p.outcomes[i].seconds for p in passes) for i in range(len(cases))]
    attempted = sum(o.runs for p in passes for o in p.outcomes)
    failed = sum(o.cause is not None for p in passes for o in p.outcomes)
    decided = total = 0
    for o in passes[0].outcomes:
        if o.cause is None:
            d, t = ref.real_pertinent_counts(o.result)
            decided += d
            total += t
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "case_p50_ms": (1000 * statistics.median(per_case), "ms"),
        "case_geomean_ms": (1000 * math.exp(statistics.fmean(math.log(t) for t in per_case)), "ms"),
        "case_max_ms": (1000 * max(per_case), "ms"),
        "failed_share": (failed / attempted, "ratio"),
        # nothing left undecided when there is no real pertinent component
        "decided_share": (decided / total if total else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_failures(cases, passes: list[Pass]) -> list[str]:
    lines = []
    for n, p in enumerate(passes):
        for case, o in zip(cases, p.outcomes):
            if o.cause is not None:
                lines.append(f"  pass {n + 1}: {case.name}: {o.cause}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        start = time.perf_counter()
        build_cases(args.workload, args.seed)
        print(normalised_once(time.perf_counter() - start))
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    cases = build_cases(args.workload, args.seed)
    limit = CASE_LIMIT_S[args.workload]
    repeat_s = REPEAT_S[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    probe = SpeedProbe()
    probe.start()

    passes = [run_pass(cases, limit, probe, repeat_s)]
    check_first_pass(cases, passes[0].outcomes, limit, probe)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            build_cases(args.workload, args.seed)   # traces parsing
            traced = run_pass(cases, limit, probe, tracer=tracer)
        check_repeat(passes[0], traced)
        if 2 * passes[0].raw_wall + traced.raw_wall <= args.seconds:
            passes.append(run_pass(cases, limit, probe, repeat_s))   # brackets the traced pass
            check_repeat(passes[0], passes[-1])
        passes_for_failures = passes + [traced]
    else:
        while (sum(p.raw_wall for p in passes) + statistics.median(p.raw_wall for p in passes)
               <= args.seconds):
            passes.append(run_pass(cases, limit, probe, repeat_s))
            check_repeat(passes[0], passes[-1])
        passes_for_failures = passes

    probe.stop()
    attempted = sum(o.runs for p in passes_for_failures for o in p.outcomes)
    failures = report_failures(cases, passes_for_failures)
    correct = not any("wrong output" in line for line in failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} cases, "
          f"{len(passes_for_failures)} passes, closed loop, one case at a time; "
          f"untraced pass walls {', '.join(f'{p.raw_wall:.2f}' for p in passes)} s "
          f"(normalised {', '.join(f'{p.wall:.2f}' for p in passes)} s)")
    if args.trace:
        untraced = statistics.median(p.wall for p in passes)
        metrics = tracer.metrics()
        metrics["trace_overhead_share"] = (traced.wall / untraced - 1, "ratio")
        os.makedirs(TRACE_DIR, exist_ok=True)
        stem = Path(TRACE_DIR) / f"{args.workload}-seed{args.seed}"
        tracer.write(f"{stem}.spans.tsv.gz", [c.name for c in cases])
        with open(f"{stem}.cases.json", "w") as fh:
            # span times are raw seconds, so the summary carries the traced pass's raw wall
            json.dump({"traced_raw_wall_s": traced.raw_wall,
                       "cases": tracer.per_case_summary([c.name for c in cases])}, fh, indent=1)
        print(f"spans written to {stem}.spans.tsv.gz; per-case layer times in {stem}.cases.json")
    else:
        metrics = end_to_end(cases, passes, setup_s)
        for name, (value, unit) in metrics.items():
            print(f"  {name:16s} {value:14.6f} {unit}")
        # the JSON line carries solved_share: a share that is 0 on a clean run
        # cannot be compared as a relative change
        share = metrics.pop("failed_share")[0]
        metrics["solved_share"] = (1.0 - share, "ratio")
    if failures:
        print(f"failures ({len(failures)}):")
        print("\n".join(failures))
    failed = len(failures)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
