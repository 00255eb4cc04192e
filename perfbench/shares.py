"""Print layer shares of the traced wall time from a traced run's summary.

    python3 perfbench/run.py --workload ladder-complex --seed 1 --trace 1
    python3 perfbench/shares.py .bench_trace/ladder-complex-seed1.cases.json [row-filter]

For every traced function: total_s and self_s summed over the cases whose
name contains ``row-filter`` (all cases by default), and their shares of
the traced pass's wall time.
"""

from __future__ import annotations

import json
import sys


def main(path: str, row_filter: str = "") -> int:
    with open(path) as fh:
        doc = json.load(fh)
    wall = doc["traced_raw_wall_s"]
    sums: dict[str, list[float]] = {}
    for case, rows in doc["cases"].items():
        if case == "-" or row_filter not in case:
            continue
        for name, row in rows.items():
            acc = sums.setdefault(name, [0.0, 0.0])
            acc[0] += row["total_s"]
            acc[1] += row["self_s"]
    print(f"traced wall_s {wall:.3f} s; rows matching {row_filter!r}")
    print(f"{'function':45s} {'total_s':>9s} {'share':>6s} {'self_s':>9s} {'share':>6s}")
    for name, (total, own) in sorted(sums.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:45s} {total:9.3f} {total / wall:6.1%} {own:9.3f} {own / wall:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
