#!/usr/bin/env python3
"""Layer-share table from the spans a traced benchmark run wrote.

    python3 perfbench/run.py --workload desk-snr --seed 0 --seconds 40 --trace 1
    python3 perfbench/shares.py desk-snr

For the fastest traced sweep it prints, per span name, the call count, the
self time (span time minus child spans) and the inclusive time, each as a
share of the sweep's root span. Self shares add up to 100%; inclusive shares
overlap where one traced call runs inside another.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import span_totals

OUT = Path(__file__).resolve().parent / "out"


def shares(workload: str) -> list[tuple[str, int, float, float]]:
    data = json.loads((OUT / f"spans-{workload}.json").read_text())
    names = data["names"]
    sweep = min(data["sweeps"], key=lambda s: s["spans"][0][2] - s["spans"][0][1])
    spans = sweep["spans"]
    root = spans[0][2] - spans[0][1]
    calls, total, self_time = span_totals(
        [names[span[0]] for span in spans], [span[3] for span in spans],
        [span[2] - span[1] for span in spans])
    return sorted(((name, calls[name], self_time[name] / root, total[name] / root)
                   for name in calls), key=lambda row: -row[2])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'span':36s} {'calls':>7s} {'self':>7s} {'incl':>7s}")
    for name, count, self_share, incl_share in shares(argv[0]):
        print(f"{name:36s} {count:7d} {self_share:7.1%} {incl_share:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
