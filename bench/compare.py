"""Summarise benchmark runs, or compare a parent commit's runs with a change's.

    python3 bench/compare.py RUNS_DIR               # spread of each metric
    python3 bench/compare.py PARENT_DIR CHANGE_DIR  # paired comparison

Each directory holds the stdout of runs of one workload, one file per run
(``*.out``); files are paired by sorted name.  Bounds and directions come from
BENCHMARK.json.  A change wins a pair when its value is better than the
parent's; a gain needs at least nine tenths of the pairs and a median shift
larger than the parent's own quartile spread (bench/README.md).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        if lines:
            runs.append(json.loads(lines[-1]))
    if not runs:
        sys.exit(f"no results in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    sides = [load(d) for d in argv]
    for side, runs in zip(argv, sides):
        bad = sum(not r["correct"] for r in runs)
        print(f"{side}: {len(runs)} runs, {bad} not correct, "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} ops failed")
    for name in sides[0][0]["metrics"]:
        cols = [[r["metrics"][name]["value"] for r in runs] for runs in sides]
        unit = sides[0][0]["metrics"][name]["unit"]
        parts = []
        for values in cols:
            q1, med, q3 = quartiles(values)
            parts.append(f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {(q3 - q1) / med:.3f}")
        line = f"{name} ({unit}): " + " | ".join(parts)
        if len(cols) == 2 and name in spec:
            sign = 1.0 if spec[name]["better"] == "lower" else -1.0
            base, new = statistics.median(cols[0]), statistics.median(cols[1])
            worse = sign * (new - base) / base
            wins = sum(sign * (b - a) < 0 for a, b in zip(*cols))
            line += (f" | change {(new - base) / base:+.3f}, wins {wins}/{min(map(len, cols))}"
                     f"{', WORSE THAN BOUND' if worse > spec[name]['bound'] else ''}")
        print(line)


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    main(sys.argv[1:])
