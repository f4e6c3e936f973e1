"""Fit each workload's SPEED_WEIGHTS from the benchmark's own untraced runs.

    python3 perfbench/fit_weights.py

Reads every .perfbench-runs/<workload>-seed*-trace0/child.json, where each
sweep's raw wall time sits next to the median calibration part times
measured during it.  For each workload it prints the python share, on a
0.05 grid, that minimises the spread of the per-run medians of the scaled
sweep times (quartile distance over median, the spread the bounds are held
to), next to the raw spread and the spread with the current weights.  Also
prints the median calibration part times, the candidates for NOMINAL_S.
Fit on ten or more runs per workload, made at different times on one machine.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from workloads import SPEED_WEIGHTS, WORKLOADS  # noqa: E402

STEPS = 20


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    parts = []
    for workload in WORKLOADS:
        runs = []
        for path in sorted((HERE.parent / ".perfbench-runs").glob(f"{workload}-seed*-trace0/child.json")):
            child = json.loads(path.read_text())
            if len(child["calibration_s"]) != len(calibration.KINDS):
                continue  # written by an older calibration
            runs.append(list(zip(child["sweep_s_raw"], child["sweep_calibration_s"])))
            parts.append(child["calibration_s"])
        if len(runs) < 4:
            print(f"{workload}: fewer than four runs, skipped")
            continue

        def run_spread(weights):
            return spread([statistics.median(calibration.scale(w, c, weights) for w, c in run)
                           for run in runs])

        candidates = [(k / STEPS, 1.0 - k / STEPS) for k in range(STEPS + 1)]
        best = min(candidates, key=run_spread)
        raw = spread([statistics.median(w for w, _ in run) for run in runs])
        print(f"{workload}: {len(runs)} runs; run-median spread raw {raw:.3f}, "
              f"current {SPEED_WEIGHTS[workload]} {run_spread(SPEED_WEIGHTS[workload]):.3f}, "
              f"fitted {best} {run_spread(best):.3f}")
    if parts:
        medians = [statistics.median(p[k] for p in parts) for k in range(len(calibration.KINDS))]
        print("median calibration part times:", dict(zip(calibration.KINDS, medians)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
