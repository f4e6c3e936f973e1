"""The workload process: set up coldgp, then time run_experiment calls.

Started by run.py in a fresh interpreter whose environment already fixes
the BLAS thread count, with the run directory as working directory.  It
prints ``ready`` once coldgp is imported and the config is parsed (the end
of set-up), and one JSON object as its last line when done.

    python3 child.py CONFIG --workload NAME --seconds S --trace 0|1 [--setup-only]
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import coldgp.cli
import coldgp.config

MIN_SWEEPS = 3         # timed sweeps per untraced run, however long a sweep takes
MIN_TRACED_PAIRS = 2   # (untraced, traced) sweep pairs per traced run
SETUP_CALIBRATIONS = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    config = coldgp.config.load_config(args.config)
    print("ready", flush=True)

    # the benchmark's own modules load after 'ready', outside the set-up time
    import calibration
    # the machine's speed right after set-up, to scale the set-up time by
    out = {"setup_calibration_s": calibration.burst(SETUP_CALIBRATIONS)}
    if args.setup_only:
        print(json.dumps(out), flush=True)
        return 0

    import checks
    import tracer as tracing
    from workloads import SPEED_WEIGHTS

    with open(args.config, encoding="utf-8") as fh:
        raw_config = json.load(fh)
    results_path = f"{config.output_dir}/results.csv"
    state = {"attempted": 0, "failed": 0, "problems": [], "reference": None}

    def sweep():
        """One run_experiment call; returns its (start, end), checks its output."""
        state["attempted"] += 1
        started = time.perf_counter()
        try:
            coldgp.cli.run_experiment(config)
        except Exception:  # any failure of the program is a failed sweep, not a crash
            ended = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            state["failed"] += 1
            state["problems"].append("run_experiment raised")
            return started, ended
        ended = time.perf_counter()
        problems = checks.check_results(raw_config, results_path)
        with open(results_path, "rb") as fh:
            data = fh.read()
        if state["reference"] is None:
            state["reference"] = data
        elif data != state["reference"]:
            problems.append("results.csv bytes differ from the first sweep of this run")
        if problems:
            state["failed"] += 1
            state["problems"].extend(problems)
        return started, ended

    sweep()  # warm-up: lazy imports and first-call costs are not timed
    started = time.perf_counter()
    if not args.trace:
        intervals = []
        with calibration.SpeedSampler() as sampler:
            while len(intervals) < MIN_SWEEPS or time.perf_counter() - started < args.seconds:
                intervals.append(sweep())
        raw, local = zip(*(sampler.local(a, b) for a, b in intervals))
        weights = SPEED_WEIGHTS[args.workload]
        out["sweep_s"] = [calibration.scale(w, c, weights) for w, c in zip(raw, local)]
        out["sweep_s_raw"] = list(raw)
        out["sweep_calibration_s"] = list(local)
        out["calibration_s"] = sampler.median()
    else:
        tracer = tracing.Tracer()
        untraced, traced = [], []
        while len(traced) < MIN_TRACED_PAIRS or time.perf_counter() - started < args.seconds:
            a, b = sweep()
            untraced.append(b - a)
            tracer.install()
            tracer.begin_sweep()
            try:
                a, b = sweep()
                traced.append(b - a)
            finally:
                tracer.uninstall()
            tracer.end_sweep()
        per_sweep = [tracing.layer_metrics(agg) for agg in tracer.sweeps]
        layers = {}
        for name in per_sweep[0]:
            values = [m[name] for m in per_sweep]
            layers[name] = values[0] if tracing.is_count(name) else statistics.median(values)
        layers["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        out.update({
            "layers": layers,
            "counts_repeat": all(m[k] == per_sweep[0][k] for m in per_sweep
                                 for k in m if tracing.is_count(k)),
            "sanity": tracing.sanity_checks(raw_config, tracer.sweeps[0]),
            "unwrapped": tracer.missing,
            "sweep_s_untraced": untraced,
            "sweep_s_traced": traced,
        })
        tracer.write_spans("spans.csv.gz")
        with open("trace_sweeps.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.sweeps, fh, indent=1, sort_keys=True)

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out.update({
        "attempted": state["attempted"],
        "failed": state["failed"],
        "problems": state["problems"][:20],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
    })
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
