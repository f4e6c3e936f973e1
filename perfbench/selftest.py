"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that (1) the same workload seed gives byte-identical configs, also
across processes, and different seeds give different ones, and that
BENCHMARK.json declares the workloads and per-layer metrics; (2) the output
checks pass real results and fail corrupted ones (a NaN cell, a missing row,
an out-of-band argmin, a rising ratio curve, accuracy at chance); (3) two
traced sweeps give identical counts that match the counts the code implies.
Exits 0 when every check passes.  Takes about half a minute.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

from run import BLAS_THREADS, BLAS_VARS, HERE, ROOT, unit_of

os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, config_bytes, make_config  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_config_determinism():
    seeds = (0, 1, 987654321)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); from workloads import config_bytes; "
              "sys.stdout.buffer.write(config_bytes(sys.argv[2], int(sys.argv[3])))")
    for name in WORKLOADS:
        texts = [config_bytes(name, s) for s in seeds]
        expect(all(config_bytes(name, s) == t for s, t in zip(seeds, texts)),
               f"{name}: same seed, same config bytes")
        other = subprocess.run([sys.executable, "-c", script, str(HERE), name, str(seeds[1])],
                               capture_output=True, check=True, env={**os.environ,
                                                                     "PYTHONHASHSEED": "random"})
        expect(other.stdout == texts[1], f"{name}: same config bytes in a fresh process")
        expect(len(set(texts)) == len(texts), f"{name}: different seeds, different configs")


def check_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json declares the workloads of workloads.py")
    produced = [*tracing.layer_metrics(tracing.aggregate([], [])), "trace.overhead"]
    expect([m["name"] for m in declared["per_layer"]] == produced,
           "BENCHMARK.json declares the per-layer metrics a traced run reports")
    expect(all(m["unit"] == unit_of(m["name"]) for m in declared["per_layer"]),
           "per-layer units in BENCHMARK.json match the reported ones")


def rewrite(path, edit):
    """Apply ``edit`` to the rows of a results.csv (header kept) and write it to a copy."""
    header, rows = checks.read_table(path)
    rows = edit(header, [list(r) for r in rows])
    out = path.parent / "corrupted.csv"
    out.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return out


def set_cell(column, value, where=lambda header, row: True):
    def edit(header, rows):
        i = header.index(column)
        for row in rows:
            if where(header, row):
                row[i] = value
        return rows
    return edit


def corruptions(config):
    yield "a NaN cell", lambda header, rows: [[rows[0][0], "nan", *rows[0][2:]], *rows[1:]]
    yield "a missing row", lambda header, rows: rows[:-1]
    exp = config["experiment"]
    if exp == "regress-sweep":
        # make the largest temperature best for the overestimated noise level
        t_max = repr(max(config["temperatures"]))
        yield "an out-of-band argmin", set_cell(
            "test_nll", "-1000000.0",
            lambda h, r: r[h.index("assumed_noise_std")] == "1.0" and r[0] == t_max)
    elif exp == "probe":
        t_min = repr(min(config["probe"]["temperatures"]))
        yield "a ratio that rises as T falls", set_cell(
            "ratio", "2.0", lambda h, r: r[0] == "1.0" and r[1] == t_min)
    else:
        chance = 1.0 / config["data"]["class_count"]
        yield "accuracy at chance", set_cell("top1_accuracy", repr(chance))
        yield "a positive log-likelihood", set_cell("test_log_likelihood", "0.5")


def check_workload(name):
    import coldgp.cli
    from coldgp.config import apply_overrides, parse_config

    raw = make_config(name, 7)
    out_dir = ROOT / ".perfbench-runs" / "selftest" / name
    config = apply_overrides(parse_config(raw), output_dir=str(out_dir))
    tracer = tracing.Tracer()
    for _ in range(2):
        tracer.install()
        tracer.begin_sweep()
        try:
            coldgp.cli.run_experiment(config)
        finally:
            tracer.uninstall()
        tracer.end_sweep()
    expect(not tracer.missing, f"{name}: every wrap point found {tracer.missing or ''}")

    results = out_dir / "results.csv"
    problems = checks.check_results(raw, results)
    expect(not problems, f"{name}: real results pass the output checks {problems or ''}")
    for what, edit in corruptions(raw):
        bad = checks.check_results(raw, rewrite(results, edit))
        expect(bool(bad), f"{name}: {what} fails the output checks ({'; '.join(bad)[:80]})")

    first, second = (tracing.layer_metrics(agg) for agg in tracer.sweeps)
    counts = {k: v for k, v in first.items() if tracing.is_count(k)}
    expect(counts == {k: second[k] for k in counts}, f"{name}: counts repeat across sweeps")
    for check, expected, observed in tracing.sanity_checks(raw, tracer.sweeps[0]):
        expect(expected == observed, f"{name}: {check} ({expected} vs {observed})")


def main() -> int:
    check_config_determinism()
    check_declared_metrics()
    for name in WORKLOADS:
        check_workload(name)
    print(json.dumps({"selftest_failures": FAILURES}))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
