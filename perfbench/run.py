"""coldgp benchmark: one command, every workload, every end-to-end metric.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload this writes the config generated from the seed, measures
set-up in fresh processes, then starts one workload process that runs
coldgp.cli.run_experiment on that config repeatedly for S seconds.  With
--trace 1 the workload process alternates untraced and traced sweeps and
reports per-layer metrics instead of end-to-end ones.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Run files go to
.perfbench-runs/ at the root of the checkout.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from workloads import SETUP_WEIGHTS, WORKLOADS, config_bytes  # noqa: E402

SETUP_PROBES = 4        # set-up-only processes per untraced run, plus the workload process
BLAS_THREADS = 1        # fixed before numpy loads; results.csv depends on it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
TAIL_BEYOND = 10        # a tail percentile needs this many samples above it


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env.pop("COLDGP_THREADS", None)
    return env


def environment_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_commit": git_commit(ROOT),
        "blas_threads": {var: str(BLAS_THREADS) for var in BLAS_VARS},
        "COLDGP_THREADS": "unset",
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git; 'unavailable' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


class RunError(Exception):
    pass


def spawn(run_dir: Path, workload: str, args: list, deadline: float):
    """Start a child process; return (process, seconds from spawn to 'ready')."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "config.json",
                             "--workload", workload, *args],
                            cwd=run_dir, env=child_env(), stdout=subprocess.PIPE, text=True)
    waiting, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1.0))
    line = proc.stdout.readline() if waiting else ""
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RunError(f"workload process did not become ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> dict:
    """Wait for a child, killing it at the deadline; return its last line, parsed."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("workload process passed the run deadline and was killed")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples: list):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail sample
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    run_dir = ROOT / ".perfbench-runs" / f"{workload}-seed{seed}-trace{trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_bytes(config_bytes(workload, seed))

    setups = []  # (seconds to ready, that process's calibration right after)
    if not trace:
        for _ in range(SETUP_PROBES):
            proc, setup = spawn(run_dir, workload,
                                ["--seconds", "0", "--trace", "0", "--setup-only"], deadline)
            setups.append((setup, finish(proc, deadline)["setup_calibration_s"]))
    proc, setup = spawn(run_dir, workload, ["--seconds", str(seconds), "--trace", str(trace)],
                        deadline)
    child = finish(proc, deadline)
    setups.append((setup, child["setup_calibration_s"]))
    child["setup_s_raw"] = [s for s, _ in setups]
    child["setup_s"] = [calibration.scale(s, parts, SETUP_WEIGHTS) for s, parts in setups]
    (run_dir / "child.json").write_text(json.dumps(child, indent=1, sort_keys=True) + "\n")
    return child


def report(workload: str, seed: int, trace: int, child: dict) -> dict:
    """Print the human-readable lines for one workload; return its metrics."""
    print(f"== {workload} seed={seed} trace={trace} "
          f"config=.perfbench-runs/{workload}-seed{seed}-trace{trace}/config.json")
    attempted, failed = child["attempted"], child["failed"]
    print(f"failed_frac {failed / attempted!r} fraction ({failed}/{attempted} sweeps)")
    for problem in child["problems"]:
        print(f"  failed check: {problem}")
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in child["layers"].items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        print(f"counts repeat across traced sweeps: {child['counts_repeat']}")
        for check, expected, observed in child["sanity"]:
            verdict = "ok" if expected == observed else "DIFFERS"
            print(f"tracer sanity: {check}: expected {expected}, observed {observed} {verdict}")
        if child["unwrapped"]:
            print(f"tracer: wrap points not found: {child['unwrapped']}")
        return metrics
    times = child["sweep_s"]
    metrics = {
        "sweep_s.p50": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(child["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
    }
    print(f"sweep_s.p50 {metrics['sweep_s.p50']['value']!r} s (median of {len(times)} warm "
          f"sweeps at nominal machine speed, see calibration.py; raw wall median "
          f"{statistics.median(child['sweep_s_raw'])!r} s)")
    t = tail(times)
    if t is None:
        print(f"sweep_s.tail not reported: {len(times)} sweeps, a tail needs more than "
              f"{TAIL_BEYOND}")
    else:
        print(f"sweep_s.tail {t[0]!r} s (p{t[1]:.1f} of {len(times)} sweeps, "
              f"{TAIL_BEYOND} beyond it; not gated)")
    print(f"setup_s {metrics['setup_s']['value']!r} s (median of {len(child['setup_s'])} "
          f"fresh processes at nominal machine speed; raw wall median "
          f"{statistics.median(child['setup_s_raw'])!r} s)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']['value']!r} MB")
    return metrics


def unit_of(metric: str) -> str:
    if metric.endswith(("_calls", ".transitions", ".proposals")):
        return "count"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric == "linalg.jitter_max":
        return "var"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "coldgp" / "__init__.py").is_file():
        print(f"error: no coldgp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment_record()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            child = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        env.update(child["versions"])
        metrics = report(name, args.seed, args.trace, child)
        attempted += child["attempted"]
        failed += child["failed"]
        if len(names) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{name}:{k}": v for k, v in metrics.items()})
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
