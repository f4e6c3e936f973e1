"""Output checks on a run's results.csv, read from outside the program.

``check_results`` returns a list of problems; an empty list means the
output passed.  A sweep whose output has any problem counts as failed.
The bands repeat the rules of the acceptance tests in tests/test_acceptance.py.
"""
from __future__ import annotations

import csv
import math

HEADERS = {
    "classify-sweep": ["temperature", "test_log_likelihood", "top1_accuracy", "n_train",
                       "n_test", "seed"],
    "regress-sweep": ["temperature", "test_nll", "seed", "assumed_noise_std"],
    "probe": ["latent_scale", "temperature", "probability", "ratio"],
}


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    return (table[0], table[1:]) if table else ([], [])


def check_results(config: dict, path) -> list:
    """Problems found in one results.csv written for ``config``."""
    exp = config["experiment"]
    header, raw = read_table(path)
    if header != HEADERS[exp]:
        return [f"header {header!r} is not {HEADERS[exp]!r}"]
    try:
        rows = [[float(cell) for cell in row] for row in raw]
    except ValueError as exc:
        return [f"non-numeric cell: {exc}"]
    problems = []
    if any(len(row) != len(header) for row in rows):
        problems.append("row with a wrong number of cells")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite value")
    if problems:
        return problems
    col = {name: i for i, name in enumerate(header)}
    checker = {"classify-sweep": _check_classify, "regress-sweep": _check_regress,
               "probe": _check_probe}[exp]
    return checker(config, rows, col)


def _check_grid(expected, rows, key) -> list:
    got = sorted(key(r) for r in rows)
    if got != sorted(expected):
        return [f"{len(rows)} rows do not match the {len(expected)}-point grid"]
    return []


def _check_classify(config, rows, col) -> list:
    problems = _check_grid(list(config["temperatures"]), rows, lambda r: r[col["temperature"]])
    chance = 1.0 / config["data"]["class_count"]
    for r in rows:
        t, ll, acc = r[col["temperature"]], r[col["test_log_likelihood"]], r[col["top1_accuracy"]]
        if ll > 0.0:
            problems.append(f"T={t!r}: log-likelihood {ll!r} > 0")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"T={t!r}: accuracy {acc!r} outside [0, 1]")
        elif acc <= chance:
            problems.append(f"T={t!r}: accuracy {acc!r} not above chance {chance!r}")
    return problems


def _check_regress(config, rows, col) -> list:
    reg = config["regression"]
    grid = [(float(s), t) for s in reg["assumed_noise_std"] for t in config["temperatures"]
            for _ in range(reg["n_seeds"])]
    problems = _check_grid(grid, rows,
                           lambda r: (r[col["assumed_noise_std"]], r[col["temperature"]]))
    if problems:
        return problems
    sums = {}
    for r in rows:
        key = (r[col["assumed_noise_std"]], r[col["temperature"]])
        sums[key] = sums.get(key, 0.0) + r[col["test_nll"]]
    true_noise = config["data"]["noise_std"]
    for sigma in reg["assumed_noise_std"]:
        sigma = float(sigma)
        means = {t: v for (s, t), v in sums.items() if s == sigma}
        t_best = min(means, key=lambda t: (means[t], t))
        # test_assumed_noise_regimes_select_expected_temperatures
        if sigma > true_noise:
            ok, band = t_best < 0.5, "< 0.5"
        elif sigma == true_noise:
            ok, band = 0.5 <= t_best <= 2.0, "in [0.5, 2]"
        else:
            ok, band = t_best > 2.0, "> 2"
        if not ok:
            problems.append(f"assumed noise {sigma!r}: argmin T={t_best!r}, expected {band}")
    return problems


def _check_probe(config, rows, col) -> list:
    p = config["probe"]
    grid = [(c, t) for c in p["latent_scales"] for t in p["temperatures"]]
    problems = _check_grid(grid, rows, lambda r: (r[col["latent_scale"]], r[col["temperature"]]))
    if problems:
        return problems
    # test_relabel_ratio_curve_shape: the ratio never rises as T falls
    allowed_rise = 2.0 * p["quadrature_tolerance"]
    for scale in p["latent_scales"]:
        curve = sorted(((r[col["temperature"]], r[col["ratio"]]) for r in rows
                        if r[col["latent_scale"]] == scale), reverse=True)
        at_one = [ratio for t, ratio in curve if t == 1.0]
        if at_one != [1.0]:
            problems.append(f"c={scale!r}: ratio at T=1 is {at_one!r}, expected [1.0]")
        rise = max((b - a for (_, a), (_, b) in zip(curve, curve[1:])), default=0.0)
        if rise > allowed_rise:
            problems.append(f"c={scale!r}: ratio rises by {rise!r} as T falls")
    return problems
