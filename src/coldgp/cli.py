"""Experiment harness: run sweeps from JSON configs, emit plot-ready tables.

Three verbs:

  coldgp run --config cfg.json [--seed N] [--out DIR]
  coldgp plot-data --input results.csv --figure {fig1,fig2a,fig2b,fig3b} [--out PATH]
  coldgp gen-data --config cfg.json [--seed N] [--out DIR]

Every run writes three files into its output directory: ``results.csv``
(fixed column order per experiment), ``resolved_config.json`` (the config
with every default materialized; running it again reproduces the bundle),
and ``run.log`` (wall time plus solver and sampler diagnostics).  With the
config and seed fixed, results.csv is byte-identical across runs; run.log
is where the timing noise lives.  A run holds the OpenBLAS builds that
compute at one thread, so the bytes do not depend on the environment's
thread count either; ``coldgp.linalg`` pins them, and run.log's ``blas_``
line names the build that factors and each build's thread count.

Exit codes: 0 success, 2 config error, 3 computational failure, a file
that cannot be read or written, or an array the machine cannot hold.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import chain, repeat

import numpy as np

from .aleatoric import relabel_prob_zero_temperature, relabel_ratio_curve
from .classification import classification_temperature_sweep
from .config import ExperimentConfig, apply_overrides, load_config
from .data import (
    gen_cluster_classification,
    gen_rbf_regression,
    load_cifar10,
    load_dataset,
    save_dataset,
    standardize,
)
from .exceptions import ColdGPError, ConfigError, SchemaMismatchError
from .linalg import one_blas_thread
from .records import best_temperature, read_csv, write_csv
from .regression import regression_temperature_sweep
from .rng import derive_seed

REGRESS_HEADER = ["temperature", "test_nll", "seed", "assumed_noise_std"]
CLASSIFY_HEADER = ["temperature", "test_log_likelihood", "top1_accuracy",
                   "n_train", "n_test", "seed"]
PROBE_HEADER = ["latent_scale", "temperature", "probability", "ratio"]

_FIGURE_HEADERS = {
    "fig1": CLASSIFY_HEADER,
    "fig2a": PROBE_HEADER,
    "fig2b": PROBE_HEADER,
    "fig3b": REGRESS_HEADER,
}
FIGURES = tuple(_FIGURE_HEADERS)


def _datasets(config: ExperimentConfig, seed: int):
    """(train, test) for ``config.data``, input-normalized as it says: a
    generator's draw at ``seed``, a CIFAR-10 subsample, or two data files,
    each checked to be of the experiment's kind as soon as it is read."""
    d = config.data
    # a generator's data keys are its keyword arguments
    if "generator" in d:
        params = {key: value for key, value in d.items() if key != "generator"}
        if d["generator"] == "rbf-regression":
            return gen_rbf_regression(**params, kernel=config.kernel, seed=seed)
        return gen_cluster_classification(**params, seed=seed)
    if d["source"] == "cifar10":
        train, test = load_cifar10(d["dir"], keep_classes=d["classes"],
                                   n_train=d["n_train"], n_test=d["n_test"], seed=seed)
    else:
        classify = config.experiment == "classify-sweep"

        def read(split, class_count):
            data = load_dataset(d[f"{split}_path"], split_tag=split, class_count=class_count)
            if data.is_classification != classify:
                kind = ("classification datasets (label column)" if classify
                        else "regression datasets (target column)")
                raise ConfigError(f"{config.experiment} requires {kind}")
            return data

        train = read("train", d.get("class_count") if classify else None)
        # the bound an inferred count obeys, checked before anything is sized by it
        if classify and train.class_count > max(train.n, 2):
            raise ConfigError(f"key 'class_count' in data must not exceed the {train.n} "
                              f"training rows, got {train.class_count}")
        test = read("test", train.class_count)
    if d["normalize"] == "global-standardize":
        return standardize(train, test)
    return train, test


def _run_regress_sweep(config: ExperimentConfig):
    seeds = [derive_seed(config.seed, k) for k in range(config.regression["n_seeds"])]
    # a file source reads its one pair of files (n_seeds is 1 there)
    datasets = [_datasets(config, s) for s in seeds]
    # the generator's factor of its data Gram; a data file has none
    data_jitters = {train.provenance["jitter_used"] for train, _ in datasets
                    if "jitter_used" in train.provenance}
    temps = config.temperatures
    sigmas = config.regression["assumed_noise_std"]
    fits = [regression_temperature_sweep(config.kernel, sigmas, train, test, temps)
            for train, test in datasets]
    jitters = {jitter for _, dataset_jitters in fits for jitter in dataset_jitters}
    # (noise setting, replicate, temperature): the order of results.csv's rows
    nll = np.stack([dataset_nll for dataset_nll, _ in fits], axis=1)
    rows, log = [], []
    for sigma, per_seed in zip(sigmas, nll):
        for seed_k, values in zip(seeds, per_seed):
            rows.extend(zip(temps, values.tolist(), repeat(seed_k), repeat(float(sigma))))
        nll_sum = per_seed.sum(axis=0)
        log.append(f"assumed_noise_std={float(sigma)!r} "
                   f"argmin_temperature={best_temperature(temps, nll_sum)!r} "
                   f"mean_test_nll={float(nll_sum.min()) / len(seeds)!r}")
    log.append(f"jitter_used={sorted(jitters)!r}")
    log.append(f"data_jitter_used={sorted(data_jitters)!r}")
    return REGRESS_HEADER, rows, log


def _run_classify_sweep(config: ExperimentConfig):
    train, test = _datasets(config, config.seed)
    temps = config.temperatures
    out = classification_temperature_sweep(
        config.kernel, train, test, temperatures=temps, config=config.ess, seed=config.seed)
    ll, acc = out["test_log_likelihood"], out["top1_accuracy"]
    rows = [(t, v, a, train.n, test.n, config.seed)
            for t, v, a in zip(temps, ll.tolist(), acc.tolist())]
    log = [f"n_train={train.n} n_test={test.n} class_count={train.class_count}"]
    for j, (t, stats) in enumerate(zip(temps, out["stats"])):
        log.append(
            f"temperature={t!r} "
            f"proposals_per_transition={stats['proposals_per_transition']!r} "
            f"prior_jitter={stats['prior_jitter']!r} "
            f"mc_se_log_likelihood={float(out['mc_se_log_likelihood'][j])!r} "
            f"mc_se_accuracy={float(out['mc_se_accuracy'][j])!r}")
    log.append(f"best_temperature={best_temperature(temps, -ll)!r}")
    return CLASSIFY_HEADER, rows, log


def _run_probe(config: ExperimentConfig):
    p = config.probe
    rows, log = [], []
    for scale in p["latent_scales"]:
        probability, ratio = relabel_ratio_curve(
            scale, p["temperatures"],
            quadrature_tolerance=p["quadrature_tolerance"],
            integration_half_width_sigmas=p["integration_half_width_sigmas"])
        rows.extend(zip(repeat(float(scale)), p["temperatures"],
                        probability.tolist(), ratio.tolist()))
        log.append(f"latent_scale={float(scale)!r} "
                   f"zero_temperature_limit={relabel_prob_zero_temperature(scale)!r}")
    return PROBE_HEADER, rows, log


def _run_gen_data(config: ExperimentConfig):
    train, test = _datasets(config, config.seed)
    out = config.output_dir
    save_dataset(train, os.path.join(out, "train.csv"))
    save_dataset(test, os.path.join(out, "test.csv"))
    kind = "classification" if train.is_classification else "regression"
    log = [f"kind={kind} n_train={train.n} n_test={test.n} dim={train.d}",
           "wrote train.csv test.csv"]
    return None, None, log


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one resolved config; returns the paths of the written bundle.

    The experiment's runner returns results.csv's header, the rows to write
    and run.log's lines.  A NaN or infinity in any cell of those rows fails
    the run with ColdGPError naming its column, and results.csv is not
    written.

    A BLAS product split across threads rounds differently, so the run holds
    the OpenBLAS builds that compute at one thread (``linalg.one_blas_thread``):
    results.csv does not depend on OPENBLAS_NUM_THREADS.  run.log names them.
    """
    started = time.perf_counter()
    os.makedirs(config.output_dir, exist_ok=True)
    runner = {
        "regress-sweep": _run_regress_sweep,
        "classify-sweep": _run_classify_sweep,
        "probe": _run_probe,
        "gen-data": _run_gen_data,
    }[config.experiment]
    # a sweep factors, and so does the rbf-regression generator's draw
    factors = (config.experiment in ("classify-sweep", "regress-sweep")
               or (config.data or {}).get("generator") == "rbf-regression")
    with one_blas_thread(factors) as describe_blas:
        header, rows, log = runner(config)
        log.append(describe_blas())
    paths = {}
    if header is not None:
        # the first non-finite cell in row order names the failure
        table = np.fromiter(chain.from_iterable(rows), np.float64).reshape(len(rows), len(header))
        bad = np.argwhere(~np.isfinite(table))
        if len(bad):
            row, col = bad[0]  # a numpy float's repr would print np.float64(inf)
            raise ColdGPError(f"non-finite {header[col]}={float(table[row, col])!r}; "
                              f"results.csv not written")
        paths["results"] = os.path.join(config.output_dir, "results.csv")
        write_csv(paths["results"], header, rows)
    paths["config"] = os.path.join(config.output_dir, "resolved_config.json")
    with open(paths["config"], "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["log"] = os.path.join(config.output_dir, "run.log")
    elapsed = time.perf_counter() - started
    with open(paths["log"], "w", encoding="utf-8") as fh:
        fh.write(f"experiment={config.experiment} seed={config.seed}\n")
        for line in log:
            fh.write(line + "\n")
        fh.write(f"wall_time_seconds={elapsed:.3f}\n")
    return paths


def emit_plot_data(results_csv: str, figure: str, out_path: str | None = None) -> str:
    """Reshape a results.csv into long-format (x, y, series) rows.

    The input header must match the named figure's experiment schema exactly;
    an empty or header-only file, or a plotted cell or series label
    (latent_scale, assumed_noise_std) that is not a number, is a schema
    mismatch; a label keeps its text as written.  fig3b averages test_nll over seeds within each
    (noise setting, temperature) cell.
    """
    if figure not in FIGURES:
        raise ConfigError(f"--figure must be one of {list(FIGURES)}, got {figure!r}")
    header, raw_rows = read_csv(results_csv)
    if header != _FIGURE_HEADERS[figure]:
        raise SchemaMismatchError(
            f"{results_csv}: header {header!r} does not match the {figure} schema "
            f"{_FIGURE_HEADERS[figure]!r}")
    if not raw_rows:
        raise SchemaMismatchError(f"{results_csv}: no data rows")
    col = {name: i for i, name in enumerate(header)}

    def number(i, name):
        cell = raw_rows[i][col[name]]
        try:
            return float(cell)
        except ValueError:
            raise SchemaMismatchError(f"{results_csv}: data row {i + 1}: {name} {cell!r} "
                                      f"is not a number") from None

    def label(i, name):  # the cell as written, once it parses as a number
        number(i, name)
        return raw_rows[i][col[name]]

    rows = range(len(raw_rows))
    if figure == "fig1":
        out_rows = [(number(i, "temperature"), number(i, metric), metric)
                    for metric in ("test_log_likelihood", "top1_accuracy") for i in rows]
    elif figure in ("fig2a", "fig2b"):
        y_col = "probability" if figure == "fig2a" else "ratio"
        out_rows = [(number(i, "temperature"), number(i, y_col), f"c={label(i, 'latent_scale')}")
                    for i in rows]
    else:
        cells = {}  # (noise setting, temperature) -> [sum, count], in first-seen order
        for i in rows:
            cell = cells.setdefault((label(i, "assumed_noise_std"), number(i, "temperature")),
                                    [0.0, 0])
            cell[0] += number(i, "test_nll")
            cell[1] += 1
        out_rows = [(t, total / count, f"sigma_eps={s}")
                    for (s, t), (total, count) in cells.items()]
    if out_path is None:
        out_path = os.path.join(os.path.dirname(os.path.abspath(results_csv)),
                                f"plot_{figure}.csv")
    write_csv(out_path, ["x", "y", "series"], out_rows)
    return out_path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldgp",
        description="Tempered Gaussian-process experiments: sweeps, probes, data generation.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="override the config output_dir")

    p_plot = sub.add_parser("plot-data", help="reshape results.csv for plotting")
    p_plot.add_argument("--input", required=True, help="path to a results.csv")
    p_plot.add_argument("--figure", required=True, choices=FIGURES)
    p_plot.add_argument("--out", default=None, help="output path (default: plot_<figure>.csv)")

    p_gen = sub.add_parser("gen-data", help="generate and save synthetic datasets")
    p_gen.add_argument("--config", required=True, help="path to a JSON gen-data config")
    p_gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_gen.add_argument("--out", default=None, help="override the config output_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a failing run says so in one stderr line: numpy's floating-point
        # warnings on the way to an overflow would print lines of their own
        with np.errstate(all="ignore"):
            if args.verb in ("run", "gen-data"):
                config = apply_overrides(load_config(args.config), seed=args.seed,
                                         output_dir=args.out)
                if args.verb == "gen-data" and config.experiment != "gen-data":
                    raise ConfigError(
                        f"gen-data verb requires experiment 'gen-data', config says "
                        f"{config.experiment!r}")
                paths = run_experiment(config)
                for name in sorted(paths):
                    print(f"wrote {paths[name]}")
            else:
                out = emit_plot_data(args.input, args.figure, args.out)
                print(f"wrote {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ColdGPError, OSError) as exc:  # OSError: a file not read or written
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an array within numpy's size limit but not the machine's
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
