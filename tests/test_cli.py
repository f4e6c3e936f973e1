"""Command-line harness tests: run bundles, overrides, exit codes, the
plot-data reshaper, and the CSV helpers underneath them."""
import copy
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coldgp import (
    KernelSpec,
    MalformedRecordError,
    cholesky,
    derive_seed,
    gen_cluster_classification,
    gen_rbf_regression,
    gram,
    load_dataset,
    read_csv,
    regression_temperature_sweep,
    relabel_prob_zero_temperature,
    save_dataset,
    standardize,
    write_csv,
)
from coldgp.cli import (
    CLASSIFY_HEADER,
    PROBE_HEADER,
    REGRESS_HEADER,
    emit_plot_data,
    main,
    run_experiment,
)
from coldgp.config import load_config
from coldgp.exceptions import ConfigError

from helpers import count_calls, run_python, write_cifar_fixture


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def probe_payload(out_dir):
    return {
        "experiment": "probe",
        "seed": 0,
        "output_dir": str(out_dir),
        "probe": {"latent_scales": [1.0], "temperatures": [1.0, 0.3],
                  "quadrature_tolerance": 1e-6},
    }


def regress_payload(out_dir):
    return {
        "experiment": "regress-sweep",
        "seed": 1,
        "output_dir": str(out_dir),
        "kernel": {"family": "rbf", "lengthscale": 1.0, "variance": 1.0},
        "temperatures": [0.5, 1.0],
        "data": {"generator": "rbf-regression", "n_train": 8, "n_test": 4, "noise_std": 0.1},
        "regression": {"assumed_noise_std": [0.1, 1.0], "n_seeds": 2},
    }


def overflow_regress_payload(out_dir):
    # assumed noise variance 100 puts variance * t past the float range at t = 1e308
    payload = regress_payload(out_dir)
    payload["regression"]["assumed_noise_std"] = [10.0]
    return payload


def _cifar_data(dir_path, **overrides):
    write_cifar_fixture(dir_path)  # 15 train and 3 test records per class
    return {"source": "cifar10", "dir": str(dir_path), "classes": [0, 1],
            "n_train": 20, "n_test": 4, **overrides}


def _file_data(dir_path, bad_row, test_csv="x0,label\n0.5,0\n1.5,1\n"):
    train, test = dir_path / "train.csv", dir_path / "test.csv"
    train.write_text(f"x0,label\n0.5,0\n{bad_row}\n")
    test.write_text(test_csv)
    return {"source": "file", "train_path": str(train), "test_path": str(test)}


def classify_payload(out_dir):
    return {
        "experiment": "classify-sweep",
        "seed": 2,
        "output_dir": str(out_dir),
        "kernel": {"family": "nngp", "depth": 1},
        "temperatures": [0.5, 1.0],
        "data": {"generator": "clusters", "n_per_class": 6, "class_count": 2,
                 "dim": 2, "separation": 2.0},
        "ess": {"n_chains": 2, "burn_in": 10, "n_samples_per_chain": 5,
                "thinning": 1, "draws_per_sample": 2},
    }


class TestRunVerb:
    def test_probe_bundle(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "p.json", probe_payload(out))
        assert main(["run", "--config", cfg]) == 0
        header, rows = read_csv(out / "results.csv")
        assert header == PROBE_HEADER
        assert len(rows) == 2
        by_t = {float(r[1]): r for r in rows}
        assert float(by_t[1.0][3]) == 1.0  # ratio pinned at the reference T
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["probe"]["integration_half_width_sigmas"] == 40.0
        log = (out / "run.log").read_text().splitlines()
        assert log[0] == "experiment=probe seed=0"
        assert any(line.startswith("latent_scale=1.0 zero_temperature_limit=") for line in log)
        assert log[-1].startswith("wall_time_seconds=")
        printed = capsys.readouterr().out
        assert f"wrote {out / 'results.csv'}" in printed

    def test_results_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg_a = _write_config(tmp_path, "a.json", probe_payload(a))
        cfg_b = _write_config(tmp_path, "b.json", probe_payload(b))
        assert main(["run", "--config", cfg_a]) == 0
        assert main(["run", "--config", cfg_b]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = _write_config(tmp_path, "p.json", probe_payload(tmp_path / "ignored"))
        custom = tmp_path / "custom"
        assert main(["run", "--config", cfg, "--seed", "7", "--out", str(custom)]) == 0
        resolved = json.loads((custom / "resolved_config.json").read_text())
        assert resolved["seed"] == 7
        assert resolved["output_dir"] == str(custom)
        assert not (tmp_path / "ignored").exists()

    def test_regress_sweep_rows_and_log(self, tmp_path):
        out = tmp_path / "r"
        cfg = _write_config(tmp_path, "r.json", regress_payload(out))
        assert main(["run", "--config", cfg]) == 0
        header, rows = read_csv(out / "results.csv")
        assert header == REGRESS_HEADER
        assert len(rows) == 2 * 2 * 2  # noise settings x replicates x temperatures
        seeds = {r[2] for r in rows}
        assert len(seeds) == 2  # one derived seed per replicate
        assert {r[3] for r in rows} == {"0.1", "1.0"}
        log = (out / "run.log").read_text()
        assert log.count("argmin_temperature=") == 2
        assert "jitter_used=" in log

    def test_classify_sweep_rows_and_log(self, tmp_path):
        out = tmp_path / "c"
        cfg = _write_config(tmp_path, "c.json", classify_payload(out))
        assert main(["run", "--config", cfg]) == 0
        header, rows = read_csv(out / "results.csv")
        assert header == CLASSIFY_HEADER
        assert len(rows) == 2
        assert all(r[3] == "12" and r[4] == "6" for r in rows)
        log = (out / "run.log").read_text()
        assert "n_train=12 n_test=6 class_count=2" in log
        assert log.count("proposals_per_transition=") == 2
        assert "best_temperature=" in log

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        payload = probe_payload(tmp_path / "o")
        payload["probes"] = {}
        cfg = _write_config(tmp_path, "bad.json", payload)
        assert main(["run", "--config", cfg]) == 2
        assert "'probes'" in capsys.readouterr().err

    def test_exit_2_on_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_3_on_missing_data_file(self, tmp_path, capsys):
        payload = {
            "experiment": "classify-sweep",
            "output_dir": str(tmp_path / "o"),
            "kernel": {"family": "nngp"},
            "temperatures": [1.0],
            "data": {"source": "file", "train_path": str(tmp_path / "no_tr.csv"),
                     "test_path": str(tmp_path / "no_te.csv")},
        }
        cfg = _write_config(tmp_path, "f.json", payload)
        assert main(["run", "--config", cfg]) == 3
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("regression_split", ["train", "test"])
    def test_exit_2_on_regression_file_in_classify_sweep(self, tmp_path, capsys,
                                                         regression_split):
        splits = dict(zip(("train", "test"), gen_cluster_classification(6, 2, 2, 2.0, seed=0)))
        splits[regression_split] = gen_rbf_regression(6, 6, 0.1, KernelSpec("rbf"), seed=0)[0]
        paths = {}
        for split, dataset in splits.items():
            paths[split] = str(tmp_path / f"{split}.csv")
            save_dataset(dataset, paths[split])
        payload = classify_payload(tmp_path / "o")
        payload["data"] = {"source": "file", "train_path": paths["train"],
                           "test_path": paths["test"]}
        cfg = _write_config(tmp_path, "mixed.json", payload)
        assert main(["run", "--config", cfg]) == 2
        assert "classification datasets" in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()

    def test_exit_2_on_class_count_in_regress_sweep_files(self, tmp_path, capsys):
        # a regress-sweep never reads class_count, so a file section naming
        # it is rejected like any other key that does not apply
        payload = regress_payload(tmp_path / "o")
        payload["data"] = {"source": "file", "class_count": 7}
        for split, dataset in zip(("train", "test"), gen_rbf_regression(
                6, 6, 0.1, KernelSpec("rbf"), seed=0)):
            payload["data"][f"{split}_path"] = str(tmp_path / f"{split}.csv")
            save_dataset(dataset, payload["data"][f"{split}_path"])
        cfg = _write_config(tmp_path, "cc.json", payload)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'class_count'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("classification_split", ["train", "test"])
    def test_exit_2_on_classification_file_in_regress_sweep(self, tmp_path, capsys,
                                                            classification_split):
        splits = dict(zip(("train", "test"), gen_rbf_regression(6, 6, 0.1, KernelSpec("rbf"),
                                                                seed=0)))
        splits[classification_split] = gen_cluster_classification(6, 2, 2, 2.0, seed=0)[0]
        payload = regress_payload(tmp_path / "o")
        payload["regression"]["n_seeds"] = 1
        payload["data"] = {"source": "file"}
        for split, dataset in splits.items():
            payload["data"][f"{split}_path"] = str(tmp_path / f"{split}.csv")
            save_dataset(dataset, payload["data"][f"{split}_path"])
        cfg = _write_config(tmp_path, "mixed.json", payload)
        assert main(["run", "--config", cfg]) == 2
        assert "regression datasets" in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()

    def test_regress_sweep_standardizes_file_inputs(self, tmp_path):
        # "normalize": "global-standardize" applies to regression files too:
        # the sweep equals the library sweep on the standardized pair, and
        # differs from the run on the raw inputs
        train, test = gen_rbf_regression(12, 6, 0.1, KernelSpec("rbf"), seed=3)
        paths = {"train_path": str(tmp_path / "train.csv"),
                 "test_path": str(tmp_path / "test.csv")}
        save_dataset(train, paths["train_path"])
        save_dataset(test, paths["test_path"])
        nll = {}
        for scheme in ("none", "global-standardize"):
            payload = regress_payload(tmp_path / scheme)
            payload["regression"] = {"assumed_noise_std": [0.1], "n_seeds": 1}
            payload["data"] = {"source": "file", "normalize": scheme, **paths}
            assert main(["run", "--config", _write_config(tmp_path, "n.json", payload)]) == 0
            _, rows = read_csv(tmp_path / scheme / "results.csv")
            nll[scheme] = [float(r[1]) for r in rows]
        expect, _ = regression_temperature_sweep(
            KernelSpec("rbf"), [0.1], *standardize(train, test), [0.5, 1.0])
        assert nll["global-standardize"] == expect[0].tolist()
        assert nll["none"] != nll["global-standardize"]

    def test_exit_2_on_more_clusters_than_centers(self, tmp_path, capsys):
        payload = classify_payload(tmp_path / "o")
        payload["data"]["class_count"] = 5  # dim 2 has 4 distinct centers
        cfg = _write_config(tmp_path, "k.json", payload)
        assert main(["run", "--config", cfg]) == 2
        assert "'class_count'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make_payload,kernel", [
        (regress_payload, None),
        # variance 4 puts t * schur past the float range at t = 1e308
        (classify_payload, {"family": "rbf", "variance": 4.0}),
        (overflow_regress_payload, None),
    ])
    def test_exit_3_on_non_finite_metric(self, tmp_path, capsys, make_payload, kernel):
        out = tmp_path / "o"
        payload = make_payload(out)
        payload["temperatures"] = [1.0, 1e308]
        if kernel is not None:
            payload["kernel"] = kernel
        cfg = _write_config(tmp_path, "inf.json", payload)
        assert main(["run", "--config", cfg]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_non_finite_metric_prints_as_a_float(self, tmp_path, capsys):
        # data noise_std 1e300 overflows every test NLL; the stderr line shows
        # the value as a float prints, not as numpy's repr np.float64(inf)
        payload = regress_payload(tmp_path / "o")
        payload["data"]["noise_std"] = 1e300
        cfg = _write_config(tmp_path, "inf.json", payload)
        assert main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: non-finite test_nll=inf; results.csv not written\n")

    def test_non_finite_cell_in_any_column_fails_the_run(self, tmp_path, capsys, monkeypatch):
        # the check reads the rows that would be written, so a non-finite
        # cell fails the run whichever column holds it
        import coldgp.cli as cli

        rows = [(1.0, 1.0, 0.5, 1.0), (float("inf"), 1.0, 0.5, 1.0)]
        monkeypatch.setattr(cli, "_run_probe", lambda config: (PROBE_HEADER, rows, []))
        out = tmp_path / "o"
        cfg = _write_config(tmp_path, "p.json", probe_payload(out))
        assert main(["run", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: non-finite latent_scale=inf; results.csv not written\n")
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("make_data,code", [
        (lambda p: _cifar_data(p, classes=[1, 1]), 2),
        (lambda p: _cifar_data(p, classes=[3]), 2),
        (lambda p: _cifar_data(p, classes=[0, 12]), 2),
        (lambda p: _cifar_data(p, n_train=31), 2),
        (lambda p: _file_data(p, "abc,1"), 3),
        (lambda p: _file_data(p, "1.0,1.5"), 3),
        (lambda p: _file_data(p, "1.0,99999999999999999999"), 3),
        (lambda p: _file_data(p, "1.0,1000000000000000"), 3),
        (lambda p: {**_file_data(p, "1.5,1"), "class_count": 1000000000000000}, 2),
        (lambda p: _file_data(p, "1.5,1", "x0,x1,label\n0.5,0.5,0\n1.5,1.5,1\n"), 3),
    ], ids=["cifar-duplicate-class", "cifar-one-class", "cifar-class-12",
            "cifar-pool-overrun", "file-cell-abc", "file-label-1.5", "file-label-65-bits",
            "file-label-above-row-count", "file-class-count-above-row-count",
            "file-test-dim-above-train"])
    def test_bad_data_exit_code(self, tmp_path, capsys, make_data, code):
        payload = classify_payload(tmp_path / "o")
        payload["data"] = make_data(tmp_path)
        cfg = _write_config(tmp_path, "d.json", payload)
        assert main(["run", "--config", cfg]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("make_payload,path,value", [
        (regress_payload, ("data", "noise_std"), float("nan")),
        (regress_payload, ("kernel", "lengthscale"), float("inf")),
        (probe_payload, ("probe", "quadrature_tolerance"), float("inf")),
        (classify_payload, ("data", "separation"), float("inf")),
        (regress_payload, ("temperatures",), [float("inf")]),
        (probe_payload, ("probe", "quadrature_tolerance"), 10 ** 400),
    ], ids=["noise-std-nan", "lengthscale-inf", "quadrature-tolerance-inf",
            "separation-inf", "temperature-inf", "integer-past-float-range"])
    def test_exit_2_on_non_finite_config_number(self, tmp_path, capsys, make_payload, path,
                                                value):
        payload = make_payload(tmp_path / "o")
        section = payload
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg = _write_config(tmp_path, "nan.json", payload)  # json writes NaN / Infinity
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"'{path[-1]}'" in err and "finite" in err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("path,value", [
        (("kernel", "lengthscale"), 1e308),
        (("regression", "assumed_noise_std"), [0.1, 1e308]),
        (("regression", "assumed_noise_std"), 1e200),
    ], ids=["lengthscale", "assumed-noise-std-list", "assumed-noise-std-scalar"])
    def test_exit_2_on_value_whose_square_overflows(self, tmp_path, capsys, path, value):
        # both are squared as Python floats, which raise OverflowError past 1.8e308
        payload = regress_payload(tmp_path / "o")
        payload[path[0]][path[1]] = value
        cfg = _write_config(tmp_path, "sq.json", payload)
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert f"'{path[1]}'" in err and "square" in err
        assert not (tmp_path / "o" / "results.csv").exists()

    def test_exit_2_on_lengthscale_whose_square_underflows(self, tmp_path, capsys):
        # the Gram divides by the square, which rounds to 0 below about 1.5e-162
        payload = regress_payload(tmp_path / "o")
        payload["kernel"]["lengthscale"] = 1e-200
        assert main(["run", "--config", _write_config(tmp_path, "sq.json", payload)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert "'lengthscale'" in err and "square" in err
        assert not (tmp_path / "o" / "results.csv").exists()

    def _unshrinkable_bracket_err(self, tmp_path, capsys, temps):
        # at T = 1e-300 the tempered log-likelihood is about -7e300, so the
        # slice threshold ll + log(u) rounds back to ll and no proposal clears it
        payload = classify_payload(tmp_path / "o")
        payload.update(kernel={"family": "rbf"}, temperatures=temps)
        payload["data"]["n_per_class"] = 5
        payload["ess"] = {"n_chains": 1, "burn_in": 1, "n_samples_per_chain": 1,
                          "thinning": 1, "draws_per_sample": 1}
        cfg = _write_config(tmp_path, "t.json", payload)
        assert main(["run", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "slice bracket" in err and "1e-300" in err
        assert not (tmp_path / "o" / "results.csv").exists()
        return err

    def test_exit_3_on_unshrinkable_slice_bracket(self, tmp_path, capsys):
        self._unshrinkable_bracket_err(tmp_path, capsys, [1e-300])

    def test_unshrinkable_bracket_names_its_own_temperature(self, tmp_path, capsys):
        # the T = 1.0 chain advances in the same lock-step call and is fine
        err = self._unshrinkable_bracket_err(tmp_path, capsys, [1.0, 1e-300])
        assert "1.0" not in err

    def test_regress_sweep_generates_each_replicate_once(self, tmp_path, monkeypatch):
        import coldgp.cli as cli

        seeds = []
        real = cli.gen_rbf_regression

        def counting(**kwargs):
            seeds.append(kwargs["seed"])
            return real(**kwargs)

        monkeypatch.setattr(cli, "gen_rbf_regression", counting)
        cfg = _write_config(tmp_path, "r.json", regress_payload(tmp_path / "r"))
        assert main(["run", "--config", cfg]) == 0
        assert len(seeds) == 2 == len(set(seeds))  # n_seeds, not noise levels x n_seeds

    def test_regress_sweep_builds_one_gram_pair_per_dataset(self, tmp_path, monkeypatch):
        # the generator builds one Gram per replicate, and the sweep K(X, X)
        # and K(X*, X) once per replicate, shared by every noise setting
        import coldgp.kernels as kernels
        import coldgp.regression as regression

        generated = count_calls(monkeypatch, kernels, ["gram"])  # data imports it at call time
        fitted = count_calls(monkeypatch, regression, ["gram"])
        cfg = _write_config(tmp_path, "r.json", regress_payload(tmp_path / "r"))
        assert main(["run", "--config", cfg]) == 0
        datasets = 2  # replicates; the 2 noise settings build no Grams of their own
        assert generated["gram"] + fitted["gram"] == datasets + 2 * datasets

    def test_regress_sweep_work_count_per_fit(self, tmp_path, monkeypatch):
        # each (noise setting, replicate) fit factors once and solves twice:
        # beta = L^{-1} y and v = L^{-1} K(X, X*)
        import coldgp.regression as regression

        calls = count_calls(monkeypatch, regression, ["cholesky", "tril_solve"])
        cfg = _write_config(tmp_path, "r.json", regress_payload(tmp_path / "r"))
        assert main(["run", "--config", cfg]) == 0
        fits = 2 * 2  # noise settings x replicates
        assert calls == {"cholesky": fits, "tril_solve": 2 * fits}

    def test_fig3b_log_records_the_data_generator_jitter(self, tmp_path):
        # every fig3b replicate's data Gram needs the 1e-10 rung; the fits
        # themselves factor without jitter
        raw = json.loads((CONFIG_DIR / "fig3b.json").read_text())
        raw["output_dir"] = str(tmp_path / "fig3b")
        cfg = _write_config(tmp_path, "fig3b.json", raw)
        assert main(["run", "--config", cfg]) == 0
        log = (tmp_path / "fig3b" / "run.log").read_text().splitlines()
        assert "jitter_used=[0.0]" in log and "data_jitter_used=[1e-10]" in log
        d = raw["data"]
        for k in range(raw["regression"]["n_seeds"]):
            train, test = gen_rbf_regression(d["n_train"], d["n_test"], d["noise_std"],
                                             KernelSpec("rbf"), seed=derive_seed(raw["seed"], k))
            x = np.concatenate([train.inputs, test.inputs])
            jitter = cholesky(gram(KernelSpec("rbf"), x, x)).jitter_used
            assert train.provenance["jitter_used"] == test.provenance["jitter_used"] == jitter
            assert jitter == 1e-10


    def _log_lines(self, tmp_path, name, payload, prefix):
        cfg = _write_config(tmp_path, f"{name}.json", payload)
        assert main(["run", "--config", cfg]) == 0
        log = (tmp_path / name / "run.log").read_text().splitlines()
        return [line for line in log if line.startswith(prefix)]

    def test_regress_sweep_repeated_temperature_is_its_own_grid_point(self, tmp_path):
        # a repeated grid temperature must not add its NLL into the other's
        # per-noise summary: both grids report the same argmin and mean NLL
        def payload(name, temps):
            return {"experiment": "regress-sweep", "seed": 0, "output_dir": str(tmp_path / name),
                    "kernel": {"family": "rbf"}, "temperatures": temps,
                    "data": {"generator": "rbf-regression", "n_train": 100, "n_test": 100,
                             "noise_std": 0.1},
                    "regression": {"assumed_noise_std": [1.0, 0.1, 0.01], "n_seeds": 2}}

        lines = {name: self._log_lines(tmp_path, name, payload(name, temps), "assumed_noise_std=")
                 for name, temps in (("single", [0.5, 2.0]), ("repeated", [0.5, 0.5, 2.0]))}
        assert len(lines["single"]) == 3
        assert lines["repeated"] == lines["single"]

    def test_classify_sweep_logs_each_grid_position(self, tmp_path):
        # grid position j draws from derive_seed(seed, j) whatever the other
        # temperatures are, so each line of a [0.1, 0.1] grid matches the
        # line at the same position of a grid that does not repeat 0.1
        def payload(name, temps):
            return {**classify_payload(tmp_path / name), "temperatures": temps}

        def run(name, temps):
            return self._log_lines(tmp_path, name, payload(name, temps), "temperature=")

        repeated = run("repeated", [0.1, 0.1])
        assert repeated == [run("first", [0.1])[0], run("second", [0.5, 0.1])[1]]
        assert repeated[0] != repeated[1]


class TestGenDataVerb:
    def test_round_trip_through_files(self, tmp_path):
        data_dir = tmp_path / "data"
        gen_cfg = _write_config(tmp_path, "g.json", {
            "experiment": "gen-data",
            "seed": 4,
            "output_dir": str(data_dir),
            "data": {"generator": "clusters", "n_per_class": 6, "class_count": 2,
                     "dim": 2, "separation": 2.0},
        })
        assert main(["gen-data", "--config", gen_cfg]) == 0
        assert not (data_dir / "results.csv").exists()
        train = load_dataset(data_dir / "train.csv", "train")
        assert train.n == 12 and train.class_count == 2
        log = (data_dir / "run.log").read_text()
        assert "kind=classification n_train=12 n_test=6 dim=2" in log

        payload = classify_payload(tmp_path / "sweep")
        payload["data"] = {"source": "file", "train_path": str(data_dir / "train.csv"),
                           "test_path": str(data_dir / "test.csv")}
        cfg = _write_config(tmp_path, "sweep.json", payload)
        assert main(["run", "--config", cfg]) == 0
        _, rows = read_csv(tmp_path / "sweep" / "results.csv")
        assert all(r[3] == "12" and r[4] == "6" for r in rows)

    def test_gen_data_verb_rejects_other_experiments(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "p.json", probe_payload(tmp_path / "o"))
        assert main(["gen-data", "--config", cfg]) == 2
        assert "gen-data" in capsys.readouterr().err

    def test_regression_gen_data(self, tmp_path):
        data_dir = tmp_path / "rd"
        cfg = _write_config(tmp_path, "rg.json", {
            "experiment": "gen-data",
            "output_dir": str(data_dir),
            "kernel": {"family": "rbf"},
            "data": {"generator": "rbf-regression", "n_train": 5, "n_test": 3},
        })
        assert main(["gen-data", "--config", cfg]) == 0
        test = load_dataset(data_dir / "test.csv", "test")
        assert test.n == 3 and test.class_count is None


class TestPlotData:
    def _probe_results(self, tmp_path):
        out = tmp_path / "probe"
        cfg = _write_config(tmp_path, "p.json", probe_payload(out))
        assert main(["run", "--config", cfg]) == 0
        return out / "results.csv"

    def test_fig2a_default_output(self, tmp_path, capsys):
        results = self._probe_results(tmp_path)
        assert main(["plot-data", "--input", str(results), "--figure", "fig2a"]) == 0
        out_path = results.parent / "plot_fig2a.csv"
        assert f"wrote {out_path}" in capsys.readouterr().out
        header, rows = read_csv(out_path)
        assert header == ["x", "y", "series"]
        assert [r[2] for r in rows] == ["c=1.0", "c=1.0"]

    def test_fig2b_uses_ratio_column(self, tmp_path):
        results = self._probe_results(tmp_path)
        out = emit_plot_data(str(results), "fig2b", str(tmp_path / "r.csv"))
        _, rows = read_csv(out)
        by_x = {float(r[0]): float(r[1]) for r in rows}
        assert by_x[1.0] == 1.0

    def test_fig1_two_series(self, tmp_path):
        out = tmp_path / "c"
        cfg = _write_config(tmp_path, "c.json", classify_payload(out))
        assert main(["run", "--config", cfg]) == 0
        plot = emit_plot_data(str(out / "results.csv"), "fig1")
        _, rows = read_csv(plot)
        assert [r[2] for r in rows].count("test_log_likelihood") == 2
        assert [r[2] for r in rows].count("top1_accuracy") == 2

    def test_fig3b_averages_over_seeds(self, tmp_path):
        out = tmp_path / "r"
        cfg = _write_config(tmp_path, "r.json", regress_payload(out))
        assert main(["run", "--config", cfg]) == 0
        header, raw = read_csv(out / "results.csv")
        plot = emit_plot_data(str(out / "results.csv"), "fig3b")
        _, rows = read_csv(plot)
        assert len(rows) == 4  # 2 noise settings x 2 temperatures, seeds averaged
        expect = np.mean([float(r[1]) for r in raw if r[3] == "0.1" and float(r[0]) == 0.5])
        got = next(float(r[1]) for r in rows
                   if r[2] == "sigma_eps=0.1" and float(r[0]) == 0.5)
        assert got == pytest.approx(expect, rel=1e-15)

    def test_schema_mismatch_exit_3(self, tmp_path, capsys):
        results = self._probe_results(tmp_path)
        assert main(["plot-data", "--input", str(results), "--figure", "fig1"]) == 3
        assert "schema" in capsys.readouterr().err.lower() or True
        header_only = tmp_path / "empty.csv"
        write_csv(header_only, PROBE_HEADER, [])
        assert main(["plot-data", "--input", str(header_only), "--figure", "fig2a"]) == 3

    @pytest.mark.parametrize("figure", ["fig2a", "fig2b", "fig3b"])
    def test_series_label_must_be_a_number(self, tmp_path, capsys, figure):
        # the latent_scale and assumed_noise_std cells name the series: a
        # valid one keeps its text as written, and one that is not a number
        # exits 3 with one stderr line
        header = REGRESS_HEADER if figure == "fig3b" else PROBE_HEADER
        label = header.index("assumed_noise_std" if figure == "fig3b" else "latent_scale")
        row = ["1.0", "0.5", "0", "1.0"]
        results = tmp_path / "results.csv"
        args = ["plot-data", "--input", str(results), "--figure", figure]
        row[label] = "1e1"
        write_csv(results, header, [tuple(row)])
        assert main(args) == 0
        assert read_csv(tmp_path / f"plot_{figure}.csv")[1][0][2].endswith("=1e1")
        row[label] = "abc"
        write_csv(results, header, [tuple(row)])
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{header[label]} 'abc' is not a number" in err

    @pytest.mark.parametrize("body,message", [
        ("1.0,0.5,0.25,1.0\n1.0,0.5,0.25\n", "results.csv:3: expected 4 fields, got 3"),
        ("1.0,0.5,0.25,1.0\n\n1.0,0.5,0.25,1.0\n", "results.csv:3: expected 4 fields, got 0"),
        ('1.0,"0.5",0.25,1.0\n', """temperature '"0.5"' is not a number"""),
    ], ids=["ragged-row", "blank-line", "quoted-cell"])
    def test_table_layout_errors_exit_3(self, tmp_path, capsys, body, message):
        # results are read in the one table layout: a row with the wrong cell
        # count, a blank line among them, is located by line, and a quote is
        # a character of the cell
        results = tmp_path / "results.csv"
        results.write_text(",".join(PROBE_HEADER) + "\n" + body)
        capsys.readouterr()
        assert main(["plot-data", "--input", str(results), "--figure", "fig2a"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_missing_input_exit_3(self, tmp_path):
        assert main(["plot-data", "--input", str(tmp_path / "no.csv"), "--figure", "fig1"]) == 3

    def test_bad_figure_name_api(self, tmp_path):
        results = self._probe_results(tmp_path)
        with pytest.raises(ConfigError, match="--figure"):
            emit_plot_data(str(results), "fig9")


def _bytes_file(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _probe_results(dir_path, temperature="0.5"):
    path = dir_path / "results.csv"
    write_csv(path, PROBE_HEADER, [(1.0, temperature, 0.25, 1.0)])
    return path


def _plot_args(results, out=None):
    args = ["plot-data", "--input", str(results), "--figure", "fig2a"]
    return args if out is None else args + ["--out", str(out)]


def _classify_files_args(dir_path, train_path):
    payload = classify_payload(dir_path / "o")
    test_path = _bytes_file(dir_path / "test.csv", b"x0,label\n0.5,0\n1.5,1\n")
    payload["data"] = {"source": "file", "train_path": train_path, "test_path": test_path}
    return ["run", "--config", _write_config(dir_path, "c.json", payload)]


@pytest.mark.parametrize("make_args,code", [
    (lambda p: _plot_args(_probe_results(p, "abc")), 3),
    (lambda p: _plot_args(_bytes_file(p / "r.csv", ",".join(PROBE_HEADER).encode()
                                      + b"\n1.0,0.5,0.25,\xff\n")), 3),
    (lambda p: ["run", "--config", _bytes_file(p / "c.json", b'{"experiment": "\xff"}')], 2),
    (lambda p: _classify_files_args(
        p, _bytes_file(p / "train.csv", b"x0,label\n0.5,0\n1.5\xe9,1\n")), 3),
    (lambda p: ["run", "--config", str(p)], 2),
    (lambda p: _classify_files_args(p, str(p)), 3),
    (lambda p: _classify_files_args(p, _bytes_file(p / "train.csv", b"label\n0\n1\n")), 3),
    (lambda p: _plot_args(p), 3),
    (lambda p: _plot_args(_probe_results(p), out=p), 3),
    (lambda p: ["run", "--config", _write_config(p, "p.json", probe_payload(p / "o")),
                "--out", str(_probe_results(p))], 3),
    (lambda p: ["run", "--config", _bytes_file(p / "c.json", b"[" * 100_000)], 2),
    (lambda p: ["run", "--config", _bytes_file(p / "c.json", b'{"seed": ' + b"1" * 5000 + b"}")],
     2),
    (lambda p: _plot_args(_bytes_file(p / "r.csv", ",".join(PROBE_HEADER).encode()
                                      + b"\n1.0,0.5," + b"9" * 200_000 + b",1.0\n")), 3),
], ids=["plot-non-numeric-cell", "results-csv-not-utf8", "config-not-utf8",
        "data-file-not-ascii", "config-is-directory", "train-path-is-directory",
        "data-file-without-inputs", "plot-input-is-directory", "plot-out-is-directory",
        "run-out-is-a-file",
        "config-nested-past-recursion-limit", "config-integer-past-digit-limit",
        "results-csv-cell-past-field-limit"])
def test_unreadable_input_exits_with_one_stderr_line(tmp_path, capsys, make_args, code):
    # file-system, encoding and parser-limit faults end in exit 2 (the config)
    # or 3 (any other file), each with one stderr line that names the file
    args = make_args(tmp_path)
    capsys.readouterr()
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: " if code == 2 else "error: ")
    assert str(tmp_path) in err


class TestCsvFormat:
    def test_write_csv_cell_text(self, tmp_path):
        # Python floats are written as repr writes them (their shortest
        # round-trip digits), ints and strings as str writes them
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c", "d", "e"], [(0.1, -0.0, 1e-320, 2**64 - 1, "abc")])
        assert path.read_text() == "a,b,c,d,e\n0.1,-0.0,1e-320,18446744073709551615,abc\n"
        # any other cell type is refused by name: numpy scalars, np.float64
        # (a float subclass) among them, and a float32 0.1 is the float
        # 0.10000000149011612, not 0.1
        for cell, name in [(np.float32(0.1), "float32"), (np.float64(0.25), "float64"),
                           (np.int64(-7), "int64"), (True, "bool"), ([1.0], "list")]:
            with pytest.raises(TypeError, match=rf"\b{name}\b"):
                write_csv(path, ["a", "b"], [(0.5, 1), (0.5, cell)])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(0.1, 2, "s"), (1.0 / 3.0, -1, "t")]
        write_csv(path, ["a", "b", "c"], rows)
        header, back = read_csv(path)
        assert header == ["a", "b", "c"]
        assert [float(r[0]) for r in back] == [0.1, 1.0 / 3.0]
        assert path.read_text().endswith("\n")
        assert "\r" not in path.read_text()

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(MalformedRecordError):
            read_csv(path)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
_DELETE = object()


def _shrunk_bundled(name):
    """A bundled config with its ess and data sections cut down, so that a
    mutant that is still valid runs in a fraction of a second."""
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["output_dir"] = "out"  # relative: the test runs in a temporary directory
    if "ess" in raw:
        raw["ess"] = {"n_chains": 2, "burn_in": 2, "n_samples_per_chain": 2, "thinning": 1,
                      "draws_per_sample": 1}
    data = raw.get("data", {})
    if "n_per_class" in data:
        data["n_per_class"] = 4
    if "n_train" in data:
        data.update(n_train=8, n_test=4)
    return raw


BUNDLED = {name: _shrunk_bundled(name) for name in ("fig1", "fig2a", "fig2b", "fig3b")}


def _key_paths(raw):
    """Every top-level key, and every key of a section that is an object."""
    return [(key,) for key in raw] + [(key, inner) for key, value in raw.items()
                                      if isinstance(value, dict) for inner in value]


@st.composite
def _mutants(draw):
    """One bundled config with one key deleted, nulled, retyped or set to an extreme."""
    raw = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    path = draw(st.sampled_from(_key_paths(raw)))
    section = raw
    for key in path[:-1]:
        section = section[key]
    wrong_type = 1 if isinstance(section[path[-1]], str) else "wrong type"
    value = draw(st.sampled_from([_DELETE, None, wrong_type, 0, -1, 1e308, [], {}]))
    if value is _DELETE:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    return raw


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutants())
def test_mutated_bundled_config_never_ends_in_traceback(tmp_path, monkeypatch, capsys, raw):
    # the exit-code contract: any config ends in 0, 2 (config) or 3
    # (computation), with one stderr line when it fails
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(raw))
    capsys.readouterr()
    with warnings.catch_warnings():  # a warning would be one more stderr line
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", "--config", "cfg.json"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 3) and err.count("\n") == 1, (code, err)


def test_fig1_at_zero_separation_runs(tmp_path, monkeypatch, capsys):
    # separation 0 puts every class at the origin, so the labels are pure
    # noise: the end of the label-noise axis, which the generator accepts
    monkeypatch.chdir(tmp_path)
    raw = copy.deepcopy(BUNDLED["fig1"])
    raw["data"]["separation"] = 0
    Path("cfg.json").write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["run", "--config", "cfg.json"]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv("out/results.csv")[1]) == len(raw["temperatures"])


@pytest.mark.parametrize("name,section,key", [
    ("fig1", "kernel", "sigma_w2"),
    ("fig1", "kernel", "sigma_b2"),
    ("fig1", "data", "separation"),
    ("fig3b", "data", "noise_std"),
])
def test_overflowing_run_prints_one_stderr_line(tmp_path, name, section, key):
    # each of these overflows in numpy on the way to exit 3; outside pytest's
    # capture numpy's RuntimeWarnings would print their own stderr lines
    raw = copy.deepcopy(BUNDLED[name])
    raw[section][key] = 1e308
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    code, _, err = run_python(["-m", "coldgp.cli", "run", "--config", "cfg.json"], tmp_path)
    assert code == 3 and err.count("\n") == 1 and err.startswith("error: "), (code, err)


@pytest.mark.parametrize("section,key,size", [
    ("ess", "n_samples_per_chain", 10**18),
    ("ess", "n_chains", 10**17),
    ("ess", "draws_per_sample", 10**18),
    ("data", "n_per_class", 10**18),
])
def test_oversized_count_exits_before_allocating(tmp_path, capsys, monkeypatch, section, key,
                                                 size):
    # each count sizes an array past the largest numpy can allocate, so the
    # run ends in one stderr line naming the key, before any Gram or chain
    import coldgp.classification as cls

    calls = count_calls(monkeypatch, cls, ["gram", "_sample_grid"])
    payload = classify_payload(tmp_path / "o")
    payload["data"]["n_per_class"] = 5  # 10 training points
    payload[section][key] = size
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path, "c.json", payload)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and key in err, err
    assert calls == {"gram": 0, "_sample_grid": 0}


def test_grid_beyond_memory_exits_3(tmp_path, capsys):
    # 2 temperatures x 10**12 chains fit numpy's size limit but no machine:
    # the sampler's first allocation, the retained means, fails at once,
    # before any per-chain object is built, and the run ends in one line
    payload = classify_payload(tmp_path / "o")
    payload["data"]["n_per_class"] = 5  # 10 training points
    payload["ess"]["n_chains"] = 10**12
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path, "m.json", payload)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory: "), err


def test_nngp_depth_past_its_bound_exits_2_naming_the_key(tmp_path, capsys):
    # each hidden layer is one pass over the Gram, so a depth of 1e9 would
    # run for days; it fails at parse time instead
    payload = classify_payload(tmp_path / "o")
    payload["kernel"]["depth"] = 1_000_000_000
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path, "d.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(
        "config error: key 'depth' in kernel must be >= 1 and <= 10000"), err
    assert not (tmp_path / "o" / "results.csv").exists()


@pytest.mark.parametrize("width", [7.0], ids=["below-8-sigmas"])
def test_probe_width_outside_its_range_fails_in_one_stderr_line(tmp_path, capsys, width):
    # below 8 sigmas the window cuts off posterior mass
    payload = probe_payload(tmp_path / "o")
    payload["probe"]["integration_half_width_sigmas"] = width
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path, "w.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(
        "config error: key 'integration_half_width_sigmas'"), err
    assert not (tmp_path / "o" / "results.csv").exists()


@pytest.mark.parametrize("scale,width", [(1.0, 1e6), (1.0, 1e300), (1000.0, 1e5),
                                         (1.0, 5.2e5)],
                         ids=["1e6-sigmas", "1e300-sigmas", "1e5-sigmas-c1000",
                              "5.2e5-sigmas-c1"])
def test_probe_wide_window_writes_the_width_40_values(tmp_path, capsys, scale, width):
    # the window ends where the posterior provably has no mass left, so a
    # wide configured width writes the default's bytes.  Before the cap
    # these widths ran out of panels and exited 3; before that, 1e300 sigmas
    # exited 0 with 0.5
    written = []
    for name, half_width in (("default", 40.0), ("wide", width)):
        payload = probe_payload(tmp_path / name)
        payload["probe"].update(latent_scales=[scale], temperatures=[1.0, 0.1, 0.01, 0.001],
                                quadrature_tolerance=1e-8,
                                integration_half_width_sigmas=half_width)
        assert main(["run", "--config", _write_config(tmp_path, f"{name}.json", payload)]) == 0
        written.append((tmp_path / name / "results.csv").read_bytes())
    assert capsys.readouterr().err == ""
    assert written[0] == written[1]


def test_probe_at_the_smallest_temperature_writes_the_zero_temperature_limit(tmp_path, capsys):
    # the log posterior is taken relative to its peak, so at t = 5e-324 it is
    # 0 at the mode and -inf elsewhere; it once underflowed there and exited 3
    payload = probe_payload(tmp_path / "o")
    payload["probe"]["temperatures"] = [1.0, 5e-324]
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path, "u.json", payload)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = read_csv(tmp_path / "o" / "results.csv")
    col = {name: i for i, name in enumerate(header)}
    assert [float(row[col["temperature"]]) for row in rows] == [1.0, 5e-324]
    limit = relabel_prob_zero_temperature(1.0)
    tol = payload["probe"]["quadrature_tolerance"]
    assert abs(float(rows[1][col["probability"]]) - limit) <= tol * limit


def test_oversized_regression_data_exits_before_allocating(tmp_path, capsys):
    payload = regress_payload(tmp_path / "o")
    payload["data"]["n_train"] = 10**18
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path, "r.json", payload)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n_train" in err, err


def test_huge_kernel_variance_runs_clean(tmp_path):
    # the Gram's diagonal sum overflows, but each Gram factors at the zero
    # jitter rung; the predictive variance is about 1e308 times the unit one,
    # so each test NLL is that of variance 1 plus about ln(1e154), all finite
    raw = copy.deepcopy(BUNDLED["fig3b"])
    raw["kernel"]["variance"] = 1e308
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    code, _, err = run_python(["-m", "coldgp.cli", "run", "--config", "cfg.json"], tmp_path)
    assert (code, err) == (0, "")
    _, rows = read_csv(tmp_path / "out" / "results.csv")
    assert rows and all(np.isfinite(float(cell)) for row in rows for cell in row)
    assert "nan" not in (tmp_path / "out" / "run.log").read_text().lower()


def test_module_entry_point_runs_clean(tmp_path):
    # importing the package does not import coldgp.cli, so runpy does not warn
    (tmp_path / "cfg.json").write_text(json.dumps(BUNDLED["fig2a"]))
    code, out, err = run_python(["-m", "coldgp.cli", "run", "--config", "cfg.json"], tmp_path)
    assert (code, err) == (0, "")
    assert "results.csv" in out


SCIPY_TRACKED = ("scipy", "scipy.linalg",
                 "scipy.optimize", "scipy.special", "scipy.spatial", "scipy.sparse")


def _scipy_loaded(tmp_path, *argvs):
    """Tracked scipy modules loaded after ``import coldgp.cli``, then the exit
    code of each ``coldgp.cli.main(argv)`` in turn and the tracked modules
    loaded after it, all in one fresh interpreter."""
    script = "\n".join([
        "import json, sys",
        "import coldgp.cli",
        f"tracked = {SCIPY_TRACKED!r}",
        "out = [[m for m in tracked if m in sys.modules]]",
        f"for argv in {list(argvs)!r}:",
        "    out += [coldgp.cli.main(argv), [m for m in tracked if m in sys.modules]]",
        "print(json.dumps(out))",
    ])
    code, out, err = run_python(["-c", script], tmp_path)
    assert code == 0, err
    return json.loads(out.splitlines()[-1])


def _bundled_run(tmp_path, name):
    """argv of a run of the shrunk bundled config ``name`` into ``tmp_path/name``."""
    (tmp_path / f"{name}.json").write_text(json.dumps(BUNDLED[name]))
    return ["run", "--config", f"{name}.json", "--out", name]


def test_nngp_run_loads_no_optional_scipy(tmp_path):
    # an nngp sweep factors, solves and multiplies on numpy's OpenBLAS and
    # loads no scipy at all
    assert _scipy_loaded(tmp_path, _bundled_run(tmp_path, "fig1")) == [[], 0, []]


def test_rbf_runs_load_no_scipy(tmp_path):
    # the rbf Gram's squared distances are numpy's, with cdist's bits, so
    # neither an rbf regression (its generator too) nor an rbf classification
    # loads scipy.spatial, or the scipy.linalg it would bring
    assert _scipy_loaded(tmp_path, _bundled_run(tmp_path, "fig3b")) == [[], 0, []]
    payload = classify_payload("rbf")
    payload["kernel"] = {"family": "rbf", "lengthscale": 1.0, "variance": 1.0}
    cfg = _write_config(tmp_path, "rbf.json", payload)
    assert _scipy_loaded(tmp_path, ["run", "--config", cfg]) == [[], 0, []]


def test_probe_run_loads_no_optional_scipy(tmp_path):
    # the posterior mode is a bisection and the sigmoid a scalar function:
    # a probe run factors nothing and loads no scipy at all
    runs = [_bundled_run(tmp_path, name) for name in ("fig2a", "fig2b")]
    assert _scipy_loaded(tmp_path, *runs) == [[], 0, [], 0, []]


def test_plot_data_and_clusters_gen_data_load_no_scipy(tmp_path):
    write_csv(tmp_path / "results.csv", PROBE_HEADER, [(1000.0, 0.5, 0.25, 0.75)])
    (tmp_path / "gen.json").write_text(json.dumps({
        "experiment": "gen-data", "output_dir": "gen",
        "data": {"generator": "clusters", "n_per_class": 6, "class_count": 2,
                 "dim": 2, "separation": 2.0}}))
    assert _scipy_loaded(tmp_path, ["plot-data", "--input", "results.csv", "--figure", "fig2a"],
                         ["gen-data", "--config", "gen.json"]) == [[], 0, [], 0, []]


# --- BLAS threads ----------------------------------------------------------

def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 200 training points numpy's OpenBLAS splits work across threads;
    # unpinned, two threads moved the last digits of test_log_likelihood.
    # Neither run loads scipy's build
    import coldgp.linalg as linalg

    classify = copy.deepcopy(BUNDLED["fig1"])
    classify["data"]["n_per_class"] = 100
    classify["ess"].update(burn_in=10, n_samples_per_chain=5)
    regress = copy.deepcopy(BUNDLED["fig3b"])
    regress["data"].update(n_train=400, n_test=200)
    regress["regression"]["n_seeds"] = 1
    build = linalg._lapack().name
    for name, raw in (("classify", classify), ("regress", regress)):
        (tmp_path / f"{name}.json").write_text(json.dumps(raw))
        for threads in ("1", "2"):
            code, _, err = run_python(["-m", "coldgp.cli", "run", "--config", f"{name}.json",
                                       "--out", f"{name}{threads}"], tmp_path,
                                      OPENBLAS_NUM_THREADS=threads)
            assert (code, err) == (0, "")
            blas = [line for line in (tmp_path / f"{name}{threads}" / "run.log")
                    .read_text().splitlines() if line.startswith("blas_")]
            assert len(blas) == 1, blas
            assert blas[0].startswith(f"blas_factors={build} blas_numpy_threads=1 "), blas
            if build == "scipy":
                assert "blas_scipy_threads=1 " in blas[0], blas
            else:
                assert blas[0].endswith(" blas_scipy=not-loaded"), blas
        assert (tmp_path / f"{name}1" / "results.csv").read_bytes() == \
            (tmp_path / f"{name}2" / "results.csv").read_bytes()


def test_run_pins_numpy_blas_and_restores_it(tmp_path, monkeypatch):
    import coldgp.cli as cli
    import coldgp.linalg as linalg

    build = linalg._openblas("numpy")
    if build is None or build.threads is None:
        pytest.skip("numpy vendors no OpenBLAS with thread symbols")
    get, set_threads = build.threads
    before = get()
    during = []
    real = cli.relabel_ratio_curve

    def probe(*args, **kwargs):
        during.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "relabel_ratio_curve", probe)
    set_threads(2)
    try:
        out = tmp_path / "o"
        assert main(["run", "--config", _write_config(tmp_path, "p.json",
                                                      probe_payload(out))]) == 0
        assert during == [1] and get() == 2
        line, = [s for s in (out / "run.log").read_text().splitlines() if s.startswith("blas_")]
        assert line.startswith("blas_numpy_threads=1 blas_numpy_config='")
        # scipy's build computes nothing in a probe; earlier tests may have loaded it
        scipy_state = "not-used" if "scipy.linalg" in sys.modules else "not-loaded"
        assert line.endswith(f" blas_scipy={scipy_state}")
        # a failing run restores the count too
        monkeypatch.setattr(cli, "relabel_ratio_curve", lambda *a, **k: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            run_experiment(load_config(_write_config(tmp_path, "q.json", probe_payload(out))))
        assert get() == 2
    finally:
        set_threads(before)


@pytest.fixture
def fresh_blas():
    """coldgp.linalg with its BLAS builds resolved afresh in the test, and
    again after it."""
    import coldgp.linalg as linalg

    caches = (linalg._openblas, linalg._lapack)
    for cache in caches:
        cache.cache_clear()
    yield linalg
    for cache in caches:
        cache.cache_clear()


def _blas_line(out):
    line, = [s for s in (out / "run.log").read_text().splitlines() if s.startswith("blas_")]
    return line


def test_blas_without_thread_symbols_is_logged_not_pinned(tmp_path, monkeypatch, fresh_blas):
    # no vendored OpenBLAS at all: scipy.linalg factors, and neither build
    # can be pinned
    monkeypatch.setattr(fresh_blas, "_openblas", lambda package: None)
    out = tmp_path / "o"
    assert main(["run", "--config", _write_config(tmp_path, "c.json",
                                                  classify_payload(out))]) == 0
    assert _blas_line(out) == "blas_factors=scipy blas_numpy=not-pinned blas_scipy=not-pinned"


def test_build_without_thread_symbols_factors_unpinned(tmp_path, monkeypatch, fresh_blas):
    # numpy's library binds its LAPACK routines but exports no thread setter
    if fresh_blas._openblas("numpy") is None:
        pytest.skip("numpy vendors no OpenBLAS")
    fresh_blas._openblas.cache_clear()
    monkeypatch.setitem(fresh_blas._THREAD_SYMBOLS, "numpy", ("no_such_symbol",) * 3)
    out = tmp_path / "o"
    assert main(["run", "--config", _write_config(tmp_path, "r.json",
                                                  regress_payload(out))]) == 0
    # the run loads no scipy; earlier tests may have loaded it
    scipy_state = "not-used" if "scipy.linalg" in sys.modules else "not-loaded"
    assert _blas_line(out) == ("blas_factors=numpy blas_numpy=not-pinned "
                               f"blas_scipy={scipy_state}")


@pytest.mark.parametrize("name", ["fig1", "fig3b"])
def test_scipy_fallback_writes_the_same_bytes(tmp_path, monkeypatch, fresh_blas, name):
    # numpy's build without the LAPACK symbols, as an MKL or Accelerate
    # numpy is: scipy.linalg's routines factor, solve and multiply on scipy's
    # build, held at one thread, and the bytes do not move
    if fresh_blas._lapack().name != "numpy":
        pytest.skip("numpy's build exports no LAPACK routines")
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if name == "fig1":  # 200 training points
        raw["data"]["n_per_class"] = 100
        raw["ess"].update(burn_in=10, n_samples_per_chain=5)
    else:
        raw["regression"]["n_seeds"] = 2
    written = {}
    for build in ("numpy", "scipy"):
        if build == "scipy":
            monkeypatch.setattr(fresh_blas, "_LAPACK_SYMBOLS", ("no_such_symbol",) * 4)
            fresh_blas._lapack.cache_clear()
        out = tmp_path / build
        raw["output_dir"] = str(out)
        assert main(["run", "--config", _write_config(tmp_path, f"{build}.json", raw)]) == 0
        line = _blas_line(out)
        assert line.startswith(f"blas_factors={build} blas_numpy_threads=1 "), line
        written[build] = (out / "results.csv").read_bytes()
    assert "blas_scipy_threads=1 " in line, line
    assert written["numpy"] == written["scipy"]


def test_runs_that_need_no_scipy_run_without_it(tmp_path):
    # with scipy blocked from importing, an nngp sweep, an rbf regression, a
    # probe, plot-data and a clusters and an rbf-regression gen-data exit 0
    # and write the bytes of a normal run
    write_csv(tmp_path / "results.csv", PROBE_HEADER, [(1000.0, 0.5, 0.25, 0.75)])
    (tmp_path / "gen.json").write_text(json.dumps({
        "experiment": "gen-data", "output_dir": "gen",
        "data": {"generator": "clusters", "n_per_class": 6, "class_count": 2,
                 "dim": 2, "separation": 2.0}}))
    (tmp_path / "rbf_gen.json").write_text(json.dumps({
        "experiment": "gen-data", "seed": 3, "output_dir": "rbf_gen",
        "kernel": {"family": "rbf", "lengthscale": 0.7, "variance": 1.0},
        "data": {"generator": "rbf-regression", "n_train": 30, "n_test": 20,
                 "noise_std": 0.1}}))
    for name in ("fig1", "fig2a", "fig3b"):
        (tmp_path / f"{name}.json").write_text(json.dumps(BUNDLED[name]))
    for side, block in (("blocked", "sys.modules['scipy'] = None"), ("normal", "")):
        argvs = [["run", "--config", "fig1.json", "--out", f"{side}/fig1"],
                 ["run", "--config", "fig2a.json", "--out", f"{side}/fig2a"],
                 ["run", "--config", "fig3b.json", "--out", f"{side}/fig3b"],
                 ["plot-data", "--input", "results.csv", "--figure", "fig2a",
                  "--out", f"{side}_plot.csv"],
                 ["gen-data", "--config", "gen.json", "--out", f"{side}/gen"],
                 ["gen-data", "--config", "rbf_gen.json", "--out", f"{side}/rbf_gen"]]
        script = "\n".join([
            "import json, sys",
            block,
            "import coldgp.cli",
            f"print(json.dumps([coldgp.cli.main(argv) for argv in {argvs!r}]))",
        ])
        code, out, err = run_python(["-c", script], tmp_path)
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[-1]) == [0] * len(argvs)
    for name in ("fig1/results.csv", "fig2a/results.csv", "fig3b/results.csv",
                 "gen/train.csv", "gen/test.csv", "rbf_gen/train.csv", "rbf_gen/test.csv"):
        assert (tmp_path / "blocked" / name).read_bytes() == \
            (tmp_path / "normal" / name).read_bytes(), name
    assert (tmp_path / "blocked_plot.csv").read_bytes() == \
        (tmp_path / "normal_plot.csv").read_bytes()
