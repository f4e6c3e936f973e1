"""Config parsing tests: strict validation both ways (unknown and
inapplicable keys rejected), defaults, and the resolved-echo round trip."""
import json

import pytest

from coldgp import ConfigError, EssConfig, apply_overrides, load_config, parse_config


def regress_raw():
    return {
        "experiment": "regress-sweep",
        "kernel": {"family": "rbf", "lengthscale": 2.0},
        "temperatures": [0.1, 1.0, 10.0],
        "data": {"generator": "rbf-regression", "n_train": 20, "n_test": 10},
    }


def classify_raw():
    return {
        "experiment": "classify-sweep",
        "kernel": {"family": "nngp", "depth": 2},
        "temperatures": [0.1, 1.0],
        "data": {"generator": "clusters", "n_per_class": 10},
    }


def probe_raw():
    return {
        "experiment": "probe",
        "probe": {"latent_scales": [1.0, 10.0], "temperatures": [0.5, 1.0]},
    }


def gen_data_raw():
    return {
        "experiment": "gen-data",
        "data": {"generator": "clusters", "n_per_class": 5, "class_count": 2},
    }


ALL_RAW = [regress_raw, classify_raw, probe_raw, gen_data_raw]


class TestParsing:
    def test_defaults_filled(self):
        cfg = parse_config(regress_raw())
        assert cfg.seed == 0
        assert cfg.output_dir == "runs/regress-sweep"
        assert cfg.kernel.family == "rbf"
        assert cfg.kernel.rbf_lengthscale == 2.0
        assert cfg.kernel.rbf_variance == 1.0
        assert cfg.temperatures == (0.1, 1.0, 10.0)
        assert cfg.data["noise_std"] == 0.1
        assert cfg.regression == {"assumed_noise_std": [0.1], "n_seeds": 1}
        assert cfg.ess is None and cfg.probe is None

    def test_classify_defaults(self):
        cfg = parse_config(classify_raw())
        assert cfg.ess == EssConfig(n_chains=4, burn_in=1000, n_samples_per_chain=500, thinning=5,
                                    draws_per_sample=8)
        assert cfg.kernel.sigma_w2 == 2.0 and cfg.kernel.sigma_b2 == 0.0
        assert cfg.regression is None

    def test_probe_defaults(self):
        cfg = parse_config(probe_raw())
        assert cfg.probe["quadrature_tolerance"] == 1e-8
        assert cfg.probe["integration_half_width_sigmas"] == 40.0
        assert cfg.kernel is None and cfg.data is None

    def test_explicit_values_survive(self):
        raw = classify_raw()
        raw["seed"] = 17
        raw["output_dir"] = "out/x"
        raw["ess"] = {"n_chains": 2, "burn_in": 10, "n_samples_per_chain": 5,
                      "thinning": 3, "draws_per_sample": 2}
        cfg = parse_config(raw)
        assert cfg.seed == 17 and cfg.output_dir == "out/x"
        assert cfg.ess == EssConfig(n_chains=2, burn_in=10, n_samples_per_chain=5, thinning=3,
                                    draws_per_sample=2)

    @pytest.mark.parametrize("make", ALL_RAW)
    def test_resolved_round_trip(self, make):
        cfg = parse_config(make())
        assert parse_config(cfg.to_dict()) == cfg

    def test_to_dict_omits_inapplicable(self):
        d = parse_config(probe_raw()).to_dict()
        assert set(d) == {"experiment", "seed", "output_dir", "probe"}
        d = parse_config(classify_raw()).to_dict()
        assert "regression" not in d and "probe" not in d
        assert d["ess"]["draws_per_sample"] == 8

    def test_scalar_assumed_noise_std_promoted(self):
        raw = regress_raw()
        raw["regression"] = {"assumed_noise_std": 0.5, "n_seeds": 3}
        cfg = parse_config(raw)
        assert cfg.regression == {"assumed_noise_std": [0.5], "n_seeds": 3}


class TestRejections:
    def test_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config([1, 2])

    def test_unknown_top_key_named(self):
        raw = probe_raw()
        raw["probes"] = {}
        with pytest.raises(ConfigError, match="'probes'"):
            parse_config(raw)

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="'experiment'"):
            parse_config({"probe": {}})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="'experiment'"):
            parse_config({"experiment": "sweep"})

    def test_inapplicable_section_named(self):
        raw = probe_raw()
        raw["kernel"] = {"family": "rbf"}
        with pytest.raises(ConfigError, match="'kernel' does not apply"):
            parse_config(raw)
        raw = regress_raw()
        raw["ess"] = {}
        with pytest.raises(ConfigError, match="'ess' does not apply"):
            parse_config(raw)

    def test_missing_required_section(self):
        raw = classify_raw()
        del raw["data"]
        with pytest.raises(ConfigError, match="requires key 'data'"):
            parse_config(raw)
        with pytest.raises(ConfigError, match="requires key 'probe'"):
            parse_config({"experiment": "probe"})

    @pytest.mark.parametrize("seed", ["3", 1.5, True, -1, 2 ** 64])
    def test_bad_seed(self, seed):
        raw = probe_raw()
        raw["seed"] = seed
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config(raw)

    def test_bad_output_dir(self):
        raw = probe_raw()
        raw["output_dir"] = ""
        with pytest.raises(ConfigError, match="'output_dir'"):
            parse_config(raw)

    @pytest.mark.parametrize("temps", [[], "hot", [0.1, 0.0], [0.1, -1.0], [True]])
    def test_bad_temperatures(self, temps):
        raw = regress_raw()
        raw["temperatures"] = temps
        with pytest.raises(ConfigError, match="'temperatures'"):
            parse_config(raw)


class TestKernelSection:
    def test_unknown_family(self):
        raw = regress_raw()
        raw["kernel"] = {"family": "matern"}
        with pytest.raises(ConfigError, match="'family'"):
            parse_config(raw)

    def test_cross_family_key_rejected(self):
        raw = regress_raw()
        raw["kernel"] = {"family": "rbf", "sigma_w2": 2.0}
        with pytest.raises(ConfigError, match="'sigma_w2'"):
            parse_config(raw)
        raw = classify_raw()
        raw["kernel"] = {"family": "nngp", "lengthscale": 1.0}
        with pytest.raises(ConfigError, match="'lengthscale'"):
            parse_config(raw)

    @pytest.mark.parametrize("patch", [
        {"lengthscale": 0.0}, {"variance": -1.0}, {"scale": 0.0}, {"lengthscale": "1"},
        {"lengthscale": 1e155},
    ])
    def test_bad_rbf_values(self, patch):
        raw = regress_raw()
        raw["kernel"] = {"family": "rbf", **patch}
        with pytest.raises(ConfigError):
            parse_config(raw)

    @pytest.mark.parametrize("patch", [
        {"depth": 0}, {"depth": 1.5}, {"sigma_w2": 0.0}, {"sigma_b2": -0.1},
    ])
    def test_bad_nngp_values(self, patch):
        raw = classify_raw()
        raw["kernel"] = {"family": "nngp", **patch}
        with pytest.raises(ConfigError):
            parse_config(raw)


class TestDataSection:
    def test_generator_source_exclusive(self):
        raw = regress_raw()
        raw["data"] = {"generator": "rbf-regression", "source": "file"}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)
        raw["data"] = {"n_train": 5}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)

    def test_generator_experiment_pairing(self):
        raw = classify_raw()
        raw["data"] = {"generator": "rbf-regression"}
        with pytest.raises(ConfigError, match="regression-only"):
            parse_config(raw)
        raw = regress_raw()
        raw["data"] = {"generator": "clusters"}
        with pytest.raises(ConfigError, match="classification-only"):
            parse_config(raw)

    def test_unknown_generator_and_source(self):
        raw = regress_raw()
        raw["data"] = {"generator": "moons"}
        with pytest.raises(ConfigError, match="'generator'"):
            parse_config(raw)
        raw = classify_raw()
        raw["data"] = {"source": "mnist"}
        with pytest.raises(ConfigError, match="'source'"):
            parse_config(raw)

    def test_gen_data_requires_generator(self):
        raw = gen_data_raw()
        raw["data"] = {"source": "file", "train_path": "a", "test_path": "b"}
        with pytest.raises(ConfigError, match="generator"):
            parse_config(raw)

    def test_cifar_defaults_and_requirements(self):
        raw = classify_raw()
        raw["data"] = {"source": "cifar10", "dir": "/data/cifar", "classes": [3, 8]}
        cfg = parse_config(raw)
        assert cfg.data == {"source": "cifar10", "dir": "/data/cifar", "classes": [3, 8],
                            "n_train": 2000, "n_test": 1000, "normalize": "global-standardize"}
        raw["data"] = {"source": "cifar10"}
        with pytest.raises(ConfigError, match="'dir'"):
            parse_config(raw)
        raw["data"] = {"source": "cifar10", "dir": "/d", "classes": []}
        with pytest.raises(ConfigError, match="'classes'"):
            parse_config(raw)

    def test_cifar_regression_rejected(self):
        raw = regress_raw()
        raw["data"] = {"source": "cifar10", "dir": "/d"}
        with pytest.raises(ConfigError, match="classification-only"):
            parse_config(raw)

    def test_file_source(self):
        raw = classify_raw()
        raw["data"] = {"source": "file", "train_path": "tr.csv", "test_path": "te.csv",
                       "class_count": 3}
        cfg = parse_config(raw)
        assert cfg.data["class_count"] == 3
        assert cfg.data["normalize"] == "none"
        raw["data"] = {"source": "file", "train_path": "tr.csv"}
        with pytest.raises(ConfigError, match="'test_path'"):
            parse_config(raw)

    def test_bad_normalize(self):
        raw = classify_raw()
        raw["data"] = {"source": "file", "train_path": "a", "test_path": "b",
                       "normalize": "whiten"}
        with pytest.raises(ConfigError, match="'normalize'"):
            parse_config(raw)

    def test_rbf_regression_needs_rbf_kernel(self):
        raw = regress_raw()
        raw["kernel"] = {"family": "nngp"}
        with pytest.raises(ConfigError, match="rbf kernel"):
            parse_config(raw)
        raw = gen_data_raw()
        raw["data"] = {"generator": "rbf-regression"}
        with pytest.raises(ConfigError, match="'kernel'"):
            parse_config(raw)

    def test_file_source_single_replicate_only(self):
        raw = regress_raw()
        raw["data"] = {"source": "file", "train_path": "a", "test_path": "b"}
        raw["regression"] = {"n_seeds": 2}
        with pytest.raises(ConfigError, match="'n_seeds'"):
            parse_config(raw)
        raw["regression"] = {"n_seeds": 1}
        assert parse_config(raw).regression["n_seeds"] == 1


class TestSubsections:
    def test_ess_validation(self):
        raw = classify_raw()
        raw["ess"] = {"chains": 2}
        with pytest.raises(ConfigError, match="'chains'"):
            parse_config(raw)
        raw["ess"] = {"n_chains": 0}
        with pytest.raises(ConfigError, match="'n_chains'"):
            parse_config(raw)

    def test_probe_validation(self):
        raw = probe_raw()
        del raw["probe"]["latent_scales"]
        with pytest.raises(ConfigError, match="'latent_scales'"):
            parse_config(raw)
        raw = probe_raw()
        raw["probe"]["temperatures"] = [0.5, -1.0]
        with pytest.raises(ConfigError, match="'temperatures'"):
            parse_config(raw)
        raw = probe_raw()
        raw["probe"]["quadrature_tolerance"] = 0.0
        with pytest.raises(ConfigError, match="'quadrature_tolerance'"):
            parse_config(raw)
        # the window reaches at least 8 prior standard deviations either side
        for width in (7.5, 0.0, "wide", float("inf")):
            raw = probe_raw()
            raw["probe"]["integration_half_width_sigmas"] = width
            with pytest.raises(ConfigError, match="'integration_half_width_sigmas'"):
                parse_config(raw)
        raw["probe"]["integration_half_width_sigmas"] = 8
        assert parse_config(raw).probe["integration_half_width_sigmas"] == 8.0

    def test_regression_validation(self):
        raw = regress_raw()
        raw["regression"] = {"n_seeds": 0}
        with pytest.raises(ConfigError, match="'n_seeds'"):
            parse_config(raw)
        raw["regression"] = {"assumed_noise_std": [0.1, -0.1]}
        with pytest.raises(ConfigError, match="'assumed_noise_std'"):
            parse_config(raw)
        raw["regression"] = {"sigma": 0.1}
        with pytest.raises(ConfigError, match="'sigma'"):
            parse_config(raw)
        raw["regression"] = {"assumed_noise_std": [0.1, 1e155]}
        with pytest.raises(ConfigError, match="'assumed_noise_std'.*square"):
            parse_config(raw)

    def test_squared_values_up_to_a_finite_square_accepted(self):
        raw = regress_raw()
        raw["kernel"] = {"family": "rbf", "lengthscale": 1e154}
        raw["regression"] = {"assumed_noise_std": 1e154}
        cfg = parse_config(raw)
        assert cfg.kernel.rbf_lengthscale == 1e154
        assert cfg.regression["assumed_noise_std"] == [1e154]
        raw["kernel"]["lengthscale"] = 1e-160  # a subnormal square is still positive
        assert parse_config(raw).kernel.rbf_lengthscale == 1e-160


class TestLoadAndOverrides:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(probe_raw()))
        cfg = load_config(path)
        assert cfg.experiment == "probe"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_apply_overrides(self):
        cfg = parse_config(probe_raw())
        assert apply_overrides(cfg) == cfg
        out = apply_overrides(cfg, seed=5, output_dir="elsewhere")
        assert out.seed == 5 and out.output_dir == "elsewhere"
        assert out.probe == cfg.probe
        with pytest.raises(ConfigError, match="--seed"):
            apply_overrides(cfg, seed=-1)
        with pytest.raises(ConfigError, match="--out"):
            apply_overrides(cfg, output_dir="")
