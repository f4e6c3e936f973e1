"""Config parsing tests: strict validation both ways (unknown and
inapplicable keys rejected), defaults, and the resolved-echo round trip."""
import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgp import (
    ConfigError,
    EssConfig,
    KernelSpec,
    LabeledDataset,
    apply_overrides,
    load_config,
    parse_config,
)
from coldgp.aleatoric import _check_quadrature, _check_scale
from coldgp.data import _check_clusters, _check_rbf_regression, _checked
from coldgp.exceptions import ColdGPError, check_temperatures
from coldgp.regression import _check_noise_stds
from coldgp.rng import _check_seed


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


def cifar_raw():
    raw = classify_raw()
    raw["data"] = {"source": "cifar10", "dir": "d", "classes": [0, 1], "n_train": 5, "n_test": 5}
    return raw


def file_raw():
    raw = classify_raw()
    raw["data"] = {"source": "file", "train_path": "a", "test_path": "b", "class_count": 3}
    return raw


ALL_RAW = [regress_raw, classify_raw, probe_raw, gen_data_raw]


class TestParsing:
    def test_defaults_filled(self):
        cfg = parse_config(regress_raw())
        assert cfg.seed == 0
        assert cfg.output_dir == "runs/regress-sweep"
        assert cfg.kernel.family == "rbf"
        assert cfg.kernel.lengthscale == 2.0
        assert cfg.kernel.variance == 1.0
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

    def test_zero_separation_and_zero_assumed_noise_accepted(self):
        # their owners accept 0: clusters all at the origin (pure label
        # noise), and a noise-free regression likelihood
        raw = classify_raw()
        raw["data"]["separation"] = 0
        assert parse_config(raw).data["separation"] == 0.0
        raw = regress_raw()
        raw["regression"] = {"assumed_noise_std": [0.0, 0.1]}
        assert parse_config(raw).regression["assumed_noise_std"] == [0.0, 0.1]
        raw["regression"] = {"assumed_noise_std": 0}
        assert parse_config(raw).regression["assumed_noise_std"] == [0.0]

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
        {"depth": 0}, {"depth": 1.5}, {"depth": 10**9}, {"sigma_w2": 0.0}, {"sigma_b2": -0.1},
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

    @pytest.mark.parametrize("value", [None, 12, ["a"], ""], ids=["null", "int", "list", "empty"])
    @pytest.mark.parametrize("make,key", [(cifar_raw, "dir"), (file_raw, "train_path"),
                                          (file_raw, "test_path")],
                             ids=["dir", "train_path", "test_path"])
    def test_path_keys_must_be_non_empty_strings(self, make, key, value):
        # str(None) would name the file 'None' and fail only once it is read
        raw = make()
        raw["data"][key] = value
        with pytest.raises(ConfigError, match=f"key '{key}' in data must be a non-empty string"):
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
        assert cfg.kernel.lengthscale == 1e154
        assert cfg.regression["assumed_noise_std"] == [1e154]
        raw["kernel"]["lengthscale"] = 1e-160  # a subnormal square is still positive
        assert parse_config(raw).kernel.lengthscale == 1e-160


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


RBF = KernelSpec("rbf")

# Every numeric key whose bound the code that consumes it states: the config
# it sits in, its path there, whether it is an integer, whether the config
# lists it, and that code's check of one value (the other keys as configured)
OWNED = {
    "seed": (probe_raw, ("seed",), True, False, _check_seed),
    "temperatures": (regress_raw, ("temperatures",), False, True,
                     lambda v: check_temperatures([v])),
    "kernel.lengthscale": (regress_raw, ("kernel", "lengthscale"), False, False,
                           lambda v: KernelSpec("rbf", lengthscale=v)),
    "kernel.variance": (regress_raw, ("kernel", "variance"), False, False,
                        lambda v: KernelSpec("rbf", variance=v)),
    "kernel.scale": (regress_raw, ("kernel", "scale"), False, False,
                     lambda v: KernelSpec("rbf", scale=v)),
    "kernel.depth": (classify_raw, ("kernel", "depth"), True, False,
                     lambda v: KernelSpec("nngp", depth=v)),
    "kernel.sigma_w2": (classify_raw, ("kernel", "sigma_w2"), False, False,
                        lambda v: KernelSpec("nngp", sigma_w2=v)),
    "kernel.sigma_b2": (classify_raw, ("kernel", "sigma_b2"), False, False,
                        lambda v: KernelSpec("nngp", sigma_b2=v)),
    "rbf-regression.n_train": (regress_raw, ("data", "n_train"), True, False,
                               lambda v: _check_rbf_regression(v, 10, 0.1, RBF)),
    "rbf-regression.n_test": (regress_raw, ("data", "n_test"), True, False,
                              lambda v: _check_rbf_regression(20, v, 0.1, RBF)),
    "rbf-regression.noise_std": (regress_raw, ("data", "noise_std"), False, False,
                                 lambda v: _check_rbf_regression(20, 10, v, RBF)),
    "clusters.n_per_class": (classify_raw, ("data", "n_per_class"), True, False,
                             lambda v: _check_clusters(v, 2, 8, 2.0)),
    "clusters.class_count": (classify_raw, ("data", "class_count"), True, False,
                             lambda v: _check_clusters(10, v, 8, 2.0)),
    "clusters.dim": (classify_raw, ("data", "dim"), True, False,
                     lambda v: _check_clusters(10, 2, v, 2.0)),
    "clusters.separation": (classify_raw, ("data", "separation"), False, False,
                            lambda v: _check_clusters(10, 2, 8, v)),
    "cifar10.n_train": (cifar_raw, ("data", "n_train"), True, False,
                        lambda v: _checked(n_train=v)),
    "cifar10.n_test": (cifar_raw, ("data", "n_test"), True, False,
                       lambda v: _checked(n_test=v)),
    "file.class_count": (file_raw, ("data", "class_count"), True, False,
                         lambda v: LabeledDataset(np.zeros((1, 1)), [0], v, "train")),
    **{f"ess.{key}": (classify_raw, ("ess", key), True, False,
                      lambda v, key=key: EssConfig(**{key: v}))
       for key in EssConfig.BOUNDS},
    "probe.latent_scales": (probe_raw, ("probe", "latent_scales"), False, True, _check_scale),
    "probe.temperatures": (probe_raw, ("probe", "temperatures"), False, True,
                           lambda v: check_temperatures([v])),
    "probe.quadrature_tolerance": (probe_raw, ("probe", "quadrature_tolerance"), False, False,
                                   lambda v: _check_quadrature(v, 40.0)),
    "probe.integration_half_width_sigmas": (probe_raw, ("probe", "integration_half_width_sigmas"),
                                            False, False, lambda v: _check_quadrature(1e-8, v)),
    "regression.assumed_noise_std": (regress_raw, ("regression", "assumed_noise_std"), False,
                                     True, lambda v: _check_noise_stds([v])),
}

# zero first, then subnormals, negatives, bounds' neighbours (nngp depth's
# upper bound read from KernelSpec), squares that underflow (1e-170) or
# overflow (1e155) and the largest finite values
MAX_DEPTH = KernelSpec.BOUNDS["depth"][3]
EDGE_INTS = [0, 1, -1, 2, 16, 17, MAX_DEPTH, MAX_DEPTH + 1, 2**64 - 1, 2**64, 10**30,
             -(10**30)]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-170, 1e-160, -1.0, np.nextafter(8.0, 0.0), 8.0,
               1e154, 1e155, 1.7976931348623157e308, -1.7976931348623157e308, 0, 2, -3]


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except (ValueError, ColdGPError):  # ConfigError is a ColdGPError
        return False
    return True


@pytest.mark.parametrize("key", sorted(OWNED))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_config_accepts_a_value_exactly_when_its_owner_does(key, data):
    # parse_config reads each owned bound from its owner or calls its check,
    # so the two agree at every value of the key's JSON type
    make, path, integer, listed, owner = OWNED[key]
    if integer:
        values = st.sampled_from(EDGE_INTS) | st.integers()
    else:
        values = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    value = data.draw(values)
    raw = make()
    section = raw
    for part in path[:-1]:
        section = section.setdefault(part, {})
    section[path[-1]] = [value] if listed else value
    assert _accepts(parse_config, raw) == _accepts(owner, value), (key, value)


def _load_workloads():
    """perfbench/workloads.py, read and run as a module without importing the
    perfbench directory or writing its bytecode."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    namespace = {"__name__": "workloads"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("workload", sorted(WORKLOADS["WORKLOADS"]))
def test_benchmark_workload_configs_parse_and_round_trip(workload, seed):
    # the benchmark hands each workload's JSON to load_config
    cfg = parse_config(json.loads(WORKLOADS["config_bytes"](workload, seed)))
    assert parse_config(copy.deepcopy(cfg.to_dict())) == cfg
