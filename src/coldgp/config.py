"""Experiment configuration: strict JSON parsing with resolved-default echo.

One JSON document describes one run.  Parsing is strict in both directions:
keys that are unknown anywhere, and keys that do not apply to the requested
experiment, fail with a ConfigError naming the offender before any
computation starts.  The fully resolved configuration (defaults filled in,
command-line overrides applied) is what gets echoed next to the results, and
it parses back to an identical run.

This module states what JSON itself can get wrong (key sets, applicability,
required keys, JSON types) and the harness's own keys and rules.  Every
other default and bound, finiteness included, is stated once, by the code
that consumes the value, and read from there or checked by that code's check
at parse time; each such error becomes a ConfigError naming its key.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

from .aleatoric import BOUNDS as PROBE_BOUNDS
from .aleatoric import HALF_WIDTH_SIGMAS, QUADRATURE_TOLERANCE, _check_scale
from .classification import EssConfig
from .data import BOUNDS as DATA_BOUNDS
from .data import CIFAR_N_TEST, CIFAR_N_TRAIN, _check_clusters, _check_rbf_regression, _normalize_keep
from .exceptions import ColdGPError, ConfigError, check_bound, check_temperatures
from .kernels import FAMILIES, KernelSpec
from .regression import _check_noise_stds
from .rng import _check_seed

EXPERIMENTS = ("regress-sweep", "classify-sweep", "probe", "gen-data")
# Each generator's data keys and their defaults
GENERATORS = {"rbf-regression": {"n_train": 100, "n_test": 100, "noise_std": 0.1},
              "clusters": {"n_per_class": 100, "class_count": 2, "dim": 8, "separation": 2.0}}
SOURCES = ("cifar10", "file")
NORMALIZE_SCHEMES = ("none", "global-standardize")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run description."""

    experiment: str
    seed: int
    output_dir: str
    kernel: KernelSpec | None = None
    temperatures: tuple | None = None
    data: dict | None = None
    ess: EssConfig | None = None
    probe: dict | None = None
    regression: dict | None = None

    def to_dict(self) -> dict:
        """Plain-JSON form of the resolved config; inapplicable sections omitted."""
        out = {"experiment": self.experiment, "seed": self.seed, "output_dir": self.output_dir}
        if self.kernel is not None:
            out["kernel"] = {"family": self.kernel.family,
                             **{key: getattr(self.kernel, key) for key in FAMILIES[self.kernel.family]}}
        if self.temperatures is not None:
            out["temperatures"] = list(self.temperatures)
        if self.data is not None:
            out["data"] = dict(self.data)
        if self.ess is not None:
            out["ess"] = asdict(self.ess)
        if self.probe is not None:
            out["probe"] = dict(self.probe)
        if self.regression is not None:
            out["regression"] = dict(self.regression)
        return out


def _object(section, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")


def _reject_unknown(section: dict, allowed, where: str):
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key '{extra[0]}' in {where}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _as_number(value, key: str, where: str, integer=False):
    """``value`` if its JSON type is a number, an integer when ``integer``; the
    owner's check_bound converts it and rejects NaN and the infinities."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"key '{key}' in {where} must be {kind}, got {value!r}")
    return value


def _as_numbers(value, key: str, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"key '{key}' in {where} must be a list, got {value!r}")
    return [_as_number(v, key, where) for v in value]


def _as_string(value, key: str, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"key '{key}' in {where} must be a non-empty string, got {value!r}")
    return value


def _within(value, key: str, where: str, bound):
    """``value``, of the JSON type of ``bound``'s least value and within ``bound``,
    its owner's check_bound bound."""
    value = _as_number(value, key, where, integer=isinstance(bound[0], int))
    return check_bound(f"key '{key}' in {where}", value, bound, ConfigError)


def _bounded(section: dict, where: str, defaults: dict, bounds: dict) -> dict:
    """Each key of ``defaults``, from ``section`` or defaulted, within its bound."""
    return {key: _within(section.get(key, default), key, where, bounds[key])
            for key, default in defaults.items()}


def _owned(key: str, where: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, the check of key ``key`` by the code that
    consumes it; the error it raises becomes a ConfigError naming the key."""
    try:
        return check(*args, **kwargs)
    except (ValueError, ColdGPError) as exc:
        raise ConfigError(f"key '{key}' in {where}: {exc}") from None


def _parse_kernel(section) -> KernelSpec:
    where = "kernel"
    _object(section, where)
    family = _need(section, "family", where)
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"key 'family' in {where} must be one of {list(FAMILIES)}, "
                          f"got {family!r}")
    _reject_unknown(section, ("family", *FAMILIES[family]), where)
    # each key is a KernelSpec field, which gives its default, and has a bound
    defaults = {f.name: f.default for f in fields(KernelSpec) if f.name in FAMILIES[family]}
    return KernelSpec(family, **_bounded(section, where, defaults, KernelSpec.BOUNDS))


def _parse_data(section, experiment: str, kernel: KernelSpec | None) -> dict:
    where = "data"
    _object(section, where)
    if ("generator" in section) == ("source" in section):
        raise ConfigError(f"'{where}' needs exactly one of keys 'generator' or 'source'")
    if "generator" in section:
        kind = section["generator"]
        if kind == "rbf-regression" and experiment == "classify-sweep":
            raise ConfigError("key 'generator'='rbf-regression' in data is regression-only")
        if kind == "clusters" and experiment == "regress-sweep":
            raise ConfigError("key 'generator'='clusters' in data is classification-only")
        if not isinstance(kind, str) or kind not in GENERATORS:
            raise ConfigError(f"key 'generator' in {where} must be one of {list(GENERATORS)}, "
                              f"got {kind!r}")
        _reject_unknown(section, ("generator", *GENERATORS[kind]), where)
        params = _bounded(section, where, GENERATORS[kind], DATA_BOUNDS)
        # the generator's own check, for its rules that join keys
        if kind == "clusters":
            _owned("class_count", where, _check_clusters, **params)
        elif kernel is None:
            raise ConfigError("data generator 'rbf-regression' requires a 'kernel' section")
        else:
            _owned("generator", where, _check_rbf_regression, **params, kernel=kernel)
        return {"generator": kind, **params}
    kind = section["source"]
    if experiment == "gen-data":
        raise ConfigError("key 'source' in data: gen-data requires a generator")
    if kind == "cifar10":
        if experiment == "regress-sweep":
            raise ConfigError("key 'source'='cifar10' in data is classification-only")
        _reject_unknown(section, ("source", "dir", "classes", "n_train", "n_test", "normalize"), where)
        classes = section.get("classes")
        if classes is not None:
            if not isinstance(classes, list):
                raise ConfigError(f"key 'classes' in {where} must be a list or null")
            classes = _owned("classes", where, _normalize_keep,
                             [_as_number(c, "classes", where, integer=True) for c in classes])
        out = {"source": "cifar10", "dir": _as_string(_need(section, "dir", where), "dir", where),
               "classes": classes,
               **_bounded(section, where, {"n_train": CIFAR_N_TRAIN, "n_test": CIFAR_N_TEST},
                          DATA_BOUNDS),
               "normalize": section.get("normalize", "global-standardize")}
    elif kind == "file":
        _reject_unknown(section, ("source", "train_path", "test_path", "class_count", "normalize"), where)
        out = {"source": "file",
               **{key: _as_string(_need(section, key, where), key, where)
                  for key in ("train_path", "test_path")},
               "normalize": section.get("normalize", "none")}
        if "class_count" in section:
            if experiment == "regress-sweep":
                raise ConfigError("key 'class_count' in data is classification-only")
            out["class_count"] = _within(section["class_count"], "class_count", where,
                                         DATA_BOUNDS["class_count"])
    else:
        raise ConfigError(f"key 'source' in {where} must be one of {list(SOURCES)}, got {kind!r}")
    if out["normalize"] not in NORMALIZE_SCHEMES:
        raise ConfigError(
            f"key 'normalize' in {where} must be one of {list(NORMALIZE_SCHEMES)}, got {out['normalize']!r}")
    return out


def _parse_ess(section) -> EssConfig:
    """The ``ess`` section: each EssConfig field, its default and its bound."""
    where = "ess"
    _object(section, where)
    defaults = {f.name: f.default for f in fields(EssConfig)}
    _reject_unknown(section, defaults, where)
    return EssConfig(**_bounded(section, where, defaults, EssConfig.BOUNDS))


def _parse_probe(section) -> dict:
    where = "probe"
    _object(section, where)
    defaults = {"quadrature_tolerance": QUADRATURE_TOLERANCE,
                "integration_half_width_sigmas": HALF_WIDTH_SIGMAS}
    _reject_unknown(section, ("latent_scales", "temperatures", *defaults), where)
    scales = _as_numbers(_need(section, "latent_scales", where), "latent_scales", where)
    if not scales:  # the harness writes one curve per scale
        raise ConfigError(f"key 'latent_scales' in {where} must be a non-empty list")
    temperatures = _as_numbers(_need(section, "temperatures", where), "temperatures", where)
    return {"latent_scales": [_owned("latent_scales", where, _check_scale, c) for c in scales],
            "temperatures": _owned("temperatures", where, check_temperatures, temperatures),
            **_bounded(section, where, defaults, PROBE_BOUNDS)}


def _parse_regression(section) -> dict:
    where = "regression"
    _object(section, where)
    _reject_unknown(section, ("assumed_noise_std", "n_seeds"), where)
    assumed = section.get("assumed_noise_std", [0.1])
    if isinstance(assumed, (int, float)) and not isinstance(assumed, bool):
        assumed = [assumed]
    return {"assumed_noise_std": _owned("assumed_noise_std", where, _check_noise_stds,
                                        _as_numbers(assumed, "assumed_noise_std", where)),
            **_bounded(section, where, {"n_seeds": 1}, {"n_seeds": (1, False)})}


_SECTIONS = ("kernel", "temperatures", "data", "ess", "probe", "regression")
_TOP_KEYS = ("experiment", "seed", "output_dir", *_SECTIONS)

# Sections each experiment consumes; anything else present is rejected.
_APPLICABLE = {
    "regress-sweep": ("kernel", "temperatures", "data", "regression"),
    "classify-sweep": ("kernel", "temperatures", "data", "ess"),
    "probe": ("probe",),
    "gen-data": ("kernel", "data"),
}
_REQUIRED = {
    "regress-sweep": ("kernel", "temperatures", "data"),
    "classify-sweep": ("kernel", "temperatures", "data"),
    "probe": ("probe",),
    "gen-data": ("data",),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig with defaults filled."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "top-level config")
    experiment = _need(raw, "experiment", "top-level config")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"key 'experiment' must be one of {list(EXPERIMENTS)}, got {experiment!r}")
    applicable = _APPLICABLE[experiment]
    for key in _SECTIONS:
        if key in raw and key not in applicable:
            raise ConfigError(f"key '{key}' does not apply to experiment '{experiment}'")
    for key in _REQUIRED[experiment]:
        if key not in raw:
            raise ConfigError(f"experiment '{experiment}' requires key '{key}'")

    where = "top-level config"
    seed = _owned("seed", where, _check_seed,
                  _as_number(raw.get("seed", 0), "seed", where, integer=True))
    output_dir = _as_string(raw.get("output_dir", f"runs/{experiment}"), "output_dir", where)

    kernel = _parse_kernel(raw["kernel"]) if "kernel" in raw else None
    temperatures = (tuple(_owned("temperatures", where, check_temperatures,
                                 _as_numbers(raw["temperatures"], "temperatures", where)))
                    if "temperatures" in raw else None)
    data = _parse_data(raw["data"], experiment, kernel) if "data" in raw else None
    ess = _parse_ess(raw.get("ess", {})) if experiment == "classify-sweep" else None
    probe = _parse_probe(raw["probe"]) if "probe" in raw else None
    regression = _parse_regression(raw.get("regression", {})) if experiment == "regress-sweep" else None
    if (experiment == "regress-sweep" and data is not None and data.get("source") == "file"
            and regression["n_seeds"] > 1):
        raise ConfigError("key 'n_seeds' in regression must be 1 when data comes from files")
    return ExperimentConfig(experiment=experiment, seed=seed, output_dir=output_dir,
                            kernel=kernel, temperatures=temperatures, data=data, ess=ess,
                            probe=probe, regression=regression)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate one JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8, so undecodable bytes are invalid JSON too
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:
        # valid JSON past the parser's limits: arrays or objects nested past
        # the recursion limit, or an integer literal of more than 4300 digits
        raise ConfigError(f"config file {path} cannot be parsed: {exc}")
    return parse_config(raw)


def apply_overrides(config: ExperimentConfig, seed: int | None = None,
                    output_dir: str | None = None) -> ExperimentConfig:
    """Fold command-line overrides into the resolved config."""
    if seed is not None:
        try:
            _check_seed(seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
        config = replace(config, seed=seed)
    if output_dir is not None:
        if not output_dir:
            raise ConfigError("--out must be a non-empty path")
        config = replace(config, output_dir=output_dir)
    return config
