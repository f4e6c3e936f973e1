"""Experiment configuration: strict JSON parsing with resolved-default echo.

One JSON document describes one run.  Parsing is strict in both directions:
keys that are unknown anywhere, and keys that do not apply to the requested
experiment, fail with a ConfigError naming the offender before any
computation starts.  The fully resolved configuration (defaults filled in,
command-line overrides applied) is what gets echoed next to the results, and
it parses back to an identical run.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .aleatoric import MIN_HALF_WIDTH_SIGMAS
from .classification import EssConfig
from .exceptions import ConfigError
from .kernels import FAMILIES, KernelSpec
from .rng import _MAX_SEED

EXPERIMENTS = ("regress-sweep", "classify-sweep", "probe", "gen-data")
GENERATORS = ("rbf-regression", "clusters")
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
            out["kernel"] = _kernel_to_dict(self.kernel)
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


def _kernel_to_dict(spec: KernelSpec) -> dict:
    if spec.family == "rbf":
        return {"family": "rbf", "lengthscale": spec.rbf_lengthscale,
                "variance": spec.rbf_variance, "scale": spec.scale}
    return {"family": "nngp", "depth": spec.depth, "sigma_w2": spec.sigma_w2,
            "sigma_b2": spec.sigma_b2, "scale": spec.scale}


def _reject_unknown(section: dict, allowed, where: str):
    extra = sorted(set(section) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key '{extra[0]}' in {where}")


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return section[key]


def _as_number(value, key: str, where: str, positive=False, nonneg=False,
               squared=False) -> float:
    """``value`` as a finite float; ``squared`` also requires a finite square,
    for the values the computation squares in Python floats (which raise
    OverflowError instead of giving inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' in {where} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal past the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"key '{key}' in {where} must be finite, got {value!r}")
    if squared and not math.isfinite(v * v):
        raise ConfigError(f"key '{key}' in {where} is squared, so its square must be "
                          f"finite, got {value!r}")
    if positive and not v > 0.0:
        raise ConfigError(f"key '{key}' in {where} must be positive, got {value!r}")
    if nonneg and v < 0.0:
        raise ConfigError(f"key '{key}' in {where} must be >= 0, got {value!r}")
    return v


def _as_int(value, key: str, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"key '{key}' in {where} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"key '{key}' in {where} must be >= {minimum}, got {value!r}")
    return value


def _as_positive_list(value, key: str, where: str, squared=False) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' in {where} must be a non-empty list")
    return tuple(_as_number(v, key, where, positive=True, squared=squared) for v in value)


def _parse_kernel(section) -> KernelSpec:
    where = "kernel"
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    family = _need(section, "family", where)
    # each key is a KernelSpec field, less its rbf_ prefix, and takes its default
    values = {f.name.removeprefix("rbf_"): f.default for f in fields(KernelSpec)} | section
    if family == "rbf":
        _reject_unknown(section, ("family", "lengthscale", "variance", "scale"), where)
        lengthscale = _as_number(values["lengthscale"], "lengthscale", where,
                                 positive=True, squared=True)
        if lengthscale * lengthscale == 0.0:  # the Gram divides by the square
            raise ConfigError(f"key 'lengthscale' in {where} is squared, so its square must be "
                              f"positive, got {section['lengthscale']!r}")
        return KernelSpec.rbf(
            lengthscale=lengthscale,
            variance=_as_number(values["variance"], "variance", where, positive=True),
            scale=_as_number(values["scale"], "scale", where, positive=True),
        )
    if family == "nngp":
        _reject_unknown(section, ("family", "depth", "sigma_w2", "sigma_b2", "scale"), where)
        return KernelSpec.nngp(
            depth=_as_int(values["depth"], "depth", where, minimum=1),
            sigma_w2=_as_number(values["sigma_w2"], "sigma_w2", where, positive=True),
            sigma_b2=_as_number(values["sigma_b2"], "sigma_b2", where, nonneg=True),
            scale=_as_number(values["scale"], "scale", where, positive=True),
        )
    raise ConfigError(f"key 'family' in {where} must be one of {list(FAMILIES)}, got {family!r}")


def _parse_data(section, experiment: str) -> dict:
    where = "data"
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    if ("generator" in section) == ("source" in section):
        raise ConfigError(f"'{where}' needs exactly one of keys 'generator' or 'source'")
    if "generator" in section:
        kind = section["generator"]
        if kind == "rbf-regression":
            if experiment == "classify-sweep":
                raise ConfigError("key 'generator'='rbf-regression' in data is regression-only")
            _reject_unknown(section, ("generator", "n_train", "n_test", "noise_std"), where)
            return {
                "generator": "rbf-regression",
                "n_train": _as_int(section.get("n_train", 100), "n_train", where, minimum=1),
                "n_test": _as_int(section.get("n_test", 100), "n_test", where, minimum=1),
                "noise_std": _as_number(section.get("noise_std", 0.1), "noise_std", where, nonneg=True),
            }
        if kind == "clusters":
            if experiment == "regress-sweep":
                raise ConfigError("key 'generator'='clusters' in data is classification-only")
            _reject_unknown(section, ("generator", "n_per_class", "class_count", "dim", "separation"), where)
            out = {
                "generator": "clusters",
                "n_per_class": _as_int(section.get("n_per_class", 100), "n_per_class", where, minimum=1),
                "class_count": _as_int(section.get("class_count", 2), "class_count", where, minimum=2),
                "dim": _as_int(section.get("dim", 8), "dim", where, minimum=1),
                "separation": _as_number(section.get("separation", 2.0), "separation", where, positive=True),
            }
            if out["class_count"] > 2 * out["dim"]:
                raise ConfigError(f"key 'class_count' in {where} must be <= 2 * dim, the number "
                                  f"of distinct centers, got {out['class_count']}")
            return out
        raise ConfigError(f"key 'generator' in {where} must be one of {list(GENERATORS)}, got {kind!r}")
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
            classes = [_as_int(c, "classes", where, minimum=0) for c in classes]
            if len(classes) < 2 or len(set(classes)) != len(classes) or max(classes) > 9:
                raise ConfigError(f"key 'classes' in {where} must list at least 2 distinct "
                                  f"CIFAR-10 classes in [0, 9], got {classes!r}")
        out = {
            "source": "cifar10",
            "dir": str(_need(section, "dir", where)),
            "classes": classes,
            "n_train": _as_int(section.get("n_train", 2000), "n_train", where, minimum=1),
            "n_test": _as_int(section.get("n_test", 1000), "n_test", where, minimum=1),
            "normalize": section.get("normalize", "global-standardize"),
        }
    elif kind == "file":
        _reject_unknown(section, ("source", "train_path", "test_path", "class_count", "normalize"), where)
        out = {
            "source": "file",
            "train_path": str(_need(section, "train_path", where)),
            "test_path": str(_need(section, "test_path", where)),
            "normalize": section.get("normalize", "none"),
        }
        if "class_count" in section:
            if experiment == "regress-sweep":
                raise ConfigError("key 'class_count' in data is classification-only")
            out["class_count"] = _as_int(section["class_count"], "class_count", where, minimum=2)
    else:
        raise ConfigError(f"key 'source' in {where} must be one of {list(SOURCES)}, got {kind!r}")
    if out["normalize"] not in NORMALIZE_SCHEMES:
        raise ConfigError(
            f"key 'normalize' in {where} must be one of {list(NORMALIZE_SCHEMES)}, got {out['normalize']!r}")
    return out


def _parse_ess(section) -> EssConfig:
    """The ``ess`` section: one integer key per EssConfig field, defaulting to
    that field's default and bounded below by its minimum."""
    where = "ess"
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    defaults = {f.name: f.default for f in fields(EssConfig)}
    _reject_unknown(section, defaults, where)
    return EssConfig(**{key: _as_int(section.get(key, default), key, where,
                                     minimum=EssConfig.MINIMUMS[key])
                        for key, default in defaults.items()})


def _parse_probe(section) -> dict:
    where = "probe"
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    _reject_unknown(section, ("latent_scales", "temperatures", "quadrature_tolerance",
                              "integration_half_width_sigmas"), where)
    out = {
        "latent_scales": list(_as_positive_list(_need(section, "latent_scales", where),
                                                "latent_scales", where)),
        "temperatures": list(_as_positive_list(_need(section, "temperatures", where),
                                               "temperatures", where)),
        "quadrature_tolerance": _as_number(section.get("quadrature_tolerance", 1e-8),
                                           "quadrature_tolerance", where, positive=True),
        "integration_half_width_sigmas": _as_number(
            section.get("integration_half_width_sigmas", 40.0),
            "integration_half_width_sigmas", where),
    }
    if out["integration_half_width_sigmas"] < MIN_HALF_WIDTH_SIGMAS:
        raise ConfigError(f"key 'integration_half_width_sigmas' in {where} must be "
                          f">= {MIN_HALF_WIDTH_SIGMAS:g}, "
                          f"got {out['integration_half_width_sigmas']!r}")
    return out


def _parse_regression(section) -> dict:
    where = "regression"
    if not isinstance(section, dict):
        raise ConfigError(f"'{where}' must be an object")
    _reject_unknown(section, ("assumed_noise_std", "n_seeds"), where)
    assumed = section.get("assumed_noise_std", [0.1])
    if isinstance(assumed, (int, float)) and not isinstance(assumed, bool):
        assumed = [assumed]
    return {
        "assumed_noise_std": list(_as_positive_list(assumed, "assumed_noise_std", where,
                                                    squared=True)),
        "n_seeds": _as_int(section.get("n_seeds", 1), "n_seeds", where, minimum=1),
    }


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

    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"key 'seed' must be an integer, got {seed!r}")
    if not (0 <= seed < _MAX_SEED):
        raise ConfigError(f"key 'seed' must be in [0, 2**64), got {seed!r}")
    output_dir = raw.get("output_dir", f"runs/{experiment}")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("key 'output_dir' must be a non-empty string")

    kernel = _parse_kernel(raw["kernel"]) if "kernel" in raw else None
    temperatures = (_as_positive_list(raw["temperatures"], "temperatures", "top-level config")
                    if "temperatures" in raw else None)
    data = _parse_data(raw["data"], experiment) if "data" in raw else None
    ess = _parse_ess(raw.get("ess", {})) if experiment == "classify-sweep" else None
    probe = _parse_probe(raw["probe"]) if "probe" in raw else None
    regression = _parse_regression(raw.get("regression", {})) if experiment == "regress-sweep" else None
    if experiment in ("regress-sweep", "gen-data") and data is not None:
        if data.get("generator") == "rbf-regression" and kernel is None:
            raise ConfigError("data generator 'rbf-regression' requires a 'kernel' section")
        if data.get("generator") == "rbf-regression" and kernel.family != "rbf":
            raise ConfigError("data generator 'rbf-regression' requires an rbf kernel")
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
        if not (0 <= seed < _MAX_SEED):
            raise ConfigError(f"--seed must be in [0, 2**64), got {seed!r}")
        config = replace(config, seed=seed)
    if output_dir is not None:
        if not output_dir:
            raise ConfigError("--out must be a non-empty path")
        config = replace(config, output_dir=output_dir)
    return config
