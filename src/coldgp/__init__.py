"""coldgp: tempered Gaussian-process inference and experiment harness.

Exact GP regression with posterior tempering, latent GP classification via
elliptical slice sampling (including infinite-width network kernels), a
closed-form relabel-disagreement probe for aleatoric uncertainty, and a
deterministic CLI for running temperature-sweep experiments.

The CLI's names (``main``, ``run_experiment``, ``emit_plot_data``) resolve on
first access through the module ``__getattr__`` (PEP 562), so importing the
package does not import ``coldgp.cli``, and ``python -m coldgp.cli`` finds
that module not yet loaded.
"""
from .aleatoric import (
    relabel_disagreement_mc,
    relabel_prob_zero_temperature,
    relabel_ratio_curve,
)
from .classification import (
    EssConfig,
    classification_metrics,
    classification_temperature_sweep,
    ess_transition,
)
from .config import ExperimentConfig, apply_overrides, load_config, parse_config
from .data import (
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    LabeledDataset,
    gen_cluster_classification,
    gen_rbf_regression,
    load_cifar10,
    load_dataset,
    save_dataset,
    standardize,
)
from .exceptions import (
    ColdGPError,
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    IndexOutOfRangeError,
    LabelOutOfRangeError,
    LengthMismatchError,
    MalformedRecordError,
    NonFiniteInputError,
    NonFiniteLikelihoodError,
    NonPositiveScaleError,
    NonPositiveTemperatureError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    QuadratureNotConvergedError,
    SchemaMismatchError,
    ZeroVarianceError,
)
from .kernels import FAMILIES, KernelSpec, gram, gram_diag
from .linalg import JITTER_LADDER, SpdFactor, cholesky, log_sum_exp
from .records import best_temperature, read_csv, write_csv
from .regression import regression_temperature_sweep
from .rng import RngStream, derive_seed

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("emit_plot_data", "main", "run_experiment"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "relabel_disagreement_mc", "relabel_prob_zero_temperature", "relabel_ratio_curve",
    "EssConfig", "classification_metrics", "classification_temperature_sweep",
    "ess_transition",
    "emit_plot_data", "main", "run_experiment",
    "ExperimentConfig", "apply_overrides", "load_config", "parse_config",
    "CIFAR_TEST_FILE", "CIFAR_TRAIN_FILES",
    "LabeledDataset", "gen_cluster_classification", "gen_rbf_regression",
    "load_cifar10", "load_dataset", "save_dataset", "standardize",
    "ColdGPError", "ConfigError", "DimensionMismatchError", "EmptyInputError",
    "IndexOutOfRangeError", "LabelOutOfRangeError", "LengthMismatchError",
    "MalformedRecordError", "NonFiniteInputError", "NonFiniteLikelihoodError",
    "NonPositiveScaleError", "NonPositiveTemperatureError", "NotPositiveDefiniteError",
    "NotSymmetricError", "QuadratureNotConvergedError", "SchemaMismatchError",
    "ZeroVarianceError",
    "FAMILIES", "KernelSpec", "gram", "gram_diag",
    "JITTER_LADDER", "SpdFactor", "cholesky", "log_sum_exp",
    "best_temperature", "read_csv", "write_csv",
    "regression_temperature_sweep",
    "RngStream", "derive_seed",
    "__version__",
]
