"""Exception vocabulary shared across the package.

Every error raised deliberately by coldgp derives from ColdGPError, so callers
can catch one base class at the boundary (the CLI maps them to exit codes).
"""
import math

import numpy as np


class ColdGPError(Exception):
    """Base class for all coldgp errors."""


class DimensionMismatchError(ColdGPError):
    """Array shapes are incompatible with the operation."""


class LengthMismatchError(DimensionMismatchError):
    """Paired sequences (predictions/targets, probs/labels) differ in length."""


class EmptyInputError(ColdGPError):
    """An operation that needs at least one element got none."""


class NonFiniteInputError(ColdGPError):
    """NaN or infinity where finite values are required."""


class NotSymmetricError(ColdGPError):
    """Matrix fails the symmetry check for an SPD factorization."""


class NotPositiveDefiniteError(ColdGPError):
    """Cholesky failed at every rung of the jitter ladder."""


class NonPositiveScaleError(ColdGPError):
    """Kernel scale factors must be strictly positive."""


class NonPositiveTemperatureError(ColdGPError):
    """Temperatures must be strictly positive."""


class ZeroVarianceError(ColdGPError):
    """A variance that must be strictly positive is zero (or negative)."""


class LabelOutOfRangeError(ColdGPError):
    """A class label lies outside [0, class_count)."""


class NonFiniteLikelihoodError(ColdGPError):
    """A log-likelihood evaluation produced NaN."""


class IndexOutOfRangeError(ColdGPError, IndexError):
    """An index into a dataset or a set of latent samples is out of bounds."""


class QuadratureNotConvergedError(ColdGPError):
    """Refinement exhausted without meeting the requested tolerance."""


class MalformedRecordError(ColdGPError):
    """A data file violates its documented layout or encoding."""


class SchemaMismatchError(ColdGPError):
    """A results file does not match the schema expected for the figure."""


class ConfigError(ColdGPError):
    """Experiment config is malformed: unknown/missing keys or bad values."""


def check_temperatures(grid) -> list:
    """``grid`` as a list of floats; raises NonPositiveTemperatureError at the
    first t outside 0 < t < inf, and EmptyInputError if the grid is empty."""
    temps = []
    for t in map(float, grid):
        if not 0.0 < t < float("inf"):  # also false for NaN
            raise NonPositiveTemperatureError(f"temperature must be positive and finite, got {t!r}")
        temps.append(t)
    if not temps:
        raise EmptyInputError("temperature grid is empty")
    return temps


def check_array_size(what: str, shape) -> None:
    """Raise ColdGPError if a float64 array of ``shape`` is past numpy's limit.

    numpy refuses an array whose byte count exceeds the largest ``intp``
    with a bare ValueError; checking first turns a size that a config asks
    for into one error that names ``what`` (the config keys behind the
    axes) and the shape, before anything of that size is built.
    """
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ColdGPError(f"{what}: {' x '.join(str(s) for s in shape)} float64 values "
                          f"exceed the largest array numpy can allocate")


def check_labels(labels, n: int, class_count: int) -> np.ndarray:
    """``labels`` as an array, checked to hold n integer labels in [0, class_count).

    Raises LengthMismatchError unless the array is 1-D of length n, and
    LabelOutOfRangeError for a non-integer dtype or a label outside the range.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise LengthMismatchError(f"labels shape {labels.shape} vs {n} rows")
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelOutOfRangeError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise LabelOutOfRangeError(f"labels outside [0, {class_count})")
    return labels


__all__ = [
    "ColdGPError",
    "DimensionMismatchError",
    "LengthMismatchError",
    "EmptyInputError",
    "NonFiniteInputError",
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "NonPositiveScaleError",
    "NonPositiveTemperatureError",
    "ZeroVarianceError",
    "LabelOutOfRangeError",
    "NonFiniteLikelihoodError",
    "IndexOutOfRangeError",
    "QuadratureNotConvergedError",
    "MalformedRecordError",
    "SchemaMismatchError",
    "ConfigError",
]
