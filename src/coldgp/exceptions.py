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
    """``grid`` as a list of floats, each checked by :func:`check_bound` to be
    finite and > 0 (NonPositiveTemperatureError); EmptyInputError if it is empty."""
    temps = [check_bound("temperature", t, (0.0, True), NonPositiveTemperatureError) for t in grid]
    if not temps:
        raise EmptyInputError("temperature grid is empty")
    return temps


def _shown(value) -> str:
    """``repr(value)``, or the bit length of an int too long for Python to
    print (past ``sys.get_int_max_str_digits()`` digits), so that an error
    message about it can always be formed."""
    try:
        return repr(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"


def check_bound(name: str, value, bound, error=ValueError):
    """``value``, in its bound's type, if it lies within ``bound``, else raises
    ``error`` naming ``name``.

    ``bound`` is (least, strict[, squared[, most]]).  An int ``least`` makes
    ``value`` a count: an int or an integral float (numpy's too), returned as
    an exact int.  A float ``least`` makes it ``float(value)``, infinite for
    an int past the float range.  A bool or a string is neither.  ``value``
    must be finite and above ``least`` if ``strict``, else at least ``least``,
    and at most ``most`` where one is given; a true ``squared`` puts the same
    bound on value * value, for a value squared in floats.
    """
    least, strict, squared, most = (*bound, *(False, math.inf)[len(bound) - 2:])
    count = isinstance(least, int)
    try:  # int() and float() read a bool or a string too, which is no number here
        number = (None if isinstance(value, (bool, np.bool_, str, bytes))
                  else int(value) if count else float(value))
    except OverflowError:  # float() of an int past the float range, or int() of inf
        number = None if count else math.inf
    except (TypeError, ValueError):
        number = None
    if number is None or (count and number != value):  # int() truncates a fraction
        raise error(f"{name} must be {'an integer' if count else 'a number'}, "
                    f"got {_shown(value)}")
    for i, v in enumerate((number, number * number) if squared else (number,)):
        # false for NaN
        if not ((least < v if strict else least <= v) and v < math.inf and v <= most):
            # a count is finite, however large, and its bounds are printed whole
            shown = str if count else "{:g}".format
            relation = (f"{'' if count else 'finite and '}{'>' if strict else '>='} {shown(least)}"
                        f"{f' and <= {shown(most)}' if most < math.inf else ''}")
            what = f"{name} is squared, so its square" if i else name
            raise error(f"{what} must be {relation}, got {_shown(value)}")
    return number


def check_array_size(what: str, shape) -> None:
    """Raise ColdGPError if a float64 array of ``shape`` is past numpy's limit.

    numpy refuses an array whose byte count exceeds the largest ``intp``
    with a bare ValueError; checking first turns a size that a config asks
    for into one error that names ``what`` (the config keys behind the
    axes) and the shape, before anything of that size is built.
    """
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ColdGPError(f"{what}: {' x '.join(map(_shown, shape))} float64 values "
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
