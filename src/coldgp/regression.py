"""Exact Gaussian process regression with posterior tempering.

The predictive at a test point x* is Gaussian with

    mean     = k*^T (K + sigma_eps^2 I)^{-1} y
    variance = k** - k*^T (K + sigma_eps^2 I)^{-1} k* + sigma_eps^2

and tempering at temperature T leaves the mean alone while multiplying the
variance by T.  With L the Cholesky factor of K + sigma_eps^2 I, the
conditioning keeps beta = L^{-1} y, and prediction solves v = L^{-1} k* once
for both moments: mean = v^T beta and variance = k** - v^T v + sigma_eps^2.
Prediction returns the means and variances of all test points as two
arrays, so the temperature sweep conditions once per model and each grid
point costs one scalar multiply of the variance array.

:func:`conditional` is the package's one Gaussian conditional: regression
prediction reads it with the factor of the noisy Gram, and the
classification sweep with that of K(X, X).

Both triangular solves are :func:`coldgp.linalg.tril_solve`, LAPACK
``dtrtrs`` on the one BLAS build that also factors, so this module loads no
scipy (an rbf kernel's Gram loads ``scipy.spatial`` for ``cdist``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .exceptions import ZeroVarianceError, check_temperatures
from .kernels import KernelSpec, gram, gram_diag
from .linalg import SpdFactor, cholesky, tril_solve


@dataclass(frozen=True)
class RegressionModel:
    """Kernel plus observation noise standard deviation."""

    kernel: KernelSpec
    noise_std: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not np.isfinite(self.noise_std * self.noise_std):
            # conditioning squares it in Python floats, which raise OverflowError
            raise ValueError(f"noise_std is squared, so its square must be finite, "
                             f"got {self.noise_std!r}")


class ConditionedRegression:
    """A regression model conditioned on a training set.

    Holds the noisy Gram matrix, factored in its own buffer, and the
    whitened targets ``beta`` = L^{-1} y, so repeated prediction (and the
    temperature sweep) pay for one Cholesky and one solve only.  beta . beta
    is the data-fit term y^T (K + sigma_eps^2 I)^{-1} y of the marginal
    likelihood.
    """

    def __init__(self, model: RegressionModel, train: LabeledDataset):
        if train.is_classification:
            raise ValueError("regression requires real-valued targets")
        noisy = gram(model.kernel, train.inputs, train.inputs)
        noisy.flat[:: train.n + 1] += model.noise_std**2
        self.model = model
        self.train = train
        self.factor: SpdFactor = cholesky(noisy)
        self.beta = tril_solve(self.factor.lower, train.targets)

    def predict(self, test_inputs):
        """Predictive (mean, variance) arrays, one entry per test input."""
        v, schur = conditional(self.model.kernel, self.train.inputs, test_inputs, self.factor)
        return v.T @ self.beta, schur + self.model.noise_std**2


def conditional(kernel: KernelSpec, train_inputs, test_inputs, factor: SpdFactor):
    """Temperature-free pieces of the Gaussian conditional at ``test_inputs``.

    Returns (v, schur): v = L^{-1} K(X, X*) of shape (n, p), with L the
    Cholesky factor ``factor.lower`` of the training covariance, and
    k** - v^T v clipped at zero (FP cancellation can leave it slightly
    negative).  The one triangular solve runs in place in the buffer of
    K(X*, X), whose transpose is F-ordered, so ``v`` is the one n x p array.
    """
    ks = gram(kernel, test_inputs, train_inputs)  # (p, n)
    v = tril_solve(factor.lower, ks.T, overwrite_b=True)
    schur = gram_diag(kernel, test_inputs) - np.einsum("ij,ij->j", v, v)
    np.clip(schur, 0.0, None, out=schur)
    return v, schur


def _mean_gaussian_nll(mean, variance, targets):
    """Gaussian negative log likelihood averaged over the last axis.

    ``variance`` may carry leading axes, such as one row per temperature.
    """
    if np.any(variance <= 0.0):
        raise ZeroVarianceError("test NLL undefined for non-positive predictive variance")
    nll = 0.5 * (np.log(2.0 * np.pi * variance) + (targets - mean) ** 2 / variance)
    return np.mean(nll, axis=-1)


def regression_temperature_sweep(model: RegressionModel, train: LabeledDataset,
                                 test: LabeledDataset, temperatures):
    """Tempered test NLL across a temperature grid: (test_nll, jitter_used).

    ``test_nll`` is a float64 array with one entry per grid position, in grid
    order; ``jitter_used`` is the jitter of the factor.  The posterior is
    conditioned once; the grid multiplies the predictive variance array by
    each temperature in one (temperatures, test points) array.
    """
    temps = check_temperatures(temperatures)
    fit = ConditionedRegression(model, train)
    mean, variance = fit.predict(test.inputs)
    tempered = variance * np.array(temps)[:, None]
    return _mean_gaussian_nll(mean, tempered, test.targets), fit.factor.jitter_used
