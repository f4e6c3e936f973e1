"""Exact Gaussian process regression with posterior tempering.

The predictive at a test point x* is Gaussian with

    mean     = k*^T (K + sigma_eps^2 I)^{-1} y
    variance = k** - k*^T (K + sigma_eps^2 I)^{-1} k* + sigma_eps^2

and tempering at temperature T leaves the mean alone while multiplying the
variance by T.  With L the Cholesky factor of K + sigma_eps^2 I,
:func:`condition` keeps beta = L^{-1} y, and solves v = L^{-1} k* once for
both moments: mean = v^T beta and variance = k** - v^T v + sigma_eps^2.

Only the sigma_eps^2 I term differs between the assumed noise levels of one
dataset, so :func:`regression_temperature_sweep` builds K(X, X), K(X*, X)
and k** once per dataset and conditions once per noise level, on copies of
them.  Prediction returns the means and variances of all test points as two
arrays, and each grid point costs one scalar multiply of the variance array.

:func:`conditional` is the package's one Gaussian conditional: regression
prediction reads it with the factor of the noisy Gram, and the
classification sweep with that of K(X, X).

Both triangular solves are :func:`coldgp.linalg.tril_solve`, LAPACK
``dtrtrs`` on the one BLAS build that also factors, and the rbf Gram's
squared distances are numpy's, so a regression run loads no scipy.
"""
from __future__ import annotations

import numpy as np

from .data import LabeledDataset
from .exceptions import EmptyInputError, ZeroVarianceError, check_temperatures
from .kernels import KernelSpec, gram, gram_diag
from .linalg import SpdFactor, cholesky, tril_solve


def _check_noise_stds(noise_stds) -> list:
    """``noise_stds`` as a list of floats, each finite, >= 0 and with a finite
    square (conditioning squares it in Python floats, which raise OverflowError)."""
    out = []
    for s in map(float, noise_stds):
        if not (np.isfinite(s) and s >= 0.0):
            raise ValueError(f"noise_std must be finite and >= 0, got {s!r}")
        if not np.isfinite(s * s):
            raise ValueError(f"noise_std is squared, so its square must be finite, got {s!r}")
        out.append(s)
    if not out:
        raise EmptyInputError("no noise levels")
    return out


def conditional(factor: SpdFactor, cross, prior_diag):
    """Temperature-free pieces of the Gaussian conditional at the test points.

    ``cross`` is K(X*, X) of shape (p, n) and ``prior_diag`` the (p,) prior
    variances k**; ``factor.lower`` is the Cholesky factor L of the training
    covariance.  Returns (v, schur): v = L^{-1} K(X, X*) of shape (n, p), and
    k** - v^T v clipped at zero (FP cancellation can leave it slightly
    negative).  ``cross`` is handed over: the one triangular solve runs in
    its buffer when it is a writeable, C-ordered float64 array, whose
    transpose is F-ordered, so ``v`` is the one n x p array.  A caller that
    reads ``cross`` again passes a copy.
    """
    v = tril_solve(factor.lower, cross.T)
    schur = prior_diag - np.einsum("ij,ij->j", v, v)
    np.clip(schur, 0.0, None, out=schur)
    return v, schur


def condition(prior, cross, prior_diag, targets, noise_std: float):
    """Predictive (mean, variance, factor) at one assumed noise level.

    ``prior`` is K(X, X), ``cross`` K(X*, X), ``prior_diag`` k** and
    ``targets`` y; none is written, so every noise level of a dataset shares
    them.  The noise variance goes onto the diagonal of a copy of ``prior``,
    which becomes the Cholesky factor, and each triangular solve runs in a
    copy of its right-hand side: one factorization and two triangular
    solves, beta = L^{-1} y and v = L^{-1} K(X, X*).  beta . beta is the
    data-fit term y^T (K + sigma_eps^2 I)^{-1} y of the marginal likelihood.
    """
    noisy = prior.copy()
    noisy.flat[:: noisy.shape[0] + 1] += noise_std**2
    factor = cholesky(noisy)
    beta = tril_solve(factor.lower, targets.copy())
    v, schur = conditional(factor, cross.copy(), prior_diag)
    return v.T @ beta, schur + noise_std**2, factor


def _mean_gaussian_nll(mean, variance, targets):
    """Gaussian negative log likelihood averaged over the last axis.

    ``variance`` may carry leading axes, such as one row per temperature.
    """
    if np.any(variance <= 0.0):
        raise ZeroVarianceError("test NLL undefined for non-positive predictive variance")
    nll = 0.5 * (np.log(2.0 * np.pi * variance) + (targets - mean) ** 2 / variance)
    return np.mean(nll, axis=-1)


def regression_temperature_sweep(kernel: KernelSpec, noise_stds, train: LabeledDataset,
                                 test: LabeledDataset, temperatures):
    """Tempered test NLL of one dataset across noise levels and a temperature
    grid: (test_nll, jitters).

    ``test_nll`` is a float64 array of shape (len(noise_stds),
    len(temperatures)), rows in ``noise_stds`` order and columns in grid
    order; ``jitters`` lists the jitter of each noise level's factor.  The
    Grams K(X, X), K(X*, X) and k** are built once and shared by every
    noise level, each of which is conditioned once (:func:`condition`); the
    grid multiplies its predictive variance array by each temperature in one
    (temperatures, test points) array.
    """
    temps = np.array(check_temperatures(temperatures))[:, None]
    noise_stds = _check_noise_stds(noise_stds)
    if train.is_classification:
        raise ValueError("regression requires real-valued targets")
    prior = gram(kernel, train.inputs, train.inputs)
    cross = gram(kernel, test.inputs, train.inputs)
    prior_diag = gram_diag(kernel, test.inputs)
    test_nll = np.empty((len(noise_stds), len(temps)))
    jitters = []
    for i, noise_std in enumerate(noise_stds):
        mean, variance, factor = condition(prior, cross, prior_diag, train.targets, noise_std)
        test_nll[i] = _mean_gaussian_nll(mean, variance * temps, test.targets)
        jitters.append(factor.jitter_used)
    return test_nll, jitters
