"""Relabel-disagreement probe for label noise under tempered posteriors.

Two-class setup with one training point, observed label fixed, and latent
difference d = f_obs - f_other.  Under a tempered softmax likelihood and a
centered Gaussian prior on the two latents with per-class variance c * t,
the difference has prior N(0, 2 c t) and tempered-posterior density
proportional to sigmoid(d)^(1/t) * N(d; 0, 2 c t).  The probe value is the
posterior probability that an independent relabel of the point disagrees
with the observed label:

    p(c, t) = E[ sigmoid(-d) ]  under that posterior.

Both the numerator and the normalizer are one-dimensional integrals,
evaluated with composite Simpson quadrature in log space, with panel
doubling until the value stabilizes.  The window is centred at the mode d*
of the tempered posterior, the minimizer of softplus(-d) + d^2 / (4 c),
which does not depend on t, and reaches 40 prior standard deviations
sqrt(2 c t) either side of it.  The curvature of that objective is at least
1 / (2 c), so the posterior's Laplace standard deviation never exceeds
sqrt(2 c t) and the window covers the posterior at every t; a window
centred at 0 instead misses it once sqrt(2 c t) is small next to d*.

This module uses no scipy, so a probe run loads only the scipy that
``import coldgp`` does.  :func:`_posterior_mode` finds d* by bisection on
the monotone gradient, to adjacent floats, and the logistic sigmoid is the
scalar :func:`_sigmoid` rather than ``scipy.special.expit``, whose bits it
reproduces.
"""
from __future__ import annotations

import math

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    IndexOutOfRangeError,
    NonPositiveScaleError,
    QuadratureNotConvergedError,
    check_labels,
    check_temperature,
)
from .linalg import log_sum_exp

_INITIAL_PANELS = 256
_MAX_PANELS = 2 ** 20


def _simpson_log_weights(n_points: int):
    # weights 1, 4, 2, 4, ..., 2, 4, 1 (n_points odd)
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.log(w)


def _sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)) for a float x, bitwise equal to scipy.special.expit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) beyond the float range: the sigmoid rounds to 0
        return 0.0


def _posterior_mode(c: float) -> float:
    """d*, the minimizer of softplus(-d) + d^2 / (4 c), for a checked c > 0.

    Bisection on the gradient d / (2c) - sigmoid(-d), which increases in d,
    down to adjacent floats: it stops when the midpoint equals an endpoint.
    """
    def grad(d):
        # 0.5 * d / c rounds as d / (2c) does but stays finite for c near the
        # float maximum, where 2c overflows
        return 0.5 * d / c - _sigmoid(-d)

    # grad(0) = -1/2 < 0 and grad(hi) > 0: for c <= 1, hi > 2c puts d / (2c)
    # above 1; for c > 1, hi > log(2c) + 1 puts it above exp(-d) > sigmoid(-d).
    # Unlike 2c + 1, this bound stays finite for every finite c
    lo, hi = 0.0, 1.0 + (2.0 * c if c <= 1.0 else 2.0 + math.log(c))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if grad(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def _probe_value(c: float, t: float, half_width_sigmas: float, panels: int,
                 centre: float) -> float:
    half = half_width_sigmas * np.sqrt(2.0 * c * t)
    d = np.linspace(centre - half, centre + half, 2 * panels + 1)
    # log sigmoid(d) = -log(1 + exp(-d)); the Gaussian normalizer cancels.
    log_post = -np.logaddexp(0.0, -d) / t - d * d / (4.0 * c * t)
    log_w = _simpson_log_weights(d.size)
    log_den = log_sum_exp(log_post + log_w)
    log_num = log_sum_exp(log_post - np.logaddexp(0.0, d) + log_w)
    return float(np.exp(log_num - log_den))


def _check_scale(latent_scale) -> float:
    c = float(latent_scale)
    if not (np.isfinite(c) and c > 0.0):
        raise NonPositiveScaleError(f"latent_scale must be positive, got {c!r}")
    return c


def _check_quadrature(quadrature_tolerance, integration_half_width_sigmas):
    tol, width = float(quadrature_tolerance), float(integration_half_width_sigmas)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("quadrature_tolerance must be positive")
    if not (np.isfinite(width) and width > 0.0):
        raise ValueError("integration_half_width_sigmas must be positive")
    return tol, width


def _quadrature(c: float, t: float, tol: float, width: float, centre: float) -> float:
    """Panel doubling on checked arguments, with the window centred at ``centre``."""
    panels = _INITIAL_PANELS
    prev = _probe_value(c, t, width, panels, centre)
    while panels <= _MAX_PANELS:
        panels *= 2
        cur = _probe_value(c, t, width, panels, centre)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureNotConvergedError(
        f"no convergence to {tol!r} within {_MAX_PANELS} panels "
        f"(latent_scale={c!r}, temperature={t!r})")


def relabel_prob_quadrature(latent_scale: float, temperature: float,
                            quadrature_tolerance: float = 1e-8,
                            integration_half_width_sigmas: float = 40.0) -> float:
    """Disagreement probability p(latent_scale, temperature) by quadrature.

    The window is centred at the posterior mode d*, found here.  Panel count
    doubles until successive values agree to the relative tolerance; raises
    QuadratureNotConvergedError if the panel budget runs out first.
    """
    c = _check_scale(latent_scale)
    t = check_temperature(temperature)
    tol, width = _check_quadrature(quadrature_tolerance, integration_half_width_sigmas)
    return _quadrature(c, t, tol, width, _posterior_mode(c))


def relabel_prob_zero_temperature(latent_scale: float) -> float:
    """Limit of the probe as temperature goes to zero.

    The tempered posterior concentrates at the minimizer d* of
    softplus(-d) + d^2 / (4 c); the limit is sigmoid(-d*).
    """
    return _sigmoid(-_posterior_mode(_check_scale(latent_scale)))


def relabel_ratio_curve(latent_scale: float, temperatures,
                        quadrature_tolerance: float = 1e-8,
                        integration_half_width_sigmas: float = 40.0):
    """Probe values across a temperature grid, normalized by the t = 1 value.

    Returns (probability, ratio): two float64 arrays with one entry per grid
    position, in grid order, where ratio is probability / probability at
    t = 1.  The t = 1 reference is computed once, so a grid containing 1.0
    reports ratio exactly 1.0 there.  The posterior mode that centres every
    window is found once for the curve.
    """
    temps = [check_temperature(t) for t in temperatures]
    if not temps:
        raise EmptyInputError("temperature grid is empty")
    c = _check_scale(latent_scale)
    tol, width = _check_quadrature(quadrature_tolerance, integration_half_width_sigmas)
    centre = _posterior_mode(c)
    base = _quadrature(c, 1.0, tol, width, centre)
    probability = np.array([base if t == 1.0 else _quadrature(c, t, tol, width, centre)
                            for t in temps])
    return probability, probability / base


def relabel_disagreement_mc(latent_samples, labels, index: int) -> float:
    """Monte Carlo counterpart of the probe on posterior latent samples.

    Averages, over sampled latent matrices, the softmax probability that a
    fresh relabel of training point ``index`` differs from its observed
    label.  ``latent_samples`` is any (..., n, class_count) array, such as
    the sampler's (temperatures, chains, samples, n, class_count) array or
    one temperature's slice of it, or a list of (n, class_count) matrices;
    every leading axis indexes samples.
    """
    f = np.asarray(latent_samples, dtype=np.float64)
    if f.size == 0:
        raise EmptyInputError("no latent samples")
    if f.ndim < 2:
        raise DimensionMismatchError(f"latent samples must be (..., n, class_count), got {f.shape}")
    n, c = f.shape[-2:]
    labels = check_labels(labels, n, c)
    if not (0 <= index < n):
        raise IndexOutOfRangeError(f"index {index} outside [0, {n})")
    rows = f.reshape(-1, n, c)[:, index]
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return float(np.mean(1.0 - e[:, labels[index]] / e.sum(axis=1)))
