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
doubling until the value stabilizes at a node spacing of at most a quarter
of sqrt(2 c t).  The window is centred at the mode d* of the tempered
posterior, the minimizer of g(d) = softplus(-d) + d^2 / (4 c), which does
not depend on t, and reaches r prior standard deviations s = sqrt(2 c t)
either side of it.  A window centred at 0 instead misses the posterior once
s is small next to d*.

r is the smallest value of at least 8 at which the window provably drops at
most tol / 100 of either integral, and never more than the configured
``integration_half_width_sigmas`` (40 by default, at least 8).  The bound:
the log posterior is -g(d) / t, and g'' = sigmoid(d) sigmoid(-d) + 1 / (2c)
lies in [1 / (2c), 1/4 + 1 / (2c)], so in z = (d - d*) / s the log posterior
falls below its peak by between z^2 / 2 and k z^2 / 2, k = c / 2 + 1.  With
A the peak density:

- the normalizer is Z >= A s sqrt(2 pi / k), and the part of it at |z| > r
  is at most A s sqrt(2 pi) erfc(r / sqrt 2), a share sqrt(k) erfc(r / sqrt 2);
- sigmoid(-d) falls with d, so on z < 0 it is at least sigmoid(-d*), and the
  numerator is N >= sigmoid(-d*) A s sqrt(2 pi / k) / 2;
- sigmoid(-d) <= 1, so N's part at |z| > r is at most Z's;

so each integral loses a share of at most 2 sqrt(k) erfc(r / sqrt 2) /
sigmoid(-d*).  At tol = 1e-8, r is 8 for c <= 1000, 8.93 at c = 1e6 and
33.1 at c = 1e154, and the Simpson values of the bundled fig2 grids agree
with those of the uncapped width-40 window to 3e-14.  Where the right side
sigmoid(-d*) tol / 100 / (2 sqrt(k)) is not a normal float (c beyond about
1e199 at tol = 1e-8), r is the configured width.  The posterior is
log-concave, but the "at least 1/e of the mass either side" bound holds
about its mean, not its mode d*, so the left-of-mode mass above comes from
the curvature bound instead.  Capping the window keeps the node spacing at
which refinement may end at a bounded panel count, so a configured width of
1e300 gives the width-40 values.

:func:`relabel_ratio_curve` is the one entry point for probe values.

A curve's temperatures are the rows of one array, refined in lock step: each
pass doubles the panels of the rows that have not converged.  The nodes are
nested, so a pass keeps the previous pass's log posterior and softplus(d) at
its even nodes and evaluates only the new odd ones.  Every value keeps the
bits that a fresh np.linspace window per temperature and pass gives.  Rows
refined together hold a bounded number of nodes, so an input that runs out
of panels holds a few arrays of the last pass, not one per temperature.

This module uses no scipy, so a probe run loads only the scipy that
``import coldgp`` does.  :func:`_posterior_mode` finds d* by bisection on
the monotone gradient, to adjacent floats, and the logistic sigmoid is the
scalar :func:`_sigmoid` rather than ``scipy.special.expit``, whose bits it
reproduces.
"""
from __future__ import annotations

import math
import sys

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
# Doubles per node array that rows refined in lock step may hold at once:
# past it, rows advance a chunk at a time, depth-first in row order.
_NODE_BUDGET = 2 ** 14
# log Simpson weights of the end, odd and even interior nodes (1, 4, 2)
_LOG_END, _LOG_ODD, _LOG_EVEN = np.log([1.0, 4.0, 2.0])


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


def _support_half_width(c: float, tol: float, width: float, centre: float) -> float:
    """r for a curve: the smallest value >= 8, and at most ``width``, at which
    2 sqrt(c/2 + 1) erfc(r / sqrt 2) <= sigmoid(-d*) tol / 100 (module docstring).

    ``centre`` is d*.  Bisection down to adjacent floats, as in
    :func:`_posterior_mode`; ``width`` where the right side, divided by
    2 sqrt(c/2 + 1), is not a normal float.
    """
    target = _sigmoid(-centre) * tol / (200.0 * math.sqrt(0.5 * c + 1.0))
    if not target >= sys.float_info.min:
        return width

    def dropped(r):
        return math.erfc(r / math.sqrt(2.0)) > target

    # erfc(40 / sqrt 2) underflows to 0, so no normal target is dropped there
    lo, hi = 8.0, min(width, 40.0)
    if not dropped(lo):
        return lo
    if dropped(hi):  # r would exceed the configured width
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if dropped(mid):
            lo = mid
        else:
            hi = mid


def _nodes(lo, hi, div: int, index):
    """Nodes ``index`` of np.linspace(lo, hi, div + 1) for (rows, 1) ends, bitwise.

    linspace multiplies the index by its step (hi - lo) / div or, where that
    step underflows to 0, divides the index by div and multiplies by hi - lo;
    then it adds lo.  Its last node is hi, which the caller sets.
    """
    delta = hi - lo
    step = delta / div
    d = index * step
    zero = step[:, 0] == 0.0
    if zero.any():
        d[zero] = index / div * delta[zero]
    d += lo
    return d


def _log_posterior(d, t, c: float):
    """(log posterior, softplus(d)) at nodes d (rows, k) of rows at temperatures t (rows, 1).

    log sigmoid(d) = -log(1 + exp(-d)); the Gaussian normalizer cancels.
    """
    log_post = np.negative(d)
    np.logaddexp(0.0, log_post, out=log_post)
    np.negative(log_post, out=log_post)
    log_post /= t
    square = np.multiply(d, d)
    square /= 4.0 * c * t
    log_post -= square
    return log_post, np.logaddexp(0.0, d, out=square)


def _level(c: float, t, lo, hi, panels: int, previous):
    """(log posterior, softplus(d)) at the 2 panels + 1 nodes of each row.

    ``previous`` is None or the same pair at panels / 2, whose nodes are this
    level's even nodes: halving the step doubles the index, so the nodes keep
    their bits and only the odd nodes are evaluated.  Only a subnormal step
    can halve inexactly, and then every node lies below 1e-285 in magnitude,
    where both values are those at d = 0 whatever the node's last bits.
    """
    div = 2 * panels
    if previous is None:
        d = _nodes(lo, hi, div, np.arange(div + 1.0))
        d[:, -1] = hi[:, 0]
        return _log_posterior(d, t, c)
    log_post, softplus = _log_posterior(_nodes(lo, hi, div, np.arange(1.0, div, 2.0)), t, c)
    log_post = _interleave(previous[0], log_post)
    return log_post, _interleave(previous[1], softplus)


def _interleave(even, odd):
    """The rows of ``even`` and ``odd`` merged column by column, starting with ``even``."""
    out = np.empty((even.shape[0], even.shape[1] + odd.shape[1]))
    out[:, ::2] = even
    out[:, 1::2] = odd
    return out


def _add_log_weights(v):
    """v plus the log Simpson weights 0, log 4, log 2, ..., log 4, 0 along axis 1, in place."""
    v[:, 1::2] += _LOG_ODD
    v[:, 2:-1:2] += _LOG_EVEN
    v[:, [0, -1]] += _LOG_END
    return v


def _probe_values(log_post, softplus):
    """Simpson estimate of E[sigmoid(-d)] per row: numerator over normalizer, in log space."""
    work = log_post.copy()
    log_den = log_sum_exp(_add_log_weights(work), axis=1)
    np.subtract(log_post, softplus, out=work)
    log_num = log_sum_exp(_add_log_weights(work), axis=1)
    return np.exp(log_num - log_den)


def _check_scale(latent_scale) -> float:
    c = float(latent_scale)
    if not (np.isfinite(c) and c > 0.0):
        raise NonPositiveScaleError(f"latent_scale must be positive, got {c!r}")
    return c


def _check_quadrature(quadrature_tolerance, integration_half_width_sigmas):
    tol, width = float(quadrature_tolerance), float(integration_half_width_sigmas)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError("quadrature_tolerance must be positive")
    # erfc(8 / sqrt(2)) ~ 1e-15: a narrower window cuts off posterior mass
    if not (np.isfinite(width) and width >= 8.0):
        raise ValueError(f"integration_half_width_sigmas must be finite and >= 8, got {width!r}")
    return tol, width


def _quadrature(c: float, temps, tol: float, width: float, centre: float):
    """Probe values at the distinct checked temperatures ``temps``, in their order.

    Every row starts at _INITIAL_PANELS and doubles its panels, in lock step
    with the rows that have not yet converged, until two successive values
    agree to the relative tolerance ``tol`` at 4 * r panels or more, with r
    the half-width :func:`_support_half_width` caps ``width`` at (a node
    spacing of sqrt(2 c t) / 4 or less: coarser nodes in a wide window can
    miss the posterior and agree falsely); converged rows drop
    out.  Rows refined together hold at most _NODE_BUDGET doubles per node
    array (one row always goes ahead); past it they advance a chunk at a
    time, depth-first, so the first row that runs out of panels raises
    before any later row is refined further.  Windows are centred at
    ``centre``.  A temperature so small that the log posterior at the mode
    underflows to -inf raises before any node is evaluated.
    """
    width = _support_half_width(c, tol, width, centre)
    t = np.array(temps, dtype=np.float64).reshape(-1, 1)
    # -g(d*) / t, the log posterior at the mode, bounds it at every node:
    # where it is -inf, every node's is, and the Simpson values are NaN at
    # every level, so refining could never converge
    with np.errstate(over="ignore"):
        peak = -(np.logaddexp(0.0, -centre) + 0.25 * centre * centre / c) / t[:, 0]
    if not np.all(peak > -np.inf):
        row = int(np.argmin(peak > -np.inf))
        raise QuadratureNotConvergedError(
            f"the tempered posterior underflows: its log density at the mode is "
            f"{float(peak[row])!r} (latent_scale={c!r}, temperature={temps[row]!r})")
    half = width * np.sqrt(2.0 * c * t)
    lo, hi = centre - half, centre + half
    out = np.empty(t.shape[0])

    def refine(rows, panels, level, value):
        # level: None, or the (log posterior, softplus) pair of rows at
        # panels / 2, whose Simpson values are ``value``
        while True:
            nodes = 2 * panels + 1
            if rows.size > 1 and rows.size * nodes > _NODE_BUDGET:
                k = max(1, _NODE_BUDGET // nodes)
                for s in range(0, rows.size, k):
                    part = slice(s, s + k)
                    refine(rows[part], panels,
                           None if level is None else (level[0][part], level[1][part]),
                           None if value is None else value[part])
                return
            # rebinding level lets the previous level go before the sums
            level = _level(c, t[rows], lo[rows], hi[rows], panels, level)
            cur = _probe_values(*level)
            if value is not None and panels >= 4.0 * width:
                done = np.abs(cur - value) <= tol * np.maximum(np.abs(cur), 1e-300)
                if done.any():
                    out[rows[done]] = cur[done]
                    keep = ~done
                    if not keep.any():
                        return
                    rows, cur, level = rows[keep], cur[keep], (level[0][keep], level[1][keep])
            if panels > _MAX_PANELS:
                raise QuadratureNotConvergedError(
                    f"no convergence to {tol!r} within {_MAX_PANELS} panels "
                    f"(latent_scale={c!r}, temperature={temps[rows[0]]!r})")
            value = cur
            panels *= 2

    refine(np.arange(t.shape[0]), _INITIAL_PANELS, None, None)
    return out


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
    window is found once for the curve.  The half-width is an upper bound:
    each window ends where it provably holds all but tol / 100 of the
    posterior (module docstring).  A tolerance that is not positive or a
    half-width below 8 raises ValueError.
    """
    temps = [check_temperature(t) for t in temperatures]
    if not temps:
        raise EmptyInputError("temperature grid is empty")
    c = _check_scale(latent_scale)
    tol, width = _check_quadrature(quadrature_tolerance, integration_half_width_sigmas)
    rows = list(dict.fromkeys([1.0] + temps))
    value = dict(zip(rows, _quadrature(c, rows, tol, width, _posterior_mode(c))))
    probability = np.array([value[t] for t in temps])
    return probability, probability / value[1.0]


def relabel_disagreement_mc(latent_samples, labels, index: int) -> float:
    """Monte Carlo counterpart of the probe on posterior latent samples.

    Averages, over sampled latent matrices, the softmax probability that a
    fresh relabel of training point ``index`` differs from its observed
    label.  ``latent_samples`` takes the sampler's class-major layout: any
    (..., class_count, n) array, such as a (temperatures, chains, samples,
    class_count, n) grid of samples or one temperature's slice of it, or a
    list of (class_count, n) matrices; every leading axis indexes samples.
    """
    f = np.asarray(latent_samples, dtype=np.float64)
    if f.size == 0:
        raise EmptyInputError("no latent samples")
    if f.ndim < 2:
        raise DimensionMismatchError(f"latent samples must be (..., class_count, n), got {f.shape}")
    c, n = f.shape[-2:]
    labels = check_labels(labels, n, c)
    if not (0 <= index < n):
        raise IndexOutOfRangeError(f"index {index} outside [0, {n})")
    rows = f.reshape(-1, c, n)[:, :, index]
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    return float(np.mean(1.0 - e[:, labels[index]] / e.sum(axis=1)))
