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
evaluated with the trapezoid rule in log space.  Refinement starts at the
coarsest power-of-two level whose node spacing is at most a quarter of
sqrt(2 c t), 2^ceil(log2 8r) intervals for the window below, and halves the
step until two successive values agree.
The window is centred at the mode d* of the tempered posterior, the
minimizer of g(d) = softplus(-d) + d^2 / (4 c), which does not depend on t,
and reaches r prior standard deviations s = sqrt(2 c t) either side of it.
A window centred at 0 instead misses the posterior once s is small next to
d*.  The log posterior is taken relative to its peak, -max(g(d) - g(d*), 0)
/ t, so it is 0 at the mode and the numerator's softplus(d) term survives at
every t, down to the smallest subnormal.  Both integrands are smooth and
negligible at the window's ends, where the trapezoid rule converges
exponentially (Trefethen & Weideman 2014, SIAM Review 56(3)).

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
33.1 at c = 1e154, and the values of the bundled fig2 grids agree with
those of the uncapped width-40 window to 3e-14.  Where the right side
sigmoid(-d*) tol / 100 / (2 sqrt(k)) is not a normal float (c beyond about
1e199 at tol = 1e-8), r is the configured width.  The posterior is
log-concave, but the "at least 1/e of the mass either side" bound holds
about its mean, not its mode d*, so the left-of-mode mass above comes from
the curvature bound instead.  Capping the window keeps the first level at
a bounded panel count, 64 intervals for r = 8, so a configured width of
1e300 gives the width-40 values.

:func:`relabel_ratio_curve` is the one entry point for probe values.

A curve's temperatures are the rows of one array, refined in lock step: each
pass doubles the intervals of the rows that have not converged.  Every row
shares one z grid, z_i = -r + i h with d = d* + s z, and halving h adds only
the odd nodes while the old ones keep their weights (1 inside, 1/2 at the
two ends).  So a row carries only two log-sums, of the normalizer's and
the numerator's terms, whose difference is the log of its value, and a pass
evaluates only its new nodes: each node of a row's final level is evaluated
once.  Rows refined
together hold a bounded number of nodes, so an input that runs out of
panels holds a few arrays of the last pass, not one per temperature.

This module uses no scipy, so a probe run loads only the scipy that
``import coldgp`` does.  :func:`_posterior_mode` finds d* by bisection on
the monotone gradient, to adjacent floats (:func:`_bisect`, which
:func:`_support_half_width` shares), and the logistic sigmoid is the
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
    check_bound,
    check_labels,
    check_temperatures,
)
from .linalg import log_sum_exp

# The narrowest window, in prior standard deviations either side of the mode:
# erfc(8 / sqrt(2)) ~ 1e-15, so a narrower one cuts off posterior mass
MIN_HALF_WIDTH_SIGMAS = 8.0
# relabel_ratio_curve's defaults, which a config's probe section fills in
QUADRATURE_TOLERANCE = 1e-8
HALF_WIDTH_SIGMAS = 40.0
# each quadrature setting's exceptions.check_bound bound, read by
# _check_quadrature and by the config parser
BOUNDS = {"quadrature_tolerance": (0.0, True),
          "integration_half_width_sigmas": (MIN_HALF_WIDTH_SIGMAS, False)}
_MAX_PANELS = 2 ** 20
# Doubles per node array that rows refined in lock step may hold at once:
# past it, rows advance a chunk at a time, depth-first in row order.
_NODE_BUDGET = 2 ** 14


def _sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)) for a float x, bitwise equal to scipy.special.expit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) beyond the float range: the sigmoid rounds to 0
        return 0.0


def _bisect(above, lo: float, hi: float):
    """(lo, hi) adjacent floats with ``above(hi)`` true and ``above(lo)`` false,
    for a predicate that is false at ``lo``, true at ``hi`` and monotone between.

    Bisection stops when the midpoint equals an endpoint.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, hi
        if above(mid):
            hi = mid
        else:
            lo = mid


def _posterior_mode(c: float) -> float:
    """d*, the minimizer of softplus(-d) + d^2 / (4 c), for a checked c > 0.

    Bisection on the gradient d / (2c) - sigmoid(-d), which increases in d,
    down to adjacent floats.
    """
    def rising(d):
        # 0.5 * d / c rounds as d / (2c) does but stays finite for c near the
        # float maximum, where 2c overflows
        return 0.5 * d / c - _sigmoid(-d) > 0.0

    # the gradient is -1/2 at 0 and positive at hi: for c <= 1, hi > 2c puts
    # d / (2c) above 1; for c > 1, hi > log(2c) + 1 puts it above exp(-d) >
    # sigmoid(-d).  Unlike 2c + 1, this bound stays finite for every finite c
    lo, hi = _bisect(rising, 0.0, 1.0 + (2.0 * c if c <= 1.0 else 2.0 + math.log(c)))
    return 0.5 * (lo + hi)


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

    def kept(r):
        return math.erfc(r / math.sqrt(2.0)) <= target

    # erfc(40 / sqrt 2) underflows to 0, so no normal target is dropped there
    lo, hi = MIN_HALF_WIDTH_SIGMAS, min(width, 40.0)
    if kept(lo):
        return lo
    if not kept(hi):  # r would exceed the configured width
        return hi
    return _bisect(kept, lo, hi)[1]


def _z_nodes(r: float, intervals: int, index):
    """Nodes ``index`` of the z grid z_i = -r + i h, h = 2 r / intervals.

    Computed as (i - m) (r / m), m = intervals / 2: r / m is exact, so node 2i
    at 2N intervals is node i at N intervals bit for bit, the grid is
    symmetric about z_m = 0 and ends at -r and r, and no step overflows.
    """
    half = intervals // 2
    return (index - half) * (r / half)


def _log_terms(d, t, c: float, centre: float):
    """(log posterior, its sum with log sigmoid(-d)) at nodes d (rows, k) of
    rows at temperatures t (rows, 1).

    The log posterior is taken relative to its peak at ``centre``, d*:
    -max(g(d) - g(d*), 0) / t, which is 0 at d* for every t.
    """
    def g(x):  # softplus(-x) + x^2 / (4 c), in a new array
        # a node past sqrt(max float) squares to inf, the value intended
        with np.errstate(over="ignore"):
            out = np.multiply(x, x)
        out *= 0.25
        out /= c
        out += np.logaddexp(0.0, np.negative(x))
        return out

    log_post = g(d)
    log_post -= g(centre)
    np.maximum(log_post, 0.0, out=log_post)
    log_post /= -t
    return log_post, log_post - np.logaddexp(0.0, d)


def _check_scale(latent_scale) -> float:
    return check_bound("latent_scale", float(latent_scale), (0.0, True), NonPositiveScaleError)


def _check_quadrature(quadrature_tolerance, integration_half_width_sigmas):
    """(tol, width) as floats, each within its ``BOUNDS`` entry."""
    values = (float(quadrature_tolerance), float(integration_half_width_sigmas))
    for name, value in zip(BOUNDS, values):
        check_bound(name, value, BOUNDS[name])
    return values


def _quadrature(c: float, temps, tol: float, width: float, centre: float):
    """Probe values at the distinct checked temperatures ``temps``, in their order.

    Every row starts at 2^ceil(log2 8r) intervals, with r the half-width
    :func:`_support_half_width` caps ``width`` at: the coarsest level whose
    node spacing, 2 r sqrt(2 c t) / intervals, is at most sqrt(2 c t) / 4
    (coarser nodes in a wide window can miss the posterior and agree
    falsely).  Rows double their intervals, in lock step with the rows that
    have not yet converged, until two successive values agree to the
    relative tolerance ``tol``; converged rows drop out.  So both levels of
    every comparison keep to that spacing.  A row keeps the log-sums of the
    numerator's and the normalizer's trapezoid terms, so a pass evaluates
    only the new odd nodes.  Rows refined together hold at most _NODE_BUDGET
    doubles per node array (one row always goes ahead); past it they
    advance a chunk at a time, depth-first, so the first row that runs out
    of panels raises before any later row is refined further; a first level
    past _MAX_PANELS, which has no finer level within the limit to agree
    with, raises before it is evaluated.  Windows are centred at ``centre``.
    """
    r = _support_half_width(c, tol, width, centre)
    t = np.array(temps, dtype=np.float64).reshape(-1, 1)
    scale = np.sqrt(2.0 * c * t)
    out = np.empty(t.shape[0])

    def unconverged(row):
        return QuadratureNotConvergedError(
            f"no convergence to {tol!r} within {_MAX_PANELS} panels "
            f"(latent_scale={c!r}, temperature={temps[row]!r})")

    def refine(rows, intervals, sums):
        # sums: None, or the (normalizer, numerator) log-sums of rows at
        # ``intervals`` / 2; their difference is the log of the rows' values
        while True:
            # the first pass evaluates every node, later ones the new odd nodes
            index = np.arange(intervals + 1.0) if sums is None else np.arange(1.0, intervals, 2.0)
            if rows.size > 1 and rows.size * index.size > _NODE_BUDGET:
                k = max(1, _NODE_BUDGET // index.size)
                for s in range(0, rows.size, k):
                    part = slice(s, s + k)
                    refine(rows[part], intervals, None if sums is None else sums[:, part])
                return
            d = scale[rows] * _z_nodes(r, intervals, index) + centre
            terms = _log_terms(d, t[rows], c, centre)
            if sums is None:  # trapezoid weights 1/2 at the two ends, 1 inside
                for v in terms:
                    v[:, [0, -1]] -= math.log(2.0)
            old, sums = sums, np.array([log_sum_exp(v) for v in terms])
            if old is not None:  # the old nodes keep their weights as the step halves
                sums = np.logaddexp(old, sums)
                cur, value = np.exp(sums[1] - sums[0]), np.exp(old[1] - old[0])
                done = np.abs(cur - value) <= tol * np.maximum(np.abs(cur), 1e-300)
                if done.any():
                    out[rows[done]] = cur[done]
                    keep = ~done
                    if not keep.any():
                        return
                    rows, sums = rows[keep], sums[:, keep]
            if intervals > _MAX_PANELS:
                raise unconverged(rows[0])
            intervals *= 2

    # 2^ceil(log2 8r) from r = mantissa 2^exponent, 1/2 <= mantissa < 1:
    # exact, and an int for every finite r
    mantissa, exponent = math.frexp(r)
    intervals = 2 ** (exponent + 2 if mantissa == 0.5 else exponent + 3)
    if intervals > _MAX_PANELS:  # the first level would have no finer one to agree with
        raise unconverged(0)
    refine(np.arange(t.shape[0]), intervals, None)
    return out


def relabel_prob_zero_temperature(latent_scale: float) -> float:
    """Limit of the probe as temperature goes to zero.

    The tempered posterior concentrates at the minimizer d* of
    softplus(-d) + d^2 / (4 c); the limit is sigmoid(-d*).
    """
    return _sigmoid(-_posterior_mode(_check_scale(latent_scale)))


def relabel_ratio_curve(latent_scale: float, temperatures,
                        quadrature_tolerance: float = QUADRATURE_TOLERANCE,
                        integration_half_width_sigmas: float = HALF_WIDTH_SIGMAS):
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
    temps = check_temperatures(temperatures)
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
    label.  ``latent_samples`` is class-major: any (..., class_count, n)
    array whose leading axes index samples, or a list of (class_count, n)
    matrices.  The sweep keeps no latent samples; its sampler reads out
    v^T G, which is F = L @ G for the readout v = L^T.
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
