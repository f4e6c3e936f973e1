"""Tempered latent-Gaussian classification via elliptical slice sampling.

The model: per-class latent functions with independent GP priors whose
covariance is the temperature-scaled Gram matrix t * K(X, X); a softmax
likelihood raised to the power 1/t ties the latents to the labels.  Neither
factor is conjugate, so the latent posterior is explored with elliptical
slice sampling (ESS), which needs only prior draws and log-likelihood
evaluations and has no step-size parameter.  The factor of t * K is
sqrt(t) * chol(K), so a prior draw is sqrt(t) * (L @ z) and one factor of
the untempered K serves every temperature of a sweep and its predictive.
That factor is the one n x n array of a sweep: :func:`coldgp.linalg.cholesky`
factors the Gram in its own buffer.
A sweep advances all its (temperature, chain) pairs in lock step: each
transition makes one triangular product for every chain's prior draw and
one likelihood call per shrink round for the chains still shrinking, while
each chain keeps its own random stream.  Only the uniform draws themselves
are made chain by chain; the slice heights, angles and brackets are arrays.

A softmax ignores a shift common to all classes, so the likelihood reads
the latents only through their class contrasts D = F[1:] - F[0], and
:func:`ess_transition` takes D as its one state layout: C - 1 rows per
chain, whose prior draw sqrt(t) * L @ (z[1:] - z[0]) takes k * (C - 1)
columns of the triangular product.  Every ESS state is a rotation of
earlier states and prior draws, so each latent matrix F is L @ G for a
whitened matrix G that the sampler carries beside D at O(n) cost per
transition: all C rows of G take the accepted rotation (the same rotation
applied to sqrt(t) * z), and D = L @ (G[1:] - G[0]).  In exact arithmetic
the contrast likelihood is the full one, so the same normals and uniforms
give the same angles; in floating point its values differ in the last bits
and reach G only through the slice test.  With two classes there is one
contrast d per point and its log-sum-exp over (0, d) needs one exp,
exp(-|d|): the sweep's two-class likelihood takes that path, with the same
bits as the general one.

Prediction: the test latent for class c is Gaussian with mean
k*^T K^{-1} F_c = v^T G_c, where v = L^{-1} K(X, X*) (temperature-free,
because t cancels between the scaled cross-covariance and the scaled
inverse), and variance t * (k** - v^T v).  The pair (v, k** - v^T v) is
:func:`coldgp.regression.conditional`, the Gaussian conditional that
regression prediction also reads: one triangular solve, in place in the
buffer of K(X*, X), gives both the means and the variances, and the
conditional pieces hold one n x p array.  Class probabilities
average softmax draws over both the posterior samples and this
conditional; the draws of one sample come in antithetic pairs
mean +/- sd * z, so a pair takes one set of normals and its two errors
partly cancel.

The predictive reads a retained sample only through v^T G, so the sampler
retains that and not G: at each retained step, one product reads v once and
gives the test-latent means of all T * n_chains states.
:func:`classification_temperature_sweep` is the one way to sample and
predict: its sampler keeps the whole grid's retained means as one
(T, n_chains, n_samples_per_chain, C, p) array for p test points, and the
predictive reads one temperature's slice of it, with t entering only as a
scalar.  A sweep's memory is then the factor, v, and these means.

Latents are class-major throughout: the sampler's contrasts f, its
whitened state g and its normals z are C-ordered (k, C - 1, n) and
(k, C, n) stacks, so each class is one contiguous row of n values and every
proposal, likelihood and rotation runs on whole rows.  The softmax and the
log-likelihood reduce over the class axis -2, which numpy does by adding
whole class rows in class order at any class count from n = 2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .exceptions import (
    ColdGPError,
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteLikelihoodError,
    check_array_size,
    check_labels,
    check_temperatures,
)
from .kernels import KernelSpec, gram, gram_diag
from .linalg import SpdFactor, cholesky, tril_matmul
from .regression import conditional
from .rng import RngStream, derive_seed

PROB_FLOOR = 1e-12
_MAX_BRACKET_SHRINKS = 10_000


@dataclass(frozen=True)
class EssConfig:
    """Chain layout for the latent sampler and draws for its predictive.

    Total retained samples = n_chains * n_samples_per_chain; each chain runs
    burn_in discarded transitions and then keeps every thinning-th state.
    The predictive averages draws_per_sample softmax draws of the test
    latents per retained sample, made in antithetic pairs from
    ceil(draws_per_sample / 2) sets of normals.
    """

    n_chains: int = 4
    burn_in: int = 1000
    n_samples_per_chain: int = 500
    thinning: int = 5
    draws_per_sample: int = 8

    # each field's least value (a class attribute, not a field)
    MINIMUMS = {"n_chains": 1, "burn_in": 0, "n_samples_per_chain": 1, "thinning": 1,
                "draws_per_sample": 1}

    def __post_init__(self):
        for name, minimum in self.MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise ValueError(f"{name} must be >= {minimum}")


def _contrast_log_softmax_sums(d, index, sign=None):
    """Per-chain sums of the log-softmax at the labels, from class contrasts.

    ``d`` is a C-ordered (k, C - 1, n) array of contrasts d_c = f_c - f_0
    (c = 1 .. C - 1) and ``index`` holds the n flat positions y_i * n + i of
    the labels y_i, in range, in a C-ordered (C, n) array; the caller builds
    it once, as it does ``sign``.  A softmax ignores a shift common to all
    classes, so with d_0 = 0 the log-softmax of f at label y_i is
    d_{y_i} - log sum_c exp(d_c).  Returns the (k,) vector of
    its sums over the n points, computed as log-sum-exp over
    (0, d_1 .. d_{C-1}) with the max m = max(0, d_1 .. d_{C-1}) subtracted:
    sum_i [ (d_{y_i, i} - m_i) - log sum_c exp(d_{c, i} - m_i) ].  The shifted
    values are formed once as the rows of one (k, C, n) array, class 0's row
    -m first, so the exp-sum adds the class rows in class order.

    At C = 2, ``sign`` = 2y - 1 (built once by the caller) selects a path
    with one exp per point.  One of the two shifted values is exactly 0, so
    the exp-sum is 1 + exp(-|d|) and the label term is min(sign * d, 0 * d):
    where sign * d > 0 it is a zero with d's sign, as d - m or -m leaves it
    above.  Each term then has the general path's operands and bits.  An
    infinite contrast makes 0 * d, and so the sum, NaN; every chain whose
    sum is not finite is summed again on the general path, which gives NaN
    and infinities as it always has.
    """
    k, rows, n = d.shape
    if sign is not None:
        # d[:, 0] is the C-ordered (k, n) contrast of class 1 with class 0
        label = np.multiply(d[:, 0], 0.0)
        x = np.multiply(d[:, 0], sign)
        np.minimum(x, label, out=label)
        np.abs(d[:, 0], out=x)
        np.negative(x, out=x)
        np.exp(x, out=x)
        x += 1.0
        label -= np.log(x, out=x)
        sums = label.sum(axis=-1)
        bad = ~np.isfinite(sums)
        if np.count_nonzero(bad):
            sums[bad] = _contrast_log_softmax_sums(d[bad], index)
        return sums
    # m has its own buffer: numpy 2.4.6 negates a (k, 1) view such as
    # a[:, 0] at n = 1 in place wrongly, reading row 1 from the wrong place
    m = d.max(axis=-2, initial=0.0)
    a = np.empty((k, rows + 1, n))
    np.negative(m, out=a[:, 0])
    np.subtract(d, m[:, None], out=a[:, 1:])
    # C-ordered, so each chain's sum below adds its own contiguous row
    label = np.take(a.reshape(k, -1), index, axis=1)
    np.exp(a, out=a)
    s = a.sum(axis=-2)
    label -= np.log(s, out=s)
    return label.sum(axis=-1)


def _chain_error(exc_type, chain, message):
    """``exc_type(message)`` tagged with the index of the chain that raised it."""
    exc = exc_type(message)
    exc.chain = int(chain)
    return exc


def ess_transition(f, g, ll, log_lik, prior_lower, prior_scale, rngs):
    """One elliptical slice sampling transition of k chains in lock step.

    ``f`` is the C-ordered (k, C - 1, n) stack of class contrasts that the
    likelihood reads and ``g`` the (k, C, n) stack of class-major whitened
    latents beside it, C >= 2, with f_c = prior_lower @ (g_c - g_0); other
    shapes raise DimensionMismatchError.  ``ll`` holds the (k,)
    log-likelihoods of ``f`` and ``log_lik(props, idx)`` returns the
    (len(idx),) log-likelihoods of the proposals ``props`` (shaped like
    ``f``) of chains ``idx`` (the classification sampler binds the tempered
    softmax, the tests substitute their own).  Chain i's prior on each class
    row is zero-mean Gaussian with factor prior_scale[i] * prior_lower, and
    it draws from ``rngs[i]`` alone, in the order of a one-chain transition:
    the (n, C) normals, stored transposed as chain i's rows of the (k, C, n)
    normals z, then one call for two uniforms (u for the slice height, u'
    for the first angle 2 pi * u'), then one uniform u per shrink.  A shrink
    round moves the brackets of all shrinking chains at once and sets their
    next angles lo + (hi - lo) * u in one array expression, the bits of one
    ``Generator.uniform(lo, hi)`` call per chain.  All k prior draws come
    from one triangular product of prior_lower
    (:func:`~coldgp.linalg.tril_matmul`) with the k * (C - 1) columns
    z_c - z_0.  ``prior_lower`` must be lower-triangular, and its strict
    upper triangle is never read.  Each shrink round evaluates the proposals
    of the chains that have not yet accepted in one ``log_lik`` call.  Once
    every chain has accepted, all C rows of ``g`` take the accepted rotation
    g cos(theta) + prior_scale * z sin(theta), computed in the buffer of z.
    ``f``, ``g`` and ``ll`` are updated in place and returned with the (k,)
    proposal counts.

    The slice always contains the current state in exact arithmetic (the
    threshold is ll + log u with u < 1 and the proposal at angle 0 is f
    itself), so bracket shrinkage terminates.  In floating point, a
    log-likelihood so large in magnitude that ll + log u rounds back to ll
    (a tiny temperature) leaves no proposal above the threshold; that
    raises ColdGPError.  Errors carry the failing chain's index as ``chain``.
    """
    k, c, n = g.shape
    if c < 2 or f.shape != (k, c - 1, n):
        raise DimensionMismatchError(
            f"f must be (k, C - 1, n) for g of shape (k, C, n), C >= 2; got {f.shape}, {g.shape}")
    nan = np.isnan(ll)
    if np.count_nonzero(nan):
        raise _chain_error(NonFiniteLikelihoodError, np.argmax(nan),
                           "current state has NaN log-likelihood")
    z, u = np.empty((k, c, n)), np.empty((k, 2))
    for i, rng in enumerate(rngs):
        z[i] = rng.standard_normal((n, c)).T
        u[i] = rng.uniform(size=2)
    with np.errstate(divide="ignore"):
        log_y = ll + np.log(u[:, 0])
    # 2 pi * u is the bits of Generator.uniform(0, 2 pi), which adds it to 0
    theta = 2.0 * np.pi * u[:, 1]
    scale = np.asarray(prior_scale)
    # the prior draws are bound only as the shrinking chains' rows, so the
    # draws of chains that have accepted are freed
    w = (z[:, 1:] - z[:, :1]).reshape(k * (c - 1), n)
    nu_act = tril_matmul(prior_lower, w.T).T.reshape(k, c - 1, n)
    nu_act *= scale[:, None, None]
    # the brackets [lo, hi] of the chains still shrinking, in the order of active
    lo, hi = theta - 2.0 * np.pi, theta.copy()
    proposals = np.zeros(k, dtype=np.int64)
    active, f_act, log_y_act = np.arange(k), f, log_y
    for rounds in range(1, _MAX_BRACKET_SHRINKS + 1):
        angle = theta[active]
        prop = f_act * np.cos(angle[:, None, None])
        prop += nu_act * np.sin(angle[:, None, None])
        ll_prop = log_lik(prop, active)
        nan = np.isnan(ll_prop)
        if np.count_nonzero(nan):
            raise _chain_error(NonFiniteLikelihoodError, active[np.argmax(nan)],
                               "proposal log-likelihood is NaN")
        accept = ll_prop > log_y_act
        if np.count_nonzero(accept):
            done, keep = active[accept], ~accept
            f[done], ll[done], proposals[done] = prop[accept], ll_prop[accept], rounds
            active, f_act, nu_act, log_y_act, lo, hi, angle = (
                active[keep], f_act[keep], nu_act[keep], log_y_act[keep], lo[keep], hi[keep],
                angle[keep])
            if not active.size:
                # theta now holds each chain's accepted angle
                z *= (scale * np.sin(theta))[:, None, None]
                g *= np.cos(theta)[:, None, None]
                g += z
                return f, g, ll, proposals
        # the rejected angle becomes the end of its bracket on its side of 0,
        # and each chain draws its next angle in the bracket from its own
        # stream: lo + (hi - lo) * u is the bits of Generator.uniform(lo, hi)
        below = angle < 0.0
        lo, hi = np.where(below, angle, lo), np.where(below, hi, angle)
        u = np.array([rngs[i].uniform() for i in active.tolist()])
        theta[active] = lo + (hi - lo) * u
    i = active[0]
    raise _chain_error(
        ColdGPError, i,
        f"slice bracket failed to terminate after {_MAX_BRACKET_SHRINKS} shrinks at "
        f"log-likelihood {float(ll[i])!r}: the slice threshold rounds to the current value")


def _sample_grid(train: LabeledDataset, temps, seeds, config: EssConfig,
                 prior_factor: SpdFactor, readout):
    """Sample every (temperature, chain) pair of a grid in one lock-step pass.

    Chain c at grid position j draws from RngStream(seeds[j], c) and starts
    from the zero latent matrix; all T * n_chains chains advance together
    through ``ess_transition`` on their class contrasts, so a step reads the
    prior factor once.  The whitened samples G are not kept: ``readout`` is
    an (n, p) matrix v, and each retained step keeps v^T g_c for every class
    row g_c of every chain, from one product that reads v once for all
    T * n_chains states.  With v = L^{-1} K(X, X*) these are the test-latent
    means; the identity gives back G, and prior_factor.lower.T the latents
    F = L @ G.  The retained array and the per-chain arrays are allocated
    before the chains' random streams, so a grid too large for memory fails
    at its first allocation.
    Returns (means, stats): the retained readouts as one
    (T, n_chains, n_samples_per_chain, C, p) array, and one dict of sampler
    diagnostics per temperature: transition counts, proposals per
    transition, and the absolute jitter on the tempered prior t * K.
    """
    n, c, n_chains = train.n, train.class_count, config.n_chains
    k, p = len(temps) * n_chains, readout.shape[1]
    means = np.empty((len(temps), n_chains, config.n_samples_per_chain, c, p))
    chain_t = np.repeat(temps, n_chains)
    # the chains carry the class contrasts f_c - f_0, all the likelihood reads
    f = np.zeros((k, c - 1, n))
    g = np.zeros((k, c, n))
    proposals = np.zeros(k, dtype=np.int64)
    scale = np.sqrt(chain_t)
    rngs = [RngStream(seed, chain) for seed in seeds for chain in range(n_chains)]
    y = train.targets
    # the labels' flat index and the two-class likelihood's label signs,
    # built once for the sweep
    index = y * n + np.arange(n)
    sign = 2.0 * y - 1.0 if c == 2 else None

    def log_lik(props, idx):
        return _contrast_log_softmax_sums(props, index, sign) / chain_t[idx]

    ll = log_lik(f, np.arange(k))
    try:
        for _ in range(config.burn_in):
            f, g, ll, used = ess_transition(f, g, ll, log_lik, prior_factor.lower, scale, rngs)
            proposals += used
        for s in range(config.n_samples_per_chain):
            for _ in range(config.thinning):
                f, g, ll, used = ess_transition(f, g, ll, log_lik, prior_factor.lower, scale,
                                                rngs)
                proposals += used
            # the (n, k * C) transposed view of g's rows, so no state is copied
            means[:, :, s] = (readout.T @ g.reshape(-1, n).T).T.reshape(
                len(temps), n_chains, c, p)
    except ColdGPError as exc:
        raise type(exc)(f"temperature {float(chain_t[exc.chain])!r}: {exc}") from exc

    transitions = n_chains * (config.burn_in + config.n_samples_per_chain * config.thinning)
    per_temperature = proposals.reshape(len(temps), n_chains).sum(axis=1).tolist()
    stats = [{"transitions": transitions,
              "proposals": used,
              "proposals_per_transition": used / transitions,
              "prior_jitter": t * prior_factor.jitter_used}
             for t, used in zip(temps, per_temperature)]
    return means, stats


def _softmax(f):
    """Softmax over the class axis of a C-ordered (..., class_count, n) array."""
    e = f - f.max(axis=-2, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-2, keepdims=True)
    return e


def _chain_prob_means(means, sd, draws_per_sample: int, rng: RngStream):
    """Predictive class probabilities averaged within each chain.

    ``means`` is one temperature's C-ordered (n_chains, per_chain, C, p)
    array of retained test-latent means v^T G (:func:`_sample_grid`) and
    ``sd`` the (p,) conditional standard deviations sqrt(t * schur).  Each
    retained sample adds d = ``draws_per_sample`` softmax draws of its
    (C, p) test latents, in antithetic pairs (Hammersley & Morton 1956): one
    ``standard_normal`` call gives h = ceil(d / 2) sets of (p, C) normals z,
    stored transposed, and the d latent rows are mean + sd * z for every
    set, then mean - sd * z for the first floor(d / 2) sets.  The Gaussian
    is symmetric, so each row is still a draw of the conditional and the
    average is unbiased; a pair's errors partly cancel, so it varies less
    than two independent draws.  At d = 1 this is one independent draw.
    Randomness is consumed in (chain, sample) order, so the result is
    identical however the caller later combines chains.
    Returns (n_chains, p, C).
    """
    n_chains, per_chain, c, p = means.shape
    half = (draws_per_sample + 1) // 2
    # every set's mirror is formed; at odd d the last one is not averaged
    latents = np.empty((2 * half, c, p))
    rows = latents[:draws_per_sample]
    chain_means = np.empty((n_chains, p, c))
    for ci in range(n_chains):
        acc = np.zeros((c, p))
        for mean in means[ci]:
            np.multiply(sd, rng.standard_normal((half, p, c)).transpose(0, 2, 1),
                        out=latents[:half])
            np.negative(latents[:half], out=latents[half:])
            rows += mean
            for probs in _softmax(rows):
                acc += probs
        chain_means[ci] = (acc / (per_chain * draws_per_sample)).T
    return chain_means


def classification_metrics(probs, labels):
    """(mean log predictive probability, top-1 accuracy).

    Probabilities are floored at 1e-12 inside the log; argmax ties resolve
    to the smallest class index.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DimensionMismatchError(f"probs must be (n, class_count), got {probs.shape}")
    labels = check_labels(labels, *probs.shape)
    if probs.shape[0] == 0:
        raise EmptyInputError("no rows")
    picked = probs[np.arange(probs.shape[0]), labels]
    mean_log = float(np.mean(np.log(np.maximum(picked, PROB_FLOOR))))
    accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
    return mean_log, accuracy


def classification_temperature_sweep(kernel: KernelSpec, train: LabeledDataset,
                                     test: LabeledDataset, temperatures,
                                     config: EssConfig = EssConfig(), seed: int = 0) -> dict:
    """Posterior sampling and test metrics across a temperature grid.

    Grid position j gets its own derived master seed, so temperatures are
    independent.  One Cholesky factor of K(X, X) serves the sampler at every
    temperature and the predictive, whose means and variances come from the
    one triangular solve of :func:`~coldgp.regression.conditional`, and one
    lock-step sampler pass advances every (temperature, chain) pair.  The
    sampler retains the test-latent means of the whole grid, T * n_chains *
    n_samples_per_chain * C * p float64 values for p test points, and the
    predictive adds ``config.draws_per_sample`` antithetic softmax draws per
    retained sample (:func:`_chain_prob_means`), one temperature at a time.
    Returns a dict of 1-D float64 arrays in grid order: test_log_likelihood,
    top1_accuracy, and their between-chain Monte Carlo standard errors
    mc_se_log_likelihood and mc_se_accuracy (0 for a single chain); ``stats``
    lists each position's sampler diagnostics: transitions, proposals,
    proposals_per_transition and prior_jitter.
    """
    temps = check_temperatures(temperatures)
    if not test.is_classification or test.class_count != train.class_count:
        raise ValueError("train/test class counts differ or test set is not classification")
    c = train.class_count
    check_array_size("the retained test-latent means (temperatures, n_chains, "
                     "n_samples_per_chain, classes, test points)",
                     (len(temps), config.n_chains, config.n_samples_per_chain, c, test.n))
    check_array_size("the predictive's antithetic draws (2 * ceil(draws_per_sample / 2), "
                     "classes, test points)",
                     (2 * ((config.draws_per_sample + 1) // 2), c, test.n))
    prior_factor = cholesky(gram(kernel, train.inputs, train.inputs))
    v, schur = conditional(prior_factor, gram(kernel, test.inputs, train.inputs),
                           gram_diag(kernel, test.inputs))
    seeds = [derive_seed(seed, j) for j in range(len(temps))]
    means, stats = _sample_grid(train, temps, seeds, config, prior_factor, v)
    ll, acc, se_ll, se_acc = (np.zeros(len(temps)) for _ in range(4))
    for j, t in enumerate(temps):
        rng = RngStream(seeds[j], config.n_chains)
        chain_means = _chain_prob_means(means[j], np.sqrt(t * schur),
                                        config.draws_per_sample, rng)
        ll[j], acc[j] = classification_metrics(chain_means.mean(axis=0), test.targets)
        if config.n_chains > 1:
            per_chain = [classification_metrics(cm, test.targets) for cm in chain_means]
            se_ll[j], se_acc[j] = (np.std(m, ddof=1) / np.sqrt(config.n_chains)
                                   for m in zip(*per_chain))
    return {"test_log_likelihood": ll, "top1_accuracy": acc,
            "mc_se_log_likelihood": se_ll, "mc_se_accuracy": se_acc,
            "stats": stats}
