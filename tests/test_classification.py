import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_triangular

from coldgp.classification import (
    EssConfig,
    _chain_prob_means,
    _contrast_log_softmax_sums,
    _sample_grid,
    _softmax,
    classification_metrics,
    classification_temperature_sweep,
    ess_transition,
)
from coldgp.data import gen_cluster_classification
from coldgp.exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NonFiniteLikelihoodError,
    NonPositiveTemperatureError,
)
from coldgp.kernels import KernelSpec, gram, gram_diag
from coldgp.linalg import cholesky, tril_matmul
from coldgp.rng import RngStream, derive_seed

from helpers import batch_means_se, conditional_at, count_calls, record_factors


def _contrasts(f):
    """The (k, C - 1, n) class contrasts f_c - f_0 of a (k, C, n) latent stack."""
    return f[:, 1:] - f[:, :1]


def _index(y):
    """The labels' flat positions y_i * n + i that the likelihood reads."""
    return y * y.size + np.arange(y.size)


def test_tempered_log_likelihood_matches_log_softmax():
    # at t = 1 the tempered log-likelihood is the log-softmax at the labels
    f = np.array([[10.0, 0.0], [-1.0, 2.5]])  # (n, C): one row per point
    y = np.array([0, 1])
    ref = (scipy.special.log_softmax(f[0])[0] + scipy.special.log_softmax(f[1])[1])
    got = _contrast_log_softmax_sums(_contrasts(f.T.copy()[None]), _index(y))[0]
    np.testing.assert_allclose(got, ref, rtol=1e-13)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), c=st.sampled_from([2, 3, 8, 10]))
def test_contrast_kernel_matches_scipy_log_softmax(data, c):
    # the latents are multiples of 2**-20 with |f| <= 1e3, plus an integer
    # offset common to all classes of a point, up to 2**31 in magnitude, so
    # each f, each contrast f_c - f_0 and each shift f_c - max f is exact;
    # the kernel and scipy's log-softmax then differ only by their own rounding
    k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    grid = hnp.arrays(np.int64, (k, c, n), elements=st.integers(-1000 * 2**20, 1000 * 2**20))
    offsets = hnp.arrays(np.int64, (k, 1, n), elements=st.one_of(
        st.just(0), st.integers(-2**31, 2**31), st.sampled_from([-2**31, 10**6, 2**31])))
    f = data.draw(grid) / 2.0**20 + data.draw(offsets).astype(np.float64)
    y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, c - 1)))
    ref = scipy.special.log_softmax(f, axis=-2)[:, y, np.arange(n)].sum(axis=-1)
    np.testing.assert_allclose(_contrast_log_softmax_sums(_contrasts(f), _index(y)), ref,
                               rtol=1e-13, atol=0.0)


# contrasts that reach every branch of the two-class path: signed zeros,
# subnormals, |d| near 36.7 (where 1 + exp(-|d|) rounds to 1), exp's
# underflow and magnitudes up to 1e300, whose sums may overflow
_EDGE_CONTRASTS = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 36.7, -36.7,
                     37.5, -37.5, 745.2, -745.2, 1e300, -1e300]))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_two_class_path_matches_the_general_formula_bitwise(data):
    # one exp per point against the log-sum-exp over (0, d): the same bits,
    # signed zeros included, and a chain with a NaN or an infinite contrast
    # gets the general path's NaN, infinity or finite sum
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    d = data.draw(hnp.arrays(np.float64, (k, 1, n), elements=_EDGE_CONTRASTS))
    if data.draw(st.booleans()):
        spots = data.draw(hnp.arrays(np.bool_, (k, 1, n)))
        d[spots] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    with np.errstate(all="ignore"):
        ref = _contrast_log_softmax_sums(d, _index(y))
        got = _contrast_log_softmax_sums(d, _index(y), 2.0 * y - 1.0)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


def test_ess_transition_is_deterministic_given_stream():
    lower = cholesky(np.eye(3)).lower
    loglik = lambda props, idx: -0.5 * np.sum(props**2, axis=(1, 2))
    f0, g0 = np.zeros((1, 1, 3)), np.zeros((1, 2, 3))
    a = ess_transition(f0.copy(), g0.copy(), loglik(f0, [0]), loglik, lower, np.ones(1),
                       [RngStream(4, 0)])
    b = ess_transition(f0.copy(), g0.copy(), loglik(f0, [0]), loglik, lower, np.ones(1),
                       [RngStream(4, 0)])
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_ess_transition_nan_likelihood_raises():
    lower = cholesky(np.eye(2)).lower
    with pytest.raises(NonFiniteLikelihoodError):
        ess_transition(np.zeros((1, 1, 2)), np.zeros((1, 2, 2)), np.zeros(1),
                       lambda props, idx: np.full(1, np.nan), lower, np.ones(1),
                       [RngStream(0, 0)])


def test_ess_transition_takes_only_contrasts_beside_the_whitened_state():
    # f must hold the C - 1 contrasts of g's C >= 2 class rows: all C latent
    # rows, a contrast count that fits no g, or a g of one class are refused
    lower = cholesky(np.eye(4)).lower
    flat = lambda props, idx: np.zeros(len(idx))
    for f_rows, g_rows in ((2, 2), (3, 3), (1, 3), (0, 1), (1, 1)):
        with pytest.raises(DimensionMismatchError):
            ess_transition(np.zeros((1, f_rows, 4)), np.zeros((1, g_rows, 4)), np.zeros(1),
                           flat, lower, np.ones(1), [RngStream(0, 0)])


def test_ess_transition_nan_proposal_in_one_chain_raises():
    # chains 0 and 2 are well defined; only chain 1's proposals are NaN
    lower = cholesky(np.eye(4)).lower

    def loglik(props, idx):
        out = -0.5 * np.sum(props**2, axis=(1, 2))
        out[np.asarray(idx) == 1] = np.nan
        return out

    rngs = [RngStream(3, c) for c in range(3)]
    with pytest.raises(NonFiniteLikelihoodError, match="proposal") as info:
        ess_transition(np.zeros((3, 1, 4)), np.zeros((3, 2, 4)), np.zeros(3), loglik, lower,
                       np.ones(3), rngs)
    assert info.value.chain == 1


def _reference_transition(f, g, ll, log_lik, lower, scale, rng):
    """One chain's ESS transition as a plain loop on (n, C) matrices, one
    column per class: the reference for the class-major batch.  ``f`` holds
    the C - 1 contrasts L @ (g_c - g_0), and ``rng`` is a numpy Generator
    replaying the chain's stream, so each angle is Generator.uniform's own."""
    z = rng.standard_normal(g.shape)
    nu = scale * tril_matmul(lower, z[:, 1:] - z[:, :1])
    with np.errstate(divide="ignore"):
        log_y = ll + float(np.log(rng.uniform()))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    lo, hi = theta - 2.0 * np.pi, theta
    proposals = 0
    while True:
        proposals += 1
        prop = f * np.cos(theta) + nu * np.sin(theta)
        ll_prop = log_lik(prop)
        if ll_prop > log_y:
            return prop, g * np.cos(theta) + z * (scale * np.sin(theta)), ll_prop, proposals
        if theta < 0.0:
            lo = theta
        else:
            hi = theta
        theta = float(rng.uniform(lo, hi))


def _check_batched_transition(k, c):
    """Four lock-step transitions of k chains against one-chain calls and the
    loop reference, bitwise.  n = 800 is a multiple of 8, where a column of
    OpenBLAS's triangular product L @ Z has the same bits however many
    columns share the product."""
    n = 800
    rng = np.random.default_rng(k)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    lower = cholesky(a @ a.T + np.eye(n)).lower
    target = rng.standard_normal((k, n, c - 1)).transpose(0, 2, 1).copy()
    scales = 0.5 + np.arange(k)

    def loglik(props, idx):  # a narrow Gaussian per chain, so brackets shrink
        return -8.0 * np.sum((props - target[idx]) ** 2, axis=(1, 2))

    batch_rngs = [RngStream(21, i) for i in range(k)]
    single_rngs = [RngStream(21, i) for i in range(k)]
    loop_rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(21, spawn_key=(i,))))
                 for i in range(k)]
    f, g = np.zeros((k, c - 1, n)), np.zeros((k, c, n))
    ll = loglik(f, np.arange(k))
    singles = [(f[i:i + 1].copy(), g[i:i + 1].copy(), ll[i:i + 1].copy()) for i in range(k)]
    loops = [(f[i].T.copy(), g[i].T.copy(), float(ll[i])) for i in range(k)]
    for _ in range(4):
        f, g, ll, used = ess_transition(f, g, ll, loglik, lower, scales, batch_rngs)
        for i in range(k):
            one = lambda props, idx, i=i: loglik(props, np.full(len(idx), i))
            fi, gi, lli, used_i = ess_transition(*singles[i], one, lower, scales[i:i + 1],
                                                 single_rngs[i:i + 1])
            singles[i] = (fi, gi, lli)
            np.testing.assert_array_equal(f[i], fi[0])
            np.testing.assert_array_equal(g[i], gi[0])
            assert ll[i] == lli[0] and used[i] == used_i[0]
            fl, gl, lll, used_l = _reference_transition(
                *loops[i], lambda prop, i=i: float(one(prop.T[None], [0])[0]), lower,
                scales[i], loop_rngs[i])
            loops[i] = (fl, gl, lll)
            np.testing.assert_array_equal(f[i], fl.T)
            np.testing.assert_array_equal(g[i], gl.T)
            assert ll[i] == lll and used[i] == used_l
    assert used.max() > 1  # the check covers shrink rounds, not only first proposals


@pytest.mark.parametrize("k", [1, 3, 5])
def test_batched_transition_matches_one_chain_calls(k):
    # f holds the C - 1 contrasts of g's class rows with row 0
    _check_batched_transition(k, c=2)
    _check_batched_transition(k, c=3)


def test_transition_never_reads_the_strict_upper_triangle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 30))
    dirty = cholesky(a @ a.T + np.eye(30)).lower
    dirty[np.triu_indices(30, 1)] = np.nan
    loglik = lambda props, idx: -2.0 * np.sum((props - 1.0) ** 2, axis=(1, 2))
    runs = []
    for factor in (np.tril(dirty), dirty):
        f, g = np.zeros((3, 2, 30)), np.zeros((3, 3, 30))
        ll = loglik(f, np.arange(3))
        rngs = [RngStream(9, i) for i in range(3)]
        for _ in range(5):
            f, g, ll, used = ess_transition(f, g, ll, loglik, factor, np.ones(3), rngs)
        runs.append((f, g, ll, used))
    for x, y in zip(*runs):
        np.testing.assert_array_equal(x, y)
    assert np.all(np.isfinite(runs[1][0]))


def test_whitened_state_tracks_the_latent_along_a_chain():
    # g is rotated with the angles that rotate the contrasts f, so
    # L @ (g_c - g_0) stays f_c up to rounding over a long run of tempered
    # softmax transitions, as the sweep runs them
    train, _ = gen_cluster_classification(25, 3, 3, 2.0, seed=3)
    lower = _factor(KernelSpec.rbf(), train).lower
    temps = np.array([0.05, 1.0, 4.0])
    index = _index(train.targets)
    loglik = lambda props, idx: _contrast_log_softmax_sums(props, index) / temps[idx]
    f, g = np.zeros((3, 2, train.n)), np.zeros((3, 3, train.n))
    ll = loglik(f, np.arange(3))
    rngs = [RngStream(17, i) for i in range(3)]
    for _ in range(250):
        f, g, ll, _ = ess_transition(f, g, ll, loglik, lower, np.sqrt(temps), rngs)
    for fi, gi in zip(f, _contrasts(g)):
        assert np.max(np.abs(lower @ gi.T - fi.T)) <= 1e-12 * np.max(np.abs(fi))


def test_log_softmax_kernel_rows_match_one_chain_calls():
    # a chain's sum has the same bits whichever batch of chains it shares
    rng = np.random.default_rng(6)
    for n, c in [(1, 2), (7, 3), (300, 2), (2000, 8)]:
        d = 3.0 * rng.standard_normal((4, n, c - 1)).transpose(0, 2, 1).copy()
        y = rng.integers(0, c, size=n)
        index = _index(y)
        sums = _contrast_log_softmax_sums(d, index)
        for i in range(4):
            assert sums[i] == _contrast_log_softmax_sums(d[i:i + 1], index)[0]
        if c == 2:
            sign = 2.0 * y - 1.0
            for i in range(4):
                assert sums[i] == _contrast_log_softmax_sums(d[i:i + 1], index, sign)[0]


def test_ess_prior_recovery_constant_likelihood():
    # with a flat likelihood the chain's stationary law is the prior: one
    # contrast of two classes whose prior scale 1/sqrt(2) gives it covariance sigma
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T + 5 * np.eye(5)
    lower = cholesky(sigma).lower
    sigma_hat = lower @ lower.T  # what the sampler actually uses
    const = lambda props, idx: np.zeros(len(idx))
    stream = [RngStream(2718, 0)]
    f, g, ll = np.zeros((1, 1, 5)), np.zeros((1, 2, 5)), np.zeros(1)
    draws = np.empty((4000, 5))
    for i in range(4200):
        f, g, ll, _ = ess_transition(f, g, ll, const, lower, np.sqrt([0.5]), stream)
        if i >= 200:
            draws[i - 200] = f[0, 0]
    for i in range(5):
        se = batch_means_se(draws[:, i])
        assert abs(draws[:, i].mean()) < 3 * se
        sq = draws[:, i] ** 2
        assert abs(sq.mean() - sigma_hat[i, i]) < 3 * batch_means_se(sq)
    prod = draws[:, 0] * draws[:, 1]
    assert abs(prod.mean() - sigma_hat[0, 1]) < 3 * batch_means_se(prod)


def test_ess_conjugate_gaussian_posterior():
    # Gaussian likelihood keeps everything closed form: posterior precision
    # is prior precision plus I/s^2, on one two-class contrast with prior sigma
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 4 * np.eye(4)
    lower = cholesky(sigma).lower
    sigma_hat = lower @ lower.T
    s2 = 0.25
    y = np.array([1.0, -0.5, 2.0, 0.3])
    post_cov = np.linalg.inv(np.linalg.inv(sigma_hat) + np.eye(4) / s2)
    post_mean = post_cov @ (y / s2)
    loglik = lambda props, idx: -0.5 * np.sum((props[:, 0] - y) ** 2, axis=1) / s2
    stream = [RngStream(99, 0)]
    f, g = np.zeros((1, 1, 4)), np.zeros((1, 2, 4))
    ll = loglik(f, [0])
    n_keep, burn = 20_000, 1000
    draws = np.empty((n_keep, 4))
    for i in range(burn + n_keep):
        f, g, ll, _ = ess_transition(f, g, ll, loglik, lower, np.sqrt([0.5]), stream)
        if i >= burn:
            draws[i - burn] = f[0, 0]
    for i in range(4):
        se = batch_means_se(draws[:, i])
        assert abs(draws[:, i].mean() - post_mean[i]) < 3 * se, f"coord {i}"
        dev = (draws[:, i] - post_mean[i]) ** 2
        assert abs(dev.mean() - post_cov[i, i]) < 3 * batch_means_se(dev), f"var {i}"


def _tiny_problem(seed=0):
    train, test = gen_cluster_classification(8, 2, 3, 2.0, seed=seed)
    cfg = EssConfig(n_chains=2, burn_in=30, n_samples_per_chain=10, thinning=2)
    return train, test, cfg


@pytest.mark.parametrize("c", [2, 3, 7, 8, 10])
def test_class_column_kernels_match_numpy_reductions(c):
    # the kernels add the class rows in order; numpy's reduction along a
    # class-last axis does too below 8 elements and sums pairwise from 8,
    # where the last bit may differ.  The likelihood reads the contrasts
    # f_c - f_0, which round differently from f, so its sums agree to rounding
    rng = np.random.default_rng(c)
    fl = 3.0 * rng.standard_normal((4, 300, c))  # class-last
    f = fl.transpose(0, 2, 1).copy()
    y = rng.integers(0, c, size=300)
    m = fl.max(axis=-1)
    ref_sums = np.sum(fl[:, np.arange(300), y]
                      - (m + np.log(np.sum(np.exp(fl - m[..., None]), axis=-1))), axis=-1)
    e = np.exp(fl - m[..., None])
    ref_probs = (e / e.sum(axis=-1, keepdims=True)).transpose(0, 2, 1)
    sums, probs = _contrast_log_softmax_sums(_contrasts(f), _index(y)), _softmax(f)
    np.testing.assert_allclose(sums, ref_sums, rtol=1e-13)
    if c <= 7:
        np.testing.assert_array_equal(probs, ref_probs)
    else:
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-14)
    np.testing.assert_allclose(probs.sum(axis=-2), 1.0, rtol=1e-14)


@pytest.mark.parametrize("n", [2, 400])
@pytest.mark.parametrize("c", [2, 3, 8, 10])
def test_class_axis_kernels_add_classes_in_order(c, n):
    # on (k, ..., n) arrays the max and the exp-sum over the class axis take
    # the class rows one at a time, in class order, at every class count:
    # bitwise a Python loop over the rows.  A reduction along a contiguous
    # class axis would sum pairwise from 8 classes and differ in the last bit.
    # The likelihood's rows are (0, d_1 .. d_{C-1}) for the contrasts d
    rng = np.random.default_rng(10 * c + n)
    f = 3.0 * rng.standard_normal((4, c, n))
    y = rng.integers(0, c, size=n)
    m = f[:, 0].copy()
    for j in range(1, c):
        m = np.maximum(m, f[:, j])
    s = np.exp(f[:, 0] - m)
    for j in range(1, c):
        s = s + np.exp(f[:, j] - m)
    ref_probs = np.stack([np.exp(f[:, j] - m) / s for j in range(c)], axis=1)
    np.testing.assert_array_equal(_softmax(f), ref_probs)
    d = _contrasts(f)
    m = np.zeros((4, n))
    for j in range(c - 1):
        m = np.maximum(m, d[:, j])
    shifted = np.stack([-m] + [d[:, j] - m for j in range(c - 1)], axis=1)
    s = np.exp(shifted[:, 0])
    for j in range(1, c):
        s = s + np.exp(shifted[:, j])
    # one C-ordered row per chain, so the sum over points is numpy's pairwise one
    ref_sums = np.ascontiguousarray(shifted[:, y, np.arange(n)] - np.log(s)).sum(axis=-1)
    np.testing.assert_array_equal(_contrast_log_softmax_sums(d, _index(y)), ref_sums)


def _factor(kern, train):
    return cholesky(gram(kern, train.inputs, train.inputs))


def test_sample_grid_layout_and_determinism():
    train, _, cfg = _tiny_problem()
    factor = _factor(KernelSpec.rbf(), train)
    temps = [0.5, 2.0]
    eye = np.eye(train.n)  # reads back the whitened samples G
    a, stats = _sample_grid(train, temps, [7, 9], cfg, factor, eye)
    b, stats_b = _sample_grid(train, temps, [7, 9], cfg, factor, eye)
    assert a.shape == (2, cfg.n_chains, cfg.n_samples_per_chain, 2, train.n)
    assert a.dtype == np.float64
    np.testing.assert_array_equal(a, b)
    assert stats == stats_b and len(stats) == len(temps)
    transitions = cfg.n_chains * (cfg.burn_in + cfg.n_samples_per_chain * cfg.thinning)
    for t, st in zip(temps, stats):
        assert st["transitions"] == transitions and st["proposals"] >= transitions
        assert st["proposals_per_transition"] == st["proposals"] / transitions
        assert st["prior_jitter"] == t * factor.jitter_used
    c, _ = _sample_grid(train, [0.5], [8], cfg, factor, eye)
    assert np.max(np.abs(a[0] - c[0])) > 0


def _recorded_sweep(monkeypatch, kern, train, test, temps, cfg, seed):
    """The sweep's output and the (means, stats) its one ``_sample_grid`` call returned."""
    import coldgp.classification as cls

    returned, real = [], cls._sample_grid

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]

    monkeypatch.setattr(cls, "_sample_grid", recording)
    out = cls.classification_temperature_sweep(kern, train, test, temps, cfg, seed=seed)
    monkeypatch.undo()
    assert len(returned) == 1 and returned[0][0].shape[0] == len(temps)
    return out, returned[0]


def test_sweep_samples_match_standalone_calls(monkeypatch):
    # the sweep samples every temperature in one lock-step pass; each grid
    # position must still draw bitwise what a one-temperature grid at that
    # temperature and seed draws.  800 points, a multiple of 8, are where a
    # column of OpenBLAS's triangular product L @ Z has the same bits however
    # many chains share the product (for other n it may differ in the last bit)
    train, test = gen_cluster_classification(400, 2, 3, 2.0, seed=0)
    cfg = EssConfig(n_chains=2, burn_in=10, n_samples_per_chain=4, thinning=2,
                    draws_per_sample=1)
    kern = KernelSpec.rbf()
    temps = [0.05, 1.0, 3.0]
    _, (means, stats) = _recorded_sweep(monkeypatch, kern, train, test, temps, cfg, 5)
    factor = _factor(kern, train)
    v, _ = conditional_at(kern, train.inputs, test.inputs, factor)
    for j, t in enumerate(temps):
        ref, ref_stats = _sample_grid(train, [t], [derive_seed(5, j)], cfg, factor, v)
        np.testing.assert_array_equal(means[j], ref[0])
        assert stats[j] == ref_stats[0]


def _per_sample_prob_means(v, samples, sd, draws_per_sample, rng):
    """The predictive with one conditional-mean product per retained sample.

    Each sample draws ceil(d / 2) sets of (p, C) normals z and averages the
    softmax at mean + sd * z for every set and at mean - sd * z for the
    first floor(d / 2) sets: d antithetic draws.
    """
    n_chains, per_chain, c, _ = samples.shape
    half = (draws_per_sample + 1) // 2
    out = np.zeros((n_chains, v.shape[1], c))
    for ci in range(n_chains):
        for g in samples[ci]:
            mean = v.T @ g.T
            noise = sd[:, None] * rng.standard_normal((half, v.shape[1], c))
            z = np.concatenate([noise, -noise[:draws_per_sample // 2]])
            out[ci] += scipy.special.softmax(mean + z, axis=-1).sum(axis=0)
    return out / (per_chain * draws_per_sample)


def test_sweep_metrics_match_standalone_predictive(monkeypatch):
    # the sweep's metrics at each grid position must equal, bitwise, the
    # predictive kernel run on that position's retained means and stream
    # RngStream(derive_seed(seed, j), n_chains); the means, one product per
    # retained step, must agree with one product per retained sample of G
    train, test = gen_cluster_classification(400, 3, 3, 2.0, seed=1)
    cfg = EssConfig(n_chains=3, burn_in=5, n_samples_per_chain=4, thinning=1,
                    draws_per_sample=2)
    kern = KernelSpec.rbf()
    temps = [0.1, 1.0]
    out, (means, _) = _recorded_sweep(monkeypatch, kern, train, test, temps, cfg, 9)
    factor = _factor(kern, train)
    v, schur = conditional_at(kern, train.inputs, test.inputs, factor)
    seeds = [derive_seed(9, j) for j in range(len(temps))]
    samples, _ = _sample_grid(train, temps, seeds, cfg, factor, np.eye(train.n))
    for j, t in enumerate(temps):
        sd = np.sqrt(t * schur)
        chain_means = _chain_prob_means(means[j], sd, 2, RngStream(derive_seed(9, j), 3))
        ll, acc = classification_metrics(chain_means.mean(axis=0), test.targets)
        assert out["test_log_likelihood"][j] == ll and out["top1_accuracy"][j] == acc
        per_chain = [classification_metrics(cm, test.targets) for cm in chain_means]
        se = [np.std(m, ddof=1) / np.sqrt(3) for m in zip(*per_chain)]
        assert out["mc_se_log_likelihood"][j] == se[0] and out["mc_se_accuracy"][j] == se[1]
        assert se[0] > 0.0
        ref = _per_sample_prob_means(v, samples[j], sd, 2, RngStream(derive_seed(9, j), 3))
        np.testing.assert_allclose(chain_means, ref, rtol=1e-10, atol=1e-14)


def test_tempered_log_likelihood_scales_as_inverse_temperature(monkeypatch):
    # the likelihood the sweep hands the sampler is the log-softmax sum at
    # the labels divided by each chain's temperature, for the starting
    # states and for proposals of any subset of chains.  The sampler's states
    # are the C - 1 class contrasts f_c - f_0, zero at the start
    import coldgp.classification as cls

    first = []

    def recording(f, g, ll, log_lik, *args):
        if not first:
            first.append((f.copy(), ll.copy(), log_lik))
        return ess_transition(f, g, ll, log_lik, *args)

    monkeypatch.setattr(cls, "ess_transition", recording)
    train, test = gen_cluster_classification(4, 3, 3, 2.0, seed=0)
    cfg = EssConfig(n_chains=2, burn_in=1, n_samples_per_chain=1, thinning=1,
                    draws_per_sample=1)
    temps = [0.25, 1.0, 2.0]
    cls.classification_temperature_sweep(KernelSpec.rbf(), train, test, temps, cfg, seed=0)
    f0, ll0, log_lik = first[0]
    chain_t = np.repeat(temps, cfg.n_chains)
    y = train.targets
    assert f0.shape == (len(chain_t), 2, train.n) and not f0.any()
    np.testing.assert_array_equal(ll0, _contrast_log_softmax_sums(f0, _index(y)) / chain_t)
    one = np.random.default_rng(0).standard_normal((1, train.n, 2)).transpose(0, 2, 1).copy()
    base = _contrast_log_softmax_sums(one, _index(y))[0]
    props = np.repeat(one, len(chain_t), axis=0)
    got = log_lik(props, np.arange(len(chain_t)))
    assert got.tolist() == [base / 0.25] * 2 + [base] * 2 + [base / 2.0] * 2
    idx = np.array([1, 4])
    assert log_lik(props[idx], idx).tolist() == [base / 0.25, base / 2.0]


@pytest.mark.parametrize("n_temps,n_chains", [(1, 1), (3, 2), (5, 4)])
def test_sweep_makes_one_transition_call_per_step(monkeypatch, n_temps, n_chains):
    # every (temperature, chain) pair advances in the same call, so the call
    # count is one chain's step count whatever the grid size and chain count
    import coldgp.classification as cls

    calls = []

    def counting(f, *args):
        calls.append(f.shape[0])
        return ess_transition(f, *args)

    monkeypatch.setattr(cls, "ess_transition", counting)
    train, test, _ = _tiny_problem()
    cfg = EssConfig(n_chains=n_chains, burn_in=7, n_samples_per_chain=3, thinning=2,
                    draws_per_sample=1)
    temps = [0.1 * (j + 1) for j in range(n_temps)]
    out = cls.classification_temperature_sweep(KernelSpec.rbf(), train, test, temps, cfg,
                                               seed=0)
    assert len(calls) == cfg.burn_in + cfg.n_samples_per_chain * cfg.thinning
    assert set(calls) == {n_temps * n_chains}
    assert [s["transitions"] for s in out["stats"]] == [n_chains * len(calls)] * n_temps


@pytest.mark.parametrize("c", [2, 8])
def test_sweep_prior_draws_multiply_one_column_per_contrast(monkeypatch, c):
    # the chains carry the C - 1 class contrasts, so each transition's one
    # triangular product takes k * (C - 1) columns, not k * C.  The product
    # is the trmm routine of the build that coldgp.linalg computes with
    import coldgp.linalg as linalg

    columns, routines = [], linalg._lapack()

    def recording(lower, b):
        columns.append(b.shape[1])
        return routines.trmm(lower, b)

    monkeypatch.setattr(linalg, "_lapack", lambda: routines._replace(trmm=recording))
    train, test = gen_cluster_classification(5, c, 4, 2.0, seed=0)
    cfg = EssConfig(n_chains=2, burn_in=3, n_samples_per_chain=2, thinning=2,
                    draws_per_sample=1)
    temps = [0.5, 1.0, 2.0]
    classification_temperature_sweep(KernelSpec.rbf(), train, test, temps, cfg, seed=0)
    steps = cfg.burn_in + cfg.n_samples_per_chain * cfg.thinning
    assert columns == [len(temps) * cfg.n_chains * (c - 1)] * steps


def test_sweep_memory_is_factor_readout_and_retained_means():
    # the sweep holds one n x n array (the Gram, factored in place), the
    # n x p readout v and the retained (T, chains, S, C, p) test-latent means;
    # the rest is bounded scratch.  Retaining the whitened (..., C, n) samples
    # instead exceeds the bound, as does a second n x n array kept alive
    # through the sampler (the in-place factor tests cover the Cholesky)
    train, test = gen_cluster_classification(300, 2, 3, 2.0, seed=0)
    n, p = train.n, test.n
    assert (n, p) == (600, 300)
    cfg = EssConfig(n_chains=2, burn_in=5, n_samples_per_chain=300, thinning=1,
                    draws_per_sample=1)
    temps = [0.5, 1.0]
    retained = len(temps) * cfg.n_chains * cfg.n_samples_per_chain * train.class_count * p
    bound = 8 * (n * n + n * p + retained) + 2 * 2**20
    small_train, small_test = gen_cluster_classification(4, 2, 3, 2.0, seed=0)
    # loads scipy.spatial and every code path outside the trace
    classification_temperature_sweep(KernelSpec.rbf(), small_train, small_test, temps,
                                     dataclasses.replace(cfg, n_samples_per_chain=2))
    tracemalloc.start()
    try:
        classification_temperature_sweep(KernelSpec.rbf(), train, test, temps, cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_sweep_factors_its_gram_in_place(monkeypatch):
    # 400 training points, past one row block, and 100 within it: the Gram
    # becomes the factor
    import coldgp.classification as cls

    for n_per_class in (200, 50):
        with monkeypatch.context() as patch:
            factors = record_factors(patch, cls)
            train, test = gen_cluster_classification(n_per_class, 2, 3, 2.0, seed=0)
            cls.classification_temperature_sweep(
                KernelSpec.rbf(), train, test, [1.0],
                EssConfig(n_chains=1, burn_in=1, n_samples_per_chain=1, thinning=1,
                          draws_per_sample=1))
        [(gram_built, factor)] = factors
        assert np.shares_memory(gram_built, factor.lower)


@pytest.mark.parametrize("n_temps", [1, 4])
def test_sweep_builds_one_gram_pair_and_one_factor(monkeypatch, n_temps):
    # the sweep's work count, whatever the grid size: two Gram builds, one
    # factor, one triangular solve, and burn_in + samples * thinning
    # transitions that each advance every (temperature, chain) state.  The
    # Grams and the factor are the sweep's own; the solve is that of the
    # shared conditional in coldgp.regression, in the cross-Gram's buffer
    import coldgp.classification as cls
    import coldgp.regression as reg

    own = count_calls(monkeypatch, cls, ["gram", "cholesky"])
    shared = count_calls(monkeypatch, reg, ["gram", "tril_solve"])
    states = []

    def transition(f, *args):
        states.append(f.shape[0])
        return ess_transition(f, *args)

    monkeypatch.setattr(cls, "ess_transition", transition)
    train, test, cfg = _tiny_problem()
    temps = [0.1 * (j + 1) for j in range(n_temps)]
    cls.classification_temperature_sweep(KernelSpec.rbf(), train, test, temps,
                                         dataclasses.replace(cfg, draws_per_sample=1), seed=0)
    # K(X, X) and chol(K(X, X)); K(X*, X) and v = L^{-1} K(X, X*)
    assert own == {"gram": 2, "cholesky": 1}
    assert shared == {"gram": 0, "tril_solve": 1}
    assert states == [n_temps * cfg.n_chains] * (
        cfg.burn_in + cfg.n_samples_per_chain * cfg.thinning)


def test_conditional_mean_is_temperature_free():
    # the conditional pieces take no temperature; it enters the predictive
    # only as t * schur, so the conditional mean v^T G cannot depend on it
    train, test, _ = _tiny_problem()
    kern = KernelSpec.rbf()
    k = gram(kern, train.inputs, train.inputs)
    factor = cholesky(k)
    v, schur = conditional_at(kern, train.inputs, test.inputs, factor)
    np.testing.assert_allclose(factor.lower @ v, gram(kern, train.inputs, test.inputs),
                               rtol=1e-12, atol=1e-14)
    assert schur.shape == (test.n,) and np.all(schur >= 0.0)


def test_whitened_means_match_two_solve_means():
    # v^T G with one solve is the textbook K(X*, X) K^{-1} F, with F = L G and
    # b = K^{-1} K(X, X*) from the two solves L^{-T} (L^{-1} K(X, X*))
    train, test, cfg = _tiny_problem()
    kern = KernelSpec.rbf()
    factor = _factor(kern, train)
    v, _ = conditional_at(kern, train.inputs, test.inputs, factor)
    means, _ = _sample_grid(train, [0.3], [11], cfg, factor, v)
    b = solve_triangular(factor.lower, solve_triangular(
        factor.lower, gram(kern, train.inputs, test.inputs), lower=True), lower=True, trans="T")
    # the readout L^T retains each class row f_c = L g_c
    latents, _ = _sample_grid(train, [0.3], [11], cfg, factor, factor.lower.T)
    np.testing.assert_allclose(means[0], latents[0] @ b, rtol=1e-10)


def test_predictive_probs_rows_sum_to_one():
    train, test, cfg = _tiny_problem()
    kern = KernelSpec.rbf()
    factor = _factor(kern, train)
    v, schur = conditional_at(kern, train.inputs, test.inputs, factor)
    means, _ = _sample_grid(train, [0.3], [11], cfg, factor, v)
    probs = _chain_prob_means(means[0], np.sqrt(0.3 * schur), 3,
                              RngStream(11, cfg.n_chains))
    assert probs.shape == (cfg.n_chains, test.n, 2)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_predictive_probs_prior_path_is_symmetric():
    # zero conditional means with sd = sqrt(t * k**): the test latents are
    # prior draws, so the classes are exchangeable
    t, xs = 1.0, np.array([[0.0], [5.0]])
    sd = np.sqrt(t * gram_diag(KernelSpec.rbf(), xs))
    probs = _chain_prob_means(np.zeros((1, 1, 2, 2)), sd, 4000, RngStream(0, 1))
    np.testing.assert_allclose(probs[0], 0.5, atol=0.03)


def test_predictive_probs_prior_path_is_symmetric_at_three_classes():
    # at two classes an antithetic pair gives sigma(a) + sigma(-a) = 1, so the
    # check above holds whatever sd is; three classes with an odd draw count
    # (one draw without its mirror) have no such identity
    t, xs = 1.0, np.array([[0.0], [5.0]])
    sd = np.sqrt(t * gram_diag(KernelSpec.rbf(), xs))
    probs = _chain_prob_means(np.zeros((1, 1, 3, 2)), sd, 3999, RngStream(0, 1))
    np.testing.assert_allclose(probs[0], 1.0 / 3.0, atol=0.03)


class _CountingStream:
    """An RngStream that records the size of every normal draw."""

    def __init__(self, stream):
        self.stream, self.sizes = stream, []

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.stream.standard_normal(size)


@pytest.mark.parametrize("draws", [1, 3])
def test_predictive_draws_antithetic_pairs(monkeypatch, draws):
    # each retained sample takes ceil(d / 2) * p * C normals from the stream,
    # in one call, and averages exactly d softmax rows: mean + sd * z for
    # every set of normals, then mean - sd * z for the first floor(d / 2)
    import coldgp.classification as cls

    rng = np.random.default_rng(4)
    n_chains, per_chain, c, p = 2, 3, 3, 5
    means = rng.standard_normal((n_chains, per_chain, c, p))
    sd = rng.uniform(0.5, 2.0, p)
    rows = []
    softmax = cls._softmax
    monkeypatch.setattr(cls, "_softmax", lambda f: rows.append(f.copy()) or softmax(f))
    stream = _CountingStream(RngStream(3, n_chains))
    probs = _chain_prob_means(means, sd, draws, stream)
    monkeypatch.undo()

    half = (draws + 1) // 2
    assert stream.sizes == [(half, p, c)] * (n_chains * per_chain)
    # the stream has advanced by exactly the normals the sizes name
    fresh = RngStream(3, n_chains)
    fresh.standard_normal(n_chains * per_chain * half * p * c)
    assert stream.standard_normal(4).tolist() == fresh.standard_normal(4).tolist()

    replay = RngStream(3, n_chains)
    assert len(rows) == n_chains * per_chain
    for i, f in enumerate(rows):
        z = sd * replay.standard_normal((half, p, c)).transpose(0, 2, 1)
        mean = means[i // per_chain, i % per_chain]
        assert f.shape == (draws, c, p)
        np.testing.assert_array_equal(f[:half], mean + z)
        np.testing.assert_array_equal(f[half:], mean - z[:draws // 2])
    ref = np.array([scipy.special.softmax(np.stack(rows[ci * per_chain:(ci + 1) * per_chain]),
                                          axis=-2).mean(axis=(0, 1)).T
                    for ci in range(n_chains)])
    np.testing.assert_allclose(probs, ref, rtol=1e-13)


def test_antithetic_predictive_spreads_less_than_independent_draws():
    # over 40 fixed seeds, one chain's estimate from d = 8 antithetic draws per
    # sample must spread less than the same estimate from 8 independent
    # draws; the threshold, 0.7 of the independent spread, was fixed before
    # the first run (it reads about 0.4)
    rng = np.random.default_rng(7)
    per_chain, c, p, draws = 5, 3, 40, 8
    means = rng.standard_normal((1, per_chain, c, p))
    sd = rng.uniform(0.5, 1.5, p)
    antithetic, independent = [], []
    for seed in range(40):
        antithetic.append(_chain_prob_means(means, sd, draws, RngStream(seed, 1))[0])
        z = RngStream(seed, 2).standard_normal((per_chain, draws, p, c)).transpose(0, 1, 3, 2)
        latents = means[0][:, None] + sd * z
        independent.append(scipy.special.softmax(latents, axis=-2).mean(axis=(0, 1)).T)
    spread = np.std(antithetic, axis=0).mean()
    reference = np.std(independent, axis=0).mean()
    assert spread < 0.7 * reference, (spread, reference)


def test_classification_metrics_hand_values():
    probs = np.array([[0.8, 0.2], [0.4, 0.6]])
    ll, acc = classification_metrics(probs, np.array([0, 1]))
    np.testing.assert_allclose(ll, (np.log(0.8) + np.log(0.6)) / 2, rtol=1e-14)
    assert acc == 1.0
    ll0, acc0 = classification_metrics(np.array([[1.0, 0.0]]), np.array([1]))
    np.testing.assert_allclose(ll0, np.log(1e-12), rtol=1e-14)  # probability floor
    assert acc0 == 0.0


def test_classification_metrics_validation():
    with pytest.raises(LengthMismatchError):
        classification_metrics(np.ones((2, 2)) / 2, np.array([0]))
    with pytest.raises(LabelOutOfRangeError):
        classification_metrics(np.ones((1, 2)) / 2, np.array([2]))
    with pytest.raises(EmptyInputError):
        classification_metrics(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_sweep_shape_and_determinism():
    train, test, cfg = _tiny_problem()
    kern = KernelSpec.rbf()
    temps = [0.1, 1.0]
    cfg = dataclasses.replace(cfg, draws_per_sample=2)
    a = classification_temperature_sweep(kern, train, test, temps, cfg, seed=5)
    b = classification_temperature_sweep(kern, train, test, temps, cfg, seed=5)
    metrics = ("test_log_likelihood", "top1_accuracy", "mc_se_log_likelihood", "mc_se_accuracy")
    assert set(a) == set(metrics) | {"stats"}
    for key in metrics:
        assert a[key].dtype == np.float64 and a[key].shape == (len(temps),)
        assert np.array_equal(a[key], b[key])
    assert a["stats"] == b["stats"]
    assert np.all(a["mc_se_log_likelihood"] >= 0.0)
    assert len(a["stats"]) == len(temps)
    for stats in a["stats"]:
        assert stats["proposals_per_transition"] > 0


def test_sweep_rejects_bad_inputs(monkeypatch):
    import coldgp.classification as cls

    grams = []
    monkeypatch.setattr(cls, "gram", lambda *args: grams.append(args))
    train, test, cfg = _tiny_problem()
    with pytest.raises(EmptyInputError):
        classification_temperature_sweep(KernelSpec.rbf(), train, test, [], cfg, seed=0)
    with pytest.raises(NonPositiveTemperatureError):
        classification_temperature_sweep(KernelSpec.rbf(), train, test, [-1.0], cfg, seed=0)
    with pytest.raises(ValueError, match="draws_per_sample"):
        EssConfig(draws_per_sample=0)
    assert grams == []  # rejected before any Gram is built


def test_ess_config_validation():
    with pytest.raises(ValueError):
        EssConfig(n_chains=0)
    with pytest.raises(ValueError):
        EssConfig(burn_in=-1)
    with pytest.raises(ValueError):
        EssConfig(n_samples_per_chain=0)
    with pytest.raises(ValueError):
        EssConfig(thinning=0)
