import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from coldgp.data import LabeledDataset, gen_cluster_classification, gen_rbf_regression
from coldgp.exceptions import EmptyInputError, NonPositiveTemperatureError, ZeroVarianceError
from coldgp.kernels import KernelSpec, gram, gram_diag
from coldgp.linalg import cholesky, tril_solve
from coldgp.records import best_temperature
from coldgp.regression import (
    _mean_gaussian_nll,
    condition,
    conditional,
    regression_temperature_sweep,
)

from helpers import max_rel_err, predict, record_factors, scale_kernel


def _dataset(inputs, targets):
    x = np.asarray(inputs, dtype=np.float64).reshape(len(targets), -1)
    return LabeledDataset(x, np.asarray(targets, dtype=np.float64), None, "train", {})


def _spaced_inputs(n, rng):
    # spacing ~0.8 lengthscales keeps cond(K) around 1e3 at n=50 while
    # neighbors stay strongly correlated; the 1e-8 identity checks below
    # need the conditioning headroom
    return ((np.arange(n) + rng.uniform(0.2, 0.8, n)) * 0.8).reshape(-1, 1)


def test_single_point_conjugate_posterior():
    # k=1, noise var 1, y=1: posterior mean at the site is 1/2, variance
    # 1 - 1/2 + 1 = 3/2
    train = _dataset([[0.0]], [1.0])
    mean, var = predict(KernelSpec("rbf"), 1.0, train, [[0.0]])
    np.testing.assert_allclose(mean, [0.5], rtol=1e-12)
    np.testing.assert_allclose(var, [1.5], rtol=1e-12)


def test_far_point_reverts_to_prior():
    train = _dataset([[0.0]], [3.0])
    mean, var = predict(KernelSpec("rbf", variance=2.0), 0.5, train, [[60.0]])
    np.testing.assert_allclose(mean, [0.0], atol=1e-12)
    np.testing.assert_allclose(var, [2.0 + 0.25], rtol=1e-12)


def test_noiseless_interpolation():
    rng = np.random.default_rng(3)
    x = _spaced_inputs(12, rng)
    y = np.sin(x[:, 0])
    means, var = predict(KernelSpec("rbf"), 0.0, _dataset(x, y), x)
    np.testing.assert_allclose(means, y, atol=1e-7)
    assert np.all(var >= 0.0)


def _nll(mean, variance, targets):
    """The sweep's test NLL of one row of predictions."""
    return _mean_gaussian_nll(np.array(mean), np.array(variance), np.array(targets))


def test_gaussian_test_nll_hand_value():
    # standard normal at its mean: 0.5 log(2 pi)
    np.testing.assert_allclose(_nll([0.0], [1.0], [0.0]), 0.9189385332046727, rtol=1e-15)
    # one sd away adds 1/2
    np.testing.assert_allclose(_nll([0.0], [1.0], [1.0]), 0.9189385332046727 + 0.5,
                               rtol=1e-14)


def test_gaussian_test_nll_validation():
    with pytest.raises(ZeroVarianceError):
        _nll([0.0], [0.0], [0.0])
    with pytest.raises(ZeroVarianceError):
        _nll([0.0], [-1e-3], [0.0])


def test_sweep_tempers_variance_only():
    # each grid point scores the untempered means with variance * t
    train, test = gen_rbf_regression(12, 6, 0.1, KernelSpec("rbf"), seed=4)
    mean, var = predict(KernelSpec("rbf"), 0.3, train, test.inputs)
    temps = [0.1, 1.0, 7.0]
    nll, _ = regression_temperature_sweep(KernelSpec("rbf"), [0.3], train, test, temps)
    for j, t in enumerate(temps):
        assert nll[0, j] == _mean_gaussian_nll(mean, var * t, test.targets)
    with pytest.raises(NonPositiveTemperatureError):
        regression_temperature_sweep(KernelSpec("rbf"), [0.3], train, test, [0.0])
    with pytest.raises(NonPositiveTemperatureError):
        regression_temperature_sweep(KernelSpec("rbf"), [0.3], train, test, [-1.0])


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0])
def test_tempering_identity_noiseless(t):
    # scaling the kernel by t and doing exact inference equals tempering the
    # unscaled posterior: same mean, variance scaled by t
    rng = np.random.default_rng(17)
    x = _spaced_inputs(25, rng)
    y = np.sin(1.3 * x[:, 0]) + 0.1 * rng.standard_normal(25)
    xs = rng.uniform(x.min(), x.max(), (15, 1))
    train = _dataset(x, y)
    ref_mean, ref_var = predict(KernelSpec("rbf"), 0.0, train, xs)
    got_mean, got_var = predict(scale_kernel(KernelSpec("rbf"), t), 0.0, train, xs)
    assert max_rel_err(got_mean, ref_mean) < 1e-8
    assert max_rel_err(got_var, ref_var * t) < 1e-8


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0])
def test_tempering_identity_with_noise(t):
    # (t K, t sigma^2) exact inference equals tempering the (K, sigma^2)
    # posterior
    rng = np.random.default_rng(23)
    x = _spaced_inputs(30, rng)
    y = np.cos(x[:, 0]) + 0.3 * rng.standard_normal(30)
    xs = rng.uniform(x.min(), x.max(), (12, 1))
    sigma = 0.4
    train = _dataset(x, y)
    ref_mean, ref_var = predict(KernelSpec("rbf"), sigma, train, xs)
    got_mean, got_var = predict(scale_kernel(KernelSpec("rbf"), t), sigma * np.sqrt(t),
                                train, xs)
    assert max_rel_err(got_mean, ref_mean) < 1e-8
    assert max_rel_err(got_var, ref_var * t) < 1e-8


def test_condition_reuses_the_shared_grams():
    # every noise level of a dataset conditions on the one K(X, X), K(X*, X)
    # and k**, which condition leaves as they are: a sweep over three noise
    # levels gives, row for row, the bits of a sweep at each level alone
    train, test = gen_rbf_regression(30, 9, 0.1, KernelSpec("rbf"), seed=5)
    sigmas, temps = [1.0, 0.1, 0.01], [0.1, 1.0, 10.0]
    nll, jitters = regression_temperature_sweep(KernelSpec("rbf"), sigmas, train, test, temps)
    assert nll.shape == (len(sigmas), len(temps)) and len(jitters) == len(sigmas)
    for i, sigma in enumerate(sigmas):
        alone, [jitter] = regression_temperature_sweep(KernelSpec("rbf"), [sigma], train, test,
                                                       temps)
        np.testing.assert_array_equal(nll[i], alone[0])
        assert jitters[i] == jitter


def test_whitened_targets_give_the_textbook_mean():
    # beta = L^{-1} y from one solve: v^T beta is K(X*, X) (K + s^2 I)^{-1} y
    # and beta . beta the marginal likelihood's data-fit term
    rng = np.random.default_rng(7)
    x, xs = _spaced_inputs(30, rng), rng.uniform(0.0, 24.0, (9, 1))
    y = rng.standard_normal(30)
    kern = KernelSpec("rbf")
    mean, _, factor = condition(gram(kern, x, x), gram(kern, xs, x), gram_diag(kern, xs), y, 0.3)
    noisy = gram(kern, x, x) + 0.3**2 * np.eye(30)
    np.testing.assert_allclose(mean, gram(kern, xs, x) @ np.linalg.solve(noisy, y), rtol=1e-10)
    beta = tril_solve(factor.lower, y.copy())
    np.testing.assert_allclose(beta @ beta, y @ np.linalg.solve(noisy, y), rtol=1e-10)


def test_in_place_conditioning_matches_fresh_array_expressions():
    # sigma^2 goes onto the diagonal of a copy of the Gram and the predictive
    # solve runs in a copy of the cross-Gram; the bits are those of the
    # expressions, and the shared Grams are left as they were
    rng = np.random.default_rng(6)
    x, xs = _spaced_inputs(30, rng), rng.uniform(0.0, 24.0, (7, 1))
    kern = KernelSpec("rbf")
    prior, cross, prior_diag = gram(kern, x, x), gram(kern, xs, x), gram_diag(kern, xs)
    _, variance, factor = condition(prior, cross, prior_diag, rng.standard_normal(30), 0.3)
    ref = cholesky(gram(kern, x, x) + 0.3**2 * np.eye(30))
    np.testing.assert_array_equal(factor.lower, ref.lower)
    v = solve_triangular(ref.lower, gram(kern, xs, x).T, lower=True)
    schur = np.clip(gram_diag(kern, xs) - np.einsum("ij,ij->j", v, v), 0.0, None)
    np.testing.assert_array_equal(variance, schur + 0.3**2)
    np.testing.assert_array_equal(prior, gram(kern, x, x))
    np.testing.assert_array_equal(cross, gram(kern, xs, x))
    np.testing.assert_array_equal(prior_diag, gram_diag(kern, xs))


@pytest.mark.parametrize("kern", [KernelSpec("rbf", lengthscale=2.0), KernelSpec("nngp")],
                         ids=["rbf", "nngp"])
def test_conditional_holds_one_test_by_train_array(kern):
    # the one solve runs in the buffer of K(X*, X), which the caller builds and
    # hands over; past it only the Gram's own block scratch is allocated.  The
    # result is bitwise the fresh-array solve
    rng = np.random.default_rng(8)
    x, xs = rng.standard_normal((1500, 4)), rng.standard_normal((1000, 4))
    factor = cholesky(gram(kern, x, x))
    gram(kern, xs[:2], x[:2])  # loads scipy.spatial outside the trace
    tracemalloc.start()
    try:
        v, schur = conditional(factor, gram(kern, xs, x), gram_diag(kern, xs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * v.nbytes
    ref = solve_triangular(factor.lower, gram(kern, xs, x).T, lower=True, check_finite=False)
    np.testing.assert_array_equal(v, ref)
    np.testing.assert_array_equal(
        schur, np.clip(gram_diag(kern, xs) - np.einsum("ij,ij->j", ref, ref), 0.0, None))


def test_model_validation():
    # each assumed noise level must be finite and >= 0, and there must be one
    train, test = gen_rbf_regression(5, 5, 0.1, KernelSpec("rbf"), seed=0)
    for noise_stds in ([0.1, -0.1], [np.nan]):
        with pytest.raises(ValueError, match="finite and >= 0"):
            regression_temperature_sweep(KernelSpec("rbf"), noise_stds, train, test, [1.0])
    with pytest.raises(EmptyInputError):
        regression_temperature_sweep(KernelSpec("rbf"), [], train, test, [1.0])


def test_conditioning_noise_with_an_overflowing_square_is_rejected():
    # conditioning squares the noise in Python floats, so noise_std 1e200
    # would raise a bare OverflowError; the sweep rejects it first
    train, test = gen_rbf_regression(5, 5, 0.1, KernelSpec("rbf"), seed=0)
    with pytest.raises(ValueError, match="noise_std is squared"):
        regression_temperature_sweep(KernelSpec("rbf"), [1e200], train, test, [1.0])


def test_classification_data_rejected():
    train, test = gen_cluster_classification(5, 2, 2, 2.0, seed=0)
    with pytest.raises(ValueError):
        regression_temperature_sweep(KernelSpec("rbf"), [0.1], train, test, [1.0])


def test_sweep_records_and_best():
    train, test = gen_rbf_regression(40, 20, 0.1, KernelSpec("rbf"), seed=9)
    kern = KernelSpec("rbf")
    temps = [0.1, 1.0, 10.0]
    nll, jitters = regression_temperature_sweep(kern, [0.1], train, test, temps)
    # one row per noise level with one entry per grid position, in grid
    # order: a reversed grid reverses it
    assert nll.dtype == np.float64 and nll.shape == (1, len(temps))
    assert np.all(np.isfinite(nll))
    reversed_nll, _ = regression_temperature_sweep(kern, [0.1], train, test, temps[::-1])
    np.testing.assert_array_equal(reversed_nll, nll[:, ::-1])
    x, xs = train.inputs, test.inputs
    factor = condition(gram(kern, x, x), gram(kern, xs, x), gram_diag(kern, xs),
                       train.targets, 0.1)[2]
    assert jitters == [factor.jitter_used]
    assert best_temperature(temps, nll[0]) == temps[int(np.argmin(nll[0]))]


def test_sweep_rejects_bad_grid():
    train, test = gen_rbf_regression(10, 5, 0.1, KernelSpec("rbf"), seed=0)
    kern = KernelSpec("rbf")
    with pytest.raises(EmptyInputError):
        regression_temperature_sweep(kern, [0.1], train, test, [])
    with pytest.raises(NonPositiveTemperatureError):
        regression_temperature_sweep(kern, [0.1], train, test, [1.0, -2.0])
    # a grid point whose tempered variances underflow to 0 has no NLL
    with pytest.raises(ZeroVarianceError):
        regression_temperature_sweep(kern, [0.1], train, test, [1.0, 5e-324])


def test_best_temperature_tie_goes_to_smaller_temperature():
    temps, values = [2.0, 0.5, 1.0], np.array([1.0, 1.0, 3.0])
    assert best_temperature(temps, values) == 0.5
    assert best_temperature(temps, -values) == 1.0  # maximize by negating
    with pytest.raises(EmptyInputError):
        best_temperature([], [])


def test_generator_and_fit_factor_their_grams_in_place(monkeypatch):
    # at fig3b's sizes (a generator Gram of 200 rows, fits of 100) and past
    # one row block (n > 362), the generator hands over the Gram it built and
    # the fit its noisy copy of the shared Gram, and that buffer becomes the
    # factor, so neither holds a further n x n array
    import coldgp.linalg
    import coldgp.regression as reg

    for n_train, n_test in [(100, 100), (400, 10)]:
        with monkeypatch.context() as patch:
            generated = record_factors(patch, coldgp.linalg)  # data imports it at call time
            train, test = gen_rbf_regression(n_train, n_test, 0.1, KernelSpec("rbf"), seed=3)
            fitted = record_factors(patch, reg)
            regression_temperature_sweep(KernelSpec("rbf"), [1.0, 0.1], train, test, [1.0])
        assert [np.shares_memory(a, f.lower) for a, f in generated + fitted] == [True] * 3
