import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from coldgp.data import LabeledDataset, gen_cluster_classification, gen_rbf_regression
from coldgp.exceptions import EmptyInputError, NonPositiveTemperatureError, ZeroVarianceError
from coldgp.kernels import KernelSpec, gram, gram_diag
from coldgp.linalg import cholesky
from coldgp.records import best_temperature
from coldgp.regression import (
    ConditionedRegression,
    RegressionModel,
    _mean_gaussian_nll,
    conditional,
    regression_temperature_sweep,
)

from helpers import max_rel_err, record_factors, scale_kernel


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
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=1.0)
    train = _dataset([[0.0]], [1.0])
    mean, var = ConditionedRegression(model, train).predict([[0.0]])
    np.testing.assert_allclose(mean, [0.5], rtol=1e-12)
    np.testing.assert_allclose(var, [1.5], rtol=1e-12)


def test_far_point_reverts_to_prior():
    model = RegressionModel(kernel=KernelSpec.rbf(variance=2.0), noise_std=0.5)
    train = _dataset([[0.0]], [3.0])
    mean, var = ConditionedRegression(model, train).predict([[60.0]])
    np.testing.assert_allclose(mean, [0.0], atol=1e-12)
    np.testing.assert_allclose(var, [2.0 + 0.25], rtol=1e-12)


def test_noiseless_interpolation():
    rng = np.random.default_rng(3)
    x = _spaced_inputs(12, rng)
    y = np.sin(x[:, 0])
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.0)
    means, var = ConditionedRegression(model, _dataset(x, y)).predict(x)
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
    train, test = gen_rbf_regression(12, 6, 0.1, KernelSpec.rbf(), seed=4)
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.3)
    mean, var = ConditionedRegression(model, train).predict(test.inputs)
    temps = [0.1, 1.0, 7.0]
    nll, _ = regression_temperature_sweep(model, train, test, temps)
    for j, t in enumerate(temps):
        assert nll[j] == _mean_gaussian_nll(mean, var * t, test.targets)
    with pytest.raises(NonPositiveTemperatureError):
        regression_temperature_sweep(model, train, test, [0.0])
    with pytest.raises(NonPositiveTemperatureError):
        regression_temperature_sweep(model, train, test, [-1.0])


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 10.0])
def test_tempering_identity_noiseless(t):
    # scaling the kernel by t and doing exact inference equals tempering the
    # unscaled posterior: same mean, variance scaled by t
    rng = np.random.default_rng(17)
    x = _spaced_inputs(25, rng)
    y = np.sin(1.3 * x[:, 0]) + 0.1 * rng.standard_normal(25)
    xs = rng.uniform(x.min(), x.max(), (15, 1))
    base = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.0)
    scaled = RegressionModel(kernel=scale_kernel(KernelSpec.rbf(), t), noise_std=0.0)
    train = _dataset(x, y)
    ref_mean, ref_var = ConditionedRegression(base, train).predict(xs)
    got_mean, got_var = ConditionedRegression(scaled, train).predict(xs)
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
    base = RegressionModel(kernel=KernelSpec.rbf(), noise_std=sigma)
    scaled = RegressionModel(kernel=scale_kernel(KernelSpec.rbf(), t),
                             noise_std=sigma * np.sqrt(t))
    train = _dataset(x, y)
    ref_mean, ref_var = ConditionedRegression(base, train).predict(xs)
    got_mean, got_var = ConditionedRegression(scaled, train).predict(xs)
    assert max_rel_err(got_mean, ref_mean) < 1e-8
    assert max_rel_err(got_var, ref_var * t) < 1e-8


def test_condition_reuses_factorization():
    rng = np.random.default_rng(5)
    x = _spaced_inputs(10, rng)
    y = rng.standard_normal(10)
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.2)
    fit = ConditionedRegression(model, _dataset(x, y))
    a_mean, a_var = fit.predict(x[:4])
    b_mean, b_var = fit.predict(x[:4])
    c_mean, c_var = ConditionedRegression(model, _dataset(x, y)).predict(x[:4])
    np.testing.assert_array_equal(a_mean, b_mean)
    np.testing.assert_array_equal(a_var, b_var)
    np.testing.assert_array_equal(a_mean, c_mean)
    np.testing.assert_array_equal(a_var, c_var)


def test_whitened_targets_give_the_textbook_mean():
    # beta = L^{-1} y from one solve: v^T beta is K(X*, X) (K + s^2 I)^{-1} y
    # and beta . beta the marginal likelihood's data-fit term
    rng = np.random.default_rng(7)
    x, xs = _spaced_inputs(30, rng), rng.uniform(0.0, 24.0, (9, 1))
    y = rng.standard_normal(30)
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.3)
    fit = ConditionedRegression(model, _dataset(x, y))
    noisy = gram(model.kernel, x, x) + 0.3**2 * np.eye(30)
    np.testing.assert_allclose(fit.predict(xs)[0],
                               gram(model.kernel, xs, x) @ np.linalg.solve(noisy, y),
                               rtol=1e-10)
    np.testing.assert_allclose(fit.beta @ fit.beta, y @ np.linalg.solve(noisy, y), rtol=1e-10)


def test_in_place_conditioning_matches_fresh_array_expressions():
    # sigma^2 goes onto the Gram's diagonal in place and the predictive solve
    # runs in the cross-Gram's buffer; the bits are those of the expressions
    rng = np.random.default_rng(6)
    x, xs = _spaced_inputs(30, rng), rng.uniform(0.0, 24.0, (7, 1))
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.3)
    fit = ConditionedRegression(model, _dataset(x, rng.standard_normal(30)))
    ref = cholesky(gram(model.kernel, x, x) + 0.3**2 * np.eye(30))
    np.testing.assert_array_equal(fit.factor.lower, ref.lower)
    v = solve_triangular(ref.lower, gram(model.kernel, xs, x).T, lower=True)
    schur = np.clip(gram_diag(model.kernel, xs) - np.einsum("ij,ij->j", v, v), 0.0, None)
    np.testing.assert_array_equal(fit.predict(xs)[1], schur + 0.3**2)


@pytest.mark.parametrize("kern", [KernelSpec.rbf(lengthscale=2.0), KernelSpec.nngp()],
                         ids=["rbf", "nngp"])
def test_conditional_holds_one_test_by_train_array(kern):
    # the one solve runs in the buffer of K(X*, X); past it only the Gram's own
    # block scratch is allocated.  The result is bitwise the fresh-array solve
    rng = np.random.default_rng(8)
    x, xs = rng.standard_normal((1500, 4)), rng.standard_normal((1000, 4))
    factor = cholesky(gram(kern, x, x))
    gram(kern, xs[:2], x[:2])  # loads scipy.spatial outside the trace
    tracemalloc.start()
    try:
        v, schur = conditional(kern, x, xs, factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * v.nbytes
    ref = solve_triangular(factor.lower, gram(kern, xs, x).T, lower=True, check_finite=False)
    np.testing.assert_array_equal(v, ref)
    np.testing.assert_array_equal(
        schur, np.clip(gram_diag(kern, xs) - np.einsum("ij,ij->j", ref, ref), 0.0, None))


def test_model_validation():
    with pytest.raises(ValueError):
        RegressionModel(kernel=KernelSpec.rbf(), noise_std=-0.1)
    with pytest.raises(ValueError):
        RegressionModel(kernel=KernelSpec.rbf(), noise_std=np.nan)


def test_conditioning_noise_with_an_overflowing_square_is_rejected():
    # conditioning squares the noise in Python floats, so noise_std 1e200
    # raised a bare OverflowError from ConditionedRegression; the model now
    # rejects it
    train, _ = gen_rbf_regression(5, 5, 0.1, KernelSpec.rbf(), seed=0)
    with pytest.raises(ValueError, match="noise_std is squared"):
        ConditionedRegression(RegressionModel(KernelSpec.rbf(), noise_std=1e200), train)


def test_classification_data_rejected():
    train, _ = gen_cluster_classification(5, 2, 2, 2.0, seed=0)
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.1)
    with pytest.raises(ValueError):
        ConditionedRegression(model, train)


def test_sweep_records_and_best():
    train, test = gen_rbf_regression(40, 20, 0.1, KernelSpec.rbf(), seed=9)
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.1)
    temps = [0.1, 1.0, 10.0]
    nll, jitter = regression_temperature_sweep(model, train, test, temps)
    # one entry per grid position, in grid order: a reversed grid reverses it
    assert nll.dtype == np.float64 and nll.shape == (len(temps),)
    assert np.all(np.isfinite(nll))
    reversed_nll, _ = regression_temperature_sweep(model, train, test, temps[::-1])
    np.testing.assert_array_equal(reversed_nll, nll[::-1])
    assert jitter == ConditionedRegression(model, train).factor.jitter_used
    assert best_temperature(temps, nll) == temps[int(np.argmin(nll))]


def test_sweep_rejects_bad_grid():
    train, test = gen_rbf_regression(10, 5, 0.1, KernelSpec.rbf(), seed=0)
    model = RegressionModel(kernel=KernelSpec.rbf(), noise_std=0.1)
    with pytest.raises(EmptyInputError):
        regression_temperature_sweep(model, train, test, [])
    with pytest.raises(NonPositiveTemperatureError):
        regression_temperature_sweep(model, train, test, [1.0, -2.0])
    # a grid point whose tempered variances underflow to 0 has no NLL
    with pytest.raises(ZeroVarianceError):
        regression_temperature_sweep(model, train, test, [1.0, 5e-324])


def test_best_temperature_tie_goes_to_smaller_temperature():
    temps, values = [2.0, 0.5, 1.0], np.array([1.0, 1.0, 3.0])
    assert best_temperature(temps, values) == 0.5
    assert best_temperature(temps, -values) == 1.0  # maximize by negating
    with pytest.raises(EmptyInputError):
        best_temperature([], [])


def test_generator_and_fit_factor_their_grams_in_place(monkeypatch):
    # above one row block (n > 362), each hands over the Gram it built and
    # that buffer becomes the factor, so neither holds a second n x n array
    import coldgp.linalg
    import coldgp.regression as reg

    generated = record_factors(monkeypatch, coldgp.linalg)  # data imports it at call time
    train, _ = gen_rbf_regression(400, 10, 0.1, KernelSpec.rbf(), seed=3)
    fitted = record_factors(monkeypatch, reg)
    ConditionedRegression(RegressionModel(KernelSpec.rbf(), 0.1), train)
    assert [np.shares_memory(a, f.lower) for a, f in generated + fitted] == [True, True]
