import numpy as np
import pytest
import scipy.special

from coldgp.classification import (
    EssConfig,
    LatentSampleSet,
    _conditional_precompute,
    classification_metrics,
    classification_temperature_sweep,
    ess_transition,
    predictive_class_probs,
    sample_latent_posterior,
    tempered_log_likelihood,
)
from coldgp.data import gen_cluster_classification
from coldgp.exceptions import (
    EmptyInputError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NonFiniteLikelihoodError,
    NonPositiveTemperatureError,
)
from coldgp.kernels import KernelSpec, gram
from coldgp.linalg import cholesky
from coldgp.rng import RngStream, derive_seed

from helpers import batch_means_se


def test_tempered_log_likelihood_matches_log_softmax():
    f = np.array([[10.0, 0.0], [-1.0, 2.5]])
    y = np.array([0, 1])
    ref = (scipy.special.log_softmax(f[0])[0] + scipy.special.log_softmax(f[1])[1])
    np.testing.assert_allclose(tempered_log_likelihood(f, y, 1.0), ref, rtol=1e-13)


def test_tempered_log_likelihood_scales_as_inverse_temperature():
    f = np.random.default_rng(0).standard_normal((6, 3))
    y = np.array([0, 1, 2, 0, 1, 2])
    base = tempered_log_likelihood(f, y, 1.0)
    assert tempered_log_likelihood(f, y, 2.0) == base / 2.0
    assert tempered_log_likelihood(f, y, 0.25) == base / 0.25


def test_tempered_log_likelihood_validation():
    f = np.zeros((2, 2))
    with pytest.raises(NonPositiveTemperatureError):
        tempered_log_likelihood(f, [0, 1], 0.0)
    with pytest.raises(LabelOutOfRangeError):
        tempered_log_likelihood(f, [0, 2], 1.0)
    with pytest.raises(LabelOutOfRangeError):
        tempered_log_likelihood(f, [0.5, 1.0], 1.0)
    with pytest.raises(LengthMismatchError):
        tempered_log_likelihood(f, [0], 1.0)
    with pytest.raises(EmptyInputError):
        tempered_log_likelihood(np.zeros((0, 2)), np.zeros(0, dtype=int), 1.0)


def test_ess_transition_is_deterministic_given_stream():
    lower = cholesky(np.eye(3)).lower
    loglik = lambda f: float(-0.5 * np.sum(f**2))
    f0 = np.zeros((3, 1))
    a = ess_transition(f0, loglik(f0), loglik, lower, 1.0, RngStream(4, 0))
    b = ess_transition(f0, loglik(f0), loglik, lower, 1.0, RngStream(4, 0))
    np.testing.assert_array_equal(a[0], b[0])
    assert a[1:] == b[1:]


def test_ess_transition_nan_likelihood_raises():
    lower = cholesky(np.eye(2)).lower
    with pytest.raises(NonFiniteLikelihoodError):
        ess_transition(np.zeros((2, 1)), 0.0, lambda f: float("nan"), lower, 1.0,
                       RngStream(0, 0))


def test_ess_prior_recovery_constant_likelihood():
    # with a flat likelihood the chain's stationary law is the prior
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T + 5 * np.eye(5)
    lower = cholesky(sigma).lower
    sigma_hat = lower @ lower.T  # what the sampler actually uses
    const = lambda f: 0.0
    stream = RngStream(2718, 0)
    f, ll = np.zeros((5, 1)), 0.0
    draws = np.empty((4000, 5))
    for i in range(4200):
        f, ll, _ = ess_transition(f, ll, const, lower, 1.0, stream)
        if i >= 200:
            draws[i - 200] = f[:, 0]
    for i in range(5):
        se = batch_means_se(draws[:, i])
        assert abs(draws[:, i].mean()) < 3 * se
        sq = draws[:, i] ** 2
        assert abs(sq.mean() - sigma_hat[i, i]) < 3 * batch_means_se(sq)
    prod = draws[:, 0] * draws[:, 1]
    assert abs(prod.mean() - sigma_hat[0, 1]) < 3 * batch_means_se(prod)


def test_ess_conjugate_gaussian_posterior():
    # Gaussian likelihood keeps everything closed form: posterior precision
    # is prior precision plus I/s^2
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 4 * np.eye(4)
    lower = cholesky(sigma).lower
    sigma_hat = lower @ lower.T
    s2 = 0.25
    y = np.array([1.0, -0.5, 2.0, 0.3])
    post_cov = np.linalg.inv(np.linalg.inv(sigma_hat) + np.eye(4) / s2)
    post_mean = post_cov @ (y / s2)
    loglik = lambda f: float(-0.5 * np.sum((f[:, 0] - y) ** 2) / s2)
    stream = RngStream(99, 0)
    f = np.zeros((4, 1))
    ll = loglik(f)
    n_keep, burn = 20_000, 1000
    draws = np.empty((n_keep, 4))
    for i in range(burn + n_keep):
        f, ll, _ = ess_transition(f, ll, loglik, lower, 1.0, stream)
        if i >= burn:
            draws[i - burn] = f[:, 0]
    for i in range(4):
        se = batch_means_se(draws[:, i])
        assert abs(draws[:, i].mean() - post_mean[i]) < 3 * se, f"coord {i}"
        dev = (draws[:, i] - post_mean[i]) ** 2
        assert abs(dev.mean() - post_cov[i, i]) < 3 * batch_means_se(dev), f"var {i}"


def _tiny_problem(seed=0):
    train, test = gen_cluster_classification(8, 2, 3, 2.0, seed=seed)
    cfg = EssConfig(n_chains=2, burn_in=30, n_samples_per_chain=10, thinning=2)
    return train, test, cfg


def test_sample_latent_posterior_layout_and_determinism():
    train, _, cfg = _tiny_problem()
    kern = KernelSpec.rbf()
    a = sample_latent_posterior(kern, train, 0.5, cfg, seed=7)
    b = sample_latent_posterior(kern, train, 0.5, cfg, seed=7)
    assert a.samples.shape == (cfg.n_chains, cfg.n_samples_per_chain, train.n, 2)
    assert a.samples.dtype == np.float64 and a.class_count == 2
    assert a.temperature == 0.5 and a.seed == 7
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.stats["transitions"] == cfg.n_chains * (cfg.burn_in +
                                                     cfg.n_samples_per_chain * cfg.thinning)
    assert a.stats["proposals"] >= a.stats["transitions"]
    c = sample_latent_posterior(kern, train, 0.5, cfg, seed=8)
    assert np.max(np.abs(a.samples - c.samples)) > 0


def test_sweep_samples_match_standalone_calls(monkeypatch):
    # the sweep shares one prior factor; each grid position must still draw
    # bitwise what a standalone call at that temperature and seed draws
    import coldgp.classification as cls

    train, test, cfg = _tiny_problem()
    kern = KernelSpec.rbf()
    temps = [0.05, 1.0, 3.0]
    swept = []

    def recording(*args, **kwargs):
        swept.append(sample_latent_posterior(*args, **kwargs))
        return swept[-1]

    monkeypatch.setattr(cls, "sample_latent_posterior", recording)
    cls.classification_temperature_sweep(kern, train, test, temps, cfg, seed=5,
                                         draws_per_sample=2)
    assert len(swept) == len(temps)
    for j, (t, got) in enumerate(zip(temps, swept)):
        ref = sample_latent_posterior(kern, train, t, cfg, derive_seed(5, j))
        assert got.temperature == t and got.seed == ref.seed
        np.testing.assert_array_equal(got.samples, ref.samples)
        assert got.stats == ref.stats


@pytest.mark.parametrize("n_temps", [1, 4])
def test_sweep_builds_one_gram_pair_and_one_factor(monkeypatch, n_temps):
    import coldgp.classification as cls

    calls = {"gram": 0, "cholesky": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cls, "gram", counting("gram", cls.gram))
    monkeypatch.setattr(cls, "cholesky", counting("cholesky", cls.cholesky))
    train, test, cfg = _tiny_problem()
    temps = [0.1 * (j + 1) for j in range(n_temps)]
    cls.classification_temperature_sweep(KernelSpec.rbf(), train, test, temps, cfg, seed=0,
                                         draws_per_sample=1)
    assert calls == {"gram": 2, "cholesky": 1}  # K(X, X), K(X*, X) and chol(K(X, X))


def test_conditional_mean_is_temperature_free():
    # the conditional pieces take no temperature; it enters the predictive
    # only as t * schur, so the conditional mean b^T F cannot depend on it
    train, test, _ = _tiny_problem()
    kern = KernelSpec.rbf()
    b, schur = _conditional_precompute(kern, train.inputs, test.inputs)
    k = gram(kern, train.inputs, train.inputs)
    np.testing.assert_allclose(b, np.linalg.solve(k, gram(kern, train.inputs, test.inputs)),
                               rtol=1e-8, atol=1e-10)
    assert schur.shape == (test.n,) and np.all(schur >= 0.0)
    b2, schur2 = _conditional_precompute(kern, train.inputs, test.inputs, cholesky(k))
    np.testing.assert_array_equal(b, b2)
    np.testing.assert_array_equal(schur, schur2)


def test_predictive_probs_rows_sum_to_one():
    train, test, cfg = _tiny_problem()
    ss = sample_latent_posterior(KernelSpec.rbf(), train, 0.3, cfg, seed=11)
    probs = predictive_class_probs(ss, test.inputs, draws_per_sample=3,
                                   rng=RngStream(11, cfg.n_chains))
    assert probs.shape == (test.n, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_predictive_probs_default_rng_matches_explicit():
    train, test, cfg = _tiny_problem()
    ss = sample_latent_posterior(KernelSpec.rbf(), train, 0.3, cfg, seed=11)
    a = predictive_class_probs(ss, test.inputs, draws_per_sample=3)
    b = predictive_class_probs(ss, test.inputs, draws_per_sample=3,
                               rng=RngStream(ss.seed, cfg.n_chains))
    np.testing.assert_array_equal(a, b)


def test_predictive_probs_prior_path_is_symmetric():
    # no training data: test latents are prior draws, classes exchangeable
    ss = LatentSampleSet(
        samples=np.zeros((1, 1, 0, 2)), temperature=1.0, kernel=KernelSpec.rbf(),
        train_inputs=np.zeros((0, 1)), seed=0, stats={})
    probs = predictive_class_probs(ss, np.array([[0.0], [5.0]]),
                                   draws_per_sample=4000, rng=RngStream(0, 1))
    np.testing.assert_allclose(probs, 0.5, atol=0.03)


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
    a = classification_temperature_sweep(kern, train, test, temps, cfg, seed=5,
                                         draws_per_sample=2)
    b = classification_temperature_sweep(kern, train, test, temps, cfg, seed=5,
                                         draws_per_sample=2)
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


def test_sweep_rejects_bad_inputs():
    train, test, cfg = _tiny_problem()
    with pytest.raises(EmptyInputError):
        classification_temperature_sweep(KernelSpec.rbf(), train, test, [], cfg, seed=0)
    with pytest.raises(NonPositiveTemperatureError):
        classification_temperature_sweep(KernelSpec.rbf(), train, test, [-1.0], cfg, seed=0)


def test_ess_config_validation():
    with pytest.raises(ValueError):
        EssConfig(n_chains=0)
    with pytest.raises(ValueError):
        EssConfig(burn_in=-1)
    with pytest.raises(ValueError):
        EssConfig(n_samples_per_chain=0)
    with pytest.raises(ValueError):
        EssConfig(thinning=0)
