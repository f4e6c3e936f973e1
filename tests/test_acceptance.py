"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible under ``pytest -s``) with the measured numbers and wall time.
Tolerances and runtime budgets are asserted, not just reported.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import dblquad
from scipy.special import expit

from coldgp import (
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    EssConfig,
    KernelSpec,
    LabeledDataset,
    RngStream,
    apply_overrides,
    cholesky,
    classification_temperature_sweep,
    ess_transition,
    gen_cluster_classification,
    gram,
    load_cifar10,
    load_config,
    read_csv,
    relabel_ratio_curve,
    run_experiment,
    standardize,
)
from coldgp.classification import _chain_prob_means, _sample_grid
from helpers import (
    batch_means_se,
    conditional_at,
    kernel_eval,
    max_rel_err,
    predict,
    scale_kernel,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _check(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _spaced_inputs(n, lengthscale, rng=None):
    # neighbor spacing ~0.8 lengthscales keeps the gram well conditioned
    gaps = 0.8 * lengthscale * np.ones(n)
    if rng is not None:
        gaps *= 0.75 + 0.5 * rng.random(n)
    return np.cumsum(gaps)[:, None]


def test_relabel_probability_anchor_bands():
    started = time.perf_counter()
    p_warm, p_cold = relabel_ratio_curve(1000.0, [1.0, 0.01])[0]
    elapsed = time.perf_counter() - started
    ok = (0.015 <= p_warm <= 0.025) and (0.002 <= p_cold <= 0.006) and elapsed < 1.0
    _check("relabel-probability-anchor-bands", ok,
           f"p(1000, 1)={p_warm:.6f} in [0.015, 0.025], "
           f"p(1000, 0.01)={p_cold:.6f} in [0.002, 0.006], {elapsed:.2f}s (budget 1s)")


def test_relabel_ratio_curve_shape():
    started = time.perf_counter()
    temps = np.logspace(0.0, -3.0, 25)  # descending from 1 to 1e-3
    tol = 1e-8
    worst_rise = -np.inf
    tails = []
    for scale in (1.0, 10.0, 100.0, 1000.0):
        _, ratios = relabel_ratio_curve(scale, temps, quadrature_tolerance=tol)
        worst_rise = max(worst_rise, float(np.max(np.diff(ratios))))
        tails.append(float(ratios[-1]))
    elapsed = time.perf_counter() - started
    monotone = worst_rise <= 2.0 * tol
    ordered = all(a > b for a, b in zip(tails, tails[1:]))
    ok = monotone and ordered and elapsed < 10.0
    _check("relabel-ratio-curve-shape", ok,
           f"max ratio rise as T falls={worst_rise:.2e} (allow {2.0 * tol:.0e}), "
           f"ratio at T=1e-3 per scale={[f'{t:.4f}' for t in tails]} strictly decreasing, "
           f"{elapsed:.2f}s (budget 10s)")


def test_assumed_noise_regimes_select_expected_temperatures(tmp_path):
    started = time.perf_counter()
    config = apply_overrides(load_config(CONFIG_DIR / "fig3b.json"),
                             output_dir=str(tmp_path / "out"))
    paths = run_experiment(config)
    header, rows = read_csv(paths["results"])
    col = {name: i for i, name in enumerate(header)}
    sums: dict = {}
    for r in rows:
        key = (r[col["assumed_noise_std"]], float(r[col["temperature"]]))
        sums.setdefault(key, []).append(float(r[col["test_nll"]]))
    argmin = {}
    for sigma in ("1.0", "0.1", "0.01"):
        means = {t: np.mean(v) for (s, t), v in sums.items() if s == sigma}
        argmin[sigma] = min(means, key=lambda t: (means[t], t))
    elapsed = time.perf_counter() - started
    ok = (argmin["1.0"] < 0.5 and 0.5 <= argmin["0.1"] <= 2.0 and argmin["0.01"] > 2.0
          and elapsed < 60.0)
    _check("assumed-noise-temperature-regimes", ok,
           f"argmin T: overestimated noise={argmin['1.0']:.4g} (<0.5), "
           f"matched={argmin['0.1']:.4g} (in [0.5, 2]), "
           f"underestimated={argmin['0.01']:.4g} (>2), {elapsed:.1f}s (budget 60s)")


def test_tempered_posterior_equivalences():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 51))
        lengthscale = float(rng.uniform(0.5, 2.0))
        variance = float(rng.uniform(0.5, 2.0))
        sigma = float(rng.uniform(0.05, 0.3))
        spec = KernelSpec.rbf(lengthscale=lengthscale, variance=variance)
        x = _spaced_inputs(n, lengthscale, rng)
        y = rng.normal(0.0, np.sqrt(variance) + sigma, n)
        train = LabeledDataset(x, y, None, "train")
        xs = np.linspace(x.min() - lengthscale, x.max() + lengthscale, 7)[:, None]
        for t in (0.01, 0.1, 1.0, 10.0):
            # scaled-kernel Bayes posterior vs tempered posterior, noiseless
            mean, var = predict(scale_kernel(spec, t), 0.0, train, xs)
            base_mean, base_var = predict(spec, 0.0, train, xs)
            worst = max(worst, max_rel_err(mean, base_mean), max_rel_err(var, base_var * t))
            # scaled kernel plus scaled noise variance vs tempered noisy posterior
            mean, var = predict(scale_kernel(spec, t), sigma * np.sqrt(t), train, xs)
            base_mean, base_var = predict(spec, sigma, train, xs)
            worst = max(worst, max_rel_err(mean, base_mean), max_rel_err(var, base_var * t))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    _check("tempered-posterior-equivalences", ok,
           f"20 instances (n<=50), T in {{0.01, 0.1, 1, 10}}, both identities: "
           f"max relative error={worst:.2e} (allow 1e-08), {elapsed:.2f}s (budget 5s)")


def _moment_z_scores(series, mean_targets, second_targets, cross_target, cross_pair):
    """Max |z| of sample moments against targets, batch-means standard errors."""
    worst = 0.0
    for i, target in enumerate(mean_targets):
        vals = series[:, i]
        worst = max(worst, abs(float(vals.mean()) - target) / batch_means_se(vals))
    for i, target in enumerate(second_targets):
        vals = series[:, i] ** 2
        worst = max(worst, abs(float(vals.mean()) - target) / batch_means_se(vals))
    a, b = cross_pair
    vals = series[:, a] * series[:, b]
    worst = max(worst, abs(float(vals.mean()) - cross_target) / batch_means_se(vals))
    return worst


def test_sampler_matches_analytic_oracles():
    started = time.perf_counter()
    spec = KernelSpec.rbf(lengthscale=1.0, variance=1.0)

    # (ii) gaussian likelihood on a tempered prior: conjugate posterior moments.
    # It runs one chain as the sweep does, on the one contrast of two classes,
    # whose prior is t * K at a per-class prior scale of 1/sqrt(2)
    m = 10
    t = 0.7
    xg = _spaced_inputs(m, 1.0)
    prior_cov = t * gram(spec, xg, xg)
    y = np.sin(0.9 * xg[:, 0])
    s_obs = 0.5
    post_cov = np.linalg.inv(np.linalg.inv(prior_cov) + np.eye(m) / s_obs**2)
    post_mean = post_cov @ y / s_obs**2
    gauss = lambda props, idx: -0.5 * np.sum((y - props[:, 0]) ** 2, axis=1) / s_obs**2
    lower_g = cholesky(prior_cov).lower
    rng, half = [RngStream(5, 0)], np.sqrt([0.5])
    f, g = np.zeros((1, 1, m)), np.zeros((1, 2, m))
    ll = gauss(f, [0])
    for _ in range(1000):
        f, g, ll, _ = ess_transition(f, g, ll, gauss, lower_g, half, rng)
    keep = np.empty((50_000, m))
    for s in range(keep.shape[0]):
        f, g, ll, _ = ess_transition(f, g, ll, gauss, lower_g, half, rng)
        keep[s] = f[0, 0]
    z_conj = _moment_z_scores(keep, post_mean, np.diag(post_cov) + post_mean**2,
                              post_cov[0, 1] + post_mean[0] * post_mean[1], (0, 1))

    # (iii) two-point binary classification vs 2-D adaptive quadrature on the
    # class-difference variable d, whose prior is N(0, 2 T K)
    t = 0.5
    xc = np.array([[-0.5], [0.7]])
    train = LabeledDataset(xc, [0, 1], 2, "train")
    xs = np.array([[0.0], [1.5]])
    kc = gram(spec, xc, xc)
    ks = gram(spec, xs, xc)
    kss = np.array([kernel_eval(spec, p, p) for p in xs])
    a_rows = np.linalg.solve(kc, ks.T).T
    schur = kss - np.sum(ks * a_rows, axis=1)
    cov_d = 2.0 * t * kc
    inv_d = np.linalg.inv(cov_d)
    gh_nodes, gh_w = hermgauss(80)

    def weight(d1, d2):
        d = np.array([d1, d2])
        quad_form = float(d @ inv_d @ d)
        # labels (0, 1): tempered likelihood sigmoid(d1)^(1/t) sigmoid(-d2)^(1/t)
        ll = (np.log(expit(d1)) + np.log(expit(-d2))) / t
        return np.exp(-0.5 * quad_form + ll)

    def predictive_sigmoid(j, d1, d2):
        mean = a_rows[j, 0] * d1 + a_rows[j, 1] * d2
        sd = np.sqrt(2.0 * t * schur[j])
        return float(gh_w @ expit(mean + np.sqrt(2.0) * sd * gh_nodes)) / np.sqrt(np.pi)

    lim = 9.0
    den = dblquad(lambda d2, d1: weight(d1, d2), -lim, lim, -lim, lim,
                  epsabs=1e-12, epsrel=1e-10)[0]
    p_quad = [dblquad(lambda d2, d1: weight(d1, d2) * predictive_sigmoid(j, d1, d2),
                      -lim, lim, -lim, lim, epsabs=1e-12, epsrel=1e-10)[0] / den
              for j in range(2)]
    factor = cholesky(gram(spec, train.inputs, train.inputs))
    v, schur_c = conditional_at(spec, train.inputs, xs, factor)
    means, _ = _sample_grid(
        train, [t], [123],
        EssConfig(n_chains=4, burn_in=800, n_samples_per_chain=2500, thinning=2), factor, v)
    probs = _chain_prob_means(means[0], np.sqrt(t * schur_c), 16,
                              RngStream(123, 4)).mean(axis=0)
    gap = float(np.max(np.abs(probs[:, 0] - np.array(p_quad))))

    elapsed = time.perf_counter() - started
    ok = z_conj <= 3.0 and gap <= 0.01 and elapsed < 120.0
    _check("sampler-analytic-oracles", ok,
           f"conjugate posterior max|z|={z_conj:.2f} (allow 3), "
           f"two-point predictive vs quadrature max gap={gap:.4f} (allow 0.01), "
           f"{elapsed:.1f}s (budget 120s)")


def test_sampler_passes_simulation_based_calibration():
    # For S = 1/T labellers, p(y | f)^S is the chance that all S agree on y
    # (Aitchison 2021), so a prior draw f ~ N(0, T K) kept only when S
    # sampled label rows agree is a draw from the tempered posterior given
    # those labels.  Each kept replicate runs as one chain of a lock-step
    # ess_transition on the sweep's contrast layout; the rank of the truth
    # among a chain's thinned draws is uniform on 0..L when the sampler
    # targets that posterior (Talts et al. 2018).  Seeds, replicate counts,
    # L, thinning, burn-in, bins and the critical value were fixed before
    # the first run.
    started = time.perf_counter()
    train, test = gen_cluster_classification(5, 2, 8, 1.5, seed=0)
    spec = KernelSpec.nngp(depth=2, scale=4.0)
    factor = cholesky(gram(spec, train.inputs, train.inputs))
    lower, n = factor.lower, train.n
    v = conditional_at(spec, train.inputs, test.inputs[:1], factor)[0][:, 0]
    temps, per_t, n_keep, thin, burn_in = (1.0, 1 / 2, 1 / 3, 1 / 4), 200, 99, 5, 200

    def untempered(d, labels):  # binary log-softmax sums at the labels
        return np.sum(labels * d - np.logaddexp(0.0, d), axis=-1)

    rng = np.random.default_rng(0)
    truths, labels = [], []
    for t in temps:
        kept = 0
        while kept < per_t:
            z = rng.standard_normal((2, n))
            f = np.sqrt(t) * (lower @ z.T).T
            votes = rng.random((round(1 / t), n)) < expit(f[1] - f[0])
            if np.all(votes == votes[0]):
                kept += 1
                d, y = f[1] - f[0], votes[0].astype(np.float64)
                truths.append((d[0], untempered(d, y), v @ (np.sqrt(t) * (z[1] - z[0]))))
                labels.append(y)
    truths, labels = np.array(truths), np.array(labels)
    chain_t = np.repeat(temps, per_t)
    k, scale = chain_t.size, np.sqrt(chain_t)
    log_lik = lambda props, idx: untempered(props[:, 0], labels[idx]) / chain_t[idx]
    f, g = np.zeros((k, 1, n)), np.zeros((k, 2, n))
    ll, rngs = log_lik(f, np.arange(k)), [RngStream(7, c) for c in range(k)]
    for _ in range(burn_in):
        f, g, ll, _ = ess_transition(f, g, ll, log_lik, lower, scale, rngs)
    draws = np.empty((n_keep, k, 3))
    for s in range(n_keep):
        for _ in range(thin):
            f, g, ll, _ = ess_transition(f, g, ll, log_lik, lower, scale, rngs)
        draws[s] = np.stack([f[:, 0, 0], untempered(f[:, 0], labels),
                             (g[:, 1] - g[:, 0]) @ v], axis=1)
    ranks = np.sum(draws < truths, axis=0).reshape(len(temps), per_t, 3)
    counts = np.stack([[np.bincount(r // 10, minlength=10) for r in per_temp.T]
                       for per_temp in ranks])
    stats = np.sum((counts - per_t / 10) ** 2 / (per_t / 10), axis=-1)
    critical = 28.4  # the 1 - 0.01/12 quantile of chi2(9): family-wise rate 0.01
    elapsed = time.perf_counter() - started
    ok = float(stats.max()) <= critical and elapsed < 30.0
    _check("sampler-simulation-based-calibration", ok,
           f"T=1, 1/2, 1/3, 1/4 x (contrast at point 0, training log-lik, test mean), "
           f"{per_t} replicates, {n_keep} draws: chi2(9) of the rank histograms="
           f"{np.round(stats, 1).tolist()} (allow {critical}), {elapsed:.1f}s (budget 30s)")


def test_depth2_kernel_matches_wide_network_simulation():
    started = time.perf_counter()
    d_in, n_points, width, n_nets = 4, 5, 4096, 2000
    sigma_w2, sigma_b2 = 2.0, 0.0
    rng = np.random.default_rng(31)
    x = rng.normal(size=(n_points, d_in))
    spec = KernelSpec.nngp(depth=2, sigma_w2=sigma_w2, sigma_b2=sigma_b2)
    k = gram(spec, x, x)

    k0 = sigma_b2 + sigma_w2 * (x @ x.T) / d_in
    l0 = np.linalg.cholesky(k0 + 1e-12 * np.eye(n_points))
    acc = np.zeros((n_points, n_points))
    sim = np.random.default_rng(7)
    for _ in range(n_nets):
        z1 = sim.standard_normal((width, n_points)) @ l0.T
        h1 = np.maximum(z1, 0.0)
        s2 = sigma_b2 + sigma_w2 * (h1.T @ h1) / width
        z2 = sim.standard_normal((width, n_points)) @ np.linalg.cholesky(
            s2 + 1e-12 * np.eye(n_points)).T
        h2 = np.maximum(z2, 0.0)
        acc += sigma_b2 + sigma_w2 * (h2.T @ h2) / width
    emp = acc / n_nets

    rel = [abs(emp[i, j] - k[i, j]) / abs(k[i, j])
           for i in range(n_points) for j in range(i + 1, n_points)]
    worst = float(max(rel))
    elapsed = time.perf_counter() - started
    ok = len(rel) == 10 and worst < 0.05 and elapsed < 120.0
    _check("depth2-kernel-vs-wide-network", ok,
           f"10 input pairs, width {width}, {n_nets} draws: "
           f"max relative error={worst:.4f} (allow 0.05), {elapsed:.1f}s (budget 120s)")


def _two_class_image_data():
    """Real image data when the batch files are present, cluster fallback otherwise."""
    root = os.environ.get("COLDGP_CIFAR10_DIR")
    if root:
        wanted = CIFAR_TRAIN_FILES + (CIFAR_TEST_FILE,)
        if all(os.path.isfile(os.path.join(root, f)) for f in wanted):
            train, test = load_cifar10(root, [0, 1], n_train=2000, n_test=1000, seed=0)
            return (*standardize(train, test), "cifar10")
    train, test = gen_cluster_classification(1000, 2, 8, 1.5, seed=0)
    return train, test, "clusters"


def test_cold_sweep_improves_test_likelihood():
    started = time.perf_counter()
    train, test, source = _two_class_image_data()
    assert (train.n, test.n) == (2000, 1000)
    spec = KernelSpec.nngp(depth=2, sigma_w2=2.0, sigma_b2=0.0)
    temps = [0.01, 0.03, 0.1, 0.3, 1.0]
    out = classification_temperature_sweep(
        spec, train, test, temps,
        config=EssConfig(n_chains=4, burn_in=300, n_samples_per_chain=200, thinning=2,
                         draws_per_sample=8),
        seed=0)
    ll, acc = out["test_log_likelihood"], out["top1_accuracy"]
    b = int(np.argmax(ll))  # first maximum: the grid ascends, so ties go to the smaller T
    r = temps.index(1.0)
    ll_ok = ll[b] >= ll[r]
    acc_floor = acc[r] - out["mc_se_accuracy"][r]
    acc_ok = acc[b] >= acc_floor
    elapsed = time.perf_counter() - started
    ok = ll_ok and acc_ok and elapsed < 1800.0
    _check("cold-sweep-test-likelihood", ok,
           f"{source} n_train=2000 n_test=1000, best T={temps[b]}: "
           f"log-lik {ll[b]:.4f} >= {ll[r]:.4f} at T=1, "
           f"accuracy {acc[b]:.4f} >= {acc_floor:.4f}, "
           f"{elapsed:.0f}s (budget 1800s)")


@pytest.mark.parametrize("name", ["fig1", "fig2a", "fig2b", "fig3b"])
def test_bundled_configs_are_deterministic(name, tmp_path):
    started = time.perf_counter()
    base = load_config(CONFIG_DIR / f"{name}.json")
    outputs = []
    for run in ("a", "b"):
        paths = run_experiment(apply_overrides(base, output_dir=str(tmp_path / run)))
        outputs.append(Path(paths["results"]).read_bytes())
    elapsed = time.perf_counter() - started
    ok = outputs[0] == outputs[1]
    _check(f"determinism-{name}", ok,
           f"two runs of configs/{name}.json: results.csv byte-identical="
           f"{outputs[0] == outputs[1]} ({len(outputs[0])} bytes), {elapsed:.1f}s")
