import json
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from scipy.optimize import brentq
from scipy.special import expit

from coldgp.aleatoric import (
    _posterior_mode,
    _sigmoid,
    relabel_disagreement_mc,
    relabel_prob_quadrature,
    relabel_prob_zero_temperature,
    relabel_ratio_curve,
)
from coldgp.classification import EssConfig, _sample_grid
from coldgp.cli import main
from coldgp.data import gen_cluster_classification
from coldgp.exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    IndexOutOfRangeError,
    LabelOutOfRangeError,
    LengthMismatchError,
    NonPositiveScaleError,
    NonPositiveTemperatureError,
)
from coldgp.kernels import KernelSpec, gram
from coldgp.linalg import cholesky


def _quad_oracle(c, t):
    """Same integral by scipy's adaptive Gauss-Kronrod, direct (non-log) form."""
    sd = np.sqrt(2.0 * c * t)
    lo, hi = -30.0 * sd, 30.0 * sd  # the Gaussian factor is ~1e-196 at the edge

    def weight(d):
        return expit(d) ** (1.0 / t) * scipy.stats.norm.pdf(d, scale=sd)

    num, _ = scipy.integrate.quad(lambda d: expit(-d) * weight(d), lo, hi,
                                  points=[0.0], limit=800, epsabs=0.0, epsrel=1e-11)
    den, _ = scipy.integrate.quad(weight, lo, hi,
                                  points=[0.0], limit=800, epsabs=0.0, epsrel=1e-11)
    return num / den


@pytest.mark.parametrize("c,t", [(1000.0, 1.0), (1.0, 1.0), (10.0, 0.3), (100.0, 0.05)])
def test_quadrature_matches_scipy_quad(c, t):
    ours = relabel_prob_quadrature(c, t)
    np.testing.assert_allclose(ours, _quad_oracle(c, t), rtol=1e-7)


def test_reference_probability_bands():
    # wide-prior two-class setup: ~2% disagreement at unit temperature,
    # dropping to a fraction of a percent two decades colder
    assert 0.015 <= relabel_prob_quadrature(1000.0, 1.0) <= 0.025
    assert 0.002 <= relabel_prob_quadrature(1000.0, 0.01) <= 0.006


def test_unit_temperature_normalizer_is_half():
    # at t=1 the normalizer is exactly 1/2 by sigmoid symmetry, so
    # p = 2 * numerator; large c makes p approach 1/sqrt(pi c)
    p = relabel_prob_quadrature(1000.0, 1.0)
    np.testing.assert_allclose(p, 1.0 / np.sqrt(np.pi * 1000.0), rtol=2e-3)


def test_importance_sampling_cross_check():
    c, t = 10.0, 0.5
    rng = np.random.default_rng(77)
    d = rng.normal(0.0, np.sqrt(2.0 * c * t), size=400_000)
    w = expit(d) ** (1.0 / t)
    est = np.sum(w * expit(-d)) / np.sum(w)
    assert abs(est - relabel_prob_quadrature(c, t)) < 0.003


def test_monotone_in_temperature():
    temps = np.logspace(0, -3, 25)
    for c in (1.0, 10.0, 1000.0):
        probs = [relabel_prob_quadrature(c, t) for t in temps]
        assert all(b <= a + 2e-8 for a, b in zip(probs, probs[1:]))


def test_zero_temperature_limit():
    for c in (1.0, 100.0, 1000.0):
        limit = relabel_prob_zero_temperature(c)
        # stationarity of softplus(-d) + d^2/(4c) at the implied d*
        d_star = np.log(1.0 / limit - 1.0)
        grad = -expit(-d_star) + d_star / (2.0 * c)
        assert abs(grad) < 1e-10
        p3 = relabel_prob_quadrature(c, 1e-3)
        p2 = relabel_prob_quadrature(c, 1e-2)
        assert limit < p3 < p2  # approaches the limit from above
        assert p3 - limit < p2 - limit
    with pytest.raises(NonPositiveScaleError):
        relabel_prob_zero_temperature(0.0)


@pytest.mark.parametrize("c", [1.0, 10.0, 100.0, 1000.0])
def test_small_temperature_converges_to_zero_temperature_limit(c):
    # the window is centred at the mode d*; centred at 0 it missed the
    # posterior below t ~ 1e-4 (0.4986 instead of 0.3374 at c = 1, t = 1e-8)
    limit = relabel_prob_zero_temperature(c)
    temps = np.logspace(0, -8, 33)
    probs = [relabel_prob_quadrature(c, t) for t in temps]
    assert all(b <= a + 1e-8 * a for a, b in zip(probs, probs[1:]))  # monotone in t
    for t, p in zip(temps, probs):
        # p approaches the limit linearly in t, to within the 1e-8 relative tolerance
        assert -3e-9 <= p - limit <= 0.1 * t + 3e-9
    assert abs(probs[-1] - limit) <= 3e-9


def test_sigmoid_matches_expit_bitwise():
    # the grid steps by 0.002 and adds signed zeros, tiny values, and the
    # edges where exp(-x) overflows (x just below -709.78) and where
    # expit underflows to 0 (near -745.13)
    edges = [0.0, -0.0, 1e-300, -1e-300, 709.78, -709.78, -745.2, -745.13321910194122,
             709.782712893384, -709.782712893384, 745.2, 800.0, -800.0]
    edges += [np.nextafter(x, s) for x in edges for s in (-np.inf, np.inf)]
    x = np.concatenate([np.linspace(-800.0, 800.0, 800_001), edges])
    ours = np.array([_sigmoid(float(v)) for v in x])
    assert ours.view(np.uint64).tolist() == expit(x).view(np.uint64).tolist()


def _expit_zero_temperature_limit(c):
    """The zero-temperature limit expit(-d*), at the module's posterior mode d*."""
    return float(expit(-_posterior_mode(c)))


def _brentq_mode(c):
    hi = 1.0 + (2.0 * c if c <= 1.0 else 2.0 + np.log(c))
    return brentq(lambda d: 0.5 * d / c - expit(-d), 0.0, hi, xtol=1e-12, rtol=1e-14)


def test_posterior_mode_matches_brentq():
    # c spans the whole positive float range a config accepts; near 1e308 the
    # gradient's d / (2c) would overflow 2c, so it is written 0.5 * d / c
    for c in np.logspace(-300.0, 308.0, 1217):
        c = float(c)
        d, ref = _posterior_mode(c), _brentq_mode(c)
        assert abs(d - ref) <= 1e-12 + 1e-14 * abs(ref), c
        # bisection ends on adjacent floats: the gradient changes sign within one ulp of d
        below, above = np.nextafter(d, 0.0), np.nextafter(d, np.inf)
        assert 0.5 * below / c - expit(-below) <= 0.0 <= 0.5 * above / c - expit(-above), c


@pytest.mark.parametrize("name", ["fig2a", "fig2b"])
def test_zero_temperature_log_lines_match_expit(tmp_path, monkeypatch, name):
    # the run.log lines of the bundled probe configs keep the bits they had
    # when the limit went through scipy.special.expit
    configs = Path(__file__).resolve().parent.parent / "configs"
    raw = json.loads((configs / f"{name}.json").read_text())
    raw["output_dir"] = "out"
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(raw))
    assert main(["run", "--config", "cfg.json"]) == 0
    lines = [line for line in Path("out/run.log").read_text().splitlines()
             if "zero_temperature_limit" in line]
    assert lines == [f"latent_scale={c!r} zero_temperature_limit="
                     f"{_expit_zero_temperature_limit(c)!r}"
                     for c in raw["probe"]["latent_scales"]]


def test_limit_decreases_with_scale():
    limits = [relabel_prob_zero_temperature(c) for c in (1.0, 10.0, 100.0, 1000.0)]
    assert all(b < a for a, b in zip(limits, limits[1:]))


def test_refinement_stability():
    loose = relabel_prob_quadrature(100.0, 0.1, quadrature_tolerance=1e-6)
    tight = relabel_prob_quadrature(100.0, 0.1, quadrature_tolerance=1e-10)
    assert abs(loose - tight) <= 2e-6 * tight


def test_ratio_curve():
    temps = [1.0, 0.1, 0.01]
    probability, ratio = relabel_ratio_curve(1000.0, temps)
    assert probability.shape == ratio.shape == (len(temps),)
    assert ratio[0] == 1.0  # reference value reused exactly
    np.testing.assert_allclose(ratio, probability / probability[0], rtol=1e-12)
    # grid without the unit temperature still normalizes by it
    _, ratio = relabel_ratio_curve(10.0, [0.5])
    np.testing.assert_allclose(
        ratio[0],
        relabel_prob_quadrature(10.0, 0.5) / relabel_prob_quadrature(10.0, 1.0),
        rtol=1e-9)


def test_config_validation():
    with pytest.raises(NonPositiveScaleError):
        relabel_prob_quadrature(0.0, 1.0)
    with pytest.raises(NonPositiveTemperatureError):
        relabel_prob_quadrature(1.0, -1.0)
    with pytest.raises(ValueError):
        relabel_prob_quadrature(1.0, 1.0, quadrature_tolerance=0.0)
    with pytest.raises(ValueError):
        relabel_prob_quadrature(1.0, 1.0, integration_half_width_sigmas=-2.0)
    with pytest.raises(EmptyInputError):
        relabel_ratio_curve(10.0, [])
    with pytest.raises(NonPositiveTemperatureError):
        relabel_ratio_curve(10.0, [1.0, 0.0])


def test_disagreement_mc_hand_values():
    # tied logits: relabel flips with probability 1/2
    samples = [np.array([[0.0, 0.0], [3.0, -1.0]])]
    labels = np.array([0, 0])
    assert relabel_disagreement_mc(samples, labels, 0) == 0.5
    # second row: disagree prob is softmax weight of the other class
    np.testing.assert_allclose(relabel_disagreement_mc(samples, labels, 1),
                               1.0 - expit(4.0), rtol=1e-12)
    two = samples + [np.array([[2.0, 0.0], [0.0, 0.0]])]
    np.testing.assert_allclose(relabel_disagreement_mc(two, labels, 0),
                               0.5 * (0.5 + 1.0 - expit(2.0)), rtol=1e-12)


def test_disagreement_mc_on_sample_set_array():
    # the (chains, samples, n, C) array goes in as is and matches the
    # per-sample average over its matrices.  The sampler retains whitened
    # samples G; the training latents are F = L @ G
    train, _ = gen_cluster_classification(6, 3, 2, 2.0, seed=2)
    cfg = EssConfig(n_chains=2, burn_in=10, n_samples_per_chain=5, thinning=1)
    factor = cholesky(gram(KernelSpec.rbf(), train.inputs, train.inputs))
    samples = factor.lower @ _sample_grid(train, [0.5], [3], cfg, factor)[0][0]
    matrices = samples.reshape(-1, train.n, train.class_count)
    for index in (0, train.n - 1):
        y = train.targets[index]
        expect = np.mean([1.0 - np.exp(f[index, y]) / np.exp(f[index]).sum()
                          for f in matrices])
        got = relabel_disagreement_mc(samples, train.targets, index)
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        assert relabel_disagreement_mc(list(matrices), train.targets, index) == got


def test_disagreement_mc_validation():
    samples = [np.zeros((2, 2))]
    labels = np.array([0, 1])
    with pytest.raises(IndexOutOfRangeError):
        relabel_disagreement_mc(samples, labels, 2)
    with pytest.raises(IndexOutOfRangeError):
        relabel_disagreement_mc(samples, labels, -1)
    with pytest.raises(EmptyInputError):
        relabel_disagreement_mc([], labels, 0)
    with pytest.raises(EmptyInputError):
        relabel_disagreement_mc(np.zeros((2, 0, 2, 2)), labels, 0)
    with pytest.raises(DimensionMismatchError):
        relabel_disagreement_mc(np.zeros(2), labels, 0)
    with pytest.raises(LabelOutOfRangeError):
        relabel_disagreement_mc(samples, np.array([0, 2]), 0)
    with pytest.raises(LengthMismatchError):
        relabel_disagreement_mc(samples, np.array([0]), 0)
