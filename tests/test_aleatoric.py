import json
import math
import warnings
from pathlib import Path

import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit

import coldgp.aleatoric as aleatoric
from coldgp.aleatoric import (
    _posterior_mode,
    _sigmoid,
    _support_half_width,
    _z_nodes,
    relabel_disagreement_mc,
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
    QuadratureNotConvergedError,
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
    ours = relabel_ratio_curve(c, [t])[0][0]
    np.testing.assert_allclose(ours, _quad_oracle(c, t), rtol=1e-7)


def test_reference_probability_bands():
    # wide-prior two-class setup: ~2% disagreement at unit temperature,
    # dropping to a fraction of a percent two decades colder
    assert 0.015 <= relabel_ratio_curve(1000.0, [1.0])[0][0] <= 0.025
    assert 0.002 <= relabel_ratio_curve(1000.0, [0.01])[0][0] <= 0.006


def test_unit_temperature_normalizer_is_half():
    # at t=1 the normalizer is exactly 1/2 by sigmoid symmetry, so
    # p = 2 * numerator; large c makes p approach 1/sqrt(pi c)
    p = relabel_ratio_curve(1000.0, [1.0])[0][0]
    np.testing.assert_allclose(p, 1.0 / np.sqrt(np.pi * 1000.0), rtol=2e-3)


def test_importance_sampling_cross_check():
    c, t = 10.0, 0.5
    rng = np.random.default_rng(77)
    d = rng.normal(0.0, np.sqrt(2.0 * c * t), size=400_000)
    w = expit(d) ** (1.0 / t)
    est = np.sum(w * expit(-d)) / np.sum(w)
    assert abs(est - relabel_ratio_curve(c, [t])[0][0]) < 0.003


def test_monotone_in_temperature():
    temps = np.logspace(0, -3, 25)
    for c in (1.0, 10.0, 1000.0):
        probs = relabel_ratio_curve(c, temps)[0]
        assert all(b <= a + 2e-8 for a, b in zip(probs, probs[1:]))


def test_zero_temperature_limit():
    for c in (1.0, 100.0, 1000.0):
        limit = relabel_prob_zero_temperature(c)
        # stationarity of softplus(-d) + d^2/(4c) at the implied d*
        d_star = np.log(1.0 / limit - 1.0)
        grad = -expit(-d_star) + d_star / (2.0 * c)
        assert abs(grad) < 1e-10
        p3 = relabel_ratio_curve(c, [1e-3])[0][0]
        p2 = relabel_ratio_curve(c, [1e-2])[0][0]
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
    probs = relabel_ratio_curve(c, temps)[0]
    assert all(b <= a + 1e-8 * a for a, b in zip(probs, probs[1:]))  # monotone in t
    for t, p in zip(temps, probs):
        # p approaches the limit linearly in t, to within the 1e-8 relative tolerance
        assert -3e-9 <= p - limit <= 0.1 * t + 3e-9
    assert abs(probs[-1] - limit) <= 3e-9
    # the log posterior is taken relative to its peak, so the softplus term
    # survives down to the smallest subnormal: before, t = 1e-10 was off by
    # 1.3e-7 at c = 1, t = 1e-16 gave 0.3679, t <= 1e-20 gave 1.0 and
    # t = 5e-324 raised
    tiny = [1e-10, 1e-12, 1e-16, 1e-20, 1e-100, 1e-300, 5e-324]
    probs = relabel_ratio_curve(c, tiny)[0]
    assert all(abs(p - limit) <= 1e-8 * limit for p in probs), (probs - limit) / limit


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
    loose = relabel_ratio_curve(100.0, [0.1], quadrature_tolerance=1e-6)[0][0]
    tight = relabel_ratio_curve(100.0, [0.1], quadrature_tolerance=1e-10)[0][0]
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
        relabel_ratio_curve(10.0, [0.5])[0][0] / relabel_ratio_curve(10.0, [1.0])[0][0],
        rtol=1e-9)


def test_config_validation():
    with pytest.raises(NonPositiveScaleError):
        relabel_ratio_curve(0.0, [1.0])
    with pytest.raises(NonPositiveTemperatureError):
        relabel_ratio_curve(1.0, [-1.0])
    with pytest.raises(ValueError):
        relabel_ratio_curve(1.0, [1.0], quadrature_tolerance=0.0)
    # below 8 sigmas the window cuts off posterior mass (at 1 and 4 sigmas the
    # values were off by 2.7e-2 and 3.8e-6 at c = 1); at 8, erfc(8 / sqrt(2)) ~ 1e-15
    for width in (-2.0, 1.0, 4.0, np.nextafter(8.0, 0.0), np.inf, np.nan):
        with pytest.raises(ValueError, match="integration_half_width_sigmas"):
            relabel_ratio_curve(1.0, [1.0], integration_half_width_sigmas=width)
    with pytest.raises(EmptyInputError):
        relabel_ratio_curve(10.0, [])
    with pytest.raises(NonPositiveTemperatureError):
        relabel_ratio_curve(10.0, [1.0, 0.0])


@pytest.mark.parametrize("c", [1.0, 1000.0])
@pytest.mark.parametrize("width", [8.0, 1e3, 1e4])
def test_every_accepted_window_width_gives_the_default_values(c, width):
    # a wide window's coarse passes can miss the posterior between nodes and
    # agree falsely (width 1e4 was off by 7e-2 at c = 1 and 0.84 at c = 1000),
    # so refinement ends only at a node spacing of sqrt(2 c t) / 4 or less
    temps = [1.0, 0.1, 0.01, 0.001]
    reference, _ = relabel_ratio_curve(c, temps)
    probability, _ = relabel_ratio_curve(c, temps, integration_half_width_sigmas=width)
    np.testing.assert_allclose(probability, reference, rtol=2e-8)


# --- the window capped at the posterior's support ---------------------------

# The probe values of the bundled fig2a and fig2b grids with the window at the
# full 40 prior SDs, before it was capped, keyed by (config, latent scale)
_WIDTH_40_VALUES = {
    ('fig2a', 1000.0): [
        0.003503935943690727, 0.0036143295510455936, 0.003742461307057625,
        0.0038904080823955953, 0.004060382058144676, 0.0042547455090734265,
        0.0044760308348100915, 0.004726965209293776, 0.005010499088109712,
        0.005329837848984723, 0.005688475982503362, 0.006090233435744333,
        0.006539293891170286, 0.007040244904054218, 0.007598119906715263,
        0.00821844211037994, 0.008907270295657823, 0.009671246384920288,
        0.010517644544428746, 0.011454421390919343, 0.012490266712335447,
        0.013634654009603847, 0.014897890189365128, 0.016291163931891405,
        0.01782659260749281,
    ],
    ('fig2b', 1.0): [
        0.3631618460316305, 0.35800279087264836, 0.35367825219374477,
        0.3501283906111425, 0.34726662874225134, 0.34499438266085425,
        0.34321261357144195, 0.34182945505410467, 0.3407642832616945,
        0.3399491168747341, 0.3393283014637692, 0.33885726445826403,
        0.3385008904375867, 0.3382318533069485, 0.3380290841126498,
        0.3378764505765784, 0.337761664522826, 0.3376754023781312,
        0.33761061065014847, 0.33756196493726526, 0.3375254526859431,
        0.33749805371254815, 0.33747749688343803, 0.3374620755283023,
        0.33745050781903024,
    ],
    ('fig2b', 10.0): [
        0.16577755748994447, 0.15453924335691271, 0.1449622579962325,
        0.1369527023668144, 0.13036870461162645, 0.1250407207596736,
        0.12078911110257859, 0.11743778354833573, 0.1148236703862652,
        0.11280235416125654, 0.11125047244745531, 0.11006570251399789,
        0.10916516096413667, 0.10848295860787341, 0.1079674736322364,
        0.10757870948647183, 0.10728593537081689, 0.10706568688128762,
        0.10690013084787646, 0.10677576044061073, 0.10668237163181307,
        0.10661227011658221, 0.1065596621675169, 0.10652018971882012,
        0.10649057716064333,
    ],
    ('fig2b', 100.0): [
        0.055962744159852425, 0.049815669348013986, 0.04453368035339148,
        0.04002559367414878, 0.036204708766956445, 0.032990182787781534,
        0.030307563029248245, 0.028088695428645234, 0.026271275457090345,
        0.024798299220125806, 0.02361762267825527, 0.022681751928201432,
        0.021947877578751752, 0.021378059844084328, 0.020939408728694157,
        0.02060411200372272, 0.02034923224963865, 0.020156281575701922,
        0.020010645699625424, 0.019900949259184352, 0.01981843976127389,
        0.019756438296840137, 0.01970987733294219, 0.019674926747566525,
        0.019648699093340508,
    ],
    ('fig2b', 1000.0): [
        0.01782659260749281, 0.015577537336375414, 0.013634654009603847,
        0.01195938735467569, 0.010517644544428746, 0.009279425619364456,
        0.00821844211037994, 0.00731173371266683, 0.006539293891170286,
        0.005883712300376107, 0.005329837848984723, 0.004864463238685189,
        0.0044760308348100915, 0.004154361079665386, 0.0038904080823955953,
        0.0036760513919584853, 0.003503935943690727, 0.003367370603242995,
        0.003260287409903387, 0.0031772498847399936, 0.003113485531529754,
        0.003064912528304281, 0.003028137246983536, 0.0030004140296200714,
        0.002979573392415021,
    ],
}


def _bundled_probe(name):
    return json.loads((Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
                      .read_text())["probe"]


@pytest.mark.parametrize("name", ["fig2a", "fig2b"])
def test_capped_window_keeps_the_width_40_values(name):
    raw = _bundled_probe(name)
    for c in raw["latent_scales"]:
        probability, _ = relabel_ratio_curve(c, raw["temperatures"])
        np.testing.assert_allclose(probability, _WIDTH_40_VALUES[(name, c)], rtol=1e-11,
                                   atol=0.0)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e6])
def test_cap_changes_values_below_its_bound(monkeypatch, c):
    # the window's cut drops at most tol / 100 of either integral; measured,
    # the capped and uncapped values differ by at most 1e-13
    temps = [1.0, 1e-2, 1e-4]
    capped, _ = relabel_ratio_curve(c, temps)
    monkeypatch.setattr(aleatoric, "_support_half_width", lambda c, tol, width, centre: width)
    uncapped, _ = relabel_ratio_curve(c, temps)
    np.testing.assert_allclose(capped, uncapped, rtol=1e-12, atol=0.0)


def test_support_half_width_bounds():
    scales = [float(c) for c in np.logspace(-300.0, 308.0, 609)] + [1.7976931348623157e308]
    centres = [_posterior_mode(c) for c in scales]
    for tol in (1e-12, 1e-8, 1e-3, 10.0):
        for width in (8.0, 9.0, 40.0, 1e300):
            r = [_support_half_width(c, tol, width, d) for c, d in zip(scales, centres)]
            assert all(8.0 <= v <= width for v in r), (tol, width)
            assert all(a <= b for a, b in zip(r, r[1:])), (tol, width)  # non-decreasing in c
    r = {c: _support_half_width(c, 1e-8, 40.0, _posterior_mode(c))
         for c in (1e-3, 1.0, 100.0, 1000.0, 1e6, 1e154)}
    assert r[1e-3] == r[1.0] == r[100.0] == r[1000.0] == 8.0
    assert 8.9 < r[1e6] < 9.0 and 33.0 < r[1e154] < 33.1
    for c in (1e6, 1e154):
        # r meets the bound of the module docstring, and no float below it does
        centre = _posterior_mode(c)
        target = _sigmoid(-centre) * 1e-8 / (200.0 * np.sqrt(0.5 * c + 1.0))
        assert math.erfc(r[c] / np.sqrt(2.0)) <= target
        assert math.erfc(np.nextafter(r[c], 0.0) / np.sqrt(2.0)) > target
    for c in (1e200, 1e300, 1.7976931348623157e308):
        # sigmoid(-d*) tol / 100 / (2 sqrt(c/2 + 1)) underflows: the configured width stays
        for width in (40.0, 1e300):
            assert _support_half_width(c, 1e-8, width, _posterior_mode(c)) == width


@pytest.mark.parametrize("c,width", [(1000.0, 1e5), (1.0, 5.2e5), (1e-3, 1e300),
                                     (1e6, 1e300)])
def test_wide_windows_give_the_width_40_values(c, width):
    # at 1e5 SDs (c = 1000) and 5.2e5 SDs (c = 1) the uncapped window ran out
    # of panels; the capped one is the same at every configured width >= r
    temps = [1.0, 0.1, 0.01, 0.001]
    probability, ratio = relabel_ratio_curve(c, temps, integration_half_width_sigmas=width)
    reference, reference_ratio = relabel_ratio_curve(c, temps)
    assert _bits(probability) == _bits(reference) and _bits(ratio) == _bits(reference_ratio)
    if ("fig2b", c) in _WIDTH_40_VALUES:
        grid = _bundled_probe("fig2b")["temperatures"]
        width_40 = [_WIDTH_40_VALUES[("fig2b", c)][grid.index(t)] for t in temps]
        np.testing.assert_allclose(probability, width_40, rtol=1e-11, atol=0.0)


def test_disagreement_mc_hand_values():
    # tied logits: relabel flips with probability 1/2.  Each sample is a
    # (class_count, n) matrix: row c holds class c's latents at the n points
    samples = [np.array([[0.0, 3.0], [0.0, -1.0]])]
    labels = np.array([0, 0])
    assert relabel_disagreement_mc(samples, labels, 0) == 0.5
    # second point: disagree prob is softmax weight of the other class
    np.testing.assert_allclose(relabel_disagreement_mc(samples, labels, 1),
                               1.0 - expit(4.0), rtol=1e-12)
    two = samples + [np.array([[2.0, 0.0], [0.0, 0.0]])]
    np.testing.assert_allclose(relabel_disagreement_mc(two, labels, 0),
                               0.5 * (0.5 + 1.0 - expit(2.0)), rtol=1e-12)


def test_disagreement_mc_on_sample_set_array():
    # a (chains, samples, C, n) array of latent samples goes in as is and
    # matches the per-sample average over its matrices.  The sweep keeps no
    # latent samples: its sampler reads out v^T G for a readout v, and with
    # v = L^T that is the training latents F = L @ G
    train, _ = gen_cluster_classification(6, 3, 2, 2.0, seed=2)
    cfg = EssConfig(n_chains=2, burn_in=10, n_samples_per_chain=5, thinning=1)
    factor = cholesky(gram(KernelSpec("rbf"), train.inputs, train.inputs))
    samples = _sample_grid(train, [0.5], [3], cfg, factor, factor.lower.T)[0][0]
    matrices = samples.reshape(-1, train.class_count, train.n)
    for index in (0, train.n - 1):
        y = train.targets[index]
        expect = np.mean([1.0 - np.exp(f[y, index]) / np.exp(f[:, index]).sum()
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


# --- lock-step quadrature against a per-temperature loop ---------------------

def _loop_log_sums(c, t, width, intervals, centre, index):
    """(normalizer, numerator) log-sums of one temperature's trapezoid terms at
    the z-grid nodes ``index``, with the log posterior relative to its peak."""
    z = (index - intervals // 2) * (width / (intervals // 2))
    d = np.sqrt(2.0 * c * t) * z + centre

    def g(x):
        return x * x * 0.25 / c + np.logaddexp(0.0, -x)

    log_post = -np.maximum(g(d) - g(centre), 0.0) / t
    terms = [log_post, log_post - np.logaddexp(0.0, d)]
    if index[0] == 0.0:  # the whole grid: weight 1/2 at the two ends
        for v in terms:
            v[[0, -1]] -= math.log(2.0)

    def lse(v):
        m = np.max(v)
        with np.errstate(invalid="ignore"):
            return m + np.log(np.sum(np.exp(v - m)))

    return np.array([lse(v) for v in terms])


def _loop_quadrature(c, t, tol, width, centre, max_panels=2 ** 20):
    """(value, final intervals) of one temperature's trapezoid refinement: it
    starts at the fewest power-of-two intervals whose node spacing is at most
    a quarter of sqrt(2 c t), and each pass adds the new odd nodes to the
    running log-sums."""
    intervals = 1
    while intervals < 8.0 * width:
        intervals *= 2
    sums = _loop_log_sums(c, t, width, intervals, centre, np.arange(intervals + 1.0))
    while intervals <= max_panels:
        intervals *= 2
        new = np.logaddexp(sums, _loop_log_sums(c, t, width, intervals, centre,
                                                np.arange(1.0, intervals, 2.0)))
        prev, cur = float(np.exp(sums[1] - sums[0])), float(np.exp(new[1] - new[0]))
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur, intervals
        sums = new
    raise QuadratureNotConvergedError(
        f"no convergence to {tol!r} within {max_panels} panels "
        f"(latent_scale={c!r}, temperature={t!r})")


def _loop_curve(c, temps, tol=1e-8, width=40.0, max_panels=2 ** 20):
    centre = _posterior_mode(c)
    width = _support_half_width(c, tol, width, centre)
    base, _ = _loop_quadrature(c, 1.0, tol, width, centre, max_panels)
    probability = np.array([base if t == 1.0 else
                            _loop_quadrature(c, t, tol, width, centre, max_panels)[0]
                            for t in temps])
    return probability, probability / base


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


@st.composite
def _grids(draw):
    # a small pool drawn into a grid gives duplicates, one-point grids and
    # grids with or without 1.0; 1e-300 makes every window a single point
    temperature = st.one_of(st.floats(min_value=1e-3, max_value=4.0), st.just(1.0),
                            st.just(1e-300))
    pool = draw(st.lists(temperature, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=-2.0, max_value=3.0), _grids(),
       st.sampled_from([1e-8, 1e-6]), st.sampled_from([40.0, 8.0]))
def test_lock_step_curve_matches_per_temperature_loop_bitwise(log_c, temps, tol, width):
    c = 10.0 ** log_c
    probability, ratio = relabel_ratio_curve(c, temps, tol, width)
    ref_probability, ref_ratio = _loop_curve(c, temps, tol, width)
    assert _bits(probability) == _bits(ref_probability)
    assert _bits(ratio) == _bits(ref_ratio)
    single = relabel_ratio_curve(c, [temps[0]], tol, width)[0][0]
    assert _bits(single) == _bits(ref_probability[0])


def test_even_nodes_keep_their_bits():
    # node 2i at 2N intervals is node i at N intervals, so the terms that a
    # row's running sums hold are those of the finer grid's even nodes; the
    # grid is symmetric about 0 and ends at -r and r
    for r in (8.0, np.nextafter(8.0, np.inf), 8.93, 33.1, 40.0, 1e300, 1.7976931348623157e308):
        for n in (2, 256, 4096, 2 ** 20):
            coarse = _z_nodes(r, n, np.arange(n + 1.0))
            fine = _z_nodes(r, 2 * n, np.arange(2 * n + 1.0))
            assert _bits(fine[::2]) == _bits(coarse)
            assert coarse[0] == -r and coarse[n // 2] == 0.0 and coarse[-1] == r
            assert np.array_equal(coarse, -coarse[::-1])
            assert _bits(_z_nodes(r, 2 * n, np.arange(1.0, 2 * n, 2.0))) == _bits(fine[1::2])


def _record_levels(monkeypatch):
    """Wrap _log_terms; returns {temperature: [(level nodes, nodes evaluated)]}, with
    every node array evaluated per temperature and the (rows, nodes) of every call."""
    seen, nodes, rows = {}, {}, []
    real = aleatoric._log_terms

    def recording(d, t, c, centre):
        k = d.shape[1]
        level = k if k % 2 else 2 * k + 1  # a whole level, or its odd nodes
        rows.append((d.shape[0], k))
        for row, temp in zip(d, t[:, 0]):
            seen.setdefault(float(temp), []).append((level, k))
            nodes.setdefault(float(temp), []).append(row.copy())
        return real(d, t, c, centre)

    monkeypatch.setattr(aleatoric, "_log_terms", recording)
    return seen, nodes, rows


def test_fig2b_probe_work_count(monkeypatch):
    # each distinct temperature evaluates the N + 1 nodes of its final level
    # once each, its levels start at 2^ceil(log2 8r) = 64 intervals (r = 8 at
    # every scale of the grid), and rows refined together hold at most
    # _NODE_BUDGET doubles
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / "fig2b.json")
                     .read_text())["probe"]
    temps = raw["temperatures"]
    total = 0
    seen, nodes, rows = _record_levels(monkeypatch)
    for c in raw["latent_scales"]:
        for record in (seen, nodes, rows):
            record.clear()
        relabel_ratio_curve(c, temps)
        centre = _posterior_mode(c)
        width = _support_half_width(c, 1e-8, 40.0, centre)
        assert width == 8.0 and set(seen) == set(temps)
        for t in temps:
            _, final = _loop_quadrature(c, t, 1e-8, width, centre)
            assert sum(k for _, k in seen[t]) == final + 1, (c, t)
            assert [level for level, _ in seen[t]] == [n + 1 for n in
                                                       64 * 2 ** np.arange(len(seen[t]))]
            evaluated = np.concatenate(nodes[t])
            assert np.unique(evaluated).size == evaluated.size == final + 1
            total += evaluated.size
        assert all(n == 1 or n * k <= aleatoric._NODE_BUDGET for n, k in rows)
    # 63,076 from a fixed start at 256 intervals, 124,004 with Simpson's rule,
    # 327,780 at 40 prior SDs
    assert total == 36_452


@pytest.mark.parametrize("c,uncapped,start", [(1000.0, False, 64), (1e6, False, 128),
                                             (1e154, False, 512), (1000.0, True, 512)])
def test_refinement_starts_at_the_coarsest_level_the_spacing_rule_admits(monkeypatch, c,
                                                                         uncapped, start):
    # r = 8, 8.93, 33.1 and an uncapped 40 start at 2^ceil(log2 8r) intervals,
    # and both levels of the first comparison have a node spacing, 2 r
    # sqrt(2 c t) / intervals, of sqrt(2 c t) / 4 or less
    if uncapped:
        monkeypatch.setattr(aleatoric, "_support_half_width",
                            lambda c, tol, width, centre: width)
    r = aleatoric._support_half_width(c, 1e-8, 40.0, _posterior_mode(c))
    assert start == 2 ** math.ceil(math.log2(8.0 * r))
    seen, _, _ = _record_levels(monkeypatch)
    if c == 1e154:  # no level converges: stop after the first comparison
        monkeypatch.setattr(aleatoric, "_MAX_PANELS", 2 * start)
        with pytest.raises(QuadratureNotConvergedError):
            relabel_ratio_curve(c, [1.0, 0.01])
    else:
        relabel_ratio_curve(c, [1.0, 0.01])
    for t in (1.0, 0.01):
        levels = [level for level, _ in seen[t][:2]]
        assert levels == [start + 1, 2 * start + 1], (t, levels)
        assert all(2.0 * r / (level - 1) <= 0.25 for level in levels)


@pytest.mark.parametrize("width", [1e300, 1.7976931348623157e308])
def test_a_start_past_the_panel_limit_raises_before_evaluating(monkeypatch, width):
    # at c = 1e200 the window bound's right side underflows, so r is the
    # configured width, whose first level, past 2^1000 intervals, has no finer
    # level within the panel limit to agree with
    seen, _, _ = _record_levels(monkeypatch)
    with pytest.raises(QuadratureNotConvergedError, match=r"temperature=1\.0\)"):
        relabel_ratio_curve(1e200, [0.5], integration_half_width_sigmas=width)
    assert not seen


def test_nodes_that_square_past_the_float_range_warn_nothing():
    # at c = 1e300 and a 1e4-sigma window the nodes' squares overflow to inf,
    # the intended value, so the curve fails to converge and warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureNotConvergedError):
            relabel_ratio_curve(1e300, [0.5], integration_half_width_sigmas=1e4)


def test_log_terms_keep_the_bits_of_their_formula():
    # ordinary nodes: -max(g(d) - g(d*), 0) / t with g(x) = x^2 / (4 c) +
    # softplus(-x), and its sum with log sigmoid(-d), written out directly
    rng = np.random.default_rng(0)
    d, t = rng.normal(0.0, 30.0, (3, 65)), np.array([[0.01], [0.5], [1.0]])
    c, centre = 100.0, 1.25

    def g(x):
        return x * x * 0.25 / c + np.logaddexp(0.0, -x)

    ref = -np.maximum(g(d) - g(centre), 0.0) / t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_post, log_num = aleatoric._log_terms(d, t, c, centre)
    np.testing.assert_array_equal(log_post.view(np.int64), ref.view(np.int64))
    np.testing.assert_array_equal(log_num.view(np.int64),
                                  (ref - np.logaddexp(0.0, d)).view(np.int64))


def test_budget_advances_rows_depth_first(monkeypatch):
    # two rows fit the budget for the first two passes (65 and 64 nodes
    # each), one row past them: the rows go depth-first in (t = 1, grid)
    # order, so 16.0 runs out of panels before 4.0 is refined past its second
    # level or 64.0 is evaluated at all.  At c = 1000 the window is 8 prior
    # SDs wide, refinement starts at 64 intervals, and t = 1, 0.1 and 16.0
    # need 2048, 1024 and 8192
    monkeypatch.setattr(aleatoric, "_MAX_PANELS", 2048)
    monkeypatch.setattr(aleatoric, "_NODE_BUDGET", 2 * 65)
    temps = [0.1, 16.0, 4.0, 64.0]
    with pytest.raises(QuadratureNotConvergedError) as loop_error:
        _loop_curve(1000.0, temps, max_panels=2048)
    seen, _, rows = _record_levels(monkeypatch)
    with pytest.raises(QuadratureNotConvergedError) as error:
        relabel_ratio_curve(1000.0, temps)
    assert str(error.value) == str(loop_error.value)
    assert "temperature=16.0)" in str(error.value)
    levels = {t: [level for level, _ in seen.get(t, [])] for t in [1.0] + temps}
    assert levels == {1.0: [65, 129, 257, 513, 1025, 2049], 0.1: [65, 129, 257, 513, 1025],
                      16.0: [65, 129, 257, 513, 1025, 2049, 4097], 4.0: [65, 129], 64.0: []}
    assert all(n == 1 or n * k <= 2 * 65 for n, k in rows)


def test_failing_probe_holds_a_few_top_level_arrays(monkeypatch):
    # at c = 1e154 no row converges; the t = 1 reference raises first, and
    # the memory held is a few arrays of the last level, not a level per row
    monkeypatch.setattr(aleatoric, "_MAX_PANELS", 2 ** 17)
    temps = json.loads((Path(__file__).resolve().parent.parent / "configs" / "fig2b.json")
                       .read_text())["probe"]["temperatures"]
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureNotConvergedError, match=r"temperature=1\.0\)"):
            relabel_ratio_curve(1e154, temps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    top_level = (2 * 2 ** 18 + 1) * 8
    assert peak <= 4.5 * top_level, peak / top_level
