import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from coldgp.exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    NonPositiveScaleError,
)
from coldgp.kernels import (
    FAMILIES,
    KernelSpec,
    _arc_cosine_j,
    _sq_distances,
    gram,
    gram_diag,
)
from coldgp.linalg import block_rows

from helpers import kernel_eval, scale_kernel


def test_families_listed():
    assert FAMILIES == {"rbf": ("lengthscale", "variance", "scale"),
                        "nngp": ("depth", "sigma_w2", "sigma_b2", "scale")}


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="matern")
    with pytest.raises(ValueError):
        KernelSpec("rbf", lengthscale=0.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", variance=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("nngp", depth=0)
    # one pass per layer: depth is bounded above, at 10^4 layers
    assert KernelSpec("nngp", depth=10_000).depth == 10_000
    with pytest.raises(ValueError, match="depth must be >= 1 and <= 10000, got 10001"):
        KernelSpec("nngp", depth=10_001)
    with pytest.raises(ValueError):
        KernelSpec("nngp", sigma_w2=0.0)
    with pytest.raises(ValueError):
        KernelSpec("nngp", sigma_b2=-0.1)
    with pytest.raises(NonPositiveScaleError):
        KernelSpec("rbf", scale=0.0)


def test_gram_lengthscale_with_an_overflowing_square_is_rejected():
    # the Gram squares the lengthscale in Python floats, so gram at
    # lengthscale 1e200 raised a bare OverflowError; the spec now rejects it
    x = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValueError, match="lengthscale is squared"):
        gram(KernelSpec("rbf", lengthscale=1e200), x, x)
    # the largest lengthscales whose square is finite still give a finite Gram
    np.testing.assert_array_equal(gram(KernelSpec("rbf", lengthscale=1e154), x, x), np.ones((3, 3)))


def test_gram_lengthscale_with_an_underflowing_square_is_rejected():
    # the Gram divides by 2 l^2, so a square that rounds to 0 would make its
    # diagonal -0 / 0 = NaN; a subnormal square still gives the identity
    x = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValueError, match="lengthscale is squared"):
        KernelSpec("rbf", lengthscale=1e-200)
    with warnings.catch_warnings():  # off the diagonal d^2 / (2 l^2) overflows to inf
        warnings.simplefilter("error")
        tiny = gram(KernelSpec("rbf", lengthscale=1e-160), x, x)
    np.testing.assert_array_equal(tiny, np.eye(3))


def test_rbf_hand_values():
    spec = KernelSpec("rbf", lengthscale=1.0, variance=1.0)
    # at squared distance 2 ln 2 the kernel is exactly 1/2
    d = np.sqrt(2.0 * np.log(2.0))
    np.testing.assert_allclose(kernel_eval(spec, [0.0], [d]), 0.5, rtol=1e-14)
    np.testing.assert_allclose(kernel_eval(spec, [0.3, -0.2], [0.3, -0.2]), 1.0, rtol=1e-15)


def test_rbf_gram_matches_bruteforce():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((4, 3))
    spec = KernelSpec("rbf", lengthscale=0.7, variance=2.5, scale=1.3)
    g = gram(spec, a, b)
    for i in range(5):
        for j in range(4):
            d2 = np.sum((a[i] - b[j]) ** 2)
            ref = 1.3 * 2.5 * np.exp(-d2 / (2 * 0.7**2))
            np.testing.assert_allclose(g[i, j], ref, rtol=1e-12)


@pytest.mark.parametrize("n, m", [(300, None), (1500, None), (1600, 1500)])
def test_rbf_gram_matches_fresh_array_expression_bitwise(n, m):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 5))
    b = a if m is None else rng.standard_normal((m, 5))
    spec = KernelSpec("rbf", lengthscale=0.7, variance=2.5, scale=1.3)
    ref = 1.3 * 2.5 * np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * 0.7**2))
    np.testing.assert_array_equal(gram(spec, a, b), ref)


# coordinates that reach each rounding case of a squared difference: signed
# zeros, subnormals, squares that underflow, magnitudes near 1e154 whose
# squares overflow to inf, and differences that overflow themselves
_EDGE_COORDS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                     1e154, -1e154, 1.35e154, -1.35e154, 1e308, -1e308]))


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_sq_distances_match_cdist_bitwise(data):
    # the column loop adds (a_j - b_j)^2 in cdist's order, so every entry
    # has cdist's bits, whatever the row blocks; a symmetric Gram's mirrored
    # upper triangle has them too, since (x - y)^2 and (y - x)^2 agree
    from scipy.spatial.distance import cdist

    d = data.draw(st.integers(1, 17))
    n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
    a = data.draw(hnp.arrays(np.float64, (n, d), elements=_EDGE_COORDS))
    symmetric = data.draw(st.booleans())
    b = a if symmetric else data.draw(hnp.arrays(np.float64, (m, d), elements=_EDGE_COORDS))
    rows = data.draw(st.integers(1, n))
    with mock.patch("coldgp.kernels.block_rows", lambda width: rows), warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow is inf, as in cdist, not a warning
        got = _sq_distances(a, b, symmetric)
    ref = cdist(a, b, "sqeuclidean")
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("n, m", [(1500, None), (1600, 1500)])
def test_rbf_gram_memory_stays_near_output_size(n, m):
    # the distances are summed in row blocks of bounded scratch and the
    # exponential runs in place on them: no second n x m array
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 8))
    b = a if m is None else rng.standard_normal((m, 8))
    gram(KernelSpec("rbf"), a[:2], a[:2])  # one warm-up call outside the trace
    tracemalloc.start()
    try:
        g = gram(KernelSpec("rbf"), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * g.nbytes


def test_gram_symmetric_and_consistent():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((7, 2))
    b = rng.standard_normal((3, 2))
    big = rng.standard_normal((300, 8))
    for spec in (KernelSpec("rbf"), KernelSpec("nngp")):
        g = gram(spec, a, a)
        assert np.array_equal(g, g.T)  # symmetric path is exact
        np.testing.assert_allclose(gram(spec, a, b), gram(spec, b, a).T, rtol=1e-12)
        np.testing.assert_allclose(gram_diag(spec, a), np.diag(g), rtol=1e-12)
        # at this size a gemm of two distinct buffers leaves (i, j), (j, i) pairs ulps apart
        g = gram(spec, big, big)
        assert np.array_equal(g, g.T)


def _nngp_reference(spec, a, b):
    """The arc-cosine recursion written with fresh arrays and a masked divide.

    J is the trig-free sqrt((1 - rho)(1 + rho)) + (pi - arccos rho) * rho;
    test_arc_cosine_j_matches_trig_form ties it to sin theta + (pi - theta) cos theta.
    """
    d = a.shape[1]
    w, bias = spec.sigma_w2, spec.sigma_b2
    k = bias + w * (a @ b.T) / d
    ka = bias + w * np.einsum("ij,ij->i", a, a) / d
    kb = bias + w * np.einsum("ij,ij->i", b, b) / d
    for _ in range(spec.depth):
        q = np.sqrt(np.multiply.outer(ka, kb))
        rho = np.divide(k, q, out=np.zeros_like(k), where=q > 0.0)
        np.clip(rho, -1.0, 1.0, out=rho)
        j = np.sqrt((1.0 - rho) * (1.0 + rho)) + (np.pi - np.arccos(rho)) * rho
        k = bias + (w / (2.0 * np.pi)) * q * j
        ka = bias + 0.5 * w * ka
        kb = bias + 0.5 * w * kb
    return spec.scale * k


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("sigma_b2", [0.0, 0.5])
def test_nngp_gram_matches_reference_bitwise(depth, sigma_b2):
    spec = KernelSpec("nngp", depth=depth, sigma_b2=sigma_b2, scale=1.7)
    for n, m, zero_row in [(300, 200, 17), (1100, 700, 500)]:
        rng = np.random.default_rng(depth)
        a = rng.standard_normal((n, 8))
        b = rng.standard_normal((m, 8))
        a[zero_row] = 0.0  # with sigma_b2 = 0 its variance is 0 at every layer: the q == 0 path
        if n > 300:
            # each order spans at least 3 row blocks with a ragged last one,
            # and the zero row lies outside the first block
            for rows, cols in [(n, n), (n, m), (m, n)]:
                assert rows >= 3 * block_rows(cols) and rows % block_rows(cols)
            assert zero_row >= max(block_rows(n), block_rows(m))
        g = gram(spec, a, a)
        np.testing.assert_array_equal(g, _nngp_reference(spec, a, a))
        assert np.array_equal(g, g.T) and np.all(np.isfinite(g))
        np.testing.assert_array_equal(gram(spec, b, a), _nngp_reference(spec, b, a))
        np.testing.assert_array_equal(gram(spec, a, b), _nngp_reference(spec, a, b))


@pytest.mark.parametrize("n, m", [(1500, None), (1600, 1500)])
def test_nngp_gram_memory_stays_near_output_size(n, m):
    # the recursion runs on row blocks in place: past the output array itself
    # only block-sized scratch is allocated
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 8))
    b = a if m is None else rng.standard_normal((m, 8))
    tracemalloc.start()
    try:
        g = gram(KernelSpec("nngp"), a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * g.nbytes


def _j(rho):
    rho = np.asarray(rho, dtype=np.float64)
    return _arc_cosine_j(rho, np.empty_like(rho), np.empty_like(rho))


def test_arc_cosine_j_matches_trig_form():
    eps = np.array([0.0, 1.1e-16, 2.2e-16, 5e-16, 1e-15])
    rho = np.concatenate([np.linspace(-1.0, 1.0, 200_001), [-1.0, 0.0, 1.0],
                          -1.0 + eps, 1.0 - eps])
    theta = np.arccos(rho)
    trig = np.sin(theta) + (np.pi - theta) * np.cos(theta)
    np.testing.assert_allclose(_j(rho), trig, rtol=0.0, atol=2e-15)


def test_arc_cosine_j_endpoints_exact():
    assert _j([1.0])[0] == np.pi
    assert _j([-1.0])[0] == 0.0
    assert _j([0.0])[0] == 1.0  # theta = pi / 2: sin = 1, cos = 0
    rho = np.array([0.3, -0.7])
    _j(rho)
    assert rho.tolist() == [0.3, -0.7]  # rho is left as it is


def test_kernel_eval_matches_gram():
    spec = KernelSpec("nngp", depth=3)
    x, y = np.array([0.5, 1.0]), np.array([-1.0, 2.0])
    np.testing.assert_allclose(kernel_eval(spec, x, y),
                               gram(spec, x[None, :], y[None, :])[0, 0], rtol=1e-14)


def test_nngp_hand_values_depth1():
    spec = KernelSpec("nngp", depth=1, sigma_w2=2.0, sigma_b2=0.0)
    # critical init fixed point: k(x,x) = 2 |x|^2 / d is preserved layer to layer
    np.testing.assert_allclose(kernel_eval(spec, [1.0, 1.0], [1.0, 1.0]), 2.0, rtol=1e-14)
    # orthogonal inputs: rho=0, theta=pi/2, cross value (2/2pi)*2*1 = 2/pi
    np.testing.assert_allclose(kernel_eval(spec, [1.0, 1.0], [1.0, -1.0]),
                               2.0 / np.pi, rtol=1e-14)


def test_nngp_diag_fixed_point_any_depth():
    x = np.array([[0.5, -1.5, 2.0]])
    base = 2.0 * np.sum(x**2) / 3
    for depth in (1, 2, 5):
        spec = KernelSpec("nngp", depth=depth, sigma_w2=2.0, sigma_b2=0.0)
        np.testing.assert_allclose(gram_diag(spec, x)[0], base, rtol=1e-13)


def _quad_relu_layer(cov, sigma_w2, sigma_b2):
    """One rectifier layer by adaptive 2-D quadrature: independent of the
    closed-form arc-cosine expression under test.

    E[relu(u)^2] = var(u)/2 by symmetry; the cross moment integrates
    u * v * pdf over the positive quadrant, where the integrand is smooth.
    """
    import scipy.integrate
    import scipy.stats
    dist = scipy.stats.multivariate_normal(mean=[0.0, 0.0], cov=cov + 1e-13 * np.eye(2))
    hi_u, hi_v = 12.0 * np.sqrt(cov[0, 0]), 12.0 * np.sqrt(cov[1, 1])
    e, _ = scipy.integrate.dblquad(
        lambda v, u: u * v * dist.pdf([u, v]), 0.0, hi_u, 0.0, hi_v,
        epsabs=1e-12, epsrel=1e-10)
    return sigma_b2 + sigma_w2 * np.array([[cov[0, 0] / 2, e], [e, cov[1, 1] / 2]])


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("sigma_b2", [0.0, 0.3])
def test_nngp_recursion_matches_quadrature(depth, sigma_b2):
    rng = np.random.default_rng(depth)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    spec = KernelSpec("nngp", depth=depth, sigma_w2=2.0, sigma_b2=sigma_b2)
    cov = sigma_b2 + 2.0 * np.array([[x @ x, x @ y], [x @ y, y @ y]]) / 4
    for _ in range(depth):
        cov = _quad_relu_layer(cov, 2.0, sigma_b2)
    np.testing.assert_allclose(kernel_eval(spec, x, y), cov[0, 1], rtol=1e-7)
    np.testing.assert_allclose(kernel_eval(spec, x, x), cov[0, 0], rtol=1e-7)


def test_scale_kernel_scales_gram_linearly():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 2))
    for spec in (KernelSpec("rbf", variance=1.7), KernelSpec("nngp", depth=2)):
        for t in (0.01, 0.5, 10.0):
            np.testing.assert_allclose(gram(scale_kernel(spec, t), a, a),
                                       t * gram(spec, a, a), rtol=1e-14)
    assert scale_kernel(KernelSpec("rbf"), 2.0).scale == 2.0
    assert scale_kernel(scale_kernel(KernelSpec("rbf"), 2.0), 3.0).scale == 6.0
    with pytest.raises(NonPositiveScaleError):
        scale_kernel(KernelSpec("rbf"), 0.0)


def test_gram_input_validation():
    spec = KernelSpec("rbf")
    with pytest.raises(DimensionMismatchError):
        gram(spec, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError):
        gram(spec, np.zeros(3), np.zeros(3))
    with pytest.raises(EmptyInputError):
        gram(spec, np.zeros((0, 2)), np.zeros((2, 2)))
    for family in ("rbf", "nngp"):  # no input column
        with pytest.raises(EmptyInputError, match="input column"):
            gram(KernelSpec(family), np.zeros((3, 0)), np.zeros((2, 0)))
    with pytest.raises(NonFiniteInputError):
        gram(spec, np.array([[np.nan, 0.0]]), np.zeros((1, 2)))
    with pytest.raises(DimensionMismatchError):
        kernel_eval(spec, [1.0, 2.0], [1.0])


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000), st.sampled_from(["rbf", "nngp"]))
def test_gram_is_positive_semidefinite(n, d, seed, family):
    pts = np.random.default_rng(seed).standard_normal((n, d))
    spec = KernelSpec("rbf") if family == "rbf" else KernelSpec("nngp", depth=2)
    g = gram(spec, pts, pts)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-9 * max(eigs.max(), 1.0)


def test_nngp_finite_width_smoke():
    # small-width Monte Carlo agreement; the full-width oracle lives in the
    # acceptance suite
    rng = np.random.default_rng(123)
    pts = rng.standard_normal((3, 4))
    spec = KernelSpec("nngp", depth=2, sigma_w2=2.0, sigma_b2=0.0)
    k = gram(spec, pts, pts)
    width, nets = 1024, 400
    m = pts.shape[0]
    k0 = 2.0 * (pts @ pts.T) / pts.shape[1]
    l0 = np.linalg.cholesky(k0 + 1e-12 * np.eye(m))
    acc = np.zeros((m, m))
    for _ in range(nets):
        z1 = l0 @ rng.standard_normal((m, width))
        s2 = 2.0 / width * (np.maximum(z1, 0.0) @ np.maximum(z1, 0.0).T)
        z2 = np.linalg.cholesky(s2 + 1e-12 * np.eye(m)) @ rng.standard_normal((m, width))
        acc += 2.0 / width * (np.maximum(z2, 0.0) @ np.maximum(z2, 0.0).T)
    mc = acc / nets
    assert np.max(np.abs(mc - k) / np.abs(k)) < 0.08
