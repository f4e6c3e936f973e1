"""Kernel descriptions and Gram assembly.

Two families:

``rbf``
    k(x, x') = scale * rbf_variance * exp(-||x - x'||^2 / (2 * rbf_lengthscale^2))

``nngp``
    The infinite-width limit of a fully connected rectifier network at
    initialization.  Layer zero is an affine map of the inner product,

        K0(x, x') = sigma_b2 + sigma_w2 * (x . x') / d,

    and each of ``depth`` hidden layers applies the arc-cosine update of
    Cho & Saul (2009, "Kernel Methods for Deep Learning")

        q   = sqrt(K(x, x) * K(x', x'))
        rho = clip(K(x, x') / q, -1, 1)        # clip: FP drift can leave [-1, 1]
        J   = sqrt((1 - rho) * (1 + rho)) + (pi - arccos(rho)) * rho
        K'  = sigma_b2 + sigma_w2 / (2 pi) * q * J

    J is the textbook sin theta + (pi - theta) cos theta with theta =
    arccos(rho): cos theta = rho, and sin theta = sqrt(1 - rho^2) because
    theta lies in [0, pi], where the sine is non-negative.  Writing
    1 - rho^2 as (1 - rho)(1 + rho) keeps it accurate near rho = +-1, and
    one sqrt replaces the sin and cos passes.  J(1) = pi and J(-1) = 0
    exactly.  The final matrix is multiplied by ``scale``.  Defaults are the
    critical initialization sigma_w2 = 2, sigma_b2 = 0 with two hidden layers.

    The Gram starts from one product a @ b.T; the recursion then runs in
    place on one block of rows at a time (``linalg.block_rows``), so past
    the n x m output only block-sized scratch is held.  A symmetric Gram
    (b is a) visits only the lower triangle, diagonal blocks whole, and
    mirrors the strict lower triangle into the upper.

A Gram matrix scales linearly with ``scale``.  Temperature sweeps do not
go through it: classification draws its tempered prior as sqrt(T) * chol(K)
from one factor of the untempered K, and regression multiplies the
predictive variance by T.  A kernel with ``scale`` multiplied by T is the
modified-prior device of the tempering identities: the regression posterior
at temperature T equals the untempered one under prior T * K and noise
variance T * sigma^2, which the acceptance tests check against the sweep's
scalar tempering.

Squared distances for the rbf Gram come from a numpy loop over the input
columns, in ``cdist(a, b, "sqeuclidean")``'s order: acc = (a_0 - b_0)^2,
then acc += (a_j - b_j)^2 for j = 1 .. d - 1, each square a separate
multiply, so their bits are cdist's and no scipy is loaded.  It works one
block of rows at a time in one block of scratch (``linalg.block_rows``),
and a symmetric Gram computes its lower triangle, diagonal blocks whole,
and mirrors it: (x - y)^2 and (y - x)^2 have the same bits.  The trade-off,
on a 2-core Xeon VM at one thread: at d = 1 the loop is as fast as cdist,
at d = 8 it takes 2-4 times cdist's time (a 400 x 400 training Gram 2.2 ms
against 0.9 ms, a 2000 x 2000 one 49 ms against 22 ms), and in exchange no
rbf run loads ``scipy.spatial``, which brings ``scipy.linalg``,
``scipy.special``, ``scipy.sparse`` and scipy's OpenBLAS: about 30 MB of
resident memory and 0.4 to 0.5 s of import time per process.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    NonPositiveScaleError,
)
from .linalg import block_rows

FAMILIES = ("rbf", "nngp")


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a kernel.

    RBF parameters are ignored by the nngp family and vice versa; the
    constructor only validates the fields the family actually uses.
    """

    family: str
    rbf_lengthscale: float = 1.0
    rbf_variance: float = 1.0
    depth: int = 2
    sigma_w2: float = 2.0
    sigma_b2: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise NonPositiveScaleError(f"scale must be positive and finite, got {self.scale!r}")
        if self.family == "rbf":
            if not (np.isfinite(self.rbf_lengthscale) and self.rbf_lengthscale > 0.0):
                raise ValueError(f"rbf_lengthscale must be positive, got {self.rbf_lengthscale!r}")
            if not 0.0 < self.rbf_lengthscale * self.rbf_lengthscale < np.inf:
                # the Gram divides by its square, taken in Python floats, which
                # raise OverflowError past the float range and round to 0 below it
                raise ValueError(f"rbf_lengthscale is squared, so its square must be positive "
                                 f"and finite, got {self.rbf_lengthscale!r}")
            if not (np.isfinite(self.rbf_variance) and self.rbf_variance > 0.0):
                raise ValueError(f"rbf_variance must be positive, got {self.rbf_variance!r}")
        else:
            if int(self.depth) != self.depth or self.depth < 1:
                raise ValueError(f"depth must be an integer >= 1, got {self.depth!r}")
            if not (np.isfinite(self.sigma_w2) and self.sigma_w2 > 0.0):
                raise ValueError(f"sigma_w2 must be positive, got {self.sigma_w2!r}")
            if not (np.isfinite(self.sigma_b2) and self.sigma_b2 >= 0.0):
                raise ValueError(f"sigma_b2 must be non-negative, got {self.sigma_b2!r}")

    @staticmethod
    def rbf(lengthscale: float = 1.0, variance: float = 1.0, scale: float = 1.0) -> "KernelSpec":
        return KernelSpec(family="rbf", rbf_lengthscale=lengthscale, rbf_variance=variance, scale=scale)

    @staticmethod
    def nngp(depth: int = 2, sigma_w2: float = 2.0, sigma_b2: float = 0.0, scale: float = 1.0) -> "KernelSpec":
        return KernelSpec(family="nngp", depth=depth, sigma_w2=sigma_w2, sigma_b2=sigma_b2, scale=scale)


def _check_inputs(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError(f"inputs must be 2-D (n, d) arrays, got {a.shape} and {b.shape}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptyInputError("gram needs at least one row per side")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"input dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise NonFiniteInputError("kernel inputs contain NaN or infinity")
    return a, b


def _sq_distances(a, b, symmetric: bool) -> np.ndarray:
    """The (n, m) squared Euclidean distances between the rows of ``a`` and
    ``b``, bit for bit those of ``cdist(a, b, "sqeuclidean")``.

    Each coordinate adds (a_j - b_j)^2 in column order, so each input is
    transposed once and its columns are contiguous.  ``symmetric`` (b is a)
    computes only the lower triangle's row blocks and mirrors them.
    """
    n, m = a.shape[0], b.shape[0]
    at = a.T.copy()
    bt = at if symmetric else b.T.copy()
    k = np.empty((n, m))
    # the running sum and one coordinate's squares share one block of scratch
    rows = min(block_rows(2 * m), n)
    scratch = np.empty((2, rows * m))
    # a difference of finite inputs may overflow to inf, as it does in cdist
    with np.errstate(over="ignore"):
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            width = r1 if symmetric else m
            acc, sq = (s[: (r1 - r0) * width].reshape(r1 - r0, width) for s in scratch)
            np.subtract.outer(at[0, r0:r1], bt[0, :width], out=acc)
            acc *= acc
            for x, y in zip(at[1:], bt[1:]):
                np.subtract.outer(x[r0:r1], y[:width], out=sq)
                sq *= sq
                acc += sq
            k[r0:r1, :width] = acc
            if symmetric:
                k[:r0, r0:r1] = acc[:, :r0].T
    return k


def _rbf_gram(spec: KernelSpec, a, b, symmetric: bool) -> np.ndarray:
    # in place on the distances, so the n x m result is the only n x m array;
    # the operations are those of amp * exp(-d2 / (2 l^2)), so the bits are too
    k = _sq_distances(a, b, symmetric)
    np.negative(k, out=k)
    # a subnormal 2 l^2 sends d2 / (2 l^2) to -inf off the diagonal, and
    # exp(-inf) = 0 is the kernel's limit there
    with np.errstate(over="ignore"):
        k /= 2.0 * spec.rbf_lengthscale**2
    np.exp(k, out=k)
    k *= spec.scale * spec.rbf_variance
    return k


def _nngp_self_covs(spec: KernelSpec, a) -> list:
    """Unscaled self-covariances K(x, x) of the rows of ``a`` at layers 0..depth."""
    covs = [spec.sigma_b2 + spec.sigma_w2 * np.einsum("ij,ij->i", a, a) / a.shape[1]]
    # theta = 0 on the diagonal, so each layer maps k -> sigma_b2 + sigma_w2 * k / 2
    for _ in range(int(spec.depth)):
        covs.append(spec.sigma_b2 + 0.5 * spec.sigma_w2 * covs[-1])
    return covs


def _arc_cosine_j(rho, out, tmp):
    """J = sqrt((1 - rho)(1 + rho)) + (pi - arccos rho) * rho, written into ``out``.

    ``rho`` is left as it is and ``tmp`` is scratch of the same shape.
    """
    np.subtract(1.0, rho, out=out)
    np.add(1.0, rho, out=tmp)
    out *= tmp
    np.sqrt(out, out=out)
    np.arccos(rho, out=tmp)
    np.subtract(np.pi, tmp, out=tmp)
    tmp *= rho
    out += tmp
    return out


def _nngp_gram(spec: KernelSpec, a, b, symmetric: bool) -> np.ndarray:
    n, m, d = a.shape[0], b.shape[0], a.shape[1]
    w, bias = spec.sigma_w2, spec.sigma_b2
    # one product for the whole Gram: a product per row block would change bits
    # (with b is a, numpy computes a @ a.T as a symmetric rank-k update)
    k = a @ b.T
    ka = _nngp_self_covs(spec, a)
    # each hidden layer reads the previous layer's self-covariances
    variances = list(zip(ka, ka if symmetric else _nngp_self_covs(spec, b)))[:-1]
    # the recursion runs on one row block at a time, with block-sized scratch,
    # and keeps the operation order of the module docstring's formulas (+ and
    # * commute exactly), so its bits are theirs.  A cross block is a run of
    # whole rows and is worked in place.  A symmetric block stops at its last
    # row's column, so it is worked in contiguous scratch, copied back and
    # then mirrored into the upper triangle
    rows = block_rows(m)
    scratch = [np.empty(rows * m) for _ in range(4 if symmetric else 3)]
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        if symmetric:
            kk = scratch[3][: (r1 - r0) * r1].reshape(r1 - r0, r1)
            np.copyto(kk, k[r0:r1, :r1])
        else:
            kk = k[r0:r1]
        q, j, tmp = (s[: kk.size].reshape(kk.shape) for s in scratch[:3])
        kk *= w
        kk /= d
        kk += bias
        for va, vb in variances:
            np.multiply.outer(va[r0:r1], vb[: kk.shape[1]], out=q)
            np.sqrt(q, out=q)
            with np.errstate(divide="ignore", invalid="ignore"):
                kk /= q
            kk[q == 0.0] = 0.0  # rho = 0 against a zero-variance row
            np.clip(kk, -1.0, 1.0, out=kk)
            q *= w / (2.0 * np.pi)
            np.multiply(q, _arc_cosine_j(kk, j, tmp), out=kk)
            kk += bias
        kk *= spec.scale
        if symmetric:
            diag = kk[:, r0:]
            upper = np.triu_indices(r1 - r0, 1)
            diag[upper] = diag.T[upper]
            k[r0:r1, :r1] = kk
            k[:r0, r0:r1] = kk[:, :r0].T
    return k


def gram(spec: KernelSpec, a, b) -> np.ndarray:
    """Kernel matrix between row sets ``a`` (n, d) and ``b`` (m, d).

    When ``a`` and ``b`` are the same object the result is exactly symmetric:
    both families compute the lower triangle and mirror it into the upper.
    The nngp entries keep the bits of the elementwise formulas, because the
    recursion starts from a @ a.T, which numpy computes as an exactly
    symmetric rank-k update.
    """
    same = a is b
    a, b = _check_inputs(a, b)
    if same:
        b = a
    if spec.family == "rbf":
        return _rbf_gram(spec, a, b, symmetric=same)
    return _nngp_gram(spec, a, b, symmetric=same)


def gram_diag(spec: KernelSpec, a) -> np.ndarray:
    """Vector of self-covariances k(x_i, x_i) for the rows of ``a``."""
    a, _ = _check_inputs(a, a)
    if spec.family == "rbf":
        return np.full(a.shape[0], spec.scale * spec.rbf_variance)
    return spec.scale * _nngp_self_covs(spec, a)[-1]
