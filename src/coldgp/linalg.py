"""Dense SPD linear algebra underneath every inference path.

All factorizations go through :func:`cholesky`, which owns the jitter
policy: it factors with LAPACK ``dpotrf`` in place, in one work copy of its
input that becomes the factor, and nothing else in the package calls
``dpotrf`` or ``numpy.linalg.cholesky`` (a source scan in the test suite
checks this), so escalation and failure handling stay in one place.
:func:`tril_matmul` multiplies by a factor with a BLAS triangular multiply;
the sampler's prior draws use it.  :func:`block_rows` sizes the row blocks
that the Cholesky checks and the nngp Gram work on, so that no scratch array
grows with n^2.

``dpotrf`` and ``dtrmm`` are imported inside the two functions that call
them, so importing this module, or running a probe or ``plot-data``, never
loads ``scipy.linalg`` and scipy's OpenBLAS build; the first factor loads
them, and each later call pays one ``sys.modules`` lookup.

Arrays are float64 throughout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)

# Relative jitter rungs; each is multiplied by mean(diag(a)) before being
# added to the diagonal.  Escalated in order, first success wins.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

_SYM_RTOL = 1e-12

# Bytes of one row block of float64 scratch, for work done a block of rows at
# a time so that no temporary grows with the whole matrix.
BLOCK_BYTES = 1 << 20


def block_rows(width: int) -> int:
    """Rows of a ``width``-column float64 block that fit in BLOCK_BYTES (at least 1)."""
    return max(1, BLOCK_BYTES // (8 * width))


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor of a (possibly jittered) SPD matrix.

    ``lower @ lower.T`` reconstructs the input plus ``jitter_used`` on the
    diagonal.  Treat as immutable; the arrays are shared, not copied.
    """

    lower: np.ndarray
    jitter_used: float

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]


def cholesky(a, ladder=JITTER_LADDER) -> SpdFactor:
    """Factor a symmetric positive definite matrix, escalating jitter as needed.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix.  It must be finite, and max |a - a.T| may not
        exceed 1e-12 * max(max |a|, 1).  Both checks read one block of rows
        at a time (``block_rows``), so they allocate no n x n temporary.
    ladder : sequence of float
        Relative jitter rungs, multiplied by mean(diag(a)).  A rung of 0
        adds exactly 0.0.  Each rung refills one n x n work array with ``a``
        and adds its jitter to the diagonal in place, which gives the bits
        of ``a + eps * I``.

    Returns
    -------
    SpdFactor with the lower factor and the absolute jitter that was added.
    The factor is the work array itself: C-ordered, its strict upper
    triangle zero, so it is the only n x n array this call allocates.

    Raises
    ------
    NotSymmetricError, NotPositiveDefiniteError, NonFiniteInputError (also
    when a rung's jitter overflows the diagonal)
    """
    from scipy.linalg.lapack import dpotrf  # local: see the module docstring

    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise EmptyInputError("cannot factor an empty matrix")
    # one row block at a time, so no check needs an n x n temporary.  A NaN or
    # an infinity makes its block's max |a| non-finite.  Each pair's asymmetry
    # is read once, from the row of its lower-triangle entry, and judged only
    # after every block has passed the finiteness check
    abs_max = asym_max = 0.0
    rows = block_rows(n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        block_max = float(np.max(np.abs(a[r0:r1])))
        if not np.isfinite(block_max):
            raise NonFiniteInputError("matrix contains NaN or infinity")
        abs_max = max(abs_max, block_max)
        asym_max = max(asym_max, float(np.max(np.abs(a[r0:r1, :r1] - a[:r1, r0:r1].T))))
    if asym_max > _SYM_RTOL * max(abs_max, 1.0):
        raise NotSymmetricError("matrix is not symmetric within relative tolerance 1e-12")

    # the mean of finite entries is finite, but their sum may overflow: then
    # sum the entries divided by n instead
    diag = np.diag(a)
    with np.errstate(over="ignore"):
        diag_mean = float(np.mean(diag))
    if not np.isfinite(diag_mean):
        diag_mean = float(np.sum(diag / n))
    # dpotrf factors the F-ordered work.T in place as upper, a = U^T U, so
    # work ends as the C-ordered lower factor, strict upper triangle zeroed
    work = np.empty((n, n))
    work_diag = work.reshape(-1)[:: n + 1]
    for rung in ladder:
        eps = rung * diag_mean if rung else 0.0
        np.copyto(work, a)
        if eps > 0.0:
            with np.errstate(over="ignore"):
                work_diag += eps
            if not np.all(np.isfinite(work_diag)):
                raise NonFiniteInputError(
                    f"jitter {eps:g} overflows the diagonal of the matrix")
        upper, info = dpotrf(work.T, lower=0, clean=1, overwrite_a=1)
        if info == 0:
            return SpdFactor(lower=upper.T, jitter_used=eps)
    raise NotPositiveDefiniteError(
        f"Cholesky failed at every jitter rung (largest {ladder[-1]:g} * mean diag)"
    )


def tril_matmul(lower, z) -> np.ndarray:
    """``np.tril(lower) @ z`` for an (n, n) ``lower`` and an (n, m) ``z``.

    A BLAS triangular multiply (trmm): half the flops of a general product,
    and only the lower triangle of ``lower`` is read, so its strict upper
    triangle may hold anything, NaN included.  ``lower.T`` goes to BLAS as
    an upper-triangular matrix to be transposed, so a C-ordered factor is
    passed without a copy.  ``z`` is not modified; the result is a new
    Fortran-ordered (n, m) array, whose transpose is a C-ordered (m, n)
    array.  The sampler passes its C-ordered (k, C, n) normals as the
    (n, k * C) view ``z.reshape(k * C, n).T`` and reads the transposed
    result back as (k, C, n), so neither side needs a transposing copy.
    """
    from scipy.linalg.blas import dtrmm  # local: see the module docstring

    lower = np.asarray(lower, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if lower.ndim != 2 or z.ndim != 2 or lower.shape != (z.shape[0], z.shape[0]):
        raise DimensionMismatchError(
            f"expected an (n, n) factor and an (n, m) matrix, got {lower.shape} and {z.shape}")
    return dtrmm(1.0, lower.T, z, trans_a=1, lower=0)


def log_sum_exp(v, axis=None):
    """Numerically stable log(sum(exp(v))).

    The running maximum is subtracted before exponentiation, so uniformly
    shifted inputs give exactly shifted outputs and large-magnitude entries
    do not overflow.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise EmptyInputError("log_sum_exp of an empty collection")
    m = np.max(v, axis=axis, keepdims=True)
    with np.errstate(invalid="ignore"):
        e = np.subtract(v, m)
        out = m + np.log(np.sum(np.exp(e, out=e), axis=axis, keepdims=True))
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)
