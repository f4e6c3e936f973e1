"""Dense SPD linear algebra underneath every inference path.

All factorizations go through :func:`cholesky`, which owns the jitter
policy: it factors with LAPACK ``dpotrf`` in place, either in one work copy
of its input or, when the caller hands its Gram over, in the input's own
buffer, and nothing else in the package calls ``dpotrf`` or
``numpy.linalg.cholesky`` (a source scan in the test suite checks this), so
escalation and failure handling stay in one place.
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


def _fill_lower_from_upper(a, diag):
    """Refill the square ``a``'s strict lower triangle from its strict upper
    one and its diagonal from ``diag``, one block of rows at a time."""
    n = a.shape[0]
    rows = block_rows(n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        below = np.tri(r1 - r0, r1, r0 - 1, dtype=bool)
        np.copyto(a[r0:r1, :r1], a[:r1, r0:r1].T, where=below)
    np.copyto(a.reshape(-1)[:: n + 1], diag)


def _zero_strict_upper(a):
    """Zero the square ``a``'s strict upper triangle, one block of rows at a time."""
    n = a.shape[0]
    rows = block_rows(n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        np.copyto(a[r0:r1, r0:], 0.0, where=~np.tri(r1 - r0, n - r0, dtype=bool))


def cholesky(a, overwrite_a=False) -> SpdFactor:
    """Factor a symmetric positive definite matrix, escalating jitter as needed.

    The rungs of JITTER_LADDER are tried in order, each multiplied by
    mean(diag(a)); a rung of 0 adds exactly 0.0.  Each rung factors the bits
    of ``a + eps * I``: the matrix is refilled with ``a`` and its jitter is
    added to the diagonal in place.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix.  It must be finite, and max |a - a.T| may not
        exceed 1e-12 * max(max |a|, 1).  Both checks read one block of rows
        at a time (``block_rows``), so they allocate no n x n temporary.
    overwrite_a : bool
        Hand ``a`` over to be factored in its own buffer.  This holds when
        ``a`` is a writeable, C-ordered float64 array equal to its transpose
        bit for bit and larger than one row block (n > 362); any other input
        is factored in a copy and left as it is.  A smaller matrix's copy is
        no larger than the checks' own block scratch, and copying it costs
        less than the in-place bookkeeping.  ``dpotrf`` writes only the
        lower triangle, so a failed rung is undone from the untouched strict
        upper triangle and a saved copy of the diagonal (n values), and each
        rung factors the bits that the copy would.  The factor is then ``a``
        itself, and the caller must not read ``a`` as the input again, nor
        after an error.

    Returns
    -------
    SpdFactor with the lower factor and the absolute jitter that was added.
    The factor is the work array, or ``a`` when it is factored in place:
    C-ordered, its strict upper triangle zero.  So a call allocates one
    n x n array, or none in place.

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
    rows = block_rows(n)
    in_place = overwrite_a and n > rows and a.flags.c_contiguous and a.flags.writeable
    # one row block at a time, so no check needs an n x n temporary.  A NaN or
    # an infinity makes its block's max |a| non-finite.  Each pair's asymmetry
    # is read once, from the row of its lower-triangle entry, and judged only
    # after every block has passed the finiteness check.  In place, the
    # pairs must also agree bit for bit (a zero and a negative zero do not)
    abs_max = asym_max = 0.0
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        block_max = float(np.max(np.abs(a[r0:r1])))
        if not np.isfinite(block_max):
            raise NonFiniteInputError("matrix contains NaN or infinity")
        abs_max = max(abs_max, block_max)
        below, above = a[r0:r1, :r1], a[:r1, r0:r1].T
        asym_max = max(asym_max, float(np.max(np.abs(below - above))))
        in_place = in_place and np.array_equal(below.view(np.int64), above.view(np.int64))
    if asym_max > _SYM_RTOL * max(abs_max, 1.0):
        raise NotSymmetricError("matrix is not symmetric within relative tolerance 1e-12")

    # the mean of finite entries is finite, but their sum may overflow: then
    # sum the entries divided by n instead
    diag = a.diagonal().copy() if in_place else np.diag(a)
    with np.errstate(over="ignore"):
        diag_mean = float(np.mean(diag))
    if not np.isfinite(diag_mean):
        diag_mean = float(np.sum(diag / n))
    # dpotrf factors the F-ordered work.T in place as upper, a = U^T U, so
    # work ends as the C-ordered lower factor.  In place, its strict upper
    # triangle keeps a's until a rung succeeds (clean=0)
    work = a if in_place else np.empty((n, n))
    work_diag = work.reshape(-1)[:: n + 1]
    for i, rung in enumerate(JITTER_LADDER):
        eps = rung * diag_mean if rung else 0.0
        if not in_place:
            np.copyto(work, a)
        elif i:
            _fill_lower_from_upper(work, diag)
        if eps > 0.0:
            with np.errstate(over="ignore"):
                work_diag += eps
            if not np.all(np.isfinite(work_diag)):
                raise NonFiniteInputError(
                    f"jitter {eps:g} overflows the diagonal of the matrix")
        upper, info = dpotrf(work.T, lower=0, clean=not in_place, overwrite_a=1)
        if info == 0:
            if in_place:
                _zero_strict_upper(work)
            return SpdFactor(lower=upper.T, jitter_used=eps)
    raise NotPositiveDefiniteError(
        f"Cholesky failed at every jitter rung (largest {JITTER_LADDER[-1]:g} * mean diag)"
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
