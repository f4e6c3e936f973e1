"""Dense SPD linear algebra underneath every inference path.

All factorizations go through :func:`cholesky`, which owns the jitter
policy: it factors with LAPACK ``dpotrf``, and nothing else in the package
calls ``dpotrf`` or ``numpy.linalg.cholesky`` (a source scan in the test
suite checks this), so escalation and failure handling stay in one place.
:func:`tril_matmul` multiplies by a factor with a BLAS triangular multiply
(the sampler's prior draws), and :func:`tril_solve` solves with one (the
Gaussian conditional).  :func:`cholesky` and :func:`tril_solve` keep one
buffer rule: each computes in the array it is handed when it can write it
in LAPACK's layout, and otherwise in one copy.  :func:`block_rows` sizes
the row blocks that the Cholesky checks and the nngp Gram work on, so that
no scratch array grows with n^2.

One OpenBLAS build computes all of it.  numpy's wheel vendors an OpenBLAS
that exports LAPACK ``dpotrf``, ``dtrtrs`` and ``dlaset`` and CBLAS
``dtrmm`` under ``scipy_``-prefixed, 64-bit-integer names.
:func:`_lapack` binds them through ctypes once per process, so factoring,
solving and multiplying load no scipy and no second BLAS build.  Where
numpy's build lacks those symbols (an MKL or Accelerate numpy, or one linked
against a system BLAS), it falls back to the same routines of
``scipy.linalg``, which compute on scipy's vendored OpenBLAS.  At one thread
each routine gives the same bits on either build; the test suite checks the
bound routines against scipy.linalg bit for bit.
:func:`one_blas_thread` holds the builds that compute at one thread for a
run, since a product split across threads rounds differently, and describes
them for run.log.

The bound routines reuse their ctypes scalars, so call them from one thread
at a time.  Arrays are float64 throughout.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

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

# The ctypes names of (get threads, set threads, config string) in the
# OpenBLAS build that each package vendors in <package>.libs; numpy's uses
# 64-bit integers.
_THREAD_SYMBOLS = {
    "numpy": ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
              "scipy_openblas_get_config64_"),
    "scipy": ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads",
              "scipy_openblas_get_config"),
}
# LAPACK dpotrf, dtrtrs and dlaset and CBLAS dtrmm in numpy's build
_LAPACK_SYMBOLS = ("scipy_dpotrf_64_", "scipy_dtrtrs_64_", "scipy_dlaset_64_",
                   "scipy_cblas_dtrmm64_")
# CBLAS enum values: column-major, left side, upper, transposed, non-unit diagonal
_CBLAS_TRMM_FLAGS = (102, 141, 121, 112, 131)

# Bytes of one row block of float64 scratch, for work done a block of rows at
# a time so that no temporary grows with the whole matrix.
BLOCK_BYTES = 1 << 20
# Rows of the tiles that undo a failed Cholesky rung: a 64 x 64 diagonal
# block is 32 KiB, and from n = 200 to 2000 (one BLAS thread, 2-core Xeon)
# the restore timed as fast with 64 rows as with 48 or 96, and slower with
# 16 or 32
_RESTORE_TILE = 64
# A tile's strict lower triangle, the mask of its diagonal block's copy
_TILE_BELOW = np.tri(_RESTORE_TILE, k=-1, dtype=bool)


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


def _restore_lower(work, backup, diag):
    """Refill the square ``work``'s strict lower triangle from ``backup``'s and
    its diagonal from ``diag``, one tile of _RESTORE_TILE rows at a time.

    In place ``backup`` is ``work.T``.  A tile's block left of the diagonal
    then comes from rows above it, whose memory lies wholly before the
    block's, so it is a plain copy; only the square diagonal block overlaps
    its source, and numpy buffers that block alone.
    """
    n = work.shape[0]
    for r0 in range(0, n, _RESTORE_TILE):
        r1 = min(r0 + _RESTORE_TILE, n)
        np.copyto(work[r0:r1, :r0], backup[r0:r1, :r0])
        np.copyto(work[r0:r1, r0:r1], backup[r0:r1, r0:r1], where=_TILE_BELOW[:r1 - r0, :r1 - r0])
    np.copyto(work.reshape(-1)[:: n + 1], diag)


def _zero_strict_upper(a):
    """Zero the square ``a``'s strict upper triangle, one block of rows at a time."""
    n = a.shape[0]
    rows = block_rows(n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        np.copyto(a[r0:r1, r0:], 0.0, where=~np.tri(r1 - r0, n - r0, dtype=bool))


class _OpenBlas(NamedTuple):
    """A package's vendored OpenBLAS: its ctypes library, and its (get
    threads, set threads) pair and config string, None where it lacks them."""

    lib: ctypes.CDLL
    threads: tuple | None
    config: str | None


@functools.cache
def _openblas(package: str) -> _OpenBlas | None:
    """The OpenBLAS build that the imported ``package`` vendors in
    <package>.libs, or None where it vendors none.  Resolved once per process."""
    libs = os.path.join(os.path.dirname(os.path.dirname(sys.modules[package].__file__)),
                        f"{package}.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
    except OSError:
        return None
    for name in names:
        try:
            # the library is already loaded, so this finds it rather than loading a copy
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        try:
            get, set_threads, config = (getattr(lib, symbol) for symbol in _THREAD_SYMBOLS[package])
        except AttributeError:
            return _OpenBlas(lib, None, None)
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        config.argtypes, config.restype = [], ctypes.c_char_p
        return _OpenBlas(lib, (get, set_threads), config().decode("ascii", "replace"))
    return None


class _Routines(NamedTuple):
    """The build that factors, solves and multiplies, and its three routines.

    ``potrf(work)`` factors the C-ordered square ``work``'s lower triangle in
    place and returns LAPACK's info; on success it zeroes the strict upper
    triangle, which it leaves untouched otherwise.  ``trtrs(lower, b)``
    overwrites the F-ordered (n,) or (n, m) ``b`` with L^{-1} b and returns
    (it, info); ``trmm(lower, b)`` overwrites the F-ordered (n, m) ``b`` with
    L b and returns it.  ``lower`` is C-ordered and only its lower triangle L
    is read.  Each routine passes ``lower.T`` (F-ordered) as an upper
    triangle, as scipy.linalg.solve_triangular does with a C-ordered matrix.
    """

    name: str
    potrf: Callable
    trtrs: Callable
    trmm: Callable


def _bind(lib: ctypes.CDLL) -> _Routines:
    """The routines on numpy's build ``lib``; AttributeError where it lacks one."""
    potrf, trtrs, laset, trmm = (getattr(lib, symbol) for symbol in _LAPACK_SYMBOLS)
    ref, ptr, char = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p, ctypes.c_char_p
    # LAPACK takes every argument by reference, then, as gfortran compiles
    # it, the length of each character argument
    length = ctypes.c_size_t
    potrf.argtypes = [char, ref, ptr, ref, ref, length]
    trtrs.argtypes = [char, char, char, ref, ref, ptr, ref, ptr, ref, ref, length, length, length]
    laset.argtypes = [char, ref, ref, ctypes.POINTER(ctypes.c_double),
                      ctypes.POINTER(ctypes.c_double), ptr, ref, length]
    trmm.argtypes = [ctypes.c_int] * 5 + [ctypes.c_int64] * 2 + [
        ctypes.c_double, ptr, ctypes.c_int64, ptr, ctypes.c_int64]
    for routine in (potrf, trtrs, laset, trmm):
        routine.restype = None
    n, columns, ld, info, zero = (ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64(),
                                  ctypes.c_int64(), ctypes.c_double(0.0))

    def factor(work):
        # dpotrf factors the F-ordered work.T in place as upper, a = U^T U, so
        # work ends as the C-ordered lower factor.  On success dlaset zeroes
        # work.T's strict lower triangle: the lower triangle, diagonal
        # included, of its (n-1) x (n-1) block from the second row down
        n.value = ld.value = k = work.shape[0]
        address = work.ctypes.data
        potrf(b"U", n, address, ld, info, 1)
        if info.value == 0 and k > 1:
            n.value = k - 1
            laset(b"L", n, n, zero, zero, address + 8, ld, 1)
        return info.value

    def solve(lower, b):
        n.value = lower.shape[0]
        ld.value = max(1, n.value)
        columns.value = 1 if b.ndim == 1 else b.shape[1]
        trtrs(b"U", b"T", b"N", n, columns, lower.ctypes.data, ld, b.ctypes.data, ld, info,
              1, 1, 1)
        return b, info.value

    def multiply(lower, b):
        k, m = b.shape
        trmm(*_CBLAS_TRMM_FLAGS, k, m, 1.0, lower.ctypes.data, max(1, k), b.ctypes.data, max(1, k))
        return b

    return _Routines("numpy", factor, solve, multiply)


def _scipy_routines() -> _Routines:
    """The same routines from scipy.linalg, on scipy's build."""
    from scipy.linalg.blas import dtrmm
    from scipy.linalg.lapack import dpotrf, dtrtrs

    def factor(work):
        _, info = dpotrf(work.T, lower=0, clean=0, overwrite_a=1)
        if info == 0:
            _zero_strict_upper(work)
        return info

    def solve(lower, b):
        return dtrtrs(lower.T, b, lower=0, trans=1, overwrite_b=1)

    def multiply(lower, b):
        return dtrmm(1.0, lower.T, b, trans_a=1, lower=0, overwrite_b=1)

    return _Routines("scipy", factor, solve, multiply)


@functools.cache
def _lapack() -> _Routines:
    """The routines the package computes with, resolved once per process:
    bound on numpy's build, or scipy.linalg's where numpy's lacks them."""
    build = _openblas("numpy")
    if build is not None:
        try:
            return _bind(build.lib)
        except AttributeError:
            pass
    return _scipy_routines()


@contextlib.contextmanager
def one_blas_thread(factors: bool):
    """Hold the OpenBLAS builds that compute at one thread, then restore the
    caller's counts.

    numpy's build computes every product.  A run that ``factors`` factors,
    solves and multiplies on :func:`_lapack`'s build: numpy's, or scipy's
    (loaded here) where numpy's lacks the routines.  Yields a function that
    returns the run.log line: ``blas_factors=<build>`` where the run factors,
    then each build's pinned thread count and config string, or its state:
    ``not-pinned`` (it computes but exports no thread setter),
    ``not-loaded``, or ``not-used`` (scipy's, loaded by other code in the
    process, computes nothing here).  Call it after the work, so that it
    sees what the work loaded.
    """
    factoring = _lapack().name if factors else None
    restore, fields = [], {}
    try:
        for package in ["numpy"] + (["scipy"] if factoring == "scipy" else []):
            build = _openblas(package)
            if build is None or build.threads is None:
                fields[package] = f"blas_{package}=not-pinned"
                continue
            get, set_threads = build.threads
            restore.append((set_threads, get()))
            set_threads(1)
            fields[package] = (f"blas_{package}_threads={get()} "
                               f"blas_{package}_config={build.config!r}")

        def describe():
            scipy_state = "not-used" if "scipy.linalg" in sys.modules else "not-loaded"
            return " ".join(([f"blas_factors={factoring}"] if factoring else [])
                            + [fields["numpy"], fields.get("scipy", f"blas_scipy={scipy_state}")])

        yield describe
    finally:
        for set_threads, threads in restore:
            set_threads(threads)


def cholesky(a) -> SpdFactor:
    """Factor a symmetric positive definite matrix, escalating jitter as needed.

    The rungs of JITTER_LADDER are tried in order, each multiplied by
    mean(diag(a)); a rung of 0 adds exactly 0.0.  Each rung factors the bits
    of ``a``'s lower triangle plus ``eps * I``: the lower triangle is
    refilled and its jitter is added to the diagonal in place.

    ``a`` is handed over: it is factored in its own buffer when it is a
    writeable, C-ordered float64 array, at any size; any other input is
    factored in one C-ordered copy and left as it is.  Where a pair of
    entries differs in its bits (within the tolerance below), the lower
    entry's bits are copied into its upper partner.  ``dpotrf`` writes only
    the lower triangle, so a failed rung is undone from a backup, the
    untouched strict upper triangle in place or the caller's ``a`` for a
    copy, and a saved copy of the diagonal (n values).  In place the factor
    is ``a`` itself, so a caller that reads ``a`` again, or after an error,
    passes a copy.

    Parameters
    ----------
    a : (n, n) array_like
        Symmetric matrix.  It must be finite, and max |a - a.T| may not
        exceed 1e-12 * max(max |a|, 1).  Both checks read one block of rows
        at a time (``block_rows``), so they allocate no more than one block
        of flags beside the pairs that differ in their bits.

    Returns
    -------
    SpdFactor with the lower factor and the absolute jitter that was added.
    The factor is ``a`` when it is factored in place, else the copy:
    C-ordered, its strict upper triangle zero.  So a call allocates one
    n x n array, or none in place.

    Raises
    ------
    NotSymmetricError, NotPositiveDefiniteError, NonFiniteInputError (also
    when a rung's jitter overflows the diagonal)
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise EmptyInputError("cannot factor an empty matrix")
    work = a if a.flags.c_contiguous and a.flags.writeable else np.array(a, order="C")
    # one row block at a time.  max |a| is max(max a, -min a), and a NaN or
    # an infinity makes one of them non-finite.  Each pair is read from the
    # row of its lower-triangle entry (a pair inside a diagonal block from
    # both rows), after both rows have passed the finiteness check.  A pair
    # that differs in its bits has its asymmetry measured, to be judged only
    # after every block has passed that check, and its lower entry copied
    # into its upper one, so that both triangles hold the bits the rungs factor
    rows = block_rows(n)
    abs_max = asym_max = 0.0
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        top, bottom = float(work[r0:r1].max()), float(work[r0:r1].min())
        if not (np.isfinite(top) and np.isfinite(bottom)):
            raise NonFiniteInputError("matrix contains NaN or infinity")
        abs_max = max(abs_max, top, -bottom)
        differs = work[r0:r1, :r1].view(np.int64) != work[:r1, r0:r1].T.view(np.int64)
        if differs.any():
            row, col = np.nonzero(differs)
            row += r0
            asym_max = max(asym_max, float(np.abs(work[row, col] - work[col, row]).max()))
            lower = col < row
            work[col[lower], row[lower]] = work[row[lower], col[lower]]
    if asym_max > _SYM_RTOL * max(abs_max, 1.0):
        raise NotSymmetricError("matrix is not symmetric within relative tolerance 1e-12")

    # the mean of finite entries is finite, but their sum may overflow: then
    # sum the entries divided by n instead
    diag = work.diagonal().copy()
    with np.errstate(over="ignore"):
        diag_mean = float(np.mean(diag))
    if not np.isfinite(diag_mean):
        diag_mean = float(np.sum(diag / n))
    potrf = _lapack().potrf
    backup = work.T if work is a else a
    work_diag = work.reshape(-1)[:: n + 1]
    for i, rung in enumerate(JITTER_LADDER):
        eps = rung * diag_mean if rung else 0.0
        if i:
            _restore_lower(work, backup, diag)
        if eps > 0.0:
            with np.errstate(over="ignore"):
                work_diag += eps
            if not np.all(np.isfinite(work_diag)):
                raise NonFiniteInputError(
                    f"jitter {eps:g} overflows the diagonal of the matrix")
        if potrf(work) == 0:
            return SpdFactor(lower=work, jitter_used=eps)
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
    array.  The sampler passes its (k, C - 1, n) normal contrasts w as the
    view ``w.reshape(-1, n).T`` and reads the transposed result back as
    (k, C - 1, n), so neither side needs a transposing copy.
    """
    lower = np.ascontiguousarray(lower, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if lower.ndim != 2 or z.ndim != 2 or lower.shape != (z.shape[0], z.shape[0]):
        raise DimensionMismatchError(
            f"expected an (n, n) factor and an (n, m) matrix, got {lower.shape} and {z.shape}")
    return _lapack().trmm(lower, np.array(z, order="F"))


def tril_solve(lower, b) -> np.ndarray:
    """L^{-1} b for L the lower triangle of an (n, n) ``lower`` and an (n,)
    or (n, m) ``b``, with LAPACK's triangular solve (trtrs).

    Only the lower triangle of ``lower`` is read.  trtrs takes a vector
    right-hand side as one column, as scipy.linalg.solve_triangular does;
    BLAS trsm rounds a single column differently.  ``b`` is handed over: it
    is solved in its own buffer when it is a writeable, F-ordered float64
    array (a vector, or the transpose of a C-ordered matrix); any other
    ``b`` is solved in a copy and left as it is.  A caller that reads ``b``
    again passes a copy.  Returns the solution, shaped as ``b``.

    Raises NotPositiveDefiniteError where L has a zero on its diagonal.
    """
    lower = np.ascontiguousarray(lower, dtype=np.float64)
    x = np.asarray(b, dtype=np.float64)
    if lower.ndim != 2 or x.ndim not in (1, 2) or lower.shape != (x.shape[0], x.shape[0]):
        raise DimensionMismatchError(
            f"expected an (n, n) factor and an (n,) or (n, m) right-hand side, got "
            f"{lower.shape} and {x.shape}")
    if not (x.flags.f_contiguous and x.flags.writeable):
        x = np.array(x, order="F")
    x, info = _lapack().trtrs(lower, x)
    if info > 0:
        raise NotPositiveDefiniteError(f"the triangular factor has a zero at diagonal "
                                       f"entry {info - 1}")
    return x


def log_sum_exp(v):
    """Numerically stable log(sum(exp(v))) over the last axis of ``v``.

    The running maximum is subtracted before exponentiation, so uniformly
    shifted inputs give exactly shifted outputs and large-magnitude entries
    do not overflow.  Returns an array of shape ``v.shape[:-1]``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise EmptyInputError("log_sum_exp of an empty collection")
    m = np.max(v, axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):
        e = np.subtract(v, m)
        out = m + np.log(np.sum(np.exp(e, out=e), axis=-1, keepdims=True))
    return out[..., 0]
