import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coldgp.exceptions import (
    DimensionMismatchError,
    EmptyInputError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
)
import coldgp.linalg as linalg
from coldgp.linalg import (
    JITTER_LADDER,
    block_rows,
    cholesky,
    log_sum_exp,
    tril_matmul,
    tril_solve,
)

from helpers import run_python


def _random_spd(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_cholesky_hand_worked_2x2():
    # [[4,2],[2,3]] factors as [[2,0],[1,sqrt(2)]]: 2*2=4, 2*1=2, 1+l22^2=3
    f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(f.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)
    assert f.jitter_used == 0.0
    assert f.lower.shape == (2, 2)


def test_validation_errors():
    with pytest.raises(DimensionMismatchError):
        cholesky(np.zeros((2, 3)))
    with pytest.raises(EmptyInputError):
        cholesky(np.zeros((0, 0)))
    with pytest.raises(NonFiniteInputError):
        cholesky(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(-np.eye(3))


_BLOCKED_N = 1100


def _blocked_diagonal():
    # checks run on row blocks: this n spans at least 3, the last one ragged
    n = _BLOCKED_N
    assert n >= 3 * block_rows(n) and n % block_rows(n)
    return float(n) * np.eye(n)


def test_symmetry_threshold_inside_last_block():
    a = _blocked_diagonal()
    i, j = _BLOCKED_N - 3, _BLOCKED_N - 9  # both in the last block
    assert j >= _BLOCKED_N - _BLOCKED_N % block_rows(_BLOCKED_N)
    threshold = 1e-12 * max(float(np.max(np.abs(a))), 1.0)
    a[i, j] = np.nextafter(threshold, np.inf)  # a[j, i] stays 0
    with pytest.raises(NotSymmetricError):
        cholesky(a.copy())
    for below in (np.nextafter(threshold, 0.0), threshold):  # not above it: factors
        a[i, j] = below
        assert cholesky(a.copy()).jitter_used == 0.0
    a[i, j] = 0.0
    a[j, i] = np.nextafter(threshold, np.inf)  # the same pair from its upper-triangle side
    with pytest.raises(NotSymmetricError):
        cholesky(a.copy())


def test_symmetry_tolerance_reads_negative_entries_and_either_side():
    # the tolerance scales with max |a|, here a negative entry's magnitude,
    # and a pair straddling two row blocks is caught whichever side holds
    # the excess
    a = np.array([[1.0, -1e6 + 1e-7], [-1e6, 1.0]])  # within 1e-12 * 1e6
    with pytest.raises(NotPositiveDefiniteError):
        cholesky(a)
    i, j = _BLOCKED_N - 3, 2  # rows in the last block and the first
    assert j < block_rows(_BLOCKED_N) <= _BLOCKED_N - block_rows(_BLOCKED_N) <= i
    for pair in ((i, j), (j, i)):
        b = _blocked_diagonal()
        b[pair] = np.nextafter(1e-12 * _BLOCKED_N, np.inf)
        with pytest.raises(NotSymmetricError):
            cholesky(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("upper", [False, True])
def test_non_finite_inside_last_block(bad, upper):
    a = _blocked_diagonal()
    i, j = _BLOCKED_N - 2, _BLOCKED_N - 7
    a[(j, i) if upper else (i, j)] = bad
    with pytest.raises(NonFiniteInputError):
        cholesky(a)


def test_jitter_ladder_rescues_singular_matrix():
    a = np.ones((3, 3))  # rank one, PSD but not PD
    f = cholesky(a.copy())
    assert f.jitter_used > 0.0
    assert f.jitter_used in tuple(r * 1.0 for r in JITTER_LADDER)  # mean diag is 1
    np.testing.assert_allclose(f.lower @ f.lower.T, a + f.jitter_used * np.eye(3),
                               rtol=1e-12, atol=1e-12)


def test_jitter_scales_with_diagonal():
    # the ladder is relative to mean(diag), so scaling the matrix scales the jitter
    a = np.ones((3, 3))
    f1 = cholesky(a.copy())
    f2 = cholesky(1000.0 * a)
    np.testing.assert_allclose(f2.jitter_used, 1000.0 * f1.jitter_used, rtol=1e-12)


def test_jitter_stays_finite_when_the_diagonal_sum_overflows():
    # mean(diag) sums past the float range here; no rung may report NaN or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = cholesky(1e308 * np.eye(3))
        assert f.jitter_used == 0.0  # the zero rung is exactly 0, not 0 * inf
        np.testing.assert_allclose(f.lower, 1e154 * np.eye(3), rtol=1e-15)
        f = cholesky(np.full((3, 3), 1e308))  # rank one: the first rung fails
        np.testing.assert_allclose(f.jitter_used, JITTER_LADDER[1] * 1e308, rtol=1e-15)
        with pytest.raises(NonFiniteInputError):  # the jittered diagonal overflows
            cholesky(np.full((2, 2), np.finfo(np.float64).max))


def test_jitter_rung_factors_a_plus_eps_identity_bitwise(monkeypatch):
    x = np.random.default_rng(5).standard_normal((50, 2))
    a = x @ x.T  # rank two: the zero rung fails
    # cholesky factors with the potrf routine of the build coldgp.linalg
    # computes with; it factors the lower triangle of the C-ordered work
    routines = linalg._lapack()
    fed = []

    def recording_potrf(work):
        fed.append(work.copy())
        return routines.potrf(work)

    monkeypatch.setattr(linalg, "_lapack", lambda: routines._replace(potrf=recording_potrf))
    f = cholesky(a.copy())
    assert f.jitter_used > 0.0 and len(fed) >= 2
    np.testing.assert_array_equal(fed[-1].view(np.int64),
                                  (a + f.jitter_used * np.eye(50)).view(np.int64))
    assert f.lower.flags.c_contiguous and not np.triu(f.lower, 1).any()


def test_jitter_rung_allocates_one_factor():
    n = 600
    a = np.ones((n, n))  # rank one: factored at a positive rung
    a.setflags(write=False)  # factored in a copy
    cholesky(np.eye(2))  # binds the BLAS routines outside the trace
    tracemalloc.start()
    try:
        f = cholesky(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.jitter_used > 0.0
    assert peak <= 1.25 * f.lower.nbytes


def test_one_block_checks_write_into_the_work_array():
    # a matrix of one row block, asymmetric within tolerance, is checked and
    # factored in its own buffer: the call allocates no temporary of its size
    n = 200
    assert block_rows(n) >= n
    a = np.full((n, n), 0.5) + 0.5 * np.eye(n)
    a[0, 1] += 1e-14  # asymmetric within tolerance
    cholesky(np.eye(2))  # binds the BLAS routines outside the trace
    tracemalloc.start()
    try:
        f = cholesky(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.jitter_used == 0.0 and np.shares_memory(f.lower, a)
    assert peak <= 1.25 * a.nbytes


def test_factor_raises_peak_rss_by_about_one_factor(tmp_path):
    # a fresh process, so the peak is this call's: the read-only input, one
    # work array that becomes the factor, and LAPACK's small buffers.  The
    # peak is read as VmHWM, which starts afresh at exec; ru_maxrss would
    # start from the peak of the process that spawned it, this test run's
    if not Path("/proc/self/status").is_file():
        pytest.skip("needs /proc/self/status")
    script = "\n".join([
        "from pathlib import Path",
        "import numpy as np",
        "from coldgp.linalg import cholesky",
        "def peak_kb():",
        "    status = Path('/proc/self/status').read_text().splitlines()",
        "    return int(next(line.split()[1] for line in status if line.startswith('VmHWM:')))",
        "n = 2000",
        "a = np.full((n, n), 0.5)",
        "a.flat[:: n + 1] = 1.0",
        "a.setflags(write=False)  # factored in a copy",
        "cholesky(a[:200, :200])  # loads LAPACK and its buffers",
        "before = peak_kb()",
        "f = cholesky(a)",
        "print((peak_kb() - before) * 1024 / f.lower.nbytes)",
    ])
    code, out, err = run_python(["-c", script], tmp_path)
    assert code == 0, err
    assert float(out) <= 1.5


# past one row block (n > 362), so the checks and rungs run on two blocks
_IN_PLACE_N = 400


def _rbf_gram_1d(n=_IN_PLACE_N, seed=0):
    # many scalar inputs: ill-conditioned, so the zero rung fails
    from coldgp.kernels import KernelSpec, gram

    x = np.random.default_rng(seed).standard_normal((n, 1))
    return gram(KernelSpec.rbf(lengthscale=1.0, variance=1.0), x, x)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _read_only_copy(a):
    """A copy of ``a`` that cholesky factors in a copy of its own."""
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("noise", [0.01, 0.0])  # factored at rung 0; at a retry rung
def test_in_place_factor_matches_copy_bitwise(noise):
    a = _rbf_gram_1d()
    a.flat[:: a.shape[0] + 1] += noise
    assert _same_bits(a, a.T)
    ref = cholesky(_read_only_copy(a))
    own = a.copy()
    f = cholesky(own)
    assert (f.jitter_used > 0.0) == (noise == 0.0)
    assert f.jitter_used == ref.jitter_used
    assert np.shares_memory(f.lower, own) and f.lower.flags.c_contiguous
    assert _same_bits(f.lower, ref.lower)


def _off_by_one_ulp():
    a = _rbf_gram_1d()
    a[7, 3] = np.nextafter(a[7, 3], np.inf)  # a[3, 7] keeps its bits
    return a


def _signed_zero_pair():
    # two independent blocks; one zero pair of the coupling block differs in sign
    h = _IN_PLACE_N // 2
    a = np.zeros((2 * h, 2 * h))
    a[:h, :h], a[h:, h:] = _rbf_gram_1d(h, 1), _rbf_gram_1d(h, 2)
    a[h + 50, 20] = -0.0
    return a


@pytest.mark.parametrize("make", [_off_by_one_ulp, _signed_zero_pair])
def test_in_place_takes_pairs_that_differ_in_their_bits(make):
    # symmetric within 1e-12 but not bit for bit: the lower entry's bits go
    # into its upper partner, so every rung factors the lower triangle that
    # a copy would, in a's own buffer
    a = make()
    ref = cholesky(_read_only_copy(a))
    f = cholesky(a)
    assert ref.jitter_used > 0.0 and f.jitter_used == ref.jitter_used
    assert _same_bits(f.lower, ref.lower)
    assert np.shares_memory(f.lower, a)


def test_in_place_leaves_read_only_and_strided_inputs_alone():
    base = _rbf_gram_1d()
    read_only = base.copy()
    read_only.setflags(write=False)
    strided = np.zeros((2 * _IN_PLACE_N, 2 * _IN_PLACE_N))
    strided[::2, ::2] = base
    fortran = np.asfortranarray(base)
    for a in (read_only, strided[::2, ::2], fortran):
        before = np.array(a)
        f = cholesky(a)
        assert _same_bits(f.lower, cholesky(_read_only_copy(before)).lower)
        assert not np.shares_memory(f.lower, a) and _same_bits(np.array(a), before)
    assert not np.any(strided[1::2]) and not np.any(strided[:, 1::2])
    small = _rbf_gram_1d(362)  # one row block: factored in place as well
    ref = cholesky(_read_only_copy(small))
    f = cholesky(small)
    assert np.shares_memory(f.lower, small) and _same_bits(f.lower, ref.lower)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=800), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans(), st.sampled_from([None, "ulp", "signed-zero"]), st.booleans())
@example(362, 0, True, "ulp", False)  # one row block
@example(363, 1, True, "signed-zero", True)  # two blocks, the last of two rows
@example(800, 2, False, "ulp", True)  # five blocks, the last ragged
@example(2, 3, True, "signed-zero", False)
def test_in_place_factor_matches_a_read_only_copys_bitwise(n, seed, singular, pair, upper):
    # integer entries: without a ridge, a rank-one outer product, whose zero
    # rung fails at n > 1 on an exactly zero pivot.  One pair (i, j), i > j,
    # may differ in its bits, from either triangle: by one ulp, or as a zero
    # and a negative zero (row and column i of the outer product are zero)
    rng = np.random.default_rng(seed)
    v = rng.integers(1, 4, n).astype(np.float64)
    if n == 1:
        pair = None  # no pair to perturb
    if pair:
        i, j = sorted(rng.choice(n, 2, replace=False), reverse=True)
        if pair == "signed-zero":
            v[i] = 0.0
    a = np.outer(v, v) + (0.0 if singular else 0.5) * np.eye(n)
    if pair:
        entry = (j, i) if upper else (i, j)
        a[entry] = np.nextafter(a[entry], np.inf) if pair == "ulp" else -0.0
    ref = cholesky(_read_only_copy(a))
    f = cholesky(a)
    assert (ref.jitter_used > 0.0) == (singular and n > 1)
    assert f.jitter_used == ref.jitter_used and np.shares_memory(f.lower, a)
    assert _same_bits(f.lower, ref.lower)


@pytest.mark.parametrize("rank_one", [True, False])  # factored at a positive rung; at 0
def test_in_place_factor_allocates_no_n_by_n_array(rank_one):
    n = 1200
    a = np.ones((n, n)) if rank_one else np.full((n, n), 0.5) + 0.5 * np.eye(n)
    cholesky(np.eye(2))  # binds the BLAS routines outside the trace
    tracemalloc.start()
    try:
        f = cholesky(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(f.lower, a)
    assert (f.jitter_used > 0.0) == rank_one
    assert peak <= 0.25 * a.nbytes


def test_in_place_keeps_every_check():
    n = _IN_PLACE_N
    non_finite, asymmetric = np.eye(n), np.eye(n)
    non_finite[n - 1, 3] = np.inf
    asymmetric[n - 1, 3] = 0.5
    for a, error in [(np.zeros((n, n + 1)), DimensionMismatchError),
                     (np.zeros((0, 0)), EmptyInputError),
                     (non_finite, NonFiniteInputError),
                     (asymmetric, NotSymmetricError),
                     (-np.eye(n), NotPositiveDefiniteError),
                     (np.full((n, n), np.finfo(np.float64).max), NonFiniteInputError)]:
        with pytest.raises(error):
            cholesky(a)


def test_well_conditioned_needs_no_jitter():
    assert cholesky(_random_spd(10, 4)).jitter_used == 0.0


@pytest.mark.parametrize("n", [1, 50, 800])
def test_tril_matmul_matches_tril_product(n):
    rng = np.random.default_rng(n)
    lower = rng.standard_normal((n, n))  # the strict upper triangle must be ignored
    for m in (1, 2, 7, 40, 160):
        z = rng.standard_normal((n, m))
        z_before = z.copy()
        # relative to sum |l_ij z_jk|: an entry whose terms cancel toward 0
        # keeps an absolute rounding error, which no elementwise rtol bounds
        err = np.abs(tril_matmul(lower, z) - np.tril(lower) @ z)
        assert np.all(err <= 1e-13 * (np.abs(np.tril(lower)) @ np.abs(z)))
        np.testing.assert_array_equal(z, z_before)


def test_tril_matmul_edge_shapes():
    assert tril_matmul(np.zeros((0, 0)), np.zeros((0, 4))).shape == (0, 4)
    assert tril_matmul(np.eye(3), np.zeros((3, 0))).shape == (3, 0)
    np.testing.assert_array_equal(tril_matmul([[2.5]], [[1.0, -2.0, 3.0]]), [[2.5, -5.0, 7.5]])
    for lower, z in [(np.eye(4), np.ones((3, 2))), (np.eye(3), np.ones((4, 2))),
                     (np.ones((3, 4)), np.ones((3, 2))), (np.ones(3), np.ones((3, 2))),
                     (np.eye(3), np.ones(3))]:
        with pytest.raises(DimensionMismatchError):
            tril_matmul(lower, z)


def test_log_sum_exp_matches_scipy():
    v = np.array([-1000.0, -1001.0, 0.5, 3.0])
    np.testing.assert_allclose(log_sum_exp(v), scipy.special.logsumexp(v), rtol=1e-14)
    m = np.random.default_rng(0).standard_normal((4, 6)) * 100
    np.testing.assert_allclose(log_sum_exp(m), scipy.special.logsumexp(m, axis=-1), rtol=1e-13)


def test_log_sum_exp_empty():
    with pytest.raises(EmptyInputError):
        log_sum_exp(np.array([]))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=8),
       st.floats(min_value=-500, max_value=500))
def test_log_sum_exp_shift_invariance(values, shift):
    v = np.asarray(values)
    lhs = log_sum_exp(v + shift)
    rhs = log_sum_exp(v) + shift
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_cholesky_reconstructs_random_spd(n, seed):
    a = _random_spd(n, seed)
    f = cholesky(a.copy())
    np.testing.assert_allclose(f.lower @ f.lower.T, a, rtol=1e-10, atol=1e-10)


# --- the bound LAPACK and BLAS routines ------------------------------------

_CROSS_N = [1, 2, 363, 1100]  # 363: one past a row block


@pytest.fixture
def numpy_routines():
    """The routines bound on numpy's OpenBLAS, with numpy's and scipy's
    builds held at one thread, so that each rounds as the other does."""
    routines = linalg._lapack()
    if routines.name != "numpy":
        pytest.skip("numpy's build exports no LAPACK routines")
    from scipy.linalg.lapack import dpotrf  # loads scipy's build to pin it

    restore = []
    for package in ("numpy", "scipy"):
        build = linalg._openblas(package)
        if build is not None and build.threads is not None:
            get, set_threads = build.threads
            restore.append((set_threads, get()))
            set_threads(1)
    yield routines, dpotrf
    for set_threads, threads in restore:
        set_threads(threads)


def _lower_with_nan_above(n, seed):
    """A C-ordered well-conditioned lower factor whose strict upper triangle
    is NaN: a routine that reads it poisons its output."""
    lower = np.linalg.cholesky(_random_spd(n, seed))
    lower[np.triu_indices(n, 1)] = np.nan
    return lower


@pytest.mark.parametrize("n", _CROSS_N)
def test_bound_potrf_matches_scipy_bitwise(numpy_routines, n):
    routines, dpotrf = numpy_routines
    a = _random_spd(n, n)
    work = a.copy()
    assert routines.potrf(work) == 0
    ref, info = dpotrf(a.T, lower=0, clean=1)
    assert info == 0 and _same_bits(work, ref.T)
    assert not np.triu(work, 1).any()


@pytest.mark.parametrize("n", _CROSS_N[1:])
def test_bound_potrf_failure_matches_scipy_and_keeps_the_upper_triangle(numpy_routines, n):
    # the leading minor of order k fails, so info is k; the strict upper
    # triangle, which the in-place path restores rungs from, is untouched
    routines, dpotrf = numpy_routines
    k = n // 2 + 1
    a = _random_spd(n, n)
    a[k - 1, k - 1] = -1.0
    work = a.copy()
    info = routines.potrf(work)
    ref, ref_info = dpotrf(a.T, lower=0, clean=0)
    assert info == ref_info == k
    assert _same_bits(work, ref.T)
    upper = np.triu_indices(n, 1)
    assert _same_bits(work[upper], a[upper])


def test_in_place_rungs_keep_the_upper_triangle_until_one_succeeds(monkeypatch):
    # a rank-one Gram past one row block: every failed rung leaves the strict
    # upper triangle the input's; the rung that succeeds zeroes it
    n = _IN_PLACE_N
    a = np.ones((n, n))
    upper = np.triu_indices(n, 1)
    routines, seen = linalg._lapack(), []

    def recording_potrf(work):
        info = routines.potrf(work)
        seen.append((info, _same_bits(work[upper], a[upper]), not work[upper].any()))
        return info

    monkeypatch.setattr(linalg, "_lapack", lambda: routines._replace(potrf=recording_potrf))
    f = cholesky(a.copy())
    assert f.jitter_used > 0.0 and len(seen) >= 2
    assert all(info > 0 and kept for info, kept, _ in seen[:-1])
    assert seen[-1][0] == 0 and seen[-1][2]


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("n", _CROSS_N)
def test_bound_trmm_matches_scipy_bitwise(numpy_routines, n, m):
    routines, _ = numpy_routines
    lower = _lower_with_nan_above(n, n)
    z = np.random.default_rng(m).standard_normal((n, m))
    out = routines.trmm(lower, np.array(z, order="F"))
    ref = scipy.linalg.blas.dtrmm(1.0, lower.T, z, trans_a=1, lower=0)
    assert np.all(np.isfinite(out)) and _same_bits(out, ref)
    assert _same_bits(tril_matmul(lower, z), ref)


@pytest.mark.parametrize("m", [None, 1, 40])  # a vector, and matrices of m columns
@pytest.mark.parametrize("n", _CROSS_N)
def test_bound_trtrs_matches_scipy_bitwise(numpy_routines, n, m):
    routines, _ = numpy_routines
    lower = _lower_with_nan_above(n, n)
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n) if m is None else rng.standard_normal((n, m))
    ref = scipy.linalg.solve_triangular(lower, b, lower=True, check_finite=False)
    x, info = routines.trtrs(lower, np.array(b, order="F"))
    assert info == 0 and np.all(np.isfinite(x)) and _same_bits(x, ref)
    assert _same_bits(tril_solve(lower, b), ref)


def test_tril_solve_overwrites_only_what_it_is_handed():
    lower = np.linalg.cholesky(_random_spd(5, 0))
    c_ordered = np.random.default_rng(1).standard_normal((3, 5))
    before = c_ordered.copy()
    # a writeable F-ordered (5, 3) matrix and vector: solved in their own buffers
    x = tril_solve(lower, c_ordered.T)
    assert np.shares_memory(x, c_ordered)
    assert _same_bits(x, scipy.linalg.solve_triangular(lower, before.T, lower=True))
    vector = before[0].copy()
    assert np.shares_memory(tril_solve(lower, vector), vector)
    # C-ordered, read-only and strided: solved in a copy and left alone
    read_only = np.asfortranarray(before.T)
    read_only.setflags(write=False)
    strided = np.repeat(before[0], 2)[::2]
    for b in (before.T.copy(), read_only, strided):
        b_before = b.copy()
        x = tril_solve(lower, b)
        assert not np.shares_memory(x, b) and _same_bits(b, b_before)
        assert _same_bits(x, scipy.linalg.solve_triangular(lower, b_before, lower=True))


def test_tril_solve_errors():
    with pytest.raises(DimensionMismatchError):
        tril_solve(np.eye(3), np.ones(2))
    with pytest.raises(DimensionMismatchError):
        tril_solve(np.eye(3), np.ones((3, 2, 1)))
    with pytest.raises(NotPositiveDefiniteError, match="diagonal entry 1"):
        tril_solve(np.diag([1.0, 0.0, 1.0]), np.ones(3))
