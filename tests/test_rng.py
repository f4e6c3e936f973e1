import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldgp.rng import RngStream, derive_seed


def test_same_seed_same_stream_reproduces():
    a = RngStream(123, 0).standard_normal(50)
    b = RngStream(123, 0).standard_normal(50)
    np.testing.assert_array_equal(a, b)


def test_counter_based_construction():
    # the stream is defined as Philox keyed by SeedSequence(seed, spawn_key=(index,))
    ours = RngStream(99, 4).standard_normal(16)
    ref = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(99, spawn_key=(4,)))
    ).standard_normal(16)
    np.testing.assert_array_equal(ours, ref)


def test_distinct_streams_differ():
    a = RngStream(7, 0).standard_normal(32)
    b = RngStream(7, 1).standard_normal(32)
    assert np.max(np.abs(a - b)) > 0


def test_distinct_seeds_differ():
    a = RngStream(7, 0).standard_normal(32)
    b = RngStream(8, 0).standard_normal(32)
    assert np.max(np.abs(a - b)) > 0


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       stream=st.integers(min_value=0, max_value=2**32))
def test_any_valid_seed_is_reproducible(seed, stream):
    a, b = RngStream(seed, stream), RngStream(seed, stream)
    assert [a.uniform() for _ in range(4)] == [b.uniform() for _ in range(4)]


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(2**64, 0)
    with pytest.raises(ValueError):
        RngStream(0, -3)


def test_stream_is_immutable():
    s = RngStream(0, 0)
    with pytest.raises(AttributeError):
        s._master_seed = 5
    with pytest.raises(AttributeError):
        s.extra = 5
    assert repr(s) == "RngStream(master_seed=0, stream_index=0)"


def test_uniform_bounds_and_normal_moments():
    s = RngStream(2024, 0)
    u = np.array([s.uniform() for _ in range(1000)] + s.uniform(size=1000).tolist())
    assert u.min() >= 0.0 and u.max() < 1.0
    # SE of the mean is ~1/sqrt(12 * 2000)
    assert abs(u.mean() - 0.5) < 4.0 / np.sqrt(12 * u.size)
    z = RngStream(2024, 1).standard_normal(200_000)
    # loose moment checks; SE of the mean is ~1/sqrt(2e5)
    assert abs(z.mean()) < 4.0 / np.sqrt(z.size)
    assert abs(z.std() - 1.0) < 0.01


def test_bracket_draws_match_generator_uniform():
    # the sampler draws a standard uniform u per chain and forms its angle
    # as lo + (hi - lo) * u for a whole array of brackets at once: the bits
    # Generator.uniform(lo, hi) gives from the same stream.  Its first two
    # uniforms come from one call, as the slice height u and the angle
    # 2 pi * u', which Generator.uniform(0, 2 pi) gives
    rng = np.random.default_rng(27)
    lo = -2.0 * np.pi * rng.random(20_000)
    hi = lo + 2.0 * np.pi * rng.random(20_000)
    ours = RngStream(2027, 3)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(2027, spawn_key=(3,))))
    pair = ours.uniform(size=2)
    assert pair[0] == gen.uniform() and 2.0 * np.pi * pair[1] == gen.uniform(0.0, 2.0 * np.pi)
    u = np.array([ours.uniform() for _ in range(lo.size)])
    ref = np.array([gen.uniform(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
    np.testing.assert_array_equal((lo + (hi - lo) * u).view(np.int64), ref.view(np.int64))


def test_permutation_is_a_permutation():
    p = RngStream(5, 0).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


def test_derive_seed_deterministic_and_label_sensitive():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(41, 0) != derive_seed(42, 0)
    assert 0 <= derive_seed(42, 3) < 2**64


def test_derive_seed_validation():
    with pytest.raises(ValueError):
        derive_seed(42, -1)
    with pytest.raises(ValueError):
        derive_seed(-1, 0)


def test_derived_streams_do_not_collide_with_base():
    # chains keyed by a derived seed must not replay the base seed's streams
    base = RngStream(11, 0).standard_normal(16)
    derived = RngStream(derive_seed(11, 0), 0).standard_normal(16)
    assert np.max(np.abs(base - derived)) > 0
