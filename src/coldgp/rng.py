"""Deterministic random streams.

One generator family is used everywhere: Philox, a 64-bit counter-based
generator, keyed through ``numpy.random.SeedSequence(master_seed,
spawn_key=(stream_index,))``.  The same (master_seed, stream_index) pair
therefore replays the identical bit sequence on every platform numpy
supports, and distinct stream indices give statistically independent
streams without coordination.

:func:`random_stream` hands out the keyed ``numpy.random.Generator``, and
callers draw from it directly: standard normals from ``standard_normal``
(the ziggurat transform), and uniforms on [0, 1) from ``random``, 53-bit
dyadic rationals, bit for bit the values of ``uniform()`` at a fraction of
its cost.  A caller that needs [lo, hi) forms lo + (hi - lo) * u, the bits
of ``uniform(lo, hi)``.  Draw order defines the sequence: two streams built
from the same key agree bitwise only if they are consumed through the same
method calls in the same order.  A uniform takes one 64-bit output, so one
call for two uniforms draws the values of two calls for one each.
"""
from __future__ import annotations

import numpy as np

from .exceptions import check_bound


def _check_seed(master_seed) -> int:
    """``master_seed`` as a 64-bit unsigned int."""
    return check_bound("master_seed", master_seed, (0, False, False, 2**64 - 1))


def random_stream(master_seed: int, stream_index: int) -> np.random.Generator:
    """The Philox generator keyed by (master_seed, stream_index).

    Drawing advances only this generator's counter, never another stream's,
    so streams can be handed to independent workers safely.  The key reads
    back as ``generator.bit_generator.seed_seq`` (``entropy``, ``spawn_key``).
    """
    seed = _check_seed(master_seed)
    index = check_bound("stream_index", stream_index, (0, False))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def derive_seed(master_seed: int, label: int) -> int:
    """Derive a fresh 64-bit master seed from a seed and one integer label.

    Used wherever a component needs its own seed space (one per temperature
    grid position, one per replicate dataset) without colliding with the
    stream indices the component will consume internally.  Deterministic:
    the same (seed, label) always yields the same derived seed, the first
    word of ``SeedSequence(seed, spawn_key=(label,))``.
    """
    seed = _check_seed(master_seed)
    key = check_bound("label", label, (0, False))
    ss = np.random.SeedSequence(seed, spawn_key=(key,))
    return int(ss.generate_state(1, np.uint64)[0])
