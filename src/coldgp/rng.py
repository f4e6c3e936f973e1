"""Deterministic random streams.

One generator family is used everywhere: Philox, a 64-bit counter-based
generator, keyed through ``numpy.random.SeedSequence(master_seed,
spawn_key=(stream_index,))``.  The same (master_seed, stream_index) pair
therefore replays the identical bit sequence on every platform numpy
supports, and distinct stream indices give statistically independent
streams without coordination.

Standard normals come from ``numpy.random.Generator.standard_normal``
(the ziggurat transform); uniforms are 53-bit dyadic rationals in [0, 1).
Draw order defines the sequence: two streams built from the same key agree
bitwise only if they are consumed through the same method calls in the
same order.  A uniform takes one 64-bit output, so one call for two
uniforms draws the values of two calls for one each.
"""
from __future__ import annotations

import numpy as np

_MAX_SEED = 2**64


def _check_seed(master_seed) -> int:
    seed = int(master_seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"master_seed must be a 64-bit unsigned int, got {master_seed!r}")
    return seed


class RngStream:
    """A named, replayable source of randomness.

    Identity is the (master_seed, stream_index) pair, which ``repr`` shows.
    Drawing advances only this stream's internal counter, never any other
    stream's, so streams can be handed to independent workers safely.
    """

    __slots__ = ("_master_seed", "_stream_index", "_gen")

    def __init__(self, master_seed: int, stream_index: int):
        seed = _check_seed(master_seed)
        index = int(stream_index)
        if index < 0:
            raise ValueError(f"stream_index must be non-negative, got {stream_index!r}")
        ss = np.random.SeedSequence(seed, spawn_key=(index,))
        object.__setattr__(self, "_master_seed", seed)
        object.__setattr__(self, "_stream_index", index)
        object.__setattr__(self, "_gen", np.random.Generator(np.random.Philox(ss)))

    def __setattr__(self, name, value):
        raise AttributeError("RngStream is immutable after construction")

    def __repr__(self):
        return f"RngStream(master_seed={self._master_seed}, stream_index={self._stream_index})"

    def standard_normal(self, size):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        """Standard uniforms on [0, 1): a float, or an array shaped ``size``.

        ``Generator.random`` draws them: bit for bit the values of
        ``Generator.uniform()`` from the same stream, at a fraction of the
        call's cost.  A caller that needs [lo, hi) forms lo + (hi - lo) * u,
        the bits of ``Generator.uniform(lo, hi)``.
        """
        return self._gen.random(size)

    def permutation(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("permutation length must be non-negative")
        return self._gen.permutation(n)


def derive_seed(master_seed: int, label: int) -> int:
    """Derive a fresh 64-bit master seed from a seed and one integer label.

    Used wherever a component needs its own seed space (one per temperature
    grid position, one per replicate dataset) without colliding with the
    stream indices the component will consume internally.  Deterministic:
    the same (seed, label) always yields the same derived seed, the first
    word of ``SeedSequence(seed, spawn_key=(label,))``.
    """
    seed = _check_seed(master_seed)
    key = int(label)
    if key < 0:
        raise ValueError(f"label must be non-negative, got {label!r}")
    ss = np.random.SeedSequence(seed, spawn_key=(key,))
    return int(ss.generate_state(1, np.uint64)[0])
