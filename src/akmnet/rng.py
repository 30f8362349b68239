"""Deterministic random streams.

Everything stochastic in the package (weight init, dropout, data shuffling,
synthetic clip generation) draws from an RngStream, so a run is pinned by its
seed: same seed, same call sequence, bit-identical draws.
"""

import zlib

import numpy as np

from .tensor import DEFAULT_DTYPE, Tensor


class RngStream:
    """Seeded wrapper around numpy's PCG64 generator.

    ``child(tag)`` derives an independent stream keyed by the tag, so one
    consumer changing how many draws it makes cannot shift any other
    consumer's sequence.
    """

    def __init__(self, seed, spawn_key=()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, tag):
        # crc32 keeps the derivation stable across runs (no salted hashing)
        key = zlib.crc32(str(tag).encode("utf-8"))
        return RngStream(self.seed, self.spawn_key + (key,))

    def normal(self, shape=(), scale=1.0, dtype=DEFAULT_DTYPE):
        return (self._gen.standard_normal(size=shape) * scale).astype(dtype)

    def uniform(self, shape=(), low=0.0, high=1.0, dtype=DEFAULT_DTYPE):
        return self._gen.uniform(low, high, size=shape).astype(dtype)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)


def dropout_mask(shape, p, rng, training=True, dtype=DEFAULT_DTYPE):
    """Inverted-dropout mask: zeros with probability p, survivors 1/(1-p).

    Scaling at train time keeps the expected activation unchanged, so
    evaluation applies no correction (the mask is all ones there).
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout_mask: drop probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return Tensor(np.ones(shape, dtype=dtype), dtype=dtype)
    keep = rng.uniform(shape, dtype=np.float64) >= p
    scale = np.asarray(1.0 / (1.0 - p), dtype=dtype)
    return Tensor(keep.astype(dtype) * scale, dtype=dtype)
