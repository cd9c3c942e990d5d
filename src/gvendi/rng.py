"""Deterministic randomness primitives.

Everything seeded in this package flows through two mechanisms:

* ``rng_from(seed, *stream)`` -- a counter-based Philox generator keyed by a
  64-bit mix of the seed and an arbitrary stream label, used wherever we need
  draws (sampling, k-means++, weight init).
* ``mix64`` / ``sign_block`` -- a stateless splitmix64 construction used where
  individual values must be a pure function of their coordinates (the
  sign-projection matrix, feature hashing).

No wall-clock entropy anywhere.
"""

from __future__ import annotations

from operator import index

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1A99E7B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xA24BAED4963EE407)
_M64, _GAMMA64, _MIX1_64, _MIX2_64, _SALT64 = map(int, (_MASK, _GAMMA, _MIX1, _MIX2, _STREAM_SALT))


def _splitmix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """splitmix64 finalizer; operates on uint64 scalars or arrays (wrapping)."""
    with np.errstate(over="ignore"):
        z = (x + _GAMMA) & _MASK
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _MASK
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _MASK
        return z ^ (z >> np.uint64(31))


def mix64(*parts: int) -> int:
    """Mix any number of integers into a single 64-bit value.

    Pure function of its arguments; used to derive sub-seeds so that distinct
    purposes (clustering, generation, voting, ...) never share a stream.
    Python int arithmetic masked to 64 bits (numpy integers are taken as
    ints): bit for bit `_splitmix64` on uint64 scalars, without numpy's
    per-scalar cost.
    """
    acc = 0x243F6A8885A308D3
    for p in parts:
        z = ((acc ^ ((index(p) * _SALT64) & _M64)) + _GAMMA64) & _M64
        z = ((z ^ (z >> 30)) * _MIX1_64) & _M64
        z = ((z ^ (z >> 27)) * _MIX2_64) & _M64
        acc = z ^ (z >> 31)
    return acc


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by (seed, stream labels)."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, *stream)))


def hash_words(values: np.ndarray, seed: int) -> np.ndarray:
    """Map a uint64 array to uniformly mixed uint64 words, keyed by seed."""
    base = np.uint64(mix64(seed))
    with np.errstate(over="ignore"):
        return _splitmix64((values.astype(np.uint64) * _STREAM_SALT) ^ base)


def sign_block(seed: int, row_start: int, row_stop: int, dim: int) -> np.ndarray:
    """Rows [row_start, row_stop) of a {-1,+1} matrix with `dim` columns.

    Entry (i, j) is a pure function of (seed, i, j): bit (j mod 64) of the
    splitmix64 word at coordinate (i, j // 64), so any block is reproducible
    on demand. `proxy.ProjectionSpec.signs` asks for the whole matrix once
    per spec. The result is float32, which holds +-1 exactly. The words are
    unpacked straight into it, about 1 MiB of bits at a time, so its only
    temporaries are the words (8 bytes per 64 columns) and one such block.
    """
    n_words = (dim + 63) // 64
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    cols = np.arange(n_words, dtype=np.uint64)
    base = np.uint64(mix64(seed))
    with np.errstate(over="ignore"):
        row_h = _splitmix64((rows * _STREAM_SALT) ^ base)
        words = _splitmix64(row_h[:, None] ^ ((cols[None, :] + np.uint64(1)) * _MIX1))
    signs = np.empty((row_stop - row_start, dim), dtype=np.float32)
    step = max(1, (1 << 20) // dim)
    for a in range(0, len(signs), step):
        block = signs[a : a + step]
        block[...] = np.unpackbits(words[a : a + step].view(np.uint8), axis=1, count=dim,
                                   bitorder="little")
        block *= 2
        block -= 1
    return signs
