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

import numpy as np

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1A99E7B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xA24BAED4963EE407)


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
    """
    acc = np.uint64(0x243F6A8885A308D3)
    with np.errstate(over="ignore"):
        for p in parts:
            acc = _splitmix64((acc ^ (np.uint64(p & 0xFFFFFFFFFFFFFFFF) * _STREAM_SALT)) & _MASK)
    return int(acc)


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
    per spec. The float64 result is built in place, so its temporaries are
    about an eighth of its size.
    """
    n_rows = row_stop - row_start
    n_words = (dim + 63) // 64
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    cols = np.arange(n_words, dtype=np.uint64)
    base = np.uint64(mix64(seed))
    with np.errstate(over="ignore"):
        row_h = _splitmix64((rows * _STREAM_SALT) ^ base)
        words = _splitmix64(row_h[:, None] ^ ((cols[None, :] + np.uint64(1)) * _MIX1))
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    bits = bits.reshape(n_rows, n_words * 64)[:, :dim]
    signs = bits.astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    return signs
