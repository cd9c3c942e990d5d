import numpy as np

from gvendi.rng import _MASK, _STREAM_SALT, _splitmix64, mix64, rng_from


def _numpy_mix64(*parts):
    """mix64 on numpy uint64 scalars: the reference."""
    acc = np.uint64(0x243F6A8885A308D3)
    with np.errstate(over="ignore"):
        for p in parts:
            acc = _splitmix64((acc ^ (np.uint64(p & 0xFFFFFFFFFFFFFFFF) * _STREAM_SALT)) & _MASK)
    return int(acc)


def test_mix64_matches_numpy_scalar_reference():
    rng = rng_from(61)
    edges = [0, 1, -1, 2**63 - 1, -(2**63), 2**64 - 1, 2**64, 2**64 + 5, -(2**64) - 3, 2**200 + 7]
    cases = [(), *[(e,) for e in edges], (0x57E, -1, 2**70), (True, False)]
    for _ in range(3000):
        n = int(rng.integers(0, 5))
        bits = rng.integers(1, 130, size=n)
        cases.append(tuple(int(rng.integers(0, 2**62)) * (1 << max(0, int(b) - 62))
                           * int(rng.choice([-1, 1])) + int(rng.integers(-9, 9))
                           for b in bits))
    for parts in cases:
        got = mix64(*parts)
        assert type(got) is int and 0 <= got < 2**64
        assert got == _numpy_mix64(*parts), parts


def test_mix64_takes_numpy_integers_as_ints():
    for v in (np.int64(-5), np.int32(7), np.uint64(2**64 - 1), np.uint8(3)):
        assert mix64(1, v, 2) == mix64(1, int(v), 2)
