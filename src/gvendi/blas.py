"""The thread count of numpy's bundled OpenBLAS.

`one_thread()` holds it at one thread for a block: `metrics` computes its
Gram products and spectra that way, and `proxy.featurize` while its own
threads share the CPUs. Holders nest and may overlap across threads; the first to enter saves
the count and the last to leave restores it, so the count after the last
holder is the count before the first, whatever raised in between.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when this numpy links another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        try:
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
        return get, put
    return None


def can_set_threads() -> bool:
    """Whether `one_thread` can set the count; it does nothing otherwise."""
    return _openblas_threads() is not None


_LOCK = threading.Lock()
_holders = 0
_saved = 0


@contextmanager
def one_thread():
    """Hold numpy's OpenBLAS at one thread for the block; see the module."""
    global _holders, _saved
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    with _LOCK:
        if _holders == 0:
            _saved = get()
            put(1)
        _holders += 1
    try:
        yield
    finally:
        with _LOCK:
            _holders -= 1
            if _holders == 0:
                put(_saved)
