"""numpy's bundled OpenBLAS: its thread count, and LAPACK's symmetric
spectrum in the caller's buffer.

`one_thread()` holds the count at one thread for a block: `metrics` computes
its Gram products and spectra that way, `cluster._assign` and
`sampling.sample_lower_diversity` their products whose bits reach a result,
and `proxy.featurize` while its own threads share the CPUs. Holders nest
and may overlap across threads; the first to enter saves the count and the
last to leave restores it, so the count after the last holder is the count
before the first, whatever raised in between.

`eigvalsh_in_place(a)` is `np.linalg.eigvalsh(a)` computed by LAPACK's
`dsyevd` on a's own buffer, which it overwrites, where `eigvalsh` first
copies its input: a spectrum then holds one matrix, not two. Both come from
the library's symbols through `ctypes`; this is the only module that loads
it, and a numpy linked to another BLAS gets neither.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, or None when this numpy links another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    when this numpy links another BLAS."""
    lib = _openblas()
    if lib is None:
        return None
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


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


_COL_MAJOR = 102  # LAPACK_COL_MAJOR: LAPACKE passes the buffer to LAPACK as it is


@functools.cache
def _dsyevd():
    """LAPACKE_dsyevd of numpy's bundled OpenBLAS (64-bit integers), or None
    when this numpy links another BLAS."""
    dsyevd = getattr(_openblas(), "scipy_LAPACKE_dsyevd64_", None)
    if dsyevd is not None:
        # layout, jobz, uplo, n, a, lda, w -> info
        dsyevd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                           ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
        dsyevd.restype = ctypes.c_int64
    return dsyevd


def eigvalsh_in_place(a: np.ndarray) -> np.ndarray | None:
    """`np.linalg.eigvalsh(a)`, bit for bit when both run on one BLAS thread,
    from LAPACK's `dsyevd` on a's own buffer, which it overwrites: beyond
    the m eigenvalues it needs only LAPACK's O(m) workspace. None, with a
    untouched, when this numpy has no such binding or a is not a writeable,
    square, C-contiguous float64 array.

    Like `eigvalsh`, it reads a's lower triangle. LAPACK reads the C-ordered
    buffer as the column-major transpose, so the lower triangle is first
    copied into the upper one, which LAPACK's lower triangle then is. No
    convergence is a `LinAlgError`, as in numpy; LAPACKE refuses a matrix
    holding a NaN (its argument 5), a ValueError here.
    """
    dsyevd = _dsyevd()
    if dsyevd is None or not (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.ndim == 2
        and a.shape[0] == a.shape[1]
        and a.flags.c_contiguous
        and a.flags.writeable
    ):
        return None
    m = a.shape[0]
    for i in range(m - 1):
        a[i, i + 1 :] = a[i + 1 :, i]
    w = np.empty(m)
    info = dsyevd(_COL_MAJOR, b"N", b"L", m, a.ctypes.data, max(1, m), w.ctypes.data)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info < 0:
        raise ValueError(f"LAPACKE_dsyevd rejected its argument {-info}")
    return w
