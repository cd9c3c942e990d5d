"""featurize on several threads: the bytes of one thread, the error of the
first failing chunk, the OpenBLAS thread count left as it was found, and
memory bounded by the window of submitted chunks."""

import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gvendi import Corpus, ProjectionSpec, ProxyModel, Sample, blas, featurize, metrics, proxy
from test_proxy import _short_and_long_outputs
from test_proxy import test_featurize_peak_is_flat_in_n as _peak_is_flat_in_n

needs_blas_count = pytest.mark.skipif(
    not blas.can_set_threads(), reason="this numpy's BLAS thread count cannot be set"
)
needs_dsyevd = pytest.mark.skipif(
    blas._dsyevd() is None, reason="this numpy's BLAS has no LAPACKE_dsyevd binding"
)


def _count():
    threads = blas._openblas_threads()
    return threads[0]() if threads else None


def _workers(monkeypatch, n):
    monkeypatch.setattr(proxy, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(proxy, "_featurize_workers", lambda chunks: n)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 9, 12, 13, 21])
def test_featurize_bytes_do_not_depend_on_workers(monkeypatch, n):
    # 4-row chunks: 1 to 5 chunks, fewer, as many and more than the workers;
    # at 5, 9, 13 and 21 rows a 1-row tail joins the chunk before it
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 64, seed=5)
    corpus = _short_and_long_outputs(n)
    expected = featurize(model, proj, corpus).data.tobytes()
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        assert featurize(model, proj, corpus).data.tobytes() == expected, workers


@pytest.mark.parametrize("cpus, expected", [(1, [1, 1, 1, 1]), (2, [1, 1, 2, 2]),
                                            (3, [1, 1, 2, 2]), (8, [1, 1, 2, 2])])
def test_workers_are_the_usable_cpus_capped_at_two_and_the_chunks(monkeypatch, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    expected = expected if blas.can_set_threads() else [1] * 4
    assert [proxy._featurize_workers(chunks) for chunks in (0, 1, 2, 8)] == expected


@pytest.mark.parametrize("cpus", [4, 8])
def test_peak_is_flat_in_n_on_more_cpus(monkeypatch, cpus):
    # 3 chunks against 16: a worker per CPU would hold more gradient buffers
    # for the larger corpus
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    _peak_is_flat_in_n()


def test_workers_share_one_sign_build(monkeypatch):
    _workers(monkeypatch, 3)
    calls = []
    real_sign_block = proxy.sign_block
    monkeypatch.setattr(proxy, "sign_block", lambda *a: calls.append(a) or real_sign_block(*a))
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 32, seed=13)
    corpus = _short_and_long_outputs(12)
    assert featurize(model, proj, corpus).data.tobytes() == featurize(model, proj, corpus).data.tobytes()
    assert calls == [(13, 0, model.n_params, 32)]


def test_workers_run_in_the_callers_errstate(monkeypatch):
    _workers(monkeypatch, 3)
    seen = []
    run_chunk = proxy._featurize_chunk
    monkeypatch.setattr(proxy, "_featurize_chunk",
                        lambda *a: seen.append(np.geterr()) or run_chunk(*a))
    model = ProxyModel.create()
    with np.errstate(all="ignore", under="warn"):
        expected = np.geterr()
        featurize(model, ProjectionSpec(model.n_params, 32, seed=13), _short_and_long_outputs(21))
    assert seen == [expected] * 5


def test_error_names_the_first_failing_chunk_in_corpus_order(monkeypatch):
    # chunk 3 fails first; chunk 1, which fails too, holds until it has
    _workers(monkeypatch, 3)
    samples = tuple(Sample(id=f"s{i}", input="in", output="" if i in (5, 13) else "out")
                    for i in range(16))
    third_failed = threading.Event()
    run_chunk = proxy._featurize_chunk

    def ordered(model, proj, chunk, buffers):
        try:
            if chunk[0].id == "s4":
                third_failed.wait(10)
            return run_chunk(model, proj, chunk, buffers)
        finally:
            if chunk[0].id == "s12":
                third_failed.set()

    monkeypatch.setattr(proxy, "_featurize_chunk", ordered)
    model = ProxyModel.create()
    with pytest.raises(ValueError, match="^sample 's5': output is empty"):
        featurize(model, ProjectionSpec(model.n_params, 8, seed=1), Corpus(samples, name="t"))
    assert third_failed.is_set()


def test_one_cpu_runs_every_chunk_on_one_worker_and_leaves_blas_alone(monkeypatch):
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no sched_setaffinity on this platform")
    monkeypatch.setattr(proxy, "_CHUNK_ROWS", 4)
    seen = []
    run_chunk = proxy._featurize_chunk
    monkeypatch.setattr(proxy, "_featurize_chunk",
                        lambda *a: seen.append((threading.current_thread(), _count()))
                        or run_chunk(*a))
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 32, seed=13)
    before, cpus = _count(), os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the calling thread only
    try:
        featurize(model, proj, _short_and_long_outputs(12))
    finally:
        os.sched_setaffinity(0, cpus)
    # one worker thread, not the caller, runs all three chunks on the BLAS
    # threads it found
    assert len(seen) == 3 and seen[0][0] is not threading.current_thread()
    assert seen == [(seen[0][0], before)] * 3
    assert _count() == before


@needs_blas_count
def test_failing_worker_restores_blas_threads(monkeypatch):
    """Chunk 1 fails while chunk 0 runs: as for a failed emit, at most two
    chunks per worker ran beyond chunk 0's block, each on a worker held at
    one BLAS thread, and the count is restored."""
    _workers(monkeypatch, 2)
    caller = threading.current_thread()
    failed = threading.Event()
    seen = []
    run_chunk = proxy._featurize_chunk

    def failing(model, proj, chunk, buffers):
        seen.append((threading.current_thread() is caller, _count()))
        if chunk[0].id == "s0":
            failed.wait(10)  # the other worker takes the next chunks meanwhile
            return run_chunk(model, proj, chunk, buffers)
        failed.set()
        raise RuntimeError("worker failed")

    monkeypatch.setattr(proxy, "_featurize_chunk", failing)
    model = ProxyModel.create()
    before = _count()
    with pytest.raises(RuntimeError, match="worker failed"):
        featurize(model, ProjectionSpec(model.n_params, 32, seed=13),
                  _short_and_long_outputs(41))  # 10 chunks
    assert failed.is_set() and set(seen) == {(False, 1)}
    assert len(seen) <= 1 + 2 * 2
    assert _count() == before


@needs_dsyevd
@pytest.mark.parametrize("spectrum_ends", ["during", "after"])
def test_spectrum_overlapping_featurize_restores_blas_threads(monkeypatch, spectrum_ends):
    """A spectrum on another thread enters while featurize holds one BLAS
    thread, and leaves either before featurize does or after it."""
    _workers(monkeypatch, 2)
    featurizing, spectrum_in, spectrum_out, featurized = (threading.Event() for _ in range(4))
    seen = []
    dsyevd = blas._dsyevd()

    def spectrum(*args):
        spectrum_in.set()
        if spectrum_ends == "after":
            featurized.wait(10)
        seen.append(("spectrum", featurized.is_set(), _count()))
        return dsyevd(*args)

    run_chunk = proxy._featurize_chunk

    def chunk(*args):
        featurizing.set()
        (spectrum_out if spectrum_ends == "during" else spectrum_in).wait(10)
        seen.append(("chunk", spectrum_out.is_set(), _count()))
        return run_chunk(*args)

    def other_thread():
        featurizing.wait(10)
        metrics._eigvalsh(np.eye(3))
        spectrum_out.set()

    monkeypatch.setattr(blas, "_dsyevd", lambda: spectrum)
    monkeypatch.setattr(proxy, "_featurize_chunk", chunk)
    model = ProxyModel.create()
    before = _count()
    thread = threading.Thread(target=other_thread)
    thread.start()
    try:
        featurize(model, ProjectionSpec(model.n_params, 32, seed=13), _short_and_long_outputs(12))
        if spectrum_ends == "after":
            assert not spectrum_out.is_set() and _count() == 1  # the spectrum still holds
    finally:
        featurized.set()
        thread.join(10)
    assert not thread.is_alive() and spectrum_out.is_set()
    assert ("spectrum", spectrum_ends == "after", 1) in seen
    assert {count for *_, count in seen} == {1}
    assert _count() == before


@needs_blas_count
def test_many_workers_and_spectra_under_fast_thread_switching(monkeypatch):
    """Eight workers on 4-row chunks while three threads take and release
    one BLAS thread in a loop: a lost update to the chunk window or the
    holder count shows as other bytes or another final count."""
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 32, seed=13)
    corpus = _short_and_long_outputs(41)
    expected = featurize(model, proj, corpus).data.tobytes()
    _workers(monkeypatch, 8)
    before, stop = _count(), threading.Event()

    def spectra():
        while not stop.is_set():
            metrics._eigvalsh(np.eye(2))

    others = [threading.Thread(target=spectra) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in others:
            t.start()
        for _ in range(3):
            assert featurize(model, proj, corpus).data.tobytes() == expected
    finally:
        stop.set()
        for t in others:
            t.join(10)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in others)
    assert _count() == before


@needs_blas_count
def test_emit_that_raises_stops_the_pool_and_restores_blas_threads(monkeypatch):
    """A write that fails on block 2 at two workers: its error propagates,
    the pool's threads are gone, the BLAS count is back, and at most two
    chunks per worker ran beyond the blocks emitted."""
    _workers(monkeypatch, 2)
    ran = []
    run_chunk = proxy._featurize_chunk
    monkeypatch.setattr(proxy, "_featurize_chunk", lambda *a: ran.append(a) or run_chunk(*a))
    model = ProxyModel.create()
    stream = proxy.featurize_stream(model, ProjectionSpec(model.n_params, 32, seed=13),
                                    _short_and_long_outputs(41))  # 10 chunks
    emitted = []

    def emit(block):
        if len(emitted) == 2:
            raise OSError("write failed")
        emitted.append(block)

    threads, before = threading.active_count(), _count()
    with pytest.raises(OSError, match="^write failed$"):
        stream.blocks(emit)
    assert threading.active_count() == threads and _count() == before
    assert len(emitted) == 2 and len(ran) <= len(emitted) + 2 * 2


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_slow_consumer_holds_only_the_window(monkeypatch):
    """A consumer that takes 10 ms per block while two workers run 16-row
    chunks: the traced peak stays within 2 x workers blocks plus, per
    worker, a gradient buffer and a running chunk's peak (its block and
    temporaries), and does not grow from 40 chunks to 80."""
    monkeypatch.setattr(proxy, "_CHUNK_ROWS", 16)
    monkeypatch.setattr(proxy, "_featurize_workers", lambda chunks: 2)
    model = ProxyModel.create(feature_dim=4)
    proj = ProjectionSpec(model.n_params, model.n_params, seed=13)  # 1024-wide blocks

    def corpus(n):
        return Corpus(tuple(Sample(id=f"s{i}", input=f"question {i}", output=f"answer {i % 7}")
                            for i in range(n)), name="t")

    chunk = corpus(16).samples
    buffers = [np.empty((16, model.n_params), dtype=np.float32)]
    proxy._featurize_chunk(model, proj, chunk, buffers)  # builds the signs and the bigram table
    chunk_peak = _traced_peak(lambda: proxy._featurize_chunk(model, proj, chunk, buffers))
    block, grads = 16 * proj.target_dim * 4, buffers[0].nbytes
    streams = [proxy.featurize_stream(model, proj, corpus(16 * chunks)) for chunks in (40, 80)]
    peaks = [_traced_peak(lambda: stream.blocks(lambda rows: time.sleep(0.01)))
             for stream in streams]
    assert max(peaks) <= 2 * 2 * block + 2 * (grads + chunk_peak), (peaks, block, chunk_peak)
    # whether both workers' temporaries peak at once moves a run's peak by
    # up to one chunk's; 40 more blocks held would move it by 40 blocks
    assert peaks[1] <= peaks[0] + chunk_peak, (peaks, chunk_peak)
