"""Proxy-gradient featurization.

Each sample is represented by the loss gradient of a small fixed next-token
model: a linear softmax over hashed byte-bigram context features. The model
is deliberately tiny -- its job is not to predict well but to give every
sample a closed-form gradient direction that genuinely depends on the
input -> output mapping. Gradients are sign-projected down to a small
dimension in float32 and unit-normalized, yielding the rows of a
FeatureMatrix.

A hashed word-bigram TF-IDF embedder is included as a built-in stand-in for
an external embedding model, so the embedding-based baseline metrics run
without any services. External feature providers can bypass this module
entirely by writing the binary FeatureMatrix format.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .blas import can_set_threads, one_thread
from .corpus import Corpus, Sample
from .featmat import FeatureMatrix, FeatureStream, Provenance
from .rng import hash_words, mix64, rng_from, sign_block

_CTX_START = 0x02  # prepended so every context yields at least one bigram
_CTX_SEP = 0x1E  # record separator between input and output prefix

_PROJECT_BLOCK_ROWS = 8192
# mixed into featurize's provenance fingerprint; bumped whenever a change to
# the kernel moves feature values, so rows of two revisions never join one pool
_FEATURIZE_REVISION = 2  # float32 token pass
_MIN_LOGIT_ROWS = 8  # rows of the smallest logits GEMM _token_pass runs
_CHUNK_ROWS = 128  # samples per featurize chunk: one projection GEMM, one gradient buffer
_TOKEN_ROWS = 16  # samples per token pass, which bounds its logits and temporaries
# most featurize threads, each holding one chunk's gradient buffer: the count
# measured to pay (2 on 2 vCPUs); the token pass is GIL-bound, so more are unproven
_MAX_WORKERS = 2

# embed_hashed_tfidf's defaults, shared by the metrics that score its rows
TFIDF_DIM = 32768
TFIDF_SEED = 404
_EMBED_BLOCK_BYTES = 1 << 20  # float32 bytes of one dense block of `embed_stream` (or one row)


@dataclass(frozen=True)
class ProxyModel:
    """Linear softmax next-token model over hashed byte-bigram features."""

    vocab_size: int
    feature_dim: int
    weights: np.ndarray  # (vocab_size, feature_dim) float64
    hash_seed: int

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.vocab_size, self.feature_dim):
            raise ValueError(
                f"weights shape {w.shape} != ({self.vocab_size}, {self.feature_dim})"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_params(self) -> int:
        return self.vocab_size * self.feature_dim

    def fingerprint(self) -> int:
        """64-bit identity of (shape, hash seed, weights) for provenance."""
        h = hashlib.blake2b(digest_size=8)
        h.update(np.int64([self.vocab_size, self.feature_dim, self.hash_seed]).tobytes())
        h.update(self.weights.tobytes())
        return int.from_bytes(h.digest(), "little")

    @classmethod
    def create(
        cls,
        vocab_size: int = 256,
        feature_dim: int = 64,
        hash_seed: int = 101,
        weight_seed: int = 202,
    ) -> "ProxyModel":
        """Default model: small uniform random weights from weight_seed.

        Zero weights would make the per-class feature gradients collinear
        across samples, so the reference init is a fixed non-degenerate draw.
        """
        rng = rng_from(weight_seed, 0xF17)
        w = rng.uniform(-0.01, 0.01, size=(vocab_size, feature_dim))
        return cls(vocab_size, feature_dim, w, hash_seed)


@dataclass(frozen=True)
class ProjectionSpec:
    """Sign (+-1) random projection from gradient space down to `target_dim`.

    Entries are a pure function of (seed, row, column). The whole matrix,
    `signs`, is built on the first `project` or `featurize` call and kept by
    the spec as float32, which holds +-1 exactly, so every call on one spec
    shares one build.
    """

    source_dim: int
    target_dim: int = 1024
    seed: int = 303

    def __post_init__(self) -> None:
        if self.target_dim < 1:
            raise ValueError("target_dim must be >= 1")
        if self.target_dim > self.source_dim:
            raise ValueError(
                f"target_dim {self.target_dim} exceeds source_dim {self.source_dim}"
            )

    @cached_property
    def signs(self) -> np.ndarray:
        """The whole source_dim x target_dim sign matrix, float32 (64 MB at
        the default sizes), read-only."""
        signs = sign_block(self.seed, 0, self.source_dim, self.target_dim)
        signs.flags.writeable = False
        return signs


@lru_cache(maxsize=32)
def _bigram_buckets(hash_seed: int, feature_dim: int) -> np.ndarray:
    """Bucket index for each of the 65536 byte bigrams."""
    codes = np.arange(65536, dtype=np.uint64)
    table = (hash_words(codes, mix64(hash_seed, 0xB16)) % np.uint64(feature_dim)).astype(
        np.int64
    )
    table.flags.writeable = False
    return table


def _context_features(model: ProxyModel, sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Per-step context features and target tokens for a sample.

    Returns (phi, targets): phi[t] is the unit-normalized hashed-bigram count
    vector of the context preceding output byte t; targets[t] is that byte.
    """
    if not sample.output:
        raise ValueError(f"sample {sample.id!r}: output is empty, no target tokens")
    try:
        x = sample.input.encode("utf-8")
        y = sample.output.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ValueError(f"sample {sample.id!r}: {e}") from None
    targets = np.frombuffer(y, dtype=np.uint8).astype(np.int64)
    if targets.max() >= model.vocab_size:
        raise ValueError(
            f"sample {sample.id!r}: output byte {int(targets.max())} outside "
            f"vocab of size {model.vocab_size}"
        )
    seq = bytes([_CTX_START]) + x + bytes([_CTX_SEP]) + y
    raw = np.frombuffer(seq, dtype=np.uint8).astype(np.uint64)
    codes = (raw[:-1] << np.uint64(8)) | raw[1:]
    buckets = _bigram_buckets(model.hash_seed, model.feature_dim)[codes]

    t_steps = len(y)
    base = len(x) + 2  # context length at step 0: start byte + input + separator
    counts = np.zeros((t_steps, model.feature_dim), dtype=np.float64)
    counts[0] = np.bincount(buckets[: base - 1], minlength=model.feature_dim)
    # row t >= 1 first holds the one bigram its context adds to row t-1's; the
    # cumsum then makes every row its own context's counts
    counts[np.arange(1, t_steps), buckets[base - 1 : base - 2 + t_steps]] = 1.0
    np.cumsum(counts, axis=0, out=counts)
    counts /= np.linalg.norm(counts, axis=1)[:, None]
    return counts, targets


def _token_pass(model: ProxyModel, samples: Sequence[Sample],
                out: np.ndarray | None = None) -> list[tuple[float, int]]:
    """Each sample's total negative log-likelihood and token count, from one
    logits GEMM over every token of `samples`.

    Given `out`, each sample's gradient, (softmax - onehot)^T @ phi, also
    lands un-normalised in its row of `out`. The pass computes in `out`'s
    dtype (`featurize` passes float32 rows), and in float64 without `out`.
    The logits GEMM gets at least _MIN_LOGIT_ROWS rows, zero rows padding a
    shorter one, so a sample's bits do not depend on the samples passed with
    it. Errors name the first failing sample in order, even when a later one
    fails at an earlier stage.
    """
    contexts = []
    pending = None
    for sample in samples:
        try:
            contexts.append(_context_features(model, sample))
        except ValueError as e:
            pending = e  # raised once the samples before it have passed
            break
    totals = []
    if contexts:
        dtype = np.float64 if out is None else out.dtype
        n_tokens = sum(len(c[1]) for c in contexts)
        # a product of 1-4 rows takes another BLAS kernel, whose low bits differ
        phi = np.zeros((max(n_tokens, _MIN_LOGIT_ROWS), model.feature_dim), dtype=dtype)
        np.concatenate([c[0] for c in contexts], out=phi[:n_tokens])
        probs = (phi @ model.weights.astype(dtype, copy=False).T)[:n_tokens]
        phi = phi[:n_tokens]
        tokens = (np.arange(n_tokens), np.concatenate([c[1] for c in contexts]))
        probs -= probs.max(axis=1, keepdims=True)
        target_logits = probs[tokens]  # log p = shifted logit - log(sum of exps)
        np.exp(probs, out=probs)
        sums = probs.sum(axis=1, keepdims=True)
        log_probs = target_logits - np.log(sums[:, 0])
        probs /= sums
        probs[tokens] -= 1.0
        start = 0
        for i, (_, targets) in enumerate(contexts):
            stop = start + len(targets)
            totals.append((float(-log_probs[start:stop].sum()), len(targets)))
            if out is not None:
                np.matmul(probs[start:stop].T, phi[start:stop],
                          out=out[i].reshape(model.vocab_size, model.feature_dim))
            start = stop
        if out is not None:
            finite = np.isfinite(out[: len(contexts)])
            if not finite.all():
                bad = int(np.argmin(finite.all(axis=1)))  # the first non-finite row
                raise ValueError(
                    f"sample {samples[bad].id!r}: non-finite gradient (corrupt weights?)"
                )
    if pending is not None:
        raise pending
    return totals


def loss_gradient(model: ProxyModel, sample: Sample) -> np.ndarray:
    """Gradient of the sample's total negative log-likelihood w.r.t. weights.

    Summed over target tokens, flattened row-major to a vector of length
    vocab_size * feature_dim. Matches central finite differences of
    sample_nll to relative error <= 1e-4. The same kernel as `featurize`,
    run on one sample and left un-normalised; given a float64 row, it
    computes in float64 where `featurize` computes in float32.
    """
    out = np.empty((1, model.n_params), dtype=np.float64)
    _token_pass(model, (sample,), out)
    return out[0]


def sample_nll(model: ProxyModel, sample: Sample) -> tuple[float, int]:
    """Total negative log-likelihood of the output and its token count: the
    token pass of `loss_gradient`, run on one sample."""
    return _token_pass(model, (sample,))[0]


def project(spec: ProjectionSpec, vectors: np.ndarray) -> np.ndarray:
    """Apply the sign projection to vectors given as rows; linear.

    Computes in float32 for float32 rows (as `featurize` passes them) and in
    float64 for any other input; a float64 product casts each block of the
    float32 signs up, which is exact. Adds one product per
    _PROJECT_BLOCK_ROWS rows of `spec.signs`, in row order, to a
    zero-initialised result, so a zero row stays exactly +0.0.

    The spec builds its whole sign matrix on first use and keeps it, so
    `featurize`, which projects each chunk through here, shares the build.
    A row's result does not depend on the other rows passed with it, except
    that a single row takes the BLAS matrix-vector path, whose low bits can
    differ; that is why `featurize` never projects a 1-row chunk of a longer
    corpus.
    """
    vecs = np.atleast_2d(vectors)
    vecs = vecs.astype(np.float32 if vecs.dtype == np.float32 else np.float64, copy=False)
    if vecs.shape[1] != spec.source_dim:
        raise ValueError(
            f"vector dimension {vecs.shape[1]} != projection source_dim {spec.source_dim}"
        )
    out = np.zeros((vecs.shape[0], spec.target_dim), dtype=vecs.dtype)
    for start in range(0, spec.source_dim, _PROJECT_BLOCK_ROWS):
        stop = start + _PROJECT_BLOCK_ROWS
        out += vecs[:, start:stop] @ spec.signs[start:stop].astype(vecs.dtype, copy=False)
    return out


def _chunk_bounds(n: int) -> list[int]:
    """Chunk boundaries [0, ..., n] of at most _CHUNK_ROWS rows, no 1-row tail.

    A 1-row product takes the BLAS matrix-vector path, whose low bits differ
    from the matrix-matrix path every other row takes, so a 1-row tail is
    folded into the chunk before it. Only a 1-row corpus has a 1-row chunk.
    """
    bounds = list(range(0, n, _CHUNK_ROWS)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def gradient_provenance(model: ProxyModel, proj: ProjectionSpec) -> Provenance:
    """The provenance `featurize(model, proj, ...)` stamps on its rows: the
    model's fingerprint mixed with _FEATURIZE_REVISION, so rows from an
    earlier kernel never join a pool of these, and the projection seed."""
    return Provenance("proxy_gradient", fingerprint=mix64(model.fingerprint(), _FEATURIZE_REVISION),
                      seed=proj.seed)


def _featurize_workers(chunks: int) -> int:
    """How many threads `featurize` runs `chunks` chunks on: one per usable
    CPU, at most _MAX_WORKERS and at most one per chunk, or one where the
    BLAS thread count cannot be held at one."""
    if not can_set_threads():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, _MAX_WORKERS, chunks))


def _featurize_chunk(model: ProxyModel, proj: ProjectionSpec, samples: Sequence[Sample],
                     buffers: list[np.ndarray]) -> np.ndarray:
    """One chunk's unit rows as a new float32 block, its gradients computed in
    a buffer borrowed from `buffers`, which holds one per worker thread."""
    buffer = buffers.pop()
    try:
        grads = buffer[: len(samples)]
        for a in range(0, len(samples), _TOKEN_ROWS):
            _token_pass(model, samples[a : a + _TOKEN_ROWS], grads[a : a + _TOKEN_ROWS])
        # a zero gradient row projects to exactly +0.0 and stays zero
        projected = project(proj, grads).astype(np.float64)
    finally:
        buffers.append(buffer)
    norms = np.linalg.norm(projected, axis=1)
    projected /= np.where(norms == 0.0, 1.0, norms)[:, None]
    return projected.astype(np.float32)


def featurize(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus) -> FeatureMatrix:
    """Unit-norm projected loss gradients, one row per sample in corpus order:
    `featurize_stream(model, proj, corpus).collect()`.

    Zero-gradient samples map to the zero row (flagged degenerate) rather
    than being dropped, keeping row/id alignment intact. The rows carry
    `gradient_provenance(model, proj)`.
    """
    return featurize_stream(model, proj, corpus).collect()


def featurize_stream(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus) -> FeatureStream:
    """`featurize`'s rows as a FeatureStream of one block per chunk.

    The corpus streams through in chunks of _CHUNK_ROWS samples (a 1-row
    tail joins the chunk before it): the token pass computes a chunk's
    gradients in float32, the dtype they are stored and projected in (the
    logits GEMM, the softmax and the per-sample products alike), _TOKEN_ROWS
    samples at a time, then each projected row is normalised in float64 and
    lands as float32 in the chunk's block. A row does not depend on the
    other samples of its chunk, except that a 1-row corpus takes `project`'s
    matrix-vector path.

    The chunks run on a pool of `_featurize_workers` threads. A running chunk
    computes its gradients in one of as many float32 buffers, which the
    calling thread allocates, and its rows in a block of its own that no
    later chunk reuses, so a consumer may keep what it is handed. With two
    or more workers OpenBLAS is held at one thread; a single worker leaves
    the BLAS thread count as it finds it. The calling thread runs no chunk:
    it keeps a window of at most two chunks per worker submitted and hands
    their blocks on in corpus order, so the stream's memory is flat in the
    corpus size and the CPU count. Each chunk runs in a copy of the caller's
    context (numpy's errstate lives there). A failed chunk stops the stream
    as a failed `emit` does: the first failure in corpus order raises once
    every block before it has been handed on, chunks still queued are
    cancelled and those running finish. The sign matrix is `proj.signs`
    (source_dim x target_dim float32, 64 MB at the defaults), built before
    the workers start and kept by `proj`.
    """
    if proj.source_dim != model.n_params:
        raise ValueError(
            f"projection source_dim {proj.source_dim} != model parameter count "
            f"{model.n_params}"
        )
    return FeatureStream(corpus.ids(), proj.target_dim, gradient_provenance(model, proj),
                         lambda emit: _featurize_blocks(model, proj, corpus, emit))


def _featurize_blocks(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus,
                      emit: Callable[[np.ndarray], None]) -> None:
    """Each chunk's unit rows to `emit`, in corpus order, on the calling
    thread; see `featurize_stream`."""
    bounds = _chunk_bounds(len(corpus))
    workers = _featurize_workers(len(bounds) - 1)
    # one gradient buffer per worker, allocated here: a worker thread's would
    # come from its own malloc arena, which cannot reuse what this thread frees
    buffers = [np.empty((max(np.diff(bounds), default=0), model.n_params), dtype=np.float32)
               for _ in range(workers)]
    proj.signs  # built once, before the workers share it
    # the caller only waits and emits, so no chunk runs beside another on its
    # stack (bench/tracer.py parents each thread's spans to the caller's); one
    # worker runs alone, so its chunks keep every BLAS thread
    with one_thread() if workers > 1 else contextlib.nullcontext():
        pool = ThreadPoolExecutor(workers)
        try:
            submit = (pool.submit(contextvars.copy_context().run, _featurize_chunk, model, proj,
                                  corpus.samples[start:stop], buffers)
                      for start, stop in zip(bounds, bounds[1:]))
            window = deque(islice(submit, 2 * workers))
            while window:
                # raises the first failure in corpus order, every block before it emitted
                emit(window.popleft().result())
                window.extend(islice(submit, 1))
        finally:
            pool.shutdown(cancel_futures=True)


class TfidfRows(NamedTuple):
    """Hashed TF-IDF rows in CSR (compressed sparse row) form.

    Row i's nonzeros sit at columns bucket[indptr[i]:indptr[i + 1]], in
    ascending order, with float32 values weight[indptr[i]:indptr[i + 1]]; a
    row with no entries is the zero row.
    """

    indptr: np.ndarray  # (n + 1,) int64
    bucket: np.ndarray  # (nnz,) int64
    weight: np.ndarray  # (nnz,) float32

    def block(self, start: int, stop: int) -> "TfidfRows":
        """Rows start:stop (clipped to the rows there are) on their own."""
        stop = min(stop, len(self.indptr) - 1)
        lo, hi = self.indptr[start], self.indptr[stop]
        return TfidfRows(self.indptr[start : stop + 1] - lo, self.bucket[lo:hi], self.weight[lo:hi])

    def scatter(self, dim: int) -> np.ndarray:
        """The rows as a dense n x dim float32 matrix."""
        n = len(self.indptr) - 1
        out = np.zeros((n, dim), dtype=np.float32)
        out[np.repeat(np.arange(n), np.diff(self.indptr)), self.bucket] = self.weight
        return out


def _sample_tokens(sample: Sample) -> list[str]:
    """Case-folded whitespace tokens of input + output."""
    return (sample.input + " " + sample.output).lower().split()


def _tfidf_rows(corpus: Corpus, dim: int, seed: int) -> TfidfRows:
    """The rows of `embed_hashed_tfidf`, kept sparse.

    Each distinct bigram is hashed once per call. A row's weights are
    count * idf over its nonzeros, divided by their norm. That float64 norm
    may differ in its last bits from one taken over the dense `dim`-long
    row, but the float32 weights have matched the dense row's bit for bit on
    every corpus tried.
    """
    if dim < 2:
        raise ValueError("embedding dim must be >= 2")
    memo: dict[tuple[str, str], int] = {}
    buckets: list[int] = []
    lengths: list[int] = []
    for s in corpus:
        tokens = _sample_tokens(s)
        for pair in zip(tokens, tokens[1:]):
            b = memo.get(pair)
            if b is None:
                b = memo[pair] = _tfidf_bucket(*pair, seed, dim)
            buckets.append(b)
        lengths.append(max(len(tokens) - 1, 0))
    n = len(corpus)
    # one sort of row * dim + bucket lists each row's distinct buckets, ascending
    row = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keys, counts = np.unique(row * dim + np.array(buckets, dtype=np.int64), return_counts=True)
    row, bucket = np.divmod(keys, dim)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    df = np.bincount(bucket, minlength=dim).astype(np.float64)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    weight = np.empty(bucket.size, dtype=np.float32)
    for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        if hi > lo:
            w = counts[lo:hi] * idf[bucket[lo:hi]]
            weight[lo:hi] = w / np.sqrt(w @ w)
    return TfidfRows(indptr, bucket, weight)


def embed_hashed_tfidf(
    corpus: Corpus, dim: int = TFIDF_DIM, seed: int = TFIDF_SEED
) -> FeatureMatrix:
    """Hashed word-bigram TF-IDF embeddings, unit-normalized per row:
    `embed_stream(corpus, dim, seed).collect()`.

    Bigrams are taken over case-folded whitespace tokens of input + output.
    Samples with no bigram (fewer than two tokens) get the zero row.

    This is the dense n x dim float32 form of the sparse rows (about 27
    nonzeros per row), needed only where a dense matrix is the product; the
    metrics score a corpus from the sparse rows and never build it.
    """
    return embed_stream(corpus, dim, seed).collect()


def embed_stream(corpus: Corpus, dim: int = TFIDF_DIM, seed: int = TFIDF_SEED) -> FeatureStream:
    """`embed_hashed_tfidf`'s rows as a FeatureStream. The sparse rows are
    built whole, since the idf needs every row, and each dense block of
    about _EMBED_BLOCK_BYTES is scattered from them only when it is emitted,
    so a stored `.gvfm` never needs the n x dim matrix."""
    rows = _tfidf_rows(corpus, dim, seed)
    step = max(1, _EMBED_BLOCK_BYTES // (4 * dim))

    def blocks(emit: Callable[[np.ndarray], None]) -> None:
        for start in range(0, len(corpus), step):
            emit(rows.block(start, start + step).scatter(dim))

    return FeatureStream(corpus.ids(), dim, Provenance("embedding", fingerprint=0, seed=seed),
                         blocks)


def _tfidf_bucket(tok_a: str, tok_b: str, seed: int, dim: int) -> int:
    h = hashlib.blake2b(
        f"{tok_a}\x1f{tok_b}".encode("utf-8"),
        digest_size=8,
        key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"),
    )
    return int.from_bytes(h.digest(), "little") % dim
