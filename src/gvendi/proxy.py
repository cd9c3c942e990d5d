"""Proxy-gradient featurization.

Each sample is represented by the loss gradient of a small fixed next-token
model: a linear softmax over hashed byte-bigram context features. The model
is deliberately tiny -- its job is not to predict well but to give every
sample a closed-form gradient direction that genuinely depends on the
input -> output mapping. Gradients are unit-normalized, sign-projected down
to a small dimension, and re-normalized, yielding the rows of a
FeatureMatrix.

A hashed word-bigram TF-IDF embedder is included as a built-in stand-in for
an external embedding model, so the embedding-based baseline metrics run
without any services. External feature providers can bypass this module
entirely by writing the binary FeatureMatrix format.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, Sample
from .featmat import FeatureMatrix, Provenance
from .rng import hash_words, mix64, rng_from, sign_block

_CTX_START = 0x02  # prepended so every context yields at least one bigram
_CTX_SEP = 0x1E  # record separator between input and output prefix

_PROJECT_BLOCK_ROWS = 8192
_CHUNK_ROWS = 128  # samples per featurize chunk; its logits outweigh its gradient rows

# embed_hashed_tfidf's defaults, shared by the metrics that score its rows
TFIDF_DIM = 32768
TFIDF_SEED = 404


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
    the spec, so every call on one spec shares one build.
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
        """The whole source_dim x target_dim sign matrix, float64 (128 MB at
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
    if t_steps > 1:
        grow = np.zeros((t_steps - 1, model.feature_dim), dtype=np.float64)
        grow[np.arange(t_steps - 1), buckets[base - 1 : base - 2 + t_steps]] = 1.0
        counts[1:] = counts[0] + np.cumsum(grow, axis=0)
    norms = np.linalg.norm(counts, axis=1)
    return counts / norms[:, None], targets


def _token_pass(model: ProxyModel, samples: Sequence[Sample], out: np.ndarray | None = None,
                unit: bool = False) -> list[tuple[float, int]]:
    """Each sample's total negative log-likelihood and token count, from one
    logits GEMM over every token of `samples`.

    Given `out`, each sample's gradient, (softmax - onehot)^T @ phi, also
    lands in its row of `out`; with `unit` each nonzero row is divided by
    its norm while it is still in cache. Errors name the first failing
    sample in order, even when a later one fails at an earlier stage.
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
        phi = np.concatenate([c[0] for c in contexts])
        tokens = (np.arange(len(phi)), np.concatenate([c[1] for c in contexts]))
        probs = phi @ model.weights.T
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
                row = out[i]
                np.matmul(probs[start:stop].T, phi[start:stop],
                          out=row.reshape(model.vocab_size, model.feature_dim))
                if not np.all(np.isfinite(row)):
                    raise ValueError(
                        f"sample {samples[i].id!r}: non-finite gradient (corrupt weights?)"
                    )
                if unit:
                    norm = np.linalg.norm(row)
                    if norm > 0.0:
                        row /= norm
            start = stop
    if pending is not None:
        raise pending
    return totals


def loss_gradient(model: ProxyModel, sample: Sample) -> np.ndarray:
    """Gradient of the sample's total negative log-likelihood w.r.t. weights.

    Summed over target tokens, flattened row-major to a vector of length
    vocab_size * feature_dim. Matches central finite differences of
    sample_nll to relative error <= 1e-4. The same kernel as `featurize`,
    run on one sample and left un-normalised.
    """
    out = np.empty((1, model.n_params), dtype=np.float64)
    _token_pass(model, (sample,), out)
    return out[0]


def sample_nll(model: ProxyModel, sample: Sample) -> tuple[float, int]:
    """Total negative log-likelihood of the output and its token count: the
    token pass of `loss_gradient`, run on one sample."""
    return _token_pass(model, (sample,))[0]


def project(spec: ProjectionSpec, vectors: np.ndarray) -> np.ndarray:
    """Apply the sign projection to vectors given as rows; linear, float64.

    Adds one product per _PROJECT_BLOCK_ROWS rows of `spec.signs`, in row
    order, to a zero-initialised result, so a zero row stays exactly +0.0.
    The spec builds its whole sign matrix on first use and keeps it, so
    `featurize`, which projects each chunk through here, shares the build.
    A row's result does not depend on the other rows passed with it, except
    that a single row takes the BLAS matrix-vector path, whose low bits can
    differ; that is why `featurize` never projects a 1-row chunk of a longer
    corpus.
    """
    vecs = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vecs.shape[1] != spec.source_dim:
        raise ValueError(
            f"vector dimension {vecs.shape[1]} != projection source_dim {spec.source_dim}"
        )
    out = np.zeros((vecs.shape[0], spec.target_dim), dtype=np.float64)
    for start in range(0, spec.source_dim, _PROJECT_BLOCK_ROWS):
        stop = start + _PROJECT_BLOCK_ROWS
        out += vecs[:, start:stop] @ spec.signs[start:stop]
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


def featurize(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus) -> FeatureMatrix:
    """Unit-norm projected loss gradients, one row per sample in corpus order.

    Zero-gradient samples map to the zero row (flagged degenerate) rather
    than being dropped, keeping row/id alignment intact.

    The corpus streams through in chunks of _CHUNK_ROWS samples (a 1-row
    tail joins the chunk before it): gradients for one chunk, normalised,
    projected and normalised again, land as float32 rows in the output. The
    sign matrix is `proj.signs` (source_dim x target_dim float64, 128 MB at
    the defaults), built on the first call with `proj` and kept by it; memory
    is flat in the corpus size apart from the output itself.
    """
    if proj.source_dim != model.n_params:
        raise ValueError(
            f"projection source_dim {proj.source_dim} != model parameter count "
            f"{model.n_params}"
        )
    bounds = _chunk_bounds(len(corpus))
    chunks = list(zip(bounds, bounds[1:]))
    grads = np.empty((max((b - a for a, b in chunks), default=0), model.n_params),
                     dtype=np.float64)
    out = np.empty((len(corpus), proj.target_dim), dtype=np.float32)
    for start, stop in chunks:
        rows = grads[: stop - start]
        _token_pass(model, corpus.samples[start:stop], rows, unit=True)
        # a zero gradient row projects to exactly +0.0 and stays zero
        projected = project(proj, rows)
        norms = np.linalg.norm(projected, axis=1)
        projected /= np.where(norms == 0.0, 1.0, norms)[:, None]
        out[start:stop] = projected
    return FeatureMatrix(
        out,
        tuple(corpus.ids()),
        Provenance("proxy_gradient", fingerprint=model.fingerprint(), seed=proj.seed),
    )


class TfidfRows(NamedTuple):
    """Hashed TF-IDF rows in CSR (compressed sparse row) form.

    Row i's nonzeros sit at columns bucket[indptr[i]:indptr[i + 1]], in
    ascending order, with float32 values weight[indptr[i]:indptr[i + 1]]; a
    row with no entries is the zero row.
    """

    indptr: np.ndarray  # (n + 1,) int64
    bucket: np.ndarray  # (nnz,) int64
    weight: np.ndarray  # (nnz,) float32

    def scatter(self, columns: np.ndarray, dtype) -> np.ndarray:
        """The rows as a dense matrix over the sorted `columns`, which must
        hold every bucket."""
        n = len(self.indptr) - 1
        out = np.zeros((n, len(columns)), dtype=dtype)
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        out[rows, np.searchsorted(columns, self.bucket)] = self.weight
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
    cols: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    for s in corpus:
        tokens = _sample_tokens(s)
        buckets = []
        for pair in zip(tokens, tokens[1:]):
            b = memo.get(pair)
            if b is None:
                b = memo[pair] = _tfidf_bucket(*pair, seed, dim)
            buckets.append(b)
        c, k = np.unique(np.array(buckets, dtype=np.int64), return_counts=True)
        cols.append(c)
        counts.append(k)
    n = len(corpus)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([c.size for c in cols], dtype=np.int64)
    bucket = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    df = np.bincount(bucket, minlength=dim).astype(np.float64)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    weight = np.empty(bucket.size, dtype=np.float32)
    for i, (c, k) in enumerate(zip(cols, counts)):
        if c.size:
            w = k * idf[c]
            weight[indptr[i] : indptr[i + 1]] = w / np.sqrt(w @ w)
    return TfidfRows(indptr, bucket, weight)


def embed_hashed_tfidf(
    corpus: Corpus, dim: int = TFIDF_DIM, seed: int = TFIDF_SEED
) -> FeatureMatrix:
    """Hashed word-bigram TF-IDF embeddings, unit-normalized per row.

    Bigrams are taken over case-folded whitespace tokens of input + output.
    Samples with no bigram (fewer than two tokens) get the zero row.

    This is the dense n x dim float32 form of the sparse rows (about 27
    nonzeros per row), needed only where a dense matrix is the product, as
    in a stored `.gvfm`; the metrics score a corpus from the sparse rows and
    never build it.
    """
    rows = _tfidf_rows(corpus, dim, seed)
    return FeatureMatrix(
        rows.scatter(np.arange(dim), np.float32),
        tuple(corpus.ids()),
        Provenance("embedding", fingerprint=0, seed=seed),
    )


def _tfidf_bucket(tok_a: str, tok_b: str, seed: int, dim: int) -> int:
    h = hashlib.blake2b(
        f"{tok_a}\x1f{tok_b}".encode("utf-8"),
        digest_size=8,
        key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"),
    )
    return int.from_bytes(h.digest(), "little") % dim
