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
from functools import lru_cache

import numpy as np

from .corpus import Corpus, Sample
from .featmat import FeatureMatrix, Provenance
from .rng import hash_words, mix64, rng_from, sign_block

_CTX_START = 0x02  # prepended so every context yields at least one bigram
_CTX_SEP = 0x1E  # record separator between input and output prefix

_PROJECT_BLOCK_ROWS = 8192


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

    Entries are a pure function of (seed, row, column); no matrix is stored.
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
    x = sample.input.encode("utf-8")
    y = sample.output.encode("utf-8")
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


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_gradient(model: ProxyModel, sample: Sample) -> np.ndarray:
    """Gradient of the sample's total negative log-likelihood w.r.t. weights.

    Summed over target tokens, flattened row-major to a vector of length
    vocab_size * feature_dim. Matches central finite differences of
    sample_nll to relative error <= 1e-4.
    """
    phi, targets = _context_features(model, sample)
    probs = _softmax_rows(phi @ model.weights.T)
    probs[np.arange(len(targets)), targets] -= 1.0
    grad = probs.T @ phi
    if not np.all(np.isfinite(grad)):
        raise ValueError(f"sample {sample.id!r}: non-finite gradient (corrupt weights?)")
    return grad.reshape(-1)


def sample_nll(model: ProxyModel, sample: Sample) -> tuple[float, int]:
    """Total negative log-likelihood of the output and its token count."""
    phi, targets = _context_features(model, sample)
    logits = phi @ model.weights.T
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].sum()), len(targets)


def project(spec: ProjectionSpec, vectors: np.ndarray) -> np.ndarray:
    """Apply the sign projection to vectors given as rows; linear, float64.

    Streams the sign matrix in row blocks so the full source_dim x target_dim
    matrix never exists in memory.
    """
    vecs = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vecs.shape[1] != spec.source_dim:
        raise ValueError(
            f"vector dimension {vecs.shape[1]} != projection source_dim {spec.source_dim}"
        )
    out = np.zeros((vecs.shape[0], spec.target_dim), dtype=np.float64)
    for start in range(0, spec.source_dim, _PROJECT_BLOCK_ROWS):
        stop = min(start + _PROJECT_BLOCK_ROWS, spec.source_dim)
        signs = sign_block(spec.seed, start, stop, spec.target_dim)
        out += vecs[:, start:stop] @ signs
    return out


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    mat /= np.where(norms == 0.0, 1.0, norms)[:, None]  # in place; zero rows stay zero
    return mat


def featurize(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus) -> FeatureMatrix:
    """Unit-norm projected loss gradients, one row per sample in corpus order.

    Zero-gradient samples map to the zero row (flagged degenerate) rather
    than being dropped, keeping row/id alignment intact.
    """
    if proj.source_dim != model.n_params:
        raise ValueError(
            f"projection source_dim {proj.source_dim} != model parameter count "
            f"{model.n_params}"
        )
    grads = np.zeros((len(corpus), model.n_params), dtype=np.float64)
    for i, sample in enumerate(corpus):
        try:
            g = loss_gradient(model, sample)
        except ValueError as e:
            raise ValueError(f"featurize failed on sample {sample.id!r}: {e}") from e
        norm = np.linalg.norm(g)
        if norm > 0.0:
            grads[i] = g / norm
    # a zero gradient row projects to exactly +0.0 and _unit_rows keeps it zero
    return FeatureMatrix(
        _unit_rows(project(proj, grads)).astype(np.float32),
        tuple(corpus.ids()),
        Provenance("proxy_gradient", fingerprint=model.fingerprint(), seed=proj.seed),
    )


def embed_hashed_tfidf(corpus: Corpus, dim: int = 32768, seed: int = 404) -> FeatureMatrix:
    """Hashed word-bigram TF-IDF embeddings, unit-normalized per row.

    Bigrams are taken over case-folded whitespace tokens of input + output.
    Samples with no bigram (fewer than two tokens) get the zero row.
    """
    if dim < 2:
        raise ValueError("embedding dim must be >= 2")
    bucket_lists: list[np.ndarray] = []
    df = np.zeros(dim, dtype=np.float64)
    for s in corpus:
        tokens = (s.input + " " + s.output).lower().split()
        buckets = np.array(
            [_tfidf_bucket(tokens[i], tokens[i + 1], seed, dim) for i in range(len(tokens) - 1)],
            dtype=np.int64,
        )
        bucket_lists.append(buckets)
        if buckets.size:
            df[np.unique(buckets)] += 1.0
    n = len(corpus)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    data = np.zeros((n, dim), dtype=np.float64)
    for i, buckets in enumerate(bucket_lists):
        if buckets.size:
            data[i] = np.bincount(buckets, minlength=dim) * idf
    return FeatureMatrix(
        _unit_rows(data).astype(np.float32),
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
