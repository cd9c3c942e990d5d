"""Dataset diversity measures.

The headline metric is the exponentiated eigenvalue entropy of the normalized
Gram matrix of unit-norm sample vectors -- an "effective number of distinct
directions" in [1, n]. Applied to projected loss gradients it is exposed as
g_vendi; applied to embeddings, as embedding_vendi. The remaining functions
are the baseline measures: mean pairwise dissimilarity, word n-gram entropy,
tag entropy, and mean per-token negative log-likelihood under the proxy.

All metrics are pure functions of their inputs and permutation invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from collections import Counter

import numpy as np

from .blas import eigvalsh_in_place, one_thread
from .corpus import Corpus
from .featmat import FeatureMatrix
from .proxy import (
    TFIDF_DIM,
    TFIDF_SEED,
    ProjectionSpec,
    ProxyModel,
    TfidfRows,
    _sample_tokens,
    _tfidf_rows,
    featurize,
    sample_nll,
)

METRICS = (
    "g_vendi",
    "embedding_vendi",
    "embedding_dissim",
    "ngram_entropy",
    "tag_entropy",
    "mean_nll",
)

EIG_ZERO_TOL = 1e-12  # eigenvalues below this contribute 0 via 0*ln(0) = 0
EIG_NEG_TOL = -1e-9  # more negative than this signals a broken matrix


@dataclass(frozen=True)
class DiversityReport:
    metric: str
    value: float
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"metric": self.metric, "value": self.value, "n": self.n, "params": self.params},
            sort_keys=True,
        )


def _counted_rows(n: int, zero: np.ndarray, op: str) -> int:
    """How many of n rows a score counts: the nonzero ones, of which there
    must be at least one. A zero row has no direction, so it is left out."""
    if n == 0:
        raise ValueError(f"{op}: empty feature matrix")
    counted = n - int(zero.sum())
    if counted == 0:
        raise ValueError("all feature rows are degenerate (zero vectors)")
    return counted


def effective_rank_entropy(eigenvalues: np.ndarray) -> float:
    """Shannon entropy (nats) of an eigenvalue distribution.

    Eigenvalues are renormalized to unit mass first; for exact unit rows the
    trace is already 1 and this is a no-op, but float32 row storage perturbs
    norms at the 1e-7 level and the entropy of {1 + eps} must not leak into
    the score.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.min() < EIG_NEG_TOL:
        raise ValueError(f"eigenvalue {lam.min():.3e} below tolerance; matrix not PSD")
    lam = np.clip(lam, 0.0, None)
    lam = lam[lam > EIG_ZERO_TOL]
    lam = lam / lam.sum()
    lam = lam[lam > EIG_ZERO_TOL]
    return float(-(lam * np.log(lam)).sum())


def _eigvalsh(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, read from its lower triangle and
    computed on one BLAS thread. It consumes the matrix: with numpy's bundled
    OpenBLAS, LAPACK computes them in the matrix's own buffer
    (`eigvalsh_in_place`), so a spectrum holds one Gram, not two. Other BLAS
    builds keep `np.linalg.eigvalsh` and its copy.

    LAPACK's tridiagonal reduction makes one small threaded BLAS call per
    column; on a loaded host each call waits for a descheduled worker (a
    512 x 512 spectrum took 2.6 s instead of 0.04 s on 2 vCPUs beside two
    busy processes). One thread also keeps the bits independent of the
    thread count, which `one_thread` restores afterwards.
    """
    with one_thread():
        lam = eigvalsh_in_place(gram)
        return np.linalg.eigvalsh(gram) if lam is None else lam


def _gram(mat: np.ndarray) -> np.ndarray:
    """G G^T / n of n float64 unit rows of d columns, on the smaller side:
    n x n when n <= d, else d x d. Both share the nonzero spectrum, so cost
    is O(min(n,d)^2 * max(n,d)) instead of O(n^3). The product runs on one
    BLAS thread, like the spectrum, so its bits do not depend on the thread
    count. The division is in place, which gives the bits of `/ n` without a
    second Gram-sized array.
    """
    n, d = mat.shape
    with one_thread():
        gram = mat @ mat.T if n <= d else mat.T @ mat
    gram /= n
    return gram


def _gram_vendi(gram: np.ndarray) -> float:
    """Vendi score from a `_gram`: exp of its eigenvalue entropy. It consumes
    the Gram, whose buffer the spectrum overwrites (`_eigvalsh`)."""
    return float(np.exp(effective_rank_entropy(_eigvalsh(gram))))


_PAIR_BLOCK = 1 << 15  # products per block of a `_sparse_gram` pass


def _sparse_gram(rows: TfidfRows) -> np.ndarray:
    """`_gram` of nonzero CSR rows over the u buckets they use, from their
    nonzeros alone: the n x u matrix is never built.

    The n x n side (n <= u) groups the nonzeros by bucket, rows ascending
    within one, and bucket b's c_b rows give its c_b^2 products: sum_b c_b^2
    in all. The u x u side takes each row's nnz^2 products: n * nnz^2 in all.
    Products of float32 weights are exact in float64, and each entry adds
    its products from 0 in bucket (or row) order, as a dense product walks
    its inner dimension. There is no BLAS, so the bits do not depend on the
    thread count. The products go _PAIR_BLOCK at a time, so the pass holds
    the min(n, u)^2 Gram, a few arrays of nnz and a fixed buffer. A Gram
    that cannot be allocated is a MemoryError naming its size.
    """
    n = len(rows.indptr) - 1
    buckets, col = np.unique(rows.bucket, return_inverse=True)
    u = buckets.size
    if n <= u:
        order = np.argsort(col, kind="stable")
        key = np.repeat(np.arange(n), np.diff(rows.indptr))[order]  # each nonzero's row
        weight = rows.weight[order].astype(np.float64)
        sizes = np.bincount(col, minlength=u)
    else:
        key, weight, sizes = col, rows.weight.astype(np.float64), np.diff(rows.indptr)
    m = min(n, u)
    try:
        gram = np.zeros((m, m))
    except MemoryError:
        raise MemoryError(
            f"the embedding Gram needs min(n, u)^2 x 8 B = {m}^2 x 8 B = {m * m * 8} B "
            f"for n={n} rows over u={u} buckets; a smaller --embed-dim bounds u"
        ) from None
    flat = gram.reshape(-1)
    starts = np.cumsum(sizes) - sizes
    pairs = sizes.astype(np.int64) ** 2
    ends = np.cumsum(pairs)
    total = int(ends[-1])
    for lo in range(0, total, _PAIR_BLOCK):
        p = np.arange(lo, min(lo + _PAIR_BLOCK, total))
        g = np.searchsorted(ends, p, side="right")  # the group of each product
        first, second = np.divmod(p - (ends[g] - pairs[g]), sizes[g])
        first += starts[g]
        second += starts[g]
        np.add.at(flat, key[first] * m + key[second], weight[first] * weight[second])
    gram /= n
    return gram


def _csr(data: np.ndarray) -> TfidfRows:
    """The nonzero rows of a dense matrix in CSR form."""
    row, column = np.nonzero(data)
    counts = np.bincount(row, minlength=data.shape[0])
    indptr = np.r_[0, np.cumsum(counts[counts > 0])]
    return TfidfRows(indptr, column.astype(np.int64), data[row, column])


def _features_gram(features: FeatureMatrix) -> np.ndarray:
    """The `_gram` that `vendi_score` scores.

    Embedding rows (TF-IDF, mostly zero) take `_sparse_gram`, as a corpus's
    embedding-vendi does, so a stored embedding `.gvfm` scores as its corpus
    does by construction. Other rows take the BLAS Gram over every column.
    """
    zero = features.degenerate_mask()
    data = features.data
    counted = _counted_rows(features.rows, zero, "vendi_score")
    if features.provenance.featurizer == "embedding":
        return _sparse_gram(_csr(data))
    if counted < features.rows:
        data = data[~zero]
    return _gram(data.astype(np.float64))


def vendi_score(features: FeatureMatrix) -> float:
    """Effective number of distinct directions among the nonzero rows."""
    return _gram_vendi(_features_gram(features))


def report_from_features(metric: str, features: FeatureMatrix, params: dict) -> DiversityReport:
    """`embedding_dissim` is the mean pairwise dissimilarity, every other
    metric the Vendi score; either counts the nonzero rows only, and the
    zero-row count is added to params."""
    score = embedding_dissimilarity if metric == "embedding_dissim" else vendi_score
    value = score(features)
    dropped = int(features.degenerate_mask().sum())
    return DiversityReport(
        metric, value, features.rows - dropped, {**params, "degenerate_dropped": dropped}
    )


def g_vendi(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus) -> DiversityReport:
    """Gradient-space diversity: featurize then score.

    Degenerate (zero-gradient) rows are excluded from the score; their count
    is reported in params.
    """
    feats = featurize(model, replace(proj), corpus)  # own copy: signs freed before scoring
    return report_from_features("g_vendi", feats, {"projection_dim": proj.target_dim})


def report_from_tfidf(
    metric: str, corpus: Corpus, params: dict, dim: int = TFIDF_DIM, seed: int = TFIDF_SEED
) -> DiversityReport:
    """`report_from_features(metric, embed_hashed_tfidf(corpus, dim, seed),
    params)`, bit for bit, from the sparse TF-IDF rows: the n x dim matrix is
    never built.

    Vendi takes `_sparse_gram` of the nonzero rows, as `vendi_score` does for
    embedding rows; `embedding_dissim` sums each column in row order, as the
    dense sum does.
    """
    rows = _tfidf_rows(corpus, dim, seed)
    n = len(corpus)
    zero = np.diff(rows.indptr) == 0
    op = "embedding_dissimilarity" if metric == "embedding_dissim" else "vendi_score"
    used = _counted_rows(n, zero, op)
    if metric == "embedding_dissim":
        total = np.bincount(rows.bucket, weights=rows.weight, minlength=dim)
        value = _mean_dissimilarity(total, used)
    else:
        kept = TfidfRows(np.r_[0, rows.indptr[1:][~zero]], rows.bucket, rows.weight)
        value = _gram_vendi(_sparse_gram(kept))
    return DiversityReport(metric, value, used, {**params, "degenerate_dropped": n - used})


def embedding_vendi(
    corpus: Corpus, dim: int = TFIDF_DIM, seed: int = TFIDF_SEED
) -> DiversityReport:
    """Same score over built-in hashed TF-IDF embeddings, from their sparse rows."""
    return report_from_tfidf("embedding_vendi", corpus, {"dim": dim}, dim, seed)


def embedding_dissimilarity(features: FeatureMatrix) -> float:
    """Mean (1 - cosine) over all unordered pairs of nonzero rows.

    Uses sum_{i<j} x_i . x_j = (||sum x||^2 - n) / 2, so runtime is O(n d)
    with no pairwise matrix. Zero rows add exactly nothing to the float64
    column sums, so every row is summed.
    """
    n = _counted_rows(features.rows, features.degenerate_mask(), "embedding_dissimilarity")
    return _mean_dissimilarity(features.data.sum(axis=0, dtype=np.float64), n)


def _mean_dissimilarity(total: np.ndarray, n: int) -> float:
    """Mean (1 - cosine) of n unit rows from their float64 column sums."""
    if n < 2:
        raise ValueError("embedding_dissimilarity needs at least 2 rows")
    mean_cos = (float(total @ total) - n) / (n * (n - 1))
    return 1.0 - mean_cos


def ngram_entropy(corpus: Corpus, order: int = 2) -> float:
    """Shannon entropy (nats) of word n-grams pooled over the corpus.

    Whitespace tokens, case-folded; n-grams never cross sample boundaries.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if len(corpus) == 0:
        raise ValueError("ngram_entropy: empty corpus")
    counts: Counter = Counter()
    for s in corpus:
        toks = _sample_tokens(s)
        counts.update(tuple(toks[i : i + order]) for i in range(len(toks) - order + 1))
    return _count_entropy(counts, f"no {order}-grams: every sample has fewer than {order} tokens")


def tag_entropy(corpus: Corpus) -> float:
    """Shannon entropy (nats) of the tag distribution.

    Each (sample, tag) pair counts once, so repeating a tag inside one
    sample's list has no effect.
    """
    counts: Counter = Counter()
    for s in corpus:
        if s.tags:
            counts.update(set(s.tags))
    return _count_entropy(counts, "tag_entropy: no sample carries tags")


def _count_entropy(counts: Counter, empty: str) -> float:
    """Shannon entropy (nats) of `counts`; ValueError(empty) if they total 0."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError(empty)
    p = np.array(list(counts.values()), dtype=np.float64) / total
    return float(-(p * np.log(p)).sum())


def mean_nll(model: ProxyModel, corpus: Corpus) -> float:
    """Mean over samples of per-token negative log-likelihood under the proxy.

    Monotone equivalent of average perplexity without the exponential.
    """
    if len(corpus) == 0:
        raise ValueError("mean_nll: empty corpus")
    totals = [sample_nll(model, s) for s in corpus]
    return float(np.mean([nll / tokens for nll, tokens in totals]))
