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
from dataclasses import dataclass, field
from collections import Counter

import numpy as np

from .corpus import Corpus
from .featmat import FeatureMatrix
from .proxy import ProjectionSpec, ProxyModel, embed_hashed_tfidf, featurize, sample_nll

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
ROW_NORM_TOL = 1e-4


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


def _unit_row_matrix(features: FeatureMatrix, op: str) -> np.ndarray:
    if features.rows == 0:
        raise ValueError(f"{op}: empty feature matrix")
    mat = features.data.astype(np.float64)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{op}: non-finite feature data")
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ValueError(f"{op}: matrix contains degenerate zero rows; drop them first")
    if np.any(np.abs(norms - 1.0) > ROW_NORM_TOL):
        i = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"{op}: row {i} has norm {norms[i]:.6g}, expected 1")
    return mat


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


def vendi_score(features: FeatureMatrix) -> float:
    """Effective number of distinct directions among unit-norm rows.

    exp of the eigenvalue entropy of G G^T / n; computed on whichever Gram
    side is smaller (n x n or d x d share the same nonzero spectrum), so cost
    is O(min(n,d)^2 * max(n,d)) instead of O(n^3).
    """
    mat = _unit_row_matrix(features, "vendi_score")
    n, d = mat.shape
    gram = (mat @ mat.T if n <= d else mat.T @ mat) / n
    lam = np.linalg.eigvalsh(gram)
    return float(np.exp(effective_rank_entropy(lam)))


def drop_degenerate(features: FeatureMatrix) -> tuple[FeatureMatrix, int]:
    """The non-degenerate (nonzero) rows, and how many rows were dropped."""
    mask = features.degenerate_mask()
    dropped = int(mask.sum())
    if dropped == 0:
        return features, 0
    if dropped == features.rows:
        raise ValueError("all feature rows are degenerate (zero vectors)")
    return features.take(np.flatnonzero(~mask)), dropped


def report_from_features(metric: str, features: FeatureMatrix, params: dict) -> DiversityReport:
    """Score the non-degenerate rows; `embedding_dissim` is the mean pairwise
    dissimilarity, every other metric the Vendi score. The dropped-row count
    is added to params."""
    used, dropped = drop_degenerate(features)
    if metric == "embedding_dissim":
        value = embedding_dissimilarity(used)
    else:
        value = vendi_score(used)
    return DiversityReport(metric, value, used.rows, {**params, "degenerate_dropped": dropped})


def g_vendi(model: ProxyModel, proj: ProjectionSpec, corpus: Corpus) -> DiversityReport:
    """Gradient-space diversity: featurize then score.

    Degenerate (zero-gradient) rows are excluded from the score; their count
    is reported in params.
    """
    feats = featurize(model, proj, corpus)
    return report_from_features("g_vendi", feats, {"projection_dim": proj.target_dim})


def embedding_vendi(corpus: Corpus, dim: int = 32768, seed: int = 404) -> DiversityReport:
    """Same score over built-in hashed TF-IDF embeddings."""
    feats = embed_hashed_tfidf(corpus, dim=dim, seed=seed)
    return report_from_features("embedding_vendi", feats, {"dim": dim})


def embedding_dissimilarity(features: FeatureMatrix) -> float:
    """Mean (1 - cosine) over all unordered row pairs.

    Uses sum_{i<j} x_i . x_j = (||sum x||^2 - n) / 2, so runtime is O(n d)
    with no pairwise matrix.
    """
    mat = _unit_row_matrix(features, "embedding_dissimilarity")
    n = mat.shape[0]
    if n < 2:
        raise ValueError("embedding_dissimilarity needs at least 2 rows")
    total = mat.sum(axis=0)
    mean_cos = (float(total @ total) - n) / (n * (n - 1))
    return 1.0 - mean_cos


def _sample_tokens(sample) -> list[str]:
    return (sample.input + " " + sample.output).lower().split()


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
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"no {order}-grams: every sample has fewer than {order} tokens")
    p = np.array(list(counts.values()), dtype=np.float64) / total
    return float(-(p * np.log(p)).sum())


def tag_entropy(corpus: Corpus) -> float:
    """Shannon entropy (nats) of the tag distribution.

    Each (sample, tag) pair counts once, so repeating a tag inside one
    sample's list has no effect.
    """
    counts: Counter = Counter()
    for s in corpus:
        if s.tags:
            counts.update(set(s.tags))
    total = sum(counts.values())
    if total == 0:
        raise ValueError("tag_entropy: no sample carries tags")
    p = np.array(list(counts.values()), dtype=np.float64) / total
    return float(-(p * np.log(p)).sum())


def mean_nll(model: ProxyModel, corpus: Corpus) -> float:
    """Mean over samples of per-token negative log-likelihood under the proxy.

    Monotone equivalent of average perplexity without the exponential.
    """
    if len(corpus) == 0:
        raise ValueError("mean_nll: empty corpus")
    vals = []
    for s in corpus:
        nll, tokens = sample_nll(model, s)
        vals.append(nll / tokens)
    return float(np.mean(vals))
