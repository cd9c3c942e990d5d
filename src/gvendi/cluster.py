"""K-means over feature rows and sparse-cluster identification.

Rows are unit-norm (or zero), so Euclidean distance orders pairs the same way
cosine similarity does; plain Lloyd iterations with k-means++ seeding are
enough. Sparse clusters -- the smallest few by member count -- mark the
underrepresented regions that the synthesis loop targets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .featmat import FeatureMatrix
from .rng import mix64, rng_from


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, d) float64
    assignment: np.ndarray  # (n,) int64
    sizes: np.ndarray  # (k,) int64
    seed: int
    inertia: float

    def __post_init__(self) -> None:
        c = np.asarray(self.centroids, dtype=np.float64)
        a = np.asarray(self.assignment, dtype=np.int64)
        s = np.asarray(self.sizes, dtype=np.int64)
        if c.shape[0] != self.k or s.shape[0] != self.k:
            raise ValueError("centroids/sizes length must equal k")
        if a.size and (a.min() < 0 or a.max() >= self.k):
            raise ValueError("assignment index out of range")
        if int(s.sum()) != a.size or np.any(np.bincount(a, minlength=self.k) != s):
            raise ValueError("sizes inconsistent with assignment")
        for arr in (c, a, s):
            arr.flags.writeable = False
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "sizes", s)

    def nearest_centroid(self, rows: np.ndarray) -> np.ndarray:
        """Index of the closest centroid for each given row."""
        return _assign(np.atleast_2d(np.asarray(rows, dtype=np.float64)), self.centroids)[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "seed": self.seed,
                "inertia": self.inertia,
                "sizes": self.sizes.tolist(),
                "assignment": self.assignment.tolist(),
                "centroids": self.centroids.tolist(),
            },
            sort_keys=True,
        )


def _assign(rows: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row and the squared distance to it."""
    d2 = (
        (rows * rows).sum(axis=1)[:, None]
        - 2.0 * rows @ centroids.T
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    labels = np.argmin(d2, axis=1)
    best = np.maximum(d2[np.arange(rows.shape[0]), labels], 0.0)
    return labels.astype(np.int64), best


def _repair_empty(rows, centroids, labels, d2, counts) -> None:
    """Refill empty clusters with far points, never draining a singleton."""
    while True:
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return
        empty = int(empties[0])
        donors = np.flatnonzero(counts[labels] >= 2)
        donor = int(donors[np.argmax(d2[donors])])
        counts[labels[donor]] -= 1
        labels[donor] = empty
        counts[empty] = 1
        centroids[empty] = rows[donor]
        d2[donor] = 0.0


def _kmeanspp(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding with greedy local trials per step."""
    n = rows.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = ((rows - rows[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass on duplicates of existing centroids
            pool = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i] = rng.choice(pool) if pool.size else chosen[0]
            continue
        candidates = rng.choice(n, size=trials, p=d2 / total)
        best_cand, best_d2, best_pot = -1, d2, math.inf
        for cand in candidates:
            cand_d2 = np.minimum(d2, ((rows - rows[int(cand)]) ** 2).sum(axis=1))
            pot = float(cand_d2.sum())
            if pot < best_pot:
                best_cand, best_d2, best_pot = int(cand), cand_d2, pot
        chosen[i] = best_cand
        d2 = best_d2
    return rows[chosen].copy()


_MAX_ITERS = 100  # Lloyd steps before the final assignment
_TOL = 1e-6  # relative inertia improvement that counts as converged


def kmeans_fit(features: FeatureMatrix, k: int, seed: int, n_init: int = 1) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding; deterministic per seed.

    Stops when an assignment improves inertia by at most a relative 1e-6, or
    assigns one last time after 100 centroid updates. Clusters emptied by an
    assignment step are refilled with the point farthest from its own
    centroid, so exactly k clusters survive. With n_init > 1, the best of
    n_init seeded runs (lowest inertia, ties to the earliest run) is returned.
    """
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > features.rows:
        raise ValueError(f"k={k} exceeds number of rows {features.rows}")
    rows = features.data.astype(np.float64)
    best: ClusterModel | None = None
    for trial in range(n_init):
        init_seed = seed if n_init == 1 else mix64(seed, 0xC17, trial)
        centroids = _kmeanspp(rows, k, rng_from(init_seed, 0xC15))
        prev = math.inf
        for step in range(_MAX_ITERS + 1):
            labels, d2 = _assign(rows, centroids)
            counts = np.bincount(labels, minlength=k)
            _repair_empty(rows, centroids, labels, d2, counts)
            inertia = float(d2.sum())
            if inertia > prev + 1e-9 * max(prev, 1.0):
                raise AssertionError(f"inertia increased: {prev} -> {inertia}")
            if step == _MAX_ITERS or (
                prev - inertia <= _TOL * max(prev, 1e-300) and math.isfinite(prev)
            ):
                break
            prev = inertia
            for c in range(k):
                centroids[c] = rows[labels == c].mean(axis=0)
        if best is None or inertia < best.inertia:
            best = ClusterModel(
                k=k,
                centroids=centroids,
                assignment=labels,
                sizes=np.bincount(labels, minlength=k),
                seed=seed,
                inertia=inertia,
            )
    return best


def dynamic_k(pool_size: int, fraction: float = 0.01) -> int:
    """Cluster count as a fraction of pool size, round-half-up, at least 1."""
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    return max(1, int(math.floor(pool_size * fraction + 0.5)))


def sparse_clusters(
    model: ClusterModel,
    fraction: float | None = None,
    count: int | None = None,
) -> set[int]:
    """Indices of the s smallest clusters; ties broken by lower index.

    Pass either fraction (s = ceil(fraction * k)) or an explicit count
    (clamped to [1, k]). The half-k rule used by the synthesis loop is
    count = k // 2.
    """
    if (fraction is None) == (count is None):
        raise ValueError("pass exactly one of fraction or count")
    if fraction is not None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        s = math.ceil(fraction * model.k)
    else:
        s = count
    s = max(1, min(model.k, int(s)))
    order = np.lexsort((np.arange(model.k), model.sizes))
    return set(int(c) for c in order[:s])
