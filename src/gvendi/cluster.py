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

from .blas import one_thread
from .featmat import FeatureMatrix
from .rng import mix64, rng_from


@dataclass(frozen=True)
class ClusterModel:
    centroids: np.ndarray  # (k, d) float64
    assignment: np.ndarray  # (n,) int64
    seed: int
    inertia: float

    def __post_init__(self) -> None:
        c = np.asarray(self.centroids, dtype=np.float64)
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= len(c)):
            raise ValueError("assignment index out of range")
        for arr in (c, a):
            arr.flags.writeable = False
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "assignment", a)

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def sizes(self) -> np.ndarray:
        """Member count of each cluster, (k,) int64."""
        return np.bincount(self.assignment, minlength=self.k)

    def nearest_centroid(self, rows: np.ndarray) -> np.ndarray:
        """Index of the closest centroid for each given row."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return _assign(rows, _sq_norms(rows), self.centroids)[0]

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


_BLOCK_BYTES = 1 << 20  # float64 bytes per row block of a direct-difference pass


def _direct_sqdist(rows: np.ndarray, points: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
    """(m, n) squared distances from each of m points to every row, exact.

    Takes the differences a block of about _BLOCK_BYTES of rows at a time in
    one reused buffer and sums each row along axis 1. A row's pairwise sum
    does not depend on the block it sits in, so row j of the result equals
    ((rows - points[j]) ** 2).sum(axis=1) bit for bit, without its n x d
    temporary. Given idx, the result is (m, len(idx)) for rows[idx] alone,
    gathered a block at a time into a second reused buffer.
    """
    n, dim = rows.shape if idx is None else (idx.size, rows.shape[1])
    out = np.empty((points.shape[0], n))
    step = max(1, _BLOCK_BYTES // (8 * max(dim, 1)))
    buf = np.empty((min(step, n), dim))
    gathered = None if idx is None else np.empty_like(buf)
    for start in range(0, n, step):
        if idx is None:
            block = rows[start : start + step]
        else:
            # idx is in range; mode "clip" writes straight to out, "raise" buffers
            block = np.take(rows, idx[start : start + step], axis=0,
                            out=gathered[: min(step, n - start)], mode="clip")
        diff = buf[: block.shape[0]]
        for j, point in enumerate(points):
            np.subtract(block, point, out=diff)
            np.square(diff, out=diff)
            diff.sum(axis=1, out=out[j, start : start + step])
    return out


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """||x||^2 per row, as (rows * rows).sum(axis=1) but blocked: x - 0 is x."""
    return _direct_sqdist(rows, np.zeros((1, rows.shape[1])))[0]


def _sqdist(rows: np.ndarray, sq: np.ndarray, centers: np.ndarray, csq=None) -> np.ndarray:
    """(n, m) squared distances ||x||^2 - 2 x.c + ||c||^2; sq holds ||x||^2
    and csq, if given, ||c||^2.

    Takes the product as centers @ rows.T and returns the transposed view of
    that (m, n) array: at 2 OpenBLAS threads, five 3000 x 1024 by 20 products
    grew process RSS by 2.2 MB this way and by 10.0 MB as rows @ centers.T,
    and ran faster. Doubling the product rather than the rows is exact, so at
    one thread count this is bit-equal to (2 * rows) @ centers.T on OpenBLAS's
    SkylakeX kernels whenever n is a multiple of 8 or m < 12. Otherwise the
    last n mod 8 rows may differ in the last bit, and with the thread count.
    """
    d2 = centers @ rows.T
    d2 *= -2.0
    d2 += sq[None, :]
    d2 += (_sq_norms(centers) if csq is None else csq)[:, None]
    return d2.T


def _assign(
    rows: np.ndarray, sq: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row and the squared distance to it.

    The distances become labels and inertia, so their product runs on one
    BLAS thread: its bits then do not depend on the thread count. argmin
    copies an input that is not C-contiguous, as the (n, k) view of the
    k x n product is not, so the labels are taken a block of rows at a time.
    """
    with one_thread():
        d2 = _sqdist(rows, sq, centroids)
    n = rows.shape[0]
    labels = np.empty(n, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * d2.shape[1]))
    for start in range(0, n, step):
        # on the unclamped distances, so ties at 0 keep their order
        np.argmin(d2[start : start + step], axis=1, out=labels[start : start + step])
    best = np.maximum(d2[np.arange(n), labels], 0.0)
    return labels, best


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


def _shrink(rows, sq, d2, points, prod) -> np.ndarray:
    """np.minimum(d2, _direct_sqdist(rows, points)) bit for bit, given prod, the
    (n, m) _sqdist distances to the points: a row whose product distance
    exceeds its d2 by more than tol keeps d2; only the others are measured."""
    # tol is four times the worst gap between a product and a direct distance.
    # With u = eps/2 and norms at most top, ||x||^2 and ||c||^2 are off by at
    # most dim*u*top each and 2 x.c by twice that; two additions of terms up
    # to 4*top add 8*u*top: 4*(dim+2)*u*top in all. A direct sum of dim
    # squared differences (up to 4*top in all) is off by (dim+2)*u*4*top.
    tol = 16 * (rows.shape[1] + 2) * np.finfo(np.float64).eps * float(sq.max())
    idx = np.flatnonzero((prod <= (d2 + tol)[:, None]).any(axis=1))
    cols = np.tile(d2, (points.shape[0], 1))
    cols[:, idx] = np.minimum(d2[idx], _direct_sqdist(rows, points, idx))
    return cols


def _kmeanspp(
    rows: np.ndarray, sq: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> list[np.ndarray]:
    """D^2-weighted seeding with greedy local trials per step: one (k, d)
    centre set per generator, seeded in lockstep.

    Each seeding draws from its own generator in the order a lone seeding
    would, so its centres are the ones a one-generator call returns. A step
    scores every seeding's trials in one n x (seedings * trials) _sqdist
    product, so the rows are streamed once per step, not once per seeding.
    The product is only a filter: each seeding re-scores its trials within
    its rounding bound of its best from direct differences, so exact ties
    keep the first trial. Its running distance d2 is the winner's direct
    column, exact (duplicates of a chosen row sit at 0 and draw no mass),
    though only the rows the product cannot rule out are measured (_shrink),
    a block at a time: no step allocates n x d.
    """
    n, dim = rows.shape
    trials = 2 + int(math.log(k)) if k > 1 else 1
    # twice the worst-case gap between a product-scored and a direct potential
    slack = 16 * n * (n + dim + 2) * np.finfo(np.float64).eps * float(sq.max())
    chosen = np.empty((len(rngs), k), dtype=np.int64)
    chosen[:, 0] = [rng.integers(0, n) for rng in rngs]
    d2 = _direct_sqdist(rows, rows[chosen[:, 0]])  # row r: seeding r's running distance
    for i in range(1, k):
        drawn = []  # (seeding, its trials) for each seeding with mass left
        for r, rng in enumerate(rngs):
            total = d2[r].sum()
            if total <= 0.0:
                # all remaining mass on duplicates of existing centroids
                pool = np.setdiff1d(np.arange(n), chosen[r, :i])
                chosen[r, i] = rng.choice(pool) if pool.size else chosen[r, 0]
            else:
                drawn.append((r, rng.choice(n, size=trials, p=d2[r] / total)))
        if not drawn:
            continue
        candidates = np.concatenate([c for _, c in drawn])
        prod = _sqdist(rows, sq, rows[candidates], sq[candidates])
        for j, (r, cand) in enumerate(drawn):
            mine = prod[:, j * trials : (j + 1) * trials]
            pots = np.minimum(d2[r][:, None], mine).sum(axis=0)
            close = pots <= pots.min() + slack
            near = cand[close]
            cols = _shrink(rows, sq, d2[r], rows[near], mine[:, close])
            best = int(np.argmin(cols.sum(axis=1)))
            chosen[r, i], d2[r] = near[best], cols[best]
    return [rows[c] for c in chosen]


def _update_centroids(rows, labels, counts, centroids) -> None:
    """Set each centroid to the mean of its rows, given each row's label and
    each label's (nonzero) count. One stable sort of the labels lists each
    cluster's rows in row order, as rows[labels == c] would, so every mean
    keeps its bits without k boolean scans of the rows."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(counts)
    for c, (start, end) in enumerate(zip(ends - counts, ends)):
        centroids[c] = rows[order[start:end]].mean(axis=0)


_MAX_ITERS = 100  # Lloyd steps before the final assignment
_TOL = 1e-6  # relative inertia improvement that counts as converged


def kmeans_fit(features: FeatureMatrix, k: int, seed: int, n_init: int = 1) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding; deterministic per seed.

    Stops when an assignment improves inertia by at most a relative 1e-6, or
    assigns one last time after 100 centroid updates, or else when an
    assignment repeats the labels the centroids were built from and empties
    no cluster: an update would rebuild the same centroids bit for bit and
    one more pass would return the same labels and inertia, so the model is
    the one the inertia test would stop at a step later. Clusters emptied by
    an assignment step are refilled with the point farthest from its own
    centroid, so exactly k clusters survive. With n_init > 1, the best of
    n_init seeded runs (lowest inertia, ties to the earliest run) is returned.
    Row norms are computed once per fit. The n_init seedings run in
    lockstep: each k-means++ step costs one (n_init * trials) x n product
    that serves every seeding, plus direct differences on the rows that
    product cannot rule out, and keeps each running distance exact; Lloyd
    then runs per seeding, its products on one BLAS thread (_assign). Apart
    from its float64 copy of the rows, a fit allocates no n x d array:
    direct differences and row norms go a block of rows at a time, products
    are k x n (centres x rows, _sqdist), and a centroid update sorts the
    labels once and gathers one cluster's rows at a time.
    """
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > features.rows:
        raise ValueError(f"k={k} exceeds number of rows {features.rows}")
    rows = features.data.astype(np.float64)
    sq = _sq_norms(rows)  # shared by every seeding and assignment below
    seeds = [seed] if n_init == 1 else [mix64(seed, 0xC17, trial) for trial in range(n_init)]
    best: ClusterModel | None = None
    for centroids in _kmeanspp(rows, sq, k, [rng_from(s, 0xC15) for s in seeds]):
        prev, last = math.inf, None
        for step in range(_MAX_ITERS + 1):
            labels, d2 = _assign(rows, sq, centroids)
            counts = np.bincount(labels, minlength=k)
            # the labels the centroids were built from; they leave no cluster
            # empty, so labels equal to them need no repair
            settled = np.array_equal(labels, last)
            _repair_empty(rows, centroids, labels, d2, counts)
            inertia = float(d2.sum())
            if inertia > prev + 1e-9 * max(prev, 1.0):
                raise AssertionError(f"inertia increased: {prev} -> {inertia}")
            if step == _MAX_ITERS or (
                prev - inertia <= _TOL * max(prev, 1e-300) and math.isfinite(prev)
            ):
                break
            if settled:  # an update would rebuild these centroids bit for bit
                break
            prev, last = inertia, labels
            _update_centroids(rows, labels, counts, centroids)
        if best is None or inertia < best.inertia:
            best = ClusterModel(centroids=centroids, assignment=labels, seed=seed, inertia=inertia)
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
