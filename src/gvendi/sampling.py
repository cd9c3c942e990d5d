"""Subset construction strategies spanning a diversity spectrum.

Four strategies over a feature matrix: plain random draws, cluster-balanced
draws that up-sample sparse regions (higher diversity), similarity-chained
growth from a small seed (lower diversity), and mixtures of existing
selections. None of them searches for a global optimum; each is deliberately
stochastic so repeated runs with different seeds cover distinct subsets at a
similar diversity level.

Selections are sorted lists of row indices, unique and deterministic per
seed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .blas import one_thread
from .cluster import kmeans_fit
from .featmat import FeatureMatrix
from .rng import rng_from


def _check_target(n_target: int, n: int) -> None:
    if n_target < 0:
        raise ValueError("target size must be >= 0")
    if n_target > n:
        raise ValueError(f"target size {n_target} exceeds pool size {n}")


def sample_random(features: FeatureMatrix, n_target: int, rng_seed: int) -> list[int]:
    """Uniform draw without replacement."""
    _check_target(n_target, features.rows)
    rng = rng_from(rng_seed, 0x5A1)
    picked = rng.choice(features.rows, size=n_target, replace=False)
    return sorted(int(i) for i in picked)


def sample_higher_diversity(
    features: FeatureMatrix,
    k: int,
    n_target: int,
    rng_seed: int,
) -> list[int]:
    """Cluster-balanced sampling that up-samples sparse clusters.

    Clusters the pool with k-means, then draws ceil(n_target / k) of each
    cluster's not-yet-selected members (or all that remain), visiting
    clusters in a fresh random order per cycle until the target is reached.
    Every cluster contributes the same quota regardless of its population, so
    sparse regions are overrepresented relative to a uniform draw. Cluster
    picks are balanced rather than i.i.d.: independent uniform picks would
    leave ~1/e of the clusters untouched and defeat the purpose. The final
    overshoot is truncated uniformly.
    """
    _check_target(n_target, features.rows)
    model = kmeans_fit(features, k, seed=rng_seed, n_init=4)
    rng = rng_from(rng_seed, 0x5A2)
    per_draw = math.ceil(n_target / k)
    selected: list[int] = []
    remaining = [set(np.flatnonzero(model.assignment == c)) for c in range(k)]
    while len(selected) < n_target:
        for c in rng.permutation(k):
            if len(selected) >= n_target:
                break
            avail = sorted(remaining[c])
            if not avail:
                continue
            take = avail if len(avail) <= per_draw else [
                avail[j] for j in rng.choice(len(avail), size=per_draw, replace=False)
            ]
            remaining[c].difference_update(take)
            selected.extend(int(i) for i in take)
    if len(selected) > n_target:
        keep = rng.choice(len(selected), size=n_target, replace=False)
        selected = [selected[int(j)] for j in keep]
    return sorted(selected)


def sample_lower_diversity(
    features: FeatureMatrix,
    n_seed: int,
    n_batch: int,
    n_target: int,
    tau_sim: float,
    rng_seed: int,
) -> list[int]:
    """Similarity-chained growth: start small, add only look-alikes.

    Initializes with n_seed random rows, then repeatedly adds a random batch
    of outsiders whose max cosine to the current members exceeds tau_sim.
    When no outsider clears the threshold, the single most-similar outsider
    is admitted so the loop always terminates. The running max-similarity of
    each outsider is maintained incrementally; each batch but the last costs
    one (batch x n) product, taken as members x rows (less process memory than
    rows x members at 2 BLAS threads) on one BLAS thread, so that the
    similarities' bits do not depend on the thread count.
    """
    n = features.rows
    _check_target(n_target, n)
    if not 1 <= n_seed <= n_target:
        raise ValueError("need 1 <= n_seed <= n_target")
    if n_batch < 1:
        raise ValueError("n_batch must be >= 1")
    if not -1.0 < tau_sim < 1.0:
        raise ValueError("tau_sim must be in (-1, 1)")
    rng = rng_from(rng_seed, 0x5A3)
    mat = features.data.astype(np.float64)

    member = np.zeros(n, dtype=bool)
    max_sim = np.full(n, -np.inf)
    batch = rng.choice(n, size=n_seed, replace=False)  # the seed is the first batch
    member[batch] = True
    while int(member.sum()) < n_target:
        with one_thread():
            max_sim = np.maximum(max_sim, (mat[batch] @ mat.T).max(axis=0))
        outsiders = np.flatnonzero(~member)
        eligible = outsiders[max_sim[outsiders] > tau_sim]
        if eligible.size == 0:
            best = outsiders[int(np.argmax(max_sim[outsiders]))]
            batch = np.array([best], dtype=np.int64)
        else:
            size = min(n_batch, eligible.size)
            batch = eligible[rng.choice(eligible.size, size=size, replace=False)]
        member[batch] = True
    overshoot = int(member.sum()) - n_target
    if overshoot > 0:  # only a grown batch overshoots, as n_seed <= n_target
        member[batch[rng.choice(len(batch), size=overshoot, replace=False)]] = False
    return [int(i) for i in np.flatnonzero(member)]


def sample_mixture(
    selections: Sequence[Sequence[int]],
    weights: Sequence[float],
    n_target: int,
    rng_seed: int,
) -> list[int]:
    """Mix parent selections by weight (largest-remainder apportionment).

    An index present in several parents counts once; if overlap starves a
    parent's quota, the deficit is filled uniformly from the leftover union.
    """
    if len(selections) != len(weights):
        raise ValueError("one weight per parent selection required")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    if np.any(w < 0) or not w.any():
        raise ValueError("weights must be nonnegative with positive sum")
    with np.errstate(over="ignore"):
        if np.isinf(w.sum()) or np.isinf(n_target * w.max()):
            w = w / w.max()  # too large to apportion as given; the ratios hold
    union: set[int] = set()
    for sel in selections:
        union.update(int(i) for i in sel)
    if n_target > len(union):
        raise ValueError(f"target size {n_target} exceeds union of parents ({len(union)})")

    exact = n_target * w / w.sum()
    quota = np.floor(exact).astype(np.int64)
    shortfall = n_target - int(quota.sum())
    if shortfall > 0:
        order = np.lexsort((np.arange(len(w)), -(exact - quota)))
        quota[order[:shortfall]] += 1

    rng = rng_from(rng_seed, 0x5A4)
    chosen: set[int] = set()
    for sel, q in zip(selections, quota):
        avail = sorted(set(int(i) for i in sel) - chosen)
        take = min(int(q), len(avail))
        if take:
            picked = rng.choice(len(avail), size=take, replace=False)
            chosen.update(avail[int(j)] for j in picked)
    deficit = n_target - len(chosen)
    if deficit > 0:
        leftovers = sorted(union - chosen)
        picked = rng.choice(len(leftovers), size=deficit, replace=False)
        chosen.update(leftovers[int(j)] for j in picked)
    return sorted(chosen)
