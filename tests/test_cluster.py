import json

import numpy as np
import pytest

from gvendi import FeatureMatrix, Provenance, blob_features, dynamic_k, kmeans_fit, sparse_clusters
from gvendi import cluster
from gvendi.cluster import ClusterModel
from gvendi.rng import rng_from


def fm(data):
    data = np.asarray(data, dtype=np.float64)
    data = data / np.linalg.norm(data, axis=1)[:, None]
    return FeatureMatrix(
        data.astype(np.float32), tuple(f"p{i}" for i in range(data.shape[0])), Provenance("external")
    )


def test_k_equals_n_zero_inertia():
    rng = rng_from(41)
    feats = fm(rng.normal(size=(6, 4)))
    model = kmeans_fit(feats, 6, seed=1)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(model.sizes.tolist()) == [1] * 6


def test_k_one_centroid_is_mean():
    rng = rng_from(42)
    feats = fm(rng.normal(size=(10, 3)))
    model = kmeans_fit(feats, 1, seed=1)
    assert model.sizes.tolist() == [10]
    np.testing.assert_allclose(
        model.centroids[0], feats.data.astype(np.float64).mean(axis=0), atol=1e-12
    )


def test_two_separated_blobs_found_across_seeds():
    # blob separation is ~10x the within-blob spread
    rng = rng_from(43)
    a = rng.normal(size=(40, 8)) * 0.05 + np.array([1.0] + [0.0] * 7)
    b = rng.normal(size=(40, 8)) * 0.05 + np.array([0.0, 1.0] + [0.0] * 6)
    feats = fm(np.vstack([a, b]))
    truth = np.array([0] * 40 + [1] * 40)
    hits = 0
    for seed in range(100):
        model = kmeans_fit(feats, 2, seed=seed)
        agree = (model.assignment == truth).mean()
        hits += max(agree, 1 - agree) == 1.0
    assert hits >= 99


def test_relabeling_invariance_on_separated_blobs():
    feats = blob_features(4, 30, dim=8, center_seed=3, point_seed=4, spread=0.05)
    rng = rng_from(44)
    perm = rng.permutation(feats.rows)
    a = kmeans_fit(feats, 4, seed=9)
    b = kmeans_fit(feats.take(perm), 4, seed=9)
    parts_a = {frozenset(np.flatnonzero(a.assignment == c).tolist()) for c in range(4)}
    parts_b = {
        frozenset(int(perm[i]) for i in np.flatnonzero(b.assignment == c)) for c in range(4)
    }
    assert parts_a == parts_b


def test_deterministic_per_seed():
    rng = rng_from(45)
    feats = fm(rng.normal(size=(50, 6)))
    a = kmeans_fit(feats, 5, seed=7)
    b = kmeans_fit(feats, 5, seed=7)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.inertia == b.inertia


def test_empty_cluster_repair_keeps_k():
    # k close to n with duplicate-heavy data forces empty-cluster repairs
    base = np.eye(3, 4)
    data = np.vstack([base[0]] * 8 + [base[1]] * 2 + [base[2]] * 2)
    feats = fm(data)
    model = kmeans_fit(feats, 5, seed=11)
    assert model.k == 5
    assert model.sizes.sum() == 12
    assert all(s >= 0 for s in model.sizes.tolist())


def test_k_bounds():
    rng = rng_from(46)
    feats = fm(rng.normal(size=(4, 3)))
    with pytest.raises(ValueError):
        kmeans_fit(feats, 0, seed=1)
    with pytest.raises(ValueError):
        kmeans_fit(feats, 5, seed=1)


def test_dynamic_k_values():
    assert dynamic_k(100000) == 1000
    assert dynamic_k(50) == 1
    assert dynamic_k(250) == 3  # half-up
    assert dynamic_k(149) == 1
    assert dynamic_k(150) == 2
    with pytest.raises(ValueError):
        dynamic_k(0)


def model_with_sizes(sizes):
    k = len(sizes)
    n = sum(sizes)
    assignment = np.repeat(np.arange(k), sizes)
    centroids = np.eye(k, max(k, 2))
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignment=assignment,
        sizes=np.array(sizes),
        seed=0,
        inertia=0.0,
    )


def test_sparse_clusters_by_count_with_ties():
    model = model_with_sizes([10, 1, 5, 1])
    assert sparse_clusters(model, count=2) == {1, 3}


def test_sparse_clusters_top_20_percent():
    model = model_with_sizes([9, 8, 7, 6, 5, 4, 3, 2, 1, 10])
    assert sparse_clusters(model, fraction=0.2) == {7, 8}


def test_sparse_clusters_all_equal_tie_break_by_index():
    model = model_with_sizes([3, 3, 3, 3])
    assert sparse_clusters(model, count=3) == {0, 1, 2}


def test_sparse_clusters_clamps_to_one():
    model = model_with_sizes([2, 3])
    assert sparse_clusters(model, count=0) == {0}


def test_sparse_clusters_sizes_dominate_excluded():
    rng = rng_from(47)
    sizes = [int(s) for s in rng.integers(1, 50, size=9)]
    model = model_with_sizes(sizes)
    picked = sparse_clusters(model, fraction=1 / 3)
    assert len(picked) == 3
    worst_in = max(sizes[c] for c in picked)
    best_out = min(sizes[c] for c in range(9) if c not in picked)
    assert worst_in <= best_out


def test_sparse_clusters_argument_validation():
    model = model_with_sizes([1, 2])
    with pytest.raises(ValueError):
        sparse_clusters(model)
    with pytest.raises(ValueError):
        sparse_clusters(model, fraction=0.5, count=1)


def test_cluster_model_json_roundtrip():
    model = model_with_sizes([2, 1])
    obj = json.loads(model.to_json())
    assert obj["k"] == 2
    assert obj["sizes"] == [2, 1]
    assert len(obj["centroids"]) == 2


def test_cluster_model_invariant_checks():
    with pytest.raises(ValueError):
        ClusterModel(
            k=2,
            centroids=np.eye(2),
            assignment=np.array([0, 0]),
            sizes=np.array([1, 1]),  # inconsistent with assignment
            seed=0,
            inertia=0.0,
        )


def test_nearest_centroid():
    model = model_with_sizes([1, 1, 1])
    rows = np.array([[0.1, 0.9, 0.0], [1.1, 0.0, 0.0]])
    assert model.nearest_centroid(rows).tolist() == [1, 0]


@pytest.mark.parametrize("n_init", [1, 3])
def test_iteration_cap_returns_consistent_model(monkeypatch, n_init):
    monkeypatch.setattr(cluster, "_MAX_ITERS", 1)
    feats = fm(rng_from(45).normal(size=(60, 5)))
    model = kmeans_fit(feats, 6, seed=2, n_init=n_init)
    rows = feats.data.astype(np.float64)
    np.testing.assert_array_equal(model.assignment, model.nearest_centroid(rows))
    np.testing.assert_array_equal(model.sizes, np.bincount(model.assignment, minlength=6))
    inertia = ((rows - model.centroids[model.assignment]) ** 2).sum()
    assert model.inertia == pytest.approx(inertia, rel=1e-9)
