import json
import math
import tracemalloc

import numpy as np
import pytest

from gvendi import (
    FeatureMatrix,
    ProjectionSpec,
    Provenance,
    ProxyModel,
    blob_features,
    dynamic_k,
    featurize,
    kmeans_fit,
    sparse_clusters,
    template_corpus,
)
from gvendi import blas, cluster
from gvendi.cluster import ClusterModel
from gvendi.rng import mix64, rng_from


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
    assignment = np.repeat(np.arange(k), sizes)
    centroids = np.eye(k, max(k, 2))
    return ClusterModel(centroids=centroids, assignment=assignment, seed=0, inertia=0.0)


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
    for assignment in ([0, 2], [-1, 0]):  # k = 2 centroids
        with pytest.raises(ValueError, match="out of range"):
            ClusterModel(centroids=np.eye(2), assignment=np.array(assignment), seed=0,
                         inertia=0.0)


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


def _per_trial_kmeanspp(rows, sq, k, rng):
    """Reference seeding: every local trial scored from its own direct
    differences, one at a time, keeping the first lowest potential."""
    n = rows.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = ((rows - rows[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
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


def _each_generator(reference):
    """A one-generator seeding in `_kmeanspp`'s form: one centre set per
    generator, each seeded on its own."""
    return lambda rows, sq, k, rngs: [reference(rows, sq, k, rng) for rng in rngs]


def _blobs(seed):
    return blob_features(5, 40, dim=64, center_seed=seed, point_seed=seed + 1, spread=0.3), 8


def _duplicate_heavy(seed):
    # 3 unit vectors repeated 5/4/3 times, then 4 distinct rows and 2 copies of them
    rng = rng_from(seed)
    base = rng.normal(size=(3, 1024))
    extra = rng.normal(size=(4, 1024))
    data = np.vstack([np.repeat(base, [5, 4, 3], axis=0), extra, extra, extra])
    return fm(data), data.shape[0] - 3


@pytest.mark.parametrize("n_init", [1, 4])
@pytest.mark.parametrize("make", [_blobs, _duplicate_heavy], ids=["blobs", "duplicates"])
def test_seeding_matches_per_trial_reference(monkeypatch, make, n_init):
    for seed in range(1000, 1016):
        feats, k = make(seed)
        fit = kmeans_fit(feats, k, seed=seed, n_init=n_init).to_json()
        with monkeypatch.context() as m:
            m.setattr(cluster, "_kmeanspp", _each_generator(_per_trial_kmeanspp))
            ref = kmeans_fit(feats, k, seed=seed, n_init=n_init).to_json()
        same = fit == ref  # a bool, so a failure does not diff two long JSON strings
        assert same, f"seed {seed}"


def _assert_lockstep_matches_alone(feats, k, seeds):
    """`_kmeanspp` with one generator per seed gives each seed the bytes a
    one-generator call gives it."""
    rows = feats.data.astype(np.float64)
    sq = cluster._sq_norms(rows)
    together = cluster._kmeanspp(rows, sq, k, [rng_from(s, 0xC15) for s in seeds])
    assert len(together) == len(seeds)
    for s, centres in zip(seeds, together):
        [alone] = cluster._kmeanspp(rows, sq, k, [rng_from(s, 0xC15)])
        assert centres.shape == (k, rows.shape[1])
        assert centres.tobytes() == alone.tobytes(), f"seed {s}"
    return together


def test_lockstep_seeding_matches_one_generator_on_blobs():
    for seed in range(5000, 5004):
        feats, k = _blobs(seed)
        _assert_lockstep_matches_alone(feats, k, [mix64(seed, 0xC17, t) for t in range(4)])


def test_lockstep_seeding_matches_one_generator_past_the_distinct_rows():
    # 7 distinct rows and k = 21: each step adds one distinct row, so every
    # seeding draws its last 14 centres from the duplicates-only branch
    for seed in range(5100, 5104):
        feats, k = _duplicate_heavy(seed)
        together = _assert_lockstep_matches_alone(
            feats, k, [mix64(seed, 0xC17, t) for t in range(3)]
        )
        for centres in together:
            assert len(np.unique(centres, axis=0)) == 7 < k


def test_lockstep_seeding_matches_one_generator_at_select_shape():
    # the select workload's pool: 3000 gradient rows of 1024 columns, k=20, 4 seedings
    model = ProxyModel.create()
    feats = featurize(model, ProjectionSpec(model.n_params), template_corpus(30, 100, 71))
    assert feats.data.shape == (3000, 1024)
    _assert_lockstep_matches_alone(feats, 20, [mix64(71, 0xC17, t) for t in range(4)])


# The kernels as first written, unblocked: each builds n x d temporaries.
def _reference_sqdist(rows, sq, centers):
    return sq[:, None] - 2.0 * rows @ centers.T + (centers * centers).sum(axis=1)[None, :]


def _reference_sq_norms(rows):
    return (rows * rows).sum(axis=1)


def _reference_kmeanspp(rows, sq, k, rng):
    n, dim = rows.shape
    trials = 2 + int(math.log(k)) if k > 1 else 1
    slack = 16 * n * (n + dim + 2) * np.finfo(np.float64).eps * float(sq.max())
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = ((rows - rows[chosen[0]]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            pool = np.setdiff1d(np.arange(n), chosen[:i])
            chosen[i] = rng.choice(pool) if pool.size else chosen[0]
            continue
        candidates = rng.choice(n, size=trials, p=d2 / total)
        pots = np.minimum(d2[:, None], _reference_sqdist(rows, sq, rows[candidates])).sum(axis=0)
        near = candidates[pots <= pots.min() + slack]
        cols = np.minimum(d2, ((rows - rows[near][:, None, :]) ** 2).sum(axis=2))
        best = int(np.argmin(cols.sum(axis=1)))
        chosen[i], d2 = near[best], cols[best]
    return rows[chosen].copy()


def _k_one(seed):
    return _blobs(seed)[0], 1


def _three_blocks(seed):
    # 300 rows at dim 1024: two full 128-row blocks and a 44-row tail
    return blob_features(6, 50, dim=1024, center_seed=seed, point_seed=seed + 1, spread=0.3), 6


def _odd_dim(seed):
    # 1000 columns do not divide the block size
    return blob_features(4, 60, dim=1000, center_seed=seed, point_seed=seed + 1, spread=0.3), 5


_SMALL_BLOCK = 20000  # 2 rows per block at dim 1000 or 1024, 39 at dim 64


@pytest.mark.parametrize("block_bytes", [None, _SMALL_BLOCK], ids=["default", "small"])
@pytest.mark.parametrize("n_init", [1, 4])
@pytest.mark.parametrize(
    "make",
    [_blobs, _duplicate_heavy, _k_one, _three_blocks, _odd_dim],
    ids=["blobs", "duplicates", "k1", "three-blocks", "odd-dim"],
)
def test_blocked_kernels_match_unblocked_reference(monkeypatch, make, n_init, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(cluster, "_BLOCK_BYTES", block_bytes)
    for seed in range(2000, 2003):
        feats, k = make(seed)
        rows = feats.data.astype(np.float64)
        sq = cluster._sq_norms(rows)
        assert sq.tobytes() == _reference_sq_norms(rows).tobytes()
        points = rows[[0, rows.shape[0] // 2, rows.shape[0] - 1]]
        direct = ((rows - points[:, None, :]) ** 2).sum(axis=2)
        assert cluster._direct_sqdist(rows, points).tobytes() == direct.tobytes()
        assert (cluster._sqdist(rows, sq, points).tobytes()
                == _reference_sqdist(rows, sq, points).tobytes())
        model = kmeans_fit(feats, k, seed=seed, n_init=n_init)
        with monkeypatch.context() as m:
            m.setattr(cluster, "_sqdist", _reference_sqdist)
            m.setattr(cluster, "_kmeanspp", _each_generator(_reference_kmeanspp))
            m.setattr(cluster, "_sq_norms", _reference_sq_norms)
            ref = kmeans_fit(feats, k, seed=seed, n_init=n_init)
            ref_nearest = ref.nearest_centroid(rows[::7])
        same = model.to_json() == ref.to_json()
        assert same, f"seed {seed}"
        np.testing.assert_array_equal(model.nearest_centroid(rows[::7]), ref_nearest)


@pytest.fixture(scope="module")
def gradient_features():
    # proxy gradients of a templated corpus: their distances concentrate, so
    # many rows sit near the bound that decides which rows are re-measured
    model = ProxyModel.create()
    return featurize(model, ProjectionSpec(model.n_params), template_corpus(15, 100, 21))


@pytest.mark.parametrize("n_init", [1, 4])
@pytest.mark.parametrize(
    "reference", [_per_trial_kmeanspp, _reference_kmeanspp], ids=["per-trial", "unblocked"]
)
def test_seeding_on_gradient_features_matches_references(
    monkeypatch, gradient_features, reference, n_init
):
    feats = gradient_features
    k = dynamic_k(feats.rows)
    for seed in range(3000, 3004):
        fit = kmeans_fit(feats, k, seed=seed, n_init=n_init).to_json()
        with monkeypatch.context() as m:
            m.setattr(cluster, "_kmeanspp", _each_generator(reference))
            ref = kmeans_fit(feats, k, seed=seed, n_init=n_init).to_json()
        same = fit == ref
        assert same, f"seed {seed}"


def test_shrink_matches_full_direct_column_on_near_ties(monkeypatch):
    rng = rng_from(77)
    dim = 1024
    a, w, b = rng.normal(size=(3, dim)) / math.sqrt(dim)

    def equidistant(p, q, count):
        # p-q's perpendicular bisector: as far from p as from q, up to rounding
        axis = (q - p) / np.linalg.norm(q - p)
        t = rng.normal(size=(count, dim)) / math.sqrt(dim)
        t -= np.outer(t @ axis, axis)
        return (p + q) / 2 + 0.3 * t

    rows = np.vstack([
        a, w, b,
        np.repeat(w[None, :], 4, axis=0),  # duplicates of the winner
        equidistant(a, w, 200),
        equidistant(a, b, 200),
        a + 0.01 * rng.normal(size=(50, dim)) / math.sqrt(dim),  # ruled out by the product
    ])
    sq = cluster._sq_norms(rows)
    d2 = cluster._direct_sqdist(rows, rows[:1])[0]  # row a is the one chosen row
    direct = cluster._direct_sqdist
    measured = []

    def counting(rows, points, idx=None):
        measured.append(idx.size)
        return direct(rows, points, idx)

    for near in ([1], [1, 2]):
        points = rows[near]
        prod = cluster._sqdist(rows, sq, points)
        full = np.minimum(d2, direct(rows, points))
        with monkeypatch.context() as m:
            m.setattr(cluster, "_direct_sqdist", counting)
            shrunk = cluster._shrink(rows, sq, d2, points, prod)
        assert shrunk.tobytes() == full.tobytes()
    # w, its duplicates and a-w's bisector, then b and a-b's bisector too;
    # a and the rows beside it are never measured
    assert measured == [1 + 4 + 200, 1 + 4 + 200 + 1 + 200]


def test_kmeans_peak_memory_is_the_float64_rows():
    feats = blob_features(20, 150, dim=1024, center_seed=1, point_seed=2, spread=0.3)
    rows_bytes = feats.rows * feats.data.shape[1] * 8
    tracemalloc.start()
    try:
        kmeans_fit(feats, 20, seed=3, n_init=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * rows_bytes, peak / rows_bytes


def _mask_update(rows, labels, counts, centroids):
    """The centroid update as first written: one boolean scan per cluster."""
    for c in range(len(centroids)):
        centroids[c] = rows[labels == c].mean(axis=0)


@pytest.mark.parametrize("n_init", [1, 4])
@pytest.mark.parametrize("make", [_blobs, _duplicate_heavy], ids=["blobs", "duplicates"])
def test_centroid_update_matches_mask_reference(monkeypatch, make, n_init):
    repaired = []
    repair = cluster._repair_empty

    def watching(rows, centroids, labels, d2, counts):
        repaired.append(bool((counts == 0).any()))
        repair(rows, centroids, labels, d2, counts)

    monkeypatch.setattr(cluster, "_repair_empty", watching)
    for seed in range(4000, 4004):
        feats, k = make(seed)
        fit = kmeans_fit(feats, k, seed=seed, n_init=n_init).to_json()
        with monkeypatch.context() as m:
            m.setattr(cluster, "_update_centroids", _mask_update)
            ref = kmeans_fit(feats, k, seed=seed, n_init=n_init).to_json()
        same = fit == ref
        assert same, f"seed {seed}"
    # duplicate-heavy rows have clusters emptied and repaired before updates
    assert any(repaired) == (make is _duplicate_heavy)


@pytest.mark.parametrize("k", [5, 15, 30])
def test_centroid_update_on_gradient_features_matches_mask_reference(
    monkeypatch, gradient_features, k
):
    fit = kmeans_fit(gradient_features, k, seed=3100).to_json()
    monkeypatch.setattr(cluster, "_update_centroids", _mask_update)
    same = fit == kmeans_fit(gradient_features, k, seed=3100).to_json()
    assert same


@pytest.fixture(scope="module")
def grow_features():
    """Gradient features at the grow workload's shapes: 1400 rows of the
    default model and projection (1024 columns)."""
    model = ProxyModel.create()
    return featurize(model, ProjectionSpec(model.n_params), template_corpus(14, 100, 8))


@pytest.mark.skipif(not blas.can_set_threads(), reason="needs numpy's bundled OpenBLAS")
@pytest.mark.parametrize("n", [1000, 1200, 1400])
def test_kmeans_bytes_do_not_depend_on_one_blas_thread(grow_features, n):
    """A synthesis step clusters while another thread may hold OpenBLAS at
    one thread for a spectrum, so its k-means must give the same bytes
    either way."""
    pool = grow_features.take(np.arange(n))
    batch = grow_features.data[n - 200 :]
    fit = kmeans_fit(pool, dynamic_k(n), seed=n)
    with blas.one_thread():
        held = kmeans_fit(pool, dynamic_k(n), seed=n)
        held_nearest = fit.nearest_centroid(batch)
    same = held.to_json() == fit.to_json()
    assert same
    assert held_nearest.tobytes() == fit.nearest_centroid(batch).tobytes()
