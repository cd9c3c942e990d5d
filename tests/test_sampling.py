import numpy as np
import pytest

from gvendi import (
    FeatureMatrix,
    ProjectionSpec,
    Provenance,
    ProxyModel,
    blob_features,
    featurize,
    sample_higher_diversity,
    sample_lower_diversity,
    sample_mixture,
    sample_random,
    template_corpus,
    vendi_score,
)
from gvendi import blas
from gvendi.rng import rng_from


def contract_ok(selection, n_target, pool_size):
    assert len(selection) == n_target
    assert len(set(selection)) == n_target
    assert selection == sorted(selection)
    assert all(0 <= i < pool_size for i in selection)


@pytest.fixture(scope="module")
def pool():
    return blob_features(5, 40, dim=8, center_seed=1, point_seed=2, spread=0.08)


def test_random_full_and_empty(pool):
    assert sample_random(pool, pool.rows, rng_seed=1) == list(range(pool.rows))
    assert sample_random(pool, 0, rng_seed=1) == []


def test_random_deterministic_and_contract(pool):
    a = sample_random(pool, 25, rng_seed=3)
    b = sample_random(pool, 25, rng_seed=3)
    assert a == b
    contract_ok(a, 25, pool.rows)
    assert sample_random(pool, 25, rng_seed=4) != a


def test_random_rejects_oversize(pool):
    with pytest.raises(ValueError):
        sample_random(pool, pool.rows + 1, rng_seed=1)


def test_higher_k1_degenerates_to_uniform(pool):
    sel = sample_higher_diversity(pool, k=1, n_target=30, rng_seed=5)
    contract_ok(sel, 30, pool.rows)


def test_higher_rejects_k_over_pool(pool):
    with pytest.raises(ValueError, match=f"k={pool.rows + 1} exceeds number of rows {pool.rows}"):
        sample_higher_diversity(pool, k=pool.rows + 1, n_target=1, rng_seed=5)


def test_higher_target_equal_pool(pool):
    sel = sample_higher_diversity(pool, k=5, n_target=pool.rows, rng_seed=5)
    assert sel == list(range(pool.rows))


def test_higher_covers_distinct_directions():
    eye = np.repeat(np.eye(12)[:10], 100, axis=0).astype(np.float32)
    feats = FeatureMatrix(eye, tuple(f"r{i}" for i in range(1000)), Provenance("external"))
    covered = []
    for seed in range(100):
        sel = sample_higher_diversity(feats, k=10, n_target=10, rng_seed=seed)
        covered.append(len({int(np.argmax(feats.data[i])) for i in sel}))
    assert np.mean([c >= 8 for c in covered]) >= 0.95


def test_higher_contract_and_determinism(pool):
    a = sample_higher_diversity(pool, k=4, n_target=33, rng_seed=6)
    b = sample_higher_diversity(pool, k=4, n_target=33, rng_seed=6)
    assert a == b
    contract_ok(a, 33, pool.rows)


def test_lower_stays_in_seed_blob():
    # two orthogonal blobs: cross-blob cosine ~ 0, far below tau
    rng = rng_from(10)
    centers = np.eye(2, 8)
    pts = np.vstack([c + 0.05 * rng.normal(size=(60, 8)) for c in centers])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    feats = FeatureMatrix(
        pts.astype(np.float32), tuple(f"r{i}" for i in range(120)), Provenance("external")
    )
    for seed in range(10):
        sel = sample_lower_diversity(
            feats, n_seed=1, n_batch=10, n_target=40, tau_sim=0.8, rng_seed=seed
        )
        blobs = {i // 60 for i in sel}
        assert len(blobs) == 1
        contract_ok(sel, 40, feats.rows)


def test_lower_all_identical_terminates(pool):
    data = np.tile(pool.data[0], (30, 1))
    feats = FeatureMatrix(data, tuple(f"r{i}" for i in range(30)), Provenance("external"))
    sel = sample_lower_diversity(feats, n_seed=2, n_batch=7, n_target=20, tau_sim=0.9, rng_seed=3)
    contract_ok(sel, 20, 30)


def test_lower_tau_near_minus_one_grows_freely(pool):
    sel = sample_lower_diversity(
        pool, n_seed=2, n_batch=50, n_target=pool.rows, tau_sim=-0.999, rng_seed=3
    )
    assert sel == list(range(pool.rows))


def test_lower_relaxation_breaks_deadlock():
    # two orthogonal rows: tau too high for the second to ever qualify
    feats = FeatureMatrix(np.eye(2, 4, dtype=np.float32), ("a", "b"), Provenance("external"))
    sel = sample_lower_diversity(feats, n_seed=1, n_batch=1, n_target=2, tau_sim=0.5, rng_seed=1)
    assert sel == [0, 1]


def test_lower_validates_sizes(pool):
    with pytest.raises(ValueError):
        sample_lower_diversity(pool, n_seed=0, n_batch=5, n_target=10, tau_sim=0.5, rng_seed=1)
    with pytest.raises(ValueError):
        sample_lower_diversity(pool, n_seed=20, n_batch=5, n_target=10, tau_sim=0.5, rng_seed=1)
    with pytest.raises(ValueError):
        sample_lower_diversity(pool, n_seed=2, n_batch=5, n_target=10, tau_sim=1.5, rng_seed=1)


def test_mixture_weight_zero_excludes_parent():
    sel = sample_mixture([[0, 1, 2, 3], [4, 5, 6, 7]], [1.0, 0.0], 3, rng_seed=2)
    assert set(sel) <= {0, 1, 2, 3}
    assert len(sel) == 3


def test_mixture_disjoint_even_split():
    sel = sample_mixture([list(range(10)), list(range(10, 20))], [1, 1], 10, rng_seed=2)
    assert len([i for i in sel if i < 10]) == 5
    assert len(sel) == 10


def test_mixture_overlap_no_duplicates():
    a = list(range(8))
    b = list(range(4, 12))
    sel = sample_mixture([a, b], [1, 1], 10, rng_seed=5)
    assert len(sel) == len(set(sel)) == 10
    assert set(sel) <= set(a) | set(b)


def test_mixture_insufficient_union():
    with pytest.raises(ValueError):
        sample_mixture([[0, 1], [1, 2]], [1, 1], 4, rng_seed=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mixture_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="weights must be finite"):
        sample_mixture([[0, 1], [2, 3]], [1.0, bad], 2, rng_seed=1)


@pytest.mark.parametrize(
    "huge, plain, n_target",
    [([1e308, 1e308], [1, 1], 2), ([1e308, 0], [1, 0], 2), ([2e307, 2e307], [1, 1], 10)],
    ids=["sum-overflows", "one-parent", "scaled-weight-overflows"],
)
def test_mixture_weights_too_large_to_apportion(huge, plain, n_target):
    parents = [list(range(5)), list(range(5, 10))]
    for seed in range(4):
        assert (sample_mixture(parents, huge, n_target, rng_seed=seed)
                == sample_mixture(parents, plain, n_target, rng_seed=seed))


def test_mixture_largest_remainder_apportionment():
    # quotas 7*[2,1]/3 = [4.67, 2.33] -> [4, 2] plus one remainder to parent 0
    sel = sample_mixture([list(range(10)), list(range(10, 20))], [2, 1], 7, rng_seed=8)
    assert len([i for i in sel if i < 10]) == 5
    assert len([i for i in sel if i >= 10]) == 2


def test_spectrum_property_small():
    # the full 20-seed version runs in the acceptance suite
    feats = blob_features(10, 200, dim=16, center_seed=11, point_seed=12, spread=0.1)
    hi, rnd, lo = [], [], []
    for seed in range(5):
        hi.append(vendi_score(feats.take(sample_higher_diversity(feats, 10, 200, 1000 + seed))))
        rnd.append(vendi_score(feats.take(sample_random(feats, 200, 2000 + seed))))
        lo.append(
            vendi_score(
                feats.take(
                    sample_lower_diversity(feats, 5, 20, 200, tau_sim=0.9, rng_seed=3000 + seed)
                )
            )
        )
    assert np.mean(hi) > np.mean(rnd) > np.mean(lo)
    assert all(h > l for h, l in zip(hi, lo))


def _reference_lower_diversity(features, n_seed, n_batch, n_target, tau_sim, rng_seed):
    """`sample_lower_diversity` with its products as first written, rows x
    members at the caller's thread count."""
    n = features.rows
    rng = rng_from(rng_seed, 0x5A3)
    mat = features.data.astype(np.float64)
    member = np.zeros(n, dtype=bool)
    seed_idx = rng.choice(n, size=n_seed, replace=False)
    member[seed_idx] = True
    max_sim = (mat @ mat[seed_idx].T).max(axis=1)
    last_batch = []
    while int(member.sum()) < n_target:
        outsiders = np.flatnonzero(~member)
        eligible = outsiders[max_sim[outsiders] > tau_sim]
        if eligible.size == 0:
            best = outsiders[int(np.argmax(max_sim[outsiders]))]
            batch = np.array([best], dtype=np.int64)
        else:
            size = min(n_batch, eligible.size)
            batch = eligible[rng.choice(eligible.size, size=size, replace=False)]
        member[batch] = True
        last_batch = [int(i) for i in batch]
        max_sim = np.maximum(max_sim, (mat @ mat[batch].T).max(axis=1))
    overshoot = int(member.sum()) - n_target
    if overshoot > 0:
        drop = rng.choice(len(last_batch), size=overshoot, replace=False)
        member[[last_batch[int(j)] for j in drop]] = False
    return [int(i) for i in np.flatnonzero(member)]


@pytest.fixture(scope="module")
def select_features():
    """The select workload's pool: 3000 gradient rows of 1024 columns."""
    model = ProxyModel.create()
    return featurize(model, ProjectionSpec(model.n_params), template_corpus(30, 100, 71))


def test_lower_matches_rows_by_members_reference_on_gradient_rows(select_features):
    # the CLI defaults (seed size 5, batch 20, tau 0.8) at select's pick of 600
    for seed in range(7000, 7004):
        args = (select_features, 5, 20, 600, 0.8, seed)
        assert sample_lower_diversity(*args) == _reference_lower_diversity(*args), seed


def test_lower_matches_rows_by_members_reference_on_blobs():
    feats = blob_features(10, 200, dim=16, center_seed=11, point_seed=12, spread=0.1)
    for seed in range(7100, 7108):
        for args in [(feats, 5, 20, 200, 0.9, seed), (feats, 1, 1, 60, 0.99, seed)]:
            assert sample_lower_diversity(*args) == _reference_lower_diversity(*args), args[1:]


@pytest.mark.skipif(not blas.can_set_threads(), reason="needs numpy's bundled OpenBLAS")
def test_lower_does_not_depend_on_one_blas_thread(select_features):
    for seed in range(7200, 7204):
        args = (select_features, 5, 20, 600, 0.8, seed)
        free = sample_lower_diversity(*args)
        with blas.one_thread():
            held = sample_lower_diversity(*args)
        assert free == held, seed
