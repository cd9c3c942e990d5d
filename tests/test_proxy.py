import tracemalloc

import numpy as np
import pytest

from gvendi import (
    Corpus,
    FeatureMatrix,
    ProjectionSpec,
    Provenance,
    ProxyModel,
    Sample,
    embed_hashed_tfidf,
    embedding_dissimilarity,
    featurize,
    load_features,
    loss_gradient,
    project,
    sample_nll,
    store_features,
    template_corpus,
)
from gvendi.rng import rng_from


def finite_difference_gradient(model, sample, h=1e-4):
    base = model.weights.reshape(-1)
    grad = np.zeros_like(base)
    for i in range(base.size):
        wp, wm = base.copy(), base.copy()
        wp[i] += h
        wm[i] -= h
        mp = ProxyModel(model.vocab_size, model.feature_dim, wp.reshape(model.weights.shape), model.hash_seed)
        mm = ProxyModel(model.vocab_size, model.feature_dim, wm.reshape(model.weights.shape), model.hash_seed)
        grad[i] = (sample_nll(mp, sample)[0] - sample_nll(mm, sample)[0]) / (2 * h)
    return grad


def random_bytes_text(rng, n, vocab):
    return bytes(int(b) for b in rng.integers(0, vocab, size=n)).decode("latin-1")


def test_closed_form_two_class_gradient():
    # uniform softmax over 2 classes, single target token 0: grad = (p - e0) * phi
    model = ProxyModel(2, 1, np.zeros((2, 1)), hash_seed=7)
    sample = Sample(id="t", input="x", output="\x00")
    np.testing.assert_allclose(loss_gradient(model, sample), [-0.5, 0.5], atol=1e-12)


def test_zero_gradient_when_fit_is_perfect():
    # single-class vocab: softmax is exactly 1 at every step
    model = ProxyModel(1, 4, np.zeros((1, 4)), hash_seed=3)
    sample = Sample(id="t", input="ab", output="\x00\x00")
    assert np.all(loss_gradient(model, sample) == 0.0)


def test_gradient_matches_finite_differences_50_instances():
    worst = 0.0
    for trial in range(50):
        rng = rng_from(9000 + trial)
        v = int(rng.integers(2, 5))
        m = int(rng.integers(1, 9))
        model = ProxyModel(
            v, m, rng.uniform(-0.5, 0.5, size=(v, m)), hash_seed=int(rng.integers(0, 2**32))
        )
        sample = Sample(
            id=f"t{trial}",
            input=random_bytes_text(rng, int(rng.integers(0, 6)), 128),
            output=random_bytes_text(rng, int(rng.integers(1, 8)), v),
        )
        analytic = loss_gradient(model, sample)
        numeric = finite_difference_gradient(model, sample)
        rel = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-4, f"worst relative error {worst}"


def test_gradient_requires_nonempty_output():
    model = ProxyModel.create(vocab_size=4, feature_dim=2)
    with pytest.raises(ValueError, match="empty"):
        loss_gradient(model, Sample(id="t", input="x", output=""))


def test_gradient_rejects_out_of_vocab_byte():
    model = ProxyModel.create(vocab_size=4, feature_dim=2)
    with pytest.raises(ValueError, match="vocab"):
        loss_gradient(model, Sample(id="t", input="x", output="z"))


def test_mean_nll_uniform_model():
    model = ProxyModel(256, 8, np.zeros((256, 8)), hash_seed=1)
    sample = Sample(id="t", input="hello", output="world")
    nll, tokens = sample_nll(model, sample)
    assert tokens == 5
    np.testing.assert_allclose(nll / tokens, np.log(256.0), rtol=1e-12)


def corpus_of(texts):
    return Corpus(
        tuple(Sample(id=f"s{i}", input=t, output=t[::-1] or "x") for i, t in enumerate(texts)),
        name="t",
    )


def test_featurize_rows_align_and_unit_norm():
    corpus = corpus_of(["alpha beta", "gamma delta", "epsilon"])
    model = ProxyModel.create(vocab_size=256, feature_dim=32)
    proj = ProjectionSpec(model.n_params, 16, seed=5)
    feats = featurize(model, proj, corpus)
    assert feats.sample_ids == tuple(corpus.ids())
    norms = np.linalg.norm(feats.data.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_featurize_zero_gradient_row_flagged_degenerate():
    model = ProxyModel(1, 4, np.zeros((1, 4)), hash_seed=3)
    proj = ProjectionSpec(4, 2, seed=5)
    corpus = Corpus((Sample(id="z", input="q", output="\x00"),), name="t")
    feats = featurize(model, proj, corpus)
    assert np.all(feats.data == 0.0)
    assert feats.degenerate_mask().tolist() == [True]


def test_featurize_deterministic_bitwise():
    corpus = corpus_of(["one two", "three four five", "six"])
    model = ProxyModel.create(vocab_size=256, feature_dim=24, hash_seed=11, weight_seed=12)
    proj = ProjectionSpec(model.n_params, 32, seed=13)
    a = featurize(model, proj, corpus)
    b = featurize(model, proj, corpus)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.provenance == b.provenance


def test_featurize_dimension_mismatch():
    corpus = corpus_of(["x"])
    model = ProxyModel.create(vocab_size=16, feature_dim=4)
    with pytest.raises(ValueError, match="source_dim"):
        featurize(model, ProjectionSpec(63, 8, seed=1), corpus)


def test_featurize_error_names_sample():
    model = ProxyModel.create(vocab_size=256, feature_dim=8)
    proj = ProjectionSpec(model.n_params, 8, seed=1)
    corpus = Corpus((Sample(id="bad-one", input="x", output=""),), name="t")
    with pytest.raises(ValueError, match="bad-one"):
        featurize(model, proj, corpus)


def test_projection_linearity():
    spec = ProjectionSpec(source_dim=500, target_dim=64, seed=21)
    rng = rng_from(77)
    u = rng.normal(size=500)
    v = rng.normal(size=500)
    lhs = project(spec, (2.5 * u - 1.25 * v)[None, :])
    rhs = 2.5 * project(spec, u[None, :]) - 1.25 * project(spec, v[None, :])
    assert np.abs(lhs - rhs).max() <= 1e-5


def test_projection_preserves_cosines_smoke():
    # tighter large-scale JL bound lives in the acceptance suite
    rng = rng_from(88)
    spec = ProjectionSpec(source_dim=5000, target_dim=512, seed=3)
    ok = 0
    for _ in range(20):
        u = rng.normal(size=5000)
        v = 0.5 * u + rng.normal(size=5000)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        pu, pv = project(spec, np.vstack([u, v]))
        cos = float(pu @ pv / (np.linalg.norm(pu) * np.linalg.norm(pv)))
        ok += abs(cos - float(u @ v)) < 0.15
    assert ok >= 19


def test_projection_dim_bounds():
    with pytest.raises(ValueError):
        ProjectionSpec(source_dim=8, target_dim=9, seed=1)


def test_tfidf_identical_samples_identical_rows():
    c = Corpus(
        (
            Sample(id="a", input="the cat sat", output="on the mat"),
            Sample(id="b", input="the cat sat", output="on the mat"),
        ),
        name="t",
    )
    feats = embed_hashed_tfidf(c, dim=1024, seed=9)
    cos = float(feats.data[0].astype(np.float64) @ feats.data[1].astype(np.float64))
    assert cos == pytest.approx(1.0, abs=1e-6)


def test_tfidf_disjoint_bigrams_near_orthogonal():
    c = Corpus(
        (
            Sample(id="a", input="alpha beta gamma delta", output="epsilon zeta"),
            Sample(id="b", input="uno dos tres quatro", output="cinco seis"),
        ),
        name="t",
    )
    feats = embed_hashed_tfidf(c, dim=2**15, seed=9)
    cos = float(feats.data[0].astype(np.float64) @ feats.data[1].astype(np.float64))
    assert abs(cos) <= 0.05


def test_tfidf_empty_text_degenerate():
    c = Corpus((Sample(id="a", input="", output=""),), name="t")
    feats = embed_hashed_tfidf(c, dim=64, seed=9)
    assert feats.degenerate_mask().tolist() == [True]


def test_tfidf_provenance():
    c = Corpus((Sample(id="a", input="x y", output="z w"),), name="t")
    assert embed_hashed_tfidf(c, dim=64, seed=9).provenance.featurizer == "embedding"


def test_store_load_roundtrip_bitwise(tmp_path):
    rng = rng_from(4)
    data = rng.normal(size=(10, 8))
    data /= np.linalg.norm(data, axis=1)[:, None]
    feats = FeatureMatrix(
        data.astype(np.float32),
        tuple(f"id-{i}" for i in range(10)),
        Provenance("external", fingerprint=123456789, seed=42),
    )
    path = tmp_path / "f.gvfm"
    store_features(feats, path)
    back = load_features(path)
    assert back.data.tobytes() == feats.data.tobytes()
    assert back.sample_ids == feats.sample_ids
    assert back.provenance == feats.provenance


def test_load_truncated_file_reports_byte_counts(tmp_path):
    feats = FeatureMatrix(
        np.eye(4, 6, dtype=np.float32), tuple("abcd"), Provenance("external")
    )
    path = tmp_path / "f.gvfm"
    store_features(feats, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match=r"expected.*bytes.*got"):
        load_features(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "f.gvfm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a feature matrix file"):
        load_features(path)


def test_load_bad_version(tmp_path):
    feats = FeatureMatrix(np.eye(2, 4, dtype=np.float32), ("a", "b"), Provenance("external"))
    path = tmp_path / "f.gvfm"
    store_features(feats, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="version"):
        load_features(path)


def test_feature_matrix_rejects_non_unit_rows():
    with pytest.raises(ValueError, match="norm"):
        FeatureMatrix(np.full((1, 4), 0.9, dtype=np.float32), ("a",), Provenance("external"))


def test_feature_matrix_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        FeatureMatrix(np.eye(2, 4, dtype=np.float32), ("a", "a"), Provenance("external"))


def test_featurize_peak_memory_is_one_gradient_buffer():
    model = ProxyModel.create()
    corpus = template_corpus(5, 60, 3)
    proj = ProjectionSpec(model.n_params, 16, seed=1)
    buffer_bytes = len(corpus) * model.n_params * 8
    tracemalloc.start()
    try:
        featurize(model, proj, corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * buffer_bytes, f"peak {peak / buffer_bytes:.2f}x the gradient buffer"


@pytest.mark.parametrize(
    "row, match",
    [
        ([np.nan, 0.0, 0.0], "non-finite"),
        ([np.inf, 0.0, 0.0], "non-finite"),
        ([-np.inf, 0.0, 0.0], "non-finite"),
        ([3.0e38, 0.0, 0.0], "norm"),
        ([1e-45, 0.0, 0.0], "norm"),  # the smallest float32 subnormal
        ([0.0, 0.0, 0.0], None),
    ],
    ids=["nan", "+inf", "-inf", "huge", "subnormal", "zero"],
)
def test_feature_matrix_row_edges(row, match):
    data = np.array([[0.0, 1.0, 0.0], row], dtype=np.float32)
    if match is None:
        feats = FeatureMatrix(data, ("a", "b"), Provenance("external"))
        assert feats.degenerate_mask().tolist() == [False, True]
    else:
        with pytest.raises(ValueError, match=match):
            FeatureMatrix(data, ("a", "b"), Provenance("external"))


def _unit_float32_rows(n=2000, d=256):
    data = rng_from(6).normal(size=(n, d))
    data /= np.linalg.norm(data, axis=1)[:, None]
    return data.astype(np.float32), tuple(f"s{i}" for i in range(n))


def _unit_feature_matrix():
    return FeatureMatrix(*_unit_float32_rows(), Provenance("external"))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_feature_matrix_check_makes_no_row_copy():
    data, ids = _unit_float32_rows()
    feats, peak = _traced_peak(lambda: FeatureMatrix(data, ids, Provenance("external")))
    assert feats.data is data and not data.flags.writeable
    assert peak <= 0.5 * data.nbytes, f"peak {peak / data.nbytes:.2f}x the rows"


def test_load_features_peak_is_one_copy_of_the_rows(tmp_path):
    feats = _unit_feature_matrix()
    path = tmp_path / "f.gvfm"
    store_features(feats, path)
    back, peak = _traced_peak(lambda: load_features(path))
    assert back.data.tobytes() == feats.data.tobytes()
    assert peak <= 1.5 * feats.data.nbytes, f"peak {peak / feats.data.nbytes:.2f}x the rows"


def test_take_peak_is_one_copy_of_the_output():
    feats = _unit_feature_matrix()
    half, peak = _traced_peak(lambda: feats.take(np.arange(0, feats.rows, 2)))
    assert half.data.tobytes() == feats.data[::2].tobytes()
    assert peak <= 1.5 * half.data.nbytes, f"peak {peak / half.data.nbytes:.2f}x the output"


def test_tfidf_peak_memory():
    corpus = template_corpus(5, 60, 3)
    out, peak = _traced_peak(lambda: embed_hashed_tfidf(corpus, dim=4096))
    assert peak <= 5 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"


def test_dissimilarity_makes_no_row_copy():
    feats = _unit_feature_matrix()
    _, peak = _traced_peak(lambda: embedding_dissimilarity(feats))
    assert peak <= 0.5 * feats.data.nbytes, f"peak {peak / feats.data.nbytes:.2f}x the rows"
