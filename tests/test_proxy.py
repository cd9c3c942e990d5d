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
    blob_features,
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
from gvendi import proxy
from gvendi.proxy import _context_features
from gvendi.rng import _MIX1, _STREAM_SALT, _splitmix64, mix64, rng_from, sign_block


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
    c = featurize(model, ProjectionSpec(model.n_params, 32, seed=13), corpus)
    assert a.data.tobytes() == b.data.tobytes() == c.data.tobytes()
    assert a.provenance == b.provenance == c.provenance


def test_featurize_provenance_names_the_kernel_revision():
    # rows from the float64-projection kernel carried the bare model fingerprint
    corpus = corpus_of(["one two", "three four five"])
    model = ProxyModel.create(vocab_size=256, feature_dim=24)
    prov = featurize(model, ProjectionSpec(model.n_params, 32, seed=13), corpus).provenance
    assert prov.featurizer == "proxy_gradient" and prov.seed == 13
    assert prov.fingerprint != model.fingerprint()
    assert prov.fingerprint == mix64(model.fingerprint(), proxy._FEATURIZE_REVISION)


def test_gradient_provenance_is_what_featurize_stamps():
    seen = set()
    for weight_seed in (202, 203):
        model = ProxyModel.create(vocab_size=256, feature_dim=8, weight_seed=weight_seed)
        for seed in (13, 14):
            proj = ProjectionSpec(model.n_params, 16, seed=seed)
            prov = proxy.gradient_provenance(model, proj)
            for corpus in (corpus_of(["one two", "three four five"]), Corpus(())):
                assert featurize(model, proj, corpus).provenance == prov
            seen.add(prov)
    assert len(seen) == 4


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


EMPTY = "output is empty, no target tokens"
NON_FINITE = "non-finite gradient (corrupt weights?)"


@pytest.mark.parametrize(
    "samples, weight, message",
    [
        ([("a", "x", "ok"), ("bad", "x", "")], 0.01, f"sample 'bad': {EMPTY}"),
        ([("a", "x", "ok"), ("v", "x", "\u00ff")], 0.01,
         "sample 'v': output byte 195 outside vocab of size 128"),
        ([("u", "\ud800", "ok")], 0.01,
         "sample 'u': 'utf-8' codec can't encode character '\\ud800' in position 0: "
         "surrogates not allowed"),
        # +-1.7e308 weights overflow the logits, so every softmax is nan; the
        # empty output fails first, yet the sample before it is the one named
        ([("a", "hello", "world"), ("bad", "x", "")], 1.7e308, f"sample 'a': {NON_FINITE}"),
        ([("bad", "x", ""), ("a", "hello", "world")], 1.7e308, f"sample 'bad': {EMPTY}"),
    ],
    ids=["empty", "vocab", "encode", "non-finite-first", "empty-first"],
)
def test_featurize_error_names_first_failing_sample_once(samples, weight, message):
    weights = np.full((128, 2), weight)
    weights[::2] *= -1.0
    model = ProxyModel(128, 2, weights, hash_seed=1)
    corpus = Corpus(tuple(Sample(id=i, input=x, output=y) for i, x, y in samples), name="t")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as excinfo:
        featurize(model, ProjectionSpec(model.n_params, 8, seed=1), corpus)
    assert str(excinfo.value) == message
    named = corpus.by_id(message.split("'")[1])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as excinfo:
        loss_gradient(model, named)
    assert str(excinfo.value) == message


def _padded_logits(model, phi, dtype):
    """phi's logits in `dtype` from a product of at least 8 rows, zero rows
    padding a shorter one, as the kernel computes them."""
    padded = np.zeros((max(len(phi), 8), phi.shape[1]), dtype=dtype)
    padded[: len(phi)] = phi
    return (padded @ model.weights.astype(dtype).T)[: len(phi)]


def _per_sample_gradient(model, sample, dtype):
    """The loss gradient in `dtype` from a logits product of its own: the
    per-sample reference."""
    phi, targets = _context_features(model, sample)
    logits = _padded_logits(model, phi, dtype)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(len(targets)), targets] -= 1.0
    return (probs.T @ phi.astype(dtype)).reshape(-1)


def _per_sample_featurize(model, proj, corpus):
    """featurize as one buffer of per-sample float32 gradients (zero rows
    padding it to at least 8), one float32 projection over 8192-row sign
    blocks and a float64 renormalisation: the chunked rows must equal it."""
    grads = np.zeros((max(len(corpus), 8), model.n_params), dtype=np.float32)
    for i, sample in enumerate(corpus):
        grads[i] = _per_sample_gradient(model, sample, np.float32)
    projected = np.zeros((len(grads), proj.target_dim), dtype=np.float32)
    for start in range(0, proj.source_dim, 8192):
        stop = min(start + 8192, proj.source_dim)
        projected += grads[:, start:stop] @ sign_block(proj.seed, start, stop, proj.target_dim)
    projected = projected[: len(corpus)].astype(np.float64)
    norms = np.linalg.norm(projected, axis=1)
    projected /= np.where(norms == 0.0, 1.0, norms)[:, None]
    return projected.astype(np.float32)


def _short_and_long_outputs(n):
    # 1-4-byte outputs take another BLAS kernel in a per-sample logits product
    rng = rng_from(31)
    lengths = [1, 150, 2, 3, 90, 4, 1, 200, 2]
    return Corpus(
        tuple(
            Sample(
                id=f"s{i}",
                input=random_bytes_text(rng, int(rng.integers(0, 40)), 128),
                output=random_bytes_text(rng, lengths[i % len(lengths)], 128),
            )
            for i in range(n)
        ),
        name="t",
    )


def test_chunked_featurize_matches_per_sample_reference(monkeypatch):
    monkeypatch.setattr(proxy, "_CHUNK_ROWS", 4)
    chunk_rows = []
    project_chunk = proxy.project

    def recording(spec, vecs):
        chunk_rows.append(vecs.shape[0])
        return project_chunk(spec, vecs)

    monkeypatch.setattr(proxy, "project", recording)
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params)
    for n in (0, 1, 2, 3, 4, 5, 9):
        corpus = _short_and_long_outputs(n)
        chunk_rows.clear()
        feats = featurize(model, proj, corpus)
        reference = _per_sample_featurize(model, proj, corpus)
        assert feats.data.tobytes() == reference.tobytes(), n
        assert chunk_rows == [4] * (n // 4) + [n % 4] * (n % 4 > 0), (n, chunk_rows)
    for sample in _short_and_long_outputs(9):
        reference = _per_sample_gradient(model, sample, np.float64)
        assert loss_gradient(model, sample).tobytes() == reference.tobytes(), sample.id


def test_featurize_row_does_not_depend_on_the_other_samples():
    # sub-corpora of 1-4-byte outputs give logits products of 2-7 rows
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 128, seed=5)
    corpus = _short_and_long_outputs(9)
    assert [len(s.output) for s in corpus] == [1, 150, 2, 3, 90, 4, 1, 200, 2]
    rows = dict(zip(corpus.ids(), featurize(model, proj, corpus).data))
    for picks in ([0, 6], [6, 0], [0, 2], [2, 8, 6], [3, 5], [5, 1], [7, 0, 4], [8, 3, 2, 0, 6]):
        sub = corpus.subset(picks)
        for sid, row in zip(sub.ids(), featurize(model, proj, sub).data):
            assert row.tobytes() == rows[sid].tobytes(), (picks, sid)


@pytest.mark.parametrize("dim", [32, 128, 1024])
def test_each_sample_featurized_alone_gives_its_row_in_the_corpus(dim):
    # a 1-row projection takes BLAS's matrix-vector kernel, and at width 32
    # one of 2-7 rows its small-matrix kernel, unless padded to 8 rows
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, dim, seed=5)
    corpus = _short_and_long_outputs(9)
    rows = featurize(model, proj, corpus).data
    for i, sid in enumerate(corpus.ids()):
        assert featurize(model, proj, corpus.subset([i])).data.tobytes() == rows[i].tobytes(), sid
    for picks in ([0, 6], [2, 8, 6], [8, 3, 2, 0, 6, 1, 4]):
        sub = featurize(model, proj, corpus.subset(picks)).data
        assert sub.tobytes() == rows[picks].tobytes(), picks


def _per_sample_nll(model, sample):
    """The total NLL from a logits product and log-softmax of its own: the
    per-sample reference."""
    phi, targets = _context_features(model, sample)
    logits = _padded_logits(model, phi, np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(targets)), targets].sum()), len(targets)


def test_sample_nll_matches_per_sample_reference():
    corpus = _short_and_long_outputs(18)
    assert {len(s.output) for s in corpus} >= {1, 2, 3, 4, 90, 150, 200}
    for model in (ProxyModel.create(), ProxyModel.create(feature_dim=24, weight_seed=9)):
        for sample in corpus:
            nll, tokens = sample_nll(model, sample)
            ref_nll, ref_tokens = _per_sample_nll(model, sample)
            assert np.float64(nll).tobytes() == np.float64(ref_nll).tobytes(), sample.id
            assert tokens == ref_tokens
    model = ProxyModel.create(vocab_size=4, feature_dim=2)
    with pytest.raises(ValueError) as excinfo:
        sample_nll(model, Sample(id="t", input="x", output=""))
    assert str(excinfo.value) == f"sample 't': {EMPTY}"
    with pytest.raises(ValueError) as excinfo:
        sample_nll(model, Sample(id="t", input="x", output="z"))
    assert str(excinfo.value) == "sample 't': output byte 122 outside vocab of size 4"


def test_projection_spec_builds_its_signs_once(monkeypatch):
    calls = []
    real_sign_block = proxy.sign_block

    def counting_sign_block(seed, start, stop, dim):
        calls.append(stop - start)
        return real_sign_block(seed, start, stop, dim)

    monkeypatch.setattr(proxy, "sign_block", counting_sign_block)
    corpus = corpus_of(["one two", "three four five", "six"])
    model = ProxyModel.create(vocab_size=256, feature_dim=24, hash_seed=11, weight_seed=12)
    proj = ProjectionSpec(model.n_params, 32, seed=13)
    a = featurize(model, proj, corpus)
    b = featurize(model, proj, corpus)
    assert calls == [model.n_params]
    assert not proj.signs.flags.writeable
    fresh = featurize(model, ProjectionSpec(model.n_params, 32, seed=13), corpus)
    assert a.data.tobytes() == b.data.tobytes() == fresh.data.tobytes()
    assert len(calls) == 2

    del calls[:]
    spec = ProjectionSpec(model.n_params, 32, seed=13)
    assert project(spec, rng_from(5).normal(size=(2, model.n_params))).shape == (2, 32)
    assert featurize(model, spec, corpus).data.tobytes() == a.data.tobytes()
    assert calls == [model.n_params]


def test_project_matches_blockwise_sign_reference():
    spec = ProjectionSpec(20000, 8, seed=3)
    vecs = rng_from(5).normal(size=(3, 20000))
    vecs[1] = 0.0
    reference = np.zeros((3, 8))
    for start in range(0, 20000, 8192):
        stop = min(start + 8192, 20000)
        reference += vecs[:, start:stop] @ sign_block(3, start, stop, 8)
    out = project(spec, vecs)
    assert out.tobytes() == reference.tobytes()
    assert not np.signbit(out[1]).any() and not out[1].any()


def test_project_float32_matches_blockwise_float32_reference():
    spec = ProjectionSpec(20000, 8, seed=3)
    vecs = rng_from(5).normal(size=(3, 20000)).astype(np.float32)
    vecs[1] = 0.0
    reference = np.zeros((3, 8), dtype=np.float32)
    for start in range(0, 20000, 8192):
        stop = min(start + 8192, 20000)
        reference += vecs[:, start:stop] @ sign_block(3, start, stop, 8)
    out = project(spec, vecs)
    assert out.dtype == np.float32 and out.tobytes() == reference.tobytes()
    assert not np.signbit(out[1]).any() and not out[1].any()


def test_projection_spec_signs_are_float32_built_in_place():
    spec = ProjectionSpec(16384, 1024)
    signs, peak = _traced_peak(lambda: spec.signs)
    assert signs.dtype == np.float32 and signs.nbytes == 64 * 2**20
    assert peak <= 1.25 * signs.nbytes, f"peak {peak / signs.nbytes:.2f}x the signs"


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


def _dense_tfidf_reference(corpus, dim, seed):
    """embed_hashed_tfidf's rows as they were built before the sparse rows:
    one dense bincount row per sample, idf-weighted, normalised whole."""
    bucket_lists = []
    df = np.zeros(dim, dtype=np.float64)
    for s in corpus:
        tokens = (s.input + " " + s.output).lower().split()
        buckets = np.array(
            [proxy._tfidf_bucket(tokens[i], tokens[i + 1], seed, dim) for i in range(len(tokens) - 1)],
            dtype=np.int64,
        )
        bucket_lists.append(buckets)
        if buckets.size:
            df[np.unique(buckets)] += 1.0
    n = len(corpus)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    data = np.zeros((n, dim), dtype=np.float32)
    for i, buckets in enumerate(bucket_lists):
        if buckets.size:
            row = np.bincount(buckets, minlength=dim) * idf
            data[i] = row / np.sqrt(np.add.reduce(row * row))
    return data


def _with_edge_samples(corpus):
    """The corpus plus an empty and a one-token sample (zero rows) and one
    that repeats a bigram."""
    edges = (
        Sample(id="empty", input="", output=""),
        Sample(id="one-token", input="word", output=""),
        Sample(id="repeat", input="a b a b a b", output="c d a b"),
    )
    return Corpus(corpus.samples + edges, name=corpus.name)


@pytest.mark.parametrize(
    "corpus, dim",
    [
        (_with_edge_samples(template_corpus(3, 10, 5)), 1024),
        (template_corpus(4, 20, 2), 64),
        (_with_edge_samples(template_corpus(5, 30, 3)), 32768),
    ],
    ids=["edge-rows", "collisions-dim-64", "dim-32768"],
)
def test_tfidf_rows_match_dense_reference(corpus, dim):
    feats = embed_hashed_tfidf(corpus, dim=dim, seed=404)
    assert feats.data.tobytes() == _dense_tfidf_reference(corpus, dim, 404).tobytes()
    if "empty" in corpus.ids():
        assert feats.degenerate_mask()[-3:].tolist() == [True, True, False]
    if dim == 64:  # more distinct bigrams than buckets, so some collide
        bigrams = set()
        for s in corpus:
            tokens = (s.input + " " + s.output).lower().split()
            bigrams.update(zip(tokens, tokens[1:]))
        assert len(bigrams) > dim


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


def test_id_table_defects_name_their_byte_counts(tmp_path):
    feats = FeatureMatrix(np.eye(3, 4, dtype=np.float32), ("a", "bb", "ccc"),
                          Provenance("external"))
    path = tmp_path / "f.gvfm"
    store_features(feats, path)
    blob = path.read_bytes()
    table = 37 + 3 * 4 * 4  # header, then the rows
    field_ends = [table + 4, table + 5, table + 9, table + 11, table + 15, table + 18]
    assert len(blob) == field_ends[-1]
    for cut in range(table, len(blob)):
        path.write_bytes(blob[:cut])
        need = next(end for end in field_ends if end > cut)
        with pytest.raises(ValueError) as e:
            load_features(path)
        assert str(e.value) == f"{path}: truncated id table: expected at least {need} bytes, got {cut}"
    path.write_bytes(blob + b"xy")
    with pytest.raises(ValueError) as e:
        load_features(path)
    assert str(e.value) == f"{path}: 2 trailing bytes after the id table"


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


def test_featurize_peak_is_flat_in_n():
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 16, seed=1)
    small, large = template_corpus(5, 60, 3), template_corpus(5, 400, 3)
    _, small_peak = _traced_peak(lambda: featurize(model, proj, small))
    _, large_peak = _traced_peak(lambda: featurize(model, proj, large))
    output_growth = (len(large) - len(small)) * proj.target_dim * 4
    assert large_peak <= 1.1 * small_peak + output_growth, (
        f"peak {large_peak / small_peak:.2f}x from {len(small)} to {len(large)} rows"
    )


def _sign_reference(seed, row_start, row_stop, dim):
    """Entry (i, j): bit j % 64 of the splitmix64 word at (i, j // 64), as +-1."""
    rows = np.arange(row_start, row_stop, dtype=np.uint64)
    cols = np.arange(dim, dtype=np.uint64)
    with np.errstate(over="ignore"):
        row_h = _splitmix64((rows * _STREAM_SALT) ^ np.uint64(mix64(seed)))
        words = _splitmix64(row_h[:, None] ^ ((cols // np.uint64(64) + np.uint64(1)) * _MIX1))
    bits = (words >> (cols % np.uint64(64))) & np.uint64(1)
    return bits.astype(np.float64) * 2.0 - 1.0


def test_sign_block_builds_in_place():
    for dim in (1, 63, 64, 65, 1024):
        signs = sign_block(9, 5, 300, dim)
        assert signs.dtype == np.float32 and signs.shape == (295, dim)
        assert signs.tobytes() == _sign_reference(9, 5, 300, dim).astype(np.float32).tobytes(), dim
    signs, peak = _traced_peak(lambda: sign_block(9, 0, 4096, 1024))
    assert peak <= 1.25 * signs.nbytes, f"peak {peak / signs.nbytes:.2f}x the output"


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


@pytest.mark.parametrize("selection", [[False, True], [False, True, True], [0.0, 1.0]],
                         ids=["bool-2", "bool-3", "float"])
def test_take_rejects_non_integer_selections(selection):
    feats = blob_features(1, 3, 4, 1, 2)
    with pytest.raises(TypeError, match="row indices must be integers"):
        feats.take(selection)


def test_take_of_empty_selection_has_no_rows():
    feats = blob_features(1, 3, 4, 1, 2)
    for empty in ([], np.array([], dtype=np.int64)):
        assert feats.take(empty).data.shape == (0, 4)


def test_tfidf_peak_memory():
    corpus = template_corpus(5, 60, 3)
    out, peak = _traced_peak(lambda: embed_hashed_tfidf(corpus, dim=4096))
    assert peak <= 1.5 * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"


def test_dissimilarity_makes_no_row_copy():
    feats = _unit_feature_matrix()
    _, peak = _traced_peak(lambda: embedding_dissimilarity(feats))
    assert peak <= 0.5 * feats.data.nbytes, f"peak {peak / feats.data.nbytes:.2f}x the rows"
