import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gvendi
from gvendi import (
    Corpus,
    FeatureMatrix,
    ProjectionSpec,
    Provenance,
    ProxyModel,
    Sample,
    embed_hashed_tfidf,
    embedding_dissimilarity,
    embedding_vendi,
    featurize,
    g_vendi,
    mean_nll,
    ngram_entropy,
    tag_entropy,
    template_corpus,
    vendi_score,
)
from gvendi import blas, metrics
from gvendi.metrics import (
    _csr,
    _eigvalsh,
    _sparse_gram,
    effective_rank_entropy,
    report_from_features,
    report_from_tfidf,
)
from gvendi.proxy import _tfidf_rows
from gvendi.rng import rng_from


def unit_rows(data):
    data = np.asarray(data, dtype=np.float64)
    return data / np.linalg.norm(data, axis=1)[:, None]


def fm(data, prefix="r"):
    data = np.asarray(data, dtype=np.float32)
    return FeatureMatrix(data, tuple(f"{prefix}{i}" for i in range(data.shape[0])), Provenance("external"))


def brute_force_vendi(data):
    """Oracle: eigenvalues of the full n x n Gram matrix, direct entropy."""
    g = np.asarray(data, dtype=np.float64)
    lam = np.linalg.eigvalsh(g @ g.T / g.shape[0])
    lam = lam[lam > 1e-12]
    lam = lam / lam.sum()
    return float(np.exp(-(lam * np.log(lam)).sum()))


def test_identical_rows_give_one():
    row = unit_rows(rng_from(1).normal(size=(1, 6)))[0]
    feats = fm(np.tile(row, (7, 1)))
    assert vendi_score(feats) == pytest.approx(1.0, abs=1e-9)


def test_orthonormal_rows_give_n():
    feats = fm(np.eye(5, 9))
    assert vendi_score(feats) == pytest.approx(5.0, abs=1e-9)


def test_two_rows_half_cosine_closed_form():
    feats = fm([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    expected = math.exp(-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)))
    assert vendi_score(feats) == pytest.approx(expected, abs=1e-6)
    assert brute_force_vendi(feats.data) == pytest.approx(expected, abs=1e-6)


def test_gram_routes_agree_with_oracle():
    for trial in range(30):
        rng = rng_from(300 + trial)
        n, d = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        feats = fm(unit_rows(rng.normal(size=(n, d))))
        assert vendi_score(feats) == pytest.approx(brute_force_vendi(feats.data), abs=1e-8)


def test_bounds_hold():
    for trial in range(20):
        rng = rng_from(600 + trial)
        n, d = int(rng.integers(1, 40)), int(rng.integers(2, 20))
        v = vendi_score(fm(unit_rows(rng.normal(size=(n, d)))))
        assert 1.0 - 1e-9 <= v <= n + 1e-9


def test_duplicating_corpus_keeps_score():
    rng = rng_from(12)
    data = unit_rows(rng.normal(size=(9, 5)))
    single = vendi_score(fm(data))
    doubled = vendi_score(fm(np.vstack([data, data]), prefix="d"))
    assert doubled == pytest.approx(single, abs=1e-6)


def test_replacing_duplicate_with_orthogonal_row_increases_score():
    base = np.eye(4, 8)[[0, 1, 2, 0]]  # row 0 duplicated
    with_dup = vendi_score(fm(base))
    base[3] = np.eye(4, 8)[3]
    without_dup = vendi_score(fm(base))
    assert without_dup > with_dup


def test_permutation_invariance():
    rng = rng_from(55)
    data = unit_rows(rng.normal(size=(24, 7)))
    perm = rng.permutation(24)
    a = vendi_score(fm(data))
    b = vendi_score(fm(data[perm]))
    assert b == pytest.approx(a, abs=1e-12)
    assert embedding_dissimilarity(fm(data[perm])) == pytest.approx(
        embedding_dissimilarity(fm(data)), abs=1e-12
    )


def test_vendi_rejects_empty_zero_and_non_unit():
    with pytest.raises(ValueError, match="empty"):
        vendi_score(fm(np.zeros((0, 4))))
    with pytest.raises(ValueError, match="degenerate"):
        vendi_score(FeatureMatrix(np.zeros((2, 4), dtype=np.float32), ("a", "b"), Provenance("external")))


def test_zero_rows_score_as_the_nonzero_rows():
    rows = unit_rows(rng_from(41).normal(size=(12, 9)))
    rows[:, 4] = 0.0  # an unused column, so the column gather runs too
    rows = unit_rows(rows)
    with_zero = fm(np.insert(rows, [0, 5, 5, 12], 0.0, axis=0))
    nonzero = fm(rows)
    assert with_zero.degenerate_mask().sum() == 4
    for score in (vendi_score, embedding_dissimilarity):
        assert score(with_zero).hex() == score(nonzero).hex()
    for metric in ("g_vendi", "embedding_dissim"):
        report = report_from_features(metric, with_zero, {"k": 1})
        expected = report_from_features(metric, nonzero, {"k": 1})
        assert report.value.hex() == expected.value.hex()
        assert (report.n, report.params) == (12, {"k": 1, "degenerate_dropped": 4})
        assert expected.params["degenerate_dropped"] == 0


def test_g_vendi_single_sample_is_one():
    corpus = Corpus((Sample(id="a", input="hello there", output="general"),), name="t")
    model = ProxyModel.create(vocab_size=256, feature_dim=16)
    report = g_vendi(model, ProjectionSpec(model.n_params, 8, seed=2), corpus)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert report.metric == "g_vendi"
    assert report.n == 1


def test_g_vendi_frees_its_sign_matrix_before_scoring():
    # the caller's spec keeps no matrix, so none is held through the Gram
    corpus = Corpus((Sample(id="a", input="hi", output="there"),
                     Sample(id="b", input="yo", output="where")), name="t")
    model = ProxyModel.create(vocab_size=256, feature_dim=16)
    proj = ProjectionSpec(model.n_params, 8, seed=2)
    assert g_vendi(model, proj, corpus).n == 2
    assert "signs" not in proj.__dict__


def test_g_vendi_duplicated_corpus_matches_and_permutes():
    texts = ["alpha beta", "gamma delta", "tiny epsilon", "zeta eta theta"]
    samples = tuple(Sample(id=f"s{i}", input=t, output=t.upper()) for i, t in enumerate(texts))
    model = ProxyModel.create(vocab_size=256, feature_dim=24)
    proj = ProjectionSpec(model.n_params, 16, seed=3)
    base = g_vendi(model, proj, Corpus(samples, name="t")).value

    doubled = tuple(
        Sample(id=f"{s.id}-{r}", input=s.input, output=s.output) for r in range(2) for s in samples
    )
    assert g_vendi(model, proj, Corpus(doubled, name="t2")).value == pytest.approx(base, abs=1e-6)

    rng = rng_from(9)
    perm = tuple(samples[int(i)] for i in rng.permutation(len(samples)))
    assert g_vendi(model, proj, Corpus(perm, name="t3")).value == pytest.approx(base, abs=1e-12)


def test_g_vendi_counts_degenerate_rows():
    model = ProxyModel(1, 4, np.zeros((1, 4)), hash_seed=3)
    proj = ProjectionSpec(4, 2, seed=5)
    corpus = Corpus(
        (Sample(id="z", input="q", output="\x00"), Sample(id="z2", input="qq", output="\x00")),
        name="t",
    )
    with pytest.raises(ValueError, match="degenerate"):
        g_vendi(model, proj, corpus)


def test_embedding_vendi_runs_on_text():
    texts = ["one fish two fish", "red fish blue fish", "completely different words here"]
    corpus = Corpus(tuple(Sample(id=f"s{i}", input=t, output="") for i, t in enumerate(texts)), name="t")
    report = embedding_vendi(corpus, dim=512, seed=7)
    assert report.metric == "embedding_vendi"
    assert 1.0 <= report.value <= 3.0


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _full_width_vendi(data):
    """vendi_score over the float64 Gram of every column, n x n when n <= d,
    with the program's spectrum: the dense rows' Gram, which the sparse Gram
    of embedding rows matches."""
    mat = np.asarray(data, dtype=np.float64)
    n, d = mat.shape
    gram = (mat @ mat.T if n <= d else mat.T @ mat) / n
    return float(np.exp(effective_rank_entropy(_eigvalsh(gram))))


def _with_zero_rows(corpus):
    zero = (Sample(id="empty", input="", output=""), Sample(id="one-token", input="solo", output=""))
    return Corpus(corpus.samples + zero, name=corpus.name)


@pytest.mark.parametrize(
    "corpus, dim, n_above_u",
    [
        (template_corpus(6, 20, 1), 32768, False),
        (template_corpus(5, 40, 3), 64, True),
        (_with_zero_rows(template_corpus(4, 15, 2)), 2048, False),
    ],
    ids=["n-at-most-u", "n-above-u", "degenerate-rows"],
)
def test_sparse_tfidf_reports_match_dense_path(corpus, dim, n_above_u):
    dense = embed_hashed_tfidf(corpus, dim=dim)
    used = dense.take(np.flatnonzero(~dense.degenerate_mask()))
    assert (used.rows > int(used.data.any(axis=0).sum())) == n_above_u
    assert embedding_vendi(corpus, dim=dim).to_json() == report_from_features(
        "embedding_vendi", dense, {"dim": dim}
    ).to_json()
    assert report_from_tfidf("embedding_dissim", corpus, {}, dim=dim).to_json() == (
        report_from_features("embedding_dissim", dense, {}).to_json()
    )


@pytest.mark.parametrize(
    "metric, texts",
    [
        ("embedding_vendi", []),
        ("embedding_vendi", ["", "solo"]),
        ("embedding_dissim", []),
        ("embedding_dissim", ["", "solo"]),
        ("embedding_dissim", ["two words", "solo"]),
    ],
)
def test_sparse_tfidf_errors_match_dense_path(metric, texts):
    corpus = Corpus(tuple(Sample(id=f"s{i}", input=t, output="") for i, t in enumerate(texts)), name="t")
    with pytest.raises(ValueError) as dense:
        report_from_features(metric, embed_hashed_tfidf(corpus, dim=64), {})
    with pytest.raises(ValueError) as sparse:
        report_from_tfidf(metric, corpus, {}, dim=64)
    assert str(sparse.value) == str(dense.value)


@pytest.mark.parametrize("dim", [512, 4096, 32768])
def test_vendi_score_drops_unused_tfidf_columns_keeping_bits(dim):
    dense = embed_hashed_tfidf(template_corpus(5, 30, 4), dim=dim)
    feats = dense.take(np.flatnonzero(~dense.degenerate_mask()))
    assert not feats.data.any(axis=0).all()
    assert vendi_score(feats) == _full_width_vendi(feats.data)


def test_vendi_score_keeps_unused_dense_columns():
    # dense rows with all-zero columns take the Gram over every column, so
    # their score is the full-width one bit for bit
    rng = rng_from(31)
    data = rng.normal(size=(40, 300))
    data[:, rng.choice(300, 120, replace=False)] = 0.0
    feats = fm(unit_rows(data))
    assert vendi_score(feats) == _full_width_vendi(feats.data)


needs_dsyevd = pytest.mark.skipif(
    blas._dsyevd() is None, reason="this numpy's BLAS has no LAPACKE_dsyevd binding"
)


@needs_dsyevd
def test_spectrum_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    threads = blas._openblas_threads()
    count = threads[0] if threads else (lambda: None)
    seen = []
    dsyevd = blas._dsyevd()
    monkeypatch.setattr(
        blas, "_dsyevd", lambda: lambda *args: seen.append(count()) or dsyevd(*args)
    )
    before = count()
    _eigvalsh(np.eye(3))
    assert seen == [1 if threads else None]
    assert count() == before


def test_spectrum_bits_do_not_depend_on_blas_threads():
    """A 1024 x 1024 spectrum in child processes at the default, 1 and 3
    OpenBLAS threads, in place and, with the binding made absent, through
    `np.linalg.eigvalsh`. The Gram's entries are sums of small integers,
    exact in any order, so only the spectrum could move."""
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from gvendi import blas\n"
        "from gvendi.metrics import _eigvalsh\n"
        "from gvendi.rng import rng_from\n"
        "m = rng_from(43).integers(-3, 4, size=(1024, 1500)).astype(np.float64)\n"
        "gram = m @ m.T / 1500\n"
        "print(hashlib.sha256(_eigvalsh(gram.copy())).hexdigest())\n"
        "blas._dsyevd = lambda: None\n"
        "print(hashlib.sha256(_eigvalsh(gram)).hexdigest())\n"
    )
    src = str(Path(gvendi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = {}
    for threads in (None, "1", "3"):
        env = {**os.environ, "PYTHONPATH": path}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        else:
            env.pop("OPENBLAS_NUM_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests[threads] = proc.stdout.split()
    assert len(digests["1"]) == 2
    assert digests["1"] == digests["3"] == digests[None]
    assert digests["1"][0] == digests["1"][1]  # in place == through eigvalsh


def _reference_spectrum(gram):
    """`np.linalg.eigvalsh` of a copy on one BLAS thread, as it was computed
    before the spectrum ran in place."""
    with blas.one_thread():
        return np.linalg.eigvalsh(gram.copy())


def _assert_spectrum_bits(monkeypatch, gram, in_place):
    """`_eigvalsh(gram)` has the reference's bits, and it called the binding
    once if `in_place`, else not at all."""
    expected = _reference_spectrum(gram)
    calls, dsyevd = [], blas._dsyevd()
    if dsyevd is not None:
        monkeypatch.setattr(blas, "_dsyevd", lambda: lambda *a: calls.append(a[3]) or dsyevd(*a))
    got = _eigvalsh(gram)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert calls == ([len(expected)] if in_place else [])


@pytest.fixture(scope="module")
def gradient_rows():
    model = ProxyModel.create()
    proj = ProjectionSpec(model.n_params, 1024, seed=7)
    feats = featurize(model, proj, template_corpus(8, 130, 5))  # 1040 rows
    return feats.data.astype(np.float64)


@needs_dsyevd
@pytest.mark.parametrize("n", [1, 2, 3, 600, 1031])
@pytest.mark.parametrize("side", ["n x n", "d x d"])
def test_spectrum_in_place_keeps_eigvalsh_bits_on_gradient_grams(
    monkeypatch, gradient_rows, n, side
):
    mat = gradient_rows[:n]
    gram = (mat @ mat.T if side == "n x n" else mat.T @ mat) / n
    _assert_spectrum_bits(monkeypatch, gram, in_place=True)


@needs_dsyevd
def test_spectrum_in_place_keeps_eigvalsh_bits_on_a_sparse_gram(monkeypatch):
    rows = _tfidf_rows(template_corpus(6, 50, 2), 4096, 11)
    gram = _sparse_gram(rows)
    assert 1 < gram.shape[0] == len(rows.indptr) - 1
    _assert_spectrum_bits(monkeypatch, gram, in_place=True)


@needs_dsyevd
@pytest.mark.parametrize("m", [2, 17, 600])
def test_spectrum_in_place_reads_the_lower_triangle(monkeypatch, m):
    gram = rng_from(53, m).normal(size=(m, m))
    assert not np.array_equal(gram, gram.T)
    _assert_spectrum_bits(monkeypatch, gram, in_place=True)


@pytest.mark.parametrize("m", [1, 3, 600])
def test_spectrum_without_the_binding_takes_eigvalsh_with_the_same_bits(monkeypatch, m):
    mat = rng_from(59, m).normal(size=(m, 700))
    gram = mat @ mat.T / m
    gram[np.triu_indices(m, 1)] += 1.0  # an upper triangle that must not be read
    monkeypatch.setattr(blas, "_dsyevd", lambda: None)
    _assert_spectrum_bits(monkeypatch, gram, in_place=False)


@pytest.mark.parametrize(
    "gram",
    [
        np.asfortranarray(np.diag([3.0, 1.0, 2.0]) + 0.5),
        np.diag([3.0, 1.0, 2.0]).astype(np.float32),
        np.arange(16.0).reshape(4, 4)[::2, ::2],
    ],
    ids=["fortran-order", "float32", "strided"],
)
def test_spectrum_of_other_arrays_takes_eigvalsh(monkeypatch, gram):
    _assert_spectrum_bits(monkeypatch, gram, in_place=False)


@pytest.mark.parametrize("info, error", [(1, np.linalg.LinAlgError), (-5, ValueError)])
def test_spectrum_in_place_raises_when_lapack_fails(monkeypatch, info, error):
    # info > 0: no convergence, as numpy raises it; info < 0: a bad argument
    monkeypatch.setattr(blas, "_dsyevd", lambda: lambda *args: info)
    with pytest.raises(error):
        _eigvalsh(np.eye(3))


def test_vendi_score_gathers_no_column_of_gradient_features():
    model = ProxyModel.create()
    feats = featurize(model, ProjectionSpec(model.n_params), template_corpus(5, 60, 3))
    assert feats.data.any(axis=0).all()
    # the float64 copy is 2x the float32 rows and the 300 x 300 Gram 0.6x;
    # a column gather would add a float32 copy, 1x more
    _, peak = _traced_peak(lambda: vendi_score(feats))
    assert peak <= 3.0 * feats.data.nbytes, f"peak {peak / feats.data.nbytes:.2f}x the rows"


def test_embedding_vendi_never_builds_the_dense_rows():
    corpus = template_corpus(10, 60, 3)
    dense_bytes = len(corpus) * 32768 * 4
    _, peak = _traced_peak(lambda: embedding_vendi(corpus, dim=32768))
    assert peak <= 0.5 * dense_bytes, f"peak {peak / dense_bytes:.2f}x the dense rows"


def test_vendi_score_on_embedding_rows_takes_the_sparse_gram(monkeypatch):
    corpus = _with_zero_rows(template_corpus(6, 25, 5))
    feats = embed_hashed_tfidf(corpus)
    expected = embedding_vendi(corpus)

    def no_dense_gram(mat):
        raise AssertionError("embedding rows took the dense Gram")

    monkeypatch.setattr(metrics, "_gram", no_dense_gram)
    assert vendi_score(feats) == expected.value
    assert report_from_features("embedding_vendi", feats, {"dim": 32768}).to_json() == (
        expected.to_json()
    )


def _sequential_gram(mat):
    """The Gram of dense float64 rows, each entry summed from 0 in the order
    of the inner dimension: one outer product per column (n x n side) or per
    row (u x u side), divided by n."""
    n, u = mat.shape
    gram = np.zeros((min(n, u),) * 2)
    for vec in (mat.T if n <= u else mat):
        gram += np.outer(vec, vec)
    return gram / n


@pytest.mark.parametrize(
    "corpus, dim, n_above_u",
    [
        (template_corpus(6, 20, 1), 32768, False),
        (template_corpus(5, 40, 3), 64, True),
        (template_corpus(4, 100, 9), 128, True),
    ],
    ids=["n-by-n", "u-by-u-64", "u-by-u-128"],
)
def test_sparse_gram_matches_dense_references(corpus, dim, n_above_u):
    feats = embed_hashed_tfidf(corpus, dim=dim)
    data = feats.data[~feats.degenerate_mask()]
    mat = data[:, data.any(axis=0)].astype(np.float64)
    assert (mat.shape[0] > mat.shape[1]) == n_above_u
    gram = _sparse_gram(_csr(data))
    assert gram.shape == (min(mat.shape),) * 2
    assert gram.tobytes() == _sequential_gram(mat).tobytes()
    if not n_above_u:
        # an n x n entry of TF-IDF rows adds a few products, and the BLAS
        # Gram gives the same bits; a u x u entry adds one per row sharing
        # both buckets, and OpenBLAS's blocked sums may round otherwise
        assert gram.tobytes() == (mat @ mat.T / mat.shape[0]).tobytes()


def test_sparse_gram_matches_its_reference_on_dense_signed_rows():
    # many shared columns per entry, negative and zero weights: the order of
    # the sum, not the sparsity, fixes the bits
    rng = rng_from(61)
    for n, u in ((30, 80), (80, 30)):
        data = unit_rows(rng.normal(size=(n, u)) * (rng.random((n, u)) < 0.6)).astype(np.float32)
        mat = data[:, data.any(axis=0)].astype(np.float64)
        assert _sparse_gram(_csr(data)).tobytes() == _sequential_gram(mat).tobytes()


@pytest.mark.parametrize("families", [8, 20])
def test_sparse_gram_peak_is_the_gram_plus_a_fixed_buffer(families):
    rows = _tfidf_rows(template_corpus(families, 100, 2), 32768, 404)
    n, u = len(rows.indptr) - 1, np.unique(rows.bucket).size
    gram_bytes = min(n, u) ** 2 * 8
    _, peak = _traced_peak(lambda: _sparse_gram(rows))
    # the buffer holds one block of products and a few arrays as long as the
    # nonzeros (22k and 54k here); a dense n x u float64 copy would add 19
    # and 100 MB, and all the products at once 10 and 38 MB
    assert peak <= gram_bytes + (6 << 20), (peak - gram_bytes) / 2**20


def test_dissimilarity_identical_rows():
    row = unit_rows(rng_from(2).normal(size=(1, 4)))[0]
    assert embedding_dissimilarity(fm(np.tile(row, (5, 1)))) == pytest.approx(0.0, abs=1e-7)


def test_dissimilarity_orthogonal_pair():
    assert embedding_dissimilarity(fm(np.eye(2, 4))) == pytest.approx(1.0, abs=1e-9)


def test_dissimilarity_three_rows_pairwise_half():
    # three unit vectors with pairwise cosine exactly 0.5
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.5, math.sqrt(3) / 2, 0.0])
    c = np.array([0.5, math.sqrt(3) / 6, math.sqrt(6) / 3])
    feats = fm(np.vstack([a, b, c]))
    pair_mean = np.mean(
        [1 - float(x @ y) for x, y in [(a, b), (a, c), (b, c)]]
    )
    assert pair_mean == pytest.approx(0.5, abs=1e-12)
    assert embedding_dissimilarity(feats) == pytest.approx(0.5, abs=1e-6)


def test_dissimilarity_needs_two_rows():
    with pytest.raises(ValueError):
        embedding_dissimilarity(fm(np.eye(1, 4)))


def corpus_from_texts(*texts):
    return Corpus(tuple(Sample(id=f"s{i}", input=t, output="") for i, t in enumerate(texts)), name="t")


def test_ngram_entropy_single_repeated_bigram():
    assert ngram_entropy(corpus_from_texts("go go"), order=2) == pytest.approx(0.0, abs=1e-12)


def test_ngram_entropy_two_one_split():
    # tokens a b a b -> bigrams {ab: 2, ba: 1}
    expected = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
    assert ngram_entropy(corpus_from_texts("a b a b"), order=2) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.6365, abs=5e-5)


def test_ngram_entropy_uniform_k_bigrams():
    corpus = corpus_from_texts("a b", "c d", "e f", "g h")
    assert ngram_entropy(corpus, order=2) == pytest.approx(math.log(4), abs=1e-12)


def test_ngram_entropy_case_folds_and_respects_boundaries():
    # "B a" would only arise across the sample boundary; entropy must count 2 bigram types
    corpus = corpus_from_texts("A b", "a B")
    assert ngram_entropy(corpus, order=2) == pytest.approx(0.0, abs=1e-12)


def test_ngram_entropy_errors():
    with pytest.raises(ValueError, match="empty"):
        ngram_entropy(Corpus((), name="t"))
    with pytest.raises(ValueError, match="fewer"):
        ngram_entropy(corpus_from_texts("single"), order=2)


def tagged(tag_lists):
    return Corpus(
        tuple(
            Sample(id=f"s{i}", input="x", output="", tags=tuple(ts) if ts else None)
            for i, ts in enumerate(tag_lists)
        ),
        name="t",
    )


def test_tag_entropy_single_tag_zero():
    assert tag_entropy(tagged([["algebra"]] * 6)) == pytest.approx(0.0, abs=1e-12)


def test_tag_entropy_uniform_four():
    corpus = tagged([["a"], ["b"], ["c"], ["d"]])
    assert tag_entropy(corpus) == pytest.approx(math.log(4), abs=1e-12)


def test_tag_entropy_three_one_split():
    corpus = tagged([["a"], ["a"], ["a"], ["b"]])
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert tag_entropy(corpus) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.5623, abs=5e-5)


def test_tag_entropy_dedupes_within_sample():
    assert tag_entropy(tagged([["a", "a"], ["b"]])) == pytest.approx(math.log(2), abs=1e-12)


def test_tag_entropy_requires_tags():
    with pytest.raises(ValueError, match="tags"):
        tag_entropy(tagged([None, None]))


def test_mean_nll_uniform_and_perfect():
    corpus = Corpus(
        (Sample(id="a", input="q", output="abc"), Sample(id="b", input="r", output="de")),
        name="t",
    )
    uniform = ProxyModel(256, 8, np.zeros((256, 8)), hash_seed=1)
    assert mean_nll(uniform, corpus) == pytest.approx(math.log(256.0), rel=1e-12)

    perfect = ProxyModel(1, 4, np.zeros((1, 4)), hash_seed=1)
    one = Corpus((Sample(id="a", input="q", output="\x00\x00"),), name="t")
    assert mean_nll(perfect, one) == pytest.approx(0.0, abs=1e-12)


def test_mean_nll_matches_direct_summation():
    rng = rng_from(31)
    model = ProxyModel(64, 6, rng.uniform(-0.3, 0.3, size=(64, 6)), hash_seed=8)
    texts = [("ab", "\x11\x22"), ("x", "\x05\x28!"), ("", "\x01#")]
    corpus = Corpus(tuple(Sample(id=f"s{i}", input=a, output=b) for i, (a, b) in enumerate(texts)), name="t")
    from gvendi import sample_nll

    expected = np.mean([sample_nll(model, s)[0] / len(s.output.encode()) for s in corpus])
    assert mean_nll(model, corpus) == pytest.approx(float(expected), abs=1e-9)


def test_report_json_shape():
    report = embedding_vendi(corpus_from_texts("a b c", "d e f"), dim=256, seed=4)
    import json

    obj = json.loads(report.to_json())
    assert set(obj) == {"metric", "value", "n", "params"}
