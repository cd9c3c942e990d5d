"""Featurize streamed to a .gvfm a block at a time: the bytes of
store_features(featurize(...)), failures that leave an output as it was,
special-file outputs, and a command peak that does not hold the n x d rows."""

import json
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from gvendi import (
    FeatureMatrix,
    ProjectionSpec,
    Provenance,
    ProxyModel,
    embed_hashed_tfidf,
    featmat,
    featurize,
    ingest_jsonl,
    proxy,
    store_features,
    template_corpus,
    write_jsonl,
)
from gvendi.cli import main
from gvendi.featmat import FeatureStream

# 2048 columns make 128-row embedding blocks, as the gradient chunks are
EMBED = ["--embed-dim", "2048", "--embed-seed", "9"]
GRADIENT = ["--proj-dim", "64", "--proj-seed", "4"]


def _pool(tmp_path, n, name="pool.jsonl"):
    path = tmp_path / name
    write_jsonl(template_corpus(1, n, seed=n, name="pool"), path)
    return path


def _expected(corpus, featurizer):
    if featurizer == "gradient":
        model = ProxyModel.create()
        return featurize(model, ProjectionSpec(model.n_params, 64, seed=4), corpus)
    return embed_hashed_tfidf(corpus, dim=2048, seed=9)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("featurizer", ["gradient", "embedding"])
@pytest.mark.parametrize("n", [1, 2, 129, 130, 257])
def test_streamed_bytes_are_store_features_bytes(tmp_path, monkeypatch, capsys, n, featurizer,
                                                 workers):
    pool = _pool(tmp_path, n)
    expected = tmp_path / "expected.gvfm"
    store_features(_expected(ingest_jsonl(pool), featurizer), expected)
    monkeypatch.setattr(proxy, "_featurize_workers", lambda chunks: min(workers, chunks))
    out = tmp_path / "streamed.gvfm"
    extra = GRADIENT if featurizer == "gradient" else EMBED
    assert main(["featurize", "--input", str(pool), "--output", str(out),
                 "--featurizer", featurizer, *extra]) == 0
    assert out.read_bytes() == expected.read_bytes()
    dim = 64 if featurizer == "gradient" else 2048
    assert json.loads(capsys.readouterr().out) == {"rows": n, "dim": dim, "output": str(out)}


def _failing_pool(tmp_path):
    """520 rows whose row 400, in chunk 3 (rows 384-511), has no output."""
    corpus = template_corpus(1, 520, seed=3, name="pool")
    records = [s.to_json_dict() for s in corpus]
    records[400]["output"] = ""
    path = tmp_path / "failing.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path, records[400]["id"]


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_chunk_names_its_sample_and_keeps_the_old_output(tmp_path, monkeypatch, capsys,
                                                                 workers):
    monkeypatch.setattr(proxy, "_featurize_workers", lambda chunks: min(workers, chunks))
    pool, bad_id = _failing_pool(tmp_path)
    out = tmp_path / "out.gvfm"
    out.write_bytes(b"old bytes")
    written = []
    check_rows = featmat._check_rows
    monkeypatch.setattr(featmat, "_check_rows",
                        lambda rows, first: written.append((first, len(rows)))
                        or check_rows(rows, first))
    assert main(["featurize", "--input", str(pool), "--output", str(out), *GRADIENT]) == 1
    err = capsys.readouterr().err
    assert err == f"error: ValueError: sample {bad_id!r}: output is empty, no target tokens\n"
    assert written == [(0, 128), (128, 128), (256, 128)]  # the chunks before it
    assert out.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["failing.jsonl", "out.gvfm"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
@pytest.mark.parametrize("fails", [False, True], ids=["whole", "partial"])
def test_featurize_to_a_fifo_streams_in_place(tmp_path, capsys, fails):
    pool, _ = _failing_pool(tmp_path) if fails else (_pool(tmp_path, 300), None)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        rc = main(["featurize", "--input", str(pool), "--output", str(fifo), *GRADIENT])
    finally:
        reader.join(10)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    expected = tmp_path / "expected.gvfm"
    if fails:
        # a special file keeps what it was sent: the header and chunks 0-2
        assert rc == 1 and capsys.readouterr().err.startswith("error: ValueError: sample ")
        model = ProxyModel.create()
        head = featurize(model, ProjectionSpec(model.n_params, 64, seed=4),
                         ingest_jsonl(pool).subset(range(384)))
        store_features(head, expected)
        rows = 384 * 64 * 4
        assert len(read[0]) == 37 + rows  # a 520-row header, then no id
        assert read[0][37:] == expected.read_bytes()[37 : 37 + rows]
    else:
        assert rc == 0
        store_features(_expected(ingest_jsonl(pool), "gradient"), expected)
        assert read == [expected.read_bytes()]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
def test_featurize_to_a_dev_fd_path_writes_the_open_file(tmp_path):
    pool = _pool(tmp_path, 130)
    path = tmp_path / "out.gvfm"
    with open(path, "wb") as held:
        inode = os.fstat(held.fileno()).st_ino
        assert main(["featurize", "--input", str(pool), "--output", f"/dev/fd/{held.fileno()}",
                     "--featurizer", "embedding", *EMBED]) == 0
    expected = tmp_path / "expected.gvfm"
    store_features(_expected(ingest_jsonl(pool), "embedding"), expected)
    assert path.read_bytes() == expected.read_bytes() and path.stat().st_ino == inode


def _command_peak(tmp_path, n, extra):
    pool = tmp_path / f"pool-{n}.jsonl"
    write_jsonl(template_corpus(10, n // 10, seed=3, name="pool"), pool)
    tracemalloc.start()
    try:
        assert main(["featurize", "--input", str(pool), "--output", str(tmp_path / "out.gvfm"),
                     *extra]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("extra, dim", [
    (["--vocab-size", "256", "--feature-dim", "16", "--proj-dim", "2048"], 2048),
    (["--featurizer", "embedding", "--embed-dim", "4096"], 4096),
], ids=["gradient", "embedding"])
def test_featurize_command_peak_is_flat_in_n(tmp_path, capsys, extra, dim):
    # what still grows is the corpus and, for embeddings, the sparse rows:
    # well under the n x dim float32 rows a held output would add. A size's
    # peak is the least of 3 runs, since whether two workers' projection
    # copies are alive at once moves a single run's peak by about 2 MB
    small, large = (min(_command_peak(tmp_path, n, extra) for _ in range(3))
                    for n in (300, 3000))
    output_growth = (3000 - 300) * dim * 4
    assert large - small <= output_growth / 4, (
        f"peak grew {(large - small) / output_growth:.2f}x the output from 300 to 3000 rows"
    )


def test_stream_checks_rows_by_their_index_in_the_matrix(tmp_path):
    rows = np.eye(3, 4, dtype=np.float32)
    bad = rows.copy()
    bad[1] *= 2
    stream = FeatureStream(("a", "b", "c", "d", "e", "f"), 4, Provenance("external"),
                           lambda emit: (emit(rows), emit(bad)))
    out = tmp_path / "f.gvfm"
    out.write_bytes(b"old")
    with pytest.raises(ValueError, match="^row 4 has norm 2;"):
        stream.store(out)
    with pytest.raises(ValueError, match="^row 4 has norm 2;"):
        stream.collect()
    assert out.read_bytes() == b"old"


@pytest.mark.parametrize("blocks, match", [
    ([np.eye(2, 4, dtype=np.float32)], "^2 rows streamed for 3 ids$"),
    ([np.eye(4, dtype=np.float32)], r"^a block of shape \(4, 4\) after 0 rows does not fit 3 x 4"),
    ([np.eye(3, 5, dtype=np.float32)], r"^a block of shape \(3, 5\) after 0 rows"),
    ([np.ones(4, dtype=np.float32) / 2], r"^a block of shape \(4,\) after 0 rows"),
])
def test_stream_rejects_blocks_that_do_not_fit(tmp_path, blocks, match):
    stream = FeatureStream(("a", "b", "c"), 4, Provenance("external"),
                           lambda emit: [emit(b) for b in blocks])
    with pytest.raises(ValueError, match=match):
        stream.store(tmp_path / "f.gvfm")
    with pytest.raises(ValueError, match=match):
        stream.collect()
    assert not any(tmp_path.iterdir())


def test_stream_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        FeatureStream(("a", "a"), 4, Provenance("external"), lambda emit: None)


def test_collect_is_the_feature_matrix_of_the_blocks():
    rows = np.eye(5, 3, dtype=np.float32)
    stream = FeatureStream(tuple("abcde"), 3, Provenance("external", 7, 8),
                           lambda emit: (emit(rows[:2]), emit(rows[2:])))
    feats = stream.collect()
    expected = FeatureMatrix(rows, tuple("abcde"), Provenance("external", 7, 8))
    assert feats.data.tobytes() == expected.data.tobytes()
    assert (feats.sample_ids, feats.provenance) == (expected.sample_ids, expected.provenance)


@pytest.mark.parametrize("workers", [1, 2])
def test_featurize_blocks_kept_as_handed_are_collects_rows(monkeypatch, workers):
    """Each chunk's block is its own: blocks kept as handed, without a copy,
    still hold collect()'s rows once the stream has ended."""
    monkeypatch.setattr(proxy, "_featurize_workers", lambda chunks: min(workers, chunks))
    model = ProxyModel.create()
    stream = proxy.featurize_stream(model, ProjectionSpec(model.n_params, 64, seed=4),
                                    template_corpus(1, 5 * 128, seed=3, name="pool"))
    kept = []
    stream.blocks(kept.append)
    assert len(kept) == 5
    assert np.concatenate(kept).tobytes() == stream.collect().data.tobytes()
