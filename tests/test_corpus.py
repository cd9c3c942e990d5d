import json
import tracemalloc

import numpy as np
import pytest

from gvendi import Corpus, Sample, content_id, ingest_jsonl, template_corpus, write_jsonl
from gvendi.rng import rng_from


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_ingest_preserves_line_order(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(
        p,
        [
            '{"id": "a", "input": "one", "output": "1"}',
            '{"id": "b", "input": "two", "output": "2"}',
            '{"id": "c", "input": "three", "output": "3"}',
        ],
    )
    corpus = ingest_jsonl(p)
    assert len(corpus) == 3
    assert corpus.ids() == ["a", "b", "c"]
    assert corpus[1].input == "two"


def test_missing_id_gets_content_hash(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "x", "output": "y"}'])
    corpus = ingest_jsonl(p)
    assert corpus[0].id == content_id("x", "y", None)
    assert len(corpus[0].id) == 64


def test_sample_hashes_its_content_once(monkeypatch):
    from gvendi import corpus as corpus_module

    calls = []

    def counting(*fields):
        calls.append(fields)
        return content_id(*fields)

    monkeypatch.setattr(corpus_module, "content_id", counting)
    s = Sample(id="a", input="x", output="y", label="z")
    assert s.content_id() == s.content_id() == content_id("x", "y", "z")
    assert calls == [("x", "y", "z")]
    assert s == Sample(id="a", input="x", output="y", label="z")
    assert repr(s) == repr(Sample(id="a", input="x", output="y", label="z"))


def test_byte_identical_noid_lines_dedup(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "x", "output": "y"}', '{"input": "x", "output": "y"}'])
    corpus = ingest_jsonl(p)
    assert len(corpus) == 1


def test_null_id_lines_dedup_like_missing_ids(tmp_path):
    p = tmp_path / "c.jsonl"
    null = '{"id": null, "input": "a", "output": "b"}'
    write_lines(p, [null, null, '{"input": "a", "output": "b"}'])
    corpus = ingest_jsonl(p)
    assert corpus.ids() == [content_id("a", "b", None)]


def test_noid_twin_that_reads_as_the_same_sample_dedups(tmp_path):
    # a null label is an absent one: both lines read as the same Sample
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "x", "output": "y"}',
                    '{"input": "x", "output": "y", "label": null}'])
    corpus = ingest_jsonl(p)
    assert corpus.samples == (Sample(content_id("x", "y", None), "x", "y"),)


@pytest.mark.parametrize("ids", [False, True], ids=["no-ids", "ids"])
def test_ingest_peak_is_near_what_the_corpus_keeps(tmp_path, ids):
    """ingest_jsonl holds each record once, as its Sample: its peak stays
    near the memory the corpus it returns keeps (20k rows)."""
    records = [s.to_json_dict() for s in template_corpus(40, 500, 3)]
    for r in records if not ids else ():
        del r["id"]
    p = tmp_path / "c.jsonl"
    write_lines(p, [json.dumps(r) for r in records])
    del records
    tracemalloc.start()
    try:
        corpus = ingest_jsonl(p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 20000
    assert peak <= 1.4 * kept, f"peak {peak / 1e6:.1f} MB, corpus keeps {kept / 1e6:.1f} MB"


def test_malformed_line_names_line_number(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "ok"}', "{bad", '{"input": "ok2"}'])
    with pytest.raises(ValueError, match="line 2"):
        ingest_jsonl(p)


def test_ingest_ignores_a_leading_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
    text = '{"input": "x", "output": "y"}\n{"id": "b", "input": "z"}\n'
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert ingest_jsonl(bom).samples == ingest_jsonl(plain).samples


@pytest.mark.parametrize("record", ['{"id": "b", "input": "x \\ud800 y"}',
                                    '{"id": "b", "input": "x", "output": "\\udfff"}',
                                    '{"id": "b", "input": "x", "meta": {"\\ud83d": 1}}',
                                    '{"input": "x", "label": "\\udc00"}'],
                         ids=["input", "output", "extra-key", "no-id"])
def test_lone_surrogate_escape_is_refused_with_its_line(tmp_path, record):
    # a pair, and an escaped backslash before "ud800", are UTF-8 text; a
    # record with an id is never hashed, so only the reader's check sees it
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "\\ud83d\\ude00 and \\\\ud800"}', record])
    with pytest.raises(ValueError, match=rf"^{p}: line 2: 'utf-8' codec can't encode character"):
        ingest_jsonl(p)
    write_lines(p, ['{"input": "\\ud83d\\ude00 and \\\\ud800"}'])
    assert ingest_jsonl(p)[0].input == "\U0001f600 and \\ud800"


def test_duplicate_explicit_ids_error(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id": "a", "input": "x"}', '{"id": "a", "input": "z"}'])
    with pytest.raises(ValueError, match="duplicate"):
        ingest_jsonl(p)


def test_auto_id_collision_with_differing_record_errors(tmp_path):
    # same (input, output, label) hash but different tags: not byte-identical
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "x", "tags": ["a"]}', '{"input": "x", "tags": ["b"]}'])
    with pytest.raises(ValueError, match="duplicate"):
        ingest_jsonl(p)


def test_missing_input_field_errors(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"output": "y"}'])
    with pytest.raises(ValueError, match="input"):
        ingest_jsonl(p)


def test_write_empty_corpus(tmp_path):
    p = tmp_path / "out.jsonl"
    write_jsonl(Corpus((), name="empty"), p)
    assert p.read_text() == ""


def test_write_includes_tags(tmp_path):
    p = tmp_path / "out.jsonl"
    s = Sample(id="a", input="x", output="y", tags=("alg", "geo"))
    write_jsonl(Corpus((s,), name="t"), p)
    rec = json.loads(p.read_text())
    assert rec["tags"] == ["alg", "geo"]


def random_corpus(rng, n):
    alphabet = "abc xyz 123 éü"
    samples = []
    for i in range(n):
        words = ["".join(rng.choice(list(alphabet), size=3)) for _ in range(rng.integers(1, 6))]
        samples.append(
            Sample(
                id=f"s{i}",
                input=" ".join(words),
                output=" ".join(words[::-1]),
                label=None if rng.random() < 0.5 else str(rng.integers(0, 3)),
                tags=None if rng.random() < 0.5 else tuple(f"t{j}" for j in range(rng.integers(1, 3))),
                split=None if rng.random() < 0.7 else "train",
                extra=(("meta", int(rng.integers(0, 9))),) if rng.random() < 0.3 else (),
            )
        )
    return Corpus(tuple(samples), name="rand")


def test_roundtrip_100_random_samples(tmp_path):
    rng = rng_from(1234)
    corpus = random_corpus(rng, 100)
    p = tmp_path / "rt.jsonl"
    write_jsonl(corpus, p)
    back = ingest_jsonl(p)
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert a.id == b.id
        assert a.input == b.input
        assert a.output == b.output
        assert a.label == b.label
        assert a.tags == b.tags
        assert a.split == b.split
        assert dict(a.extra) == dict(b.extra)


def test_unknown_keys_survive_roundtrip(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"input": "x", "output": "y", "pipeline_rev": 7}'])
    corpus = ingest_jsonl(p)
    out = tmp_path / "o.jsonl"
    write_jsonl(corpus, out)
    assert json.loads(out.read_text())["pipeline_rev"] == 7


def test_subset_empty():
    c = Corpus((Sample(id="a", input="x", output=""),), name="c")
    assert len(c.subset([])) == 0


def test_subset_identity_and_order():
    samples = tuple(Sample(id=f"s{i}", input=str(i), output="") for i in range(3))
    c = Corpus(samples, name="c")
    assert c.subset([0, 1, 2]).ids() == c.ids()
    picked = c.subset([2, 0])
    assert picked.ids() == ["s2", "s0"]
    assert c.ids() == ["s0", "s1", "s2"]  # original untouched


def test_subset_by_ids_and_numpy_indices():
    samples = tuple(Sample(id=f"s{i}", input=str(i), output="") for i in range(4))
    c = Corpus(samples, name="c")
    assert c.subset(["s3", "s1"]).ids() == ["s3", "s1"]
    assert c.subset(list(np.array([1, 2]))).ids() == ["s1", "s2"]


def test_subset_errors():
    c = Corpus((Sample(id="a", input="x", output=""),), name="c")
    with pytest.raises(IndexError):
        c.subset([5])
    with pytest.raises(KeyError):
        c.subset(["nope"])
    with pytest.raises(ValueError, match="repeats"):
        c.subset([0, 0])


def test_selection_maps_to_ids_exactly():
    rng = rng_from(5)
    c = random_corpus(rng, 30)
    sel = [int(i) for i in rng.choice(30, size=10, replace=False)]
    assert c.subset(sel).ids() == [c[i].id for i in sel]


def test_corpus_rejects_duplicate_ids():
    s = Sample(id="a", input="x", output="")
    with pytest.raises(ValueError, match="duplicate"):
        Corpus((s, s), name="bad")


def test_sample_requires_nonempty_id():
    with pytest.raises(ValueError):
        Sample(id="", input="x", output="")
