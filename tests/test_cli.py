import fcntl
import inspect
import json
import os
import resource
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import numpy as np

import gvendi
from gvendi import (
    Corpus,
    FeatureMatrix,
    JsonLinesProcess,
    Provenance,
    Sample,
    content_id,
    embed_hashed_tfidf,
    embedding_vendi,
    store_features,
    template_corpus,
    write_jsonl,
)
from gvendi import blas
from gvendi.cli import _write_text, main, parse_config
from gvendi.metrics import report_from_tfidf
from gvendi.proxy import TFIDF_DIM, TFIDF_SEED
from test_golden import PROXY as GOLDEN_PROXY, WORKER as GOLDEN_WORKER


@pytest.fixture()
def toy(tmp_path):
    pool = tmp_path / "pool.jsonl"
    write_jsonl(template_corpus(6, 20, seed=17, name="toy"), pool)
    return tmp_path, str(pool)


def run_cli(*argv):
    return main(list(argv))


def test_parse_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("corpus = pool.jsonl\nproxy.feature_dim = 48  # trailing comment\n\n# full comment\n")
    parsed = parse_config(str(cfg))
    assert parsed == {"corpus": "pool.jsonl", "proxy.feature_dim": "48"}


def test_parse_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("corpus pool.jsonl\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config(str(cfg))


def test_ingest_assigns_ids(tmp_path, capsys):
    src = tmp_path / "raw.jsonl"
    src.write_text('{"input": "x", "output": "y"}\n')
    out = tmp_path / "norm.jsonl"
    assert run_cli("ingest", "--input", str(src), "--output", str(out)) == 0
    rec = json.loads(out.read_text())
    assert len(rec["id"]) == 64
    assert json.loads(capsys.readouterr().out)["samples"] == 1


def test_ingest_reads_null_input_as_empty(tmp_path, capsys):
    src = tmp_path / "raw.jsonl"
    src.write_text('{"input": null, "output": "a"}\n')
    out = tmp_path / "norm.jsonl"
    assert run_cli("ingest", "--input", str(src), "--output", str(out)) == 0
    rec = json.loads(out.read_text())
    assert rec["input"] == ""
    assert rec["id"] == content_id("", "a")


def test_featurize_and_diversity(toy, capsys):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    assert run_cli("featurize", "--input", pool, "--output", feats,
                   "--feature-dim", "32", "--proj-dim", "32") == 0
    capsys.readouterr()
    assert run_cli("diversity", "--metric", "g-vendi", "--features", feats) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "g_vendi"
    assert report["value"] > 1.0


def test_diversity_single_sample_is_one(tmp_path, capsys):
    pool = tmp_path / "one.jsonl"
    pool.write_text('{"id": "a", "input": "only sample here", "output": "with output"}\n')
    assert run_cli("diversity", "--metric", "g-vendi", "--corpus", str(pool),
                   "--feature-dim", "16", "--proj-dim", "16") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == pytest.approx(1.0, abs=1e-9)


def test_config_flag_precedence(toy, capsys):
    tmp_path, pool = toy
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {pool}\nngram.order = 3\n")
    assert run_cli("--config", str(cfg), "diversity", "--metric", "ngram-entropy") == 0
    from_config = json.loads(capsys.readouterr().out)
    assert from_config["params"]["order"] == 3
    assert run_cli("--config", str(cfg), "diversity", "--metric", "ngram-entropy",
                   "--order", "2") == 0
    assert json.loads(capsys.readouterr().out)["params"]["order"] == 2


def test_config_env_var(toy, capsys, monkeypatch):
    tmp_path, pool = toy
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {pool}\n")
    monkeypatch.setenv("GVENDI_CONFIG", str(cfg))
    assert run_cli("diversity", "--metric", "tag-entropy") == 0
    assert json.loads(capsys.readouterr().out)["metric"] == "tag_entropy"


def test_config_bad_value_names_key_and_type(toy, capsys):
    tmp_path, pool = toy
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("proxy.feature_dim = x\n")
    rc = run_cli("--config", str(cfg), "featurize", "--input", pool,
                 "--output", str(tmp_path / "f.gvfm"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: ValueError: config key 'proxy.feature_dim': expected int, got 'x'\n"


@pytest.mark.parametrize("tags", ["5", '"abc"', '{"a": "b"}'])
def test_ingest_rejects_non_array_tags(tmp_path, capsys, tags):
    src = tmp_path / "in.jsonl"
    src.write_text('{"input": "a b", "output": "c", "tags": null}\n'
                   '{"input": "d e", "output": "f", "tags": %s}\n' % tags)
    out = tmp_path / "out.jsonl"
    rc = run_cli("ingest", "--input", str(src), "--output", str(out))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {src}: line 2: 'tags' must be an array or null")
    assert not out.exists()


def test_featurize_bitwise_idempotent(toy):
    tmp_path, pool = toy
    a, b = str(tmp_path / "a.gvfm"), str(tmp_path / "b.gvfm")
    for out in (a, b):
        assert run_cli("featurize", "--input", pool, "--output", out,
                       "--feature-dim", "32", "--proj-dim", "32") == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_sample_deterministic_artifacts(toy):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (a, b):
        assert run_cli("sample", "--features", feats, "--strategy", "higher",
                       "--k", "6", "--n", "40", "--seed", "7", "--output", out) == 0
    assert Path(a).read_text() == Path(b).read_text()
    ids = json.loads(Path(a).read_text())
    assert len(ids) == 40 and all(isinstance(s, str) for s in ids)


def test_sample_mixture_from_id_files(toy):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    p1, p2 = str(tmp_path / "p1.json"), str(tmp_path / "p2.json")
    run_cli("sample", "--features", feats, "--strategy", "random", "--n", "30",
            "--seed", "1", "--output", p1)
    run_cli("sample", "--features", feats, "--strategy", "random", "--n", "30",
            "--seed", "2", "--output", p2)
    out = str(tmp_path / "mix.json")
    assert run_cli("sample", "--features", feats, "--strategy", "mixture",
                   "--parents", p1, p2, "--weights", "1,1", "--n", "20",
                   "--seed", "3", "--output", out) == 0
    ids = json.loads(Path(out).read_text())
    assert len(ids) == len(set(ids)) == 20
    huge = str(tmp_path / "mix_huge.json")
    assert run_cli("sample", "--features", feats, "--strategy", "mixture",
                   "--parents", p1, p2, "--weights", "1e308,1e308", "--n", "20",
                   "--seed", "3", "--output", huge) == 0
    assert json.loads(Path(huge).read_text()) == ids


@pytest.mark.parametrize("content", ["5", "null", '["a", 3]', '{"ids": []}'])
def test_sample_mixture_bad_parents_file(toy, capsys, content):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    capsys.readouterr()
    rc = run_cli("sample", "--features", feats, "--strategy", "mixture",
                 "--parents", str(bad), "--n", "5")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{bad}: expected a JSON array of sample ids" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["diversity", "--metric", "g-vendi", "--features", "{feats}", "--select", "{sel}"],
        ["diversity", "--metric", "embedding-vendi", "--corpus", "{pool}", "--select", "{sel}"],
        ["sample", "--features", "{feats}", "--strategy", "mixture", "--parents", "{sel}",
         "--n", "2"],
    ],
    ids=["diversity-features", "diversity-corpus", "sample-parents"],
)
def test_selection_file_repeating_an_id_names_the_file(toy, capsys, argv):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    first, second = [json.loads(line)["id"] for line in Path(pool).read_text().splitlines()[:2]]
    sel = tmp_path / "sel.json"
    sel.write_text(json.dumps([first, second, first]))
    capsys.readouterr()
    rc = run_cli(*[a.format(feats=feats, sel=sel, pool=pool) for a in argv])
    assert rc == 1
    assert capsys.readouterr().err == f"error: ValueError: {sel}: repeated sample id {first!r}\n"


def test_sample_mixture_bad_weight_names_flag(toy, capsys):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    parent = str(tmp_path / "p.json")
    run_cli("sample", "--features", feats, "--strategy", "random", "--n", "30",
            "--output", parent)
    capsys.readouterr()
    rc = run_cli("sample", "--features", feats, "--strategy", "mixture",
                 "--parents", parent, parent, "--weights", "1,x", "--n", "5")
    assert rc == 1
    assert capsys.readouterr().err == "error: ValueError: --weights '1,x': 'x' is not a number\n"


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["ingest", "--input", "{bad}", "--output", "{d}/out.jsonl"], b"\xff\n", "not UTF-8"),
        (["--config", "{bad}", "diversity", "--metric", "ngram-entropy", "--corpus", "{pool}"],
         b"\xff\n", "not UTF-8"),
        (["diversity", "--metric", "ngram-entropy", "--corpus", "{pool}", "--select", "{bad}"],
         b"\xff\n", "not UTF-8"),
        (["diversity", "--metric", "ngram-entropy", "--corpus", "{pool}", "--select", "{bad}"],
         b"[x", "not JSON"),
        (["evaluate", "--table", "{bad}", "--reference", "ref"], b"\xff\n", "not UTF-8"),
        (["evaluate", "--table", "{d}/acc.csv", "--reference", "ref", "--diversity", "{bad}"],
         b"\xff\n", "not UTF-8"),
    ],
    ids=["ingest", "config", "select", "select-not-json", "accuracy-csv", "diversity-csv"],
)
def test_unreadable_text_input_names_the_file(toy, capsys, argv, content, message):
    tmp_path, pool = toy
    (tmp_path / "acc.csv").write_text("model,b1\nref,0.8\nm1,0.4\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    rc = run_cli(*[a.format(bad=bad, d=tmp_path, pool=pool) for a in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {bad}: {message}") and err.count("\n") == 1, err


def test_synthesize_bad_echo_rate_names_flag(toy, capsys):
    tmp_path, pool = toy
    rc = run_cli("synthesize", "--corpus", pool, "--outdir", str(tmp_path / "run"),
                 "--iterations", "1", "--gen-batch", "4", "--solver", "echo:x")
    assert rc == 1
    assert capsys.readouterr().err == "error: ValueError: --solver 'echo:x': 'x' is not a number\n"


@pytest.mark.parametrize(
    "argv, key, flag",
    [
        (["cluster", "--k", "2"], "features", "--features"),
        (["sample", "--strategy", "random", "--n", "5"], "features", "--features"),
        (["synthesize", "--outdir", "{tmp}/run", "--iterations", "1", "--gen-batch", "1"],
         "corpus", "--corpus"),
        (["decontaminate", "--protected", "{pool}", "--output", "{tmp}/kept.jsonl"],
         "corpus", "--corpus"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_missing_setting_names_the_real_flag(toy, capsys, monkeypatch, argv, key, flag):
    tmp_path, pool = toy
    monkeypatch.delenv("GVENDI_CONFIG", raising=False)
    assert run_cli(*(a.format(tmp=tmp_path, pool=pool) for a in argv)) == 1
    assert capsys.readouterr().err == (
        f"error: ValueError: missing required setting {key!r} (flag {flag})\n"
    )


def test_help_shows_library_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["featurize", "--help"])
    # argparse wraps help text; compare it with the wrapping undone
    text = " ".join(capsys.readouterr().out.split())
    assert "--feature-dim FEATURE_DIM [config: proxy.feature_dim; default: 64]" in text
    assert "--proj-dim PROJ_DIM [config: projection.dim; default: 1024]" in text


def test_tfidf_defaults_have_one_source(capsys):
    for fn in (embed_hashed_tfidf, embedding_vendi, report_from_tfidf):
        params = inspect.signature(fn).parameters
        assert (params["dim"].default, params["seed"].default) == (TFIDF_DIM, TFIDF_SEED), fn
    with pytest.raises(SystemExit):
        main(["diversity", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--embed-dim EMBED_DIM [config: embedding.dim; default: {TFIDF_DIM}]" in text
    assert f"--embed-seed EMBED_SEED [config: embedding.seed; default: {TFIDF_SEED}]" in text


def test_diversity_select_subset(toy, capsys):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    sel = str(tmp_path / "sel.json")
    run_cli("sample", "--features", feats, "--strategy", "random", "--n", "25",
            "--seed", "4", "--output", sel)
    capsys.readouterr()
    assert run_cli("diversity", "--metric", "g-vendi", "--features", feats,
                   "--select", sel) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 25


def test_cluster_command(toy, capsys):
    tmp_path, pool = toy
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    capsys.readouterr()
    assert run_cli("cluster", "--features", feats, "--k", "6", "--seed", "3") == 0
    model = json.loads(capsys.readouterr().out)
    assert model["k"] == 6
    assert sum(model["sizes"]) == 120


def test_synthesize_and_resume_idempotent(toy, capsys):
    tmp_path, pool = toy
    outdir = str(tmp_path / "run")
    args = ["synthesize", "--corpus", pool, "--outdir", outdir,
            "--iterations", "1", "--gen-batch", "8", "--k-fraction", "0.1",
            "--feature-dim", "32", "--proj-dim", "32", "--seed", "5"]
    assert run_cli(*args) == 0
    first = json.loads(capsys.readouterr().out)
    assert os.path.exists(os.path.join(outdir, "state.json"))
    assert not os.path.exists(os.path.join(outdir, ".lock"))
    # rerunning resumes the finished checkpoint and changes nothing
    snapshot = Path(outdir, "pool.jsonl").read_text()
    assert run_cli(*args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert Path(outdir, "pool.jsonl").read_text() == snapshot


def test_synthesize_corrupt_state_names_the_file(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "run"
    args = ["synthesize", "--corpus", pool, "--outdir", str(outdir),
            "--iterations", "1", "--gen-batch", "4",
            "--feature-dim", "32", "--proj-dim", "32"]
    assert run_cli(*args) == 0
    state = outdir / "state.json"
    good = json.loads(state.read_text())
    expected = (f"error: ValueError: {state}: expected an object with an int 'iteration', "
                "a list 'history' and an int 'pool_size'\n")
    no_iteration = {k: v for k, v in good.items() if k != "iteration"}
    for corrupt in ([good], no_iteration, {**good, "history": 5}):
        state.write_text(json.dumps(corrupt))
        capsys.readouterr()
        assert run_cli(*args) == 1, corrupt
        assert capsys.readouterr().err == expected, corrupt
    state.write_text("{")
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert capsys.readouterr().err.startswith(f"error: ValueError: {state}: Expecting")


def test_synthesize_history_length_mismatch_names_the_file(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "run"
    args = ["synthesize", "--corpus", pool, "--outdir", str(outdir),
            "--iterations", "1", "--gen-batch", "4",
            "--feature-dim", "32", "--proj-dim", "32"]
    assert run_cli(*args) == 0
    state = outdir / "state.json"
    state.write_text(json.dumps({**json.loads(state.read_text()), "history": []}))
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == (f"error: ValueError: {state}: history has 0 entries, "
                                       "iteration is 1\n")


def test_synthesize_misaligned_checkpoint_names_the_directory(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "run"
    args = ["synthesize", "--corpus", pool, "--outdir", str(outdir),
            "--iterations", "1", "--gen-batch", "4",
            "--feature-dim", "32", "--proj-dim", "32"]
    assert run_cli(*args) == 0
    pool_file = outdir / "pool.jsonl"
    pool_file.write_text("".join(reversed(pool_file.read_text().splitlines(True))))
    state = (outdir / "state.json").read_bytes()
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == (f"error: ValueError: {outdir}: pool.jsonl and "
                                       "features.gvfm are not row-aligned; delete and rerun\n")
    assert (outdir / "state.json").read_bytes() == state


def test_synthesize_resume_with_another_featurizer_names_the_features(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "run"
    args = ["synthesize", "--corpus", pool, "--outdir", str(outdir),
            "--gen-batch", "4", "--feature-dim", "32", "--proj-dim", "32"]
    assert run_cli(*args, "--iterations", "1", "--proj-seed", "7") == 0
    files = ("state.json", "pool.jsonl", "features.gvfm")
    before = [(outdir / f).read_bytes() for f in files]
    log = tmp_path / "requests.log"
    worker = tmp_path / "worker.py"
    worker.write_text("import sys\nfor line in sys.stdin:\n"
                      f"    open({str(log)!r}, 'a').write(line)\n"
                      "    print('{\"samples\": []}', flush=True)\n")
    capsys.readouterr()
    rc = run_cli(*args, "--iterations", "2", "--proj-seed", "8",
                 "--generator", "cmd:" + shlex.join([sys.executable, str(worker)]))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {outdir / 'features.gvfm'}: rows written with "), err
    assert err.count("\n") == 1, err
    assert not log.exists(), "an endpoint request ran before the check"
    assert [(outdir / f).read_bytes() for f in files] == before


def test_synthesize_resume_refused_for_provenance_spawns_no_worker(toy, capsys, monkeypatch):
    tmp_path, pool = toy
    outdir = tmp_path / "run"
    args = ["synthesize", "--corpus", pool, "--outdir", str(outdir),
            "--gen-batch", "4", "--feature-dim", "32", "--proj-dim", "32"]
    assert run_cli(*args, "--iterations", "1", "--proj-seed", "7") == 0
    calls = []
    start, spawned = JsonLinesProcess.start, JsonLinesProcess._spawned
    monkeypatch.setattr(JsonLinesProcess, "start",
                        lambda self: calls.append("start") or start(self))
    monkeypatch.setattr(JsonLinesProcess, "_spawned",
                        lambda self: calls.append("spawn") or spawned(self))
    worker = "cmd:" + shlex.join([sys.executable, "-c", "import sys; sys.stdin.read()"])
    capsys.readouterr()
    rc = run_cli(*args, "--iterations", "2", "--proj-seed", "8",
                 "--generator", worker, "--solver", worker)
    assert rc == 1
    assert "rows written with" in capsys.readouterr().err
    assert calls == []


def test_synthesize_fewshot_larger_than_the_pool_fails_first(tmp_path, capsys, monkeypatch):
    pool = tmp_path / "pool.jsonl"
    write_jsonl(template_corpus(2, 2, seed=17, name="tiny"), pool)
    outdir = tmp_path / "run"
    calls = []
    start, spawned = JsonLinesProcess.start, JsonLinesProcess._spawned
    monkeypatch.setattr(JsonLinesProcess, "start",
                        lambda self: calls.append("start") or start(self))
    monkeypatch.setattr(JsonLinesProcess, "_spawned",
                        lambda self: calls.append("spawn") or spawned(self))
    worker = "cmd:" + shlex.join([sys.executable, "-c", "import sys; sys.stdin.read()"])
    rc = run_cli("synthesize", "--corpus", str(pool), "--outdir", str(outdir),
                 "--iterations", "1", "--gen-batch", "4", "--fewshot", "10",
                 "--feature-dim", "32", "--proj-dim", "32",
                 "--generator", worker, "--solver", worker)
    assert rc == 1
    assert capsys.readouterr().err == "error: ValueError: fewshot_count must be in [1, 4]\n"
    assert calls == []
    assert not (outdir / "state.json").exists()


def test_synthesize_starts_its_worker_before_any_featurize(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "run"
    rc = run_cli("synthesize", "--corpus", pool, "--outdir", str(outdir),
                 "--iterations", "1", "--gen-batch", "4", "--feature-dim", "32",
                 "--proj-dim", "32", "--generator", "cmd:/nonexistent/worker")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1, err
    assert not (outdir / "state.json").exists()
    assert not (outdir / "pool.jsonl").exists()


def test_synthesize_lock_conflict(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "locked"
    outdir.mkdir()
    # a second open file description holding the flock is a live holder
    fd = os.open(outdir / ".lock", os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc = run_cli("synthesize", "--corpus", pool, "--outdir", str(outdir),
                     "--iterations", "1", "--gen-batch", "4",
                     "--feature-dim", "32", "--proj-dim", "32")
    finally:
        os.close(fd)
    assert rc == 1
    assert "lock" in capsys.readouterr().err
    assert not (outdir / "state.json").exists()


def test_synthesize_ignores_a_lock_file_nobody_holds(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "stale"
    outdir.mkdir()
    (outdir / ".lock").write_text("999")  # left by a killed run
    rc = run_cli("synthesize", "--corpus", pool, "--outdir", str(outdir),
                 "--iterations", "1", "--gen-batch", "4",
                 "--feature-dim", "32", "--proj-dim", "32")
    assert rc == 0, capsys.readouterr().err
    assert (outdir / "state.json").exists() and not (outdir / ".lock").exists()


def test_decontaminate_command(toy, capsys):
    tmp_path, pool = toy
    protected = tmp_path / "prot.jsonl"
    # protect one verbatim pool input
    first = json.loads(Path(pool).read_text().splitlines()[0])
    protected.write_text(json.dumps({"id": "p0", "input": first["input"], "output": ""}) + "\n")
    out = str(tmp_path / "kept.jsonl")
    flagged = str(tmp_path / "flagged.jsonl")
    assert run_cli("decontaminate", "--corpus", pool, "--protected", str(protected),
                   "--output", out, "--flagged", flagged) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["flagged"] >= 1
    assert summary["kept"] + summary["flagged"] == 120
    assert len(Path(flagged).read_text().splitlines()) == summary["flagged"]


def test_evaluate_and_report(tmp_path, capsys):
    acc = tmp_path / "acc.csv"
    acc.write_text("model,b1,b2\nref,0.8,0.5\nm1,0.4,0.25\nm2,0.6,0.45\nm3,0.72,0.48\n")
    div = tmp_path / "div.csv"
    div.write_text("model,diversity\nm1,5.0\nm2,11.0\nm3,17.0\n")
    assert run_cli("evaluate", "--table", str(acc), "--reference", "ref",
                   "--diversity", str(div)) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["perf"]["ref"] == 1.0
    assert result["perf"]["m1"] == pytest.approx(0.5)
    assert result["correlation"]["spearman_rho"] == 1.0

    assert run_cli("report", "--table", str(acc), "--reference", "ref",
                   "--diversity", str(div)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "diversity\tperf\tmodel"
    assert len(lines) == 4
    assert all(len(line.split("\t")) == 3 for line in lines[1:])


@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_diversity_csv_short_row(tmp_path, capsys, command):
    acc = tmp_path / "acc.csv"
    acc.write_text("model,b1\nref,0.8\nm1,0.4\nm2,0.6\nm3,0.7\n")
    div = tmp_path / "div.csv"
    div.write_text("model,diversity\nm1,5.0\nm2\nm3,17.0\n")
    rc = run_cli(command, "--table", str(acc), "--reference", "ref", "--diversity", str(div))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and err.count("\n") == 1
    assert f"{div}: line 3" in err


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize(
    "row, message",
    [
        ("m2,nan", "diversity 'nan' is not finite"),
        ("m2,-inf", "diversity '-inf' is not finite"),
        ("m1,6.0", "model 'm1' is listed twice"),
    ],
)
def test_diversity_csv_rejects_bad_values(tmp_path, capsys, command, row, message):
    acc = tmp_path / "acc.csv"
    acc.write_text("model,b1\nref,0.8\nm1,0.4\nm2,0.6\nm3,0.7\n")
    div = tmp_path / "div.csv"
    div.write_text(f"model,diversity\nm1,5.0\n{row}\nm3,17.0\n")
    rc = run_cli(command, "--table", str(acc), "--reference", "ref", "--diversity", str(div))
    assert rc == 1
    assert capsys.readouterr().err == f"error: ValueError: {div}: line 3: {message}\n"


@pytest.mark.parametrize(
    "defect, message",
    [
        ("non-utf8-id", "can't decode byte 0xff"),
        ("duplicate-ids", "sample ids must be unique"),
        ("trailing-bytes", "trailing bytes after the id table"),
    ],
)
def test_feature_file_errors_name_the_file(tmp_path, capsys, defect, message):
    path = tmp_path / "f.gvfm"
    feats = FeatureMatrix(np.eye(2, 4, dtype=np.float32), ("a", "b"), Provenance("external"))
    store_features(feats, path)
    blob = path.read_bytes()
    assert blob.endswith(b"a\x01\x00\x00\x00b")
    if defect == "non-utf8-id":
        blob = blob[:-1] + b"\xff"
    elif defect == "duplicate-ids":
        blob = blob[:-1] + b"a"
    else:
        blob += blob
    path.write_bytes(blob)
    assert run_cli("diversity", "--metric", "g-vendi", "--features", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and err.count("\n") == 1
    assert err.count(str(path)) == 1 and message in err


@pytest.mark.parametrize("metric", ["ngram-entropy", "tag-entropy", "mean-nll"])
def test_corpus_only_metric_with_features_names_corpus(tmp_path, capsys, metric):
    rc = run_cli("diversity", "--metric", metric, "--features", str(tmp_path / "x.gvfm"))
    assert rc == 1
    err = capsys.readouterr().err
    assert "needs --corpus" in err and "not scorable from a feature file" in err
    assert "(or --features)" not in err


def test_runtime_error_exit_code_and_stderr(tmp_path, capsys):
    rc = run_cli("diversity", "--metric", "g-vendi", "--corpus", str(tmp_path / "missing.jsonl"))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["diversity", "--metric", "not-a-metric"])
    assert exc.value.code == 2


def test_input_files_not_mutated(toy):
    tmp_path, pool = toy
    before = Path(pool).read_bytes()
    feats = str(tmp_path / "pool.gvfm")
    run_cli("featurize", "--input", pool, "--output", feats,
            "--feature-dim", "32", "--proj-dim", "32")
    run_cli("diversity", "--metric", "ngram-entropy", "--corpus", pool)
    assert Path(pool).read_bytes() == before


def test_synthesize_threads_change_no_artifact(tmp_path):
    """The golden synthesize runs, built-in and `cmd:` endpoints, write the
    same bytes at --threads 1 and --threads 3, and leave no thread behind."""
    active = threading.active_count()
    corpus = tmp_path / "pool.jsonl"
    write_jsonl(template_corpus(6, 20, seed=17, name="golden"), corpus)
    protected = tmp_path / "protected.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    protected.write_text("\n".join(lines[::15]) + "\n", encoding="utf-8")
    worker = tmp_path / "worker.py"
    worker.write_text(GOLDEN_WORKER, encoding="utf-8")
    cmd = "cmd:" + shlex.join([sys.executable, str(worker)])
    synth = ["synthesize", "--corpus", str(corpus), "--iterations", "2", "--gen-batch", "12",
             "--k-fraction", "0.1", "--seed", "5", *GOLDEN_PROXY]
    ways = {
        "synth-builtin": ["--generator", "recombine", "--solver", "echo:0.2"],
        "synth-cmd": ["--protected", str(protected), "--ngram", "5",
                      "--generator", cmd, "--solver", cmd],
    }
    for way, extra in ways.items():
        written = []
        for threads in ("1", "3"):
            outdir = tmp_path / f"{way}-{threads}"
            assert run_cli("--threads", threads, *synth, "--outdir", str(outdir), *extra) == 0
            written.append({name: (outdir / name).read_bytes()
                            for name in ("pool.jsonl", "features.gvfm", "state.json")})
        assert written[0]["pool.jsonl"].count(b"\n") > len(lines), f"{way} admitted nothing"
        assert written[0] == written[1], way
    assert threading.active_count() == active


# ---------------------------------------------------------------------------
# every keyed option three ways: (a) flags, (b) the same values from a config
# file, (c) a config file with other values overridden by the flags of (a).
# All three must write the same bytes; a value that a key would drop or a
# config value that would beat its flag changes an artifact. `--threads` is
# left out: no artifact depends on it, as the test above checks.

GUARD_WORKER = """\
import json, sys

for line in sys.stdin:
    req = json.loads(line)
    seed = req["seed"]
    ex = req["exemplars"][seed % len(req["exemplars"])]
    lead = "" if seed % 4 else "zeta eta theta iota "
    tail = " %d of %d" % (seed % 97, len(req["exemplars"]))
    samples = [{"input": lead + ex["input"] + tail, "output": ex["output"]}
               for _ in range(req["count"])]
    print(json.dumps({"samples": samples}), flush=True)
"""

PROXY_KEYS = [
    ("--vocab-size", "proxy.vocab_size", "512", "1024"),
    ("--feature-dim", "proxy.feature_dim", "24", "32"),
    ("--hash-seed", "proxy.hash_seed", "11", "21"),
    ("--weight-seed", "proxy.weight_seed", "12", "22"),
    ("--proj-dim", "projection.dim", "16", "8"),
    ("--proj-seed", "projection.seed", "13", "23"),
]
EMBEDDING_KEYS = [
    ("--embed-dim", "embedding.dim", "64", "32"),
    ("--embed-seed", "embedding.seed", "14", "24"),
]
CORPUS = ("--corpus", "corpus", "{d}/pool.jsonl", "{d}/other.jsonl")
OUTPUT = ("--output", "output", "out.json", "other.json")
FEATURES = ("--features", "features", "{d}/pool.gvfm", "{d}/other.gvfm")
SELECT = ("--select", "select", "{d}/sel.json", "{d}/other_sel.json")
TABLE = [
    ("--table", "evaluate.table", "{d}/acc.csv", "{d}/other_acc.csv"),
    ("--reference", "evaluate.reference", "ref", "m1"),
    ("--diversity", "evaluate.diversity", "{d}/div.csv", "{d}/other_div.csv"),
    OUTPUT,
]

# (command, [(flag, config key, value, other value)]); a list value is a
# multi-valued flag, written comma-separated in a config file
KEYED_CASES = {
    "ingest": ("ingest", [
        ("--input", "corpus", "{d}/pool.jsonl", "{d}/other.jsonl"),
        ("--output", "output", "out.jsonl", "other.jsonl"),
    ]),
    "featurize-gradient": ("featurize", [
        ("--input", "corpus", "{d}/pool.jsonl", "{d}/other.jsonl"),
        ("--output", "features", "out.gvfm", "other.gvfm"),
        ("--featurizer", "featurizer", "gradient", "embedding"),
        *PROXY_KEYS,
    ]),
    "featurize-embedding": ("featurize", [
        ("--input", "corpus", "{d}/pool.jsonl", "{d}/other.jsonl"),
        ("--output", "features", "out.gvfm", "other.gvfm"),
        ("--featurizer", "featurizer", "embedding", "gradient"),
        *EMBEDDING_KEYS,
    ]),
    "diversity-g-vendi-corpus": ("diversity", [
        ("--metric", "metric", "g-vendi", "embedding-vendi"),
        CORPUS, SELECT, OUTPUT, *PROXY_KEYS,
    ]),
    "diversity-g-vendi-features": ("diversity", [
        ("--metric", "metric", "g-vendi", "embedding-dissim"),
        FEATURES, SELECT, OUTPUT,
    ]),
    "diversity-embedding-vendi": ("diversity", [
        ("--metric", "metric", "embedding-vendi", "g-vendi"),
        CORPUS, OUTPUT, *EMBEDDING_KEYS,
    ]),
    "diversity-ngram-entropy": ("diversity", [
        ("--metric", "metric", "ngram-entropy", "tag-entropy"),
        ("--order", "ngram.order", "3", "4"),
        CORPUS, OUTPUT,
    ]),
    "cluster-k": ("cluster", [
        FEATURES,
        ("--k", "cluster.k", "3", "5"),
        ("--seed", "cluster.seed", "5", "6"),
        OUTPUT,
    ]),
    "cluster-k-fraction": ("cluster", [
        FEATURES,
        ("--k-fraction", "cluster.k_fraction", "0.1", "0.2"),
        ("--seed", "cluster.seed", "5", "6"),
        OUTPUT,
    ]),
    "sample-higher": ("sample", [
        FEATURES,
        ("--strategy", "sample.strategy", "higher", "lower"),
        ("--n", "sample.n", "12", "10"),
        ("--k", "sample.k", "3", "4"),
        ("--seed", "sample.seed", "7", "8"),
        OUTPUT,
    ]),
    "sample-lower": ("sample", [
        FEATURES,
        ("--strategy", "sample.strategy", "lower", "random"),
        ("--n", "sample.n", "12", "10"),
        ("--seed-size", "sample.seed_size", "3", "4"),
        ("--batch-size", "sample.batch_size", "4", "5"),
        ("--tau", "sample.tau", "0.9", "0.7"),
        ("--seed", "sample.seed", "7", "8"),
        OUTPUT,
    ]),
    "sample-mixture": ("sample", [
        FEATURES,
        ("--strategy", "sample.strategy", "mixture", "random"),
        ("--n", "sample.n", "12", "10"),
        ("--parents", "sample.parents", ["{d}/p1.json", "{d}/p2.json"], ["{d}/p2.json"]),
        ("--weights", "sample.weights", "1,3", "3,1"),
        ("--seed", "sample.seed", "7", "8"),
        OUTPUT,
    ]),
    "synthesize": ("synthesize", [
        CORPUS,
        ("--outdir", "outdir", "out", "other"),
        ("--iterations", "synthesis.iterations", "1", "2"),
        ("--gen-batch", "synthesis.gen_batch", "12", "5"),
        ("--vote-n", "synthesis.vote_n", "4", "3"),
        ("--vote-tau", "synthesis.vote_tau", "3", "2"),
        ("--k-fraction", "synthesis.k_fraction", "0.1", "0.2"),
        ("--sparse-fraction", "synthesis.sparse_fraction", "0.25", "0.75"),
        ("--fewshot", "synthesis.fewshot", "3", "4"),
        ("--ngram", "synthesis.ngram", "4", "5"),
        ("--seed", "synthesis.seed", "9", "10"),
        ("--generator", "synthesis.generator", "cmd:{worker}", "builtin:recombine"),
        ("--solver", "synthesis.solver", "echo:0.3", "echo"),
        ("--protected", "protected", "{d}/prot.jsonl", "{d}/other_prot.jsonl"),
        *PROXY_KEYS,
    ]),
    "decontaminate": ("decontaminate", [
        CORPUS,
        ("--protected", "protected", "{d}/prot.jsonl", "{d}/other_prot.jsonl"),
        ("--ngram", "decontaminate.ngram", "4", "5"),
        ("--output", "output", "kept.jsonl", "other.jsonl"),
        ("--flagged", "decontaminate.flagged", "flagged.jsonl", "other_flagged.jsonl"),
    ]),
    "evaluate": ("evaluate", TABLE),
    "report": ("report", TABLE),
}


@pytest.fixture(scope="module")
def keyed_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("keyed")
    pool = template_corpus(4, 10, seed=17, name="pool")
    other = template_corpus(4, 10, seed=29, name="other")
    write_jsonl(pool, d / "pool.jsonl")
    write_jsonl(other, d / "other.jsonl")
    small = ["--feature-dim", "24", "--proj-dim", "16"]
    assert main(["featurize", "--input", str(d / "pool.jsonl"),
                 "--output", str(d / "pool.gvfm"), *small]) == 0
    assert main(["featurize", "--input", str(d / "other.jsonl"),
                 "--output", str(d / "other.gvfm"), *small]) == 0
    ids, other_ids = pool.ids(), other.ids()
    (d / "sel.json").write_text(json.dumps(ids[::2]))
    (d / "other_sel.json").write_text(json.dumps(other_ids[::2]))
    (d / "p1.json").write_text(json.dumps(ids[:20]))
    (d / "p2.json").write_text(json.dumps(ids[20:]))
    first4 = " ".join(pool[0].input.split()[:4])
    protected = [{"id": "p0", "input": "zeta eta theta iota", "output": ""},
                 {"id": "p1", "input": first4, "output": ""}]
    (d / "prot.jsonl").write_text("".join(json.dumps(r) + "\n" for r in protected))
    (d / "other_prot.jsonl").write_text(
        json.dumps({"id": "q0", "input": "unrelated words only here", "output": ""}) + "\n")
    (d / "acc.csv").write_text("model,b1,b2\nref,0.8,0.5\nm1,0.4,0.25\nm2,0.6,0.45\nm3,0.72,0.48\n")
    (d / "other_acc.csv").write_text("model,b1\nref,0.9\nm1,0.3\nm2,0.5\nm3,0.8\n")
    (d / "div.csv").write_text("model,diversity\nm1,5.0\nm2,11.0\nm3,17.0\nref,20.0\n")
    (d / "other_div.csv").write_text("model,diversity\nm1,7.0\nm2,3.0\nm3,1.0\nref,2.0\n")
    (d / "worker.py").write_text(GUARD_WORKER)
    return d


@pytest.mark.parametrize("case", sorted(KEYED_CASES))
def test_keyed_option_flag_config_precedence(keyed_inputs, tmp_path, monkeypatch, capsys, case):
    command, opts = KEYED_CASES[case]
    worker = shlex.join([sys.executable, str(keyed_inputs / "worker.py")])

    def fill(value):
        values = value if isinstance(value, list) else [value]
        return [v.format(d=keyed_inputs, worker=worker) for v in values]

    monkeypatch.delenv("GVENDI_CONFIG", raising=False)
    capsys.readouterr()
    results = {}
    for way in ("a", "b", "c"):
        argv, lines = [], []
        for flag, key, value, other in opts:
            if way != "b":
                argv += [flag, *fill(value)]
            if way != "a":
                lines.append(f"{key} = {','.join(fill(value if way == 'b' else other))}")
        if lines:
            cfg = tmp_path / f"{way}.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            argv = ["--config", str(cfg), command, *argv]
        else:
            argv = [command, *argv]
        work = tmp_path / way
        work.mkdir()
        monkeypatch.chdir(work)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 0, f"way {way}: {captured.err}"
        files = {p.relative_to(work).as_posix(): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        assert files, f"way {way} wrote no artifact"
        results[way] = (captured.out, files)
    assert results["b"] == results["a"], "config file value differs from the same flag"
    assert results["c"] == results["a"], "config file value beat its flag"


@pytest.mark.parametrize("writer", ["text", "jsonl", "gvfm"])
def test_output_write_that_raises_keeps_the_previous_file(tmp_path, writer):
    path = tmp_path / "out"
    path.write_bytes(b"previous bytes\n")
    bad = "\ud800"  # a lone surrogate: encoding raises once the writer reaches it

    def write(last):
        if writer == "text":
            _write_text(str(path), "x" * 100_000 + last)
        elif writer == "jsonl":
            samples = tuple(Sample(id=f"s{i}", input="x" * 1000, output="y") for i in range(99))
            write_jsonl(Corpus(samples + (Sample(id="s99", input="x", output=last),), name="t"),
                        path)
        else:
            ids = tuple(f"s{i}" for i in range(99)) + (last,)
            store_features(FeatureMatrix(np.eye(100, 2048, dtype=np.float32), ids,
                                         Provenance("external")), path)

    with pytest.raises(UnicodeEncodeError):
        write(bad)
    assert path.read_bytes() == b"previous bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    write("z")
    assert path.read_bytes() != b"previous bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_output_through_a_symlink_replaces_its_target_keeping_the_mode(tmp_path):
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target.name)
    _write_text(str(link), "new")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]


def test_new_output_gets_the_mode_plain_open_gives(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    _write_text(str(tmp_path / "atomic"), "x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_output_to_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        _write_text(str(fifo), "through the pipe")
    finally:
        reader.join(10)
    assert read == ["through the pipe\n"] and stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
def test_output_to_a_dev_fd_path_writes_the_open_file(tmp_path):
    # as `--output /dev/stdout > file` does: the file the descriptor holds is
    # written, not replaced by another one
    path = tmp_path / "out"
    with open(path, "w") as held:
        inode = os.fstat(held.fileno()).st_ino
        _write_text(f"/dev/fd/{held.fileno()}", "through the descriptor")
    assert path.read_text() == "through the descriptor\n" and path.stat().st_ino == inode
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def _child(*argv: str, stdout=subprocess.PIPE, address_space: int | None = None):
    """gvendi argv in a child process, its address space capped at
    `address_space` bytes if given."""
    # the child imports the same gvendi as this test, installed or not
    src = str(Path(gvendi.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env, cap = {**os.environ, "PYTHONPATH": path}, None
    if address_space is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"  # so BLAS thread stacks do not count against the cap
        cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, "-m", "gvendi.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, preexec_fn=cap, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform")
@pytest.mark.parametrize("stdout", ["pipe", "file"])
@pytest.mark.parametrize("command", ["featurize", "ingest"])
def test_output_to_stdout_gets_no_summary(toy, command, stdout):
    """`--output /dev/stdout | ...` and `--output /dev/stdout > file` carry
    the artifact alone; the summary goes to stderr."""
    tmp_path, pool = toy
    extra = ["--feature-dim", "32", "--proj-dim", "32"] if command == "featurize" else []
    expected = tmp_path / "expected"
    assert run_cli(command, "--input", pool, "--output", str(expected), *extra) == 0
    argv = [command, "--input", pool, "--output", "/dev/stdout", *extra]
    if stdout == "pipe":
        proc = _child(*argv)
        written = proc.stdout
    else:
        with open(tmp_path / "redirected", "wb") as fh:
            proc = _child(*argv, stdout=fh)
        written = (tmp_path / "redirected").read_bytes()
    assert proc.returncode == 0, proc.stderr
    assert written == expected.read_bytes()
    assert json.loads(proc.stderr)["output"] == "/dev/stdout"


@pytest.mark.parametrize("argv", [
    ["featurize", "--input", "{pool}", "--vocab-size", "256", "--feature-dim", "4096"],
    ["featurize", "--input", "{pool}", "--featurizer", "embedding", "--embed-dim", "536870912"],
    ["diversity", "--corpus", "{pool}", "--metric", "g-vendi", "--feature-dim", "4096"],
], ids=["sign-matrix", "embedding", "g-vendi"])
def test_allocation_failure_is_one_error_line(toy, argv):
    """4 GiB outputs under a 1 GiB address space: exit 1 with one `error:`
    line, and the existing output kept."""
    tmp_path, pool = toy
    out = tmp_path / "out"
    out.write_bytes(b"old bytes")
    proc = _child(*[a.format(pool=pool) for a in argv], "--output", str(out),
                  address_space=1 << 30)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: MemoryError: Unable to allocate ")
    assert out.read_bytes() == b"old bytes"


def test_embedding_gram_that_cannot_fit_is_one_error_line(tmp_path):
    """12000 rows of two bigrams each, 24000 distinct ones in some 17000
    buckets, need a 12000 x 12000 embedding Gram (1.15 GB) under a 1 GiB
    address space: exit 1 with one `error:` line that names the Gram's size
    and `--embed-dim`."""
    samples = tuple(Sample(id=f"s{i}", input=f"a{i} b{i} c{i}", output="") for i in range(12000))
    pool, out = tmp_path / "pool.jsonl", tmp_path / "out.json"
    write_jsonl(Corpus(samples, name="wide"), pool)
    proc = _child("diversity", "--corpus", str(pool), "--metric", "embedding-vendi",
                  "--output", str(out), address_space=1 << 30)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stderr
    assert lines[0].startswith(
        "error: MemoryError: the embedding Gram needs min(n, u)^2 x 8 B = 12000^2 x 8 B"
        " = 1152000000 B for n=12000 rows over u="
    )
    assert lines[0].endswith("; a smaller --embed-dim bounds u")
    assert not out.exists()


def _distinct_bigram_pool(path, n):
    """n rows of two bigrams each, all distinct: an n x n embedding Gram."""
    samples = tuple(Sample(id=f"s{i}", input=f"a{i} b{i} c{i}", output="") for i in range(n))
    write_jsonl(Corpus(samples, name="wide"), path)
    return str(path)


def _least_address_space(*argv, step=4 << 20):
    """The least address space, to `step` bytes, in which gvendi argv exits 0."""
    low, high = 0, 1 << 30
    assert _child(*argv, address_space=high).returncode == 0
    while high - low > step:
        mid = (low + high) // 2
        low, high = (low, mid) if _child(*argv, address_space=mid).returncode == 0 else (mid, high)
    return high


def test_embedding_vendi_scores_a_gram_that_fits_once_but_not_twice(tmp_path):
    """A 3000 x 3000 embedding Gram (72 MB) under an address space of the
    child's own baseline plus 1.25 Grams: the spectrum runs in the Gram's
    buffer, so the capped run prints what the uncapped one does. The
    baseline scores 300 such rows, which loads every library and the BLAS
    buffers a spectrum of that size uses, and holds a 0.7 MB Gram."""
    if blas._dsyevd() is None:
        pytest.skip("this numpy's BLAS has no LAPACKE_dsyevd binding")
    n = 3000
    small = _distinct_bigram_pool(tmp_path / "small.jsonl", 300)
    pool = _distinct_bigram_pool(tmp_path / "pool.jsonl", n)
    argv = ("diversity", "--metric", "embedding-vendi", "--corpus")
    baseline = _least_address_space(*argv, small)
    uncapped = _child(*argv, pool)
    capped = _child(*argv, pool, address_space=baseline + n * n * 8 * 5 // 4)
    assert uncapped.returncode == 0, uncapped.stderr
    assert capped.returncode == 0, capped.stderr
    assert capped.stdout == uncapped.stdout
    assert json.loads(capped.stdout)["n"] == n
