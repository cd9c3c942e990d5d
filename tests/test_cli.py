import json
import os
from pathlib import Path

import pytest

import numpy as np

from gvendi import FeatureMatrix, Provenance, store_features, template_corpus, write_jsonl
from gvendi.cli import main, parse_config


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


def test_synthesize_lock_conflict(toy, capsys):
    tmp_path, pool = toy
    outdir = tmp_path / "locked"
    outdir.mkdir()
    (outdir / ".lock").write_text("999")
    rc = run_cli("synthesize", "--corpus", pool, "--outdir", str(outdir),
                 "--iterations", "1", "--gen-batch", "4",
                 "--feature-dim", "32", "--proj-dim", "32")
    assert rc == 1
    assert "lock" in capsys.readouterr().err


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
