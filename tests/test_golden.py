"""Golden sha256 hashes of every CLI artifact on a fixed corpus.

A refactor that is meant to keep behaviour must leave these bytes as they
are. The pipeline runs `gvendi.cli.main` in-process on a 6-family x 20-row
`template_corpus` with `--proj-dim 128` and hashes each file it writes.

The hashes pin floating-point results, so they belong to one numerical
stack: they were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64).
Another BLAS build or thread count may move low bits of the feature values
and therefore the hashes; a mismatch on such a stack is not by itself a bug.
"""

from __future__ import annotations

import hashlib
import shlex
import sys
import textwrap

import pytest

from gvendi import template_corpus, write_jsonl
from gvendi.cli import main

PROXY = ["--proj-dim", "128"]

# stdlib-only worker for the `cmd:` endpoints; a pure function of each request
WORKER = textwrap.dedent(
    """
    import json, sys

    def answer(words):
        return str(sum(int(w) for w in words if w.isdigit()) % 1000)

    for line in sys.stdin:
        req = json.loads(line)
        seed = req["seed"]
        if req["type"] == "generate":
            ex = req["exemplars"]
            samples = []
            for i in range(req["count"]):
                a = ex[(seed + i) % len(ex)]["input"].split()
                b = ex[(seed // 7 + i) % len(ex)]["input"].split()
                words = a[: len(a) // 2] + b[len(b) // 2 :] + [str(seed % 1000)]
                samples.append({"input": " ".join(words),
                                "output": "so \\\\boxed{%s}" % answer(words)})
            print(json.dumps({"samples": samples}), flush=True)
        else:
            truth = answer(req["problem"].split())
            votes = [truth if (seed // (v + 1)) % 3 else f"x{v}" for v in range(req["n"])]
            print(json.dumps({"answers": votes,
                              "traces": ["work \\\\boxed{%s}" % v for v in votes]}),
                  flush=True)
    """
)

GOLDEN = {
    "featurize/gradient.gvfm":
        "e57019d056a9c4ea69eff6271a16da6e9ee4dbff79486223215f8c06dd57a923",
    "featurize/embedding.gvfm":
        "dd05b997be2286240b34aa2c5adf2d76490860b30637c2ad4b7755b8a2418218",
    "cluster.json":
        "9b340c60067d53ad122557beac02852ecb11ae06c78c3a3ad21fd0b0b6c6ce46",
    "sample/higher.json":
        "3c8b2744606ab6e58026418fa577b0de4cdea05684fecee31d43f17e568e434b",
    "sample/lower.json":
        "bfba16d7173632bd80c129d77b56dea42afc25567cc7bdb8c194484bd75ee7fa",
    "sample/random.json":
        "4bbdda244019c6a49a73ce3962b025a9925e6de70529890a229478871868d28a",
    "sample/mixture.json":
        "01f2077ad04811d238a9357e0086d357586b9abef61eb4d80957c9f596165410",
    "diversity/g-vendi-features.json":
        "8547d2fc4edf83d23447d6ab80a038df3314675fa9173ffb023c98310013a603",
    "diversity/g-vendi-features-select.json":
        "898fe6489af73d3133ecfef95c22904daae60756e5ca6791daf94a7521e3b998",
    "diversity/g-vendi-corpus.json":
        "8f4168e0295f8c78b18287acfdb851ffa1b84adfa4d14cd6688a6302f659b6db",
    "diversity/g-vendi-corpus-select.json":
        "a76d070413fe49f8674644977e0ec5072db0766ebf2d8c35e7484a73d0382653",
    "diversity/embedding-vendi-features.json":
        "1ae6070a6a4b146a0e0abf1a2bdb2b9a543c950f859b3026f562a851934be3ff",
    "diversity/embedding-vendi-features-select.json":
        "9b57dc1fc137cb911622c1e2f38afb673642f55114f7dba9fc2f12fcc31b1bd2",
    "diversity/embedding-vendi-corpus.json":
        "a59b26b7bcde3a316506aa55c57c954383a4edb6306756ec2da29a49bbcc1aff",
    "diversity/embedding-vendi-corpus-select.json":
        "5cfad1837643e3b6419e952958ab5a3bf2e1e337eed23d407821af1859254ef9",
    "diversity/embedding-dissim-features.json":
        "c8848e78abb805d215a9f4aa0df201faefc00cffd5d8051a8af6119bc777b285",
    "diversity/embedding-dissim-features-select.json":
        "14c9ae76645879cb4bfaa1b5b8fdd713819cebf73ff6eb821258ff6070a29585",
    "diversity/embedding-dissim-corpus.json":
        "00e48589a6145ce9fe97ddb7c0335e9f841dfa3def104a9c247f6a85bf404962",
    "diversity/embedding-dissim-corpus-select.json":
        "143a71eabffa1001979c54b378c7e262b7fd135f1fe811b6bd717395d7388f3a",
    "diversity/ngram-entropy.json":
        "426e41468a20293c0e30f3ff3097d82276030d9acf64728bc698fbeeb25e7646",
    "diversity/tag-entropy.json":
        "32c433b4da71f8be9e6da624f02b1cfc25aae64b67d9e2d2256344b11198ae46",
    "diversity/mean-nll.json":
        "dd8f3ec5ff2ab207b8f11f5b74ac31674161515d444a2d462759c86cb79e9ade",
    "decontaminate/kept.jsonl":
        "c58d21d198719bdb272d25164d9683ef86ef8dbaf0737e804c49ea04eb628df0",
    "decontaminate/flagged.jsonl":
        "66559a92fff3880e97666ac0e4f3f64183cf7d381ca3b4b97b1ccfa821f4c4ac",
    "synth-builtin/pool.jsonl":
        "f2f9b159edb9c75741845e6359ab49f137f3b2438551424d3e937e9de22e4578",
    "synth-builtin/state.json":
        "9ea43a2d633183e3c07bef85a463ac8f3244e3c5c3ba485fdd36f7df8dc9c8b2",
    "synth-builtin/features.gvfm":
        "41856444a36eea6443447634cdba20444c6ec80a12f8f210f999423407bf0bff",
    "synth-cmd/pool.jsonl":
        "dad44519b043a6718d264dd134f742473a7a0d1b15258aed8ebf9a45b7e20c57",
    "synth-cmd/state.json":
        "1476298a755047fb44441dfe65fc8bd46a0aa72bec75e86076478fe562b76182",
    "synth-cmd/features.gvfm":
        "03a17961041f679f92aea30ec3c1e285cb8dda0482938c7b70a9640ea93d10ae",
    "evaluate.json":
        "ae55f4b2b297d74bb5e54e761b19e569c68b24a6b79bfd4f5c20eb05f2519477",
    "report.tsv":
        "6b57630731fdb1a804d5468e12ba9447d971bb8360a20f2a3acbe62d55b08923",
}


def _cli(*argv: str) -> None:
    rc = main(list(argv))
    assert rc == 0, f"gvendi {' '.join(argv)} exited {rc}"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for sub in ("featurize", "sample", "diversity", "decontaminate"):
        (root / sub).mkdir()
    corpus = str(root / "pool.jsonl")
    write_jsonl(template_corpus(6, 20, seed=17, name="golden"), corpus)
    grad = str(root / "featurize" / "gradient.gvfm")
    emb = str(root / "featurize" / "embedding.gvfm")

    _cli("featurize", "--input", corpus, "--output", grad, *PROXY)
    _cli("featurize", "--input", corpus, "--output", emb, "--featurizer", "embedding")
    _cli("cluster", "--features", grad, "--k", "6", "--seed", "3",
         "--output", str(root / "cluster.json"))

    sample = root / "sample"
    strategies = {
        "higher": ["--k", "6"],
        "lower": [],
        "random": [],
        "mixture": ["--parents", str(sample / "higher.json"), str(sample / "lower.json"),
                    "--weights", "2,1"],
    }
    for name, extra in strategies.items():
        _cli("sample", "--features", grad, "--strategy", name, "--n", "30", "--seed", "7",
             *extra, "--output", str(sample / f"{name}.json"))

    div = root / "diversity"
    select = ["--select", str(sample / "random.json")]
    for metric, feats in (("g-vendi", grad), ("embedding-vendi", emb),
                          ("embedding-dissim", emb)):
        for source, src_args in (("features", ["--features", feats]),
                                 ("corpus", ["--corpus", corpus, *PROXY])):
            for suffix, sel in (("", []), ("-select", select)):
                _cli("diversity", "--metric", metric, *src_args, *sel,
                     "--output", str(div / f"{metric}-{source}{suffix}.json"))
    for metric in ("ngram-entropy", "tag-entropy", "mean-nll"):
        _cli("diversity", "--metric", metric, "--corpus", corpus, *PROXY,
             "--output", str(div / f"{metric}.json"))

    protected = root / "protected.jsonl"
    lines = (root / "pool.jsonl").read_text(encoding="utf-8").splitlines()
    protected.write_text("\n".join(lines[::15]) + "\n", encoding="utf-8")
    _cli("decontaminate", "--corpus", corpus, "--protected", str(protected),
         "--ngram", "6", "--output", str(root / "decontaminate" / "kept.jsonl"),
         "--flagged", str(root / "decontaminate" / "flagged.jsonl"))

    synth = ["synthesize", "--corpus", corpus, "--iterations", "2", "--gen-batch", "12",
             "--k-fraction", "0.1", "--seed", "5", *PROXY]
    _cli(*synth, "--outdir", str(root / "synth-builtin"),
         "--generator", "recombine", "--solver", "echo:0.2")
    worker = root / "worker.py"
    worker.write_text(WORKER, encoding="utf-8")
    cmd = "cmd:" + shlex.join([sys.executable, str(worker)])
    _cli("--threads", "2", *synth, "--outdir", str(root / "synth-cmd"),
         "--protected", str(protected), "--ngram", "5", "--generator", cmd, "--solver", cmd)

    acc = root / "acc.csv"
    acc.write_text("model,b1,b2\nref,0.8,0.5\nm1,0.4,0.25\nm2,0.6,0.45\nm3,0.72,0.48\n")
    dcsv = root / "div.csv"
    dcsv.write_text("model,diversity\nm1,5.0\nm2,11.0\nm3,17.0\n")
    table = ["--table", str(acc), "--reference", "ref", "--diversity", str(dcsv)]
    _cli("evaluate", *table, "--output", str(root / "evaluate.json"))
    _cli("report", *table, "--output", str(root / "report.tsv"))

    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in GOLDEN if (root / name).exists()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifact(artifacts, name):
    assert name in artifacts, f"{name} was not written"
    assert artifacts[name] == GOLDEN[name], f"{name}: sha256 {artifacts[name]}"
