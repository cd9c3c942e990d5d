"""Command-line pipeline: ingest, featurize, score, sample, synthesize.

Every run is reproducible: all randomness flows from named seeds with
documented defaults, flags override config-file keys which override
defaults, and no command reads the clock. Config files are flat
`key = value` text; the GVENDI_CONFIG environment variable names a default
config path.

Exit codes: 0 success, 1 runtime failure (one-line `error: ...` on stderr),
2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .cluster import dynamic_k, kmeans_fit
from .corpus import Corpus, ingest_jsonl, write_jsonl
from .featmat import load_features, store_features
from .metrics import (
    DiversityReport,
    embedding_vendi,
    g_vendi,
    mean_nll,
    ngram_entropy,
    report_from_features,
    tag_entropy,
)
from .evalstats import AccuracyTable, correlation_study, relative_perf
from .proxy import ProjectionSpec, ProxyModel, embed_hashed_tfidf, featurize
from .sampling import (
    sample_higher_diversity,
    sample_lower_diversity,
    sample_mixture,
    sample_random,
)
from .synthesis import (
    EchoSolver,
    EndpointError,
    HttpJson,
    JsonLinesProcess,
    RecombinationGenerator,
    RemoteEndpoint,
    SynthesisConfig,
    decontaminate,
    gradient_featurizer,
    run_synthesis,
)

CONFIG_ENV = "GVENDI_CONFIG"

# documented default seeds; override via config or flags
DEFAULT_HASH_SEED = 101
DEFAULT_WEIGHT_SEED = 202
DEFAULT_PROJECTION_SEED = 303
DEFAULT_EMBED_SEED = 404
DEFAULT_SAMPLE_SEED = 505
DEFAULT_SYNTH_SEED = 606
DEFAULT_CLUSTER_SEED = 707

DEFAULT_VOCAB = 256
DEFAULT_FEATURE_DIM = 64
DEFAULT_PROJECTION_DIM = 1024
DEFAULT_EMBED_DIM = 32768


def parse_config(path: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


class Settings:
    """Flag > config > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.args = args
        self.config = config

    def get(self, flag: str, key: str, default=None, cast=str):
        val = getattr(self.args, flag, None)
        if val is not None:
            return val
        raw = self.config.get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ValueError(
                f"config key {key!r}: expected {cast.__name__}, got {raw!r}"
            ) from None

    def require(self, flag: str, key: str, cast=str):
        val = self.get(flag, key, None, cast)
        if val is None:
            raise ValueError(f"missing required setting {key!r} (flag --{flag.replace('_', '-')})")
        return val


def _proxy_from(settings: Settings) -> ProxyModel:
    return ProxyModel.create(
        vocab_size=settings.get("vocab_size", "proxy.vocab_size", DEFAULT_VOCAB, int),
        feature_dim=settings.get("feature_dim", "proxy.feature_dim", DEFAULT_FEATURE_DIM, int),
        hash_seed=settings.get("hash_seed", "proxy.hash_seed", DEFAULT_HASH_SEED, int),
        weight_seed=settings.get("weight_seed", "proxy.weight_seed", DEFAULT_WEIGHT_SEED, int),
    )


def _gradient_from(settings: Settings) -> tuple[ProxyModel, ProjectionSpec]:
    model = _proxy_from(settings)
    return model, ProjectionSpec(
        source_dim=model.n_params,
        target_dim=settings.get("proj_dim", "projection.dim", DEFAULT_PROJECTION_DIM, int),
        seed=settings.get("proj_seed", "projection.seed", DEFAULT_PROJECTION_SEED, int),
    )


def _embedding_from(settings: Settings) -> dict:
    return {
        "dim": settings.get("embed_dim", "embedding.dim", DEFAULT_EMBED_DIM, int),
        "seed": settings.get("embed_seed", "embedding.seed", DEFAULT_EMBED_SEED, int),
    }


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def cmd_ingest(settings: Settings) -> None:
    corpus = ingest_jsonl(settings.require("input", "corpus"))
    out = settings.require("output", "output")
    write_jsonl(corpus, out)
    print(json.dumps({"samples": len(corpus), "output": out}, sort_keys=True))


def cmd_featurize(settings: Settings) -> None:
    corpus = ingest_jsonl(settings.require("input", "corpus"))
    out = settings.require("output", "features")
    kind = settings.get("featurizer", "featurizer", "gradient")
    if kind == "gradient":
        feats = featurize(*_gradient_from(settings), corpus)
    elif kind == "embedding":
        feats = embed_hashed_tfidf(corpus, **_embedding_from(settings))
    else:
        raise ValueError(f"unknown featurizer {kind!r} (expected gradient or embedding)")
    store_features(feats, out)
    print(json.dumps({"rows": feats.rows, "dim": feats.dim, "output": out}, sort_keys=True))


def _load_selection(path: str, sample_ids: Sequence[str]) -> list[int]:
    """Row indices, in file order, of the ids in a JSON id-list file."""
    with open(path, "r", encoding="utf-8") as fh:
        ids = json.load(fh)
    if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
        raise ValueError(f"{path}: expected a JSON array of sample ids")
    index = {sid: i for i, sid in enumerate(sample_ids)}
    try:
        return [index[sid] for sid in ids]
    except KeyError as e:
        raise ValueError(f"{path}: unknown sample id {e.args[0]!r}") from None


def _ngram_report(settings: Settings, corpus: Corpus) -> DiversityReport:
    order = settings.get("order", "ngram.order", 2, int)
    value = ngram_entropy(corpus, order)
    return DiversityReport("ngram_entropy", value, len(corpus), {"order": order})


# metric -> (settings, corpus) -> report
_CORPUS_METRICS = {
    "g_vendi": lambda st, corpus: g_vendi(*_gradient_from(st), corpus),
    "embedding_vendi": lambda st, corpus: embedding_vendi(corpus, **_embedding_from(st)),
    "embedding_dissim": lambda st, corpus: report_from_features(
        "embedding_dissim", embed_hashed_tfidf(corpus, **_embedding_from(st)), {}
    ),
    "ngram_entropy": _ngram_report,
    "tag_entropy": lambda st, corpus: DiversityReport(
        "tag_entropy", tag_entropy(corpus), len(corpus), {}
    ),
    "mean_nll": lambda st, corpus: DiversityReport(
        "mean_nll", mean_nll(_proxy_from(st), corpus), len(corpus), {}
    ),
}
# metrics that can score a stored feature matrix (--features) instead
_FEATURE_METRICS = ("g_vendi", "embedding_vendi", "embedding_dissim")


def cmd_diversity(settings: Settings) -> None:
    metric = settings.require("metric", "metric").replace("-", "_")
    if metric not in _CORPUS_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    features_path = settings.get("features_in", "features")
    select_path = settings.get("select", "select")
    if features_path and metric in _FEATURE_METRICS:
        feats = load_features(features_path)
        if select_path:
            feats = feats.take(_load_selection(select_path, feats.sample_ids))
        params = {"features": os.path.basename(features_path)}
        report = report_from_features(metric, feats, params)
    else:
        corpus_path = settings.get("input", "corpus")
        if corpus_path is None:
            alt = "or --features" if metric in _FEATURE_METRICS else "not scorable from a feature file"
            raise ValueError(f"metric {metric} needs --corpus ({alt})")
        corpus = ingest_jsonl(corpus_path)
        if select_path:
            corpus = corpus.subset(_load_selection(select_path, corpus.ids()))
        report = _CORPUS_METRICS[metric](settings, corpus)
    _write_text(settings.get("output", "output"), report.to_json())


def cmd_cluster(settings: Settings) -> None:
    feats = load_features(settings.require("features_in", "features"))
    k = settings.get("k", "cluster.k", None, int)
    if k is None:
        k = dynamic_k(feats.rows, settings.get("k_fraction", "cluster.k_fraction", 0.01, float))
    model = kmeans_fit(feats, k, seed=settings.get("seed", "cluster.seed", DEFAULT_CLUSTER_SEED, int))
    _write_text(settings.get("output", "output"), model.to_json())


def cmd_sample(settings: Settings) -> None:
    feats = load_features(settings.require("features_in", "features"))
    strategy = settings.require("strategy", "sample.strategy")
    n_target = settings.require("n", "sample.n", int)
    seed = settings.get("seed", "sample.seed", DEFAULT_SAMPLE_SEED, int)
    if strategy == "random":
        sel = sample_random(feats, n_target, seed)
    elif strategy == "higher":
        sel = sample_higher_diversity(
            feats, settings.require("k", "sample.k", int), n_target, seed
        )
    elif strategy == "lower":
        sel = sample_lower_diversity(
            feats,
            settings.get("seed_size", "sample.seed_size", 5, int),
            settings.get("batch_size", "sample.batch_size", 20, int),
            n_target,
            settings.get("tau", "sample.tau", 0.8, float),
            seed,
        )
    elif strategy == "mixture":
        parent_paths = settings.require("parents", "sample.parents")
        if isinstance(parent_paths, str):
            parent_paths = [p for p in parent_paths.split(",") if p]
        parents = [_load_selection(p, feats.sample_ids) for p in parent_paths]
        weights_raw = settings.get("weights", "sample.weights", None)
        if weights_raw is None:
            weights = [1.0] * len(parents)
        else:
            weights = [float(w) for w in str(weights_raw).split(",") if w]
        sel = sample_mixture(parents, weights, n_target, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    ids = [feats.sample_ids[i] for i in sel]
    _write_text(settings.get("output", "output"), json.dumps(ids))


def _remote_endpoint(spec: str) -> RemoteEndpoint | None:
    """A fresh worker for a `cmd:<argv>` or `http(s)://...` spec, else None."""
    if spec.startswith(("http://", "https://")):
        return RemoteEndpoint(HttpJson(spec))
    if spec.startswith("cmd:"):
        return RemoteEndpoint(JsonLinesProcess(spec[len("cmd:") :]))
    return None


def _make_generator(spec: str):
    spec = spec.removeprefix("builtin:")
    if spec == "recombine":
        return RecombinationGenerator()
    remote = _remote_endpoint(spec)
    if remote is None:
        raise ValueError(f"unknown generator spec {spec!r} (recombine | cmd:... | http(s)://...)")
    return remote


def _make_solver(spec: str):
    spec = spec.removeprefix("builtin:")
    if spec == "echo":
        return EchoSolver()
    if spec.startswith("echo:"):
        return EchoSolver(error_rate=float(spec.split(":", 1)[1]))
    remote = _remote_endpoint(spec)
    if remote is None:
        raise ValueError(f"unknown solver spec {spec!r} (echo[:rate] | cmd:... | http(s)://...)")
    return remote


class _DirLock:
    """Single writer per output directory; stale locks must be removed by hand."""

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, ".lock")
        self.fd: int | None = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ValueError(f"output directory is locked by {self.path}; remove it if stale") from None
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
        os.unlink(self.path)


def cmd_synthesize(settings: Settings) -> None:
    seed_corpus = ingest_jsonl(settings.require("input", "corpus"))
    outdir = settings.require("outdir", "outdir")
    protected_path = settings.get("protected", "protected")
    protected = ingest_jsonl(protected_path) if protected_path else None
    config = SynthesisConfig(
        iterations=settings.require("iterations", "synthesis.iterations", int),
        gen_batch=settings.require("gen_batch", "synthesis.gen_batch", int),
        vote_n=settings.get("vote_n", "synthesis.vote_n", 3, int),
        vote_tau=settings.get("vote_tau", "synthesis.vote_tau", 2, int),
        k_fraction=settings.get("k_fraction", "synthesis.k_fraction", 0.01, float),
        sparse_fraction=settings.get("sparse_fraction", "synthesis.sparse_fraction", None, float),
        fewshot_count=settings.get("fewshot", "synthesis.fewshot", 5, int),
        decontam_ngram=settings.get("ngram", "synthesis.ngram", 10, int),
        seed=settings.get("seed", "synthesis.seed", DEFAULT_SYNTH_SEED, int),
        max_workers=settings.get("threads", "threads", 1, int),
    )
    generator = _make_generator(settings.get("generator", "synthesis.generator", "recombine"))
    solver = _make_solver(settings.get("solver", "synthesis.solver", "echo"))
    featurizer = gradient_featurizer(*_gradient_from(settings))
    try:
        with _DirLock(outdir):
            state = run_synthesis(
                seed_corpus, config, generator, solver, featurizer,
                protected=protected, checkpoint_dir=outdir,
            )
    finally:
        for endpoint in (generator, solver):
            close = getattr(endpoint, "close", None)
            if close:
                close()
    print(
        json.dumps(
            {
                "iterations": state.iteration,
                "pool_size": len(state.pool),
                "pool_g_vendi": state.history[-1]["pool_g_vendi"] if state.history else None,
                "outdir": outdir,
            },
            sort_keys=True,
        )
    )


def cmd_decontaminate(settings: Settings) -> None:
    corpus = ingest_jsonl(settings.require("input", "corpus"))
    protected = ingest_jsonl(settings.require("protected", "protected"))
    ngram = settings.get("ngram", "decontaminate.ngram", 10, int)
    kept, flagged = decontaminate(list(corpus), protected, ngram)
    out = settings.require("output", "output")
    write_jsonl(Corpus(tuple(kept), name=corpus.name), out)
    flagged_path = settings.get("flagged", "decontaminate.flagged")
    if flagged_path:
        write_jsonl(Corpus(tuple(flagged), name=corpus.name), flagged_path)
    print(json.dumps({"kept": len(kept), "flagged": len(flagged), "ngram": ngram}, sort_keys=True))


def _diversity_map(path: str) -> dict[str, float]:
    """CSV `model,diversity` -> mapping."""
    import csv

    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected header 'model,diversity'")
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            try:
                out[row[0].strip()] = float(row[1])
            except (IndexError, ValueError):
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected 'model,diversity'"
                ) from None
    return out


def cmd_evaluate(settings: Settings) -> None:
    table = AccuracyTable.from_csv(
        settings.require("table", "evaluate.table"),
        settings.require("reference", "evaluate.reference"),
    )
    result: dict = {
        "reference": table.reference_model,
        "perf": {m: relative_perf(table, m) for m in table.models},
    }
    diversity_path = settings.get("diversity", "evaluate.diversity")
    if diversity_path:
        dmap = _diversity_map(diversity_path)
        pairs = [(dmap[m], result["perf"][m]) for m in table.models if m in dmap]
        if len(pairs) < 3:
            raise ValueError("need diversity values for at least 3 models")
        report = correlation_study(pairs)
        result["correlation"] = json.loads(report.to_json())
    _write_text(settings.get("output", "output"), json.dumps(result, sort_keys=True))


def cmd_report(settings: Settings) -> None:
    table = AccuracyTable.from_csv(
        settings.require("table", "evaluate.table"),
        settings.require("reference", "evaluate.reference"),
    )
    dmap = _diversity_map(settings.require("diversity", "evaluate.diversity"))
    rows = []
    for m in table.models:
        if m in dmap:
            rows.append((dmap[m], relative_perf(table, m), m))
    rows.sort()
    lines = ["diversity\tperf\tmodel"]
    lines += [f"{d!r}\t{p!r}\t{m}" for d, p, m in rows]
    _write_text(settings.get("output", "output"), "\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvendi",
        description="Gradient-entropy diversity metrics and diversity-targeted synthesis.",
    )
    parser.add_argument("--config", help=f"config file (default: ${CONFIG_ENV})")
    parser.add_argument("--threads", type=int, help="max request parallelism (synthesize)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("ingest", cmd_ingest, help="normalize a JSONL corpus (assign ids, dedup)")
    p.add_argument("--input", help="input JSONL corpus")
    p.add_argument("--output", help="normalized JSONL output")

    p = add("featurize", cmd_featurize, help="corpus -> binary feature matrix")
    p.add_argument("--input", help="input JSONL corpus")
    p.add_argument("--output", help="feature file to write")
    p.add_argument("--featurizer", choices=["gradient", "embedding"])
    _add_proxy_flags(p)
    _add_embedding_flags(p)

    p = add("diversity", cmd_diversity, help="compute a diversity metric")
    p.add_argument(
        "--metric",
        choices=[
            "g-vendi", "embedding-vendi", "embedding-dissim",
            "ngram-entropy", "tag-entropy", "mean-nll",
        ],
    )
    p.add_argument("--corpus", dest="input")
    p.add_argument("--features", dest="features_in")
    p.add_argument("--select", help="id-list JSON restricting the metric to a subset")
    p.add_argument("--order", type=int, help="n-gram order (ngram-entropy)")
    p.add_argument("--output")
    _add_proxy_flags(p)
    _add_embedding_flags(p)

    p = add("cluster", cmd_cluster, help="k-means over a feature matrix")
    p.add_argument("--features", dest="features_in")
    p.add_argument("--k", type=int)
    p.add_argument("--k-fraction", dest="k_fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = add("sample", cmd_sample, help="select a subset of rows")
    p.add_argument("--features", dest="features_in")
    p.add_argument("--strategy", choices=["random", "higher", "lower", "mixture"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, help="clusters (higher)")
    p.add_argument("--seed-size", dest="seed_size", type=int, help="initial members (lower)")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="growth batch (lower)")
    p.add_argument("--tau", type=float, help="similarity threshold (lower)")
    p.add_argument("--parents", nargs="+", help="parent id-list JSON files (mixture)")
    p.add_argument("--weights", help="comma-separated parent weights (mixture)")
    p.add_argument("--seed", type=int)
    p.add_argument("--output")

    p = add("synthesize", cmd_synthesize, help="run the cluster-and-filter growth loop")
    p.add_argument("--corpus", dest="input")
    p.add_argument("--outdir")
    p.add_argument("--iterations", type=int)
    p.add_argument("--gen-batch", dest="gen_batch", type=int)
    p.add_argument("--vote-n", dest="vote_n", type=int)
    p.add_argument("--vote-tau", dest="vote_tau", type=int)
    p.add_argument("--k-fraction", dest="k_fraction", type=float)
    p.add_argument("--sparse-fraction", dest="sparse_fraction", type=float)
    p.add_argument("--fewshot", type=int)
    p.add_argument("--ngram", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--generator", help="recombine | cmd:<argv> | http(s)://...")
    p.add_argument("--solver", help="echo[:rate] | cmd:<argv> | http(s)://...")
    p.add_argument("--protected", help="JSONL corpus to decontaminate against")
    _add_proxy_flags(p)

    p = add("decontaminate", cmd_decontaminate, help="drop samples overlapping a protected set")
    p.add_argument("--corpus", dest="input")
    p.add_argument("--protected")
    p.add_argument("--ngram", type=int)
    p.add_argument("--output")
    p.add_argument("--flagged", help="also write flagged samples here")

    p = add("evaluate", cmd_evaluate, help="relative performance and correlations from CSV")
    p.add_argument("--table", help="accuracy CSV: model,<benchmark>,...")
    p.add_argument("--reference", help="reference model name")
    p.add_argument("--diversity", help="CSV model,diversity for correlation")
    p.add_argument("--output")

    p = add("report", cmd_report, help="tab-separated (diversity, perf) table")
    p.add_argument("--table")
    p.add_argument("--reference")
    p.add_argument("--diversity")
    p.add_argument("--output")

    return parser


def _add_proxy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--feature-dim", dest="feature_dim", type=int)
    p.add_argument("--hash-seed", dest="hash_seed", type=int)
    p.add_argument("--weight-seed", dest="weight_seed", type=int)
    p.add_argument("--proj-dim", dest="proj_dim", type=int)
    p.add_argument("--proj-seed", dest="proj_seed", type=int)


def _add_embedding_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--embed-seed", dest="embed_seed", type=int)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_path = args.config or os.environ.get(CONFIG_ENV)
    try:
        config = parse_config(config_path) if config_path else {}
        args.fn(Settings(args, config))
    except (ValueError, OSError, KeyError, EndpointError) as e:
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
