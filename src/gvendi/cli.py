"""Command-line pipeline: ingest, featurize, score, sample, synthesize.

Every run is reproducible: all randomness flows from named seeds with
documented defaults, flags override config-file keys which override
defaults, and no command reads the clock but for an endpoint's deadline.
Config files are flat `key = value` text; the GVENDI_CONFIG environment
variable names a default config path. Each option is declared once (`_opt`)
with its flag, config key, type and either a CLI default or the library
parameter whose default applies; `gvendi <command> --help` lists them.

Exit codes: 0 success, 1 runtime failure (one-line `error: ...` on stderr),
2 usage errors.
"""

from __future__ import annotations

import argparse
import fcntl
import inspect
import json
import os
import sys
from typing import Callable, Collection, NamedTuple, Sequence

from .cluster import dynamic_k, kmeans_fit
from .corpus import Corpus, ingest_jsonl, load_json, open_atomic, open_text, write_jsonl
from .featmat import load_features
from .metrics import (
    DiversityReport,
    embedding_vendi,
    g_vendi,
    mean_nll,
    ngram_entropy,
    report_from_features,
    report_from_tfidf,
    tag_entropy,
)
from .evalstats import AccuracyTable, fit_r2, paired_perf, relative_perf
from .proxy import ProjectionSpec, ProxyModel, embed_hashed_tfidf, embed_stream, featurize_stream
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
    run_synthesis,
)

CONFIG_ENV = "GVENDI_CONFIG"


def parse_config(path: str, known: Collection[str] | None = None) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; blank lines ignored.
    A key set twice, or one outside `known` when it is given, is an error."""
    out: dict[str, str] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}: line {lineno}: key {key!r} is already set")
            if known is not None and key not in known:
                raise ValueError(f"{path}: line {lineno}: no command reads key {key!r}")
            out[key] = val
    return out


class _Keyed(NamedTuple):
    """How a command option is read when its flag is absent."""

    flag: str
    key: str  # config-file key
    type: Callable[[str], object]
    default: object  # None: no CLI default (required, or the library default applies)
    many: bool  # a multi-valued flag; its config value is comma-separated
    library: tuple[Callable, str] | None  # (callable, parameter) the value is passed to


def _opt(p: argparse.ArgumentParser, flag: str, key: str, type=str, default=None,
         help: str | None = None, library: tuple[Callable, str] | None = None,
         **kwargs) -> None:
    """Declare option `flag` with its config key, type and CLI default.

    The flag beats config key `key`, which beats `default` (see `_resolve`).
    An option with `library` = (callable, parameter) has no CLI default: it
    is passed as that keyword argument when set (see `_given`), and its help
    shows the default from the callable's signature.
    """
    shown = default
    if library is not None:
        shown = inspect.signature(library[0]).parameters[library[1]].default
    shown = f"config: {key}" if shown is None else f"config: {key}; default: {shown}"
    action = p.add_argument(flag, type=type, help=f"{help} [{shown}]" if help else f"[{shown}]",
                            **kwargs)
    p.get_default("keyed")[action.dest] = _Keyed(flag, key, type, default, action.nargs == "+",
                                                  library)


def _resolve(args: argparse.Namespace, config: dict[str, str]) -> None:
    """Give every keyed option its config value or default where no flag set it."""
    for dest, opt in args.keyed.items():
        if getattr(args, dest) is not None:
            continue
        raw = config.get(opt.key)
        if raw is None:
            setattr(args, dest, opt.default)
            continue
        try:
            value = [opt.type(v) for v in raw.split(",") if v] if opt.many else opt.type(raw)
        except ValueError:
            raise ValueError(
                f"config key {opt.key!r}: expected {opt.type.__name__}, got {raw!r}"
            ) from None
        setattr(args, dest, value)


def _need(args: argparse.Namespace, dest: str):
    """The value of an option the command cannot run without."""
    value = getattr(args, dest)
    if value is None:
        opt = args.keyed[dest]
        raise ValueError(f"missing required setting {opt.key!r} (flag {opt.flag})")
    return value


def _given(args: argparse.Namespace, fn: Callable) -> dict:
    """Keyword arguments for `fn` from the options declared with it as their
    library callable that a flag or config key set."""
    return {
        opt.library[1]: getattr(args, dest)
        for dest, opt in args.keyed.items()
        if opt.library is not None and opt.library[0] == fn and getattr(args, dest) is not None
    }


def _proxy_from(args: argparse.Namespace) -> ProxyModel:
    return ProxyModel.create(**_given(args, ProxyModel.create))


def _gradient_from(args: argparse.Namespace) -> tuple[ProxyModel, ProjectionSpec]:
    model = _proxy_from(args)
    return model, ProjectionSpec(model.n_params, **_given(args, ProjectionSpec))


def _write_text(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open_atomic(path) as fh:
            fh.write(text)


def _summarize(summary: dict, *outputs: str | None) -> None:
    """Print a command's JSON summary on stdout, or on stderr where one of
    its `outputs` is the file fd 1 writes to (`--output /dev/stdout`), so
    the summary does not join that file."""
    try:
        shared = any(os.path.samestat(os.stat(p), os.fstat(1)) for p in outputs if p)
    except OSError:
        shared = False
    print(json.dumps(summary, sort_keys=True), file=sys.stderr if shared else sys.stdout)


def cmd_ingest(args: argparse.Namespace) -> None:
    corpus = ingest_jsonl(_need(args, "input"))
    out = _need(args, "output")
    write_jsonl(corpus, out)
    _summarize({"samples": len(corpus), "output": out}, out)


def cmd_featurize(args: argparse.Namespace) -> None:
    corpus = ingest_jsonl(_need(args, "input"))
    out = _need(args, "output")
    if args.featurizer == "gradient":
        stream = featurize_stream(*_gradient_from(args), corpus)
    elif args.featurizer == "embedding":
        stream = embed_stream(corpus, **_given(args, embed_hashed_tfidf))
    else:
        raise ValueError(f"unknown featurizer {args.featurizer!r} (expected gradient or embedding)")
    stream.store(out)
    _summarize({"rows": stream.rows, "dim": stream.dim, "output": out}, out)


def _load_selection(path: str, sample_ids: Sequence[str]) -> list[int]:
    """Row indices, in file order, of the ids in a JSON id-list file; an
    unknown or repeated id is an error that names the file."""
    ids = load_json(path)
    if not isinstance(ids, list) or not all(isinstance(s, str) for s in ids):
        raise ValueError(f"{path}: expected a JSON array of sample ids")
    index = {sid: i for i, sid in enumerate(sample_ids)}
    seen: set[str] = set()
    for sid in ids:
        if sid not in index:
            raise ValueError(f"{path}: unknown sample id {sid!r}")
        if sid in seen:
            raise ValueError(f"{path}: repeated sample id {sid!r}")
        seen.add(sid)
    return [index[sid] for sid in ids]


# metric -> (args, corpus) -> report
_CORPUS_METRICS = {
    "g_vendi": lambda args, corpus: g_vendi(*_gradient_from(args), corpus),
    "embedding_vendi": lambda args, corpus: embedding_vendi(
        corpus, **_given(args, embed_hashed_tfidf)
    ),
    "embedding_dissim": lambda args, corpus: report_from_tfidf(
        "embedding_dissim", corpus, {}, **_given(args, embed_hashed_tfidf)
    ),
    "ngram_entropy": lambda args, corpus: DiversityReport(
        "ngram_entropy", ngram_entropy(corpus, args.order), len(corpus), {"order": args.order}
    ),
    "tag_entropy": lambda args, corpus: DiversityReport(
        "tag_entropy", tag_entropy(corpus), len(corpus), {}
    ),
    "mean_nll": lambda args, corpus: DiversityReport(
        "mean_nll", mean_nll(_proxy_from(args), corpus), len(corpus), {}
    ),
}
# metrics that can score a stored feature matrix (--features) instead
_FEATURE_METRICS = ("g_vendi", "embedding_vendi", "embedding_dissim")


def cmd_diversity(args: argparse.Namespace) -> None:
    metric = _need(args, "metric").replace("-", "_")
    if metric not in _CORPUS_METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if args.features and metric in _FEATURE_METRICS:
        feats = load_features(args.features)
        if args.select:
            feats = feats.take(_load_selection(args.select, feats.sample_ids))
        params = {"features": os.path.basename(args.features)}
        report = report_from_features(metric, feats, params)
    else:
        if args.corpus is None:
            alt = "or --features" if metric in _FEATURE_METRICS else "not scorable from a feature file"
            raise ValueError(f"metric {metric} needs --corpus ({alt})")
        corpus = ingest_jsonl(args.corpus)
        if args.select:
            corpus = corpus.subset(_load_selection(args.select, corpus.ids()))
        report = _CORPUS_METRICS[metric](args, corpus)
    _write_text(args.output, report.to_json())


def cmd_cluster(args: argparse.Namespace) -> None:
    feats = load_features(_need(args, "features"))
    k = args.k
    if k is None:
        k = dynamic_k(feats.rows, **_given(args, dynamic_k))
    _write_text(args.output, kmeans_fit(feats, k, seed=args.seed).to_json())


def cmd_sample(args: argparse.Namespace) -> None:
    feats = load_features(_need(args, "features"))
    strategy = _need(args, "strategy")
    n_target = _need(args, "n")
    if strategy == "random":
        sel = sample_random(feats, n_target, args.seed)
    elif strategy == "higher":
        sel = sample_higher_diversity(feats, _need(args, "k"), n_target, args.seed)
    elif strategy == "lower":
        sel = sample_lower_diversity(
            feats, args.seed_size, args.batch_size, n_target, args.tau, args.seed
        )
    elif strategy == "mixture":
        parents = [_load_selection(p, feats.sample_ids) for p in _need(args, "parents")]
        if args.weights is None:
            weights = [1.0] * len(parents)
        else:
            weights = [_number("--weights", args.weights, w) for w in args.weights.split(",") if w]
        sel = sample_mixture(parents, weights, n_target, args.seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    _write_text(args.output, json.dumps([feats.sample_ids[i] for i in sel]))


def _number(flag: str, value: str, part: str) -> float:
    """float(part), where part is taken from the value of flag."""
    try:
        return float(part)
    except ValueError:
        raise ValueError(f"{flag} {value!r}: {part!r} is not a number") from None


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
        return EchoSolver(error_rate=_number("--solver", spec, spec.split(":", 1)[1]))
    remote = _remote_endpoint(spec)
    if remote is None:
        raise ValueError(f"unknown solver spec {spec!r} (echo[:rate] | cmd:... | http(s)://...)")
    return remote


class _DirLock:
    """Single writer per output directory: an exclusive flock on its `.lock`.

    The kernel drops the flock when the holder dies, so a `.lock` left by a
    killed run does not block a resume. A clean exit removes the file.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, ".lock")
        self.fd: int | None = None

    def __enter__(self):
        while True:
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise ValueError(f"output directory is locked: {self.path} is held") from None
            if os.fstat(fd).st_nlink:  # else a holder unlinked it on exit: open afresh
                self.fd = fd
                return self
            os.close(fd)

    def __exit__(self, *exc):
        os.unlink(self.path)
        os.close(self.fd)


def cmd_synthesize(args: argparse.Namespace) -> None:
    seed_corpus = ingest_jsonl(_need(args, "corpus"))
    outdir = _need(args, "outdir")
    protected = ingest_jsonl(args.protected) if args.protected else Corpus(())
    config = SynthesisConfig(
        iterations=_need(args, "iterations"),
        gen_batch=_need(args, "gen_batch"),
        **_given(args, SynthesisConfig),
    )
    generator = _make_generator(args.generator)
    solver = _make_solver(args.solver)
    model, proj = _gradient_from(args)
    with _DirLock(outdir):
        state = run_synthesis(
            seed_corpus, config, generator, solver, model, proj,
            protected=protected, checkpoint_dir=outdir,
        )
    _summarize({
        "iterations": state.iteration,
        "pool_size": len(state.pool),
        "pool_g_vendi": state.history[-1]["pool_g_vendi"] if state.history else None,
        "outdir": outdir,
    })


def cmd_decontaminate(args: argparse.Namespace) -> None:
    corpus = ingest_jsonl(_need(args, "corpus"))
    protected = ingest_jsonl(_need(args, "protected"))
    kept, flagged = decontaminate(list(corpus), protected, args.ngram)
    write_jsonl(Corpus(tuple(kept), name=corpus.name), _need(args, "output"))
    if args.flagged:
        write_jsonl(Corpus(tuple(flagged), name=corpus.name), args.flagged)
    _summarize({"kept": len(kept), "flagged": len(flagged), "ngram": args.ngram},
               args.output, args.flagged)


def cmd_evaluate(args: argparse.Namespace) -> None:
    table = AccuracyTable.from_csv(_need(args, "table"), _need(args, "reference"))
    result: dict = {
        "reference": table.reference_model,
        "perf": {m: relative_perf(table, m) for m in table.models},
    }
    if args.diversity:
        div, perf, _ = zip(*paired_perf(table, args.diversity))
        result["correlation"] = json.loads(fit_r2(div, perf).to_json())
    _write_text(args.output, json.dumps(result, sort_keys=True))


def cmd_report(args: argparse.Namespace) -> None:
    table = AccuracyTable.from_csv(_need(args, "table"), _need(args, "reference"))
    rows = sorted(paired_perf(table, _need(args, "diversity")))
    lines = ["diversity\tperf\tmodel"] + [f"{d!r}\t{p!r}\t{m}" for d, p, m in rows]
    _write_text(args.output, "\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvendi",
        description="Gradient-entropy diversity metrics and diversity-targeted synthesis.",
    )
    parser.add_argument("--config", help=f"config file (default: ${CONFIG_ENV})")
    parser.set_defaults(keyed={})
    _opt(parser, "--threads", "threads", int,
         help="max request parallelism of http(s):// and in-process endpoints (synthesize)",
         library=(SynthesisConfig, "max_workers"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # each command's table starts with the top-level keyed options
        p.set_defaults(fn=fn, keyed=dict(parser.get_default("keyed")))
        return p

    p = add("ingest", cmd_ingest, help="normalize a JSONL corpus (assign ids, dedup)")
    _opt(p, "--input", "corpus", help="input JSONL corpus")
    _opt(p, "--output", "output", help="normalized JSONL output")

    p = add("featurize", cmd_featurize, help="corpus -> binary feature matrix")
    _opt(p, "--input", "corpus", help="input JSONL corpus")
    _opt(p, "--output", "features", help="feature file to write")
    _opt(p, "--featurizer", "featurizer", default="gradient", choices=["gradient", "embedding"])
    _add_proxy_flags(p)
    _add_embedding_flags(p)

    p = add("diversity", cmd_diversity, help="compute a diversity metric")
    _opt(p, "--metric", "metric", choices=[m.replace("_", "-") for m in _CORPUS_METRICS])
    _opt(p, "--corpus", "corpus")
    _opt(p, "--features", "features")
    _opt(p, "--select", "select", help="id-list JSON restricting the metric to a subset")
    _opt(p, "--order", "ngram.order", int, 2, help="n-gram order (ngram-entropy)")
    _opt(p, "--output", "output")
    _add_proxy_flags(p)
    _add_embedding_flags(p)

    p = add("cluster", cmd_cluster, help="k-means over a feature matrix")
    _opt(p, "--features", "features")
    _opt(p, "--k", "cluster.k", int)
    _opt(p, "--k-fraction", "cluster.k_fraction", float, library=(dynamic_k, "fraction"))
    _opt(p, "--seed", "cluster.seed", int, 707)
    _opt(p, "--output", "output")

    p = add("sample", cmd_sample, help="select a subset of rows")
    _opt(p, "--features", "features")
    _opt(p, "--strategy", "sample.strategy", choices=["random", "higher", "lower", "mixture"])
    _opt(p, "--n", "sample.n", int)
    _opt(p, "--k", "sample.k", int, help="clusters (higher)")
    _opt(p, "--seed-size", "sample.seed_size", int, 5, help="initial members (lower)")
    _opt(p, "--batch-size", "sample.batch_size", int, 20, help="growth batch (lower)")
    _opt(p, "--tau", "sample.tau", float, 0.8, help="similarity threshold (lower)")
    _opt(p, "--parents", "sample.parents", nargs="+", help="parent id-list JSON files (mixture)")
    _opt(p, "--weights", "sample.weights", help="comma-separated parent weights (mixture)")
    _opt(p, "--seed", "sample.seed", int, 505)
    _opt(p, "--output", "output")

    p = add("synthesize", cmd_synthesize, help="run the cluster-and-filter growth loop")
    _opt(p, "--corpus", "corpus")
    _opt(p, "--outdir", "outdir")
    _opt(p, "--iterations", "synthesis.iterations", int)
    _opt(p, "--gen-batch", "synthesis.gen_batch", int)
    cfg = SynthesisConfig
    _opt(p, "--vote-n", "synthesis.vote_n", int, library=(cfg, "vote_n"))
    _opt(p, "--vote-tau", "synthesis.vote_tau", int, library=(cfg, "vote_tau"))
    _opt(p, "--k-fraction", "synthesis.k_fraction", float, library=(cfg, "k_fraction"))
    _opt(p, "--sparse-fraction", "synthesis.sparse_fraction", float,
         library=(cfg, "sparse_fraction"))
    _opt(p, "--fewshot", "synthesis.fewshot", int, library=(cfg, "fewshot_count"))
    _opt(p, "--ngram", "synthesis.ngram", int, library=(cfg, "decontam_ngram"))
    _opt(p, "--seed", "synthesis.seed", int, library=(cfg, "seed"))
    _opt(p, "--generator", "synthesis.generator", default="recombine",
         help="recombine | cmd:<argv> | http(s)://...")
    _opt(p, "--solver", "synthesis.solver", default="echo",
         help="echo[:rate] | cmd:<argv> | http(s)://...")
    _opt(p, "--protected", "protected", help="JSONL corpus to decontaminate against")
    _add_proxy_flags(p)

    p = add("decontaminate", cmd_decontaminate, help="drop samples overlapping a protected set")
    _opt(p, "--corpus", "corpus")
    _opt(p, "--protected", "protected")
    _opt(p, "--ngram", "decontaminate.ngram", int, 10)
    _opt(p, "--output", "output")
    _opt(p, "--flagged", "decontaminate.flagged", help="also write flagged samples here")

    for name, fn, text in (
        ("evaluate", cmd_evaluate, "relative performance and correlations from CSV"),
        ("report", cmd_report, "tab-separated (diversity, perf) table"),
    ):
        p = add(name, fn, help=text)
        _opt(p, "--table", "evaluate.table", help="accuracy CSV: model,<benchmark>,...")
        _opt(p, "--reference", "evaluate.reference", help="reference model name")
        _opt(p, "--diversity", "evaluate.diversity", help="diversity CSV: model,<diversity>")
        _opt(p, "--output", "output")

    # one config file serves every command, so a key is known if any command reads it
    parser.set_defaults(config_keys={opt.key for cmd in sub.choices.values()
                                     for opt in cmd.get_default("keyed").values()})
    return parser


def _add_proxy_flags(p: argparse.ArgumentParser) -> None:
    create = ProxyModel.create
    _opt(p, "--vocab-size", "proxy.vocab_size", int, library=(create, "vocab_size"))
    _opt(p, "--feature-dim", "proxy.feature_dim", int, library=(create, "feature_dim"))
    _opt(p, "--hash-seed", "proxy.hash_seed", int, library=(create, "hash_seed"))
    _opt(p, "--weight-seed", "proxy.weight_seed", int, library=(create, "weight_seed"))
    _opt(p, "--proj-dim", "projection.dim", int, library=(ProjectionSpec, "target_dim"))
    _opt(p, "--proj-seed", "projection.seed", int, library=(ProjectionSpec, "seed"))


def _add_embedding_flags(p: argparse.ArgumentParser) -> None:
    _opt(p, "--embed-dim", "embedding.dim", int, library=(embed_hashed_tfidf, "dim"))
    _opt(p, "--embed-seed", "embedding.seed", int, library=(embed_hashed_tfidf, "seed"))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config_path = args.config or os.environ.get(CONFIG_ENV)
    try:
        _resolve(args, parse_config(config_path, args.config_keys) if config_path else {})
        args.fn(args)
    except (ValueError, OSError, KeyError, EndpointError, MemoryError) as e:
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
