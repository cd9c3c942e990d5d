"""The three benchmark workloads: inputs, timed command sequence and checks.

Every workload is a closed, single-client sequence of `gvendi` commands over
inputs generated from the workload seed with `gvendi.datagen`:

score   featurize a 4000-row corpus, then score it (g-vendi and
        embedding-dissim from the .gvfm). The scoring path users run most:
        one large batch through `proxy`; it bypasses `cluster` and
        `synthesis`.
select  the paper's sampling-spectrum experiment on a 3000-row pool whose
        .gvfm is built during set-up: cluster, four samplers, then g-vendi
        and TF-IDF embedding-vendi of each selection. Exercises `cluster`,
        `sampling`, `.gvfm` reads and TF-IDF; never calls `featurize`.
grow    8 synthesis steps of 200 candidates against a 500-row protected
        corpus, with the stand-in `endpoint.py` as generator and solver on
        2 request threads. Many small featurize batches, k-means on a
        growing pool, the process transport and a checkpoint rewrite per
        step.

Only `setup` imports gvendi (lazily); commands and checks use the standard
library, so the orchestrator can check outputs without numpy.
"""

from __future__ import annotations

import json
import shlex
import struct
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

SIZES = {
    "full": {
        "score": {"families": 40, "per_family": 100},
        "select": {"families": 30, "per_family": 100, "pick": 600, "k": 20},
        "grow": {"seed_pool": [550] + [50] * 9, "protected": 50,
                 "iterations": 8, "gen_batch": 200, "threads": 2},
    },
    "tiny": {
        "score": {"families": 10, "per_family": 20},
        "select": {"families": 10, "per_family": 20, "pick": 40, "k": 5},
        "grow": {"seed_pool": [110] + [10] * 9, "protected": 5,
                 "iterations": 2, "gen_batch": 20, "threads": 2},
    },
}

WORKLOADS = ("score", "select", "grow")
STRATEGIES = ("higher", "lower", "random", "mixture")
PROJ_DIM = 1024  # the CLI default, checked in .gvfm headers
GVFM_HEADER = struct.Struct("<4sIQIBQQ")


def rows(workload: str, size: dict) -> int:
    """Rows one pass counts for rows_per_s."""
    if workload == "grow":
        return size["iterations"] * size["gen_batch"]
    return size["families"] * size["per_family"]


# ---------------------------------------------------------------------------
# set-up (runs in a child process that has gvendi on its path)


def setup(workload: str, seed: int, size: dict, inputs: Path, run_cli) -> list[dict]:
    """Write the workload's inputs into `inputs`; return the CLI calls made."""
    from gvendi import datagen
    from gvendi.corpus import write_jsonl

    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "grow":
        write_jsonl(datagen.template_corpus(10, size["seed_pool"], seed, name="seed"),
                    inputs / "seed.jsonl")
        # same seed and families: protected rows are copies of pool rows, so
        # the n-gram decontamination stage has real overlaps to flag
        write_jsonl(datagen.template_corpus(10, size["protected"], seed, name="protected"),
                    inputs / "protected.jsonl")
        return []
    corpus = datagen.template_corpus(size["families"], size["per_family"], seed, name=workload)
    write_jsonl(corpus, inputs / "corpus.jsonl")
    if workload == "select":
        return [run_cli("featurize", ["featurize", "--input", str(inputs / "corpus.jsonl"),
                                      "--output", str(inputs / "corpus.gvfm")])]
    return []


# ---------------------------------------------------------------------------
# the timed sequence


# (key, argv, output files relative to the pass's output directory)
Command = tuple[str, list[str], list[str]]


def commands(workload: str, size: dict, inputs: Path, out: Path) -> list[Command]:
    """The CLI calls of one timed pass."""
    corpus = str(inputs / "corpus.jsonl")
    if workload == "score":
        feats = str(out / "corpus.gvfm")
        return [
            ("featurize", ["featurize", "--input", corpus, "--output", feats], ["corpus.gvfm"]),
            ("g-vendi", ["diversity", "--metric", "g-vendi", "--features", feats,
                         "--output", str(out / "g-vendi.json")], ["g-vendi.json"]),
            ("embedding-dissim", ["diversity", "--metric", "embedding-dissim", "--features", feats,
                                  "--output", str(out / "embedding-dissim.json")],
             ["embedding-dissim.json"]),
        ]
    if workload == "select":
        feats = str(inputs / "corpus.gvfm")
        pick = str(size["pick"])
        cmds = [("cluster", ["cluster", "--features", feats, "--output", str(out / "cluster.json")],
                 ["cluster.json"])]
        extra = {
            "higher": ["--k", str(size["k"])],
            "lower": [],
            "random": [],
            "mixture": ["--parents", str(out / "higher.json"), str(out / "lower.json")],
        }
        for s in STRATEGIES:
            argv = ["sample", "--features", feats, "--strategy", s, "--n", pick, *extra[s],
                    "--output", str(out / f"{s}.json")]
            cmds.append((f"sample-{s}", argv, [f"{s}.json"]))
        for s in STRATEGIES:
            sel = str(out / f"{s}.json")
            argv = ["diversity", "--metric", "g-vendi", "--features", feats, "--select", sel,
                    "--output", str(out / f"g-vendi-{s}.json")]
            cmds.append((f"g-vendi-{s}", argv, [f"g-vendi-{s}.json"]))
            cmds.append((f"embedding-vendi-{s}",
                         ["diversity", "--metric", "embedding-vendi", "--corpus", corpus,
                          "--select", sel, "--output", str(out / f"embedding-vendi-{s}.json")],
                         [f"embedding-vendi-{s}.json"]))
        return cmds
    endpoint = f"cmd:{shlex.quote(sys.executable)} {shlex.quote(str(BENCH_DIR / 'endpoint.py'))}"
    return [("synthesize", [
        "--threads", str(size["threads"]), "synthesize",
        "--corpus", str(inputs / "seed.jsonl"), "--outdir", str(out / "synth"),
        "--iterations", str(size["iterations"]), "--gen-batch", str(size["gen_batch"]),
        "--protected", str(inputs / "protected.jsonl"),
        "--generator", endpoint, "--solver", endpoint,
    ], ["synth/pool.jsonl", "synth/state.json", "synth/features.gvfm"])]


def post_commands(workload: str, size: dict, inputs: Path, out: Path) -> list[Command]:
    """Untimed CLI calls whose outputs the checks need."""
    if workload != "grow":
        return []
    # the pool only grows, so its first rows are the seed pool
    seed_ids = [json.loads(line)["id"] for line in (inputs / "seed.jsonl").open(encoding="utf-8")]
    (out / "seed-ids.json").write_text(json.dumps(seed_ids), encoding="utf-8")
    return [("seed-g-vendi", ["diversity", "--metric", "g-vendi",
                              "--features", str(out / "synth" / "features.gvfm"),
                              "--select", str(out / "seed-ids.json"),
                              "--output", str(out / "seed-g-vendi.json")], ["seed-g-vendi.json"])]


# ---------------------------------------------------------------------------
# output checks (stdlib only)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _pool_ids(path: Path) -> list[str]:
    return [json.loads(line)["id"] for line in path.open(encoding="utf-8") if line.strip()]


def _gvfm_shape(path: Path) -> tuple[int, int]:
    with path.open("rb") as fh:
        magic, _version, n, d, *_ = GVFM_HEADER.unpack(fh.read(GVFM_HEADER.size))
    if magic != b"GVFM":
        raise ValueError("not a .gvfm file")
    return n, d


def _check_vendi(path: Path, metric: str, n: int) -> None:
    rep = _load(path)
    if rep["metric"] != metric:
        raise ValueError(f"metric {rep['metric']!r} != {metric!r}")
    if rep["n"] != n:
        raise ValueError(f"report n={rep['n']} != {n}")
    if not 1.0 <= rep["value"] <= n:
        raise ValueError(f"vendi {rep['value']} outside [1, {n}]")


def _check_selection(path: Path, n: int, pool: set[str]) -> None:
    ids = _load(path)
    if len(ids) != n or len(set(ids)) != n:
        raise ValueError(f"selection has {len(ids)} ids, {len(set(ids))} unique; want {n}")
    if not set(ids) <= pool:
        raise ValueError("selection names ids outside the pool")


def check(workload: str, size: dict, inputs: Path, out: Path) -> dict[str, list[str]]:
    """Invariant violations of one pass, keyed by the command that made them."""
    problems: dict[str, list[str]] = {}

    def expect(key: str, fn, *args) -> None:
        try:
            fn(*args)
        except (OSError, ValueError, KeyError, TypeError, IndexError, struct.error) as e:
            problems.setdefault(key, []).append(f"{type(e).__name__}: {e}")

    n = rows(workload, size)
    if workload == "score":
        def gvfm():
            if _gvfm_shape(out / "corpus.gvfm") != (n, PROJ_DIM):
                raise ValueError(f"corpus.gvfm shape is not ({n}, {PROJ_DIM})")

        def dissim():
            rep = _load(out / "embedding-dissim.json")
            if rep["n"] != n or not 0.0 < rep["value"] <= 2.0:
                raise ValueError(f"embedding-dissim {rep['value']} (n={rep['n']}) outside (0, 2]")

        expect("featurize", gvfm)
        expect("g-vendi", _check_vendi, out / "g-vendi.json", "g_vendi", n)
        expect("embedding-dissim", dissim)
    elif workload == "select":
        pool = set(_pool_ids(inputs / "corpus.jsonl"))

        def cluster():
            model = _load(out / "cluster.json")
            k = max(1, int(n * 0.01 + 0.5))
            if model["k"] != k or sum(model["sizes"]) != n or len(model["assignment"]) != n:
                raise ValueError(f"cluster output is not k={k} over {n} rows")

        expect("cluster", cluster)
        for s in STRATEGIES:
            expect(f"sample-{s}", _check_selection, out / f"{s}.json", size["pick"], pool)
            expect(f"g-vendi-{s}", _check_vendi, out / f"g-vendi-{s}.json", "g_vendi", size["pick"])
            expect(f"embedding-vendi-{s}", _check_vendi, out / f"embedding-vendi-{s}.json",
                   "embedding_vendi", size["pick"])
    else:
        def synth():
            state = _load(out / "synth" / "state.json")
            hist = state["history"]
            if state["iteration"] != size["iterations"] or len(hist) != size["iterations"]:
                raise ValueError(f"ran {state['iteration']} of {size['iterations']} steps")
            for i, h in enumerate(hist):
                if not h["sparse_accepted"] <= h["vote_accepted"] <= h["generated"]:
                    raise ValueError(f"step {i}: sparse <= vote <= generated does not hold")
            ids = _pool_ids(out / "synth" / "pool.jsonl")
            grown = sum(size["seed_pool"]) + sum(h["sparse_accepted"] for h in hist)
            if len(ids) != len(set(ids)) or len(ids) != state["pool_size"] or len(ids) != grown:
                raise ValueError("pool ids are not unique or pool size is inconsistent")
            if _gvfm_shape(out / "synth" / "features.gvfm") != (len(ids), PROJ_DIM):
                raise ValueError("features.gvfm does not match the pool")
            seed_vendi = _load(out / "seed-g-vendi.json")["value"]
            if not hist[-1]["pool_g_vendi"] > seed_vendi:
                raise ValueError(f"final pool_g_vendi {hist[-1]['pool_g_vendi']} is not above "
                                 f"the seed pool's {seed_vendi}")

        expect("synthesize", synth)
        expect("seed-g-vendi", _check_vendi, out / "seed-g-vendi.json", "g_vendi",
               sum(size["seed_pool"]))
    return problems


def synthesis_counts(out: Path) -> dict[str, int] | None:
    """Deterministic totals of a grow pass from state.json; None if unreadable."""
    keys = ("generated", "gen_failed", "vote_accepted", "solver_failed",
            "decontam_flagged", "sparse_accepted")
    try:
        hist = _load(out / "synth" / "state.json")["history"]
        return {k: sum(h[k] for h in hist) for k in keys}
    except (OSError, ValueError, KeyError, TypeError):
        return None
