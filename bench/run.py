"""gvendi benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {score,select,grow} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; gvendi is taken from its `src/`. The inputs
are generated from the seed (see workloads.py) and the program sees only
those files. Every set-up and every timed pass is a fresh process (job.py).

--trace 0  sets the inputs up 3 to 10 times, until 1 s of set-up has been
           measured (the copies must be byte-identical), then runs timed
           passes for --seconds seconds (at least 2; a new one only while it
           fits). It reports setup_s (median set-up time), rows_per_s (rows
           over the median pass wall time) and peak_rss_mb (median ru_maxrss
           of the pass processes).
--trace 1  sets up once and runs three passes: untraced, traced (layer spans
           from tracer.py) and a tracemalloc memory pass. It reports the
           per-layer metrics and the tracing overhead.

Every pass is checked: each CLI call exits 0, the workload's invariants hold
(workloads.check) and every artifact has the same sha256 in every pass of
the run. A failed call or check is a failed operation; the last stdout line
is the JSON result {"correct", "attempted", "failed", "metrics"}. Earlier
lines stamp the environment, print the end-to-end figures with units and
list the artifact hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402  (stdlib-only at import time)
import workloads  # noqa: E402

# set-up repeats: at least 3, and more (up to 10) until 1 s of set-up has
# been measured, so that cheap set-ups get a steady median too
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 10, 1.0
MIN_PASSES = 2
DEADLINE_S = 170.0  # a run must end within 180 s
WORK_DIR = ROOT / ".bench_work"


class JobError(RuntimeError):
    pass


def run_job(spec: dict, work: Path, name: str, deadline: float) -> dict:
    spec = dict(spec, result=str(work / f"{name}.result.json"))
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "job.py"), str(spec_path)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise JobError(f"{name}: out of time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc != 0:
        raise JobError(f"{name}: job exited with code {rc}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): sha256_file(p) for p in files}


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.problems += failures


Hashes = dict[str, dict[str, str]]  # command key -> output file -> sha256


def check_pass(wl: str, size: dict, inputs: Path, out: Path, result: dict,
               reference: Hashes | None, ledger: Ledger) -> Hashes:
    """Check one pass; return its artifact hashes keyed by command."""
    problems = workloads.check(wl, size, inputs, out)
    hashes: Hashes = {}
    failures = []
    for rec in result["commands"]:
        key = rec["key"]
        why = [rec["error"]] if rec["error"] else []
        why += problems.get(key, [])
        try:
            hashes[key] = {f: sha256_file(out / f) for f in result["outputs"][key]}
        except OSError as e:
            why.append(f"missing output: {e}")
            hashes[key] = {}
        if reference is not None and hashes[key] != reference.get(key):
            why.append("artifacts differ from the first pass of this seed")
        failures += [f"{out.name}/{key}: {w}" for w in why[:1]]
    ledger.add(len(result["commands"]), failures)
    counts = workloads.synthesis_counts(out) if wl == "grow" else None
    if counts is not None:
        requests = size["iterations"] * size["gen_batch"] + counts["generated"]
        ledger.add(requests, [f"{out.name}/endpoint request failed"] *
                   (counts["gen_failed"] + counts["solver_failed"]))
    return hashes


def check_trace(passes: dict[str, dict], ledger: Ledger) -> None:
    """Spans nest with self_s >= 0, and the memory pass made the same calls."""
    timed, mem = passes["time"], passes["memory"]
    ledger.add(1, [f"trace: {e}" for e in timed["trace_errors"][:1]])
    differ = [n for n in tracer.layer_names()
              if timed["layers"][n]["calls"] != mem["calls"].get(n, 0)]
    ledger.add(1, [f"trace: call counts differ between passes: {differ}"] if differ else [])


def per_layer(wl: str, size: dict, passes: dict[str, dict], off_out: Path) -> dict[str, dict]:
    off, timed, mem = passes["off"], passes["time"], passes["memory"]
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for name in tracer.layer_names():
        st = timed["layers"][name]
        put(f"{name}.calls", st["calls"], "count")
        put(f"{name}.s", st["s"], "s")
        put(f"{name}.self_s", st["self_s"], "s")
        if name in tracer.FAILED_LAYERS:
            put(f"{name}.failed", st["failed"], "count")
        if name in tracer.BYTES_LAYERS:
            put(f"{name}.bytes", st["bytes"], "bytes")
    for name in tracer.MEMORY_LAYERS:
        put(f"{name}.peak_mb", mem["peak_mb"].get(name, 0.0), "MB")
    counts = (workloads.synthesis_counts(off_out) if wl == "grow" else None) or {}
    for key in ("generated", "vote_accepted", "sparse_accepted"):
        put(f"synthesis.{key}", counts.get(key, 0), "count")
    generated = counts.get("generated", 0)
    put("synthesis.accept_ratio", counts["sparse_accepted"] / generated if generated else 0.0,
        "ratio")
    put("process.cpu_s", off["cpu_s"], "s")
    n = workloads.rows(wl, size)
    put("trace.rows_per_s_delta", n / timed["wall_s"] - n / off["wall_s"], "1/s")
    return metrics


def set_up(args: argparse.Namespace, base: dict, work: Path, deadline: float,
           ledger: Ledger) -> list[dict]:
    """Set the inputs up (repeatedly when untraced); all copies must match."""
    setups: list[dict] = []
    while not setups or (args.trace == 0 and len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_MIN_REPEATS or sum(s["setup_s"] for s in setups) < SETUP_MIN_S)):
        i = len(setups)
        spec = dict(base, mode="setup", inputs=str(work / f"setup-{i}"))
        setups.append(run_job(spec, work, f"setup-{i}", deadline))
        calls = setups[-1]["commands"]
        ledger.add(len(calls), [f"setup-{i}/{c['key']}: {c['error']}" for c in calls if c["error"]])
    first = tree_digest(work / "setup-0")
    ledger.add(len(setups) - 1, [f"setup-{i}: inputs differ from setup-0"
                                 for i in range(1, len(setups))
                                 if tree_digest(work / f"setup-{i}") != first])
    return setups


def run_passes(args: argparse.Namespace, base: dict, inputs: Path, work: Path,
               deadline: float) -> list[tuple[str, dict, Path]]:
    """(trace mode, job result, output directory) of each pass."""
    def one_pass(trace: str) -> tuple[str, dict, Path]:
        name = f"pass-{len(passes)}"
        spec = dict(base, mode="pass", inputs=str(inputs), out=str(work / name), trace=trace,
                    environment=not passes)
        return trace, run_job(spec, work, name, deadline), work / name

    passes: list[tuple[str, dict, Path]] = []
    if args.trace == 1:
        for mode in ("off", "time", "memory"):
            passes.append(one_pass(mode))
        return passes
    # at least MIN_PASSES; then another pass while it fits in --seconds
    measure_start = time.monotonic()
    while len(passes) < MIN_PASSES or (
            time.monotonic() - measure_start
            + statistics.median(res["wall_s"] for _, res, _ in passes) <= args.seconds):
        passes.append(one_pass("off"))
    return passes


def run(args: argparse.Namespace, work: Path) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    wl = args.workload
    size = workloads.SIZES[args.scale][wl]
    base = {"workload": wl, "seed": args.seed, "scale": args.scale}
    ledger = Ledger()
    lines: list[str] = []

    setups = set_up(args, base, work, deadline, ledger)
    inputs = work / "setup-0"
    passes = run_passes(args, base, inputs, work, deadline)

    reference = None
    for _, res, out in passes:
        hashes = check_pass(wl, size, inputs, out, res, reference, ledger)
        if reference is None:
            reference = hashes
            lines += [f"artifact {k}/{f} {h}" for k, fs in hashes.items() for f, h in fs.items()]
    missing = passes[-1][1].get("missing_layers")
    if missing:
        lines.append(f"note: layers not found in this gvendi, reported as 0: {missing}")

    env = dict(passes[0][1]["environment"], git_sha=git_sha(), src_sha256=src_digest(),
               workload=wl, seed=args.seed, scale=args.scale, seconds=args.seconds,
               trace=args.trace)
    lines.insert(0, "env " + json.dumps(env, sort_keys=True))

    walls = [res["wall_s"] for _, res, _ in passes]
    n = workloads.rows(wl, size)
    lines.append(f"passes {len(passes)}: wall_s {[round(w, 3) for w in walls]}")
    if args.trace == 0:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "rows_per_s": {"value": n / statistics.median(walls), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for _, r, _ in passes),
                            "unit": "MB"},
        }
        for name, m in metrics.items():
            lines.append(f"{wl} {name} = {m['value']:.6g} {m['unit']}")
    else:
        by_mode = {mode: res for mode, res, _ in passes}
        check_trace(by_mode, ledger)
        metrics = per_layer(wl, size, by_mode, passes[0][2])
        lines.append(f"tracing overhead: {metrics['trace.rows_per_s_delta']['value']:.3f} rows/s "
                     f"(traced minus untraced, {n} rows)")
    lines.append(f"{wl} ops_failed_frac = {ledger.failed / ledger.attempted:.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} operations)")
    lines += [f"FAILED {p}" for p in ledger.problems]
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SIZES),
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that run_job kills the running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "gvendi" / "cli.py").is_file():
        print(f"error: no gvendi sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, lines = run(args, work)
    except JobError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
