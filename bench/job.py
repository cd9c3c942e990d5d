"""One fresh benchmark process: set up a workload's inputs, or run one pass.

    python3 bench/job.py SPEC.json

SPEC names the mode ("setup" or "pass"), workload, seed, scale, the inputs
and output directories, the trace mode ("off", "time" or "memory") and the
result file to write. gvendi is imported from the checkout's `src/` and every
command goes through `gvendi.cli.main(argv)` in this process, so
`ru_maxrss` is the peak of the timed section plus the interpreter; the
stand-in endpoint workers are child processes and are not counted.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH_DIR))

import workloads  # noqa: E402


def _import_gvendi():
    import gvendi.cli

    if Path(gvendi.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"gvendi imported from {gvendi.cli.__file__}, not {SRC}")
    return gvendi.cli


def _run_cli(cli, key: str, argv: list[str]) -> dict:
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except SystemExit as e:  # argparse usage errors
        rc, error = e.code if isinstance(e.code, int) else 2, f"usage error {e.code}"
    except Exception as e:  # a crash is a failed operation, not a failed benchmark
        rc, error = 1, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    if error:
        print(f"job: {key}: {error}", file=sys.stderr)
    return {"key": key, "rc": rc, "error": error, "wall_s": wall}


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads() -> int | None:
    """Thread count reported by the loaded BLAS library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "blas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "mkl_get_max_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # BLAS threads are left at their default: recorded, not tuned
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
    }


def run_setup(spec: dict) -> dict:
    cli = _import_gvendi()
    size = workloads.SIZES[spec["scale"]][spec["workload"]]
    start = time.perf_counter()
    calls = workloads.setup(spec["workload"], spec["seed"], size, Path(spec["inputs"]),
                            lambda key, argv: _run_cli(cli, key, argv))
    return {"setup_s": time.perf_counter() - start, "commands": calls}


def run_pass(spec: dict) -> dict:
    cli = _import_gvendi()
    wl, mode = spec["workload"], spec["trace"]
    size = workloads.SIZES[spec["scale"]][wl]
    inputs, out = Path(spec["inputs"]), Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    cmds = workloads.commands(wl, size, inputs, out)

    tracer = None
    if mode != "off":
        from tracer import Tracer

        tracer = Tracer(mode)
        tracer.install()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        records = [_run_cli(cli, key, argv) for key, argv, _ in cmds]
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

    post = workloads.post_commands(wl, size, inputs, out)
    records += [_run_cli(cli, key, argv) for key, argv, _ in post]
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": maxrss_mb,
        "commands": records,
        "outputs": {key: files for key, _, files in cmds + post},
    }
    if tracer is not None:
        if mode == "time":
            result["layers"], result["trace_errors"] = tracer.summary()
        else:
            result["calls"] = tracer.calls
            result["peak_mb"] = {k: v / 2**20 for k, v in tracer.peak_bytes.items()}
        result["missing_layers"] = tracer.missing
    if spec.get("environment"):
        result["environment"] = environment()
    return result


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run_setup(spec) if spec["mode"] == "setup" else run_pass(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
