"""Smoke test of the benchmark's own code at tiny input sizes.

    python3 bench/smoke.py            (or: python3 -m pytest bench/smoke.py)

For every workload it runs bench/run.py untraced and traced (twice) at
--scale tiny and checks that the result line has the contract's keys, that
every end-to-end and per-layer metric listed in BENCHMARK.json is emitted,
that the traced and untraced runs leave byte-identical artifacts, and that
the traced counts repeat exactly. It also checks that the benchmark refuses
to run without the gvendi sources. About half a minute on 2 cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_UNITS = ("count", "bytes")


def run_bench(workload: str, trace: int, seed: int = 3, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    failures = [ln for ln in lines if ln.startswith("FAILED")]
    assert result["correct"] is True and result["failed"] == 0, failures
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def artifacts(lines: list[str]) -> list[str]:
    return sorted(ln for ln in lines if ln.startswith("artifact "))


def check_workload(workload: str) -> None:
    rc, plain = run_bench(workload, 0)
    assert rc == 0, plain
    e2e = result_of(plain)["metrics"]
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}, sorted(e2e)
    for m in SPEC["end_to_end"]:
        assert e2e[m["name"]]["unit"] == m["unit"] and e2e[m["name"]]["value"] > 0, m

    traced = []
    for _ in range(2):
        rc, lines = run_bench(workload, 1)
        assert rc == 0, lines
        traced.append((lines, result_of(lines)["metrics"]))
        assert artifacts(lines) == artifacts(plain), "traced artifacts differ from untraced ones"
    layers = traced[0][1]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}, sorted(layers)
    for m in SPEC["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"], m
    counts = {k: v["value"] for k, v in layers.items() if v["unit"] in COUNT_UNITS}
    assert counts == {k: v["value"] for k, v in traced[1][1].items() if v["unit"] in COUNT_UNITS}
    assert layers["cli.main.calls"]["value"] >= 1
    assert layers["process.cpu_s"]["value"] > 0
    if workload == "score":
        assert layers["proxy.loss_gradient.calls"]["value"] == 200
        project_calls = layers["proxy.project.calls"]["value"]
        assert layers["proxy.sign_block.calls"]["value"] == 2 * project_calls
    if workload == "grow":
        assert layers["synthesis.JsonLinesProcess.request.calls"]["value"] > 0
        assert layers["synthesis.generated"]["value"] > 0


def test_score() -> None:
    check_workload("score")


def test_select() -> None:
    check_workload("select")


def test_grow() -> None:
    check_workload("grow")


def test_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = run_bench("score", 0, root=bare)
        assert rc != 0 and not lines, lines


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
