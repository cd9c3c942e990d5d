"""Stand-in generator and solver endpoint for the `grow` workload.

Speaks the newline-delimited JSON protocol of `gvendi synthesize`'s `cmd:`
endpoints on stdin/stdout, uses only the standard library and is a pure
function of each request, so the transport layer is measured with no network
and no model:

    {"type": "generate", "exemplars": [...], "count": n, "seed": s}
        -> {"samples": [{"input": ..., "output": ...}, ...]}
        Splices two exemplars at seeded cut points and perturbs about half
        of the input numerals; the output ends in \\boxed{answer} with
        answer = sum of the input numerals mod 1000.
    {"type": "solve", "problem": text, "n": n, "seed": s}
        -> {"answers": [...], "traces": [...]}
        Recomputes that answer from the problem's numerals; each vote is
        corrupted with probability 0.1, drawn from the request seed.

Run: python3 bench/endpoint.py   (one process serves both request types)
"""

from __future__ import annotations

import json
import random
import sys

CORRUPT_RATE = 0.1


def _numerals(tokens: list[str]) -> list[int]:
    return [int(t) for t in tokens if t.isdigit()]


def _answer(tokens: list[str]) -> int:
    return sum(_numerals(tokens)) % 1000


def _splice(ta: list[str], tb: list[str], rng: random.Random) -> list[str]:
    if not ta or not tb:
        return list(ta or tb) or ["item"]
    return ta[: rng.randint(1, len(ta))] + tb[rng.randint(0, len(tb)) :]


def generate(req: dict) -> dict:
    exemplars = req["exemplars"]
    if not exemplars:
        raise ValueError("generate needs at least one exemplar")
    rng = random.Random(req["seed"])
    samples = []
    for _ in range(req["count"]):
        a, b = rng.sample(exemplars, 2) if len(exemplars) >= 2 else exemplars * 2
        in_toks = [
            str(int(t) + rng.randint(1, 9)) if t.isdigit() and rng.random() < 0.5 else t
            for t in _splice(a["input"].split(), b["input"].split(), rng)
        ]
        out_toks = _splice(a["output"].split(), b["output"].split(), rng)
        output = " ".join(out_toks) + f" \\boxed{{{_answer(in_toks)}}}"
        samples.append({"input": " ".join(in_toks), "output": output})
    return {"samples": samples}


def solve(req: dict) -> dict:
    tokens = req["problem"].split()
    truth = _answer(tokens)
    words = [t for t in tokens if not t.isdigit()]
    nums = " with ".join(str(x) for x in _numerals(tokens)) or "nothing"
    lead = " ".join(words[:2])
    answers, traces = [], []
    for vote in range(req["n"]):
        rng = random.Random(f"{req['seed']}:{vote}")
        ans = truth + rng.randint(1, 9) if rng.random() < CORRUPT_RATE else truth
        answers.append(str(ans))
        traces.append(f"{lead} combine {nums} giving total \\boxed{{{ans}}}")
    return {"answers": answers, "traces": traces}


HANDLERS = {"generate": generate, "solve": solve}


def main() -> None:
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        try:
            req = json.loads(line)
            resp = HANDLERS[req["type"]](req)
        except (ValueError, KeyError, TypeError) as e:
            resp = {"error": f"{type(e).__name__}: {e}"}
        sys.stdout.write(json.dumps(resp) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
