#!/usr/bin/env python3
"""Plugging real generator/solver processes into the loop.

Endpoints speak newline-delimited JSON over stdio (or HTTP POST of the same
objects). This demo writes a minimal worker to a temp file, drives it
through `RemoteEndpoint` over a `JsonLinesProcess` transport, and finishes
with exact n-gram decontamination of its output against a protected set.
"""

import sys
import tempfile
import textwrap

import gvendi as gv

WORKER = textwrap.dedent(
    """
    import json, sys

    for line in sys.stdin:
        req = json.loads(line)
        if req["type"] == "generate":
            seed_word = req["exemplars"][0]["input"].split()[0]
            samples = [
                {"input": f"variant {i} of {seed_word} with value {req['seed'] % 97}",
                 "output": f"compute it \\\\boxed{{{(req['seed'] + i) % 97}}}"}
                for i in range(req["count"])
            ]
            print(json.dumps({"samples": samples}), flush=True)
        elif req["type"] == "solve":
            answers = ["41"] * req["n"]
            print(json.dumps({"answers": answers,
                              "traces": ["reasoning \\\\boxed{41}"] * req["n"]}), flush=True)
    """
)

with tempfile.NamedTemporaryFile("w", suffix=".py", delete=False) as fh:
    fh.write(WORKER)
    worker_path = fh.name

pool = gv.template_corpus(4, 8, seed=3, name="pool")

generator = gv.RemoteEndpoint(gv.JsonLinesProcess([sys.executable, worker_path]))
solver = gv.RemoteEndpoint(gv.JsonLinesProcess([sys.executable, worker_path]))
try:
    candidates, failed = gv.generate_candidates(generator, pool, fewshot_count=3, batch=5, rng_seed=11)
    print(f"generated {len(candidates)} candidates ({failed} failed requests)")
    for c in candidates[:2]:
        print(f"  {c.input!r}")

    verified, dropped = gv.majority_vote_filter(solver, candidates, vote_n=3, vote_tau=2, rng_seed=12)
    print(f"\nmajority vote kept {len(verified)}/{len(candidates)}")
    print(f"  example majority answer: {verified[0].majority_answer!r}, votes {verified[0].votes}")
finally:
    generator.close()
    solver.close()

# decontamination: one candidate is planted to share a 10-token window
protected = gv.Corpus(
    (gv.Sample(id="bench", input="w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12", output=""),),
    name="benchmarks",
)
planted = gv.Sample(id="leak", input="intro w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 outro", output="x")
kept, flagged = gv.decontaminate([v.sample for v in verified] + [planted], protected, ngram=10)
print(f"\ndecontamination: kept {len(kept)}, flagged {len(flagged)} (the planted leak)")
