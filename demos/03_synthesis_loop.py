#!/usr/bin/env python3
"""The cluster-and-filter growth loop, end to end, with built-in endpoints.

Start from a deliberately skewed seed pool (one dominant family), then
iterate: cluster the pool in gradient space, generate candidates by
recombining few-shot exemplars, keep only those that majority-vote verify
and land in sparse clusters. The pool's effective diversity climbs as the
loop backfills the underrepresented regions.
"""

import gvendi as gv

seed_pool = gv.template_corpus(10, [60] + [6] * 9, seed=77, name="seed")
print(f"seed pool: {len(seed_pool)} samples, family sizes [60, 6 x 9]\n")

model = gv.ProxyModel.create(vocab_size=256, feature_dim=96, hash_seed=101, weight_seed=202)
proj = gv.ProjectionSpec(source_dim=model.n_params, target_dim=128, seed=303)

config = gv.SynthesisConfig(
    iterations=5,
    gen_batch=40,
    vote_n=3,
    vote_tau=2,
    k_fraction=0.1,       # clusters per step = 10% of pool
    fewshot_count=5,
    seed=4,
)

state = gv.run_synthesis(
    seed_pool,
    config,
    generator=gv.RecombinationGenerator(),
    solver=gv.EchoSolver(error_rate=0.1),  # 10% of votes corrupted
    model=model,
    proj=proj,
)

print("iter  generated  voted-in  admitted  pool   diversity")
for i, h in enumerate(state.history, start=1):
    print(
        f"{i:4d}  {h['generated']:9d}  {h['vote_accepted']:8d}  "
        f"{h['sparse_accepted']:8d}  {len(seed_pool) + sum(x['sparse_accepted'] for x in state.history[:i]):5d}"
        f"  {h['pool_g_vendi']:9.3f}"
    )

print(f"\nfinal pool: {len(state.pool)} samples")
print("note: admitted < voted-in because only sparse-cluster candidates enter the pool")
