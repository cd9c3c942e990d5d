"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and time
budget is pinned here; nothing is deferred to later calibration.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gvendi as gv
from gvendi.rng import mix64, rng_from


def ok(num: int, name: str) -> None:
    print(f"criterion {num:2d} ({name}): PASS")


def unit_rows(data):
    data = np.asarray(data, dtype=np.float64)
    return data / np.linalg.norm(data, axis=1)[:, None]


def external(data, prefix="r"):
    data = np.asarray(data, dtype=np.float32)
    ids = tuple(f"{prefix}{i}" for i in range(data.shape[0]))
    return gv.FeatureMatrix(data, ids, gv.Provenance("external"))


# ---------------------------------------------------------------------------
# 1. Vendi exactness


def test_criterion_01_vendi_exactness():
    n, d = 512, 1024
    rng = rng_from(101)
    row = unit_rows(rng.normal(size=(1, d)))[0]
    identical = external(np.tile(row, (n, 1)), "i")
    orthonormal = external(np.eye(n, d), "o")

    start = time.perf_counter()
    v_same = gv.vendi_score(identical)
    v_orth = gv.vendi_score(orthonormal)
    elapsed = time.perf_counter() - start

    assert abs(v_same - 1.0) <= 1e-9, f"identical rows: {v_same}"
    assert abs(v_orth - n) <= 1e-9, f"orthonormal rows: {v_orth}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, "vendi exactness")


# ---------------------------------------------------------------------------
# 2. Eigen-trick equivalence


def entropy_vendi(lam):
    lam = lam[lam > 1e-12]
    lam = lam / lam.sum()
    return float(np.exp(-(lam * np.log(lam)).sum()))


def test_criterion_02_eigen_trick_equivalence():
    for trial in range(100):
        rng = rng_from(200 + trial)
        n, d = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        g = unit_rows(rng.normal(size=(n, d)))
        via_rows = entropy_vendi(np.linalg.eigvalsh(g @ g.T / n))
        via_cols = entropy_vendi(np.linalg.eigvalsh(g.T @ g / n))
        assert abs(via_rows - via_cols) <= 1e-8, f"trial {trial}: {via_rows} vs {via_cols}"
        assert abs(gv.vendi_score(external(g)) - via_rows) <= 1e-6
    ok(2, "eigen-trick equivalence")


# ---------------------------------------------------------------------------
# 3. Permutation invariance


def test_criterion_03_permutation_invariance():
    for trial in range(20):
        rng = rng_from(300 + trial)
        n, d = int(rng.integers(3, 40)), int(rng.integers(2, 24))
        data = unit_rows(rng.normal(size=(n, d)))
        perm = rng.permutation(n)
        base, shuffled = external(data), external(data[perm])
        assert abs(gv.vendi_score(base) - gv.vendi_score(shuffled)) <= 1e-12
        assert abs(
            gv.embedding_dissimilarity(base) - gv.embedding_dissimilarity(shuffled)
        ) <= 1e-12

    model = gv.ProxyModel.create(vocab_size=256, feature_dim=32)
    proj = gv.ProjectionSpec(model.n_params, 32, seed=5)
    for trial in range(5):
        corpus = gv.template_corpus(4, 6, seed=330 + trial)
        perm_rng = rng_from(340 + trial)
        perm = tuple(corpus[int(i)] for i in perm_rng.permutation(len(corpus)))
        shuffled = gv.Corpus(perm, name="perm")
        assert abs(
            gv.g_vendi(model, proj, corpus).value - gv.g_vendi(model, proj, shuffled).value
        ) <= 1e-12
        assert abs(gv.ngram_entropy(corpus) - gv.ngram_entropy(shuffled)) <= 1e-12
        assert abs(gv.tag_entropy(corpus) - gv.tag_entropy(shuffled)) <= 1e-12
        assert abs(gv.mean_nll(model, corpus) - gv.mean_nll(model, shuffled)) <= 1e-12
    ok(3, "permutation invariance")


# ---------------------------------------------------------------------------
# 4. Gradient correctness


def fd_gradient(model, sample, h=1e-4):
    base = model.weights.reshape(-1)
    grad = np.zeros_like(base)
    shape = model.weights.shape
    for i in range(base.size):
        wp, wm = base.copy(), base.copy()
        wp[i] += h
        wm[i] -= h
        up = gv.ProxyModel(model.vocab_size, model.feature_dim, wp.reshape(shape), model.hash_seed)
        dn = gv.ProxyModel(model.vocab_size, model.feature_dim, wm.reshape(shape), model.hash_seed)
        grad[i] = (gv.sample_nll(up, sample)[0] - gv.sample_nll(dn, sample)[0]) / (2 * h)
    return grad


def test_criterion_04_gradient_correctness():
    worst = 0.0
    for trial in range(50):
        rng = rng_from(400 + trial)
        v, m = int(rng.integers(2, 5)), int(rng.integers(1, 9))
        model = gv.ProxyModel(
            v, m, rng.uniform(-0.5, 0.5, size=(v, m)), hash_seed=int(rng.integers(0, 2**32))
        )
        sample = gv.Sample(
            id=f"t{trial}",
            input=bytes(int(b) for b in rng.integers(0, 128, size=rng.integers(0, 6))).decode("latin-1"),
            output=bytes(int(b) for b in rng.integers(0, v, size=rng.integers(1, 8))).decode("latin-1"),
        )
        analytic = gv.loss_gradient(model, sample)
        numeric = fd_gradient(model, sample)
        worst = max(worst, np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12))
    assert worst <= 1e-4, f"max relative error {worst}"
    ok(4, "gradient correctness")


# ---------------------------------------------------------------------------
# 5. Johnson-Lindenstrauss preservation


def test_criterion_05_jl_preservation():
    source_dim, d = 100_000, 1024
    spec = gv.ProjectionSpec(source_dim=source_dim, target_dim=d, seed=42)
    rng = rng_from(500)
    within = 0
    for batch in range(10):  # 10 batches of 10 pairs
        vecs = rng.normal(size=(20, source_dim))
        vecs = unit_rows(vecs)
        proj = gv.project(spec, vecs)
        proj = unit_rows(proj)
        for p in range(10):
            u, v = vecs[2 * p], vecs[2 * p + 1]
            pu, pv = proj[2 * p], proj[2 * p + 1]
            within += abs(float(pu @ pv) - float(u @ v)) <= 0.15
    assert within >= 95, f"only {within}/100 pairs within 0.15"
    ok(5, "JL preservation")


# ---------------------------------------------------------------------------
# 6. Sampling spectrum


def test_criterion_06_sampling_spectrum():
    start = time.perf_counter()
    pool = gv.blob_features(10, 200, dim=16, center_seed=11, point_seed=12, spread=0.1)
    hi, rnd, lo = [], [], []
    for seed in range(20):
        hi.append(
            gv.vendi_score(pool.take(gv.sample_higher_diversity(pool, 10, 200, 1000 + seed)))
        )
        rnd.append(gv.vendi_score(pool.take(gv.sample_random(pool, 200, 2000 + seed))))
        lo.append(
            gv.vendi_score(
                pool.take(
                    gv.sample_lower_diversity(
                        pool, n_seed=5, n_batch=20, n_target=200, tau_sim=0.9,
                        rng_seed=3000 + seed,
                    )
                )
            )
        )
    elapsed = time.perf_counter() - start
    hi, rnd, lo = np.array(hi), np.array(rnd), np.array(lo)
    assert hi.mean() > rnd.mean() > lo.mean(), (hi.mean(), rnd.mean(), lo.mean())
    assert (hi > lo).mean() >= 0.95
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    ok(6, "sampling spectrum")


# ---------------------------------------------------------------------------
# 7. Cluster-filter loop benefit


def _loop_parts(seed):
    pool = gv.template_corpus(10, [60] + [6] * 9, seed=77, name="seedpool")
    model = gv.ProxyModel.create(vocab_size=256, feature_dim=96, hash_seed=101, weight_seed=202)
    proj = gv.ProjectionSpec(model.n_params, 128, seed=303)
    config = gv.SynthesisConfig(
        iterations=5, gen_batch=40, vote_n=3, vote_tau=2, k_fraction=0.1,
        fewshot_count=5, seed=seed,
    )
    return pool, model, proj, config


def _pool_vendi(features):
    mask = features.degenerate_mask()
    usable = features.take(np.flatnonzero(~mask)) if mask.any() else features
    return gv.vendi_score(usable)


def _uniform_admission_run(seed, per_step_admits, pool, model, proj, config):
    """Same generate/vote pipeline, but admission is a uniform draw of the
    same per-step size instead of the sparse-cluster filter."""
    state = gv.SynthesisState(pool, gv.featurize(model, proj, pool), ())
    for it in range(config.iterations):
        step_seed = mix64(config.seed, 0x57E, it)
        cands, _ = gv.generate_candidates(
            gv.RecombinationGenerator(), state.pool, config.fewshot_count,
            config.gen_batch, mix64(step_seed, 2),
        )
        verified, _ = gv.majority_vote_filter(
            gv.EchoSolver(), cands, config.vote_n, config.vote_tau, mix64(step_seed, 3)
        )
        pool_ids = set(state.pool.ids())
        survivors = sorted(
            {v.sample.id: v.sample for v in verified if v.sample.id not in pool_ids}.values(),
            key=lambda s: s.id,
        )
        take = min(per_step_admits[it], len(survivors))
        rng = rng_from(seed, 0xBA5E, it)
        picked = sorted(rng.choice(len(survivors), size=take, replace=False)) if take else []
        kept = [survivors[int(i)] for i in picked]
        new_pool = gv.Corpus(state.pool.samples + tuple(kept), name=state.pool.name)
        feats = state.pool_features
        if kept:
            adds = gv.featurize(model, proj, gv.Corpus(tuple(kept), name="adds"))
            feats = gv.FeatureMatrix(np.concatenate([feats.data, adds.data]),
                                     feats.sample_ids + adds.sample_ids, feats.provenance)
        state = gv.SynthesisState(new_pool, feats, state.history + ({},))
    return state


def test_criterion_07_loop_beats_uniform_admission():
    start = time.perf_counter()
    wins = 0
    nondecreasing = 0
    steps = 0
    for seed in range(10):
        pool, model, proj, config = _loop_parts(seed)
        filtered = gv.run_synthesis(
            pool, config, gv.RecombinationGenerator(), gv.EchoSolver(), model, proj
        )
        admits = [h["sparse_accepted"] for h in filtered.history]
        baseline = _uniform_admission_run(seed, admits, pool, model, proj, config)
        assert len(baseline.pool) == len(filtered.pool), "final pool sizes must match"
        wins += _pool_vendi(filtered.pool_features) >= _pool_vendi(baseline.pool_features)

        path = [h["pool_g_vendi"] for h in filtered.history]
        for a, b in zip(path, path[1:]):
            nondecreasing += b >= a - 1e-9
            steps += 1
    elapsed = time.perf_counter() - start
    assert wins >= 9, f"filtered run won only {wins}/10 seeds"
    assert nondecreasing / steps >= 0.9, f"pool score decreased in {steps - nondecreasing}/{steps} steps"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    ok(7, "cluster-filter loop benefit")


# ---------------------------------------------------------------------------
# 8. Statistics oracles


def brute_spearman(x, y):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for t in range(i, j + 1):
                out[order[t]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    rx, ry = np.array(rx), np.array(ry)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def brute_ols_r2(x, y):
    design = np.column_stack([np.ones(len(x)), x])
    beta = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ beta
    return 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())


def test_criterion_08_statistics_oracles():
    assert abs(gv.spearman([1, 2, 3], [3, 1, 2]) - (-0.5)) <= 1e-12
    checked = 0
    for trial in range(100):
        rng = rng_from(800 + trial)
        n = int(rng.integers(3, 40))
        x = rng.uniform(0.1, 20.0, size=n)
        y = rng.uniform(-3.0, 3.0, size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert abs(gv.spearman(x, y) - brute_spearman(x, y)) <= 1e-9
        rep = gv.fit_r2(x, y)
        assert abs(rep.r2_linear - brute_ols_r2(x, y)) <= 1e-9
        assert abs(rep.r2_loglinear - brute_ols_r2(np.log(x), y)) <= 1e-9
        checked += 1
    assert checked == 100
    ok(8, "statistics oracles")


# ---------------------------------------------------------------------------
# 9. Decontamination exactness


def test_criterion_09_decontamination_exactness():
    rng = rng_from(900)

    def fresh_tokens(count, bucket):
        return [f"{bucket}tok{int(t)}x{i}" for i, t in enumerate(rng.integers(0, 10**6, size=count))]

    protected_samples = []
    protected_tokens = []
    for p in range(40):
        toks = fresh_tokens(int(rng.integers(16, 30)), f"p{p}")
        protected_tokens.append(toks)
        protected_samples.append(gv.Sample(id=f"p{p}", input=" ".join(toks), output=""))
    protected = gv.Corpus(tuple(protected_samples), name="protected")

    planted, clean = [], []
    for c in range(100):
        src = protected_tokens[int(rng.integers(0, 40))]
        span_len = int(rng.integers(10, 15))
        start = int(rng.integers(0, len(src) - span_len + 1))
        span = src[start : start + span_len]
        text = fresh_tokens(3, f"lead{c}") + span + fresh_tokens(3, f"tail{c}")
        planted.append(gv.Sample(id=f"bad{c}", input=" ".join(text), output=""))

        span9 = src[start : start + 9]
        text9 = fresh_tokens(4, f"cl{c}") + span9 + fresh_tokens(4, f"cr{c}")
        clean.append(gv.Sample(id=f"good{c}", input=" ".join(text9), output=""))

    kept_p, flagged_p = gv.decontaminate(planted, protected, ngram=10)
    assert len(flagged_p) == 100 and kept_p == [], "planted overlap escaped"
    kept_c, flagged_c = gv.decontaminate(clean, protected, ngram=10)
    assert len(kept_c) == 100 and flagged_c == [], "sub-threshold overlap flagged"
    ok(9, "decontamination exactness")


# ---------------------------------------------------------------------------
# 10. End-to-end CLI determinism


def run_cli(*argv):
    # the child imports the same gvendi as this test, installed or not
    src = str(Path(gv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "gvendi.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    corpus_path = tmp_path / "pool.jsonl"
    gv.write_jsonl(gv.template_corpus(10, 100, seed=23, name="toy1k"), corpus_path)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"corpus = {corpus_path}\n"
        "proxy.vocab_size = 256\n"
        "proxy.feature_dim = 48\n"
        "proxy.hash_seed = 101\n"
        "proxy.weight_seed = 202\n"
        "projection.dim = 128\n"
        "projection.seed = 303\n"
        "sample.n = 150\n"
        "sample.seed = 505\n"
        "sample.k = 10\n"
        "sample.tau = 0.85\n"
        "sample.seed_size = 5\n"
        "sample.batch_size = 20\n"
    )

    def pipeline(outdir):
        outdir.mkdir()
        feats = str(outdir / "pool.gvfm")
        run_cli("--config", str(config), "featurize", "--output", feats)
        values = {}
        for strategy in ("higher", "random", "lower"):
            sel = str(outdir / f"{strategy}.json")
            run_cli("--config", str(config), "sample", "--features", feats,
                    "--strategy", strategy, "--output", sel)
            rep = str(outdir / f"{strategy}.div.json")
            run_cli("--config", str(config), "diversity", "--metric", "g-vendi",
                    "--features", feats, "--select", sel, "--output", rep)
            values[strategy] = json.loads(Path(rep).read_text())["value"]
        return values

    values_a = pipeline(tmp_path / "a")
    values_b = pipeline(tmp_path / "b")
    elapsed = time.perf_counter() - start

    artifacts = ["pool.gvfm", "higher.json", "random.json", "lower.json",
                 "higher.div.json", "random.div.json", "lower.div.json"]
    for name in artifacts:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"artifact {name} differs between runs"
    assert values_a == values_b
    assert values_a["higher"] > values_a["random"] > values_a["lower"], values_a
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    ok(10, "end-to-end CLI determinism")


# ---------------------------------------------------------------------------
# 11. Correlation sanity study


def test_criterion_11_correlation_sanity():
    pool = gv.blob_features(30, 70, dim=32, center_seed=21, point_seed=22, spread=0.12)
    probes = gv.blob_features(30, 25, dim=32, center_seed=21, point_seed=23, spread=0.12)
    probe_rows = probes.data.astype(np.float64)
    pool_rows = pool.data.astype(np.float64)
    n_target = 50

    def coverage(selection):
        # synthetic student: generalization = how close each held-out probe
        # direction is to its nearest selected training direction
        return float((probe_rows @ pool_rows[selection].T).max(axis=1).mean())

    subsets = []
    for s in range(6):
        subsets.append(gv.sample_random(pool, n_target, rng_seed=100 + s))
    for i, k in enumerate(k for k in (4, 6, 9, 13, 18, 25) for _ in range(2)):
        subsets.append(gv.sample_higher_diversity(pool, k=k, n_target=n_target, rng_seed=200 + i))
    taus = (0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)
    for i, (tau, n_seed) in enumerate((t, ns) for t in taus for ns in (2, 4)):
        subsets.append(
            gv.sample_lower_diversity(
                pool, n_seed=n_seed, n_batch=8, n_target=n_target, tau_sim=tau,
                rng_seed=300 + i,
            )
        )
    hi0, hi1, lo0, lo1 = subsets[8], subsets[13], subsets[20], subsets[25]
    weights = [(1, 5), (5, 1), (1, 2), (2, 1), (1, 1), (3, 1), (1, 3), (7, 1),
               (1, 7), (2, 3), (3, 2), (4, 1), (1, 4), (5, 3), (3, 5), (6, 1)]
    for i, w in enumerate(weights):
        a, b = (hi0, lo0) if i % 2 else (hi1, lo1)
        subsets.append(gv.sample_mixture([a, b], list(w), n_target, rng_seed=400 + i))

    assert len(subsets) == 50
    vendi = [gv.vendi_score(pool.take(s)) for s in subsets]
    cover = [coverage(s) for s in subsets]
    rho = gv.spearman(vendi, cover)
    assert rho >= 0.9, f"spearman {rho:.4f} < 0.9"
    ok(11, "correlation sanity study")
