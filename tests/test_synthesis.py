import contextlib
import gc
import glob
import http.server
import json
import socketserver
import subprocess
import sys
import threading
import textwrap
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gvendi import (
    Corpus,
    EchoSolver,
    EndpointError,
    FeatureMatrix,
    HttpJson,
    JsonLinesProcess,
    ProjectionSpec,
    ProxyModel,
    RecombinationGenerator,
    RemoteEndpoint,
    Sample,
    SynthesisConfig,
    SynthesisState,
    decontaminate,
    extract_answer,
    featurize,
    generate_candidates,
    majority_vote_filter,
    prismatic_step,
    run_synthesis,
    template_corpus,
    vendi_score,
)
from gvendi import metrics, proxy, synthesis
from gvendi.rng import mix64
from gvendi.synthesis import load_checkpoint


# ---------------------------------------------------------------------------
# answer extraction

def test_extract_answer_boxed():
    assert extract_answer(r"thus the total is \boxed{42}") == "42"


def test_extract_answer_last_boxed_and_nesting():
    assert extract_answer(r"\boxed{1} then \boxed{\frac{2}{3}}") == r"\frac{2}{3}"


def test_extract_answer_fallback_last_token():
    assert extract_answer("the answer is seven") == "seven"
    assert extract_answer("") == ""


def test_extract_answer_unbalanced_falls_back():
    assert extract_answer(r"broken \boxed{42") == r"\boxed{42"


# ---------------------------------------------------------------------------
# built-in endpoints

@pytest.fixture()
def small_pool():
    return template_corpus(3, 6, seed=5, name="pool")


def test_recombination_generator_contract(small_pool):
    gen = RecombinationGenerator()
    recs = gen.generate(list(small_pool)[:5], count=4, seed=9)
    assert len(recs) == 4
    for rec in recs:
        assert rec["input"]
        assert extract_answer(rec["output"]) != ""
    again = gen.generate(list(small_pool)[:5], count=4, seed=9)
    assert recs == again


def test_echo_solver_votes_match_own_answer():
    s = Sample(id="x", input="p", output=r"steps \boxed{17}")
    answers, traces = EchoSolver().solve(s, 3, seed=4)
    assert answers == ["17", "17", "17"]
    assert all(extract_answer(t) == "17" for t in traces)


def test_echo_solver_error_rate_corrupts():
    s = Sample(id="x", input="p", output=r"steps \boxed{17}")
    answers, _ = EchoSolver(error_rate=1.0).solve(s, 4, seed=4)
    assert all(a != "17" for a in answers)


@pytest.mark.parametrize(
    "output, rewritten",
    [
        # the whole nested box is replaced, text after it kept
        (r"so \boxed{\frac{1}{2}} done", "so \\boxed{\\frac{1}{2}'} done"),
        # an unbalanced box is left alone and a new one appended
        (r"broken \boxed{42", "broken \\boxed{42 \\boxed{\\boxed{42'}"),
        # no box at all: one is appended after a single space
        ("the answer is x", "the answer is x \\boxed{x'}"),
        ("trailing space ", "trailing space \\boxed{space'}"),
    ],
)
def test_echo_solver_trace_rewrite(output, rewritten):
    s = Sample(id="x", input="p", output=output)
    _, traces = EchoSolver(error_rate=1.0).solve(s, 2, seed=4)
    assert traces == [rewritten, rewritten]


# ---------------------------------------------------------------------------
# candidate generation

def test_generate_candidates_batch(small_pool):
    cands, failed = generate_candidates(RecombinationGenerator(), small_pool, 5, 8, rng_seed=1)
    assert failed == 0
    assert 0 < len(cands) <= 8
    pool_ids = set(small_pool.ids())
    for c in cands:
        assert c.id not in pool_ids
        assert c.id == c.content_id()


def test_generate_candidates_zero_batch(small_pool):
    cands, failed = generate_candidates(RecombinationGenerator(), small_pool, 5, 0, rng_seed=1)
    assert cands == [] and failed == 0


class FlakyGenerator:
    """Fails every request regardless of retries."""

    def generate(self, exemplars, count, seed):
        raise EndpointError("simulated outage")


def test_generate_candidates_counts_failures(small_pool):
    cands, failed = generate_candidates(FlakyGenerator(), small_pool, 5, 6, rng_seed=1)
    assert cands == []
    assert failed == 6


def test_generate_candidates_drops_pool_clones(small_pool):
    class CloneGenerator:
        def __init__(self, pool):
            self.pool = list(pool)

        def generate(self, exemplars, count, seed):
            s = self.pool[0]
            return [{"input": s.input, "output": s.output, "label": s.label}] * count

    cands, failed = generate_candidates(CloneGenerator(small_pool), small_pool, 5, 4, rng_seed=1)
    assert cands == [] and failed == 0


class ReplyGenerator:
    """Answers every request with the given reply records."""

    def __init__(self, *records):
        self.records = list(records)

    def generate(self, exemplars, count, seed):
        return self.records


def test_generate_candidates_reads_null_output_as_empty(small_pool):
    gen = ReplyGenerator({"input": "fresh problem", "output": None})
    (cand,), failed = generate_candidates(gen, small_pool, 5, 1, rng_seed=1)
    assert failed == 0
    assert cand.output == ""
    assert cand == Sample.from_json_dict({"input": "fresh problem", "output": None})


def test_generate_candidates_reads_null_input_as_empty(small_pool):
    class Transport:
        def request(self, obj):
            return {"samples": [{"input": None, "output": "x \\boxed{1}"}]}

    (cand,), failed = generate_candidates(RemoteEndpoint(Transport()), small_pool, 5, 1,
                                          rng_seed=1)
    assert failed == 0
    assert cand.input == ""
    assert cand.id == cand.content_id()


def test_generate_candidates_ignores_reply_ids_and_extras(small_pool):
    gen = ReplyGenerator({"id": "chosen", "input": "fresh problem", "output": "x",
                          "tags": ["t"], "note": 1})
    (cand,), _ = generate_candidates(gen, small_pool, 5, 1, rng_seed=1)
    assert cand.id == cand.content_id() != "chosen"
    assert cand.tags is None and cand.extra == ()


class RecordingEndpoint:
    """Wraps an endpoint, records each request's arguments, and raises
    EndpointError on the first `fail_first` requests."""

    def __init__(self, inner, fail_first=0):
        self.inner, self.fail_first, self.calls = inner, fail_first, []

    def _call(self, fn, *args):
        self.calls.append(args)
        if len(self.calls) <= self.fail_first:
            raise EndpointError("transient")
        return fn(*args)

    def generate(self, exemplars, count, seed):
        return self._call(self.inner.generate, exemplars, count, seed)

    def solve(self, sample, n, seed):
        return self._call(self.inner.solve, sample, n, seed)


def test_generate_candidates_retries_with_derived_seeds(small_pool):
    gen = RecordingEndpoint(RecombinationGenerator(), fail_first=2)
    cands, failed = generate_candidates(gen, small_pool, 5, 1, rng_seed=1)
    first = mix64(mix64(1, 0x6E1, 0), 0)
    assert [seed for *_, seed in gen.calls] == [first, mix64(first, 1), mix64(first, 2)]
    assert failed == 0
    expected = RecombinationGenerator().generate(gen.calls[-1][0], 1, mix64(first, 2))
    assert [c.input for c in cands] == [r["input"] for r in expected]


def test_generate_candidates_validates_fewshot(small_pool):
    with pytest.raises(ValueError):
        generate_candidates(RecombinationGenerator(), small_pool, len(small_pool) + 1, 2, rng_seed=1)


# ---------------------------------------------------------------------------
# majority voting

class ScriptedSolver:
    def __init__(self, answers):
        self.answers = answers

    def solve(self, sample, n, seed):
        votes = self.answers[sample.id][:n]
        return votes, [rf"trace \boxed{{{a}}}" for a in votes]


def make_candidates(*ids):
    return [Sample(id=i, input=f"problem {i}", output=r"\boxed{0}") for i in ids]


def test_majority_vote_accepts_two_of_three():
    solver = ScriptedSolver({"a": ["4", "4", "5"]})
    kept, failed = majority_vote_filter(solver, make_candidates("a"), 3, 2, rng_seed=1)
    assert failed == 0
    assert len(kept) == 1
    v = kept[0]
    assert v.majority_answer == "4"
    assert v.majority_count == 2
    assert extract_answer(v.sample.output) == "4"
    assert v.sample.id == v.sample.content_id()  # id refreshed after trace swap


def test_majority_vote_rejects_all_distinct():
    solver = ScriptedSolver({"a": ["4", "5", "6"]})
    kept, failed = majority_vote_filter(solver, make_candidates("a"), 3, 2, rng_seed=1)
    assert kept == [] and failed == 0


def test_majority_vote_unanimity_pair():
    solver = ScriptedSolver({"a": ["e", "e"]})
    kept, _ = majority_vote_filter(solver, make_candidates("a"), 2, 2, rng_seed=1)
    assert len(kept) == 1 and kept[0].majority_count == 2


def test_majority_vote_solver_failure_drops():
    solver = RecordingEndpoint(EchoSolver(), fail_first=10**9)
    kept, failed = majority_vote_filter(solver, make_candidates("a", "b"), 3, 2, rng_seed=1)
    assert kept == [] and failed == 2
    assert len(solver.calls) == 2 * 3  # three tries per candidate


def test_majority_vote_retries_a_transient_solver_failure():
    cands = [Sample(id="a", input="x", output=r"\boxed{3}")]
    solver = RecordingEndpoint(EchoSolver(error_rate=0.5), fail_first=1)
    kept, failed = majority_vote_filter(solver, cands, 5, 1, rng_seed=1)
    first = mix64(1, 0x50F, 0)
    assert [seed for *_, seed in solver.calls] == [first, mix64(first, 1)]
    assert failed == 0 and len(kept) == 1
    answers, _ = EchoSolver(error_rate=0.5).solve(cands[0], 5, mix64(first, 1))
    assert kept[0].votes == tuple(answers)


def test_majority_vote_validates_thresholds():
    with pytest.raises(ValueError):
        majority_vote_filter(EchoSolver(), [], 2, 3, rng_seed=1)


# ---------------------------------------------------------------------------
# decontamination

def words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def test_decontaminate_flags_verbatim_span():
    span = words(12, "shared")
    protected = Corpus((Sample(id="p", input=f"prefix {span} suffix", output=""),), name="prot")
    cand = Sample(id="c", input=f"other start {span} other end", output="")
    kept, flagged = decontaminate([cand], protected, ngram=10)
    assert kept == [] and flagged == [cand]


def test_decontaminate_keeps_nine_token_overlap():
    span = words(9, "shared")
    protected = Corpus((Sample(id="p", input=f"{span} tailA tailB", output=""),), name="prot")
    cand = Sample(id="c", input=f"{span} different end here", output="")
    kept, flagged = decontaminate([cand], protected, ngram=10)
    assert flagged == [] and kept == [cand]


def test_decontaminate_empty_protected_keeps_all():
    cands = make_candidates("a", "b")
    kept, flagged = decontaminate(cands, Corpus((), name="prot"), ngram=10)
    assert kept == cands and flagged == []


def test_decontaminate_case_folds():
    span = words(10, "tok")
    protected = Corpus((Sample(id="p", input=span.upper(), output=""),), name="prot")
    cand = Sample(id="c", input=f"lead {span}", output="")
    _, flagged = decontaminate([cand], protected, ngram=10)
    assert flagged == [cand]


# ---------------------------------------------------------------------------
# the loop

def loop_fixture(seed=0, families=6, skew=True):
    sizes = [30] + [6] * (families - 1) if skew else [10] * families
    pool = template_corpus(families, sizes, seed=31, name="seedpool")
    model = ProxyModel.create(vocab_size=256, feature_dim=64, hash_seed=101, weight_seed=202)
    proj = ProjectionSpec(model.n_params, 64, seed=303)
    config = SynthesisConfig(
        iterations=2, gen_batch=12, vote_n=3, vote_tau=2, k_fraction=0.1,
        fewshot_count=5, seed=seed,
    )
    return pool, model, proj, config


def test_prismatic_step_respects_sparse_filter():
    pool, model, proj, config = loop_fixture()
    state = SynthesisState(pool, featurize(model, proj, pool), ())
    new = prismatic_step(state, config, RecombinationGenerator(), EchoSolver(), model, proj)
    rec = new.history[-1]
    assert new.iteration == 1
    assert rec["sparse_accepted"] == len(new.pool) - len(pool)
    assert rec["sparse_accepted"] <= rec["vote_accepted"] <= rec["generated"]
    assert tuple(new.pool.ids()) == new.pool_features.sample_ids


def test_prismatic_step_scores_the_nonzero_pool_rows():
    pool, model, proj, config = loop_fixture()
    feats = featurize(model, proj, pool)
    data = feats.data.copy()
    data[3] = 0.0
    zeroed = FeatureMatrix(data, feats.sample_ids, feats.provenance)
    state = SynthesisState(pool, zeroed, ())
    new = prismatic_step(state, config, RecombinationGenerator(), EchoSolver(), model, proj)
    grown = new.pool_features
    assert grown.rows > feats.rows and grown.degenerate_mask().tolist().count(True) == 1
    nonzero = grown.take(np.flatnonzero(~grown.degenerate_mask()))
    assert new.history[-1]["pool_g_vendi"].hex() == vendi_score(nonzero).hex()


def test_prismatic_step_fraction_one_admits_all_survivors():
    pool, model, proj, _ = loop_fixture()
    config = SynthesisConfig(
        iterations=1, gen_batch=10, vote_n=3, vote_tau=2, k_fraction=0.1,
        sparse_fraction=1.0, fewshot_count=5, seed=3,
    )
    state = SynthesisState(pool, featurize(model, proj, pool), ())
    new = prismatic_step(state, config, RecombinationGenerator(), EchoSolver(), model, proj)
    rec = new.history[-1]
    assert rec["sparse_accepted"] == rec["vote_accepted"] - rec["decontam_flagged"]


def test_prismatic_step_zero_survivors_still_advances():
    pool, model, proj, config = loop_fixture()
    state = SynthesisState(pool, featurize(model, proj, pool), ())
    new = prismatic_step(state, config, FlakyGenerator(), EchoSolver(), model, proj)
    assert new.iteration == 1
    assert len(new.pool) == len(pool)
    assert new.history[-1]["generated"] == 0
    assert new.history[-1]["gen_failed"] == config.gen_batch


def test_prismatic_step_decontaminates_against_protected():
    pool, model, proj, config = loop_fixture()
    state = SynthesisState(pool, featurize(model, proj, pool), ())
    # protect every pool input: recombined candidates share long spans with them
    new = prismatic_step(
        state, config, RecombinationGenerator(), EchoSolver(), model, proj,
        protected=pool,
    )
    rec = new.history[-1]
    assert rec["decontam_flagged"] > 0


def test_run_synthesis_zero_iterations():
    pool, model, proj, _ = loop_fixture()
    config = SynthesisConfig(iterations=0, gen_batch=5, vote_n=3, vote_tau=2,
                             k_fraction=0.1, seed=1)
    state = run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj)
    assert state.iteration == 0
    assert state.pool.ids() == pool.ids()


def test_run_synthesis_resume_matches_uninterrupted(tmp_path):
    pool, model, proj, _ = loop_fixture()
    config = SynthesisConfig(iterations=3, gen_batch=10, vote_n=3, vote_tau=2,
                             k_fraction=0.1, seed=11)
    full = run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj)

    # simulate a kill after step 2: run 2 iterations with checkpoints, then resume
    part_cfg = SynthesisConfig(iterations=2, gen_batch=10, vote_n=3, vote_tau=2,
                               k_fraction=0.1, seed=11)
    ckpt = tmp_path / "run"
    run_synthesis(pool, part_cfg, RecombinationGenerator(), EchoSolver(), model, proj,
                  checkpoint_dir=str(ckpt))
    resumed = run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj,
                            checkpoint_dir=str(ckpt))
    assert resumed.iteration == full.iteration == 3
    assert resumed.pool.ids() == full.pool.ids()
    assert resumed.pool_features.data.tobytes() == full.pool_features.data.tobytes()
    assert list(resumed.history) == list(full.history)


def test_run_synthesis_checks_fewshot_against_the_resumed_pool_first(tmp_path):
    pool, model, proj, config = loop_fixture()
    ckpt = str(tmp_path / "run")
    grown = run_synthesis(pool, replace(config, iterations=1), RecombinationGenerator(),
                          EchoSolver(), model, proj, checkpoint_dir=ckpt).pool
    started = []

    class Recording(RecombinationGenerator):
        def start(self):
            started.append(self)

    tiny = Corpus(tuple(pool)[:2])
    too_many = replace(config, fewshot_count=len(grown) + 1)
    with pytest.raises(ValueError, match=rf"^fewshot_count must be in \[1, {len(grown)}\]$"):
        run_synthesis(tiny, too_many, Recording(), EchoSolver(), model, proj,
                      checkpoint_dir=ckpt)
    assert started == [] and load_checkpoint(ckpt).iteration == 1
    # with no step left to run there is nothing to check
    done = run_synthesis(tiny, replace(too_many, iterations=1), Recording(), EchoSolver(),
                         model, proj, checkpoint_dir=ckpt)
    assert done.pool.ids() == grown.ids()
    # the resumed pool, not the seed corpus, bounds the exemplars
    resumed = run_synthesis(tiny, replace(config, fewshot_count=len(grown)), Recording(),
                            EchoSolver(), model, proj, checkpoint_dir=ckpt)
    assert resumed.iteration == config.iterations and len(started) == 2


def test_run_synthesis_builds_one_sign_matrix_per_run(tmp_path, monkeypatch):
    pool, model, _, _ = loop_fixture()
    calls = []
    real_sign_block = proxy.sign_block

    def counting_sign_block(*args):
        calls.append(args)
        return real_sign_block(*args)

    monkeypatch.setattr(proxy, "sign_block", counting_sign_block)

    def run(directory, iterations=3):
        config = SynthesisConfig(iterations=iterations, gen_batch=10, vote_n=3, vote_tau=2,
                                 k_fraction=0.1, seed=11)
        run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, spec(),
                      checkpoint_dir=str(tmp_path / directory))
        return {name: (tmp_path / directory / name).read_bytes()
                for name in ("pool.jsonl", "features.gvfm", "state.json")}

    def spec():
        return ProjectionSpec(model.n_params, 64, seed=303)

    once = run("once")
    assert len(calls) == 1
    # a fresh spec per batch builds the matrix once per batch
    with monkeypatch.context() as m:
        m.setattr(synthesis, "featurize", lambda model, _, corpus: featurize(model, spec(), corpus))
        plain = run("plain")
    assert len(calls) == 1 + 4  # the seed pool and one batch per step
    assert once == plain

    run("resumed", iterations=1)
    del calls[:]
    assert run("resumed") == plain
    assert len(calls) == 1


def test_run_synthesis_resume_with_another_projection_seed_fails_first(tmp_path, monkeypatch):
    pool, model, proj, config = loop_fixture()
    ckpt = str(tmp_path / "run")
    run_synthesis(pool, replace(config, iterations=1), RecombinationGenerator(), EchoSolver(),
                  model, proj, checkpoint_dir=ckpt)
    featurized = []
    monkeypatch.setattr(synthesis, "featurize", lambda *args: featurized.append(args))
    generator = RecordingEndpoint(RecombinationGenerator())
    solver = RecordingEndpoint(EchoSolver())
    other = ProjectionSpec(model.n_params, proj.target_dim, seed=proj.seed + 1)
    with pytest.raises(ValueError, match=r"features\.gvfm: rows written with"):
        run_synthesis(pool, config, generator, solver, model, other, checkpoint_dir=ckpt)
    assert generator.calls == solver.calls == featurized == []


def _three_steps():
    pool, model, proj, config = loop_fixture()
    return pool, model, proj, replace(config, iterations=3, gen_batch=10, seed=11)


def _run_bytes(directory):
    return {name: (directory / name).read_bytes()
            for name in ("pool.jsonl", "features.gvfm", "state.json")}


def test_run_synthesis_builds_no_gram_while_a_spectrum_runs(tmp_path, monkeypatch):
    """A Gram built while a spectrum runs would run beside the next step's
    k-means, and its float64 copy of the pool would raise the run's peak
    memory; the slow spectrum leaves any such Gram no time to slip past it.
    The run still equals prismatic_step applied in turn."""
    pool, model, proj, config = _three_steps()
    threads = threading.active_count()
    plain = SynthesisState(pool, featurize(model, proj, pool), ())
    for _ in range(config.iterations):
        plain = prismatic_step(plain, config, RecombinationGenerator(), EchoSolver(), model, proj)
    running = threading.Event()
    overlapped = []
    spectrum, gram = synthesis._gram_vendi, metrics._gram

    def slow_spectrum(g):
        running.set()
        try:
            time.sleep(0.2)
            return spectrum(g)
        finally:
            running.clear()

    def watched_gram(mat):
        overlapped.append(running.is_set())
        return gram(mat)

    monkeypatch.setattr(synthesis, "_gram_vendi", slow_spectrum)
    monkeypatch.setattr(metrics, "_gram", watched_gram)
    slow = run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj,
                         checkpoint_dir=str(tmp_path / "run"))
    assert overlapped == [False] * config.iterations
    assert threading.active_count() == threads
    assert list(slow.history) == list(plain.history)
    assert slow.pool_features.data.tobytes() == plain.pool_features.data.tobytes()


class FailingGenerator(RecombinationGenerator):
    """Raises a plain error (not EndpointError, so no retry) from its
    `fail_at`-th call on."""

    def __init__(self, fail_at):
        self.calls = 0
        self.fail_at = fail_at

    def generate(self, exemplars, count, seed):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise RuntimeError("generator crashed")
        return super().generate(exemplars, count, seed)


def test_run_synthesis_crash_in_a_step_keeps_the_step_before(tmp_path):
    pool, model, proj, config = _three_steps()
    threads = threading.active_count()
    run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj,
                  checkpoint_dir=str(tmp_path / "full"))
    ckpt = tmp_path / "crashed"
    # one generate request per batch slot: the first call of step 2 raises
    with pytest.raises(RuntimeError, match="generator crashed"):
        run_synthesis(pool, config, FailingGenerator(config.gen_batch + 1), EchoSolver(),
                      model, proj, checkpoint_dir=str(ckpt))
    assert threading.active_count() == threads
    assert load_checkpoint(str(ckpt)).iteration == 1
    run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj,
                  checkpoint_dir=str(ckpt))
    assert _run_bytes(ckpt) == _run_bytes(tmp_path / "full")


@pytest.mark.parametrize("fail_at", [1, 2, 3])
def test_run_synthesis_failed_spectrum_is_raised_and_never_checkpointed(
    tmp_path, monkeypatch, fail_at
):
    pool, model, proj, config = _three_steps()
    threads = threading.active_count()
    spectrum = synthesis._gram_vendi
    calls = []

    def failing(g):
        calls.append(g.shape)
        if len(calls) == fail_at:
            raise FloatingPointError("spectrum failed")
        return spectrum(g)

    monkeypatch.setattr(synthesis, "_gram_vendi", failing)
    ckpt = str(tmp_path / "run")
    with pytest.raises(FloatingPointError, match="spectrum failed"):
        run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj,
                      checkpoint_dir=ckpt)
    assert threading.active_count() == threads
    assert load_checkpoint(ckpt).iteration == fail_at - 1


def test_checkpoint_roundtrip(tmp_path):
    pool, model, proj, config = loop_fixture()
    state = run_synthesis(pool, config, RecombinationGenerator(), EchoSolver(), model, proj,
                          checkpoint_dir=str(tmp_path / "ck"))
    loaded = load_checkpoint(str(tmp_path / "ck"))
    assert loaded.iteration == state.iteration
    assert loaded.pool.ids() == state.pool.ids()
    assert list(loaded.history) == list(state.history)


def test_pool_alignment_invariant_checked():
    pool, model, proj, _ = loop_fixture()
    feats = featurize(model, proj, pool)
    with pytest.raises(ValueError, match="aligned"):
        SynthesisState(pool, feats.take(list(range(len(pool) - 1))), ())


# ---------------------------------------------------------------------------
# external process protocol

WORKER = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        if req["type"] == "generate":
            n = req["count"]
            first = req["exemplars"][0]["input"].split()[0]
            out = [{"input": f"{first} generated {req['seed']} item {i}",
                    "output": f"steps \\\\boxed{{{i}}}"} for i in range(n)]
            print(json.dumps({"samples": out}), flush=True)
        elif req["type"] == "solve":
            n = req["n"]
            print(json.dumps({"answers": ["9"] * n,
                              "traces": ["trace \\\\boxed{9}"] * n}), flush=True)
    """
)


@pytest.fixture()
def worker_script(tmp_path):
    path = tmp_path / "worker.py"
    path.write_text(WORKER, encoding="utf-8")
    return str(path)


def test_process_generator_roundtrip(worker_script, small_pool):
    gen = RemoteEndpoint(JsonLinesProcess([sys.executable, worker_script]))
    try:
        recs = gen.generate(list(small_pool)[:2], count=3, seed=5)
        assert len(recs) == 3
        assert recs[0]["input"].endswith("item 0")
        assert extract_answer(recs[1]["output"]) == "1"
    finally:
        gen.close()


def test_process_solver_roundtrip(worker_script):
    solver = RemoteEndpoint(JsonLinesProcess([sys.executable, worker_script]))
    try:
        answers, traces = solver.solve(Sample(id="x", input="q", output=""), 2, seed=5)
        assert answers == ["9", "9"]
        assert len(traces) == 2
    finally:
        solver.close()


def test_process_endpoint_in_generate_candidates(worker_script, small_pool):
    gen = RemoteEndpoint(JsonLinesProcess([sys.executable, worker_script]))
    try:
        cands, failed = generate_candidates(gen, small_pool, 3, 4, rng_seed=2)
        assert failed == 0
        assert len(cands) == 4
    finally:
        gen.close()


def test_process_garbage_output_is_endpoint_error(tmp_path, small_pool):
    bad = tmp_path / "bad.py"
    bad.write_text("import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n")
    gen = RemoteEndpoint(JsonLinesProcess([sys.executable, str(bad)]))
    try:
        with pytest.raises(EndpointError, match="invalid JSON"):
            gen.generate(list(small_pool)[:1], 1, seed=1)
    finally:
        gen.close()


def test_process_early_exit_counts_as_failures(tmp_path, small_pool):
    dead = tmp_path / "dead.py"
    dead.write_text("import sys; sys.exit(0)\n")
    gen = RemoteEndpoint(JsonLinesProcess([sys.executable, str(dead)]))
    try:
        cands, failed = generate_candidates(gen, small_pool, 3, 3, rng_seed=2)
        assert cands == [] and failed == 3
    finally:
        gen.close()


def test_solver_length_mismatch_rejected(tmp_path):
    short = tmp_path / "short.py"
    short.write_text(
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    print(json.dumps({'answers': ['1'], 'traces': ['t']}), flush=True)\n"
    )
    solver = RemoteEndpoint(JsonLinesProcess([sys.executable, str(short)]))
    try:
        with pytest.raises(EndpointError, match="answers"):
            solver.solve(Sample(id="x", input="q", output=""), 3, seed=1)
    finally:
        solver.close()


def test_process_non_utf8_line_counts_as_failure(tmp_path, small_pool):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    sys.stdout.buffer.write(b'\\xff\\xfe{}\\n')\n"
        "    sys.stdout.buffer.flush()\n"
    )
    gen = RemoteEndpoint(JsonLinesProcess([sys.executable, str(bad)]))
    try:
        assert generate_candidates(gen, small_pool, 3, 2, rng_seed=2) == ([], 2)
    finally:
        gen.close()


@pytest.mark.parametrize("script", [WORKER, "import sys; sys.exit(0)\n",
                                    "import sys, time; print('{', end='', flush=True); "
                                    "time.sleep(60)\n"],
                         ids=["close-live-worker", "drop-exited-worker", "kill-hung-worker"])
def test_process_transport_releases_pipes(tmp_path, script):
    path = tmp_path / "worker.py"
    path.write_text(script, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        transport = JsonLinesProcess([sys.executable, str(path)], timeout=0.5)
        try:
            transport.request({"type": "solve", "problem": "q", "n": 1, "seed": 1})
        except EndpointError:
            pass
        transport.close()
        del transport
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# A worker for the send-ahead tests: each reply names its request's seed, so a
# reply handed to the wrong request shows. A "poison" problem makes it exit,
# after half a reply line if the problem holds "half", and after hanging if it
# holds "hang"; a "pad" field asks for that many more reply bytes.
SEED_WORKER = textwrap.dedent(
    """
    import json, sys, time
    for line in sys.stdin:
        req = json.loads(line)
        problem = req.get("problem", "")
        if "poison" in problem:
            if "half" in problem:
                sys.stdout.write('{"answers": ')
                sys.stdout.flush()
            if "hang" in problem:
                time.sleep(60)
            sys.exit(3)
        n, s = req.get("n", 1), req["seed"]
        reply = {"answers": [str((s >> v) % 3) for v in range(n)],
                 "traces": [f"seed {s} vote {v}" for v in range(n)], "seed": s}
        if "pad" in req:
            reply["pad"] = "y" * req["pad"]
        print(json.dumps(reply), flush=True)
    """
)


@pytest.fixture()
def seed_worker(tmp_path):
    path = tmp_path / "seed_worker.py"
    path.write_text(SEED_WORKER, encoding="utf-8")
    return [sys.executable, "-S", str(path)]


def _one_at_a_time(self, obj: dict) -> dict:
    """Reference `JsonLinesProcess.request` without send-ahead: one line
    written and one line read per call, on a worker respawned once dead."""
    with self._lock:
        if self._proc is not None and self._proc.poll() is not None:
            self._release()
        if self._proc is None:
            self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, encoding="utf-8", bufsize=1)
        try:
            self._proc.stdin.write(json.dumps(obj, ensure_ascii=False) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except OSError as e:
            self._drop()
            raise EndpointError(f"worker pipe failed: {e}") from e
        if not line:
            self._drop()
            raise EndpointError("worker closed its output stream")
    return synthesis._json_object(line, "worker")


def _children() -> set[str]:
    """Pids of this process's children, live or unreaped (empty where /proc
    does not list them)."""
    return {pid for path in glob.glob("/proc/self/task/*/children")
            for pid in Path(path).read_text().split()}


def _candidates(n: int, poison: int) -> list[Sample]:
    return [Sample(id=f"c{i}", input=("poison " if i == poison else "") + f"problem {i}",
                   output=f"o {i}") for i in range(n)]


def test_dead_worker_fails_one_job_like_one_at_a_time(seed_worker, monkeypatch):
    threads, children = threading.active_count(), _children()
    candidates = _candidates(20, poison=9)

    def vote():
        solver = RemoteEndpoint(JsonLinesProcess(seed_worker, timeout=10.0))
        try:
            return majority_vote_filter(solver, candidates, 3, 2, rng_seed=4, max_workers=2)
        finally:
            solver.close()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verified, failed = vote()
        with monkeypatch.context() as m:
            m.setattr(JsonLinesProcess, "request", _one_at_a_time)
            m.delattr(JsonLinesProcess, "send_ahead")
            reference = vote()
        gc.collect()
    assert failed == 1
    assert (verified, failed) == reference
    assert "poison problem 9" not in {v.sample.input for v in verified}
    assert len(verified) > 5
    assert (threading.active_count(), _children()) == (threads, children)
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_shared_transport_under_threads_gets_each_its_own_reply(seed_worker):
    """Four threads claim requests sent ahead, out of their order, and send
    new ones, while a poison request kills the worker once, half-way
    through its reply line."""
    children = _children()
    transport = JsonLinesProcess(seed_worker, timeout=10.0)
    requests = [{"type": "solve", "problem": "poison half" if s == 13 else f"p{s}", "n": 1,
                 "seed": s}
                for s in range(40)]
    transport.send_ahead(requests[:30])
    replies: dict[int, object] = {}

    def claim(part):
        for req in requests[part::4][::-1]:
            try:
                replies[req["seed"]] = transport.request(req)["seed"]
            except EndpointError as e:
                replies[req["seed"]] = str(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=claim, args=(part,)) for part in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
        transport.close()
    assert replies.pop(13) == "worker closed its output stream"
    assert replies == {s: s for s in range(40) if s != 13}
    assert _children() == children


def test_hung_worker_fails_one_job_within_its_deadline(seed_worker):
    threads, children = threading.active_count(), _children()
    candidates = [replace(c, input=c.input.replace("poison", "poison half hang"))
                  for c in _candidates(8, poison=3)]
    solver = RemoteEndpoint(JsonLinesProcess(seed_worker, timeout=0.5))
    start = time.perf_counter()
    try:
        verified, failed = majority_vote_filter(solver, candidates, 1, 1, rng_seed=4)
        # a fresh worker that hangs on its first request, silent, is killed too
        with pytest.raises(EndpointError, match="no reply within .* of its start"):
            solver.solve(replace(candidates[3], input="poison hang"), 1, seed=1)
    finally:
        solver.close()
    assert time.perf_counter() - start < 30
    assert failed == 1
    seeds = [mix64(4, 0x50F, i) for i in range(8) if i != 3]
    assert [v.sample.output for v in verified] == [f"seed {s} vote 0" for s in seeds]
    assert (threading.active_count(), _children()) == (threads, children)


def test_slow_starting_worker_is_not_killed_by_the_deadline(tmp_path):
    """Each worker sleeps twice the deadline before it reads a request; a
    poison problem makes the second stage respawn it twice."""
    threads, children = threading.active_count(), _children()
    path = tmp_path / "slow_worker.py"
    path.write_text("import time\ntime.sleep(0.6)\n" + SEED_WORKER, encoding="utf-8")
    solver = RemoteEndpoint(JsonLinesProcess([sys.executable, "-S", str(path)], timeout=0.3))
    start = time.perf_counter()
    try:
        verified, failed = majority_vote_filter(solver, _candidates(8, poison=-1), 1, 1,
                                                rng_seed=4)
        assert (len(verified), failed) == (8, 0)
        verified, failed = majority_vote_filter(solver, _candidates(8, poison=3), 1, 1,
                                                rng_seed=4)
        assert (len(verified), failed) == (7, 1)
    finally:
        solver.close()
    assert time.perf_counter() - start < 30
    assert (threading.active_count(), _children()) == (threads, children)


def test_silent_first_worker_is_killed_within_its_start_bound(tmp_path):
    """A first worker that never writes fails its request after
    _START_TIMEOUTS × timeout; a watchdog turns a wait without bound into a
    failure instead of a hang."""
    path = tmp_path / "silent_worker.py"
    path.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    timeout = 0.2
    bound = synthesis._START_TIMEOUTS * timeout
    transport = JsonLinesProcess([sys.executable, "-S", str(path)], timeout=timeout)
    outcome = []

    def ask():
        try:
            outcome.append(transport.request({"type": "solve", "problem": "q", "n": 1, "seed": 1}))
        except Exception as e:  # handed to the test's thread
            outcome.append(e)

    waiter = threading.Thread(target=ask)
    start = time.monotonic()
    waiter.start()
    waiter.join(timeout=bound + 10)
    elapsed, waiting = time.monotonic() - start, waiter.is_alive()
    transport.close()
    waiter.join(timeout=10)
    assert not waiting, "the request still waited on a silent worker"
    assert [type(o) for o in outcome] == [EndpointError], outcome
    assert str(outcome[0]) == f"worker gave no reply within {bound:.3g} s of its start; killed"
    assert bound <= elapsed < bound + 10


def test_worker_writing_spaces_through_a_long_start_gets_every_reply(tmp_path):
    """The worker writes a space every 0.05 s through 3.5 s of start-up,
    longer than the bound on a silent start, then answers."""
    path = tmp_path / "loading_worker.py"
    path.write_text("import sys, time\n"
                    "for _ in range(70):\n"
                    "    sys.stdout.write(' ')\n"
                    "    sys.stdout.flush()\n"
                    "    time.sleep(0.05)\n" + SEED_WORKER, encoding="utf-8")
    timeout = 0.3
    assert synthesis._START_TIMEOUTS * timeout < 3.5
    solver = RemoteEndpoint(JsonLinesProcess([sys.executable, "-S", str(path)], timeout=timeout))
    try:
        verified, failed = majority_vote_filter(solver, _candidates(6, poison=-1), 1, 1,
                                                rng_seed=4)
    finally:
        solver.close()
    assert failed == 0
    seeds = [mix64(4, 0x50F, i) for i in range(6)]
    assert [v.sample.output for v in verified] == [f"seed {s} vote 0" for s in seeds]


def test_run_synthesis_starts_its_workers_before_the_seed_featurize(worker_script,
                                                                     monkeypatch):
    pool, model, proj, config = loop_fixture()
    events = []
    start, spawned, featurize_ = JsonLinesProcess.start, JsonLinesProcess._spawned, featurize

    def recording_start(self):
        events.append("start")
        start(self)

    def recording_spawned(self):
        if self._proc is None:
            events.append("spawn")
        return spawned(self)

    def recording_featurize(*args):
        events.append("featurize")
        return featurize_(*args)

    monkeypatch.setattr(JsonLinesProcess, "start", recording_start)
    monkeypatch.setattr(JsonLinesProcess, "_spawned", recording_spawned)
    monkeypatch.setattr(synthesis, "featurize", recording_featurize)
    generator = RemoteEndpoint(JsonLinesProcess([sys.executable, worker_script]))
    solver = RemoteEndpoint(JsonLinesProcess([sys.executable, worker_script]))
    try:
        state = run_synthesis(pool, replace(config, iterations=1), generator, solver, model,
                              proj)
    finally:
        generator.close()
        solver.close()
    assert state.iteration == 1
    assert events[:5] == ["start", "spawn", "start", "spawn", "featurize"]


@pytest.mark.parametrize("ends", ["returns", "raises"])
def test_run_synthesis_closes_the_workers_it_starts(worker_script, monkeypatch, ends):
    pool, model, proj, config = loop_fixture()
    children = _children()
    if ends == "raises":
        def failing(g):
            raise FloatingPointError("spectrum failed")

        monkeypatch.setattr(synthesis, "_gram_vendi", failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # the caller never closes these endpoints
        endpoints = [RemoteEndpoint(JsonLinesProcess([sys.executable, worker_script]))
                     for _ in range(2)]
        with pytest.raises(FloatingPointError) if ends == "raises" else contextlib.nullcontext():
            run_synthesis(pool, config, *endpoints, model, proj)
        assert _children() == children
        assert [e.transport._proc for e in endpoints] == [None, None]
        del endpoints
        gc.collect()
    assert _children() == children
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# A worker that logs each request's seed to the file named by its argument. It
# answers a "flaky" problem with a JSON array the first time it sees it, and
# takes 0.9 s over a "slow" problem, writing a space every 0.3 s before the reply.
LOG_WORKER = textwrap.dedent(
    """
    import json, sys, time
    seen = set()
    with open(sys.argv[1], "a") as log:
        for line in sys.stdin:
            req = json.loads(line)
            print(req["seed"], file=log, flush=True)
            problem = req["problem"]
            if "slow" in problem:
                for _ in range(3):
                    time.sleep(0.3)
                    sys.stdout.write(" ")
                    sys.stdout.flush()
            if "flaky" in problem and problem not in seen:
                seen.add(problem)
                print("[]", flush=True)
                continue
            n = req["n"]
            print(json.dumps({"answers": ["1"] * n, "traces": ["t"] * n}), flush=True)
    """
)


def _logging_solver(tmp_path, timeout):
    path = tmp_path / "log_worker.py"
    path.write_text(LOG_WORKER, encoding="utf-8")
    log = tmp_path / "seeds.log"
    command = [sys.executable, "-S", str(path), str(log)]
    return RemoteEndpoint(JsonLinesProcess(command, timeout=timeout)), log


def test_each_request_sent_ahead_reaches_the_worker_once(tmp_path):
    solver, log = _logging_solver(tmp_path, timeout=10.0)
    candidates = [replace(c, input=c.input.replace("poison", "flaky"))
                  for c in _candidates(12, poison=5)]
    try:
        verified, failed = majority_vote_filter(solver, candidates, 1, 1, rng_seed=4)
    finally:
        solver.close()
    assert (len(verified), failed) == (12, 0)
    seeds = [mix64(4, 0x50F, i) for i in range(12)]
    assert log.read_text().split() == [str(s) for s in seeds + [mix64(seeds[5], 1)]]


def test_worker_writing_spaces_is_not_killed_by_the_deadline(tmp_path):
    """Each reply takes almost twice the deadline, and the worker writes a
    space before it every 0.3 s."""
    threads, children = threading.active_count(), _children()
    solver, log = _logging_solver(tmp_path, timeout=0.5)
    candidates = [Sample(id=f"c{i}", input=f"slow problem {i}", output="") for i in range(3)]
    start = time.perf_counter()
    try:
        verified, failed = majority_vote_filter(solver, candidates, 1, 1, rng_seed=4)
    finally:
        solver.close()
    assert time.perf_counter() - start < 20
    assert (len(verified), failed) == (3, 0)
    assert log.read_text().split() == [str(mix64(4, 0x50F, i)) for i in range(3)]
    assert (threading.active_count(), _children()) == (threads, children)


def test_send_ahead_never_deadlocks_on_full_pipes(seed_worker):
    """Requests and replies far above a 64 KB pipe buffer, all queued first,
    come back whole and in order."""
    transport = JsonLinesProcess(seed_worker, timeout=30.0)
    requests = [{"type": "solve", "problem": "z" * 200_000, "n": 1, "seed": s, "pad": 256_000}
                for s in range(64)]
    try:
        transport.send_ahead(requests)
        for req in requests:
            reply = transport.request(req)
            assert (reply["seed"], len(reply["pad"])) == (req["seed"], 256_000)
    finally:
        transport.close()


# ---------------------------------------------------------------------------
# HTTP protocol

class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(length))
        if req["type"] == "generate":
            body = {"samples": [{"input": f"http item {i}", "output": rf"\boxed{{{i}}}"}
                                for i in range(req["count"])]}
        else:
            body = {"answers": ["7"] * req["n"], "traces": [r"t \boxed{7}"] * req["n"]}
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_endpoint():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/"
    server.shutdown()
    server.server_close()


def test_http_generator_and_solver(http_endpoint):
    gen = RemoteEndpoint(HttpJson(http_endpoint))
    recs = gen.generate([Sample(id="a", input="x", output="")], 2, seed=1)
    assert [r["input"] for r in recs] == ["http item 0", "http item 1"]
    solver = RemoteEndpoint(HttpJson(http_endpoint))
    answers, traces = solver.solve(Sample(id="a", input="x", output=""), 3, seed=1)
    assert answers == ["7", "7", "7"]


def test_http_connection_refused_is_endpoint_error():
    gen = RemoteEndpoint(HttpJson("http://127.0.0.1:9/", timeout=0.5))
    with pytest.raises(EndpointError):
        gen.generate([Sample(id="a", input="x", output="")], 1, seed=1)


class _RawReply(socketserver.StreamRequestHandler):
    """Reads one HTTP request and answers with the server's raw `reply` bytes."""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        self.rfile.read(length)
        self.wfile.write(self.server.reply)


@contextlib.contextmanager
def _raw_http_server(reply: bytes):
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawReply)
    server.daemon_threads = True
    server.reply = reply
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "reply",
    [b"garbage\r\n\r\n", b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}"],
    ids=["bad-status-line", "incomplete-read"],
)
def test_http_non_http_reply_is_endpoint_error(reply, small_pool):
    with _raw_http_server(reply) as url:
        gen = RemoteEndpoint(HttpJson(url, timeout=5.0))
        with pytest.raises(EndpointError, match="failed"):
            gen.generate(list(small_pool)[:1], 1, seed=1)
        assert generate_candidates(gen, small_pool, 3, 2, rng_seed=2) == ([], 2)


def test_http_non_utf8_body_is_endpoint_error(small_pool):
    body = b'{"samples": "\xff"}'
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    with _raw_http_server(reply) as url:
        gen = RemoteEndpoint(HttpJson(url, timeout=5.0))
        with pytest.raises(EndpointError, match=f"invalid JSON from {url}"):
            gen.generate(list(small_pool)[:1], 1, seed=1)
        assert generate_candidates(gen, small_pool, 3, 2, rng_seed=2) == ([], 2)
