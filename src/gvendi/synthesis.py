"""Iterative cluster -> generate -> sparse-filter data growth.

Each step clusters the current pool in gradient space, asks a generator for
new candidates (few-shot prompted from the pool), verifies them by majority
vote across independent solver runs, screens them against a protected corpus
by exact n-gram overlap, and keeps only the survivors whose nearest centroid
sits in a sparse cluster. Accepted samples are appended to the pool, so the
loop preferentially fills the underrepresented regions of gradient space.

Generators and solvers are pluggable: in-process built-ins for testing
(RecombinationGenerator, EchoSolver), child processes answering
newline-delimited UTF-8 JSON requests over stdio in order, or HTTP targets
receiving the same objects via POST. Both transports read each reply as a
UTF-8 JSON object; one whose text cannot be encoded as UTF-8 again (a lone
surrogate escape) fails its try. A transport needs only `request`; its
`start`, `close` and `send_ahead` are optional. Wire protocol:

    {"type": "generate", "exemplars": [sample...], "count": n, "seed": s}
        -> {"samples": [{"input": ..., "output": ...}, ...]}
    {"type": "solve", "problem": text, "n": n, "seed": s}
        -> {"answers": [str x n], "traces": [str x n]}
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import os
import select
import shlex
import subprocess
import threading
import time
import urllib.request
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Any, Protocol, Sequence

import numpy as np

from .cluster import dynamic_k, kmeans_fit, sparse_clusters
from .corpus import Corpus, Sample, content_id, ingest_jsonl, load_json, open_atomic, write_jsonl
from .featmat import FEATURIZERS, FeatureMatrix, Provenance, store_features
from .metrics import _features_gram, _gram_vendi, vendi_score
from .proxy import ProjectionSpec, ProxyModel, featurize, gradient_provenance
from .rng import mix64, rng_from


class EndpointError(RuntimeError):
    """A generator/solver request failed or returned a malformed response."""


class Generator(Protocol):
    def generate(self, exemplars: Sequence[Sample], count: int, seed: int) -> list[dict]: ...


class Solver(Protocol):
    def solve(self, sample: Sample, n: int, seed: int) -> tuple[list[str], list[str]]: ...


# ---------------------------------------------------------------------------
# answer extraction


_BOX = "\\boxed{"


def _last_box(text: str) -> tuple[int, int] | None:
    r"""(start, end) of the last ``\boxed{`` in text and the index just past
    its matching brace, or None when there is no such box or it is unbalanced."""
    pos = text.rfind(_BOX)
    if pos < 0:
        return None
    depth = 1
    for i in range(pos + len(_BOX), len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return pos, i + 1
    return None


def extract_answer(text: str) -> str:
    r"""Final answer of a solution trace.

    The content of the last balanced ``\boxed{...}`` if present, else the
    last whitespace token.
    """
    box = _last_box(text)
    if box is not None:
        return text[box[0] + len(_BOX) : box[1] - 1].strip()
    tokens = text.split()
    return tokens[-1] if tokens else ""


def _with_final_answer(text: str, answer: str) -> str:
    """Rewrite the last boxed answer of a trace, or append one."""
    box = _last_box(text)
    if box is not None:
        return text[: box[0]] + _BOX + answer + "}" + text[box[1] :]
    sep = " " if text and not text.endswith(" ") else ""
    return f"{text}{sep}{_BOX}{answer}}}"


# ---------------------------------------------------------------------------
# built-in endpoints


class RecombinationGenerator:
    """LLM-free generator: splice two exemplars and perturb their numerals.

    Exists so the whole loop is exercisable hermetically; outputs end in a
    boxed answer derived from the new input's numerals, which keeps the echo
    solver's votes self-consistent.
    """

    def generate(self, exemplars: Sequence[Sample], count: int, seed: int) -> list[dict]:
        if not exemplars:
            raise EndpointError("recombination generator needs at least one exemplar")
        out = []
        for c in range(count):
            rng = rng_from(seed, 0x6E6, c)
            if len(exemplars) >= 2:
                i, j = rng.choice(len(exemplars), size=2, replace=False)
                a, b = exemplars[int(i)], exemplars[int(j)]
            else:
                a = b = exemplars[0]
            in_toks = self._perturb(self._splice(a.input.split(), b.input.split(), rng), rng)
            out_toks = self._splice(a.output.split(), b.output.split(), rng)
            numerals = [int(t) for t in in_toks if t.isdigit()]
            answer = sum(numerals) % 1000 if numerals else int(rng.integers(0, 1000))
            output = " ".join(out_toks) + f" \\boxed{{{answer}}}"
            out.append({"input": " ".join(in_toks), "output": output})
        return out

    @staticmethod
    def _splice(ta: list[str], tb: list[str], rng: np.random.Generator) -> list[str]:
        if not ta and not tb:
            return ["item"]
        if not ta or not tb:
            return list(ta or tb)
        cut_a = int(rng.integers(1, len(ta) + 1))
        cut_b = int(rng.integers(0, len(tb) + 1))
        toks = ta[:cut_a] + tb[cut_b:]
        return toks if toks else list(ta)

    @staticmethod
    def _perturb(tokens: list[str], rng: np.random.Generator) -> list[str]:
        out = []
        for t in tokens:
            if t.isdigit() and rng.random() < 0.5:
                out.append(str(int(t) + int(rng.integers(1, 10))))
            else:
                out.append(t)
        return out


class EchoSolver:
    """LLM-free solver: echoes the candidate's own final answer.

    An error_rate > 0 corrupts individual votes, which is how tests exercise
    the reject path of majority voting.
    """

    def __init__(self, error_rate: float = 0.0):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must be in [0, 1]")
        self.error_rate = error_rate

    def solve(self, sample: Sample, n: int, seed: int) -> tuple[list[str], list[str]]:
        truth = extract_answer(sample.output)
        answers, traces = [], []
        for v in range(n):
            rng = rng_from(seed, 0xEC0, v)
            ans = truth
            if self.error_rate > 0.0 and rng.random() < self.error_rate:
                ans = self._corrupt(truth, rng)
            answers.append(ans)
            traces.append(_with_final_answer(sample.output, ans))
        return answers, traces

    @staticmethod
    def _corrupt(answer: str, rng: np.random.Generator) -> str:
        if answer.lstrip("-").isdigit():
            return str(int(answer) + int(rng.integers(1, 10)))
        return answer + "'"


# ---------------------------------------------------------------------------
# external endpoints


def _json_object(raw: bytes, source: str) -> dict:
    """The JSON object in a reply from `source`, read as UTF-8 (a leading
    byte order mark is ignored); anything else, JSON nested too deeply to
    read, or text that cannot be encoded as UTF-8 again (a lone surrogate
    escape), is EndpointError."""
    try:
        out = json.loads(raw.decode("utf-8-sig"))
        _wire_line(out)
    except (ValueError, RecursionError) as e:  # a decode, parse or re-encode error; too deep
        raise EndpointError(f"invalid JSON from {source}: {e}") from e
    if not isinstance(out, dict):
        raise EndpointError(f"{source}: response is not a JSON object")
    return out


def _wire_line(obj: dict) -> bytes:
    return (json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8")


class _Slot:
    """One request line sent to the worker, and its reply line or error
    once the worker has answered or failed it."""

    __slots__ = ("line", "reply", "error")

    def __init__(self, line: bytes):
        self.line = line
        self.reply: bytearray | None = None
        self.error: str | None = None


_START_TIMEOUTS = 10  # a worker's silence before its first byte, in timeouts


class JsonLinesProcess:
    """JSON lines to and from a child process, which answers each request
    line with one reply line, in order, and is respawned when it has died.

    Requests may be sent ahead (`send_ahead`): the worker's input then holds
    a queue, and a `request` equal to the oldest request sent ahead picks up
    its reply; any other request (a retry, or one claimed out of order) is
    sent again and gets its own reply. The thread in `request` moves the
    bytes both ways in one non-blocking loop, so no pipe size can deadlock
    it; requests sent ahead wait in the transport until then.

    Each worker has one silence clock. It starts at the spawn, restarts
    when a `request` begins to wait and on every byte the worker writes, and
    runs out after `timeout` s, or `_START_TIMEOUTS` × `timeout` s before
    the worker's first byte, since loading a model can take minutes. When the
    worker dies or its clock runs out (it is then killed), the first
    unanswered request fails with EndpointError and the ones queued behind
    it go again to a fresh worker. A worker that needs longer, to start or
    for one reply, keeps its clock going by writing spaces before the
    reply's JSON, never a newline.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 60.0):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError(f"empty worker command {command!r}")
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lock = threading.Lock()
        self._slots: deque[_Slot] = deque()  # sent to this worker, unanswered, in order
        self._unsent = bytearray()  # request bytes the worker has not taken yet
        self._partial = bytearray()  # reply bytes after the last newline
        self._ahead: deque[_Slot] = deque()  # sent ahead, not yet requested, in order
        self._quiet_since = 0.0  # when the silence clock last restarted (time.monotonic)
        self._heard = False  # whether this worker has sent a reply byte

    def start(self) -> None:
        """Start the worker now, so its start-up overlaps the caller's work."""
        with self._lock:
            self._spawned()

    def send_ahead(self, objs: Sequence[dict]) -> None:
        """Queue each request for the worker; `request`s of equal objects,
        in the same order, pick up their replies instead of sending them
        again. Requests sent ahead earlier and never requested are forgotten."""
        with self._lock:
            self._ahead = deque(self._send(_wire_line(obj)) for obj in objs)

    def request(self, obj: dict) -> dict:
        line = _wire_line(obj)
        with self._lock:
            if self._ahead and self._ahead[0].line == line:
                slot = self._ahead.popleft()
            else:
                slot = self._send(line)
            self._quiet_since = time.monotonic()
            while slot.reply is None and slot.error is None:
                self._pump()
        if slot.error is not None:
            raise EndpointError(slot.error)
        return _json_object(slot.reply, "worker")

    def _send(self, line: bytes) -> _Slot:
        # a worker that exited with nothing outstanding is replaced at once,
        # so the request it never saw does not take the blame for its exit
        if not self._slots and self._proc is not None and self._proc.poll() is not None:
            self._release()
        slot = _Slot(line)
        self._slots.append(slot)
        self._unsent += line
        return slot

    def _spawned(self) -> subprocess.Popen:
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
            os.set_blocking(self._proc.stdin.fileno(), False)
            self._quiet_since, self._heard = time.monotonic(), False
        return self._proc

    def _pump(self) -> None:
        """Wait for the worker until its silence clock runs out; write what
        its input accepts and hand each complete reply line to the oldest
        slot."""
        proc = self._spawned()
        limit = self.timeout if self._heard else _START_TIMEOUTS * self.timeout
        out_fd = proc.stdout.fileno()
        poll = select.poll()
        poll.register(out_fd, select.POLLIN)
        if self._unsent and not proc.stdin.closed:
            poll.register(proc.stdin.fileno(), select.POLLOUT)
        wait = self._quiet_since + limit - time.monotonic()
        events = poll.poll(max(0, math.ceil(wait * 1000)))
        if not events:
            if self._heard:
                self._fail_first(f"worker gave no reply within {limit} s; killed")
            else:
                self._fail_first(f"worker gave no reply within {limit:.3g} s of its start; killed")
            return
        for fd, _ in events:
            if fd != out_fd:
                try:
                    del self._unsent[: os.write(fd, self._unsent)]
                except BlockingIOError:
                    pass
                except OSError:  # the worker stopped reading: its output tells what it answered
                    proc.stdin.close()
                continue
            try:
                data = os.read(out_fd, 1 << 16)
            except OSError as e:
                self._fail_first(f"worker pipe failed: {e}")
                return
            if not data:
                self._fail_first("worker closed its output stream")
                return
            self._quiet_since, self._heard = time.monotonic(), True
            start = len(self._partial)
            self._partial += data
            while (end := self._partial.find(b"\n", start)) >= 0:
                if self._slots:  # else a line nobody asked for: dropped
                    self._slots.popleft().reply = self._partial[:end]
                del self._partial[: end + 1]
                start = 0

    def _fail_first(self, error: str) -> None:
        """Fail the first unanswered request and kill the worker; the rest
        go again to a fresh worker."""
        self._slots.popleft().error = error
        self._drop()

    def _drop(self) -> None:
        """Kill the worker, close its pipes and reap it."""
        self._proc.kill()
        self._release()

    def close(self) -> None:
        """Let the worker exit on end of input (killed after 5 s, or at once
        while requests are outstanding), then close its pipes and reap it."""
        if self._proc is not None:
            if self._slots:
                self._proc.kill()  # nobody waits for those replies any more
            elif self._proc.poll() is None:
                try:
                    self._proc.stdin.close()
                except OSError:
                    pass
                try:
                    self._proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
            self._release()
        self._slots.clear()
        self._ahead.clear()
        self._unsent.clear()

    def _release(self) -> None:
        """Close the worker's pipes and reap it; the requests it left
        unanswered go again to the next worker, whole."""
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        self._proc.wait()
        self._proc = None
        self._unsent = bytearray(b"".join(slot.line for slot in self._slots))
        self._partial.clear()


class HttpJson:
    """POST a JSON object, read a JSON object back. Each request opens its
    own connection, so requests from several threads run in parallel."""

    def __init__(self, url: str, timeout: float = 60.0):
        self.url = url
        self.timeout = timeout

    def request(self, obj: dict) -> dict:
        req = urllib.request.Request(self.url, data=_wire_line(obj),
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = resp.read()
        except (OSError, http.client.HTTPException) as e:
            raise EndpointError(f"http request to {self.url} failed: {e}") from e
        return _json_object(payload, self.url)


class RemoteEndpoint:
    """Generator and solver behind a JSON request/response transport
    (`JsonLinesProcess` or `HttpJson`): builds the wire requests and
    validates the responses. A transport needs only `request(obj) -> dict`;
    this class alone looks for its optional `start`, `close` and `send_ahead`."""

    def __init__(self, transport: Any):
        self.transport = transport

    @staticmethod
    def _generate_request(exemplars: Sequence[Sample], count: int, seed: int) -> dict:
        return {
            "type": "generate",
            "exemplars": [s.to_json_dict() for s in exemplars],
            "count": count,
            "seed": seed,
        }

    @staticmethod
    def _solve_request(sample: Sample, n: int, seed: int) -> dict:
        return {"type": "solve", "problem": sample.input, "n": n, "seed": seed}

    def send_ahead(self, kind: str, jobs: Sequence[tuple[tuple, int]]) -> bool:
        """Queue the `kind` ("generate" or "solve") request of each
        (args, seed) job, when the transport takes requests ahead; whether
        it does."""
        send = getattr(self.transport, "send_ahead", None)
        if send is None:
            return False
        build = self._generate_request if kind == "generate" else self._solve_request
        send([build(*args, seed) for args, seed in jobs])
        return True

    def generate(self, exemplars: Sequence[Sample], count: int, seed: int) -> list[dict]:
        resp = self.transport.request(self._generate_request(exemplars, count, seed))
        samples = resp.get("samples")
        if not isinstance(samples, list):
            raise EndpointError("generator response missing 'samples' list")
        for rec in samples:
            if not isinstance(rec, dict) or "input" not in rec:
                raise EndpointError("generator sample record missing 'input'")
        return samples

    def solve(self, sample: Sample, n: int, seed: int) -> tuple[list[str], list[str]]:
        resp = self.transport.request(self._solve_request(sample, n, seed))
        answers = resp.get("answers")
        traces = resp.get("traces")
        if not isinstance(answers, list) or len(answers) != n:
            raise EndpointError(f"solver response needs {n} answers")
        if not isinstance(traces, list) or len(traces) != n:
            raise EndpointError(f"solver response needs {n} traces")
        return [str(a) for a in answers], [str(t) for t in traces]

    def start(self) -> None:
        """Start the transport's worker, if it has one, ahead of the first request."""
        getattr(self.transport, "start", lambda: None)()

    def close(self) -> None:
        getattr(self.transport, "close", lambda: None)()


# ---------------------------------------------------------------------------
# pipeline stages


_ATTEMPTS = 3  # tries per generate or solve request


def _request_all(endpoint, kind: str, jobs: list, max_workers: int) -> tuple[list, int]:
    """(results, failed) of endpoint.<kind>(*args, seed) per (args, seed)
    job. Try a of a job uses `seed`, then mix64(seed, a); a job whose
    _ATTEMPTS tries all raise EndpointError gives None and counts once in
    `failed`. When the endpoint takes requests ahead, every job's first try
    is queued before the jobs run, in order, on the calling thread; else
    they run on a pool of max_workers threads."""
    call = getattr(endpoint, kind)

    def run(job):
        args, seed = job
        for attempt in range(_ATTEMPTS):
            try:
                return call(*args, mix64(seed, attempt) if attempt else seed)
            except EndpointError:
                pass
        return None

    send_ahead = getattr(endpoint, "send_ahead", None)
    if send_ahead is not None and send_ahead(kind, jobs):
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as ex:
            results = list(ex.map(run, jobs))
    return results, sum(res is None for res in results)


def generate_candidates(
    generator: Generator,
    pool: Corpus,
    fewshot_count: int,
    batch: int,
    rng_seed: int,
    max_workers: int = 1,
) -> tuple[list[Sample], int]:
    """Draw few-shot exemplars and request one candidate per batch slot.

    Returns (candidates, failed_requests); a request fails when all its
    tries raise EndpointError (see `_request_all`). Each reply record is read
    like a JSONL record from its input, output and label alone, so candidates
    get fresh content-hash ids; anything content-identical to a pool member
    (or an earlier candidate in the same batch) is dropped.
    """
    if batch < 0:
        raise ValueError("batch must be >= 0")
    if fewshot_count < 1 or fewshot_count > len(pool):
        raise ValueError(f"fewshot_count must be in [1, {len(pool)}]")

    jobs = []
    for c in range(batch):
        rng = rng_from(rng_seed, 0x6E0, c)
        idx = rng.choice(len(pool), size=fewshot_count, replace=False)
        # the golden artifacts pin this first-try seed, mix64(slot seed, 0)
        jobs.append((([pool[int(i)] for i in idx], 1), mix64(mix64(rng_seed, 0x6E1, c), 0)))
    results, failures = _request_all(generator, "generate", jobs, max_workers)

    known = {s.content_id() for s in pool} | set(pool.ids())
    candidates: list[Sample] = []
    for res in results:
        for rec in res or ():
            rec = {k: v for k, v in rec.items() if k in ("input", "output", "label")}
            sample = Sample.from_json_dict(rec)
            if sample.id not in known:
                known.add(sample.id)
                candidates.append(sample)
    return candidates, failures


@dataclass(frozen=True)
class VerifiedCandidate:
    sample: Sample
    votes: tuple[str, ...]
    majority_answer: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "votes", tuple(self.votes))

    @property
    def majority_count(self) -> int:
        return self.votes.count(self.majority_answer)


def majority_vote_filter(
    solver: Solver,
    candidates: Sequence[Sample],
    vote_n: int,
    vote_tau: int,
    rng_seed: int,
    max_workers: int = 1,
) -> tuple[list[VerifiedCandidate], int]:
    """Keep candidates whose answer is reproduced by >= vote_tau of vote_n runs.

    A kept candidate's output is replaced by the first non-empty solver
    trace that yields the majority answer, and its content-hash id is
    refreshed to match; with no such trace the candidate is dropped. A
    candidate whose solver request fails all its tries (see
    `_request_all`) is dropped; the count of those is returned.
    """
    if not 1 <= vote_tau <= vote_n:
        raise ValueError("need 1 <= vote_tau <= vote_n")

    jobs = [((cand, vote_n), mix64(rng_seed, 0x50F, i)) for i, cand in enumerate(candidates)]
    results, failures = _request_all(solver, "solve", jobs, max_workers)

    verified: list[VerifiedCandidate] = []
    for cand, res in zip(candidates, results):
        if res is None:
            continue
        answers, traces = res
        majority, count = Counter(answers).most_common(1)[0]
        trace = next((t for a, t in zip(answers, traces) if a == majority and t), "")
        if count < vote_tau or not trace:
            continue
        # replace builds a new Sample from the fields, so no cached content id carries over
        sample = replace(cand, id=content_id(cand.input, trace, cand.label), output=trace)
        verified.append(VerifiedCandidate(sample, tuple(answers), majority))
    return verified, failures


def _ngram_windows(text: str, n: int) -> set[str]:
    toks = text.lower().split()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def decontaminate(
    candidates: Sequence[Sample],
    protected: Corpus,
    ngram: int = 10,
) -> tuple[list[Sample], list[Sample]]:
    """Split candidates into (kept, flagged) by exact n-gram overlap.

    A candidate is flagged iff its input shares any contiguous window of
    `ngram` case-folded word tokens with any protected input. All protected
    windows go into one set, so recall is exact.
    """
    if ngram < 1:
        raise ValueError("ngram must be >= 1")
    protected_windows: set[str] = set()
    for s in protected:
        protected_windows |= _ngram_windows(s.input, ngram)
    kept: list[Sample] = []
    flagged: list[Sample] = []
    for c in candidates:
        if protected_windows and _ngram_windows(c.input, ngram) & protected_windows:
            flagged.append(c)
        else:
            kept.append(c)
    return kept, flagged


# ---------------------------------------------------------------------------
# the loop


@dataclass(frozen=True)
class SynthesisConfig:
    iterations: int
    gen_batch: int
    vote_n: int = 3
    vote_tau: int = 2
    k_fraction: float = 0.01
    sparse_fraction: float | None = None  # None: keep the smallest floor(k/2) clusters
    fewshot_count: int = 5
    decontam_ngram: int = 10
    seed: int = 606
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.gen_batch < 0:
            raise ValueError("gen_batch must be >= 0")
        if not 1 <= self.vote_tau <= self.vote_n:
            raise ValueError("need 1 <= vote_tau <= vote_n")
        if not 0.0 < self.k_fraction < 1.0:
            raise ValueError("k_fraction must be in (0, 1)")
        if self.sparse_fraction is not None and not 0.0 < self.sparse_fraction <= 1.0:
            raise ValueError("sparse_fraction must be in (0, 1]")
        if self.fewshot_count < 1:
            raise ValueError("fewshot_count must be >= 1")
        if self.decontam_ngram < 1:
            raise ValueError("decontam_ngram must be >= 1")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")


@dataclass(frozen=True)
class SynthesisState:
    pool: Corpus
    pool_features: FeatureMatrix
    history: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "history", tuple(self.history))
        if tuple(self.pool.ids()) != self.pool_features.sample_ids:
            raise ValueError("pool and pool_features are not row-aligned")

    @property
    def iteration(self) -> int:
        """Steps applied so far: one history record each."""
        return len(self.history)


def prismatic_step(
    state: SynthesisState,
    config: SynthesisConfig,
    generator: Generator,
    solver: Solver,
    model: ProxyModel,
    proj: ProjectionSpec,
    protected: Corpus = Corpus(()),
) -> SynthesisState:
    """One cluster -> generate -> vote -> decontaminate -> sparse-filter pass.

    Survivors are featurized with `featurize(model, proj, ...)`, so the
    pool's rows must be rows that call writes: a state whose features carry
    another provenance or width fails before k-means and before any
    request. Cluster sizes are frozen at step start: a survivor is judged
    against the sparsity of its nearest centroid as it was before any
    admission, so admissions within a step cannot crowd each other out. The
    step's record ends with the grown pool's `vendi_score`.
    """
    _check_featurizer(state.pool_features.provenance, state.pool_features.dim, model, proj,
                      "state.pool_features")
    pool, features, record = _grow(state, config, generator, solver, model, proj, protected)
    record["pool_g_vendi"] = vendi_score(features)
    return SynthesisState(pool=pool, pool_features=features, history=state.history + (record,))


def _check_featurizer(provenance: Provenance, width: int, model: ProxyModel,
                      proj: ProjectionSpec, where: str) -> None:
    """Raise unless rows of `provenance` and `width` (named by `where`) are
    rows that `featurize(model, proj, ...)` writes."""
    made = gradient_provenance(model, proj)
    if (provenance, width) != (made, proj.target_dim):
        raise ValueError(f"{where}: rows written with {provenance} at width {width}, but this "
                         f"run featurizes with {made} at width {proj.target_dim}; use the "
                         "settings that wrote them, or delete and rerun")


# a step record's counts, which `_grow` returns; its score "pool_g_vendi" comes after
_RECORD_COUNTS = ("generated", "gen_failed", "vote_accepted", "solver_failed",
                  "decontam_flagged", "sparse_accepted")


def _grow(
    state: SynthesisState,
    config: SynthesisConfig,
    generator: Generator,
    solver: Solver,
    model: ProxyModel,
    proj: ProjectionSpec,
    protected: Corpus,
) -> tuple[Corpus, FeatureMatrix, dict]:
    """`prismatic_step` without its pool score: the grown pool, its features
    and the step's record, which lacks "pool_g_vendi"."""
    step_seed = mix64(config.seed, 0x57E, state.iteration)
    k = dynamic_k(len(state.pool), config.k_fraction)
    clusters = kmeans_fit(state.pool_features, k, seed=mix64(step_seed, 1))
    if config.sparse_fraction is None:
        sparse = sparse_clusters(clusters, count=k // 2)
    else:
        sparse = sparse_clusters(clusters, fraction=config.sparse_fraction)

    candidates, gen_failed = generate_candidates(
        generator,
        state.pool,
        config.fewshot_count,
        config.gen_batch,
        mix64(step_seed, 2),
        max_workers=config.max_workers,
    )
    verified, solver_failed = majority_vote_filter(
        solver,
        candidates,
        config.vote_n,
        config.vote_tau,
        mix64(step_seed, 3),
        max_workers=config.max_workers,
    )
    # a kept trace with a byte the model cannot read fails its vote, not the run
    verified = [v for v in verified if max(v.sample.output.encode("utf-8")) < model.vocab_size]
    survivors, flagged = decontaminate([v.sample for v in verified], protected,
                                       config.decontam_ngram)

    # trace replacement can re-collide ids; keep pool ids unique, and of equal
    # ids the first sample (a dict keeps the last value it is given)
    first = {s.id: s for s in reversed(survivors) if s.id not in state.pool}
    survivors = sorted(first.values(), key=lambda s: s.id)

    accepted: list[Sample] = []
    new_pool, new_features = state.pool, state.pool_features
    if survivors:
        cand_corpus = Corpus(tuple(survivors), name=state.pool.name)
        cand_feats = featurize(model, proj, cand_corpus)
        nearest = clusters.nearest_centroid(cand_feats.data)
        keep = [i for i, c in enumerate(nearest) if int(c) in sparse]
        if keep:
            accepted = [survivors[i] for i in keep]
            new_pool = Corpus(state.pool.samples + tuple(accepted), name=state.pool.name)
            rows = np.concatenate([state.pool_features.data, cand_feats.data[keep]])
            new_features = FeatureMatrix(rows, new_pool.ids(), state.pool_features.provenance)

    counts = (len(candidates), gen_failed, len(verified), solver_failed, len(flagged),
              len(accepted))
    return new_pool, new_features, dict(zip(_RECORD_COUNTS, counts))


# checkpoint file names
POOL_FILE = "pool.jsonl"
FEATURES_FILE = "features.gvfm"
STATE_FILE = "state.json"


def _ids_sha256(ids: Sequence[str]) -> str:
    return hashlib.sha256(json.dumps(list(ids)).encode("ascii")).hexdigest()


def save_checkpoint(state: SynthesisState, directory) -> None:
    """Commit `state` to `directory`: `pool.jsonl`, then `state.json`, which
    names the committed rows (their count and the sha256 of their ids), the
    history and the featurizer of the pool's rows. No feature row is saved."""
    os.makedirs(directory, exist_ok=True)
    write_jsonl(state.pool, os.path.join(directory, POOL_FILE))
    with open_atomic(os.path.join(directory, STATE_FILE)) as fh:
        json.dump({"iteration": state.iteration, "history": list(state.history),
                   "pool_size": len(state.pool), "pool_name": state.pool.name,
                   "pool_ids_sha256": _ids_sha256(state.pool.ids()),
                   **asdict(state.pool_features.provenance), "width": state.pool_features.dim},
                  fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(directory, model: ProxyModel, proj: ProjectionSpec) -> SynthesisState | None:
    """The state that a checkpoint directory commits (see `_committed`), its
    pool featurized with `featurize(model, proj, ...)`; None if there is none."""
    pool, history = _committed(directory, model, proj) or (None, ())
    return None if pool is None else SynthesisState(pool, featurize(model, proj, pool), history)


def _committed(directory, model: ProxyModel, proj: ProjectionSpec) -> tuple | None:
    """(pool, history) that `state.json` in `directory` commits, or None if
    there is none. Rows featurized otherwise than `featurize(model, proj,
    ...)` are refused before `pool.jsonl` is read, and so is a `pool.jsonl`
    that does not begin with the committed rows; rows after them, from a
    step that a crash kept from committing, are left out."""
    state_path = os.path.join(directory, STATE_FILE)
    if not os.path.exists(state_path):
        return None
    meta = load_json(state_path)
    if not (isinstance(meta, dict) and isinstance(meta.get("history"), list)
            and all(type(meta.get(key)) is int for key in ("iteration", "pool_size", "width"))
            and all(isinstance(meta.get(key), str) for key in ("pool_name", "pool_ids_sha256"))
            and meta["pool_size"] >= 0 and meta.get("featurizer") in FEATURIZERS):
        raise ValueError(f"{state_path}: expected an object with a list 'history'; ints "
                         "'iteration', 'pool_size' and 'width'; strings 'pool_name' and "
                         "'pool_ids_sha256'; and a featurizer name 'featurizer'")
    if len(meta["history"]) != meta["iteration"]:
        raise ValueError(f"{state_path}: history has {len(meta['history'])} entries, "
                         f"iteration is {meta['iteration']}")
    for i, record in enumerate(meta["history"], start=1):
        if not (isinstance(record, dict)
                and all(type(record.get(key)) is int for key in _RECORD_COUNTS)
                and type(record.get("pool_g_vendi")) in (int, float)
                and math.isfinite(record["pool_g_vendi"])):
            raise ValueError(f"{state_path}: history entry {i}: expected an object with "
                             f"ints {', '.join(map(repr, _RECORD_COUNTS))} and a finite "
                             "number 'pool_g_vendi'")
    _check_featurizer(Provenance(meta["featurizer"], meta.get("fingerprint"), meta.get("seed")),
                      meta["width"], model, proj, state_path)
    n = meta["pool_size"]
    pool = ingest_jsonl(os.path.join(directory, POOL_FILE))
    if len(pool) < n:
        raise ValueError(f"{directory}: {POOL_FILE} holds {len(pool)} rows, fewer than the {n} "
                         f"that {STATE_FILE} commits; delete and rerun")
    if _ids_sha256(pool.ids()[:n]) != meta["pool_ids_sha256"]:
        raise ValueError(f"{directory}: {POOL_FILE} does not begin with the committed rows; "
                         "delete and rerun")
    return Corpus(pool.samples[:n], name=meta["pool_name"]), tuple(meta["history"])


def run_synthesis(
    seed_corpus: Corpus,
    config: SynthesisConfig,
    generator: Generator,
    solver: Solver,
    model: ProxyModel,
    proj: ProjectionSpec,
    protected: Corpus = Corpus(()),
    checkpoint_dir=None,
) -> SynthesisState:
    """Featurize the seed pool and grow it for `iterations` steps, to the
    state that applying prismatic_step that many times gives.

    With a checkpoint_dir, the pool and history are committed before the
    first step and after every step, and a rerun resumes from the last
    commit; seeds derive from (config.seed, iteration), so it reproduces an
    uninterrupted run exactly, also after a kill between two checkpoint
    files. The features go to `features.gvfm` once, when the run returns.
    A checkpoint that `_committed` refuses (rows of another featurizer or
    width, say), or a `fewshot_count` larger than the pool while a step
    remains to run, fails before any endpoint is started. Each endpoint
    with a `start` method is then started, so a worker's start-up overlaps
    the featurize of the seed corpus or of the committed pool. Once the run
    returns or raises, each endpoint with a `close` method is closed, after
    the score in flight is settled.

    A step's pool score is computed on a background thread while the next
    step grows the pool; the step is checkpointed once its score is in, so
    at most one score is in flight and a kill costs at most the last two
    steps. The Gram is built on the calling thread between steps, so its
    float64 copy of the pool is never held beside the next step's k-means,
    which would raise the run's peak memory. Like the spectrum, it runs on
    one BLAS thread, so neither's bits depend on the thread count.
    When anything raises, the score in flight is awaited and, if it
    succeeded, its step checkpointed first.
    """
    committed = _committed(checkpoint_dir, model, proj) if checkpoint_dir is not None else None
    pool, history = committed or (seed_corpus, ())
    if len(history) < config.iterations and config.fewshot_count > len(pool):
        # the pool only grows, so no later step can fail this check
        raise ValueError(f"fewshot_count must be in [1, {len(pool)}]")
    with contextlib.ExitStack() as endpoints:
        for endpoint in (generator, solver):
            close = getattr(endpoint, "close", None)
            if close:
                endpoints.callback(close)
            start = getattr(endpoint, "start", None)
            if start:
                start()
        state = SynthesisState(pool, featurize(model, proj, pool), history)
        if checkpoint_dir is not None:
            save_checkpoint(state, checkpoint_dir)
        pending = None  # (state whose last record awaits its score, the score's future)

        def settle():
            # pending is cleared before the save, so a failed save is not retried
            # on the way out, and no name keeps the previous pool's features alive
            nonlocal state, pending
            (grown, score), pending = pending, None
            record = {**grown.history[-1], "pool_g_vendi": score.result()}
            state = SynthesisState(grown.pool, grown.pool_features,
                                   grown.history[:-1] + (record,))
            if checkpoint_dir is not None:
                save_checkpoint(state, checkpoint_dir)

        with ThreadPoolExecutor(max_workers=1) as spectra:
            try:
                while state.iteration < config.iterations:
                    pool, features, record = _grow(state, config, generator, solver, model,
                                                   proj, protected)
                    if pending is not None:
                        settle()
                    state = SynthesisState(pool, features, state.history + (record,))
                    pending = state, spectra.submit(_gram_vendi, _features_gram(features))
                if pending is not None:
                    settle()
            except BaseException:
                if pending is not None and pending[1].exception() is None:
                    settle()
                raise
    if checkpoint_dir is not None:
        store_features(state.pool_features, os.path.join(checkpoint_dir, FEATURES_FILE))
    return state

