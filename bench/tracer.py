"""Layer tracing from outside the program.

`Tracer.install()` replaces the module-level names through which gvendi calls
each layer (every binding of the function object across the loaded `gvendi.*`
modules, or the class attribute for a method) with wrappers, and
`uninstall()` puts the originals back. Nothing under `src/` is changed.

In "time" mode each wrapped call records a span (layer, start, end, parent)
in memory. Spans nest on a per-thread stack; a thread's outermost span takes
as parent the innermost open span of the main thread, which is where
gvendi's request thread pools are started and joined. In "memory" mode
the wrappers only count calls, and the layers in MEMORY_LAYERS record their
peak `tracemalloc` growth, so allocation tracking never distorts layer times.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass

# (module, attribute), traced as "<module>.<attribute>", each with its
# .calls, .s (inclusive) and .self_s. The end-to-end metric each should move:
#   proxy.featurize, .loss_gradient, .project   score rows_per_s, peak_rss_mb
#                                                (grow rows_per_s, less)
#   proxy.sign_block                             grow rows_per_s (one sign
#                                                matrix per small batch);
#                                                barely score
#   proxy.embed_hashed_tfidf,
#   metrics.embedding_vendi, .vendi_score        select rows_per_s, peak_rss_mb;
#                                                vendi_score also grow
#   cluster.kmeans_fit                           select rows_per_s, then grow
#   sampling.*  (self_s excludes k-means)        select rows_per_s
#   synthesis.* and JsonLinesProcess.request     grow rows_per_s
#   featmat.load_features / store_features       select (reads) / grow (writes)
#   corpus.ingest_jsonl, .write_jsonl            grow (pool rewrite per step),
#                                                select (re-ingests)
#   cli.main  (self_s: argument parsing, glue)   all three
LAYERS = (
    ("cli", "main"),
    ("proxy", "featurize"),
    ("proxy", "loss_gradient"),
    ("proxy", "project"),
    ("proxy", "sign_block"),
    ("proxy", "embed_hashed_tfidf"),
    ("metrics", "embedding_vendi"),
    ("metrics", "vendi_score"),
    ("cluster", "kmeans_fit"),
    ("sampling", "sample_higher_diversity"),
    ("sampling", "sample_lower_diversity"),
    ("sampling", "sample_random"),
    ("sampling", "sample_mixture"),
    ("synthesis", "prismatic_step"),
    ("synthesis", "generate_candidates"),
    ("synthesis", "majority_vote_filter"),
    ("synthesis", "decontaminate"),
    ("synthesis", "save_checkpoint"),
    ("synthesis", "JsonLinesProcess.request"),
    ("featmat", "store_features"),
    ("featmat", "load_features"),
    ("corpus", "ingest_jsonl"),
    ("corpus", "write_jsonl"),
)
MEMORY_LAYERS = ("proxy.featurize", "proxy.embed_hashed_tfidf", "cluster.kmeans_fit",
                 "featmat.load_features")
FAILED_LAYERS = ("synthesis.JsonLinesProcess.request",)
# layer -> index of the positional argument naming the file it reads or writes
BYTES_LAYERS = {"featmat.store_features": 1, "featmat.load_features": 0}


def layer_names() -> list[str]:
    return [f"{m}.{a}" for m, a in LAYERS]


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    failed: bool = False
    nbytes: int = 0


@dataclass
class _MemFrame:
    base: int
    peak: int = 0


class Tracer:
    def __init__(self, mode: str) -> None:
        if mode not in ("time", "memory"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.spans: list[Span] = []  # time mode
        self.calls: dict[str, int] = {}  # memory mode
        self.peak_bytes: dict[str, int] = {}  # memory mode
        self.missing: list[str] = []  # layers this gvendi does not have
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._mem_stack: list[_MemFrame] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr in LAYERS:
            name = f"{module}.{attr}"
            mod = importlib.import_module(f"gvendi.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name, None)
                orig = None if owner is None else owner.__dict__.get(meth)
                if orig is None:
                    self.missing.append(name)
                    continue
                self._replace(owner, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            for mname, m in list(sys.modules.items()):
                if mname == "gvendi" or mname.startswith("gvendi."):
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._replace(m, key, wrapped)
        if self.mode == "memory":
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.mode == "memory":
            tracemalloc.stop()
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _replace(self, owner, key: str, new) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def _wrap(self, name: str, fn):
        if self.mode == "memory":
            return self._wrap_memory(name, fn)
        path_arg = BYTES_LAYERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._outer_parent()
            span = Span(name, time.perf_counter(), parent)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if path_arg is not None and len(args) > path_arg:
                    try:
                        span.nbytes = os.path.getsize(args[path_arg])
                    except OSError:
                        pass
                self.spans.append(span)

        return traced

    def _wrap_memory(self, name: str, fn):
        tracked = name in MEMORY_LAYERS

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
            if not tracked:
                return fn(*args, **kwargs)
            # tracked layers run on the main thread; nested ones hand their
            # peak to the enclosing frame before the peak counter is reset
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                self._mem_stack[-1].peak = max(self._mem_stack[-1].peak, peak)
            tracemalloc.reset_peak()
            frame = _MemFrame(current)
            self._mem_stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                self._mem_stack.pop()
                if self._mem_stack:
                    self._mem_stack[-1].peak = max(self._mem_stack[-1].peak, peak)
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak - frame.base)

        return counted

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _outer_parent(self) -> Span | None:
        if threading.current_thread() is threading.main_thread():
            return None
        main = self._main_stack
        return main[-1] if main else None

    # -- summary ------------------------------------------------------------

    def summary(self) -> tuple[dict[str, dict[str, float]], list[str]]:
        """Per-layer calls, s, self_s, failed, bytes; and any nesting errors."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "bytes": 0}
                 for n in layer_names()}
        errors: list[str] = []
        for s in self.spans:
            kids = children.get(id(s), [])
            for k in kids:
                if k.start < s.start or k.end > s.end:
                    errors.append(f"{k.name} is not inside its parent {s.name}")
            self_s = (s.end - s.start) - _covered(kids)
            if self_s < -1e-9:
                errors.append(f"{s.name} has self time {self_s:.3g} s < 0")
            st = stats[s.name]
            st["calls"] += 1
            st["s"] += s.end - s.start
            st["self_s"] += self_s
            st["failed"] += int(s.failed)
            st["bytes"] += s.nbytes
        for s in self.spans:
            if s.parent is None and s.name != "cli.main":
                errors.append(f"{s.name} ran outside cli.main")
        return stats, errors


def _covered(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals (children may overlap
    when they run on different threads)."""
    total, cur_start, cur_end = 0.0, None, None
    for s in sorted(spans, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
