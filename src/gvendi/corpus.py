"""Dataset model and JSONL persistence.

A Corpus is an ordered, immutable collection of Samples with unique ids.
Iteration order is insertion order; downstream feature matrices rely on the
row-index <-> sample-id alignment this guarantees.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import IO, Iterator, Sequence, TextIO

import numpy as np

_FIELD_ORDER = ("id", "input", "output", "label", "tags", "split")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # how UTF-8 text can hold a surrogate


def content_id(input_text: str, output_text: str, label: str | None = None) -> str:
    """Stable sample identity: hex sha256 over (input, output, label)."""
    payload = json.dumps([input_text, output_text, label], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Sample:
    """One datapoint: an (input, output) text pair plus optional metadata."""

    id: str
    input: str
    output: str = ""
    label: str | None = None
    tags: tuple[str, ...] | None = None
    split: str | None = None
    extra: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be non-empty")
        if not isinstance(self.input, str) or not isinstance(self.output, str):
            raise ValueError(f"sample {self.id!r}: input and output must be strings")
        if self.tags is not None:
            object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        object.__setattr__(self, "extra", tuple(self.extra))

    def content_id(self) -> str:
        """`content_id` of the sample's fields, hashed on the first call and
        kept, since the fields never change."""
        try:
            return self.__dict__["_content_id"]
        except KeyError:
            cid = content_id(self.input, self.output, self.label)
            object.__setattr__(self, "_content_id", cid)
            return cid

    def to_json_dict(self) -> dict:
        d: dict = {"id": self.id, "input": self.input, "output": self.output}
        if self.label is not None:
            d["label"] = self.label
        if self.tags is not None:
            d["tags"] = list(self.tags)
        if self.split is not None:
            d["split"] = self.split
        for k, v in sorted(self.extra):
            d[k] = v
        return d

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Sample":
        if "input" not in obj:
            raise ValueError("record is missing required field 'input'")
        known = {k: obj.get(k) for k in _FIELD_ORDER}
        extra = tuple(sorted((k, v) for k, v in obj.items() if k not in _FIELD_ORDER))
        sid = known["id"]
        input_text = "" if known["input"] is None else str(known["input"])
        output_text = "" if known["output"] is None else str(known["output"])
        label = None if known["label"] is None else str(known["label"])
        if sid is None:
            sid = content_id(input_text, output_text, label)
        tags = known["tags"]
        if tags is not None:
            if not isinstance(tags, list):
                raise ValueError(f"'tags' must be an array or null, got {type(tags).__name__}")
            tags = tuple(str(t) for t in tags)
        return cls(
            id=str(sid),
            input=input_text,
            output=output_text,
            label=label,
            tags=tags,
            split=None if known["split"] is None else str(known["split"]),
            extra=extra,
        )


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable sample collection with unique ids."""

    samples: tuple[Sample, ...]
    name: str = ""
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        index: dict[str, int] = {}
        for i, s in enumerate(self.samples):
            if s.id in index:
                raise ValueError(f"duplicate sample id {s.id!r}")
            index[s.id] = i
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    def ids(self) -> list[str]:
        return [s.id for s in self.samples]

    def by_id(self, sample_id: str) -> Sample:
        try:
            return self.samples[self._index[sample_id]]
        except KeyError:
            raise KeyError(f"unknown sample id {sample_id!r}") from None

    def __contains__(self, sample_id: str) -> bool:
        return sample_id in self._index

    def subset(self, selection: Sequence[int] | Sequence[str]) -> "Corpus":
        """New Corpus with the selected samples, in selection order.

        `selection` is either row indices or sample ids; duplicates are
        rejected because they would break id uniqueness.
        """
        picked: list[Sample] = []
        seen: set[str] = set()
        for item in selection:
            if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
                if not 0 <= item < len(self.samples):
                    raise IndexError(f"index {int(item)} out of range for corpus of {len(self)}")
                s = self.samples[int(item)]
            elif isinstance(item, str):
                s = self.by_id(item)
            else:
                raise TypeError(f"selection items must be int or str, got {type(item).__name__}")
            if s.id in seen:
                raise ValueError(f"selection repeats sample {s.id!r}")
            seen.add(s.id)
            picked.append(s)
        return Corpus(tuple(picked), name=self.name)


@contextmanager
def open_text(path, newline: str | None = None) -> Iterator[TextIO]:
    """`path` read as UTF-8 text, a leading byte order mark ignored; a byte
    that is not UTF-8 is a ValueError naming the file."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 ({e.reason}: 0x{e.object[e.start]:02x})") from None


def load_json(path):
    """The JSON document in `path` (`open_text`); one that is not JSON is a
    ValueError naming the file."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
            raise ValueError(f"{path}: not JSON: {e}") from None


@contextmanager
def open_atomic(path, mode: str = "w") -> Iterator[IO]:
    """A new file ("w", UTF-8, or "wb") that replaces `path` when the block
    ends without error. It is written under a hidden temporary name in the
    directory of the file `path` resolves to, given that file's permission
    bits, and renamed over it, so `path` is never half written (a symlink
    keeps pointing at it); on an error it is removed and `path` keeps its old
    bytes. A path under /dev or /proc (/dev/stdout, /dev/fd/N) or one that
    is not a regular file (a FIFO) is opened and written in place."""
    encoding = None if "b" in mode else "utf-8"
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if (st is not None and not stat.S_ISREG(st.st_mode)) or os.path.abspath(path).startswith(
        ("/dev/", "/proc/")
    ):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    head, tail = os.path.split(os.path.realpath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, os.path.join(head, tail))
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def ingest_jsonl(path) -> Corpus:
    """Read a JSONL file into a Corpus, preserving line order.

    Records without an `id`, or with a null one, get a content-hash id; a
    no-id record that reads as the same Sample as an earlier no-id one is
    dropped, keeping the first. Duplicate explicit ids, id collisions
    between differing records, and text that cannot be encoded as UTF-8 (a
    lone surrogate escape) are errors.
    """
    samples: list[Sample] = []
    index: dict[str, int] = {}  # id -> position in samples
    generated: set[str] = set()  # ids hashed from a record's content
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:
                msg = getattr(e, "msg", "nested too deeply")
                raise ValueError(f"{path}: malformed JSON on line {lineno}: {msg}") from e
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno} is not a JSON object")
            try:
                if _SURROGATE_ESCAPE.search(line):  # a lone one raises UnicodeEncodeError
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                s = Sample.from_json_dict(obj)
            except ValueError as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from e
            auto = obj.get("id") is None
            if s.id in index:
                if auto and s.id in generated and samples[index[s.id]] == s:
                    continue  # an id-less record read as the same Sample: keep the first
                raise ValueError(f"{path}: line {lineno}: duplicate sample id {s.id!r}")
            index[s.id] = len(samples)
            if auto:
                generated.add(s.id)
            samples.append(s)
    return Corpus(tuple(samples), name=os.path.basename(str(path)))


def write_jsonl(corpus: Corpus, path) -> None:
    """Write one JSON object per line, atomically (`open_atomic`);
    round-trips through ingest_jsonl."""
    with open_atomic(path) as fh:
        for s in corpus:
            fh.write(json.dumps(s.to_json_dict(), ensure_ascii=False))
            fh.write("\n")
