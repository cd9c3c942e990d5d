"""Feature matrices: unit-norm row vectors with provenance, plus binary I/O.

File layout (all little-endian, no padding):

    magic   b"GVFM"
    u32     version (currently 1)
    u64     n rows
    u32     d columns
    u8      featurizer enum (0 proxy_gradient, 1 embedding, 2 external)
    u64 x2  provenance seed pair (featurizer fingerprint, projection/hash seed)
    f32     n*d row-major data
    n times (u32 byte length, utf-8 bytes) sample-id table

Store-then-load is a bitwise identity on data and metadata. A
`FeatureStream` writes the rows a block at a time as they are computed,
so a featurizer's output need not be held whole to be stored.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import open_atomic

MAGIC = b"GVFM"
VERSION = 1

FEATURIZERS = ("proxy_gradient", "embedding", "external")
_HEADER = struct.Struct("<4sIQIBQQ")
_LENGTH = struct.Struct("<I")  # an id's byte length, before its utf-8 bytes

UNIT_NORM_TOL = 1e-5


@dataclass(frozen=True)
class Provenance:
    featurizer: str
    fingerprint: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.featurizer not in FEATURIZERS:
            raise ValueError(f"unknown featurizer {self.featurizer!r}")


def _unique(sample_ids) -> tuple[str, ...]:
    ids = tuple(sample_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("sample ids must be unique")
    return ids


def _check_rows(rows: np.ndarray, first: int = 0) -> np.ndarray:
    """The exactly-zero mask of 2-D float32 rows, each of which must be
    finite and unit-norm or exactly zero; an error names a row by its index
    plus `first`, the index of rows[0] in the whole matrix."""
    # float32 squares neither overflow nor underflow in float64, so a row's
    # sum is non-finite iff an entry is, and zero iff every entry is zero
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    if not np.all(np.isfinite(norms)):
        raise ValueError("feature data contains non-finite values")
    zero = norms == 0.0
    bad = ~zero & (np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"row {first + i} has norm {norms[i]:.6g}; rows must be unit-norm or exactly zero"
        )
    return zero


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d float32 matrix of unit-norm (or exactly-zero) rows. A float32
    array passed in is kept without a copy and marked read-only."""

    data: np.ndarray
    sample_ids: tuple[str, ...]
    provenance: Provenance
    _degenerate: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"feature data must be 2-D, got shape {arr.shape}")
        ids = _unique(self.sample_ids)
        if len(ids) != arr.shape[0]:
            raise ValueError(f"{len(ids)} ids for {arr.shape[0]} rows")
        zero = _check_rows(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "_degenerate", zero)

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])

    def degenerate_mask(self) -> np.ndarray:
        """Boolean mask of exactly-zero (degenerate) rows."""
        return self._degenerate.copy()

    def take(self, indices) -> "FeatureMatrix":
        """Rows at the given integer indices, in order, as a new matrix."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"row indices must be integers, got {idx.dtype}")
        idx = idx.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.rows):
            raise IndexError(f"row index out of range for matrix of {self.rows} rows")
        ids = tuple(self.sample_ids[int(i)] for i in idx)
        return FeatureMatrix(self.data[idx], ids, self.provenance)


@dataclass(frozen=True)
class FeatureStream:
    """A feature matrix whose rows arrive in blocks.

    Its ids, width and provenance are known up front; `blocks(emit)` calls
    `emit` with each block of rows, 2-D and float32, in row order,
    len(sample_ids) rows in all. A block belongs to the consumer: no
    producer writes into its memory again, so rows may be kept as handed.
    `store` writes each block to the file as it comes and `collect` copies
    them into a FeatureMatrix: one holds a block at a time, the other the
    whole matrix. Both check every row as a FeatureMatrix does.
    """

    sample_ids: tuple[str, ...]
    dim: int
    provenance: Provenance
    blocks: Callable[[Callable[[np.ndarray], None]], None] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_ids", _unique(self.sample_ids))

    @property
    def rows(self) -> int:
        return len(self.sample_ids)

    def _feed(self, take: Callable[[np.ndarray, int], None]) -> None:
        """Run `blocks`, handing `take` each block and the index of its first row."""
        filled = 0

        def emit(block: np.ndarray) -> None:
            nonlocal filled
            block = np.asarray(block, dtype=np.float32)
            if block.ndim != 2 or block.shape[1] != self.dim or filled + len(block) > self.rows:
                raise ValueError(
                    f"a block of shape {block.shape} after {filled} rows does not fit "
                    f"{self.rows} x {self.dim} features"
                )
            take(block, filled)
            filled += len(block)

        self.blocks(emit)
        if filled != self.rows:
            raise ValueError(f"{filled} rows streamed for {self.rows} ids")

    def collect(self) -> FeatureMatrix:
        data = np.empty((self.rows, self.dim), dtype=np.float32)

        def take(block: np.ndarray, first: int) -> None:
            data[first : first + len(block)] = block

        self._feed(take)
        return FeatureMatrix(data, self.sample_ids, self.provenance)

    def store(self, path) -> None:
        """Write the binary feature-matrix format described in the module
        docs, a block at a time, atomically (`corpus.open_atomic`): a regular
        file keeps its old bytes when a block fails, while a special file
        (/dev/stdout, a FIFO) has received the blocks before it."""
        header = _HEADER.pack(
            MAGIC,
            VERSION,
            self.rows,
            self.dim,
            FEATURIZERS.index(self.provenance.featurizer),
            self.provenance.fingerprint & 0xFFFFFFFFFFFFFFFF,
            self.provenance.seed & 0xFFFFFFFFFFFFFFFF,
        )
        with open_atomic(path, "wb") as fh:
            fh.write(header)

            def take(block: np.ndarray, first: int) -> None:
                _check_rows(block, first)
                fh.write(np.ascontiguousarray(block, dtype="<f4"))

            self._feed(take)
            raw = [sid.encode("utf-8") for sid in self.sample_ids]
            fh.write(b"".join(_LENGTH.pack(len(r)) + r for r in raw))


def store_features(features: FeatureMatrix, path) -> None:
    """Write the binary feature-matrix format described in the module docs,
    atomically: `FeatureStream.store` fed the matrix as one block."""
    FeatureStream(features.sample_ids, features.dim, features.provenance,
                  lambda emit: emit(features.data)).store(path)


def load_features(path) -> FeatureMatrix:
    """Exact inverse of store_features; any defect is a ValueError naming the path."""
    with open(path, "rb") as fh:
        try:
            return _read_features(fh)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


def _read_features(fh) -> FeatureMatrix:
    size = fh.seek(0, os.SEEK_END)  # bounds every allocation and read below
    fh.seek(0)
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise ValueError("not a feature matrix file")
    _, version, n, d, feat_code, fp, seed = _HEADER.unpack(head)
    if version != VERSION:
        raise ValueError(f"unsupported feature file version {version}")
    if feat_code >= len(FEATURIZERS):
        raise ValueError(f"unknown featurizer code {feat_code}")
    end = _HEADER.size + n * d * 4
    if size < end:
        raise ValueError(f"truncated feature file: expected at least {end} bytes, got {size}")
    data = np.fromfile(fh, dtype="<f4", count=n * d).reshape(n, d)
    table = fh.read(size - end)  # the id table and any bytes after it, in one read
    base, pos, ids = end, 0, []
    for _ in range(n):
        start = pos + 4
        if start > len(table):
            raise ValueError(f"truncated id table: expected at least {base + start} bytes, "
                             f"got {size}")
        pos = start + _LENGTH.unpack_from(table, pos)[0]
        if pos > len(table):
            raise ValueError(f"truncated id table: expected at least {base + pos} bytes, got {size}")
        ids.append(table[start:pos].decode("utf-8"))
    end = base + pos
    if size > end:
        raise ValueError(f"{size - end} trailing bytes after the id table")
    return FeatureMatrix(data, ids, Provenance(FEATURIZERS[feat_code], fingerprint=fp, seed=seed))
