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

Store-then-load is a bitwise identity on data and metadata.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import open_atomic

MAGIC = b"GVFM"
VERSION = 1

FEATURIZERS = ("proxy_gradient", "embedding", "external")
_HEADER = struct.Struct("<4sIQIBQQ")

UNIT_NORM_TOL = 1e-5


@dataclass(frozen=True)
class Provenance:
    featurizer: str
    fingerprint: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.featurizer not in FEATURIZERS:
            raise ValueError(f"unknown featurizer {self.featurizer!r}")


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
        ids = tuple(self.sample_ids)
        if len(ids) != arr.shape[0]:
            raise ValueError(f"{len(ids)} ids for {arr.shape[0]} rows")
        if len(set(ids)) != len(ids):
            raise ValueError("sample ids must be unique")
        # float32 squares neither overflow nor underflow in float64, so a row's
        # sum is non-finite iff an entry is, and zero iff every entry is zero
        norms = np.sqrt(np.einsum("ij,ij->i", arr, arr, dtype=np.float64))
        if not np.all(np.isfinite(norms)):
            raise ValueError("feature data contains non-finite values")
        zero = norms == 0.0
        bad = ~zero & (np.abs(norms - 1.0) > UNIT_NORM_TOL)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"row {i} has norm {norms[i]:.6g}; rows must be unit-norm or exactly zero"
            )
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

    def append(self, other: "FeatureMatrix") -> "FeatureMatrix":
        """Row-wise concatenation; provenance must match."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if other.provenance != self.provenance:
            raise ValueError("cannot append matrices with differing provenance")
        return FeatureMatrix(
            np.vstack([self.data, other.data]),
            self.sample_ids + other.sample_ids,
            self.provenance,
        )


def store_features(features: FeatureMatrix, path) -> None:
    """Write the binary feature-matrix format described in the module docs,
    atomically (`corpus.open_atomic`)."""
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        features.rows,
        features.dim,
        FEATURIZERS.index(features.provenance.featurizer),
        features.provenance.fingerprint & 0xFFFFFFFFFFFFFFFF,
        features.provenance.seed & 0xFFFFFFFFFFFFFFFF,
    )
    with open_atomic(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(features.data, dtype="<f4"))
        for sid in features.sample_ids:
            raw = sid.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


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

    def chunk(length: int) -> bytes:
        nonlocal end
        end += length
        if size < end:
            raise ValueError(f"truncated id table: expected at least {end} bytes, got {size}")
        return fh.read(length)

    ids = tuple(chunk(struct.unpack("<I", chunk(4))[0]).decode("utf-8") for _ in range(n))
    if size > end:
        raise ValueError(f"{size - end} trailing bytes after the id table")
    return FeatureMatrix(data, ids, Provenance(FEATURIZERS[feat_code], fingerprint=fp, seed=seed))
