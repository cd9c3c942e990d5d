"""Relative-performance aggregation and diversity/performance correlation.

A model's aggregate score is its accuracy averaged over benchmarks *relative
to a reference model*, which keeps a 3-point gain on a hard benchmark from
being drowned out by easy ones. Correlations between a diversity measure and
these scores are summarized by Spearman's rank correlation plus the better
R^2 of a linear and a log-linear least-squares fit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .corpus import open_text


@dataclass(frozen=True)
class AccuracyTable:
    benchmarks: tuple[str, ...]
    models: tuple[str, ...]
    acc: np.ndarray  # (models, benchmarks) in [0, 1]
    reference_model: str

    def __post_init__(self) -> None:
        a = np.asarray(self.acc, dtype=np.float64)
        if a.shape != (len(self.models), len(self.benchmarks)):
            raise ValueError(f"accuracy shape {a.shape} does not match labels")
        if not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() > 1.0:
            raise ValueError("accuracies must be finite and in [0, 1]")
        if self.reference_model not in self.models:
            raise ValueError(f"reference model {self.reference_model!r} not in table")
        if np.any(a[self.models.index(self.reference_model)] <= 0.0):
            raise ValueError("reference model must have accuracy > 0 on every benchmark")
        a.flags.writeable = False
        object.__setattr__(self, "acc", a)
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "models", tuple(self.models))

    @classmethod
    def from_csv(cls, path, reference_model: str) -> "AccuracyTable":
        """CSV with header `model,<benchmark>,...`, one row per model (`_read_model_csv`)."""
        benchmarks, models, acc = _read_model_csv(path, "accuracy")
        try:
            return cls(benchmarks, models, acc, reference_model)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _read_model_csv(path, value: str,
                    known: Sequence[str] | None = None) -> tuple[tuple, tuple, np.ndarray]:
    """Column names, models and (models, columns) values of a CSV table with
    header `model,<column>,...` (`model,<column>` and only `known` models if
    given), one row per model. Blank rows are skipped; a row not as wide as
    the header, a repeated or unknown model and a non-numeric or non-finite
    `value` are errors naming the file and the line the row ends on (a quoted
    field may span lines)."""
    shape = "model,<column>,..." if known is None else "model,<column>"
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)  # None: an empty file, refused as a table without rows
        if header is not None and (len(header) < 2 or header[0].strip() != "model"
                                   or known is not None and len(header) != 2):
            raise ValueError(f"{path}: line {reader.line_num}: header must be '{shape}'")
        models, rows = [], []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where} has {len(row)} fields, expected {len(header)}")
            model = row[0].strip()
            if model in models:
                raise ValueError(f"{where}: duplicate model {model!r}")
            if known is not None and model not in known:
                raise ValueError(f"{where}: model {model!r} is not in the accuracy table")
            models.append(model)
            try:
                rows.append([float(c) for c in row[1:]])
            except ValueError:
                raise ValueError(f"{where}: non-numeric {value}") from None
            for c, v in zip(row[1:], rows[-1]):
                if not np.isfinite(v):
                    raise ValueError(f"{where}: {value} {c.strip()!r} is not finite")
    if not models:
        raise ValueError(f"{path}: empty {value} table")
    return tuple(h.strip() for h in header[1:]), tuple(models), np.array(rows)


def paired_perf(table: AccuracyTable, path) -> list[tuple[float, float, str]]:
    """(diversity, relative perf, model) in `table`'s model order, for each
    row of the diversity CSV `path` (`model,<diversity>`, `_read_model_csv`).
    An accuracy model without a diversity row (the reference, often) is left
    out; fewer than 3 pairs, too few to correlate, is an error."""
    _, models, values = _read_model_csv(path, "diversity", known=table.models)
    div = dict(zip(models, values[:, 0].tolist()))
    pairs = [(div[m], relative_perf(table, m), m) for m in table.models if m in div]
    if len(pairs) < 3:
        raise ValueError(f"{path}: need diversity values for at least 3 models, got {len(pairs)}")
    return pairs


def relative_perf(table: AccuracyTable, model: str) -> float:
    """Mean over benchmarks of accuracy(model) / accuracy(reference)."""
    if model not in table.models:
        raise ValueError(f"model {model!r} not in table")
    ref = table.acc[table.models.index(table.reference_model)]
    row = table.acc[table.models.index(model)]
    return float(np.mean(row / ref))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks with average-rank tie handling, 1-based."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of equal values fills sorted positions i..j: each gets (i + j) / 2 + 1
    stop = np.cumsum(counts)
    return ((2 * stop - counts - 1) / 2.0 + 1.0)[group]


def _paired(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 arrays, checked to be 1-D, paired, finite and >= 3 long."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    if len(xa) < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise ValueError("x and y must be finite")
    return xa, ya


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation: Pearson correlation of fractional ranks."""
    xa, ya = _paired(x, y)
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise ValueError("rank correlation undefined for constant input")
    rx, ry = _ranks(xa), _ranks(ya)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


@dataclass(frozen=True)
class CorrelationReport:
    spearman_rho: float
    r2_linear: float
    r2_loglinear: float | None  # None when any x <= 0 rules the log fit out
    n_points: int

    @property
    def r2_reported(self) -> float:
        if self.r2_loglinear is None:
            return self.r2_linear
        return max(self.r2_linear, self.r2_loglinear)

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "r2_reported": self.r2_reported}, sort_keys=True)


def _ols_r2(x: np.ndarray, y: np.ndarray) -> float:
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("regressor is constant")
    b = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
    resid = y - (y.mean() + b * (x - x.mean()))
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - float((resid**2).sum()) / ss_tot


def fit_r2(x: Sequence[float], y: Sequence[float]) -> CorrelationReport:
    """Least-squares fits y ~ x and y ~ ln x; reports the better R^2.

    The log-linear fit is skipped (reported R^2 falls back to linear) when
    any x is non-positive.
    """
    xa, ya = _paired(x, y)
    if np.all(ya == ya[0]):
        raise ValueError("y is constant; R^2 undefined")
    r2_lin = _ols_r2(xa, ya)
    r2_log = _ols_r2(np.log(xa), ya) if xa.min() > 0.0 else None
    return CorrelationReport(
        spearman_rho=spearman(xa, ya),
        r2_linear=r2_lin,
        r2_loglinear=r2_log,
        n_points=len(xa),
    )


def correlation_study(pairs: Sequence[tuple]) -> CorrelationReport:
    """Correlation over (diversity, performance) pairs, pooled.

    Each pair's first element is a diversity value or a DiversityReport;
    the second is the performance value.
    """
    x = [float(getattr(d, "value", d)) for d, _ in pairs]
    y = [float(p) for _, p in pairs]
    return fit_r2(x, y)


def stratified_correlation_study(
    pairs: Sequence[tuple], strata: Sequence
) -> dict:
    """Per-stratum correlation reports plus the pooled one under "pooled".

    Use when subsets come in size (or other) groups that should each get
    their own trendline; pooled remains the default view.
    """
    if len(pairs) != len(strata):
        raise ValueError("one stratum label per pair required")
    out: dict = {"pooled": correlation_study(pairs)}
    for label in sorted(set(strata), key=str):
        group = [p for p, s in zip(pairs, strata) if s == label]
        out[label] = correlation_study(group)
    return out
