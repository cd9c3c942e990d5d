import math

import numpy as np
import pytest

from gvendi import (
    AccuracyTable,
    DiversityReport,
    correlation_study,
    fit_r2,
    relative_perf,
    spearman,
)
from gvendi import evalstats
from gvendi.rng import rng_from


def table():
    return AccuracyTable(
        benchmarks=("b1", "b2"),
        models=("ref", "m1", "m2"),
        acc=np.array([[1.0, 0.4], [0.5, 0.2], [0.0, 0.0]]),
        reference_model="ref",
    )


def test_relative_perf_reference_is_one():
    assert relative_perf(table(), "ref") == pytest.approx(1.0, abs=1e-15)


def test_relative_perf_direct_arithmetic():
    # (0.5/1.0 + 0.2/0.4) / 2 = 0.5
    assert relative_perf(table(), "m1") == pytest.approx(0.5, abs=1e-15)


def test_relative_perf_all_zero_model():
    assert relative_perf(table(), "m2") == 0.0


def test_relative_perf_unknown_model():
    with pytest.raises(ValueError):
        relative_perf(table(), "nope")


def test_table_rejects_zero_reference():
    with pytest.raises(ValueError, match="reference"):
        AccuracyTable(("b1",), ("ref",), np.array([[0.0]]), "ref")


def test_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        AccuracyTable(("b1",), ("ref",), np.array([[1.5]]), "ref")


def test_relative_perf_linear_in_accuracy_row():
    t = table()
    base = relative_perf(t, "m1")
    doubled = AccuracyTable(t.benchmarks, t.models, t.acc * np.array([[1.0], [2.0], [1.0]]), "ref")
    assert relative_perf(doubled, "m1") == pytest.approx(2 * base, rel=1e-12)


def test_spearman_monotone_and_reversed():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman(x, [2.0, 4.0, 4.5, 100.0]) == pytest.approx(1.0, abs=1e-15)
    assert spearman(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-15)


def test_spearman_rank_difference_case():
    # sum of squared rank differences = 6 -> 1 - 6*6/(3*8) = -0.5
    assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-15)


def brute_force_spearman(x, y):
    """Oracle: direct Pearson on explicitly averaged ranks."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for t in range(i, j + 1):
                r[order[t]] = (i + j) / 2 + 1
            i = j + 1
        return r

    rx, ry = ranks(list(x)), ranks(list(y))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def test_spearman_matches_oracle_with_ties():
    for trial in range(100):
        rng = rng_from(700 + trial)
        n = int(rng.integers(3, 12))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert spearman(x, y) == pytest.approx(brute_force_spearman(x, y), abs=1e-9)


def _loop_ranks(values: np.ndarray) -> np.ndarray:
    """Reference average ranks: walk each run of equal values in stable sort order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("kind", ["untied", "tied", "all-equal"])
def test_ranks_equal_the_loop_bit_for_bit(kind):
    for trial in range(50):
        rng = rng_from(760 + trial)
        n = int(rng.integers(1, 40))
        if kind == "untied":
            values = rng.permutation(n) * 0.5 - 3.0
        elif kind == "tied":
            values = rng.integers(-2, 3, size=n).astype(float)
            values[values == 0] = -0.0 if trial % 2 else 0.0
        else:
            values = np.full(n, 1.5)
        assert evalstats._ranks(values).tobytes() == _loop_ranks(values).tobytes()


def test_spearman_errors():
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2])
    with pytest.raises(ValueError):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="constant"):
        spearman([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_spearman_and_fit_r2_reject_non_finite(bad):
    for x, y in (([1.0, 2.0, bad, 4.0], [1.0, 2.0, 3.0, 4.0]),
                 ([1.0, 2.0, 3.0, 4.0], [1.0, bad, 3.0, 4.0])):
        with pytest.raises(ValueError, match="finite"):
            spearman(x, y)
        with pytest.raises(ValueError, match="finite"):
            fit_r2(x, y)


def test_fit_r2_exact_line():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    rep = fit_r2(x, 2 * x + 1)
    assert rep.r2_linear == pytest.approx(1.0, abs=1e-12)
    assert rep.r2_reported == pytest.approx(1.0, abs=1e-12)


def test_fit_r2_exact_log_curve():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    rep = fit_r2(x, 3 * np.log(x))
    assert rep.r2_loglinear == pytest.approx(1.0, abs=1e-12)
    assert rep.r2_loglinear >= rep.r2_linear
    assert rep.r2_reported == pytest.approx(1.0, abs=1e-12)


def test_fit_r2_skips_log_for_nonpositive_x():
    rep = fit_r2([-1.0, 0.5, 2.0], [1.0, 2.0, 3.0])
    assert rep.r2_loglinear is None
    assert rep.r2_reported == rep.r2_linear


def brute_force_ols_r2(x, y):
    """Oracle: solve the normal equations explicitly."""
    X = np.column_stack([np.ones(len(x)), x])
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ beta
    return 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())


def test_fit_r2_matches_normal_equations_oracle():
    for trial in range(100):
        rng = rng_from(800 + trial)
        n = int(rng.integers(3, 30))
        x = rng.uniform(0.1, 10.0, size=n)
        y = rng.uniform(-5.0, 5.0, size=n)
        if np.all(y == y[0]) or np.all(x == x[0]):
            continue
        rep = fit_r2(x, y)
        assert rep.r2_linear == pytest.approx(brute_force_ols_r2(x, y), abs=1e-9)
        assert rep.r2_loglinear == pytest.approx(brute_force_ols_r2(np.log(x), y), abs=1e-9)
        assert rep.r2_reported == max(rep.r2_linear, rep.r2_loglinear)


def test_fit_r2_constant_y_errors():
    with pytest.raises(ValueError, match="constant"):
        fit_r2([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_correlation_study_monotone():
    pairs = [(10.0, 0.3), (20.0, 0.5), (40.0, 0.9)]
    rep = correlation_study(pairs)
    assert rep.spearman_rho == pytest.approx(1.0, abs=1e-15)
    assert rep.n_points == 3


def test_correlation_study_accepts_reports_and_permutes():
    reports = [
        (DiversityReport("g_vendi", 10.0, 5, {}), 0.3),
        (DiversityReport("g_vendi", 20.0, 5, {}), 0.5),
        (DiversityReport("g_vendi", 40.0, 5, {}), 0.9),
        (DiversityReport("g_vendi", 15.0, 5, {}), 0.4),
    ]
    a = correlation_study(reports)
    b = correlation_study(reports[::-1])
    assert a.spearman_rho == pytest.approx(b.spearman_rho, abs=1e-15)
    assert a.r2_reported == pytest.approx(b.r2_reported, abs=1e-15)


def test_correlation_study_noisy_monotone():
    rng = rng_from(900)
    vendi = np.linspace(5, 50, 50)
    perf = vendi / 50.0 + rng.normal(scale=0.01, size=50)
    rep = correlation_study(list(zip(vendi, perf)))
    assert rep.spearman_rho >= 0.95


def test_stratified_correlation_study():
    from gvendi import stratified_correlation_study

    pairs = [(10.0, 0.3), (20.0, 0.5), (40.0, 0.9), (12.0, 0.35), (22.0, 0.55), (44.0, 0.95)]
    strata = ["10k", "10k", "10k", "50k", "50k", "50k"]
    out = stratified_correlation_study(pairs, strata)
    assert set(out) == {"pooled", "10k", "50k"}
    assert out["10k"].n_points == 3
    assert out["pooled"].n_points == 6
    with pytest.raises(ValueError):
        stratified_correlation_study(pairs, strata[:-1])


def test_accuracy_table_csv_roundtrip(tmp_path):
    p = tmp_path / "acc.csv"
    p.write_text("model,b1,b2\nref,1.0,0.4\nm1,0.5,0.2\n")
    t = AccuracyTable.from_csv(p, "ref")
    assert t.benchmarks == ("b1", "b2")
    assert relative_perf(t, "m1") == pytest.approx(0.5)


def test_accuracy_table_csv_errors(tmp_path):
    p = tmp_path / "acc.csv"
    p.write_text("nombre,b1\nref,1.0\n")
    with pytest.raises(ValueError, match="header"):
        AccuracyTable.from_csv(p, "ref")
    p.write_text("model,b1\nref,abc\n")
    with pytest.raises(ValueError, match="non-numeric"):
        AccuracyTable.from_csv(p, "ref")
    p.write_text("model,b1\nref,1.0\nref,0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        AccuracyTable.from_csv(p, "ref")


def test_spearman_invariant_under_monotone_transform():
    rng = rng_from(901)
    x = rng.uniform(0.5, 9.0, size=20)
    y = rng.uniform(0.5, 9.0, size=20)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman(x, y**3) == pytest.approx(base, abs=1e-12)


def test_r2_linear_invariant_under_affine_x():
    rng = rng_from(902)
    x = rng.uniform(1.0, 5.0, size=15)
    y = rng.uniform(0.0, 1.0, size=15)
    a = fit_r2(x, y).r2_linear
    b = fit_r2(3.5 * x - 2.0, y).r2_linear
    assert b == pytest.approx(a, abs=1e-12)
