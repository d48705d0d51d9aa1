"""Growth-rate fitting, entropy estimates, comparison and power-rule reports."""
import math

import numpy as np
import pytest

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    circle_grid,
    compare_theorems,
    count_grid,
    estimate_entropy,
    grid1d,
    growth_rate,
    index_cloud,
    power_rule_check,
    symbol_blocks,
)
import qme.entropy
from qme.entropy import estimate_from_grid, variant_grids

ARC = QuasiMetricSpec(kind="circle_arc")
LINE = QuasiMetricSpec(kind="asym_line")
LOG2 = math.log(2.0)


# --- growth_rate -------------------------------------------------------------

def test_growth_rate_constant_is_exactly_zero():
    fit = growth_rate([(n, 17) for n in range(1, 8)])
    assert fit.slope == 0.0 and fit.residual == 0.0 and fit.constant


def test_growth_rate_powers_of_two():
    fit = growth_rate([(n, 2 ** n) for n in range(1, 10)])
    assert fit.slope == pytest.approx(LOG2, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)
    assert fit.max_step == pytest.approx(LOG2, abs=1e-12)


def test_growth_rate_needs_three_points():
    with pytest.raises(ValueError):
        growth_rate([(2, 4), (3, 8)])
    with pytest.raises(ValueError):
        growth_rate([(1, 2), (2, 4), (3, 8)], n_burn=2)


def test_growth_rate_burn_and_window():
    counts = [(1, 1000), (2, 4), (3, 8), (4, 16), (5, 32), (6, 64)]
    fit = growth_rate(counts, n_burn=2)
    assert fit.slope == pytest.approx(LOG2, abs=1e-9)
    windowed = growth_rate(counts, n_burn=1, window_size=5)
    assert windowed.fit_points == 5
    assert windowed.slope == pytest.approx(LOG2, abs=1e-9)


def test_growth_rate_rejects_zero_counts():
    with pytest.raises(ValueError):
        growth_rate([(1, 1), (2, 0), (3, 2)], n_burn=1)


# --- estimates ---------------------------------------------------------------

EPS4 = [0.5, 0.25, 0.125, 0.0625]


@pytest.mark.parametrize("variant", ["two_sided", "one_sided", "mean_metric",
                                     "max_metric"])
def test_identity_map_zero_entropy(variant):
    est = estimate_entropy(MapSpec(kind="identity"), grid1d(0.0, 1.0, 24), LINE,
                           variant, [1, 2, 3, 4], EPS4)
    assert est.extrapolated == 0.0
    for p in est.per_epsilon_slopes:
        assert p.slope == 0.0 and p.residual == 0.0
    assert est.stabilized


def test_max_metric_estimate_identical_to_two_sided():
    cloud = circle_grid(48)
    kw = dict(n_list=[1, 2, 3, 4], eps_list=EPS4)
    a = estimate_entropy(MapSpec(kind="doubling"), cloud, ARC, "two_sided", **kw)
    b = estimate_entropy(MapSpec(kind="doubling"), cloud, ARC, "max_metric", **kw)
    assert a.extrapolated == b.extrapolated
    assert [(p.eps, p.slope, p.residual) for p in a.per_epsilon_slopes] == \
        [(p.eps, p.slope, p.residual) for p in b.per_epsilon_slopes]
    assert a.counts == b.counts


@pytest.mark.parametrize("n_list", [[3, 1], [0, 1]], ids=["descending", "n_zero"])
def test_max_metric_only_schedule_checked_before_identity(monkeypatch, n_list):
    # the relation identity check trusts its schedule; the two_sided grid
    # that max_metric solves first must reject a bad one
    def unreachable(*args):
        raise AssertionError("identity check ran on an unchecked schedule")

    monkeypatch.setattr(qme.entropy, "_relations_identical", unreachable)
    orbits = build_orbits(MapSpec(kind="doubling"), circle_grid(16), 3)
    with pytest.raises(ValueError):
        variant_grids(ARC, orbits, ("max_metric",), n_list, [0.5])


def test_max_metric_identity_checked_on_the_grid_schedule():
    # float orbit lengths are valid count_grid input; the identity check
    # takes the schedule count_grid normalized
    orbits = build_orbits(MapSpec(kind="doubling"), circle_grid(16), 3)
    grids, identical = variant_grids(ARC, orbits, ("max_metric",), [1.0, 3.0], [0.5])
    assert identical and grids["max_metric"].n_list == [1, 3]


def test_doubling_quick_estimate_near_log2():
    est = estimate_entropy(MapSpec(kind="doubling"), circle_grid(256), ARC,
                           "two_sided", list(range(2, 8)),
                           [2.0 ** -3, 2.0 ** -4])
    assert 0.5 <= est.extrapolated <= 0.8


def test_shift_blocks_counts_and_estimate():
    cloud = symbol_blocks(2, 10)
    bq = QuasiMetricSpec(kind="block_prefix")
    shift = MapSpec(kind="shift_left")
    orbits = build_orbits(shift, cloud, 6)
    grid = count_grid(bq, orbits, list(range(1, 7)),
                      [2.0 ** -3, 2.0 ** -4], variants=("two_sided",))
    # separated blocks are exactly those differing within the first
    # n + log2(1/eps) - 1 symbols
    for n in range(1, 7):
        assert grid.cell(n, 2.0 ** -4).get("s1").cardinality == 2 ** min(n + 3, 10)
        assert grid.cell(n, 2.0 ** -3).get("s1").cardinality == 2 ** min(n + 2, 10)
    est = estimate_from_grid(grid, "two_sided")
    assert abs(est.extrapolated - LOG2) <= 0.2 * LOG2


def test_estimate_saturation_fallback_flagged():
    # eps below the minimum spacing: every count equals the cloud size
    est = estimate_entropy(MapSpec(kind="identity"), grid1d(0.0, 1.0, 16),
                           QuasiMetricSpec(kind="euclidean"), "two_sided",
                           [1, 2, 3, 4], [2.0 ** -12, 2.0 ** -13])
    assert est.extrapolated == 0.0
    assert any("saturation filter skipped" in d for d in est.diagnostics)


def test_estimate_stability_flag():
    est = estimate_entropy(MapSpec(kind="doubling"), circle_grid(64), ARC,
                           "two_sided", [2, 3, 4], [0.25, 0.125],
                           stability_tol=1e-12)
    assert not est.stabilized
    assert any("not stabilized" in d for d in est.diagnostics)


def test_estimate_serialization_shape():
    est = estimate_entropy(MapSpec(kind="identity"), grid1d(0.0, 1.0, 8), LINE,
                           "two_sided", [1, 2, 3, 4], [0.5, 0.25])
    d = est.to_dict()
    assert d["log_base"] == "e"
    assert {"variant", "per_epsilon_slopes", "extrapolated", "log_base",
            "diagnostics", "spanning_slopes", "stabilized", "cloud_size",
            "counts"} <= set(d)
    assert len(d["per_epsilon_slopes"]) == 2


def test_estimate_rejects_unknown_variant():
    with pytest.raises(ValueError):
        estimate_entropy(MapSpec(kind="identity"), grid1d(0.0, 1.0, 8), LINE,
                         "sideways", [1, 2, 3], [0.5, 0.25])


# --- comparison --------------------------------------------------------------

def test_compare_identity_map_all_checks_pass():
    report = compare_theorems(MapSpec(kind="identity"), grid1d(0.0, 1.0, 16),
                              LINE, [1, 2, 3, 4], [0.5, 0.25, 0.125])
    assert report.overall_ok
    assert report.relations_identical
    assert all(c.ok for c in report.count_checks)
    for est in report.estimates.values():
        assert est.extrapolated == 0.0
    for check in report.estimate_checks:
        assert check.ok


def test_compare_two_point_gap_instance():
    report = compare_theorems(MapSpec(kind="identity"), index_cloud(2),
                              QuasiMetricSpec(kind="matrix",
                                              matrix=np.array([[0.0, 1.0],
                                                               [2.0, 0.0]])),
                              [1, 2, 3, 4], [1.5, 0.75])
    assert report.overall_ok
    cell = [c for c in report.count_checks
            if c.name == "variant_span" and c.eps == 1.5][0]
    assert cell.lhs == 1 and cell.rhs == 2  # strict one-sided advantage
    for est in report.estimates.values():
        assert est.extrapolated == 0.0


def test_compare_doubling_circle():
    report = compare_theorems(MapSpec(kind="doubling"), circle_grid(48), ARC,
                              [1, 2, 3, 4], EPS4)
    assert report.overall_ok
    assert report.relations_identical
    binding = [c for c in report.count_checks if c.exact]
    assert binding and all(c.ok for c in binding)
    h2 = report.estimates["two_sided"].extrapolated
    h1 = report.estimates["one_sided"].extrapolated
    assert h1 <= h2 + 1e-12


def test_compare_serialization():
    report = compare_theorems(MapSpec(kind="identity"), grid1d(0.0, 1.0, 8),
                              LINE, [1, 2, 3, 4], [0.5, 0.25])
    d = report.to_dict()
    assert set(d) == {"count_checks", "estimate_checks", "relations_identical",
                      "estimates", "diagnostics", "overall_ok"}
    assert all(set(c) == {"name", "n", "epsilon", "lhs", "rhs", "ok", "exact"}
               for c in d["count_checks"])


# --- power rule ---------------------------------------------------------------

def test_power_rule_m1_reproduces_base():
    report = power_rule_check(MapSpec(kind="doubling"), 1, circle_grid(64), ARC,
                              [2, 3, 4], [0.25, 0.125])
    assert report.overall_ok
    assert report.estimate_composed.extrapolated == report.estimate_base.extrapolated
    assert all(c.lhs == c.rhs for c in report.cells)


def test_power_rule_identity_all_zero():
    report = power_rule_check(MapSpec(kind="identity"), 3, grid1d(0.0, 1.0, 16),
                              LINE, [1, 2, 3, 4], [0.5, 0.25])
    assert report.overall_ok
    assert report.estimate_composed.extrapolated == 0.0
    assert report.target == 0.0


def test_power_rule_doubling_squared():
    report = power_rule_check(MapSpec(kind="doubling"), 2, circle_grid(256), ARC,
                              [2, 3, 4], [0.25, 0.125])
    assert report.uc_declared
    assert all(c.ok for c in report.cells)
    assert report.estimates_ok
    assert report.overall_ok


def test_power_rule_flags_undeclared_uc():
    undeclared = MapSpec(kind="doubling", declared_uniformly_continuous=False)
    report = power_rule_check(undeclared, 2, circle_grid(32), ARC,
                              [1, 2, 3, 4], [0.25, 0.125])
    assert not report.uc_declared
    assert not report.overall_ok
    assert any("uniformly continuous" in d for d in report.diagnostics)


def test_power_rule_rejects_bad_m():
    with pytest.raises(ValueError):
        power_rule_check(MapSpec(kind="identity"), 0, grid1d(0.0, 1.0, 4), LINE,
                         [1, 2, 3], [0.5])


def test_slope_drop_across_scales_is_flagged():
    # hand-built grid: healthy doubling at the larger scale, flat at the
    # smaller one; the estimator must flag the drop, not assert on it
    from qme.covering import CellCounts, CountGrid, CountResult

    def cell(n, eps, count):
        span = CountResult(count, tuple(range(count)), "exact_bnb", True)
        sep = CountResult(count, tuple(range(count)), "exact_bnb", True)
        return CellCounts(n=n, eps=eps, r1=span, s1=sep)

    counts = {0.5: [4, 8, 16, 32], 0.25: [4, 4, 4, 4]}
    cells = {(n, e): cell(n, e, counts[e][i])
             for e in (0.5, 0.25) for i, n in enumerate((1, 2, 3, 4))}
    grid = CountGrid(cloud_size=1000, n_list=[1, 2, 3, 4],
                     eps_list=[0.5, 0.25], variants=("two_sided",), cells=cells)
    est = estimate_from_grid(grid, "two_sided")
    assert est.per_epsilon_slopes[0].slope == pytest.approx(LOG2, abs=1e-9)
    assert est.per_epsilon_slopes[1].slope == 0.0
    assert not est.stabilized
    assert any("slope fell as eps shrank" in d for d in est.diagnostics)


def test_estimate_invariant_under_rescaling():
    # counts at eps under 2*e equal counts at eps/2 under e, so estimates on
    # matched schedules agree exactly
    from qme import scaled
    cloud = circle_grid(64)
    kw = dict(n_list=[2, 3, 4, 5], exact_threshold=64)
    base = estimate_entropy(MapSpec(kind="doubling"), cloud, ARC, "two_sided",
                            eps_list=[0.25, 0.125], **kw)
    rescaled = estimate_entropy(MapSpec(kind="doubling"), cloud,
                                scaled(ARC, 2.0), "two_sided",
                                eps_list=[0.5, 0.25], **kw)
    assert rescaled.extrapolated == base.extrapolated
    assert [p.slope for p in rescaled.per_epsilon_slopes] == \
        [p.slope for p in base.per_epsilon_slopes]
