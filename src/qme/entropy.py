"""Growth-rate estimation and the theorem-comparison harness.

Counts from the covering module grow (at most) exponentially in the orbit
length n; the entropy of the system at scale eps is the slope of log(count)
against n, and the reported entropy is the slope at the smallest scheduled
scale. Four estimate variants are supported:

``two_sided``    separated/spanning counts requiring closeness in both
                 directions (the primary notion).
``one_sided``    counts requiring closeness in at least one direction; never
                 exceeds the two_sided estimate.
``mean_metric``  counts under the arithmetic-mean symmetrization.
``max_metric``   counts under the max symmetrization; the relation (and hence
                 every count and slope) is identical to ``two_sided`` bit for
                 bit, so after a cell-by-cell identity check its counts are
                 the two_sided ones.

Separated counts are the primary statistic; spanning counts are carried along
as a cross-check. Counts close to the cloud size are finite-sample saturation
(the relation can no longer resolve growth) and are excluded from fits when
enough cells remain; every exclusion is recorded in the diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .covering import (
    CountGrid,
    DEFAULT_EXACT_THRESHOLD,
    bowen_matrix,  # noqa: F401  (unused; perfbench/tracing.py wraps this name)
    _relations_identical,
    count_grid,
)
from .dynamics import MapSpec, OrbitTable, PointCloud, build_orbits, iterate_map
from .quasimetric import QuasiMetricSpec, symmetrize_max, symmetrize_mean

__all__ = [
    "ENTROPY_VARIANTS",
    "GrowthFit",
    "growth_rate",
    "PerEpsSlope",
    "EntropyEstimate",
    "variant_grids",
    "estimate_entropy",
    "CheckRow",
    "EstimateCheck",
    "TheoremComparison",
    "compare_theorems",
    "PowerCell",
    "PowerRuleReport",
    "power_rule_check",
]

# variant -> (primary quantity, cross quantity)
ENTROPY_VARIANTS = {
    "two_sided": ("s1", "r1"),
    "one_sided": ("s2", "r2"),
    "mean_metric": ("s1", "r1"),
    "max_metric": ("s1", "r1"),
}

DEFAULT_N_BURN = 2
DEFAULT_SATURATION_FRACTION = 0.5
DEFAULT_STABILITY_TOL = 0.05
DEFAULT_ESTIMATOR_TOL = 0.05
DEFAULT_POWER_TOL_REL = 0.20
DEFAULT_POWER_TOL_ABS = 0.05


@dataclass(frozen=True)
class GrowthFit:
    slope: float
    residual: float
    fit_points: int
    max_step: float  # largest per-step log increment over the window
    constant: bool


def growth_rate(counts: Sequence, n_burn: int = DEFAULT_N_BURN,
                window_size: int = 0) -> GrowthFit:
    """Least-squares slope of log(cardinality) against n.

    ``counts`` is a sequence of (n, cardinality) pairs with cardinality >= 1.
    Points with n < n_burn are discarded; when ``window_size`` > 0 only the
    largest-n window of that many points is fitted. A constant sequence yields
    a slope of exactly 0. The residual is the RMS error of the fit, and
    ``max_step`` reports the steepest per-step log increment as a secondary
    growth indicator.
    """
    usable = [(int(n), int(c)) for n, c in counts if n >= n_burn]
    if window_size > 0:
        usable = usable[-window_size:]
    if len(usable) < 3:
        raise ValueError(f"need at least 3 usable points, got {len(usable)}")
    if any(c < 1 for _, c in usable):
        raise ValueError("cardinalities must be >= 1")

    cards = [c for _, c in usable]
    steps = []
    for (n0, c0), (n1, c1) in zip(usable, usable[1:]):
        steps.append((math.log(c1) - math.log(c0)) / (n1 - n0))
    max_step = max(steps)

    if all(c == cards[0] for c in cards):
        return GrowthFit(slope=0.0, residual=0.0, fit_points=len(usable),
                         max_step=max_step, constant=True)

    x = np.array([n for n, _ in usable], dtype=float)
    y = np.log(np.array(cards, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return GrowthFit(slope=float(slope), residual=resid, fit_points=len(usable),
                     max_step=max_step, constant=False)


@dataclass(frozen=True)
class PerEpsSlope:
    eps: float
    slope: float
    fit_points: int
    residual: float
    max_step: float
    dropped_saturated: tuple = ()

    def to_dict(self) -> dict:
        return {"epsilon": self.eps, "slope": self.slope,
                "fit_points": self.fit_points, "residual": self.residual,
                "max_step": self.max_step,
                "dropped_saturated": list(self.dropped_saturated)}


@dataclass
class EntropyEstimate:
    """Per-scale growth slopes and the extrapolated entropy value."""

    variant: str
    per_epsilon_slopes: list
    extrapolated: float
    log_base: str = "e"
    diagnostics: list = field(default_factory=list)
    spanning_slopes: list = field(default_factory=list)
    stabilized: bool = True
    cloud_size: int = 0
    counts: dict = field(default_factory=dict)  # eps -> [(n, primary count)]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "per_epsilon_slopes": [p.to_dict() for p in self.per_epsilon_slopes],
            "extrapolated": self.extrapolated,
            "log_base": self.log_base,
            "diagnostics": list(self.diagnostics),
            "spanning_slopes": [p.to_dict() for p in self.spanning_slopes],
            "stabilized": self.stabilized,
            "cloud_size": self.cloud_size,
            "counts": {repr(eps): [[n, c] for n, c in seq]
                       for eps, seq in self.counts.items()},
        }


def _fit_one_eps(eps: float, seq: list, cloud_size: int, *, n_burn: int,
                 window_size: int, saturation_fraction: float,
                 diagnostics: list, tag: str = "") -> PerEpsSlope:
    threshold = saturation_fraction * cloud_size
    kept = [(n, c) for n, c in seq if c < threshold]
    dropped = tuple(n for n, c in seq if c >= threshold)
    if len([1 for n, _ in kept if n >= n_burn]) >= 3:
        use = kept
        if dropped:
            diagnostics.append(
                f"{tag}eps={eps}: dropped saturated cells n={list(dropped)} "
                f"(count >= {saturation_fraction} * cloud)")
    else:
        use = seq
        dropped = ()
        if len(seq) != len(kept):
            diagnostics.append(
                f"{tag}eps={eps}: saturation filter skipped (too few unsaturated cells)")
    fit = growth_rate(use, n_burn=n_burn, window_size=window_size)
    return PerEpsSlope(eps=eps, slope=fit.slope, fit_points=fit.fit_points,
                       residual=fit.residual, max_step=fit.max_step,
                       dropped_saturated=dropped)


def estimate_from_grid(grid: CountGrid, variant: str, *,
                       n_burn: int = DEFAULT_N_BURN, window_size: int = 0,
                       saturation_fraction: float = DEFAULT_SATURATION_FRACTION,
                       stability_tol: float = DEFAULT_STABILITY_TOL) -> EntropyEstimate:
    """Turn an existing count grid into an entropy estimate for one variant,
    fitting every scale of the grid's eps schedule."""
    if variant not in ENTROPY_VARIANTS:
        raise ValueError(f"unknown entropy variant {variant!r}")
    primary, cross = ENTROPY_VARIANTS[variant]
    diagnostics: list = []
    counts = {}
    slopes = []
    cross_slopes = []
    for eps in grid.eps_list:
        seq = [(n, grid.cell(n, eps).get(primary).cardinality) for n in grid.n_list]
        counts[eps] = seq
        slopes.append(_fit_one_eps(eps, seq, grid.cloud_size, n_burn=n_burn,
                                   window_size=window_size,
                                   saturation_fraction=saturation_fraction,
                                   diagnostics=diagnostics))
        cross_seq = [(n, grid.cell(n, eps).get(cross).cardinality) for n in grid.n_list]
        cross_slopes.append(_fit_one_eps(eps, cross_seq, grid.cloud_size, n_burn=n_burn,
                                         window_size=window_size,
                                         saturation_fraction=saturation_fraction,
                                         diagnostics=diagnostics,
                                         tag="spanning cross-check: "))

    if not grid.all_exact():
        diagnostics.append("some cells were solved greedily; counts are bounds, "
                           "not optima")

    extrapolated = slopes[-1].slope
    stabilized = True
    if len(slopes) >= 2:
        gap = abs(slopes[-1].slope - slopes[-2].slope)
        if gap > stability_tol:
            stabilized = False
            diagnostics.append(
                f"slopes not stabilized: |{slopes[-1].slope:.6f} - "
                f"{slopes[-2].slope:.6f}| = {gap:.6f} > {stability_tol}")
    # slopes should not fall as the scale shrinks (counts only grow); flag
    # drops beyond the stability tolerance instead of asserting
    for hi, lo in zip(slopes, slopes[1:]):
        if lo.slope < hi.slope - stability_tol:
            diagnostics.append(
                f"slope fell as eps shrank: {hi.slope:.6f} @eps={hi.eps} -> "
                f"{lo.slope:.6f} @eps={lo.eps}")

    return EntropyEstimate(variant=variant, per_epsilon_slopes=slopes,
                           extrapolated=extrapolated, diagnostics=diagnostics,
                           spanning_slopes=cross_slopes, stabilized=stabilized,
                           cloud_size=grid.cloud_size, counts=counts)


def variant_grids(spec: QuasiMetricSpec, orbits: OrbitTable,
                  variants: Sequence, n_list: Sequence, eps_list: Sequence, *,
                  exact_threshold: int = DEFAULT_EXACT_THRESHOLD) -> tuple:
    """({variant: CountGrid}, relations_identical or None) for the variants.

    two_sided and one_sided share one grid; mean_metric solves its own (a
    Bowen max of means is not a function of D_n); max_metric always solves
    the two_sided grid first, which validates and normalizes the schedule the
    relation identity check then runs on, and reuses that grid when the check
    holds, else solves its own.
    """
    for v in variants:
        if v not in ENTROPY_VARIANTS:
            raise ValueError(f"unknown entropy variant {v!r}")
    on_spec = tuple(r for r in ("two_sided", "one_sided") if r in variants
                    or (r == "two_sided" and "max_metric" in variants))
    grids = {}
    if on_spec:
        grid_e = count_grid(spec, orbits, n_list, eps_list,
                            exact_threshold=exact_threshold, variants=on_spec)
        grids.update((r, grid_e) for r in on_spec)
    if "mean_metric" in variants:
        grids["mean_metric"] = count_grid(
            symmetrize_mean(spec), orbits, n_list, eps_list,
            exact_threshold=exact_threshold, variants=("two_sided",))
    identical = None
    if "max_metric" in variants:
        me_spec = symmetrize_max(spec)
        identical = _relations_identical(spec, me_spec, orbits,
                                         grid_e.n_list, grid_e.eps_list)
        grids["max_metric"] = grid_e if identical else count_grid(
            me_spec, orbits, n_list, eps_list,
            exact_threshold=exact_threshold, variants=("two_sided",))
    return grids, identical


def estimate_entropy(map_spec: MapSpec, cloud: PointCloud, spec: QuasiMetricSpec,
                     variant: str, n_list: Sequence, eps_list: Sequence, *,
                     exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                     snap_mode: str = "exact",
                     n_burn: int = DEFAULT_N_BURN,
                     window_size: int = 0,
                     saturation_fraction: float = DEFAULT_SATURATION_FRACTION,
                     stability_tol: float = DEFAULT_STABILITY_TOL) -> EntropyEstimate:
    """Estimate the entropy of a map over a cloud for one variant.

    Builds the orbit table of the cloud, counts spanning/separated
    cardinalities over the schedule under the variant's distance rule, fits
    per-scale growth slopes and extrapolates at the smallest scale.
    """
    orbits = build_orbits(map_spec, cloud, max(int(n) for n in n_list),
                          snap_mode=snap_mode, qspec=spec)
    grids, _ = variant_grids(spec, orbits, (variant,), n_list, eps_list,
                             exact_threshold=exact_threshold)
    return estimate_from_grid(grids[variant], variant, n_burn=n_burn,
                              window_size=window_size,
                              saturation_fraction=saturation_fraction,
                              stability_tol=stability_tol)


# ---------------------------------------------------------------------------
# theorem comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    """One count-level inequality (or equality) instance."""

    name: str
    n: int
    eps: float
    lhs: int
    rhs: int
    ok: bool
    exact: bool  # both sides solved to optimality

    def to_dict(self) -> dict:
        return {"name": self.name, "n": self.n, "epsilon": self.eps,
                "lhs": self.lhs, "rhs": self.rhs, "ok": self.ok,
                "exact": self.exact}


@dataclass(frozen=True)
class EstimateCheck:
    name: str
    lhs: float
    rhs: float
    tol: float
    ok: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "tol": self.tol, "ok": self.ok}


@dataclass
class TheoremComparison:
    count_checks: list
    estimate_checks: list
    relations_identical: bool
    estimates: dict  # variant -> EntropyEstimate
    diagnostics: list
    overall_ok: bool

    def to_dict(self) -> dict:
        return {
            "count_checks": [c.to_dict() for c in self.count_checks],
            "estimate_checks": [c.to_dict() for c in self.estimate_checks],
            "relations_identical": self.relations_identical,
            "estimates": {k: v.to_dict() for k, v in self.estimates.items()},
            "diagnostics": list(self.diagnostics),
            "overall_ok": self.overall_ok,
        }


def _ineq_rows(name: str, grid_a: CountGrid, qa: str, grid_b: CountGrid, qb: str,
               pairs, label_rhs: bool = False) -> list:
    """qa of grid_a at cell a <= qb of grid_b at cell b for each (a, b) pair;
    a row is labelled with cell a, or with cell b when ``label_rhs``."""
    rows = []
    for a, b in pairs:
        ra = grid_a.cell(*a).get(qa)
        rb = grid_b.cell(*b).get(qb)
        n, eps = b if label_rhs else a
        rows.append(CheckRow(name=name, n=n, eps=eps,
                             lhs=ra.cardinality, rhs=rb.cardinality,
                             ok=ra.cardinality <= rb.cardinality,
                             exact=ra.optimal and rb.optimal))
    return rows


def _all_cells(n_list, eps_list):
    return [((n, e), (n, e)) for n in n_list for e in eps_list]


def _halving_pairs(n_list, eps_list):
    """Cells paired with the next-smaller scale when it is exactly half."""
    out = []
    for n in n_list:
        for hi, lo in zip(eps_list, eps_list[1:]):
            if lo * 2.0 == hi:
                out.append(((n, hi), (n, lo)))
    return out


def compare_theorems(map_spec: MapSpec, cloud: PointCloud, spec: QuasiMetricSpec,
                     n_list: Sequence, eps_list: Sequence, *,
                     exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                     snap_mode: str = "exact",
                     estimator_tol: float = DEFAULT_ESTIMATOR_TOL,
                     n_burn: int = DEFAULT_N_BURN,
                     window_size: int = 0,
                     saturation_fraction: float = DEFAULT_SATURATION_FRACTION,
                     stability_tol: float = DEFAULT_STABILITY_TOL) -> TheoremComparison:
    """Run every count-level inequality and estimate-level relation.

    Count-level checks carry zero slack and are binding on cells where both
    sides were solved exactly; greedy cells are reported with exact=False and
    do not fail the run. Estimate-level checks carry ``estimator_tol`` slack,
    except the max-symmetrization identity, which must hold exactly.
    """
    n_list = [int(n) for n in n_list]
    eps_list = [float(e) for e in eps_list]
    orbits = build_orbits(map_spec, cloud, max(n_list), snap_mode=snap_mode,
                          qspec=spec)
    grids, identical = variant_grids(
        spec, orbits, tuple(ENTROPY_VARIANTS), n_list, eps_list,
        exact_threshold=exact_threshold)
    grid_e, grid_de, grid_me = (grids["two_sided"], grids["mean_metric"],
                                grids["max_metric"])

    allc = _all_cells(n_list, eps_list)
    halves = _halving_pairs(n_list, eps_list)

    rows = []
    rows += _ineq_rows("sandwich_two_sided_lower", grid_e, "r1", grid_e, "s1", allc)
    rows += _ineq_rows("sandwich_two_sided_upper", grid_e, "s1", grid_e, "r1", halves)
    rows += _ineq_rows("sandwich_one_sided_lower", grid_e, "r2", grid_e, "s2", allc)
    rows += _ineq_rows("sandwich_one_sided_upper", grid_e, "s2", grid_e, "r2", halves)
    rows += _ineq_rows("variant_span", grid_e, "r2", grid_e, "r1", allc)
    rows += _ineq_rows("variant_sep", grid_e, "s2", grid_e, "s1", allc)
    rows += _ineq_rows("mean_metric_upper", grid_de, "r1", grid_e, "r1", allc)
    # r1 under e at 2*eps <= r1 under mean metric at eps
    rows += _ineq_rows("mean_metric_lower", grid_e, "r1", grid_de, "r1", halves,
                       label_rhs=True)
    for q in ("r1", "s1"):
        for n in n_list:
            for eps in eps_list:
                a = grid_e.cell(n, eps).get(q)
                b = grid_me.cell(n, eps).get(q)
                rows.append(CheckRow(name=f"max_metric_counts_{q}", n=n, eps=eps,
                                     lhs=a.cardinality, rhs=b.cardinality,
                                     ok=a.cardinality == b.cardinality,
                                     exact=True))

    fit = dict(n_burn=n_burn, window_size=window_size,
               saturation_fraction=saturation_fraction,
               stability_tol=stability_tol)
    estimates = {v: estimate_from_grid(grids[v], v, **fit)
                 for v in ENTROPY_VARIANTS}
    h_two = estimates["two_sided"].extrapolated
    h_one = estimates["one_sided"].extrapolated
    h_mean = estimates["mean_metric"].extrapolated
    h_max = estimates["max_metric"].extrapolated
    est_checks = [
        EstimateCheck("max_metric_equals_two_sided", h_max, h_two, 0.0,
                      h_max == h_two),
        EstimateCheck("mean_metric_close_to_two_sided", h_mean, h_two,
                      estimator_tol, abs(h_mean - h_two) <= estimator_tol),
        EstimateCheck("one_sided_below_two_sided", h_one, h_two,
                      estimator_tol, h_one <= h_two + estimator_tol),
    ]

    diagnostics = []
    n_greedy = sum(1 for r in rows if not r.exact)
    if n_greedy:
        diagnostics.append(f"{n_greedy} count checks use greedy cells and are "
                           "informational only")
    binding_ok = all(r.ok for r in rows if r.exact)
    overall = binding_ok and identical and all(c.ok for c in est_checks)
    return TheoremComparison(count_checks=rows, estimate_checks=est_checks,
                             relations_identical=identical,
                             estimates=estimates, diagnostics=diagnostics,
                             overall_ok=overall)


# ---------------------------------------------------------------------------
# power rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerCell:
    n: int
    eps: float
    lhs: int  # one_sided spanning count of the composed map at n
    rhs: int  # one_sided spanning count of the base map at m*n
    ok: bool
    exact: bool

    def to_dict(self) -> dict:
        return {"n": self.n, "epsilon": self.eps, "lhs": self.lhs,
                "rhs": self.rhs, "ok": self.ok, "exact": self.exact}


@dataclass
class PowerRuleReport:
    m: int
    uc_declared: bool
    cells: list
    estimate_composed: Optional[EntropyEstimate]
    estimate_base: Optional[EntropyEstimate]
    target: float
    tol: float
    estimates_ok: bool
    overall_ok: bool
    diagnostics: list

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "uc_declared": self.uc_declared,
            "cells": [c.to_dict() for c in self.cells],
            "estimate_composed": (self.estimate_composed.to_dict()
                                  if self.estimate_composed else None),
            "estimate_base": (self.estimate_base.to_dict()
                              if self.estimate_base else None),
            "target": self.target,
            "tol": self.tol,
            "estimates_ok": self.estimates_ok,
            "overall_ok": self.overall_ok,
            "diagnostics": list(self.diagnostics),
        }


def power_rule_check(map_spec: MapSpec, m: int, cloud: PointCloud,
                     spec: QuasiMetricSpec, n_list: Sequence, eps_list: Sequence, *,
                     exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                     snap_mode: str = "exact",
                     power_tol_rel: float = DEFAULT_POWER_TOL_REL,
                     power_tol_abs: float = DEFAULT_POWER_TOL_ABS,
                     n_burn: int = DEFAULT_N_BURN,
                     window_size: int = 0,
                     saturation_fraction: float = DEFAULT_SATURATION_FRACTION,
                     stability_tol: float = DEFAULT_STABILITY_TOL) -> PowerRuleReport:
    """Check the composition rule: the one_sided entropy of the m-fold composed
    map should be m times the base value, and cell-wise the composed spanning
    count at n never exceeds the base count at m*n."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n_list = [int(n) for n in n_list]
    eps_list = [float(e) for e in eps_list]
    diagnostics: list = []
    uc = bool(map_spec.declared_uniformly_continuous)
    if not uc:
        diagnostics.append("map is not declared uniformly continuous; the "
                           "composition rule is not guaranteed to apply")

    composed = iterate_map(map_spec, m)
    orbits_base = build_orbits(map_spec, cloud, m * max(n_list),
                               snap_mode=snap_mode, qspec=spec)
    orbits_comp = build_orbits(composed, cloud, max(n_list),
                               snap_mode=snap_mode, qspec=spec)

    base_ns = sorted(set(n_list) | {m * n for n in n_list})
    grid_base = count_grid(spec, orbits_base, base_ns, eps_list,
                           exact_threshold=exact_threshold, variants=("one_sided",))
    grid_comp = count_grid(spec, orbits_comp, n_list, eps_list,
                           exact_threshold=exact_threshold, variants=("one_sided",))

    cells = []
    for n in n_list:
        for eps in eps_list:
            lhs = grid_comp.cell(n, eps).get("r2")
            rhs = grid_base.cell(m * n, eps).get("r2")
            cells.append(PowerCell(n=n, eps=eps, lhs=lhs.cardinality,
                                   rhs=rhs.cardinality,
                                   ok=lhs.cardinality <= rhs.cardinality,
                                   exact=lhs.optimal and rhs.optimal))

    fit = dict(n_burn=n_burn, window_size=window_size,
               saturation_fraction=saturation_fraction,
               stability_tol=stability_tol)
    # restrict the base grid to the requested window for a comparable estimate
    base_window = CountGrid(cloud_size=grid_base.cloud_size, n_list=n_list,
                            eps_list=eps_list, variants=("one_sided",),
                            cells={(n, e): grid_base.cell(n, e)
                                   for n in n_list for e in eps_list})
    est_base = estimate_from_grid(base_window, "one_sided", **fit)
    est_comp = estimate_from_grid(grid_comp, "one_sided", **fit)

    target = m * est_base.extrapolated
    tol = max(power_tol_rel * abs(target), power_tol_abs)
    est_ok = abs(est_comp.extrapolated - target) <= tol

    n_greedy = sum(1 for c in cells if not c.exact)
    if n_greedy:
        diagnostics.append(f"{n_greedy} power cells use greedy counts and are "
                           "informational only")
    binding_ok = all(c.ok for c in cells if c.exact)
    overall = uc and binding_ok and est_ok
    return PowerRuleReport(m=m, uc_declared=uc, cells=cells,
                           estimate_composed=est_comp, estimate_base=est_base,
                           target=target, tol=tol, estimates_ok=est_ok,
                           overall_ok=overall, diagnostics=diagnostics)
