"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines. Two sub-criteria assert upstream-stated values that exhaustive
oracles refute; they are marked strict-xfail with the oracle-computed truth
recorded next to them, and their oracle-corrected twins live in the regular
test modules.
"""
import math
import time

import numpy as np
import pytest

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    check_axioms,
    circle_grid,
    count_grid,
    custom_cloud,
    grid1d,
    index_cloud,
    power_rule_check,
    symbol_blocks,
    symmetrize_max,
    symmetrize_mean,
)
from qme.cli import main
from qme.entropy import estimate_from_grid

import oracles
from oracles import estimate_entropy

ARC = QuasiMetricSpec(kind="circle_arc")
LINE = QuasiMetricSpec(kind="asym_line")
LOG2 = math.log(2.0)

N_SWEEP = [1, 2, 3, 4]
EPS_SWEEP = [0.5, 0.25, 0.125, 0.0625]


def _verdict(num, ok, desc):
    print(f"ACCEPTANCE {num:>3} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def sweep():
    """Exact count grids for the two reference systems over the shared
    schedule, plus the wall time spent building them."""
    t0 = time.perf_counter()
    systems = {}
    for label, cloud, spec, map_spec in [
        ("doubling/circle48", circle_grid(48), ARC, MapSpec(kind="doubling")),
        ("identity/line48", grid1d(0.0, 1.0, 48), LINE, MapSpec(kind="identity")),
    ]:
        orbits = build_orbits(map_spec, cloud, max(N_SWEEP))
        grids = {
            "e": count_grid(spec, orbits, N_SWEEP, EPS_SWEEP),
            "de": count_grid(symmetrize_mean(spec), orbits, N_SWEEP,
                             EPS_SWEEP, variants=("two_sided",)),
            "me": count_grid(symmetrize_max(spec), orbits, N_SWEEP,
                             EPS_SWEEP, variants=("two_sided",)),
        }
        systems[label] = (cloud, spec, orbits, grids)
    return systems, time.perf_counter() - t0


def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    report = check_axioms(LINE, grid1d(-2.0, 2.0, 50), triple_budget=200_000)
    elapsed = time.perf_counter() - t0
    violator = QuasiMetricSpec(kind="matrix",
                               matrix=np.array([[0.0, 1.0, 5.0],
                                                [1.0, 0.0, 1.0],
                                                [5.0, 1.0, 0.0]]))
    vreport = check_axioms(violator, index_cloud(3), triple_budget=1000)
    ok = (report.exhaustive and report.triples_checked == 125_000
          and report.all_ok and elapsed < 1.0
          and not vreport.triangle_ok
          and (0, 1, 2, 5.0, 2.0) in vreport.violations)
    _verdict(1, ok, f"exhaustive axiom suite on 125000 triples in {elapsed:.3f}s; "
                    "3-point violator detected")


def test_criterion_2_sandwich_exactness(sweep):
    systems, build_time = sweep
    ok = True
    for label, (cloud, spec, orbits, grids) in systems.items():
        grid = grids["e"]
        ok &= grid.all_exact()
        for n in N_SWEEP:
            for eps in EPS_SWEEP:
                cell = grid.cell(n, eps)
                ok &= cell.r1.cardinality <= cell.s1.cardinality
                ok &= cell.r2.cardinality <= cell.s2.cardinality
            for hi, lo in zip(EPS_SWEEP, EPS_SWEEP[1:]):
                ok &= (grid.cell(n, hi).s1.cardinality
                       <= grid.cell(n, lo).r1.cardinality)
                ok &= (grid.cell(n, hi).s2.cardinality
                       <= grid.cell(n, lo).r2.cardinality)
    _verdict(2, ok and build_time < 60.0,
             f"span <= separated <= span(eps/2) exact in every cell, both "
             f"pairings, both systems ({build_time:.2f}s exact sweep)")


def test_criterion_3_variant_ordering(sweep):
    systems, _ = sweep
    ok = True
    for label, (cloud, spec, orbits, grids) in systems.items():
        grid = grids["e"]
        for n in N_SWEEP:
            for eps in EPS_SWEEP:
                cell = grid.cell(n, eps)
                ok &= cell.r2.cardinality <= cell.r1.cardinality
                ok &= cell.s2.cardinality <= cell.s1.cardinality
    two_point = QuasiMetricSpec(kind="matrix",
                                matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
    orbits2 = build_orbits(MapSpec(kind="identity"), index_cloud(2), 1)
    cell = count_grid(two_point, orbits2, [1], [1.5], exact_threshold=2).cell(1, 1.5)
    r1, r2 = cell.r1.cardinality, cell.r2.cardinality
    ok &= (r2 == 1 and r1 == 2)
    _verdict(3, ok, "one_sided counts never exceed two_sided counts; "
                    f"strict gap witnessed (r2={r2} < r1={r1} at eps=1.5)")


def test_criterion_4_max_metric_identity(sweep):
    systems, _ = sweep
    ok = True
    for label, (cloud, spec, orbits, grids) in systems.items():
        me_spec = symmetrize_max(spec)
        for n in N_SWEEP:
            de = oracles.naive_bowen(spec, orbits, n)
            dme = oracles.naive_bowen(me_spec, orbits, n)
            for eps in EPS_SWEEP:
                cov_e = (de <= eps) & (de.T <= eps)
                cov_me = (dme <= eps) & (dme.T <= eps)
                ok &= bool(np.array_equal(cov_e, cov_me))
        for q in ("r1", "s1"):
            ok &= grids["e"].counts(q) == grids["me"].counts(q)
        est_e = estimate_from_grid(grids["e"], "two_sided")
        est_me = estimate_from_grid(grids["me"], "max_metric")
        ok &= est_e.extrapolated == est_me.extrapolated
        ok &= [p.slope for p in est_e.per_epsilon_slopes] == \
            [p.slope for p in est_me.per_epsilon_slopes]
    _verdict(4, ok, "two_sided relation under e bitwise equals the max-metric "
                    "relation; counts and estimates identical")


def test_criterion_5_mean_metric_sandwich(sweep):
    systems, _ = sweep
    ok = True
    for label, (cloud, spec, orbits, grids) in systems.items():
        ge, gde = grids["e"], grids["de"]
        ok &= gde.all_exact()
        for n in N_SWEEP:
            for eps in EPS_SWEEP:
                ok &= (gde.cell(n, eps).r1.cardinality
                       <= ge.cell(n, eps).r1.cardinality)
            for hi, lo in zip(EPS_SWEEP, EPS_SWEEP[1:]):
                ok &= (ge.cell(n, hi).r1.cardinality
                       <= gde.cell(n, lo).r1.cardinality)
    _verdict(5, ok, "span(2eps, e) <= span(eps, mean metric) <= span(eps, e) "
                    "exact in every cell")


def test_criterion_6_identity_zero_entropy():
    ok = True
    for cloud, spec in [(grid1d(0.0, 1.0, 48), LINE), (circle_grid(48), ARC)]:
        for variant in ("two_sided", "one_sided", "mean_metric", "max_metric"):
            est = estimate_entropy(MapSpec(kind="identity"), cloud, spec,
                                   variant, N_SWEEP, EPS_SWEEP)
            ok &= est.extrapolated == 0.0
    _verdict(6, ok, "identity map: all four estimates exactly 0")


def test_criterion_7_doubling_entropy():
    t0 = time.perf_counter()
    est = estimate_entropy(MapSpec(kind="doubling"), circle_grid(4096), ARC,
                           "two_sided", list(range(2, 10)),
                           [2.0 ** -k for k in range(3, 8)])
    elapsed = time.perf_counter() - t0
    slope_2_6 = [p for p in est.per_epsilon_slopes if p.eps == 2.0 ** -6][0].slope
    ok = (0.55 <= est.extrapolated <= 0.80 and 0.55 <= slope_2_6 <= 0.80
          and elapsed < 120.0)
    _verdict(7, ok, f"doubling on 4096-point circle: extrapolated "
                    f"{est.extrapolated:.4f} in [0.55, 0.80], slope at "
                    f"eps=2^-6 {slope_2_6:.4f} (target log 2 = {LOG2:.4f}; "
                    f"{elapsed:.1f}s)")


@pytest.fixture(scope="module")
def shift_system():
    cloud = symbol_blocks(2, 10)
    spec = QuasiMetricSpec(kind="block_prefix")
    orbits = build_orbits(MapSpec(kind="shift_left"), cloud, 6)
    return cloud, spec, orbits


def _direct_block_separated(cloud, n, eps):
    """Separation predicate from the raw definition: shift lists by hand,
    compare symbol by symbol, no pipeline code involved."""
    blocks = cloud.points.astype(int).tolist()
    length = len(blocks[0])

    def e_of(a, b):
        for j, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return 2.0 ** -j
        return 0.0

    def orbit_dist(i, j):
        best = 0.0
        a, b = blocks[i], blocks[j]
        for step in range(n):
            shifted_a = a[step:] + [0] * step
            shifted_b = b[step:] + [0] * step
            best = max(best, e_of(shifted_a, shifted_b))
        return best

    return lambda i, j: orbit_dist(i, j) > eps


def test_criterion_8_shift_entropy(shift_system):
    cloud, spec, orbits = shift_system
    grid = count_grid(spec, orbits, list(range(1, 7)),
                      [2.0 ** -3, 2.0 ** -4], variants=("two_sided",))
    est = estimate_from_grid(grid, "two_sided")
    ok = abs(est.extrapolated - LOG2) <= 0.2 * LOG2
    _verdict("8a", ok, f"full-shift entropy {est.extrapolated:.4f} within 20% "
                       f"of log 2")


@pytest.mark.xfail(strict=True,
                   reason="stated count 2^n conflicts with the enumeration "
                          "oracle, which gives 2^(n+3) at eps=2^-4 (the scale "
                          "window adds log2(1/eps) - 1 symbols)")
def test_criterion_8_count_oracle_as_stated(shift_system):
    cloud, spec, orbits = shift_system
    ok = True
    observed = {}
    grid = count_grid(spec, orbits, list(range(1, 7)), [2.0 ** -4],
                      exact_threshold=0, variants=("two_sided",))
    for n in range(1, 7):
        solver = grid.cell(n, 2.0 ** -4).s1.cardinality
        sep = _direct_block_separated(cloud, n, 2.0 ** -4)
        oracle = len(oracles.shift_first_fit_separated(cloud.points, sep))
        observed[n] = (solver, oracle)
        ok &= solver == oracle == 2 ** n
    _verdict("8b", ok, f"stated separated count 2^n at eps=2^-4 "
                       f"(observed solver==oracle: "
                       f"{ {n: v[0] for n, v in observed.items()} })")


def test_criterion_9_power_rule():
    report = power_rule_check(MapSpec(kind="doubling"), 2, circle_grid(1024),
                              ARC, [2, 3, 4], [0.25, 0.125],
                              power_tol_rel=0.20, power_tol_abs=0.05)
    cells_ok = all(c.ok for c in report.cells)
    ok = report.uc_declared and cells_ok and report.estimates_ok
    _verdict(9, ok, f"composed-map span count <= base count at 2n in every "
                    f"cell; estimate {report.estimate_composed.extrapolated:.4f} "
                    f"vs target {report.target:.4f} within {report.tol:.4f}")


@pytest.fixture(scope="module")
def span_grid_201():
    cloud = grid1d(0.0, 1.0, 201)
    orbits = build_orbits(MapSpec(kind="identity"), cloud, 1)
    return cloud, orbits


@pytest.mark.xfail(strict=True,
                   reason="stated bracket {20, 21, 22} tracks the exhibited "
                          "span construction (~2/eps points at eps/2 spacing), "
                          "but brute-force/interval-sweep minimum is 6: "
                          "one-sided balls have width 2*eps")
def test_criterion_10_span_bracket_as_stated(span_grid_201):
    cloud, orbits = span_grid_201
    res = count_grid(LINE, orbits, [1], [0.1], exact_threshold=len(cloud),
                     variants=("one_sided",)).cell(1, 0.1).r2
    oracle = oracles.interval_min_cover(
        oracles.relation(LINE, orbits, 1, 0.1, "one_sided"))
    ok = res.cardinality == oracle and res.cardinality in (20, 21, 22)
    _verdict("10a", ok, f"one_sided exact minimum cover at eps=0.1 in "
                        f"{{20,21,22}} (solver=oracle={res.cardinality})")


def test_criterion_10_large_eps_minimum_is_one(span_grid_201):
    cloud, orbits = span_grid_201
    grid = count_grid(LINE, orbits, [1], [1.5, 1.0], exact_threshold=len(cloud),
                      variants=("one_sided",))
    ok = all(grid.cell(1, eps).r2.cardinality == 1 for eps in (1.0, 1.5))
    _verdict("10b", ok, "one_sided minimum cover is 1 for eps >= 1")


def test_criterion_11_greedy_exact_oracle():
    from qme import custom_cloud, pairwise
    from qme.covering import (exact_cover, exact_separated, greedy_cover,
                              greedy_separated)
    base_seed = 20260810
    checked = 0
    ok = True
    for i in range(200):
        rng = np.random.default_rng(base_seed + i)
        size = int(rng.integers(8, 65))
        dim = int(rng.integers(1, 3))
        pts = rng.integers(0, 2 ** 20, size=(size, dim)).astype(float) / 2 ** 20
        pts += np.arange(size)[:, None] * 2.0 ** -40  # force distinct rows
        cloud = custom_cloud(pts)
        spec = (QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
                if rng.integers(0, 2) else QuasiMetricSpec(kind="euclidean"))
        sym = np.maximum(pairwise(spec, pts, pts), pairwise(spec, pts, pts).T)
        positive = np.unique(sym[sym > 0])
        eps = float(positive[int(rng.integers(len(positive) // 10,
                                              max(len(positive) // 2,
                                                  len(positive) // 10 + 1)))])
        orbits = build_orbits(MapSpec(kind="identity"), cloud, 1)
        variant = ("two_sided", "one_sided")[int(rng.integers(0, 2))]
        cover = oracles.relation(spec, orbits, 1, eps, variant)
        exact_c, _ = exact_cover(oracles.csr(cover))
        exact_s, _ = exact_separated(oracles.csr(cover))
        ok &= len(greedy_cover(oracles.csr(cover))) >= len(exact_c)
        ok &= len(greedy_separated(oracles.csr(cover))) <= len(exact_s)
        checked += 1
    _verdict(11, ok and checked == 200,
             f"greedy cover >= exact and greedy separated <= exact on "
             f"{checked} seeded instances (size <= 64)")


def test_criterion_12_determinism(tmp_path):
    config = """\
map:
  kind: doubling
cloud:
  kind: circle_grid
  count: 48
qmetric:
  kind: circle_arc
schedule:
  n_list: [1, 2, 3, 4]
  eps_list: [0.5, 0.25, 0.125, 0.0625]
output:
  dir: {out}
"""
    path = tmp_path / "run.yaml"
    path.write_text(config.format(out=tmp_path / "a"))
    ok = True
    for cmd, files in [("counts", ("counts.csv", "counts.json")),
                       ("entropy", ("entropy.json", "slopes.csv"))]:
        assert main([cmd, "--config", str(path)]) == 0
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        for name in files:
            ok &= ((tmp_path / "a" / name).read_bytes()
                   == (tmp_path / "b" / name).read_bytes())
    _verdict(12, ok, "reruns produce byte-identical CSV and JSON outputs")


def _golden_mean_cloud(size: int) -> tuple:
    """(cloud, word count): ``size`` of the 24-bit words with no two adjacent
    1s, drawn with ``default_rng(1)``, sorted and divided by 2^24."""
    words = np.array([0])
    for _ in range(24):  # append a 0 to every word, and a 1 to those ending in 0
        words = np.concatenate([words << 1, (words[(words & 1) == 0] << 1) | 1])
    sample = np.random.default_rng(1).choice(np.sort(words), size, replace=False)
    return custom_cloud((np.sort(sample) / 2.0 ** 24).reshape(-1, 1)), len(words)


def test_criterion_13_golden_mean_counts():
    """Separated counts of the golden-mean shift against theory.

    The 24-bit words with no two adjacent 1s (F(26) = 121,393 of them) are a
    set the doubling map keeps: it shifts the bits left. Its entropy is
    log phi = 0.4812 (Lind & Marcus 1995, An Introduction to Symbolic
    Dynamics and Coding, section 4.1). There are F(L + 2) such words of
    length L, and two points with the same first n + k - 1 bits stay within
    2^-k for n steps, so s1(n, 2^-k) <= F(n + k + 1), and a separated set of
    that size is optimal. On 4096 sampled words every cell whose bound is at
    most 377 (under 0.1 N) reaches it.

    Measured, not asserted: the other 6 cells fall short (1,309 against
    1,597 at n = 9, eps = 2^-7). The separated slope reads 0.4814 at 2^-3
    but 0.4586 at 2^-7, and the estimate reports the finest eps's slope, so
    it reads 0.023 below log phi: finite sampling at the finest scale, not
    the fit and not the saturation filter, which keeps every cell here.
    """
    cloud, words = _golden_mean_cloud(4096)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 9)
    grid = count_grid(ARC, orbits, list(range(2, 10)), [2.0 ** -k for k in range(3, 8)],
                      exact_threshold=0, variants=("two_sided",))
    fib = [0, 1]
    while len(fib) < 18:
        fib.append(fib[-1] + fib[-2])
    within = matched = small = 0
    for n in range(2, 10):
        for k in range(3, 8):
            s1, bound = grid.cell(n, 2.0 ** -k).s1.cardinality, fib[n + k + 1]
            within += s1 <= bound
            if bound <= 377:
                small += 1
                matched += s1 == bound
    ok = words == 121_393 and within == 40 and matched == small == 34
    _verdict(13, ok, f"golden-mean shift on 4096 points: {within}/40 separated counts "
                     f"<= F(n + k + 1), {matched}/{small} equal where F(n + k + 1) <= 377")


def test_criterion_13_golden_mean_slopes():
    """At 16384 sampled words of criterion 13's golden-mean shift, the
    separated slope (greedy, two_sided) at every eps of 2^-3..2^-7 is within
    0.001 of log phi = 0.48121: the finest scale's shortfall at 4096 points
    is gone. Measured: 0.4811-0.4814."""
    cloud, _ = _golden_mean_cloud(16384)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 9)
    grid = count_grid(ARC, orbits, list(range(2, 10)), [2.0 ** -k for k in range(3, 8)],
                      exact_threshold=0, variants=("two_sided",))
    slopes = [s.slope for s in estimate_from_grid(grid, "two_sided").per_epsilon_slopes]
    log_phi = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    ok = len(slopes) == 5 and all(abs(s - log_phi) <= 0.001 for s in slopes)
    _verdict(13, ok, "golden-mean shift on 16384 points: separated slopes "
                     f"{', '.join(f'{s:.4f}' for s in slopes)} within 0.001 of log phi "
                     f"{log_phi:.4f}")
