"""Relations, greedy/exact solvers, count grids and their invariants.

Counts come from ``count_grid``; a test that needs a cover matrix takes the
untiled reference ``oracles.relation`` (bit-identical to the pipeline's covers,
see test_tiling.py) and calls the solvers on it directly.
"""
import numpy as np
import pytest

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    circle_grid,
    count_grid,
    custom_cloud,
    grid1d,
    index_cloud,
    scaled,
)
from qme.covering import (
    QUANTITIES,
    QUANTITY_PAIRS,
    exact_cover,
    exact_separated,
    greedy_cover,
    greedy_separated,
)

import oracles
from oracles import is_separated_set, is_valid_cover

LINE = QuasiMetricSpec(kind="asym_line")
ARC = QuasiMetricSpec(kind="circle_arc")
TWO_POINT = QuasiMetricSpec(kind="matrix", matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
IDENTITY = MapSpec(kind="identity")


def _identity_orbits(cloud, n_max=1):
    return build_orbits(IDENTITY, cloud, n_max)


def _counts(spec, orbits, n, eps, variant, exact_threshold):
    """(spanning, separated) CountResults of one variant at one (n, eps) cell."""
    cell = count_grid(spec, orbits, [n], [eps], exact_threshold=exact_threshold,
                      variants=(variant,)).cell(n, eps)
    return tuple(cell.get(q) for q in QUANTITY_PAIRS[variant])


# --- relations ---------------------------------------------------------------

def test_two_point_relation_at_threshold():
    # e(0, 1) = 1 <= 1.5 < 2 = e(1, 0): the pair is close one way only
    orbits = _identity_orbits(index_cloud(2))
    cell = count_grid(TWO_POINT, orbits, [1], [1.5], exact_threshold=2).cell(1, 1.5)
    assert cell.r1.cardinality == cell.s1.cardinality == 2
    assert cell.r2.cardinality == cell.s2.cardinality == 1


def test_identity_map_relation_independent_of_n():
    cloud = grid1d(0.0, 1.0, 21)
    orbits = _identity_orbits(cloud, n_max=3)
    for threshold in (len(cloud), 0):
        grid = count_grid(LINE, orbits, [1, 3], [0.25], exact_threshold=threshold)
        for q in QUANTITIES:
            assert grid.cell(1, 0.25).get(q) == grid.cell(3, 0.25).get(q)


def test_huge_eps_gives_all_true_cover():
    # one separated point means every pair is covered
    cloud = grid1d(0.0, 1.0, 12)
    orbits = _identity_orbits(cloud)
    r1, s1 = _counts(LINE, orbits, 1, 10.0, "two_sided", 64)
    assert r1.cardinality == 1
    assert s1.cardinality == 1


def test_eps_below_min_spacing_gives_identity_cover():
    # a cover needs every point only when no point covers another
    cloud = grid1d(0.0, 1.0, 12)
    orbits = _identity_orbits(cloud)
    r1, s1 = _counts(QuasiMetricSpec(kind="euclidean"), orbits, 1, 1e-9,
                     "two_sided", 64)
    assert r1.cardinality == 12
    assert s1.cardinality == 12


def test_relation_symmetric_with_full_diagonal():
    rng = np.random.default_rng(5)
    pts = np.sort(rng.random(15)).reshape(-1, 1)
    cloud = custom_cloud(pts)
    orbits = _identity_orbits(cloud)
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    for variant in ("two_sided", "one_sided"):
        cover = oracles.relation(spec, orbits, 1, 0.3, variant)
        assert np.array_equal(cover, cover.T)
        assert np.all(np.diagonal(cover))


# --- solvers vs oracles ------------------------------------------------------

def _random_case(seed):
    """(spec, orbits, n, eps, variant) of a random weighted_asym cell at n = 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 15))
    pts = rng.integers(0, 2 ** 16, size=n)
    pts = np.unique(pts).astype(float) / 2 ** 16
    cloud = custom_cloud(pts.reshape(-1, 1))
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    orbits = _identity_orbits(cloud)
    dists = oracles.naive_bowen(spec, orbits, 1)
    positive = dists[dists > 0]
    eps = float(np.quantile(positive, rng.uniform(0.2, 0.7)))
    variant = ("two_sided", "one_sided")[int(rng.integers(0, 2))]
    return spec, orbits, 1, eps, variant


def _random_relation(seed):
    return oracles.relation(*_random_case(seed))


@pytest.mark.parametrize("seed", range(25))
def test_exact_solvers_match_brute_force(seed):
    cover = _random_relation(seed)
    cover_ids, _ = exact_cover(cover)
    sep_ids, _ = exact_separated(cover)
    assert is_valid_cover(cover, cover_ids)
    assert is_separated_set(cover, sep_ids)
    assert len(cover_ids) == oracles.brute_min_cover(cover)
    assert len(sep_ids) == oracles.brute_max_separated(cover)


@pytest.mark.parametrize("seed", range(25))
def test_greedy_brackets_exact(seed):
    cover = _random_relation(seed + 1000)
    ge_cover = greedy_cover(cover)
    ge_sep = greedy_separated(cover)
    assert is_valid_cover(cover, ge_cover)
    assert is_separated_set(cover, ge_sep)
    assert len(ge_cover) >= len(exact_cover(cover)[0])
    assert len(ge_sep) <= len(exact_separated(cover)[0])


def test_greedy_ties_break_by_lowest_id():
    cover = np.eye(4, dtype=bool)
    cover[0, 1] = cover[1, 0] = True
    cover[2, 3] = cover[3, 2] = True
    assert greedy_cover(cover) == [0, 2]
    assert greedy_separated(cover) == [0, 2]


def test_max_separated_witness_spans():
    # a maximal separated set in the two_sided pairing is itself a cover
    for seed in range(12):
        case = _random_case(seed + 77)
        cover = oracles.relation(*case)
        for threshold in (len(cover), 0):  # exact, then greedy
            _, sep = _counts(*case, threshold)
            assert is_valid_cover(cover, sep.witness)


def test_solver_modes_and_flags():
    case = _random_case(3)
    auto, _ = _counts(*case, exact_threshold=64)
    assert auto.method == "exact_bnb" and auto.optimal
    forced, _ = _counts(*case, exact_threshold=0)
    assert forced.method == "greedy" and not forced.optimal
    small, _ = _counts(*case, exact_threshold=2)
    assert small.method == "greedy"


# --- frozen 1-D instances ----------------------------------------------------

def test_one_sided_cover_201_grid():
    # identity map, forward-line rule, 201 points on [0, 1], eps = 0.1:
    # one-sided balls are symmetric windows of width 2*eps; the float grid
    # leaves one 20-step window a hair over eps, giving 6 (5 in exact
    # rational arithmetic). The interval sweep is the independent oracle.
    cloud = grid1d(0.0, 1.0, 201)
    orbits = _identity_orbits(cloud)
    res, _ = _counts(LINE, orbits, 1, 0.1, "one_sided", len(cloud))
    cover = oracles.relation(LINE, orbits, 1, 0.1, "one_sided")
    assert res.optimal and is_valid_cover(cover, res.witness)
    assert res.cardinality == oracles.interval_min_cover(cover) == 6

    wide, _ = _counts(LINE, orbits, 1, 1.0, "one_sided", len(cloud))
    assert wide.cardinality == 1


def test_two_sided_cover_201_grid_needs_every_point():
    # the backward direction always costs 1, so for eps < 1 no distinct pair
    # is two-sided close and the minimum cover is the whole cloud
    cloud = grid1d(0.0, 1.0, 201)
    orbits = _identity_orbits(cloud)
    res, _ = _counts(LINE, orbits, 1, 0.1, "two_sided", 0)
    assert res.cardinality == 201


def test_one_sided_separated_101_grid():
    # points pairwise farther than 0.4 in both directions on [0, 1]: exactly 3
    cloud = grid1d(0.0, 1.0, 101)
    orbits = _identity_orbits(cloud)
    _, res = _counts(LINE, orbits, 1, 0.4, "one_sided", len(cloud))
    cover = oracles.relation(LINE, orbits, 1, 0.4, "one_sided")
    assert res.cardinality == oracles.interval_max_separated(cover) == 3
    assert is_separated_set(cover, res.witness)


# --- count grids -------------------------------------------------------------

@pytest.fixture(scope="module")
def doubling_grid():
    cloud = circle_grid(48)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 4)
    return cloud, orbits, count_grid(ARC, orbits, [1, 2, 3, 4],
                                     [0.5, 0.25, 0.125, 0.0625])


def test_count_grid_single_cell_matches_direct_solvers(doubling_grid):
    cloud, orbits, grid = doubling_grid
    cell = grid.cell(2, 0.25)
    for variant, (r, s) in QUANTITY_PAIRS.items():
        cover = oracles.relation(ARC, orbits, 2, 0.25, variant)
        assert cell.get(r).cardinality == len(exact_cover(cover)[0])
        assert cell.get(s).cardinality == len(exact_separated(cover)[0])


def test_count_grid_monotone_without_diagnostics(doubling_grid):
    _, _, grid = doubling_grid
    assert grid.diagnostics == []
    assert grid.all_exact()
    for q in ("r1", "s1", "r2", "s2"):
        vals = grid.counts(q)
        for n in grid.n_list:
            seq = [vals[(n, e)] for e in grid.eps_list]
            assert seq == sorted(seq)  # eps shrinks left to right, counts grow
        for e in grid.eps_list:
            seq = [vals[(n, e)] for n in grid.n_list]
            assert seq == sorted(seq)  # counts nondecreasing in n


def test_count_grid_rows_schema(doubling_grid):
    _, _, grid = doubling_grid
    rows = grid.to_rows()
    assert len(rows) == 4 * 4 * 4
    assert set(rows[0]) == {"n", "epsilon", "variant", "quantity",
                            "cardinality", "method", "optimal"}
    assert {r["quantity"] for r in rows} == {"r1", "s1", "r2", "s2"}
    assert {r["variant"] for r in rows} == {"two_sided", "one_sided"}


def test_count_grid_validates_schedules():
    cloud = circle_grid(8)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 2)
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [2, 1], [0.5])
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [1, 2], [])
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [1], [0.0])  # eps not above 0
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [1, 3], [0.5])  # beyond n_max
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [1], [0.5], variants=("sideways",))
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [0, 1], [0.5])  # n below 1


# --- theorem-shaped properties on random instances ---------------------------

def _random_system(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(8, 21))
    if rng.integers(0, 2):
        cloud = circle_grid(size)
        spec = ARC
        map_spec = MapSpec(kind="doubling")
    else:
        cloud = grid1d(0.0, 1.0, size)
        spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
        map_spec = IDENTITY
    n = int(rng.integers(1, 4))
    orbits = build_orbits(map_spec, cloud, n)
    eps = float(2.0 ** -int(rng.integers(1, 5)))
    return spec, orbits, cloud, n, eps


@pytest.mark.parametrize("seed", range(20))
def test_sandwich_battery_random_instances(seed):
    spec, orbits, cloud, n, eps = _random_system(seed)

    def solve(variant, scale, rule=spec):
        r, s = _counts(rule, orbits, n, scale, variant, len(cloud))
        return r.cardinality, s.cardinality

    r1, s1 = solve("two_sided", eps)
    r1_half, _ = solve("two_sided", eps / 2.0)
    r2, s2 = solve("one_sided", eps)
    r2_half, _ = solve("one_sided", eps / 2.0)
    assert r1 <= s1 <= r1_half
    assert r2 <= s2 <= r2_half
    assert r2 <= r1 and s2 <= s1

    from qme import symmetrize_mean, symmetrize_max
    r_de, _ = solve("two_sided", eps, rule=symmetrize_mean(spec))
    r1_double, _ = solve("two_sided", 2.0 * eps)
    assert r1_double <= r_de <= r1

    cover_me = oracles.relation(symmetrize_max(spec), orbits, n, eps, "two_sided")
    cover_e = oracles.relation(spec, orbits, n, eps, "two_sided")
    assert np.array_equal(cover_me, cover_e)


@pytest.mark.parametrize("seed", range(8))
def test_scaling_rescales_cells(seed):
    spec, orbits, cloud, n, eps = _random_system(seed + 500)
    doubled = scaled(spec, 2.0)
    for variant in ("two_sided", "one_sided"):
        cover_scaled = oracles.relation(doubled, orbits, n, eps, variant)
        cover_matched = oracles.relation(spec, orbits, n, eps / 2.0, variant)
        assert np.array_equal(cover_scaled, cover_matched)


def test_sandwich_battery_asymmetric_blocks():
    # shift dynamics with the weighted block rule: the only built-in whose
    # asymmetry interacts with the orbit maximum; all four sandwich and both
    # variant-order inequalities hold on every probed cell
    from qme import MapSpec, symbol_blocks
    cloud = symbol_blocks(2, 5)
    spec = QuasiMetricSpec(kind="block_prefix_asym")
    orbits = build_orbits(MapSpec(kind="shift_left"), cloud, 3)
    for n in (1, 2, 3):
        for eps in (0.5, 0.25):
            counts = {}
            for variant in ("two_sided", "one_sided"):
                r, s = (c.cardinality for c in
                        _counts(spec, orbits, n, eps, variant, len(cloud)))
                r_half, _ = _counts(spec, orbits, n, eps / 2.0, variant, len(cloud))
                assert r <= s <= r_half.cardinality
                counts[variant] = (r, s)
            assert counts["one_sided"][0] <= counts["two_sided"][0]
            assert counts["one_sided"][1] <= counts["two_sided"][1]
