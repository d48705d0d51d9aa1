"""Relations, greedy/exact solvers, count grids and their invariants."""
import numpy as np
import pytest

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    build_relation,
    bowen_matrix,
    circle_grid,
    count_grid,
    custom_cloud,
    grid1d,
    index_cloud,
    max_separated,
    min_spanning,
    scaled,
)
from qme.covering import (
    exact_cover,
    exact_separated,
    greedy_cover,
    greedy_separated,
    is_separated_set,
    is_valid_cover,
)

import oracles

LINE = QuasiMetricSpec(kind="asym_line")
ARC = QuasiMetricSpec(kind="circle_arc")
TWO_POINT = QuasiMetricSpec(kind="matrix", matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))
IDENTITY = MapSpec(kind="identity")


def _identity_orbits(cloud, n_max=1):
    return build_orbits(IDENTITY, cloud, n_max)


# --- relations ---------------------------------------------------------------

def test_two_point_relation_at_threshold():
    orbits = _identity_orbits(index_cloud(2))
    g_and = build_relation(TWO_POINT, orbits, 1, 1.5, "two_sided")
    g_or = build_relation(TWO_POINT, orbits, 1, 1.5, "one_sided")
    assert not g_and.cover[0, 1] and not g_and.cover[1, 0]
    assert g_or.cover[0, 1] and g_or.cover[1, 0]


def test_identity_map_relation_independent_of_n():
    cloud = grid1d(0.0, 1.0, 21)
    orbits = _identity_orbits(cloud, n_max=3)
    for variant in ("two_sided", "one_sided"):
        g1 = build_relation(LINE, orbits, 1, 0.25, variant)
        g3 = build_relation(LINE, orbits, 3, 0.25, variant)
        assert np.array_equal(g1.cover, g3.cover)


def test_huge_eps_gives_all_true_cover():
    cloud = grid1d(0.0, 1.0, 12)
    orbits = _identity_orbits(cloud)
    g = build_relation(LINE, orbits, 1, 10.0, "two_sided")
    assert g.cover.all()
    assert min_spanning(g).cardinality == 1
    assert max_separated(g).cardinality == 1


def test_eps_below_min_spacing_gives_identity_cover():
    cloud = grid1d(0.0, 1.0, 12)
    orbits = _identity_orbits(cloud)
    g = build_relation(QuasiMetricSpec(kind="euclidean"), orbits, 1, 1e-9, "two_sided")
    assert np.array_equal(g.cover, np.eye(12, dtype=bool))
    assert min_spanning(g).cardinality == 12
    assert max_separated(g).cardinality == 12


def test_relation_symmetry_and_separation_complement():
    rng = np.random.default_rng(5)
    pts = np.sort(rng.random(15)).reshape(-1, 1)
    cloud = custom_cloud(pts)
    orbits = _identity_orbits(cloud)
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    for variant in ("two_sided", "one_sided"):
        g = build_relation(spec, orbits, 1, 0.3, variant)
        assert np.array_equal(g.cover, g.cover.T)
        assert np.all(np.diagonal(g.cover))
        sep = g.separation
        off = ~np.eye(15, dtype=bool)
        assert np.array_equal(sep[off], ~g.cover[off])
        assert not sep.diagonal().any()


def test_relation_rejects_bad_inputs():
    orbits = _identity_orbits(index_cloud(2))
    with pytest.raises(ValueError):
        build_relation(TWO_POINT, orbits, 1, 0.0, "two_sided")
    with pytest.raises(ValueError):
        build_relation(TWO_POINT, orbits, 2, 0.5, "two_sided")
    with pytest.raises(ValueError):
        build_relation(TWO_POINT, orbits, 1, 0.5, "diagonal")


# --- solvers vs oracles ------------------------------------------------------

def _random_relation(seed, size=None):
    rng = np.random.default_rng(seed)
    n = size or int(rng.integers(6, 15))
    pts = rng.integers(0, 2 ** 16, size=n)
    pts = np.unique(pts).astype(float) / 2 ** 16
    cloud = custom_cloud(pts.reshape(-1, 1))
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    orbits = _identity_orbits(cloud)
    dists = bowen_matrix(spec, orbits, 1)
    positive = dists[dists > 0]
    eps = float(np.quantile(positive, rng.uniform(0.2, 0.7)))
    variant = ("two_sided", "one_sided")[int(rng.integers(0, 2))]
    return build_relation(spec, orbits, 1, eps, variant)


@pytest.mark.parametrize("seed", range(25))
def test_exact_solvers_match_brute_force(seed):
    g = _random_relation(seed)
    cover_ids, _ = exact_cover(g.cover)
    sep_ids, _ = exact_separated(g.cover)
    assert is_valid_cover(g.cover, cover_ids)
    assert is_separated_set(g.cover, sep_ids)
    assert len(cover_ids) == oracles.brute_min_cover(g.cover)
    assert len(sep_ids) == oracles.brute_max_separated(g.cover)


@pytest.mark.parametrize("seed", range(25))
def test_greedy_brackets_exact(seed):
    g = _random_relation(seed + 1000)
    ge_cover = greedy_cover(g.cover)
    ge_sep = greedy_separated(g.cover)
    assert is_valid_cover(g.cover, ge_cover)
    assert is_separated_set(g.cover, ge_sep)
    assert len(ge_cover) >= len(exact_cover(g.cover)[0])
    assert len(ge_sep) <= len(exact_separated(g.cover)[0])


def test_greedy_ties_break_by_lowest_id():
    cover = np.eye(4, dtype=bool)
    cover[0, 1] = cover[1, 0] = True
    cover[2, 3] = cover[3, 2] = True
    assert greedy_cover(cover) == [0, 2]
    assert greedy_separated(cover) == [0, 2]


def test_max_separated_witness_spans():
    # a maximal separated set in the two_sided pairing is itself a cover
    for seed in range(12):
        g = _random_relation(seed + 77)
        exact = max_separated(g, mode="exact")
        assert is_valid_cover(g.cover, exact.witness)
        greedy = max_separated(g, mode="greedy")
        assert is_valid_cover(g.cover, greedy.witness)


def test_solver_modes_and_flags():
    g = _random_relation(3)
    auto = min_spanning(g, mode="auto", exact_threshold=64)
    assert auto.method == "exact_bnb" and auto.optimal
    forced = min_spanning(g, mode="greedy")
    assert forced.method == "greedy" and not forced.optimal
    small = min_spanning(g, mode="auto", exact_threshold=2)
    assert small.method == "greedy"
    with pytest.raises(ValueError):
        min_spanning(g, mode="solve-harder")


# --- frozen 1-D instances ----------------------------------------------------

def test_one_sided_cover_201_grid():
    # identity map, forward-line rule, 201 points on [0, 1], eps = 0.1:
    # one-sided balls are symmetric windows of width 2*eps; the float grid
    # leaves one 20-step window a hair over eps, giving 6 (5 in exact
    # rational arithmetic). The interval sweep is the independent oracle.
    cloud = grid1d(0.0, 1.0, 201)
    orbits = _identity_orbits(cloud)
    g = build_relation(LINE, orbits, 1, 0.1, "one_sided")
    res = min_spanning(g, mode="exact")
    assert res.optimal and is_valid_cover(g.cover, res.witness)
    assert res.cardinality == oracles.interval_min_cover(g.cover) == 6

    g_wide = build_relation(LINE, orbits, 1, 1.0, "one_sided")
    assert min_spanning(g_wide, mode="exact").cardinality == 1


def test_two_sided_cover_201_grid_needs_every_point():
    # the backward direction always costs 1, so for eps < 1 no distinct pair
    # is two-sided close and the minimum cover is the whole cloud
    cloud = grid1d(0.0, 1.0, 201)
    orbits = _identity_orbits(cloud)
    g = build_relation(LINE, orbits, 1, 0.1, "two_sided")
    assert min_spanning(g, mode="greedy").cardinality == 201


def test_one_sided_separated_101_grid():
    # points pairwise farther than 0.4 in both directions on [0, 1]: exactly 3
    cloud = grid1d(0.0, 1.0, 101)
    orbits = _identity_orbits(cloud)
    g = build_relation(LINE, orbits, 1, 0.4, "one_sided")
    res = max_separated(g, mode="exact")
    assert res.cardinality == oracles.interval_max_separated(g.cover) == 3
    assert is_separated_set(g.cover, res.witness)


# --- count grids -------------------------------------------------------------

@pytest.fixture(scope="module")
def doubling_grid():
    cloud = circle_grid(48)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 4)
    return cloud, orbits, count_grid(ARC, orbits, cloud, [1, 2, 3, 4],
                                     [0.5, 0.25, 0.125, 0.0625])


def test_count_grid_single_cell_matches_direct_solvers(doubling_grid):
    cloud, orbits, grid = doubling_grid
    g_and = build_relation(ARC, orbits, 2, 0.25, "two_sided")
    g_or = build_relation(ARC, orbits, 2, 0.25, "one_sided")
    cell = grid.cell(2, 0.25)
    assert cell.r1.cardinality == min_spanning(g_and).cardinality
    assert cell.s1.cardinality == max_separated(g_and).cardinality
    assert cell.r2.cardinality == min_spanning(g_or).cardinality
    assert cell.s2.cardinality == max_separated(g_or).cardinality


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
        count_grid(ARC, orbits, cloud, [2, 1], [0.5])
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, cloud, [1, 2], [])
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, cloud, [1, 3], [0.5])  # beyond n_max
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, cloud, [1], [0.5], variants=("sideways",))


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

    def solve(variant, scale):
        g = build_relation(spec, orbits, n, scale, variant)
        return (min_spanning(g, mode="exact").cardinality,
                max_separated(g, mode="exact").cardinality)

    r1, s1 = solve("two_sided", eps)
    r1_half, _ = solve("two_sided", eps / 2.0)
    r2, s2 = solve("one_sided", eps)
    r2_half, _ = solve("one_sided", eps / 2.0)
    assert r1 <= s1 <= r1_half
    assert r2 <= s2 <= r2_half
    assert r2 <= r1 and s2 <= s1

    from qme import symmetrize_mean, symmetrize_max
    g_de = build_relation(symmetrize_mean(spec), orbits, n, eps, "two_sided")
    r_de = min_spanning(g_de, mode="exact").cardinality
    r1_double, _ = solve("two_sided", 2.0 * eps)
    assert r1_double <= r_de <= r1

    g_me = build_relation(symmetrize_max(spec), orbits, n, eps, "two_sided")
    g_e = build_relation(spec, orbits, n, eps, "two_sided")
    assert np.array_equal(g_me.cover, g_e.cover)


@pytest.mark.parametrize("seed", range(8))
def test_scaling_rescales_cells(seed):
    spec, orbits, cloud, n, eps = _random_system(seed + 500)
    doubled = scaled(spec, 2.0)
    for variant in ("two_sided", "one_sided"):
        g_scaled = build_relation(doubled, orbits, n, eps, variant)
        g_matched = build_relation(spec, orbits, n, eps / 2.0, variant)
        assert np.array_equal(g_scaled.cover, g_matched.cover)


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
                g = build_relation(spec, orbits, n, eps, variant)
                gh = build_relation(spec, orbits, n, eps / 2.0, variant)
                r = min_spanning(g, mode="exact").cardinality
                s = max_separated(g, mode="exact").cardinality
                r_half = min_spanning(gh, mode="exact").cardinality
                assert r <= s <= r_half
                counts[variant] = (r, s)
            assert counts["one_sided"][0] <= counts["two_sided"][0]
            assert counts["one_sided"][1] <= counts["two_sided"][1]
