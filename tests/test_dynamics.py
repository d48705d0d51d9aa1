"""Cloud construction, map catalog and orbit tables."""
import numpy as np
import pytest

import qme.dynamics

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    circle_grid,
    cloud_from_csv,
    custom_cloud,
    grid1d,
    iterate_map,
    pairwise,
    symbol_blocks,
    symmetrize_mean,
)
from qme.dynamics import DYADIC_QUANTUM, PointCloud


def test_grid1d_sorted_distinct_dyadic():
    cloud = grid1d(-2.0, 2.0, 50)
    x = cloud.points[:, 0]
    assert len(cloud) == 50 and cloud.dim == 1
    assert np.all(np.diff(x) > 0)
    assert x[0] == -2.0 and x[-1] == 2.0
    scaled = x / DYADIC_QUANTUM
    assert np.array_equal(scaled, np.round(scaled))


def test_circle_grid_in_unit_interval():
    cloud = circle_grid(48)
    x = cloud.points[:, 0]
    assert x[0] == 0.0 and np.all(x >= 0.0) and np.all(x < 1.0)
    assert np.all(np.diff(x) > 0)


def test_duplicate_coordinates_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        custom_cloud([[0.0], [1.0], [0.0]])


@pytest.mark.parametrize("points", [
    [0.0, 1.0, 0.0],                          # 1-D
    [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],     # 2-D, not adjacent
    [[1.0, 2.0], [1.0, 3.0], [1.0, 2.0]],     # 2-D, equal first columns
    [[0.0], [1.0], [-0.0]],                   # signed zero
    [[0.5, -0.0], [0.5, 0.0]],
])
def test_duplicate_rows_rejected(points):
    with pytest.raises(ValueError, match="duplicate"):
        custom_cloud(points)


@pytest.mark.parametrize("points", [
    [0.0, 1.0, 0.5],
    [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]],
    [[1.0, 2.0], [2.0, 1.0]],
    [[0.0]],
])
def test_distinct_coordinates_accepted(points):
    assert len(custom_cloud(points)) == len(points)


@pytest.mark.parametrize("points", [[[0.1], [0.3]], [0.1, 0.3], [[0.1, 0.0], [0.3, 0.0]]])
def test_cloud_keeps_its_own_points(points):
    # writing to the caller's array after construction leaves the cloud as
    # validated (no duplicate point), and the caller's array writable
    caller = np.array(points)
    for cloud in (custom_cloud(caller), PointCloud(points=caller)):
        caller[0] = 0.3
        assert cloud.points[0, 0] == 0.1 and len(np.unique(cloud.points, axis=0)) == 2
        assert not cloud.points.flags.writeable
        caller[0] = 0.1


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        PointCloud(points=np.zeros((0, 1)))


def test_symbol_blocks_enumeration():
    cloud = symbol_blocks(2, 4)
    assert len(cloud) == 16 and cloud.dim == 4
    assert np.array_equal(cloud.points[0], [0, 0, 0, 0])
    assert np.array_equal(cloud.points[-1], [1, 1, 1, 1])
    with pytest.raises(ValueError):
        symbol_blocks(2, 25)  # over the block cap
    with pytest.raises(ValueError):
        symbol_blocks(1, 3)


def test_cloud_csv_roundtrip(tmp_path):
    path = tmp_path / "cloud.csv"
    path.write_text("0.0,1.0\n0.5,0.25\n")
    cloud = cloud_from_csv(path)
    assert len(cloud) == 2 and cloud.dim == 2


# --- maps ---------------------------------------------------------------

def test_identity_orbits():
    cloud = grid1d(0.0, 1.0, 7)
    orbits = build_orbits(MapSpec(kind="identity"), cloud, 5)
    for i in range(5):
        assert np.array_equal(orbits.iterate_points(i), cloud.points)


def test_doubling_orbit_of_dyadic_point():
    cloud = circle_grid(8)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 4)
    assert orbits.images[1, :, 0].tolist() == [0.125, 0.25, 0.5, 0.0]


def test_doubling_rejects_out_of_domain():
    with pytest.raises(ValueError, match="undefined"):
        MapSpec(kind="doubling").apply(np.array([[1.5]]))


def test_map_parameter_validation():
    with pytest.raises(ValueError):
        MapSpec(kind="logistic", r=4.5)
    with pytest.raises(ValueError):
        MapSpec(kind="tent", slope=0.0)
    with pytest.raises(ValueError):
        MapSpec(kind="warp")
    with pytest.raises(ValueError):
        MapSpec(kind="identity", power=0)


def test_tent_logistic_affine_values():
    assert MapSpec(kind="tent", slope=2.0).apply(np.array([[0.25]]))[0, 0] == 0.5
    assert MapSpec(kind="logistic", r=4.0).apply(np.array([[0.5]]))[0, 0] == 1.0
    assert MapSpec(kind="affine", a=2.0, b=1.0).apply(np.array([[3.0]]))[0, 0] == 7.0


def test_shift_left_pads_with_zero():
    cloud = symbol_blocks(2, 4)
    block = np.array([[0.0, 1.0, 1.0, 0.0]])
    shifted = MapSpec(kind="shift_left").apply(block)
    assert shifted.tolist() == [[1.0, 1.0, 0.0, 0.0]]
    orbits = build_orbits(MapSpec(kind="shift_left"), cloud, 3)
    idx = int(np.nonzero((cloud.points == [0, 1, 1, 0]).all(axis=1))[0][0])
    assert orbits.images[idx, 1].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert orbits.images[idx, 2].tolist() == [1.0, 0.0, 0.0, 0.0]


# --- composition ----------------------------------------------------------

def test_iterate_map_one_is_same():
    t = MapSpec(kind="doubling")
    assert iterate_map(t, 1) is t


def test_iterate_map_identity_any_power():
    cloud = grid1d(0.0, 1.0, 5)
    t7 = iterate_map(MapSpec(kind="identity"), 7)
    assert np.array_equal(t7.apply(cloud.points), cloud.points)


def test_iterate_map_doubling_squared_is_quadrupling():
    t2 = iterate_map(MapSpec(kind="doubling"), 2)
    x = np.linspace(0.0, 1.0, 101).reshape(-1, 1)
    direct = 4.0 * x - np.floor(4.0 * x)
    direct[direct == 1.0] = 0.0
    assert np.array_equal(t2.apply(x), direct)


def test_iterate_map_affine_composition():
    a, b = 0.5, 0.25  # dyadic parameters keep the comparison exact
    t2 = iterate_map(MapSpec(kind="affine", a=a, b=b), 2)
    x = grid1d(0.0, 1.0, 9).points
    assert np.array_equal(t2.apply(x), (a * a) * x + (a * b + b))


def test_iterate_map_powers_compose():
    t = iterate_map(iterate_map(MapSpec(kind="doubling"), 2), 3)
    assert t.power == 6


def test_composed_orbits_match_base_stride():
    cloud = circle_grid(48)
    base = build_orbits(MapSpec(kind="doubling"), cloud, 9)
    for m in (2, 3):
        comp = build_orbits(iterate_map(MapSpec(kind="doubling"), m), cloud, 3)
        for i in range(3):
            assert np.array_equal(comp.iterate_points(i), base.iterate_points(m * i))


def test_uc_declarations():
    assert MapSpec(kind="doubling").declared_uniformly_continuous
    assert MapSpec(kind="shift_left").declared_uniformly_continuous
    flagged = MapSpec(kind="doubling", declared_uniformly_continuous=False)
    assert not flagged.declared_uniformly_continuous
    assert not iterate_map(flagged, 2).declared_uniformly_continuous


# --- orbit tables ----------------------------------------------------------

def test_orbit_table_starts_at_points():
    cloud = circle_grid(5)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 3)
    assert np.array_equal(orbits.iterate_points(0), cloud.points)
    assert orbits.n_max == 3 and orbits.snap_mode == "exact"


def test_orbit_table_rejects_bad_args():
    cloud = circle_grid(5)
    with pytest.raises(ValueError):
        build_orbits(MapSpec(kind="identity"), cloud, 0)
    with pytest.raises(ValueError):
        build_orbits(MapSpec(kind="identity"), cloud, 2, snap_mode="sticky")
    with pytest.raises(ValueError):
        build_orbits(MapSpec(kind="identity"), cloud, 2, snap_mode="nearest")


def test_nearest_snap_zero_error_for_closed_map():
    # doubling is closed on a power-of-two circle grid, so snapping is a no-op
    cloud = circle_grid(16)
    arc = QuasiMetricSpec(kind="circle_arc")
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 5,
                          snap_mode="nearest", qspec=arc)
    assert orbits.snap_error == 0.0
    exact = build_orbits(MapSpec(kind="doubling"), cloud, 5)
    assert np.array_equal(orbits.images, exact.images)


def test_nearest_snap_keeps_orbit_on_cloud():
    cloud = grid1d(0.0, 1.0, 33)
    euc = QuasiMetricSpec(kind="euclidean")
    orbits = build_orbits(MapSpec(kind="logistic", r=3.7), cloud, 4,
                          snap_mode="nearest", qspec=euc)
    coords = set(float(v) for v in cloud.points[:, 0])
    for i in range(4):
        assert set(float(v) for v in orbits.iterate_points(i)[:, 0]) <= coords
    # snapping error is at most half the grid spacing for an interval map
    assert 0.0 < orbits.snap_error <= 0.5 / 32 + 1e-12


def test_nearest_snap_measures_one_square_per_table(monkeypatch):
    # perfbench reports these entries as dynamics.snap_entries: one snap pass
    # per orbit table, whatever its length, and none for n_max = 1. A rule
    # with no floor measures the whole N x N square; on a sorted cloud the
    # floors stop each 32-image block after the tiles nearest its images.
    # Swapping the hinge weights leaves the max symmetrization, and so the
    # pass, as it was, though each one-way floor changes
    entries = []

    def counting(spec, a, b):
        out = pairwise(spec, a, b)
        entries.append(out.size)
        return out

    monkeypatch.setattr(qme.dynamics, "pairwise", counting)
    cloud = grid1d(0.0, 1.0, 1024)  # four 256-point tiles
    hinge = QuasiMetricSpec(kind="weighted_asym", alpha=2.0 ** -10, beta=1.0)
    swapped = QuasiMetricSpec(kind="weighted_asym", alpha=1.0, beta=2.0 ** -10)
    totals = {}
    for name, spec in (("hinge", hinge), ("swapped", swapped),
                       ("no_floor", symmetrize_mean(hinge))):
        per_n = []
        for n_max in range(1, 9):
            entries.clear()
            build_orbits(MapSpec(kind="logistic", r=4.0), cloud, n_max,
                         snap_mode="nearest", qspec=spec)
            per_n.append(sum(entries))
        assert per_n[0] == 0 and len(set(per_n[1:])) == 1, (name, per_n)
        totals[name] = per_n[1]
    size = len(cloud)
    assert totals["no_floor"] == size * size
    assert totals["hinge"] == totals["swapped"] < size * size / 2


def test_nearest_snap_single_step_never_applies_map():
    cloud = grid1d(-2.0, 2.0, 9)  # outside the logistic map's domain
    logistic = MapSpec(kind="logistic", r=4.0)
    euc = QuasiMetricSpec(kind="euclidean")
    orbits = build_orbits(logistic, cloud, 1, snap_mode="nearest", qspec=euc)
    assert np.array_equal(orbits.iterate_points(0), cloud.points)
    assert orbits.snap_error == 0.0
    with pytest.raises(ValueError, match="outside"):
        build_orbits(logistic, cloud, 2, snap_mode="nearest", qspec=euc)
