"""Tiled N x N passes equal their untiled references bit for bit.

The tile constants are shrunk to 3-row pairwise tiles and 2 x 2 transpose
blocks, so clouds of 1 to 20 points cover every layout: smaller than a tile,
exactly one tile, and multiples of a tile plus or minus one.
"""
import numpy as np
import pytest

import qme.quasimetric as qm
from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    check_axioms,
    count_grid,
    custom_cloud,
    grid1d,
    index_cloud,
    pairwise,
    symbol_blocks,
)
from qme.covering import _covers, bowen_stream
from qme.dynamics import OrbitTable

import oracles

SIZES = range(1, 21)
KINDS = ("weighted_asym", "asym_line", "matrix", "block_prefix_asym")
SCHEDULES = ([1, 2, 4], [3, 4])
EPS = [1.0, 0.5, 0.25, 0.125]
OPS = {"two_sided": np.maximum, "one_sided": np.minimum}


@pytest.fixture(autouse=True)
def tiny_tiles(monkeypatch):
    monkeypatch.setattr(qm, "ROW_TILE", 3)
    monkeypatch.setattr(qm, "TRANSPOSE_BLOCK", 2)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _case(kind: str, size: int, rng: np.random.Generator) -> tuple:
    """(spec, cloud) for an asymmetric rule on a cloud of the given size."""
    if kind == "matrix":
        m = rng.integers(1, 64, size=(size, size)) / 64.0
        np.fill_diagonal(m, 0.0)
        return QuasiMetricSpec(kind="matrix", matrix=m), index_cloud(size)
    if kind == "block_prefix_asym":
        blocks = symbol_blocks(3, 3).points
        picks = rng.choice(len(blocks), size=size, replace=False)
        return QuasiMetricSpec(kind=kind), custom_cloud(blocks[picks])
    if kind == "weighted_asym":
        pts = rng.choice(1025, size=(size, 2), replace=False) / 1024.0
        return QuasiMetricSpec(kind=kind, alpha=0.5, beta=2.0), custom_cloud(pts)
    pts = rng.choice(1025, size=size, replace=False) / 1024.0
    return QuasiMetricSpec(kind=kind), custom_cloud(pts)


def _permutation_orbits(cloud, rng: np.random.Generator, n_max: int = 4) -> OrbitTable:
    """Orbit table of a random permutation of the cloud, which is a map of it."""
    perm = rng.permutation(len(cloud))
    idx = np.arange(len(cloud))
    steps = [cloud.points]
    for _ in range(1, n_max):
        idx = perm[idx]
        steps.append(cloud.points[idx])
    return OrbitTable(images=np.stack(steps, axis=1), snap_mode="exact")


@pytest.mark.parametrize("kind", KINDS)
def test_bowen_stream_and_covers_match_full_matrix(kind):
    rng = np.random.default_rng(7)
    for size in SIZES:
        spec, cloud = _case(kind, size, rng)
        orbits = _permutation_orbits(cloud, rng)
        for n_list in SCHEDULES:
            for n, dist in bowen_stream(spec, orbits, n_list):
                assert _same_bits(dist, oracles.naive_bowen(spec, orbits, n)), (size, n)
                for variant, op in OPS.items():
                    ref = oracles.naive_symmetrized(dist, variant)
                    assert _same_bits(qm.with_transpose(op, dist), ref), (size, n)
                    covers = _covers(dist, variant, EPS)
                    for eps, cover in zip(EPS, covers):
                        assert np.array_equal(cover, ref <= eps), (size, n, eps)


@pytest.mark.parametrize("kind", KINDS)
def test_max_asymmetry_matches_full_transpose(kind):
    rng = np.random.default_rng(11)
    for size in SIZES:
        spec, cloud = _case(kind, size, rng)
        D = pairwise(spec, cloud.points, cloud.points)
        report = check_axioms(spec, cloud, triple_budget=1)
        assert report.max_asymmetry == float(np.max(np.abs(D - D.T))), size


def test_count_grid_same_with_tiny_and_default_tiles(monkeypatch):
    cloud = grid1d(0.0, 1.0, 20)
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    orbits = build_orbits(MapSpec(kind="tent"), cloud, 4)
    args = (spec, orbits, [1, 2, 4], [0.5, 0.25, 0.125])
    tiny = [count_grid(*args, exact_threshold=t).to_dict() for t in (0, len(cloud))]
    monkeypatch.setattr(qm, "ROW_TILE", 256)
    monkeypatch.setattr(qm, "TRANSPOSE_BLOCK", 64)
    assert tiny == [count_grid(*args, exact_threshold=t).to_dict() for t in (0, len(cloud))]


def test_nearest_snap_matches_full_matrix():
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    logistic = MapSpec(kind="logistic", r=3.7)
    for size in SIZES:
        cloud = grid1d(0.0, 1.0, size)
        orbits = build_orbits(logistic, cloud, 4, snap_mode="nearest", qspec=spec)
        images, err = oracles.naive_snap(logistic, cloud, 4, spec)
        assert _same_bits(orbits.images, images), size
        assert orbits.snap_error == err, size


def test_nearest_snap_tie_across_tile_boundary_keeps_lowest_id():
    # every image lands exactly halfway between grid points k/8 and (k+1)/8;
    # with 3-row tiles the candidates 2|3 and 5|6 straddle a tile boundary
    cloud = grid1d(0.0, 1.0, 9)
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    shift = MapSpec(kind="affine", a=1.0, b=1.0 / 16)
    orbits = build_orbits(shift, cloud, 3, snap_mode="nearest", qspec=spec)
    for i in range(3):
        assert np.array_equal(orbits.iterate_points(i), cloud.points)
    # max symmetrization of the hinge: 2 * 1/16 to either neighbour
    assert orbits.snap_error == 0.125
    images, err = oracles.naive_snap(shift, cloud, 3, spec)
    assert _same_bits(orbits.images, images) and err == orbits.snap_error
