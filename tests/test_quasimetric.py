"""Distance-rule axioms, symmetrizations, balls and orbit distances."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qme import (
    BallSpec,
    MapSpec,
    QuasiMetricSpec,
    ball_members,
    bowen_distance,
    build_orbits,
    check_axioms,
    circle_grid,
    custom_cloud,
    evaluate,
    grid1d,
    index_cloud,
    pairwise,
    scaled,
    symmetrize_max,
    symmetrize_mean,
)
from qme.quasimetric import load_matrix_csv

import oracles

LINE = QuasiMetricSpec(kind="asym_line")
ARC = QuasiMetricSpec(kind="circle_arc")
TWO_POINT = QuasiMetricSpec(kind="matrix", matrix=np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_asym_line_values():
    assert evaluate(LINE, [0.0], [0.5]) == 0.5
    assert evaluate(LINE, [0.5], [0.0]) == 1.0
    assert evaluate(LINE, [0.3], [0.3]) == 0.0


def test_zero_on_diagonal_for_all_kinds():
    for spec, pt in [
        (LINE, [0.4]),
        (ARC, [0.25]),
        (QuasiMetricSpec(kind="euclidean"), [1.0, 2.0]),
        (QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0), [0.7, -1.0]),
        (QuasiMetricSpec(kind="block_prefix"), [0, 1, 1, 0]),
        (QuasiMetricSpec(kind="block_prefix_asym"), [0, 1, 1, 0]),
    ]:
        assert evaluate(spec, pt, pt) == 0.0


def test_symmetrize_mean_values():
    de = symmetrize_mean(LINE)
    assert evaluate(de, [0.0], [0.5]) == 0.75
    assert evaluate(de, [0.2], [0.2]) == 0.0
    dm = symmetrize_mean(TWO_POINT)
    assert evaluate(dm, [0.0], [1.0]) == 1.5


def test_symmetrize_max_values():
    me = symmetrize_max(LINE)
    assert evaluate(me, [0.0], [0.5]) == 1.0
    assert evaluate(me, [0.2], [0.2]) == 0.0
    mm = symmetrize_max(TWO_POINT)
    assert evaluate(mm, [0.0], [1.0]) == 2.0


def test_axioms_asym_line_exhaustive():
    cloud = grid1d(-2.0, 2.0, 50)
    report = check_axioms(LINE, cloud, triple_budget=200_000)
    assert report.exhaustive and report.triples_checked == 50 ** 3
    assert report.all_ok
    assert not report.symmetric and report.max_asymmetry > 0.0


def test_axioms_two_point_matrix():
    report = check_axioms(TWO_POINT, index_cloud(2), triple_budget=1000)
    assert report.all_ok
    assert not report.symmetric
    assert report.max_asymmetry == 1.0


def test_axioms_triangle_violator_detected():
    spec = QuasiMetricSpec(kind="matrix",
                           matrix=np.array([[0.0, 1.0, 5.0],
                                            [1.0, 0.0, 1.0],
                                            [5.0, 1.0, 0.0]]))
    report = check_axioms(spec, index_cloud(3), triple_budget=1000)
    assert not report.triangle_ok
    assert (0, 1, 2, 5.0, 2.0) in report.violations
    assert report.symmetric


def test_axioms_sampled_mode_is_deterministic():
    cloud = grid1d(0.0, 1.0, 64)
    a = check_axioms(LINE, cloud, triple_budget=5_000, seed=7)
    b = check_axioms(LINE, cloud, triple_budget=5_000, seed=7)
    assert not a.exhaustive and a.triples_checked == 5_000
    assert a.to_dict() == b.to_dict()
    assert a.all_ok


def test_axioms_block_metrics():
    from qme import symbol_blocks
    cloud = symbol_blocks(2, 4)
    for kind in ("block_prefix", "block_prefix_asym"):
        report = check_axioms(QuasiMetricSpec(kind=kind), cloud, triple_budget=16 ** 3)
        assert report.exhaustive and report.all_ok, kind
    sym = check_axioms(QuasiMetricSpec(kind="block_prefix"), cloud, 16 ** 3)
    asym = check_axioms(QuasiMetricSpec(kind="block_prefix_asym"), cloud, 16 ** 3)
    assert sym.symmetric
    assert not asym.symmetric


def test_report_serializes_with_stable_keys():
    report = check_axioms(TWO_POINT, index_cloud(2), triple_budget=100)
    d = report.to_dict()
    assert set(d) == {"nonnegativity_ok", "identity_ok", "triangle_ok",
                      "violations", "symmetric", "max_asymmetry", "exhaustive",
                      "triples_checked"}


# --- balls ------------------------------------------------------------------

@pytest.fixture(scope="module")
def line_grid():
    # step 0.1 over [-2, 2]; point 20 sits at 0.0
    return grid1d(-2.0, 2.0, 41)


def test_right_ball_small_radius(line_grid):
    members = ball_members(LINE, line_grid, BallSpec(center=20, radius=0.5, side="right"))
    coords = sorted(float(line_grid.points[i, 0]) for i in members)
    assert coords == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4], abs=1e-9)


def test_right_ball_large_radius_reaches_left_end(line_grid):
    members = ball_members(LINE, line_grid, BallSpec(center=20, radius=1.5, side="right"))
    coords = sorted(float(line_grid.points[i, 0]) for i in members)
    # every point below the center is at distance exactly 1 < 1.5
    assert coords[0] == pytest.approx(-2.0)
    assert coords[-1] == pytest.approx(1.4)
    assert len(members) == 35


def test_left_ball_mirror(line_grid):
    members = ball_members(LINE, line_grid, BallSpec(center=20, radius=0.5, side="left"))
    coords = sorted(float(line_grid.points[i, 0]) for i in members)
    assert coords == pytest.approx([-0.4, -0.3, -0.2, -0.1, 0.0], abs=1e-9)


def test_two_sided_ball_is_intersection(line_grid):
    for radius in (0.35, 1.5):
        right = ball_members(LINE, line_grid, BallSpec(20, radius, "right"))
        left = ball_members(LINE, line_grid, BallSpec(20, radius, "left"))
        both = ball_members(LINE, line_grid, BallSpec(20, radius, "two_sided"))
        assert both == right & left


def test_tiny_ball_is_center_only(line_grid):
    for side in ("right", "left", "two_sided"):
        members = ball_members(LINE, line_grid, BallSpec(20, 1e-6, side))
        assert members == {20}


def test_closed_ball_includes_boundary(line_grid):
    # radius exactly one grid step: closed picks up the boundary point
    step = float(line_grid.points[21, 0] - line_grid.points[20, 0])
    open_b = ball_members(LINE, line_grid, BallSpec(20, step, "right", closed=False))
    closed_b = ball_members(LINE, line_grid, BallSpec(20, step, "right", closed=True))
    assert closed_b - open_b == {21}


def test_ball_inclusion_facts(line_grid):
    # two-sided ball under e at eps is inside the mean-metric ball at eps,
    # which is inside the two-sided ball at 2*eps; the max-metric ball at eps
    # is exactly the two-sided ball at eps
    de, me = symmetrize_mean(LINE), symmetrize_max(LINE)
    for center in (0, 7, 20, 40):
        for eps in (0.25, 0.5, 1.0):
            two = ball_members(LINE, line_grid, BallSpec(center, eps, "two_sided"))
            mean_ball = ball_members(de, line_grid, BallSpec(center, eps, "right"))
            two_double = ball_members(LINE, line_grid, BallSpec(center, 2 * eps, "two_sided"))
            max_ball = ball_members(me, line_grid, BallSpec(center, eps, "right"))
            assert two <= mean_ball <= two_double
            assert max_ball == two


def test_ball_errors(line_grid):
    with pytest.raises(IndexError):
        ball_members(LINE, line_grid, BallSpec(center=99, radius=0.5))
    with pytest.raises(ValueError):
        BallSpec(center=0, radius=0.0)
    with pytest.raises(ValueError):
        BallSpec(center=0, radius=0.5, side="sideways")


# --- orbit distances ---------------------------------------------------------

def test_bowen_distance_n1_equals_base():
    cloud = grid1d(0.0, 1.0, 9)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 3)
    for x in range(len(cloud)):
        for y in range(len(cloud)):
            assert bowen_distance(LINE, orbits, x, y, 1) == \
                evaluate(LINE, cloud.points[x], cloud.points[y])


def test_bowen_distance_identity_map_flat_in_n():
    cloud = grid1d(0.0, 1.0, 9)
    orbits = build_orbits(MapSpec(kind="identity"), cloud, 5)
    for n in range(1, 6):
        assert bowen_distance(LINE, orbits, 1, 6, n) == \
            evaluate(LINE, cloud.points[1], cloud.points[6])


def test_bowen_distance_doubling_example():
    cloud = custom_cloud([[0.0], [0.1]])
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 3)
    assert bowen_distance(ARC, orbits, 0, 1, 3) == 0.4


def test_bowen_distance_monotone_in_n():
    cloud = circle_grid(16)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 6)
    for x, y in [(0, 1), (3, 11), (5, 5)]:
        vals = [bowen_distance(ARC, orbits, x, y, n) for n in range(1, 7)]
        assert vals == sorted(vals)


def test_bowen_distance_rejects_bad_n():
    cloud = circle_grid(4)
    orbits = build_orbits(MapSpec(kind="identity"), cloud, 2)
    with pytest.raises(ValueError):
        bowen_distance(ARC, orbits, 0, 1, 3)
    with pytest.raises(ValueError):
        bowen_distance(ARC, orbits, 0, 1, 0)


# --- properties --------------------------------------------------------------

dyadic = st.integers(min_value=0, max_value=2 ** 12).map(lambda k: k / 2 ** 12)


@settings(max_examples=60, deadline=None)
@given(st.lists(dyadic, min_size=3, max_size=12, unique=True),
       st.sampled_from(["asym_line", "weighted_asym", "circle_arc", "euclidean"]))
def test_symmetrizations_dominate_each_other(coords, kind):
    spec = (QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
            if kind == "weighted_asym" else QuasiMetricSpec(kind=kind))
    pts = np.array(coords).reshape(-1, 1)
    D = pairwise(spec, pts, pts)
    mean = pairwise(symmetrize_mean(spec), pts, pts)
    mx = pairwise(symmetrize_max(spec), pts, pts)
    mn = np.minimum(D, D.T)
    assert np.array_equal(mean, mean.T)
    assert np.array_equal(mx, mx.T)
    assert np.all(mx >= mean) and np.all(mean >= mn)


@settings(max_examples=40, deadline=None)
@given(st.lists(dyadic, min_size=3, max_size=10, unique=True))
def test_triangle_exact_on_dyadic_clouds(coords):
    pts = np.array(coords).reshape(-1, 1)
    for spec in (LINE, QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)):
        D = pairwise(spec, pts, pts)
        n = len(coords)
        for y in range(n):
            assert np.all(D <= D[:, y][:, None] + D[y, :][None, :])


def test_orbit_distance_keeps_triangle_inequality():
    cloud = circle_grid(24)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 4)
    for n in (1, 2, 4):
        D = oracles.naive_bowen(ARC, orbits, n)
        for y in range(len(cloud)):
            assert np.all(D <= D[:, y][:, None] + D[y, :][None, :])


def test_scaled_spec_scales_distances():
    pts = grid1d(0.0, 1.0, 9).points
    D = pairwise(LINE, pts, pts)
    assert np.array_equal(pairwise(scaled(LINE, 2.0), pts, pts), 2.0 * D)
    with pytest.raises(ValueError):
        scaled(LINE, 0.0)


# --- matrix CSV --------------------------------------------------------------

def save_matrix_csv(spec: QuasiMetricSpec, path) -> None:
    """Write a matrix-backed rule in the format load_matrix_csv reads."""
    m = spec.matrix
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"qmetric,v1,{m.shape[0]}\n")
        for row in m:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv(TWO_POINT, path)
    loaded = load_matrix_csv(path)
    assert np.array_equal(loaded.matrix, TWO_POINT.matrix)
    header = path.read_text().splitlines()[0]
    assert header == "qmetric,v1,2"


def test_matrix_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,v1,2\n0,1\n2,0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
    path.write_text("qmetric,v2,2\n0,1\n2,0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
    path.write_text("qmetric,v1,3\n0,1\n2,0\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)


def test_matrix_validation():
    with pytest.raises(ValueError):
        QuasiMetricSpec(kind="matrix", matrix=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        QuasiMetricSpec(kind="matrix", matrix=np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        QuasiMetricSpec(kind="matrix", matrix=np.array([[0.5, 1.0], [1.0, 0.0]]))


def test_matrix_index_out_of_range():
    with pytest.raises(IndexError):
        evaluate(TWO_POINT, [0.0], [5.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pairwise(QuasiMetricSpec(kind="euclidean"),
                 np.zeros((2, 2)), np.zeros((2, 3)))
