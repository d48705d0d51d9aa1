"""Distance-rule axioms, symmetrizations, balls and orbit distances."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    check_axioms,
    circle_grid,
    custom_cloud,
    grid1d,
    index_cloud,
    pairwise,
    symbol_blocks,
    symmetrize_max,
    symmetrize_mean,
)
from qme.covering import STEP
from qme.quasimetric import (block_floors, is_symmetric, load_matrix_csv, paired, paired_both,
                             paired_floor)

import oracles
from oracles import BallSpec, ball_members, evaluate, plain

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


def test_axioms_read_a_1d_array_as_n_points():
    # as a PointCloud does: three 1-D points, not one 3-D point
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    report = check_axioms(spec, np.array([0.0, 0.5, 1.0]), triple_budget=1000)
    assert report == check_axioms(spec, custom_cloud([0.0, 0.5, 1.0]), triple_budget=1000)
    assert report.exhaustive and report.triples_checked == 27
    assert not report.symmetric and report.max_asymmetry == 1.5  # e(1, 0) - e(0, 1)


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


def test_axioms_sampled_violations_are_distinct():
    # 26 draws over 27 triples repeat some: each violating triple is listed
    # once, and only triples the exhaustive check finds
    spec = QuasiMetricSpec(kind="matrix",
                           matrix=np.array([[0.0, 1.0, 5.0],
                                            [1.0, 0.0, 1.0],
                                            [5.0, 1.0, 0.0]]))
    sampled = check_axioms(spec, index_cloud(3), triple_budget=26)
    exhaustive = check_axioms(spec, index_cloud(3), triple_budget=27)
    assert not sampled.exhaustive and sampled.triples_checked == 26
    assert sampled.violations
    assert len(set(sampled.violations)) == len(sampled.violations)
    assert set(sampled.violations) <= set(exhaustive.violations)


def test_axioms_sampled_mode_is_deterministic():
    cloud = grid1d(0.0, 1.0, 64)
    a = check_axioms(LINE, cloud, triple_budget=5_000, seed=7)
    b = check_axioms(LINE, cloud, triple_budget=5_000, seed=7)
    assert not a.exhaustive and a.triples_checked == 5_000
    assert plain(a) == plain(b)
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
    d = plain(report)
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
    D = oracles.naive_bowen(LINE, orbits, 1)
    for x in range(len(cloud)):
        for y in range(len(cloud)):
            assert D[x, y] == evaluate(LINE, cloud.points[x], cloud.points[y])


def test_bowen_distance_identity_map_flat_in_n():
    cloud = grid1d(0.0, 1.0, 9)
    orbits = build_orbits(MapSpec(kind="identity"), cloud, 5)
    for n in range(1, 6):
        assert oracles.naive_bowen(LINE, orbits, n)[1, 6] == \
            evaluate(LINE, cloud.points[1], cloud.points[6])


def test_bowen_distance_doubling_example():
    cloud = custom_cloud([[0.0], [0.1]])
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 3)
    assert oracles.naive_bowen(ARC, orbits, 3)[0, 1] == 0.4


def test_bowen_distance_monotone_in_n():
    cloud = circle_grid(16)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 6)
    dists = [oracles.naive_bowen(ARC, orbits, n) for n in range(1, 7)]
    for x, y in [(0, 1), (3, 11), (5, 5)]:
        vals = [D[x, y] for D in dists]
        assert vals == sorted(vals)


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


def _formula_cases() -> list:
    """(name, spec, points) for every kind, base and derived, with one- and
    two-dimensional points where the kind takes both."""
    rng = np.random.default_rng(3)
    line = rng.choice(1025, size=(9, 1), replace=False) / 1024.0
    plane = rng.choice(1025, size=(9, 2), replace=False) / 1024.0
    table = rng.integers(1, 64, size=(9, 9)) / 64.0
    np.fill_diagonal(table, 0.0)
    blocks = symbol_blocks(3, 3).points[rng.choice(27, size=9, replace=False)]
    hinge = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    block_asym = QuasiMetricSpec(kind="block_prefix_asym")
    return [
        ("asym_line", LINE, line),
        ("euclidean_1d", QuasiMetricSpec(kind="euclidean"), line),
        ("euclidean_2d", QuasiMetricSpec(kind="euclidean"), plane),
        ("circle_arc", ARC, line),
        ("weighted_asym_1d", hinge, line),
        ("weighted_asym_2d", hinge, plane),
        ("matrix", QuasiMetricSpec(kind="matrix", matrix=table), index_cloud(9).points),
        ("block_prefix", QuasiMetricSpec(kind="block_prefix"), blocks),
        ("block_prefix_asym", block_asym, blocks),
        ("mean_of", symmetrize_mean(hinge), plane),
        ("max_of", symmetrize_max(block_asym), blocks),
    ]


@pytest.mark.parametrize("name, spec, pts", [pytest.param(*case, id=case[0])
                                             for case in _formula_cases()])
def test_pairwise_is_paired_broadcast_and_matches_formulas(name, spec, pts):
    # pairwise on unequal, overlapping point sets is bit for bit the per-kind
    # two-dimensional formulas, and every entry is paired on that pair alone
    a, b = pts[:5], pts[3:]
    full = pairwise(spec, a, b)
    ref = oracles.formula_pairwise(spec, a, b)
    assert full.dtype == ref.dtype and full.shape == ref.shape == (5, 6)
    assert full.tobytes() == ref.tobytes(), name
    i, j = np.nonzero(np.ones(full.shape, dtype=bool))
    assert paired(spec, a[i], b[j]).tobytes() == full[i, j].tobytes(), name


# --- symmetry by construction ------------------------------------------------

HINGE = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
# name -> (rule, coordinates per point); block_prefix points are symbol blocks
SYMMETRIC_RULES = {
    "circle_arc": (ARC, 1),
    "euclidean_1d": (QuasiMetricSpec(kind="euclidean"), 1),
    "euclidean_2d": (QuasiMetricSpec(kind="euclidean"), 2),
    "block_prefix": (QuasiMetricSpec(kind="block_prefix"), 4),
    "mean_of_weighted_asym": (symmetrize_mean(HINGE), 2),
    "max_of_weighted_asym": (symmetrize_max(HINGE), 2),
    "mean_of_asym_line": (symmetrize_mean(LINE), 1),
    "max_of_asym_line": (symmetrize_max(LINE), 1),
}


@st.composite
def symmetric_cases(draw):
    """(name, spec, a, b): a rule symmetric by construction and two arrays of
    1 to 8 points each, paired row by row. Real coordinates are any floats of
    [0, 1], so the rounding of every subtraction is exercised; the symmetric
    matrix has any off-diagonal values of [0, 8]."""
    name = draw(st.sampled_from(sorted(SYMMETRIC_RULES) + ["matrix"]))
    count = draw(st.integers(1, 8))
    if name == "matrix":
        size = draw(st.integers(1, 6))
        m = np.zeros((size, size))
        for i in range(size):
            for j in range(i + 1, size):
                m[i, j] = m[j, i] = draw(st.floats(0.0, 8.0))
        spec = QuasiMetricSpec(kind="matrix", matrix=m)
        coord, dim = st.integers(0, size - 1).map(float), 1
    elif name == "block_prefix":
        spec, dim = SYMMETRIC_RULES[name]
        coord = st.integers(0, 2).map(float)
    else:
        spec, dim = SYMMETRIC_RULES[name]
        coord = st.floats(0.0, 1.0)
    points = st.lists(st.lists(coord, min_size=dim, max_size=dim),
                      min_size=count, max_size=count)
    return name, spec, np.array(draw(points)), np.array(draw(points))


@settings(max_examples=300, deadline=None)
@given(symmetric_cases())
def test_is_symmetric_rules_are_symmetric_bit_for_bit(case):
    # the live-pair Bowen stream evaluates these rules in one direction only
    name, spec, a, b = case
    assert is_symmetric(spec), name
    assert paired(spec, a, b).tobytes() == paired(spec, b, a).tobytes(), name


def test_is_symmetric_rejects_asymmetric_rules():
    line = np.array([[0.0], [0.5]])
    blocks = np.array([[0.0, 1.0], [1.0, 0.0]])
    for spec, pts in [
        (LINE, line),
        (HINGE, line),
        (QuasiMetricSpec(kind="block_prefix_asym"), blocks),
        (TWO_POINT, index_cloud(2).points),
    ]:
        assert not is_symmetric(spec), spec.kind
        D = pairwise(spec, pts, pts)
        assert D[0, 1] != D[1, 0], spec.kind  # asymmetric on these points


# --- both directions at once -------------------------------------------------

# exact zeros of both signs, differences that overflow to +-inf, and the
# non-finite values themselves
SPECIAL_FLOATS = [0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
BOTH_TABLE = np.array([[0.0, 1.0, 5.0], [0.5, 0.0, 2.0], [3.0, 0.25, 0.0]])
# name -> (rule, coordinate kind, coordinates per point, or None for 1..3)
BOTH_RULES = {
    "asym_line": (LINE, "real", 1),
    "euclidean": (QuasiMetricSpec(kind="euclidean"), "real", None),
    "circle_arc": (ARC, "real", 1),
    "weighted_asym": (HINGE, "real", None),
    "weighted_asym_3_7": (QuasiMetricSpec(kind="weighted_asym", alpha=3.0, beta=0.7),
                          "real", None),
    "matrix": (QuasiMetricSpec(kind="matrix", matrix=BOTH_TABLE), "index", 1),
    "block_prefix": (QuasiMetricSpec(kind="block_prefix"), "symbol", None),
    "block_prefix_asym": (QuasiMetricSpec(kind="block_prefix_asym"), "symbol", None),
    "mean_of_weighted_asym": (symmetrize_mean(HINGE), "real", None),
    "max_of_weighted_asym": (symmetrize_max(HINGE), "real", None),
    "mean_of_matrix": (symmetrize_mean(QuasiMetricSpec(kind="matrix", matrix=BOTH_TABLE)),
                       "index", 1),
    "max_of_block_prefix_asym": (symmetrize_max(QuasiMetricSpec(kind="block_prefix_asym")),
                                 "symbol", None),
}


@st.composite
def both_cases(draw):
    """(name, spec, a, b): a rule and two point arrays, paired row by row,
    (n, d) x (n, d), broadcast over all pairs, (h, 1, d) x (1, w, d), or two
    single points, (d,) x (d,). Real coordinates are any floats, often the
    SPECIAL_FLOATS."""
    name = draw(st.sampled_from(sorted(BOTH_RULES)))
    spec, coords, dim = BOTH_RULES[name]
    dim = dim or draw(st.integers(1, 3))
    coord = {
        "real": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
        "index": st.integers(0, len(BOTH_TABLE) - 1).map(float),
        "symbol": st.one_of(st.integers(0, 2).map(float), st.sampled_from(SPECIAL_FLOATS)),
    }[coords]

    def points(count):
        return np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                      min_size=count, max_size=count)))

    shape = draw(st.sampled_from(["rows", "all_pairs", "single"]))
    if shape == "rows":
        count = draw(st.integers(1, 6))
        return name, spec, points(count), points(count)
    if shape == "single":
        return name, spec, points(1)[0], points(1)[0]
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return name, spec, points(h)[:, None, :], points(w)[None, :, :]


def _same_values(x, y) -> bool:
    """Equal values, NaN where NaN, and equal signs (so +-0.0) off NaN."""
    x, y = np.asarray(x), np.asarray(y)
    off_nan = ~np.isnan(x)
    return (x.shape == y.shape and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x)[off_nan], np.signbit(y)[off_nan]))


@settings(max_examples=600, deadline=None)
@given(both_cases())
def test_paired_both_is_paired_both_ways(case):
    # the Bowen steps, nearest snapping and validate read both directions
    # from one paired_both call; each must be what its own paired call gives,
    # and over all pairs what the independent per-kind formulas give
    name, spec, a, b = case
    with np.errstate(all="ignore"):
        fwd, bwd = paired_both(spec, a, b)
        assert _same_values(fwd, paired(spec, a, b)), name
        assert _same_values(bwd, paired(spec, b, a)), name
        if a.ndim == 3:
            rows, cols = a[:, 0, :], b[0]
            assert _same_values(fwd, oracles.formula_pairwise(spec, rows, cols)), name
            assert _same_values(bwd, oracles.formula_pairwise(spec, cols, rows).T), name


def test_paired_both_hinge_at_overflow_and_signed_zeros():
    # b - a = +-inf, by overflow or from an infinite coordinate, has one
    # hinge term inf and the other 0, not NaN, so both ways give inf; equal
    # coordinates give +0.0 both ways whatever the sign of their zeros
    a = np.array([[-1e308], [1e308], [0.0], [-0.0], [np.inf], [0.0]])
    b = np.array([[1e308], [-1e308], [-0.0], [0.0], [0.0], [np.inf]])
    with np.errstate(over="ignore"):
        fwd, bwd = paired_both(HINGE, a, b)
    expected = [np.inf, np.inf, 0.0, 0.0, np.inf, np.inf]
    assert _same_values(fwd, expected) and _same_values(bwd, expected)


@pytest.mark.parametrize("name", sorted(BOTH_RULES))
def test_paired_both_dimension_mismatch_raises_as_paired_does(name):
    spec = BOTH_RULES[name][0]
    a, b = np.zeros((2, 1)), np.zeros((2, 2))
    with pytest.raises(ValueError) as direct:
        paired(spec, a, b)
    with pytest.raises(ValueError) as both:
        paired_both(spec, a, b)
    assert str(both.value) == str(direct.value) == "dimension mismatch: 1 vs 2"


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


def test_matrix_spec_keeps_its_own_table():
    # writing to the caller's matrix after construction leaves the spec's
    # table as validated (a zero diagonal), and the caller's array writable
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    spec = QuasiMetricSpec(kind="matrix", matrix=m)
    m[0, 0] = 5.0
    assert spec.matrix[0, 0] == 0.0 and not spec.matrix.flags.writeable
    assert evaluate(spec, [0.0], [0.0]) == 0.0


def test_matrix_index_out_of_range():
    with pytest.raises(IndexError):
        evaluate(TWO_POINT, [0.0], [5.0])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pairwise(QuasiMetricSpec(kind="euclidean"),
                 np.zeros((2, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("field, value", [("alpha", np.inf), ("beta", np.inf),
                                          ("alpha", -np.inf), ("beta", np.nan)])
def test_weighted_asym_needs_finite_positive_weights(field, value):
    # an infinite weight makes e(x, x) = inf * 0 = NaN
    with pytest.raises(ValueError, match="finite alpha > 0 and beta > 0"):
        QuasiMetricSpec(kind="weighted_asym", **{field: value})


# --- block floors --------------------------------------------------------------

# name -> (rule, coordinates per point, coordinate range): every rule with a
# paired_floor
FLOOR_RULES = {
    "asym_line": (LINE, 1, 4.0),
    "euclidean_1d": (QuasiMetricSpec(kind="euclidean"), 1, 4.0),
    "euclidean_2d": (QuasiMetricSpec(kind="euclidean"), 2, 4.0),
    "circle_arc": (ARC, 1, 1.0),
    "weighted_asym_1d": (HINGE, 1, 4.0),
    "weighted_asym_2d": (HINGE, 2, 4.0),
}


def _side(pts: np.ndarray) -> tuple:
    """A block side as paired_floor reads it: minima, maxima."""
    return pts.min(axis=0), pts.max(axis=0)


@st.composite
def floor_cases(draw):
    """(name, spec, rows, cols): a rule with a floor and the row and column
    points of a block, 1 to 8 each. Sorted cases split sorted points, so the
    two sides often lie apart; shuffled ones split them in any order.
    Coordinates are any floats of the range, so every subtraction rounds."""
    name = draw(st.sampled_from(sorted(FLOOR_RULES)))
    count = draw(st.integers(2, 16))
    spec, dim, top = FLOOR_RULES[name]
    pts = np.array(draw(st.lists(st.lists(st.floats(0.0, top), min_size=dim, max_size=dim),
                                 min_size=count, max_size=count)))
    if draw(st.booleans()):
        pts = pts[np.lexsort(pts.T[::-1])]
    else:
        pts = pts[draw(st.permutations(range(count)))]
    cut = draw(st.integers(1, count - 1))
    return name, spec, pts[:cut], pts[cut:]


@settings(max_examples=500, deadline=None)
@given(floor_cases())
def test_paired_floor_bounds_every_value_and_channel(case):
    # the floor in each direction is at most every float value of paired over
    # the block, and the STEP of the two floors at most every step value of
    # each live-pair channel
    name, spec, rows, cols = case
    f = paired_floor(spec, _side(rows), _side(cols))
    b = paired_floor(spec, _side(cols), _side(rows))
    fwd, bwd = pairwise(spec, rows, cols), pairwise(spec, cols, rows).T
    assert f <= fwd.min() and b <= bwd.min(), name
    for channel, step in STEP.items():
        assert step(f, b) <= step(fwd, bwd).min(), (name, channel)


@st.composite
def floor_tables(draw):
    """(name, spec, blocks): a rule with a floor and 1 to 5 blocks of 1 to 6
    points each. Half the circle_arc cases keep their points to the two ends
    of [0, 1], so the arcs between blocks run across the wrap."""
    name = draw(st.sampled_from(sorted(FLOOR_RULES)))
    spec, dim, top = FLOOR_RULES[name]
    coord = st.floats(0.0, top)
    if name == "circle_arc" and draw(st.booleans()):
        coord = st.one_of(st.floats(0.0, 0.0625), st.floats(0.9375, 1.0))
    point = st.lists(coord, min_size=dim, max_size=dim)
    blocks = draw(st.lists(st.lists(point, min_size=1, max_size=6), min_size=1, max_size=5))
    return name, spec, [np.array(b) for b in blocks]


@settings(max_examples=300, deadline=None)
@given(floor_tables())
def test_paired_floor_table_equals_each_block_alone(case):
    # one block_floors call on the tiles gives the floor of every (row tile,
    # column tile) block in each direction, each bit for bit the scalar
    # floor of that block alone, and none above a value of the block
    name, spec, blocks = case
    cuts = np.cumsum([0] + [len(b) for b in blocks])
    tiles = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    pts = np.concatenate(blocks)
    fwd, bwd = block_floors(spec, pts, tiles, pts, tiles)
    assert fwd.shape == bwd.shape == (len(blocks), len(blocks)), name
    for i, rows in enumerate(blocks):
        for j, cols in enumerate(blocks):
            for table, (x, y) in ((fwd, (rows, cols)), (bwd, (cols, rows))):
                alone = oracles.block_floor(spec, _side(x), _side(y))
                assert table[i, j].tobytes() == np.float64(alone).tobytes(), (name, i, j)
                assert table[i, j] <= pairwise(spec, x, y).min(), (name, i, j)


def test_paired_floor_is_attained_at_the_extreme_pairs():
    # on sides a float gap apart the floor is that gap's value, not below it
    rows, cols = np.array([[0.1], [0.3]]), np.array([[0.55], [0.7]])
    gap = 0.55 - 0.3
    assert paired_floor(LINE, _side(rows), _side(cols)) == gap
    assert paired_floor(LINE, _side(cols), _side(rows)) == 1.0
    assert paired_floor(ARC, _side(rows), _side(cols)) == min(gap, 1.0 - (0.7 - 0.1))
    assert paired_floor(HINGE, _side(rows), _side(cols)) == 0.5 * gap


def test_paired_floor_none_and_nan():
    # rules without a floor formula, derived kinds whatever their base among
    # them, get NaN tables; rules with one get floors
    for spec, dim, _ in FLOOR_RULES.values():
        side = _side(np.zeros((1, dim)))
        assert not np.isnan(paired_floor(spec, side, side))
    blocks = symbol_blocks(2, 3).points
    line = np.array([[0.0], [1.0]])
    for spec, pts in ((QuasiMetricSpec(kind="block_prefix"), blocks),
                      (QuasiMetricSpec(kind="block_prefix_asym"), blocks),
                      (symmetrize_max(QuasiMetricSpec(kind="block_prefix_asym")), blocks),
                      (TWO_POINT, line),
                      (symmetrize_mean(TWO_POINT), line),
                      (symmetrize_mean(HINGE), line),
                      (symmetrize_max(LINE), line)):
        assert np.isnan(paired_floor(spec, _side(pts[:1]), _side(pts[1:])))
        tiles = [slice(0, 1), slice(1, len(pts))]
        for table in block_floors(spec, pts, tiles, pts, tiles[:1]):
            assert table.shape == (2, 1) and np.isnan(table).all()
    # asym_line reads a NaN difference as 1, but a NaN coordinate leaves no floor
    rows, cols = np.array([[0.0], [np.nan]]), np.array([[0.5]])
    for spec in (LINE, ARC, HINGE):
        assert np.isnan(paired_floor(spec, _side(rows), _side(cols)))


def test_paired_floor_validates_as_paired_does():
    plane = np.array([[0.0, 0.5], [0.25, 0.75]])
    for spec in (ARC, LINE):
        with pytest.raises(ValueError, match="one-dimensional"):
            paired_floor(spec, _side(plane[:1]), _side(plane[1:]))
