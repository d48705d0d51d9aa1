"""Relations, greedy/exact solvers, count grids and their invariants.

Counts come from ``count_grid``; a test that needs a cover matrix takes the
untiled reference ``oracles.relation`` (bit-identical to the pipeline's
relations, see test_tiling.py) and calls the solvers on it directly, in the
solvers' CSR form ``oracles.csr``.
"""
import csv
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qme import (
    MapSpec,
    QuasiMetricSpec,
    build_orbits,
    circle_grid,
    count_grid,
    custom_cloud,
    grid1d,
    index_cloud,
    pairwise,
)
from qme import cli, covering
from qme.dynamics import OrbitTable
from qme.covering import (
    QUANTITIES,
    QUANTITY_PAIRS,
    _certified_floor,
    _packing_lp,
    exact_cover,
    exact_separated,
    greedy_cover,
    greedy_separated,
)

import oracles
from oracles import csr, is_separated_set, is_valid_cover

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
    cover_ids, _ = exact_cover(csr(cover))
    sep_ids, _ = exact_separated(csr(cover))
    assert is_valid_cover(cover, cover_ids)
    assert is_separated_set(cover, sep_ids)
    assert len(cover_ids) == oracles.brute_min_cover(cover)
    assert len(sep_ids) == oracles.brute_max_separated(cover)


@pytest.mark.parametrize("seed", range(25))
def test_greedy_brackets_exact(seed):
    cover = _random_relation(seed + 1000)
    ge_cover = greedy_cover(csr(cover))
    ge_sep = greedy_separated(csr(cover))
    assert is_valid_cover(cover, ge_cover)
    assert is_separated_set(cover, ge_sep)
    assert len(ge_cover) >= len(exact_cover(csr(cover))[0])
    assert len(ge_sep) <= len(exact_separated(csr(cover))[0])


def test_greedy_ties_break_by_lowest_id():
    cover = np.eye(4, dtype=bool)
    cover[0, 1] = cover[1, 0] = True
    cover[2, 3] = cover[3, 2] = True
    assert greedy_cover(csr(cover)) == [0, 2]
    assert greedy_separated(csr(cover)) == [0, 2]


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


@st.composite
def sized_graphs(draw):
    """Symmetric reflexive bool covers on 1..64 points at any edge density,
    from none (every point alone) to complete."""
    n = draw(st.integers(1, 64))
    density = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T | np.eye(n, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(sized_graphs())
def test_csr_greedy_solvers_match_dense_references(cover):
    # greedy_cover takes tied picks in batches: its contract is the sorted set
    assert greedy_cover(csr(cover)) == sorted(oracles.dense_greedy_cover(cover))
    assert greedy_separated(csr(cover)) == oracles.dense_greedy_separated(cover)


# --- batched greedy cover passes ---------------------------------------------

class _PassCounter:
    """Stands in for numpy inside covering and counts greedy_cover's passes:
    each pass gathers the rows its first pick covers with one np.concatenate."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def concatenate(self, arrays):
        self.passes += 1
        return np.concatenate(arrays)


def _passes(monkeypatch, rel) -> tuple:
    """(greedy_cover(rel), the number of passes it took)."""
    counter = _PassCounter()
    monkeypatch.setattr(covering, "np", counter)
    return greedy_cover(rel), counter.passes


def _narrow(rel):
    """The relation with columns in the narrowest unsigned type, as count_grid
    builds them (uint8 up to 256 points)."""
    return covering.Relation(rel.indptr, rel.indices.astype(np.min_scalar_type(rel.size - 1)))


def _union(blocks, seed=None) -> np.ndarray:
    """The disjoint union of square bool covers; with a seed, its ids shuffled."""
    size = sum(len(b) for b in blocks)
    cover = np.zeros((size, size), dtype=bool)
    at = 0
    for block in blocks:
        cover[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    if seed is not None:
        order = np.random.default_rng(seed).permutation(size)
        cover = cover[np.ix_(order, order)]
    return cover


def _clique(m):
    return np.ones((m, m), dtype=bool)


def _star(m):
    cover = np.eye(m, dtype=bool)
    cover[0, :] = cover[:, 0] = True
    return cover


def _path(m):
    ids = np.arange(m)
    return np.abs(ids[:, None] - ids[None, :]) <= 1


def _cycle(m):
    gap = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    return (gap <= 1) | (gap == m - 1)


def _tied_covers():
    """100-600-point covers whose points tie at their gains: disjoint unions of
    equal blocks, in block order and shuffled, and relations of circle grids."""
    unions = {
        "pairs": [_clique(2)] * 128,  # 256 points: one-byte columns up to id 255
        "cliques": [_clique(3)] * 100,
        "stars": [_star(5)] * 60,
        "paths": [_path(10)] * 40,
        "cycles": [_cycle(20)] * 30,
        "mixed": [_clique(4)] * 25 + [_star(6)] * 25 + [_path(7)] * 20 + [_cycle(9)] * 20,
    }
    for name, blocks in unions.items():
        yield name, _union(blocks)
        yield f"{name}_shuffled", _union(blocks, seed=len(name))
    doubling = MapSpec(kind="doubling")
    for count in (128, 256, 257, 600):
        orbits = build_orbits(doubling, circle_grid(count), 3)
        for n, width in ((1, 1), (1, 3), (1, 10), (2, 2), (3, 5)):
            yield (f"circle{count}_n{n}_w{width}",
                   oracles.relation(ARC, orbits, n, width / count, "two_sided"))


@pytest.mark.parametrize("cover", [pytest.param(cover, id=name) for name, cover in _tied_covers()])
def test_batched_greedy_cover_is_the_sequential_set(cover):
    expected = sorted(oracles.dense_greedy_cover(cover))
    assert greedy_cover(csr(cover)) == expected
    assert greedy_cover(_narrow(csr(cover))) == expected


def test_equal_cliques_are_covered_in_a_few_passes(monkeypatch):
    # every point ties at gain 3 and its row is 3 of the 300 entries, so a
    # pass's prefix holds 100 candidates: the first point of each of 34
    # cliques beside the first pick's. 100 picks take 3 passes, not 100.
    picks, passes = _passes(monkeypatch, csr(_union([_clique(3)] * 100)))
    assert picks == list(range(0, 300, 3))
    assert passes == 3


def test_batch_picks_out_of_sequential_order(monkeypatch):
    # a=0, w=1, z=2, q=3, p=4 and the shared points s1=8, s2=9 start at gain
    # 3; w and z share s1, z and q share s2, and the other points are leaves
    a, w, z, q, p, a1, a2, w1, s1, s2, q1, p1, p2 = range(13)
    edges = [(a, a1), (a, a2), (w, w1), (w, s1), (z, s1), (z, s2), (q, s2), (q, q1),
             (p, p1), (p, p2)]
    cover = np.eye(13, dtype=bool)
    for x, y in edges:
        cover[x, y] = cover[y, x] = True
    # one point at a time: a, then w (z falls to gain 2), q, p, and z last,
    # alone in its row
    assert oracles.dense_greedy_cover(cover) == [a, w, q, p, z]
    # pass 1 picks a, then, of w, z, q, p (s1 and s2 are past the 13-entry
    # prefix), w and p: z shares s1 with w and q shares s2 with z, lower ids.
    # Pass 2 picks q, still at gain 3, after p; z comes from the last step.
    picks, passes = _passes(monkeypatch, csr(cover))
    assert picks == [a, w, z, q, p]
    assert passes == 2


# --- certified LP-dual floor -------------------------------------------------

def _cover_from_edges(n, edges):
    cover = np.eye(n, dtype=bool)
    for i, j in edges:
        cover[i, j] = cover[j, i] = True
    return cover


@st.composite
def graphs(draw):
    """Symmetric reflexive bool covers on 1..16 points."""
    n = draw(st.integers(1, 16))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return _cover_from_edges(n, edges)


def _packing_bound(cover):
    """Size of the lowest-id greedy set of points no two of which share a
    coverer: the branch and bound's root lower bound."""
    chosen = []
    for x in range(cover.shape[0]):
        if not any((cover[x] & cover[y]).any() for y in chosen):
            chosen.append(x)
    return len(chosen)


def _exact_cover_with_budget(cover, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "LP_PIVOT_BUDGET", budget)
        return exact_cover(csr(cover))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_certified_floor_sound_and_exact_cover_optimal(cover):
    opt = oracles.brute_min_cover(cover)
    assert _certified_floor(cover, _packing_lp(cover)) <= opt
    ids, nodes = exact_cover(csr(cover))
    assert len(ids) == opt and nodes >= 1
    assert is_valid_cover(cover, ids)
    # the floor only stops the search early: packing bound alone, same witness
    assert _exact_cover_with_budget(cover, 0)[0] == ids


# 16 points where the packing bound (4) < certified floor = optimum (6) <
# greedy (7): without the LP the search must prove 6 optimal by exhaustion
REGRESSION_EDGES = [(0, 1), (0, 5), (0, 8), (0, 10), (1, 11), (2, 8), (3, 8),
                    (3, 12), (4, 10), (4, 14), (5, 10), (6, 10), (6, 13), (7, 15),
                    (9, 12), (10, 14), (10, 15), (11, 14), (12, 15), (13, 14)]


def _floor_cases():
    """The regression graph and ten weighted_asym relations."""
    return ([_cover_from_edges(16, REGRESSION_EDGES)]
            + [_random_relation(seed) for seed in range(10)])


def test_lp_floor_closes_gap_between_packing_and_greedy():
    cover = _cover_from_edges(16, REGRESSION_EDGES)
    floor = _certified_floor(cover, _packing_lp(cover))
    assert _packing_bound(cover) == 4
    assert floor == oracles.brute_min_cover(cover) == 6
    assert len(greedy_cover(csr(cover))) == 7
    ids, nodes = exact_cover(csr(cover))
    ids_unfloored, nodes_unfloored = _exact_cover_with_budget(cover, 0)
    assert ids == ids_unfloored and len(ids) == 6
    assert 10 * nodes <= nodes_unfloored


@pytest.mark.parametrize("budget", [0, 1])
def test_exhausted_pivot_budget_keeps_optimum_and_witness(budget):
    for cover in _floor_cases():
        ids, _ = exact_cover(csr(cover))
        assert _exact_cover_with_budget(cover, budget)[0] == ids
        assert len(ids) == oracles.brute_min_cover(cover)


def test_closed_at_root_reads_one_node():
    assert exact_cover(csr(np.ones((5, 5), dtype=bool))) == ([0], 1)
    # on the 4-cycle greedy is optimal and the packing bound is not; the LP
    # floor (4/3, rounded up) closes the cell at the root
    cycle = _cover_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert _packing_bound(cycle) == 1 and len(greedy_cover(csr(cycle))) == 2
    assert _exact_cover_with_budget(cycle, 0)[1] > 1
    assert exact_cover(csr(cycle)) == ([0, 1], 1)


@pytest.mark.parametrize("n", [1, 3, 5, 16])
def test_certifier_all_ones_on_complete_graph_gives_one(n):
    assert _certified_floor(np.ones((n, n), dtype=bool), np.ones(n)) == 1


def test_certifier_never_exceeds_optimum_on_bad_duals():
    rng = np.random.default_rng(11)
    for cover in _floor_cases():
        n = cover.shape[0]
        opt = oracles.brute_min_cover(cover)
        duals = [
            rng.normal(size=n),                       # negative entries
            np.full(n, 5.0),                          # every load above 1
            rng.uniform(0.0, 3.0, size=n),
            np.where(rng.random(n) < 0.5, -1e300, 1e300),
            np.full(n, np.nan),
            np.zeros(n),
            np.ones(n),
        ]
        for y in duals:
            assert 0 <= _certified_floor(cover, y) <= opt


# --- explicit-stack solvers vs the recursive references ----------------------

def test_solvers_on_the_empty_relation():
    empty = covering.Relation(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
    assert greedy_cover(empty) == [] and greedy_separated(empty) == []
    assert exact_cover(empty) == ([], 1) and exact_separated(empty) == ([], 1)


@st.composite
def search_graphs(draw, low=1, high=40):
    """Symmetric reflexive bool covers on low..high points, from no edges to
    complete."""
    n = draw(st.integers(low, high))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T | np.eye(n, dtype=bool)


@settings(max_examples=200, deadline=None)
@given(search_graphs(), st.sampled_from([None, 0, 3]))
def test_stack_search_matches_recursive_node_for_node(cover, budget):
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(covering, "LP_PIVOT_BUDGET", budget)
        assert _packing_lp(cover).tobytes() == oracles.reference_packing_lp(cover).tobytes()
        assert exact_cover(csr(cover)) == oracles.recursive_exact_cover(csr(cover))
        assert exact_separated(csr(cover)) == oracles.recursive_exact_separated(csr(cover))


@st.composite
def sparse_wide_graphs(draw):
    """Covers on 41..130 points, so bitsets take two or three words: a
    random core of up to 24 points among isolated ones, ids shuffled so the
    core's bits fall in any word. An isolated point is one branch of the
    cover search, so the search stays small; on a random 126-point relation
    of density 0.03 it did not end within 95 s."""
    n = draw(st.integers(41, 130))
    core = draw(st.integers(0, 24))
    density = draw(st.sampled_from([0.1, 0.2, 0.3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cover = np.eye(n, dtype=bool)
    upper = np.triu(rng.random((core, core)) < density, 1)
    cover[:core, :core] |= upper | upper.T
    order = rng.permutation(n)
    return cover[np.ix_(order, order)]


@settings(max_examples=60, deadline=None)
@given(sparse_wide_graphs(), st.sampled_from([None, 0, 3]))
def test_stack_search_matches_recursive_node_for_node_on_several_words(cover, budget):
    # the references seed their searches with the CSR greedy solvers
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(covering, "LP_PIVOT_BUDGET", budget)
        assert exact_cover(csr(cover)) == oracles.recursive_exact_cover(csr(cover))
        assert exact_separated(csr(cover)) == oracles.recursive_exact_separated(csr(cover))


@settings(max_examples=200, deadline=None)
@given(search_graphs(0, 130))
def test_bitset_incumbents_are_the_greedy_solvers(cover):
    rel = csr(cover)
    masks = oracles.column_masks(cover)
    assert covering._bit_greedy_cover(masks) == greedy_cover(rel) \
        == sorted(oracles.dense_greedy_cover(cover))
    assert covering._bit_greedy_separated(masks) == greedy_separated(rel) \
        == oracles.dense_greedy_separated(cover)


@settings(max_examples=100, deadline=None)
@given(search_graphs(0, 130))
def test_two_hop_masks_mark_points_sharing_a_coverer(cover):
    # the float32 product's masks are the int32 product's
    assert oracles.column_masks(cover, hops=2) == \
        oracles.column_masks((cover.astype(np.int32) @ cover) > 0)


def test_two_hop_masks_take_quadratic_memory():
    # an N x N x words temporary would peak at 128 MB here
    tracemalloc.start()
    try:
        masks = oracles.column_masks(np.eye(1024, dtype=bool), hops=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert masks == [1 << x for x in range(1024)]
    assert peak < 16 * 2 ** 20


def test_exact_solvers_leave_the_recursion_limit_alone():
    # the regression graph beside 284 isolated points: the cover search runs
    # through every isolated point, and a relation this size made the
    # recursive form raise the limit for the rest of the process
    n = 300
    cover = np.eye(n, dtype=bool)
    cover[:16, :16] = _cover_from_edges(16, REGRESSION_EDGES)
    limit = sys.getrecursionlimit()
    assert 4 * n + 100 > limit  # what the recursive search raised it to
    _, cover_nodes = exact_cover(csr(cover))
    _, separated_nodes = exact_separated(csr(cover))
    assert cover_nodes > 1 and separated_nodes > 1
    assert sys.getrecursionlimit() == limit
    for path in pathlib.Path(covering.__file__).parent.glob("*.py"):
        assert "sys.setrecursionlimit" not in path.read_text(encoding="utf-8")


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
    assert grid.variants == ("two_sided", "one_sided")
    for variant in grid.variants:
        r, s = QUANTITY_PAIRS[variant]
        cover = oracles.relation(ARC, orbits, 2, 0.25, variant)
        assert cell.get(r).cardinality == len(exact_cover(csr(cover))[0])
        assert cell.get(s).cardinality == len(exact_separated(csr(cover))[0])


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


# the doubling_grid fixture as a run configuration
DOUBLING_CONFIG = """\
map: {kind: doubling}
cloud: {kind: circle_grid, count: 48}
qmetric: {kind: circle_arc}
schedule: {n_list: [1, 2, 3, 4], eps_list: [0.5, 0.25, 0.125, 0.0625]}
"""


def test_count_grid_rows_schema(doubling_grid, tmp_path, monkeypatch):
    # the counts.csv rows that cmd_counts builds from the grid
    _, _, grid = doubling_grid
    monkeypatch.setattr(cli, "count_grid", lambda *args, **kwargs: grid)
    config = tmp_path / "run.yaml"
    config.write_text(DOUBLING_CONFIG)
    assert cli.main(["counts", "--config", str(config), "--out", str(tmp_path),
                     "--format", "csv"]) == 0
    with open(tmp_path / "counts.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
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
        count_grid(ARC, orbits, [1], [0.5], variants=())
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [0, 1], [0.5])  # n below 1
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [1], [0.125, 0.25])  # eps ascending
    with pytest.raises(ValueError):
        count_grid(ARC, orbits, [1], [0.25, 0.25, 0.125])  # eps repeated


# --- one solve per distinct relation ------------------------------------------

def _counted(monkeypatch, names) -> dict:
    """Patch covering's solvers of the given names to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(rel, name=name, solver=getattr(covering, name)):
            calls[name] += 1
            return solver(rel)
        monkeypatch.setattr(covering, name, counted)
    return calls


def _built(monkeypatch) -> list:
    """Patch covering's relation build to record each relation it builds,
    made dense."""
    built = []

    def counted(selection, blocks, size, build=covering._relation):
        rel = build(selection, blocks, size)
        built.append(rel.dense())
        return rel

    monkeypatch.setattr(covering, "_relation", counted)
    return built


def _oracle_cells(spec, orbits, n_list, eps_list, variants) -> dict:
    return {(n, eps, v): oracles.relation(spec, orbits, n, eps, v)
            for n in n_list for eps in eps_list for v in variants}


def _assert_cells_solved_alone(grid, cells, exact_threshold):
    for (n, eps, variant), cover in cells.items():
        r, s = QUANTITY_PAIRS[variant]
        cell = grid.cell(n, eps)
        assert cell.get(r) == covering._solve(csr(cover), False, exact_threshold)
        assert cell.get(s) == covering._solve(csr(cover), True, exact_threshold)


def test_count_grid_solves_each_distinct_greedy_relation_once(monkeypatch):
    # on the 2^-20 lattice doubling is exact, and D_{n+1} = 2 D_n on close
    # pairs, so the relation at (n, 2^-k) depends only on n + k
    rng = np.random.default_rng(3)
    idx = np.sort(rng.choice(1 << 20, size=512, replace=False))
    orbits = build_orbits(MapSpec(kind="doubling"), custom_cloud(idx / 2.0 ** 20), 6)
    n_list, eps_list = [2, 3, 4, 5, 6], [2.0 ** -k for k in range(3, 7)]
    cells = _oracle_cells(ARC, orbits, n_list, eps_list, covering.VARIANTS)
    distinct = {cover.tobytes() for cover in cells.values()}
    calls = _counted(monkeypatch, ("greedy_cover", "greedy_separated"))
    built = _built(monkeypatch)
    grid = count_grid(ARC, orbits, n_list, eps_list, exact_threshold=0)
    assert len(distinct) < len(cells)
    assert calls == {"greedy_cover": len(distinct), "greedy_separated": len(distinct)}
    # each distinct relation is built once, and no repeat is built
    assert sorted(cover.tobytes() for cover in built) == sorted(distinct)
    _assert_cells_solved_alone(grid, cells, 0)


def test_count_grid_solves_each_distinct_exact_relation_once(monkeypatch):
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    orbits = build_orbits(MapSpec(kind="tent"), grid1d(0.0, 1.0, 12), 4)
    n_list, eps_list = [1, 2, 3, 4], [1.0, 0.5, 0.25, 0.125]
    cells = _oracle_cells(spec, orbits, n_list, eps_list, covering.VARIANTS)
    distinct = {cover.tobytes() for cover in cells.values()}
    calls = _counted(monkeypatch, ("exact_cover", "exact_separated"))
    greedy = _counted(monkeypatch, ("greedy_cover", "greedy_separated"))
    packed = []
    monkeypatch.setattr(covering, "_pack", lambda cover, pack=covering._pack:
                        packed.append(cover.tobytes()) or pack(cover))
    built = _built(monkeypatch)
    grid = count_grid(spec, orbits, n_list, eps_list)
    assert len(distinct) < len(cells)
    assert calls == {"exact_cover": len(distinct), "exact_separated": len(distinct)}
    assert sorted(cover.tobytes() for cover in built) == sorted(distinct)
    # the incumbents come from the bitsets, packed once per distinct
    # relation; exact_cover packs each one's two-hop matrix once more
    assert greedy == {"greedy_cover": 0, "greedy_separated": 0}
    covers = [np.frombuffer(c, dtype=bool).reshape(12, 12).astype(np.int32) for c in distinct]
    hops = [(c @ c > 0).tobytes() for c in covers]
    assert sorted(packed) == sorted([*distinct, *hops])
    _assert_cells_solved_alone(grid, cells, covering.DEFAULT_EXACT_THRESHOLD)


def test_relations_differing_only_in_indices_are_both_solved(monkeypatch):
    # T^i x = x + i (mod 6); e is 1 inside the triangles {0, 1, 2} and
    # {3, 4, 5}, 2 on the edges 2-3 and 5-0, and 3 elsewhere. At (1, 1) the
    # relation is the two triangles, at (2, 2) the 6-cycle 0-1-2-3-4-5-0:
    # three entries per row in both, and six pairs in the one block, so only
    # the offsets tell them apart
    m = np.full((6, 6), 3.0)
    for x, y, value in [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1),
                        (4, 5, 1), (2, 3, 2), (5, 0, 2)]:
        m[x, y] = m[y, x] = value
    np.fill_diagonal(m, 0.0)
    points = index_cloud(6).points
    orbits = OrbitTable(images=np.stack([points, np.roll(points, -1, axis=0)], axis=1),
                        snap_mode="exact")
    built = _built(monkeypatch)
    grid = count_grid(QuasiMetricSpec(kind="matrix", matrix=m), orbits, [1, 2],
                      [2.0, 1.0], variants=("two_sided",))
    assert grid.cell(1, 1.0).s1.cardinality == 2
    assert grid.cell(2, 2.0).s1.cardinality == 3
    six_pairs = [cover for cover in built if cover.sum() == 6 + 2 * 6]
    assert len(six_pairs) == 2 and not np.array_equal(*six_pairs)


def test_relation_shared_across_pairings_is_built_once(monkeypatch):
    # the hinge rule on the 2^-20 lattice under doubling: the one_sided
    # relation at eps / 4 is the two_sided one at eps wherever no pair wraps
    # around the circle, so both pairings reuse one build
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    rng = np.random.default_rng(3)
    idx = np.sort(rng.choice(1 << 20, size=40, replace=False))
    orbits = build_orbits(MapSpec(kind="doubling"), custom_cloud(idx / 2.0 ** 20), 4)
    n_list, eps_list = [1, 2, 3, 4], [2.0 ** -k for k in range(2, 7)]
    cells = _oracle_cells(spec, orbits, n_list, eps_list, covering.VARIANTS)
    users = {}  # relation -> its (n, eps, variant) cells
    for cell, cover in cells.items():
        users.setdefault(cover.tobytes(), []).append(cell)
    # a two_sided relation, not the diagonal, is a one_sided one at another
    # (n, eps)
    diagonal = np.eye(len(idx), dtype=bool).tobytes()
    assert any(n != m or eps != e
               for key, shared in users.items() if key != diagonal
               for n, eps, v in shared if v == "two_sided"
               for m, e, w in shared if w == "one_sided")
    built = _built(monkeypatch)
    grid = count_grid(spec, orbits, n_list, eps_list, exact_threshold=0)
    assert sorted(cover.tobytes() for cover in built) == sorted(users)
    _assert_cells_solved_alone(grid, cells, 0)


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


def _doubled(spec, orbits) -> tuple:
    """(rule, doubled rule, orbits): the hinge rule with both weights doubled,
    or, for circle_arc, a lookup table of its distances between the distinct
    orbit points and that table doubled, on the orbits as point indices. Each
    doubled value is exactly twice the rule's."""
    if spec.kind == "weighted_asym":
        return spec, QuasiMetricSpec(kind="weighted_asym", alpha=2.0 * spec.alpha,
                                     beta=2.0 * spec.beta), orbits
    pts, ids = np.unique(orbits.images, return_inverse=True)
    table = pairwise(spec, pts[:, None], pts[:, None])
    indexed = OrbitTable(images=ids.reshape(orbits.images.shape).astype(float),
                         snap_mode=orbits.snap_mode)
    return (QuasiMetricSpec(kind="matrix", matrix=table),
            QuasiMetricSpec(kind="matrix", matrix=2.0 * table), indexed)


@pytest.mark.parametrize("seed", range(8))
def test_scaling_rescales_cells(seed):
    # a rule doubled covers at eps exactly what the rule covers at eps / 2
    spec, orbits, cloud, n, eps = _random_system(seed + 500)
    spec, doubled, orbits = _doubled(spec, orbits)
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
