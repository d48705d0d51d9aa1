"""Tiled and live-pair passes equal their untiled references bit for bit.

The tile constants are shrunk to 3-row tiles (so 3 x 3 live-pair chunks)
and pieces of 2 entries, which do not divide a tile, so the pairwise blocks
of nearest snapping and the axiom checks, and the slices in which covering
evaluates a chunk's pairs, end in partial pieces. Clouds of 1 to 20 points
then cover every layout: smaller than a tile, exactly one tile, and
multiples of a tile plus or minus one.
"""
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qme.covering
import qme.dynamics
import qme.quasimetric as qm
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
    symbol_blocks,
    symmetrize_max,
    symmetrize_mean,
)
from qme.config import DEFAULT_TRIPLE_BUDGET
from qme.covering import (
    BIN_OP,
    PAIRINGS,
    _blocks,
    _EpsBins,
    _live_pairs,
    _read,
    _relation,
    _selection,
)
from qme.dynamics import OrbitTable
from qme.quasimetric import is_symmetric

import oracles
from oracles import plain

SIZES = range(1, 21)
KINDS = ("weighted_asym", "asym_line", "matrix", "block_prefix_asym")
# rules symmetric by construction, whose live pairs are evaluated one way
SYMMETRIC_KINDS = ("circle_arc", "euclidean_2d", "block_prefix", "matrix_symmetric",
                   "mean_of_weighted_asym")
# [1, 4, 7] leaves gaps, so pairs die between scheduled n
SCHEDULES = ([1, 2, 4], [3, 4], [1, 4, 7])
EPS = [0.25, 1.0, 0.125, 0.5]  # unsorted: the largest is not last
EPS_DESC = sorted(EPS, reverse=True)
VARIANT_SETS = (("two_sided",), ("one_sided",), ("two_sided", "one_sided"),
                ("mean_metric",), ("two_sided", "mean_metric"), PAIRINGS)
# bytes per live pair of an asymmetric rule with one-byte bins: two uint8
# block offsets and one bin per channel (a symmetric rule's: 3)
PAIR_BYTES = dict(zip(VARIANT_SETS, (3, 4, 4, 3, 4, 5)))


@pytest.fixture(autouse=True)
def tiny_tiles(monkeypatch):
    monkeypatch.setattr(qm, "ROW_TILE", 3)
    monkeypatch.setattr(qm, "PAIR_BLOCK", 2)
    monkeypatch.setattr(qme.covering, "PAIR_BLOCK", 2)


def _default_tiles(monkeypatch):
    monkeypatch.setattr(qm, "ROW_TILE", 256)
    for module in (qm, qme.covering):
        monkeypatch.setattr(module, "PAIR_BLOCK", 8192)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bins_of(values: np.ndarray, bins: _EpsBins, eps_desc) -> np.ndarray:
    """The eps bins of values by their definition, #{k : v <= eps_k}, in the
    bins' dtype."""
    within = np.asarray(values)[:, None] <= np.asarray(eps_desc)[None, :]
    return within.sum(axis=1).astype(bins.dtype)


def _case(kind: str, size: int, rng: np.random.Generator) -> tuple:
    """(spec, cloud) for a rule of KINDS or SYMMETRIC_KINDS on a cloud of the
    given size."""
    if kind in ("matrix", "matrix_symmetric"):
        m = rng.integers(1, 64, size=(size, size)) / 64.0
        if kind == "matrix_symmetric":
            m = np.maximum(m, m.T)
        np.fill_diagonal(m, 0.0)
        return QuasiMetricSpec(kind="matrix", matrix=m), index_cloud(size)
    if kind in ("block_prefix", "block_prefix_asym"):
        blocks = symbol_blocks(3, 3).points
        picks = rng.choice(len(blocks), size=size, replace=False)
        return QuasiMetricSpec(kind=kind), custom_cloud(blocks[picks])
    if kind in ("weighted_asym", "mean_of_weighted_asym", "euclidean_2d"):
        pts = rng.choice(1025, size=(size, 2), replace=False) / 1024.0
        hinge = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
        spec = {"weighted_asym": hinge,
                "mean_of_weighted_asym": symmetrize_mean(hinge),
                "euclidean_2d": QuasiMetricSpec(kind="euclidean")}[kind]
        return spec, custom_cloud(pts)
    pts = rng.choice(1025, size=size, replace=False) / 1024.0  # asym_line, circle_arc
    return QuasiMetricSpec(kind=kind), custom_cloud(pts)


def _channels(variants: tuple, symmetric: bool) -> tuple:
    """The live-pair channels of count_grid for the variants, on a rule
    whose largest eps is below 2^1023: f alone for a symmetric rule, else f
    and b with one_sided, max(f, b) with two_sided alone, and mean beside."""
    if symmetric:
        return ("f",)
    return ((("f", "b") if "one_sided" in variants else ("max",) if "two_sided" in variants
             else ()) + (("mean",) if "mean_metric" in variants else ()))


def _permutation_orbits(cloud, rng: np.random.Generator, n_max: int = 7) -> OrbitTable:
    """Orbit table of a random permutation of the cloud, which is a map of it."""
    perm = rng.permutation(len(cloud))
    idx = np.arange(len(cloud))
    steps = [cloud.points]
    for _ in range(1, n_max):
        idx = perm[idx]
        steps.append(cloud.points[idx])
    return OrbitTable(images=np.stack(steps, axis=1), snap_mode="exact")


@pytest.mark.parametrize("kind", KINDS + SYMMETRIC_KINDS)
def test_live_pair_relations_match_full_matrix(kind):
    rng = np.random.default_rng(7)
    for size in SIZES:
        spec, cloud = _case(kind, size, rng)
        # an asymmetric kind may draw a symmetric matrix (size 1, say)
        symmetric = is_symmetric(spec)
        assert symmetric or kind not in SYMMETRIC_KINDS
        orbits = _permutation_orbits(cloud, rng)
        bins = _EpsBins(EPS_DESC)
        for n_list in SCHEDULES:
            for variants in VARIANT_SETS:
                channels = _channels(variants, symmetric)
                for n, chunks in _live_pairs(spec, orbits, n_list, bins, channels):
                    dist = oracles.naive_bowen(spec, orbits, n)
                    mean_dist = oracles.naive_bowen(symmetrize_mean(spec), orbits, n)
                    # each channel's value, and the untiled relations,
                    # thresholded at each eps below: those of oracles.relation,
                    # and for mean_metric the Bowen matrix of the mean
                    # symmetrization
                    value = {"f": dist, "b": dist.T, "max": np.maximum(dist, dist.T),
                             "mean": mean_dist}
                    sym = {v: mean_dist if v == "mean_metric"
                           else oracles.naive_symmetrized(dist, v) for v in variants}
                    live = np.zeros((size, size), dtype=bool)
                    for (rows, cols), chunk in zip(_blocks(size), chunks):
                        xo, yo, *lows = chunk
                        assert xo.dtype == yo.dtype == np.uint8
                        assert np.all(xo < rows.stop - rows.start)
                        assert np.all(yo < cols.stop - cols.start)
                        x, y = rows.start + xo.astype(int), cols.start + yo.astype(int)
                        assert np.all(x < y)
                        assert np.array_equal(np.lexsort((y, x)), np.arange(len(x)))
                        assert len(lows) == len(channels)
                        for channel, low in zip(channels, lows):
                            assert _same_bits(low, _bins_of(value[channel][x, y], bins,
                                                            EPS_DESC)), channel
                        live[x, y] = True
                    # the live pairs are those of some requested relation at
                    # the largest eps
                    held = np.logical_or.reduce([sym[v] <= EPS_DESC[0] for v in variants])
                    assert np.array_equal(live, np.triu(held, 1))
                    # the pairings count_grid selects one relation for
                    groups = {}
                    for variant in variants:
                        groups.setdefault(_read(channels, variant), []).append(variant)
                    assert len(groups) == (1 if symmetric else len(variants))
                    for k in range(bins.top):
                        for read, users in groups.items():
                            selection = _selection(chunks, read, k)
                            rel = _relation(selection, _blocks(size), size)
                            for variant in users:
                                ref = sym[variant] <= EPS_DESC[k]
                                assert np.array_equal(rel.dense(), ref), (size, n, k)
                                assert rel.indices.dtype == np.min_scalar_type(size - 1)
                                rows = np.split(rel.indices.astype(int), rel.indptr[1:-1])
                                assert all(np.all(np.diff(row) > 0) for row in rows)


@pytest.mark.parametrize("kind", SYMMETRIC_KINDS)
def test_symmetric_rule_variants_share_one_relation(kind):
    # count_grid builds one relation per n for both variants of a symmetric
    # rule; each variant solved alone gives the same cells
    rng = np.random.default_rng(13)
    eps_desc = sorted(EPS, reverse=True)
    for size in (1, 7, 20):
        spec, cloud = _case(kind, size, rng)
        orbits = _permutation_orbits(cloud, rng)
        both = count_grid(spec, orbits, [1, 4, 7], eps_desc)
        alone = [count_grid(spec, orbits, [1, 4, 7], eps_desc, variants=(v,))
                 for v in ("two_sided", "one_sided")]
        for key, cell in both.cells.items():
            assert (cell.r1, cell.s1) == (alone[0].cells[key].r1, alone[0].cells[key].s1)
            assert (cell.r2, cell.s2) == (alone[1].cells[key].r2, alone[1].cells[key].s2)
            assert (cell.r1, cell.s1) == (cell.r2, cell.s2)


def _lexsort_csr(chunks: list, size: int, op, k: int) -> tuple:
    """(indptr, indices) of every chunk pair whose op(fbin, bbin) exceeds k,
    in both directions, and of the diagonal, ordered by one lexsort on
    (row, column), with the chunks' block offsets mapped to point ids."""
    ids = [(rows.start + c[0].astype(np.int64), cols.start + c[1].astype(np.int64),
            op(c[2], c[3]) > k) for (rows, cols), c in zip(_blocks(size), chunks)]
    x = np.concatenate([x[close] for x, _, close in ids])
    y = np.concatenate([y[close] for _, y, close in ids])
    diagonal = np.arange(size)
    rows = np.concatenate([x, y, diagonal])
    cols = np.concatenate([y, x, diagonal])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return indptr, cols[order]


@st.composite
def matrix_cases(draw):
    """(spec, size, eps_desc): an asymmetric matrix rule with off-diagonal
    values on the 1/8 lattice of [1/8, 2], and a decreasing eps schedule on
    the same lattice whose largest eps runs from 0 (no live pair, every
    chunk empty) to 2 (every pair live)."""
    size = draw(st.integers(1, 20))
    m = np.array(draw(st.lists(st.integers(1, 16), min_size=size * size,
                               max_size=size * size)), dtype=float).reshape(size, size)
    np.fill_diagonal(m, 0.0)
    spec = QuasiMetricSpec(kind="matrix", matrix=m / 8.0)
    eps = draw(st.lists(st.integers(0, 16), min_size=1, max_size=4, unique=True))
    return spec, size, [e / 8.0 for e in sorted(eps, reverse=True)]


@pytest.mark.parametrize("row_tile", [3, 256])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=matrix_cases())
def test_relation_values_match_lexsort_reference(monkeypatch, row_tile, case):
    monkeypatch.setattr(qm, "ROW_TILE", row_tile)
    spec, size, eps_desc = case
    orbits = OrbitTable(images=index_cloud(size).points[:, None, :], snap_mode="exact")
    # the one_sided live set, with f and b bins whatever the matrix, built as
    # one_sided and as two_sided relations, which drops the pairs close in
    # one direction only
    bins = _EpsBins(eps_desc)
    [(_, chunks)] = _live_pairs(spec, orbits, [1], bins, ("f", "b"))
    for pairing in ("one_sided", "two_sided"):
        for k in range(bins.top):
            rel = _relation(_selection(chunks, BIN_OP[pairing], k), _blocks(size), size)
            ref_indptr, ref_indices = _lexsort_csr(chunks, size, BIN_OP[pairing], k)
            assert _same_bits(rel.indptr, ref_indptr)
            assert rel.indices.dtype == np.min_scalar_type(size - 1)
            assert np.array_equal(rel.indices, ref_indices)


def test_count_grid_many_eps_matches_oracle_relations():
    # 300 eps take two-byte bins; the matrix and the eps share the 1/256
    # lattice, so many distances equal an eps exactly
    rng = np.random.default_rng(3)
    size = 9
    m = rng.integers(1, 301, size=(size, size)) / 256.0
    np.fill_diagonal(m, 0.0)
    spec = QuasiMetricSpec(kind="matrix", matrix=m)
    orbits = _permutation_orbits(index_cloud(size), rng, n_max=3)
    eps_desc = [(300 - k) / 256.0 for k in range(300)]
    assert _EpsBins(eps_desc).dtype == np.uint16
    grid = count_grid(spec, orbits, [1, 3], eps_desc, exact_threshold=size)
    optimum = {}
    for (n, eps), cell in grid.cells.items():
        for variant, (r, s) in (("two_sided", ("r1", "s1")), ("one_sided", ("r2", "s2"))):
            cover = oracles.relation(spec, orbits, n, eps, variant)
            key = cover.tobytes()
            if key not in optimum:
                optimum[key] = (oracles.brute_min_cover(cover),
                                oracles.brute_max_separated(cover))
            assert (cell.get(r).cardinality, cell.get(s).cardinality) == optimum[key], \
                (n, eps, variant)
            assert oracles.is_valid_cover(cover, cell.get(r).witness)
            assert oracles.is_separated_set(cover, cell.get(s).witness)
    # the relations change across the lattice, not only at its top
    assert len(optimum) > 10


@pytest.mark.parametrize("kind,n_eps", [("weighted_asym", 4), ("weighted_asym", 300),
                                        ("circle_arc", 4), ("circle_arc", 300)])
def test_chunk_and_relation_item_sizes(monkeypatch, kind, n_eps):
    # the chunks of count_grid's own stream, for every pairing set: a live
    # pair is two uint8 block offsets and one bin per channel, none aliased,
    # PAIR_BYTES with one-byte bins and one more byte per channel with
    # two-byte ones; a relation entry on 20 points is one uint8 column
    layouts, columns = [], []
    stream, build = qme.covering._live_pairs, qme.covering._relation

    def spied(*args):
        for n, chunks in stream(*args):
            assert sum(len(c[0]) for c in chunks) > 0
            for chunk in chunks:
                assert chunk[0].dtype == chunk[1].dtype == np.uint8
                assert len({id(a) for a in chunk}) == len(chunk)
                layouts.append(tuple(a.dtype for a in chunk[2:]))
            yield n, chunks

    def built(*args):
        rel = build(*args)
        columns.append((rel.indptr.dtype, rel.indices.dtype, len(rel.indices)))
        return rel

    monkeypatch.setattr(qme.covering, "_live_pairs", spied)
    monkeypatch.setattr(qme.covering, "_relation", built)
    rng = np.random.default_rng(2)
    spec, cloud = _case(kind, 20, rng)
    orbits = _permutation_orbits(cloud, rng)
    eps = [2.0 - k / 256.0 for k in range(n_eps)]
    width = 1 if n_eps <= 255 else 2
    assert _EpsBins(eps).dtype == np.dtype(f"uint{8 * width}")
    for pairings in VARIANT_SETS:
        layouts.clear()
        count_grid(spec, orbits, [1, 2], eps, exact_threshold=0, variants=pairings)
        per_pair = 3 if is_symmetric(spec) else PAIR_BYTES[pairings]
        assert set(layouts) == {(np.dtype(f"uint{8 * width}"),) * (per_pair - 2)}, pairings
    assert {c[:2] for c in columns} == {(np.dtype(np.int64), np.dtype(np.uint8))}
    assert max(c[2] for c in columns) > len(cloud)


@pytest.mark.parametrize("size,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                        (65536, np.uint16), (65537, np.uint32)])
def test_relation_index_width(monkeypatch, size, dtype):
    # hand-built chunks of 256-point blocks holding the pairs (0, 1) and
    # (size - 2, size - 1): the relation stores its columns in the narrowest
    # unsigned type that holds size - 1
    monkeypatch.setattr(qm, "ROW_TILE", 256)
    blocks = _blocks(size)
    pairs = sorted({(0, 1), (size - 2, size - 1)}) if size > 1 else []
    chunks = []
    for rows, cols in blocks:
        offsets = np.array([(x - rows.start, y - cols.start) for x, y in pairs
                            if rows.start <= x < rows.stop and cols.start <= y < cols.stop],
                           dtype=np.uint8).reshape(-1, 2)
        chunks.append((offsets[:, 0], offsets[:, 1], np.ones(len(offsets), dtype=np.uint8)))
    assert sum(len(c[0]) for c in chunks) == len(pairs)
    rel = _relation(_selection(chunks, 0, 0), blocks, size)
    assert rel.indices.dtype == dtype and rel.indptr.dtype == np.int64
    if size <= 257:
        dense = np.eye(size, dtype=bool)
        for x, y in pairs:
            dense[x, y] = dense[y, x] = True
        assert np.array_equal(rel.dense(), dense)
    assert rel.indices[rel.indptr[size - 1]:].tolist() == ([size - 2, size - 1] if pairs else [0])
    assert len(rel.indices) == size + 2 * len(pairs)
    diagonal = _relation(_selection(chunks, 0, 1), blocks, size)
    assert np.array_equal(diagonal.indices, np.arange(size))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 513])
def test_relation_matches_dense_oracle(monkeypatch, size, seed):
    # a selection drawn block by block on 256-point blocks, each block empty,
    # full or random by its position and the seed, with row tile 256..511 of
    # 513 points all empty and pairs in row 255 of a full tile: the CSR is
    # the symmetric closure plus the identity, read row by row by np.nonzero
    monkeypatch.setattr(qm, "ROW_TILE", 256)
    rng = np.random.default_rng([size, seed])
    blocks = _blocks(size)
    upper = np.zeros((size, size), dtype=bool)
    for k, (rows, cols) in enumerate(blocks):
        if size == 513 and 256 in (rows.start, cols.start):
            continue
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        upper[rows, cols] = rng.random(shape) < (1.0, 0.0, 0.3)[(k + seed) % 3]
    if size >= 256:
        upper[254, 255] = upper[255, size - 1] = True
    upper = np.triu(upper, 1)
    selection = []
    for rows, cols in blocks:
        xo, yo = np.nonzero(upper[rows, cols])
        selection.append((xo.astype(np.uint8), yo.astype(np.uint8)))
    rel = _relation(selection, blocks, size)
    dense = upper | upper.T | np.eye(size, dtype=bool)
    _, cols = np.nonzero(dense)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(dense.sum(axis=1), out=indptr[1:])
    assert _same_bits(rel.indptr, indptr)
    assert _same_bits(rel.indices, cols.astype(np.uint8 if size <= 256 else np.uint16))
    steps = np.diff(rel.indices.astype(np.int64))
    steps[rel.indptr[1:-1] - 1] = 1  # a row's first column may be below the last row's
    assert (np.diff(rel.indptr) > 0).all() and (steps > 0).all()


def test_block_offsets_need_row_tiles_of_at_most_256(monkeypatch):
    monkeypatch.setattr(qm, "ROW_TILE", 257)
    cloud = grid1d(0.0, 1.0, 300)
    orbits = build_orbits(MapSpec(kind="tent"), cloud, 1)
    with pytest.raises(ValueError, match="ROW_TILE"):
        count_grid(QuasiMetricSpec(kind="circle_arc"), orbits, [1], [0.25])


@pytest.mark.parametrize("kind", KINDS)
def test_both_pairings_build_one_relation_per_n(monkeypatch, kind):
    # count_grid selects, at each n and eps, one relation's pairs for both
    # pairings of a symmetric rule and one per pairing of an asymmetric rule
    # (and builds only the selections it has not seen); each pairing solved
    # alone gives the same cells
    builds = []

    def counted(chunks, read, k):
        builds.append(k)
        return _selection(chunks, read, k)

    monkeypatch.setattr(qme.covering, "_selection", counted)
    rng = np.random.default_rng(17)
    for size in (1, 7, 20):
        spec, cloud = _case(kind, size, rng)
        orbits = _permutation_orbits(cloud, rng)
        builds.clear()
        both = count_grid(spec, orbits, [1, 4, 7], EPS_DESC)
        groups = 1 if is_symmetric(spec) else 2
        assert builds == [k for k in range(len(EPS_DESC)) for _ in range(groups)] * 3
        alone = [count_grid(spec, orbits, [1, 4, 7], EPS_DESC, variants=(v,))
                 for v in ("two_sided", "one_sided")]
        for key, cell in both.cells.items():
            assert (cell.r1, cell.s1) == (alone[0].cells[key].r1, alone[0].cells[key].s1)
            assert (cell.r2, cell.s2) == (alone[1].cells[key].r2, alone[1].cells[key].s2)


@pytest.mark.parametrize("kind", KINDS)
def test_max_asymmetry_matches_full_transpose(kind):
    # and the whole report matches the full-matrix one, exhaustive (n^3
    # triples) and sampled (n^3 - 1 draws, each violating triple listed once)
    rng = np.random.default_rng(11)
    cases = [_case(kind, size, rng) for size in SIZES]
    if kind == "weighted_asym":
        # e = inf both ways between -1e308 and 1e308, so D - D^T holds a NaN
        nan_case = (cases[0][0], custom_cloud([[-1e308], [1e308], [0.0]]))
        cases.append(nan_case)
        report = check_axioms(*nan_case, triple_budget=26)
        assert not report.nonnegativity_ok and not report.symmetric
        assert np.isnan(report.max_asymmetry)
    for spec, cloud in cases:
        size = len(cloud)
        for budget in (size ** 3, size ** 3 - 1):
            if budget < 1:
                continue
            ref = oracles.dense_axioms(spec, cloud, budget)
            ref = dataclasses.replace(ref, violations=sorted(set(ref.violations)))
            # as text, so that a NaN max_asymmetry compares equal
            assert repr(plain(check_axioms(spec, cloud, budget))) == repr(plain(ref)), \
                (size, budget)


def test_exhaustive_axioms_over_many_triple_slices_match_full_matrix(monkeypatch):
    # 40 points under a random lookup table: at the default constants 64,000
    # triples span eight slices of 8,192, and the enumerated triples find the
    # violations that the full matrix finds, with the same values
    _default_tiles(monkeypatch)
    rng = np.random.default_rng(40)
    table = rng.integers(1, 64, size=(40, 40)) / 64.0
    np.fill_diagonal(table, 0.0)
    spec, cloud = QuasiMetricSpec(kind="matrix", matrix=table), index_cloud(40)
    report = check_axioms(spec, cloud, 40 ** 3)
    ref = oracles.dense_axioms(spec, cloud, 40 ** 3)
    assert report.exhaustive and report.triples_checked == 64_000
    assert len(report.violations) > 1000 and report == ref


def test_count_grid_same_with_tiny_and_default_tiles(monkeypatch):
    cloud = grid1d(0.0, 1.0, 20)
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    orbits = build_orbits(MapSpec(kind="tent"), cloud, 4)
    args = (spec, orbits, [1, 2, 4], [0.5, 0.25, 0.125])
    tiny = [plain(count_grid(*args, exact_threshold=t)) for t in (0, len(cloud))]
    _default_tiles(monkeypatch)
    assert tiny == [plain(count_grid(*args, exact_threshold=t)) for t in (0, len(cloud))]


def test_count_grid_peak_below_one_dense_matrix(monkeypatch):
    # a sparse schedule on 2048 points: the live pairs, their relations, one
    # block's seeded pairs and one slice's temporaries stay below a single
    # N x N float64
    _default_tiles(monkeypatch)
    size = 2048
    orbits = build_orbits(MapSpec(kind="doubling"), circle_grid(size), 7)
    arc = QuasiMetricSpec(kind="circle_arc")
    tracemalloc.start()
    try:
        count_grid(arc, orbits, [3, 5, 7], [2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
                   exact_threshold=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * size * 8


def test_count_grid_peak_on_the_doubling_cloud(monkeypatch):
    # the 4096-point doubling cloud at n = 2..9, eps = 2^-3..2^-7, greedy: the
    # peak, set at n = 2, holds the chunks (3 bytes per live pair), one
    # relation (2 bytes per entry) and the largest row tile's entries, one
    # 4-byte key each (once about 16 bytes: offsets, columns and an int64
    # sort order)
    _default_tiles(monkeypatch)
    rng = np.random.default_rng([1, 1])
    cloud = custom_cloud(np.sort(rng.choice(1 << 20, 4096, replace=False)) / 2.0 ** 20)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 9)
    tracemalloc.start()
    try:
        count_grid(QuasiMetricSpec(kind="circle_arc"), orbits, list(range(2, 10)),
                   [2.0 ** -k for k in range(3, 8)], exact_threshold=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20


def test_check_axioms_peak_below_one_dense_matrix(monkeypatch):
    # sampled mode on 2048 points: one block pair of pairwise values, the
    # budget x 3 int64 draw and one slice of triples stay below a single
    # N x N float64
    monkeypatch.setattr(qm, "ROW_TILE", 256)
    monkeypatch.setattr(qm, "PAIR_BLOCK", 8192)
    size = 2048
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    tracemalloc.start()
    try:
        report = check_axioms(spec, circle_grid(size), DEFAULT_TRIPLE_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.exhaustive and report.all_ok
    assert peak < size * size * 8


@pytest.mark.parametrize("tile,block", [(3, 2), (256, 8192)])
def test_check_axioms_reads_each_pair_once_outside_diagonal_blocks(monkeypatch, tile, block):
    # both directions of the blocks on and right of each row tile's
    # diagonal, from one paired_both call per block: every ordered pair at
    # least once, a pair of points in two row tiles exactly once, and about
    # N^2 evaluations in all, not 2 N^2
    monkeypatch.setattr(qm, "ROW_TILE", tile)
    monkeypatch.setattr(qm, "PAIR_BLOCK", block)
    size = 20 if tile == 3 else 600
    seen = np.zeros((size, size), dtype=int)
    evaluate = qm.paired_both

    def counted(spec, a, b):
        if a.ndim == 3:  # a block, (h, 1, d) x (1, w, d); triples are (m, d)
            rows, cols = np.rint(a[:, 0, 0]).astype(int), np.rint(b[0, :, 0]).astype(int)
            seen[np.ix_(rows, cols)] += 1
            seen[np.ix_(cols, rows)] += 1
        return evaluate(spec, a, b)

    monkeypatch.setattr(qm, "paired_both", counted)
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0)
    check_axioms(spec, grid1d(0.0, size - 1.0, size), triple_budget=1000)
    tile_of = np.arange(size) // tile
    apart = tile_of[:, None] != tile_of[None, :]
    assert seen.min() == 1 and seen[apart].max() == 1
    assert seen.sum() <= size * size + size * tile


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (3, 2), (7, 1), (2, 7)])
def test_pair_blocks_cover_each_entry_once(rows, cols):
    seen = np.zeros((rows, cols), dtype=int)
    row_slices, col_slices = qm.block_grid(rows, cols)
    for r, c in itertools.product(row_slices, col_slices):
        assert 0 < seen[r, c].size <= qm.PAIR_BLOCK
        seen[r, c] += 1
    assert np.all(seen == 1)


@pytest.mark.parametrize("kind", ["weighted_asym", "circle_arc"])
def test_pairwise_calls_stay_within_one_block(monkeypatch, kind):
    # at the default constants, count_grid makes no pairwise call and no
    # paired or paired_both call on more than PAIR_BLOCK pairs, and nearest
    # snapping evaluates the snap table in pieces of at most PAIR_BLOCK,
    # under half of its N^2 entries on this sorted cloud; an asymmetric
    # rule's orbit steps call paired_both, whose two directions each cover
    # the call's pairs
    _default_tiles(monkeypatch)
    entries = {"covering.pairwise": [], "covering.paired": [], "covering.paired_both": [],
               "dynamics.pairwise": []}

    def counted(name, func):
        def wrapped(spec, a, b):
            out = func(spec, a, b)
            entries[name].append(out[0].size if isinstance(out, tuple) else out.size)
            return out
        return wrapped

    monkeypatch.setattr(qme.covering, "pairwise", counted("covering.pairwise", qm.pairwise))
    monkeypatch.setattr(qme.covering, "paired", counted("covering.paired", qm.paired))
    monkeypatch.setattr(qme.covering, "paired_both", counted("covering.paired_both",
                                                              qm.paired_both))
    monkeypatch.setattr(qme.dynamics, "pairwise", counted("dynamics.pairwise", qm.pairwise))
    size = 600
    spec = QuasiMetricSpec(kind=kind, alpha=0.5, beta=2.0)
    orbits = build_orbits(MapSpec(kind="logistic", r=3.7), grid1d(0.0, 1.0, size), 4,
                          snap_mode="nearest", qspec=spec)
    count_grid(spec, orbits, [2, 4], [0.25, 0.125], exact_threshold=0)
    assert entries["covering.pairwise"] == []
    evaluated = entries["covering.paired"] + entries["covering.paired_both"]
    assert evaluated and max(evaluated) <= 8192
    assert bool(entries["covering.paired_both"]) == (kind == "weighted_asym")
    assert 0 < sum(entries["dynamics.pairwise"]) < size * size / 2
    assert max(entries["dynamics.pairwise"]) <= 8192


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
    # with 2-wide snap blocks the candidates 1|2, 3|4, 5|6 and 7|8 straddle
    # a block boundary
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


def test_nearest_snap_visits_a_tile_whose_floor_equals_the_running_distance():
    # 2-wide tiles {0.5, 0.875} and {0.25, 0.75}: the image 0.375 of id 3 is
    # 1/8 from id 2 in the second tile, whose floor is 0, and 1/8 from id 0
    # in the first, whose floor is 1/8 exactly; the first tile is visited
    # second and must be, for its lower id
    cloud = custom_cloud([0.5, 0.875, 0.25, 0.75])
    spec = QuasiMetricSpec(kind="euclidean")
    half = MapSpec(kind="affine", a=0.5)
    orbits = build_orbits(half, cloud, 2, snap_mode="nearest", qspec=spec)
    assert orbits.images[3, 1, 0] == 0.5
    images, err = oracles.naive_snap(half, cloud, 2, spec)
    assert _same_bits(orbits.images, images) and err == orbits.snap_error


# nearest snapping: rules and maps of the property test below; the
# one-dimensional maps need one-dimensional clouds, so 2-D euclidean clouds
# go with shift_left
SNAP_RULES = {
    "weighted_asym": QuasiMetricSpec(kind="weighted_asym", alpha=0.5, beta=2.0),
    "asym_line": QuasiMetricSpec(kind="asym_line"),
    "circle_arc": QuasiMetricSpec(kind="circle_arc"),
    "euclidean_2d": QuasiMetricSpec(kind="euclidean"),
}
SNAP_MAPS = {
    "tent": MapSpec(kind="tent"),
    "logistic": MapSpec(kind="logistic", r=4.0),
    "doubling": MapSpec(kind="doubling"),
    "shift_left": MapSpec(kind="shift_left"),
}


@st.composite
def snap_cases(draw):
    """(rule, map, cloud, n_max): up to 20 distinct points of the 1/64
    lattice of [0, 1] (of [0, 1]^2 for euclidean_2d), in drawn order."""
    rule = draw(st.sampled_from(sorted(SNAP_RULES)))
    if rule == "euclidean_2d":
        map_kind = "shift_left"
        coord = st.tuples(st.integers(0, 64), st.integers(0, 64))
    else:
        map_kind = draw(st.sampled_from(sorted(SNAP_MAPS)))
        coord = st.integers(0, 64).map(lambda k: (k,))
    ks = draw(st.lists(coord, min_size=1, max_size=20, unique=True))
    ks = draw(st.permutations(ks))
    cloud = custom_cloud(np.array(ks, dtype=float) / 64.0)
    return rule, map_kind, cloud, draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snap_cases())
def test_nearest_snap_matches_stepwise_snapping(case):
    rule, map_kind, cloud, n_max = case
    spec, map_spec = SNAP_RULES[rule], SNAP_MAPS[map_kind]
    orbits = build_orbits(map_spec, cloud, n_max, snap_mode="nearest", qspec=spec)
    images, err = oracles.naive_snap(map_spec, cloud, n_max, spec)
    assert _same_bits(orbits.images, images)
    assert orbits.snap_error == err


def test_nearest_snap_index_map_reaches_cycle_and_fixed_points():
    # doubling sends 2/3 to 4/3 - 1, an ulp below 1/3, and 1/3 to 2/3, so the
    # snapped map has the 2-cycle 2/3 <-> 1/3; 0 is fixed, and 0.9 goes to
    # 0.8, which snaps back to 0.9
    cloud = custom_cloud([[2.0 / 3.0], [0.0], [0.9], [1.0 / 3.0]])
    spec = QuasiMetricSpec(kind="circle_arc")
    doubling = MapSpec(kind="doubling")
    orbits = build_orbits(doubling, cloud, 7, snap_mode="nearest", qspec=spec)
    walk = orbits.images[:, :, 0]
    assert np.array_equal(walk[0], [2.0 / 3.0, 1.0 / 3.0] * 3 + [2.0 / 3.0])
    assert np.all(walk[1] == 0.0) and np.all(walk[2] == 0.9)
    images, err = oracles.naive_snap(doubling, cloud, 7, spec)
    assert _same_bits(orbits.images, images) and orbits.snap_error == err


@pytest.mark.parametrize("kind", KINDS)
def test_relations_identical_matches_full_covers(kind):
    # the fact TheoremComparison.relations_identical reports: the max
    # symmetrization's Bowen distance is max(D_n, D_n^T), so its two_sided
    # relation, and every count solved on it, is the base rule's
    rng = np.random.default_rng(5)
    eps_desc = sorted(EPS, reverse=True)
    for size in SIZES:
        spec, cloud = _case(kind, size, rng)
        me_spec = symmetrize_max(spec)
        orbits = _permutation_orbits(cloud, rng)
        for n_list in SCHEDULES:
            grid = count_grid(spec, orbits, n_list, eps_desc)
            grid_me = count_grid(me_spec, orbits, n_list, eps_desc,
                                 variants=("two_sided",))
            for n in n_list:
                for eps in eps_desc:
                    assert np.array_equal(
                        oracles.relation(me_spec, orbits, n, eps, "two_sided"),
                        oracles.relation(spec, orbits, n, eps, "two_sided"))
                    cell, cell_me = grid.cell(n, eps), grid_me.cell(n, eps)
                    assert (cell.r1, cell.s1) == (cell_me.r1, cell_me.s1), \
                        (size, n_list, n, eps)


@st.composite
def mean_cases(draw):
    """(seed, size, shuffled, n_list, eps_desc, exact_threshold): a cloud of
    ``_case`` for the seed, in lexicographic order or shuffled, a schedule of
    SCHEDULES and a halving eps list, solved greedily or exactly."""
    eps = draw(st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625]),
                        min_size=1, max_size=4, unique=True))
    return (draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 20)),
            draw(st.booleans()), draw(st.sampled_from(SCHEDULES)),
            sorted(eps, reverse=True), draw(st.sampled_from([0, 20])))


@pytest.mark.parametrize("kind", KINDS + SYMMETRIC_KINDS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mean_cases())
def test_mean_pairing_matches_the_mean_symmetrization_grid(kind, case):
    # the mean_metric pairing, requested alone and beside the other two,
    # gives cell by cell the results (cardinality, witness, method, optimal
    # and nodes) of the mean symmetrization's own grid; beside them it
    # changes neither two_sided nor one_sided cell
    seed, size, shuffled, n_list, eps_desc, threshold = case
    rng = np.random.default_rng(seed)
    spec, cloud = _case(kind, size, rng)
    order = (rng.permutation(size) if shuffled
             else np.lexsort(cloud.points.T[::-1]))
    cloud = custom_cloud(cloud.points[order])
    orbits = _permutation_orbits(cloud, rng)
    args = (orbits, n_list, eps_desc)
    ref = count_grid(symmetrize_mean(spec), *args, exact_threshold=threshold,
                     variants=("two_sided",))
    alone = count_grid(spec, *args, exact_threshold=threshold, variants=("mean_metric",))
    beside = count_grid(spec, *args, exact_threshold=threshold, variants=PAIRINGS)
    pairs = count_grid(spec, *args, exact_threshold=threshold)
    for key, cell in ref.cells.items():
        assert (alone.cells[key].r3, alone.cells[key].s3) == (cell.r1, cell.s1), key
        assert alone.cells[key].r1 is alone.cells[key].r2 is None
        assert (beside.cells[key].r3, beside.cells[key].s3) == (cell.r1, cell.s1), key
        other = pairs.cells[key]
        assert beside.cells[key] == dataclasses.replace(other, r3=cell.r1, s3=cell.s1)


BELOW_2_1023 = float(np.nextafter(2.0 ** 1023, 0.0))


@pytest.mark.parametrize("far,top,shared", [(BELOW_2_1023, BELOW_2_1023, True),
                                            (2.0 ** 1023, 2.0 ** 1023, False),
                                            (1.7e308, 1.75e308, False)])
def test_mean_pairing_past_2_to_the_1023(monkeypatch, far, top, shared):
    # (v + v) / 2.0 overflows from v = 2^1023 on, so a symmetric rule's
    # pairings share the one f channel only while the largest eps is below
    # 2^1023; above it the grid keeps f, b and mean bins, and the mean of the
    # pair (0, far) is inf, outside every eps, while its two_sided distance
    # is within the largest
    stream = []

    def spied(*args):
        stream.append(args[-1])
        return _live_pairs(*args)

    monkeypatch.setattr(qme.covering, "_live_pairs", spied)
    spec = QuasiMetricSpec(kind="euclidean")
    orbits = OrbitTable(images=custom_cloud([0.0, far]).points[:, None, :],
                        snap_mode="exact")
    eps = [top, top / 2.0]
    grid = count_grid(spec, orbits, [1], eps, variants=PAIRINGS)
    assert stream == [("f",) if shared else ("f", "b", "mean")]
    ref = count_grid(symmetrize_mean(spec), orbits, [1], eps, variants=("two_sided",))
    for key, cell in grid.cells.items():
        assert (cell.r3, cell.s3) == (ref.cells[key].r1, ref.cells[key].s1)
    top = grid.cell(1, eps[0])
    assert top.r1.cardinality == top.r2.cardinality == 1
    assert top.r3.cardinality == (1 if shared else 2)


# every channel tuple count_grid picks, and eps small enough that blocks of
# sorted clouds lie farther apart than the largest
CHANNEL_TUPLES = (("f",), ("f", "b"), ("max",), ("mean",), ("max", "mean"),
                  ("f", "b", "mean"))
FAR_EPS = [0.125, 0.0625, 0.03125]


def _sorted_case(kind: str, size: int, rng: np.random.Generator) -> tuple:
    """_case's rule on a cloud sorted by its coordinates."""
    spec, cloud = _case(kind, size, rng)
    pts = cloud.points
    return spec, custom_cloud(pts[np.lexsort(pts.T[::-1])])


def _no_floors(spec, a, a_tiles, b, b_tiles) -> tuple:
    """``block_floors``' tables with every entry NaN: floors that bound
    nothing, as a rule without a floor formula gets."""
    nan = np.full((len(a_tiles), len(b_tiles)), np.nan)
    return nan, nan


def _stream(spec, orbits, n_list, bins, channels) -> list:
    """The chunks _live_pairs yields at each n, copied, as bytes and dtypes."""
    return [(n, [[(a.dtype.str, a.tobytes()) for a in chunk] for chunk in chunks])
            for n, chunks in _live_pairs(spec, orbits, n_list, bins, channels)]


@pytest.mark.parametrize("kind", KINDS + SYMMETRIC_KINDS)
def test_block_floors_leave_every_chunk_unchanged(monkeypatch, kind):
    # with and without the step-0 block floors, the chunks are equal for
    # every channel tuple, on sorted clouds, where far blocks start empty,
    # and on shuffled ones
    empty_starts, tables = [], []
    first_chunk, block_floors = qme.covering._first_chunk, qme.covering.block_floors

    def spied(k, far, block, bins, channels):
        chunk = first_chunk(k, far, block, bins, channels)
        (rows, cols), xo = block, chunk[0]
        if rows.start != cols.start and not len(xo):
            empty_starts.append(block)
        return chunk

    def spied_floors(*args):
        fwd_bwd = block_floors(*args)
        tables.extend(fwd_bwd)
        return fwd_bwd

    rng = np.random.default_rng(11)
    bins = _EpsBins(FAR_EPS)
    for size in (7, 10, 20):
        for ordered in (True, False):
            spec, cloud = (_sorted_case if ordered else _case)(kind, size, rng)
            orbits = _permutation_orbits(cloud, rng)
            for channels in CHANNEL_TUPLES:
                for n_list in SCHEDULES:
                    with monkeypatch.context() as patch:
                        patch.setattr(qme.covering, "_first_chunk", spied)
                        patch.setattr(qme.covering, "block_floors", spied_floors)
                        floored = _stream(spec, orbits, n_list, bins, channels)
                    with monkeypatch.context() as patch:
                        patch.setattr(qme.covering, "block_floors", _no_floors)
                        assert _stream(spec, orbits, n_list, bins, channels) == floored, \
                            (size, ordered, channels, n_list)
    # the floors skip blocks wherever the kind has one; a rule without a
    # floor gets an all-NaN table and starts every block full
    floored = kind in ("weighted_asym", "asym_line", "circle_arc", "euclidean_2d")
    assert bool(empty_starts) == floored, kind
    assert tables and all(np.isnan(table).all() != floored for table in tables), kind


def test_block_floors_raise_as_paired_does(monkeypatch):
    # a 2-D circle_arc cloud raises paired's error with the floors as without
    spec = QuasiMetricSpec(kind="circle_arc")
    orbits = build_orbits(MapSpec(kind="identity"),
                          custom_cloud([[i / 16.0, 0.0] for i in range(10)]), 2)
    errors = []
    for floors in (True, False):
        with monkeypatch.context() as patch:
            if not floors:
                patch.setattr(qme.covering, "block_floors", _no_floors)
            with pytest.raises(ValueError) as info:
                list(_live_pairs(spec, orbits, [1, 2], _EpsBins([0.5]), ("f", "b")))
            errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("spec", [QuasiMetricSpec(kind="asym_line"),
                                  QuasiMetricSpec(kind="weighted_asym", alpha=1.0, beta=2.0),
                                  QuasiMetricSpec(kind="circle_arc")])
def test_a_block_whose_floor_equals_eps_0_is_not_skipped(spec):
    # tiles {0, 1/8, 1/4} and {1/2, 5/8, 3/4}: the floor of the off-diagonal
    # block is 1/4 exactly, the value of the pair (1/4, 1/2), so the block
    # is kept at eps_0 = 1/4 and skipped just below it
    orbits = build_orbits(MapSpec(kind="identity"),
                          custom_cloud([0.0, 0.125, 0.25, 0.5, 0.625, 0.75]), 1)
    channels = ("f",) if is_symmetric(spec) else ("f", "b")
    for eps, kept in ((0.25, True), (float(np.nextafter(0.25, 0.0)), False)):
        [(_, chunks)] = _live_pairs(spec, orbits, [1], _EpsBins([eps]), channels)
        xo, yo = chunks[1][:2]
        assert (2, 0) in zip(xo.tolist(), yo.tolist()) if kept else not len(xo)


@pytest.mark.parametrize("order", ["sorted", "reversed"])
def test_floors_of_unequal_directions_keep_what_step_0_keeps(monkeypatch, order):
    # hinge 4 / 0.25 on tiles {0, 1/8, 1/4} and {1/2, 5/8, 3/4}: over the
    # off-diagonal block one direction's floor is 1 and the other's 1/16, so
    # max's is 1 and mean's 17/32. At eps_0 between and on these values the
    # floors keep exactly the pairs step 0 keeps, for every channel tuple
    spec = QuasiMetricSpec(kind="weighted_asym", alpha=4.0, beta=0.25)
    tiles = [[0.0, 0.125, 0.25], [0.5, 0.625, 0.75]]
    points = tiles[0] + tiles[1] if order == "sorted" else tiles[1] + tiles[0]
    orbits = build_orbits(MapSpec(kind="identity"), custom_cloud(points), 1)
    for eps in (2.0, 1.0, 0.75, 17 / 32, 0.5, 0.0625, 0.03):
        bins = _EpsBins([eps])
        for channels in CHANNEL_TUPLES:
            floored = _stream(spec, orbits, [1], bins, channels)
            with monkeypatch.context() as patch:
                patch.setattr(qme.covering, "block_floors", _no_floors)
                assert _stream(spec, orbits, [1], bins, channels) == floored, (eps, channels)


def test_step_0_skips_the_far_blocks_of_the_doubling_cloud(monkeypatch):
    # on the 4096-point doubling cloud the first orbit step evaluates only the
    # pairs of blocks whose floor is within eps_0 = 2^-3: 3,274,752 of all
    # 8,386,560, so the floors have not stopped skipping
    _default_tiles(monkeypatch)
    rng = np.random.default_rng([1, 1])
    cloud = custom_cloud(np.sort(rng.choice(1 << 20, 4096, replace=False)) / 2.0 ** 20)
    orbits = build_orbits(MapSpec(kind="doubling"), cloud, 1)
    entries = []

    def counted(spec, a, b):
        entries.append(len(a))
        return qm.paired(spec, a, b)

    monkeypatch.setattr(qme.covering, "paired", counted)
    count_grid(QuasiMetricSpec(kind="circle_arc"), orbits, [1],
               [2.0 ** -k for k in range(3, 8)], exact_threshold=0)
    assert 0 < sum(entries) <= 3_274_752
