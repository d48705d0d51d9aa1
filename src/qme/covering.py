"""Minimal spanning and maximal separated cardinalities on threshold relations.

``count_grid`` is the one path from (spec, orbits, schedule) to counts. It
validates the schedule (n strictly increasing, eps strictly decreasing) and
grows the orbit-maximized distances D_n[x, y] = max_{i<n} e(T^i x, T^i y)
over the n schedule. Each (n, variant) gives one symmetric relation per eps:

``two_sided``  y covers x when max(D_n, D_n^T)[x, y] <= eps (closeness both ways)
``one_sided``  y covers x when min(D_n, D_n^T)[x, y] <= eps (closeness one way)

D_n only grows with n, so a pair whose symmetrized value exceeds the largest
scheduled eps is never a cover edge again. The orbit steps before the first
scheduled n are computed over the upper triangle in ROW_TILE x ROW_TILE
blocks, each filled from pairwise sub-blocks of at most PAIR_BLOCK entries
into buffers reused along its row tile, keeping only the live pairs; later
steps evaluate e on the live pairs alone. Both directions are evaluated,
except for a rule symmetric by construction
(``quasimetric.is_symmetric``): there D_n = D_n^T bit for bit, so each pair
is evaluated once, both symmetrizations are D_n itself, and the two variants
share one relation. Each n builds one valued CSR relation per variant (one in
all for a symmetric rule) at the largest eps, whose own arrays are that eps's
relation, and each smaller eps filters it by value. Values are maxima of the
same elementwise evaluations as a dense D_n, so every relation is the dense
one bit for bit.

Each distinct relation is solved once per grid, keyed by its arrays' content.
Expanding maps repeat relations: on a doubling circle the relation at
(n, 2^-k) depends only on n + k, so of the 40 cells of n = 2..9 and
eps = 2^-3..2^-7 only 12 relations are distinct.

The max symmetrization's Bowen distance is max_i max(e(T^i x, T^i y),
e(T^i y, T^i x)) = max(D_n, D_n^T), so its relation is the two_sided one by
definition; the entropy module reuses the two_sided counts for it.

Separation is the off-diagonal complement of cover for the matching pairing,
so a minimal spanning set is a minimum dominating set of the cover graph and a
maximal separated set is a maximum independent set of the same graph. The
solvers take a symmetric :class:`Relation`, as built here, and read its rows.

Both problems get a deterministic greedy solver and an exact branch-and-bound
solver (bitset based, on the relation made dense). Greedy covers never
undershoot the optimum and greedy separated sets never overshoot it; the exact
solver is the oracle for both. The exact cover search stops once its incumbent
meets a certified floor: the packing bound, or, where greedy exceeds that, the
ceiling of a packing-LP dual solved by a small numpy simplex and checked in
integer arithmetic. All tie-breaking is by lowest point id, so results are
reproducible.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import OrbitTable
from .quasimetric import QuasiMetricSpec, is_symmetric, pair_blocks, paired, pairwise, row_tiles

__all__ = [
    "VARIANTS",
    "Relation",
    "CountResult",
    "CellCounts",
    "CountGrid",
    "greedy_cover",
    "exact_cover",
    "greedy_separated",
    "exact_separated",
    "count_grid",
]

VARIANTS = ("two_sided", "one_sided")
# variant -> the symmetrization of (D_n, D_n^T) its relation thresholds
SYMMETRIZE = {"two_sided": np.maximum, "one_sided": np.minimum}

DEFAULT_EXACT_THRESHOLD = 64

# Quantity codes used in serialized grids: r1/s1 pair with the two_sided
# relation, r2/s2 with the one_sided relation.
QUANTITIES = ("r1", "s1", "r2", "s2")
QUANTITY_PAIRS = {"two_sided": ("r1", "s1"), "one_sided": ("r2", "s2")}


@dataclass(frozen=True, eq=False)
class Relation:
    """A symmetric cover relation in CSR form: row x lists, in increasing
    order, every y with x ~ y, x itself included."""

    indptr: np.ndarray   # int64, one more than the number of points
    indices: np.ndarray  # int32

    @property
    def size(self) -> int:
        return len(self.indptr) - 1

    def dense(self) -> np.ndarray:
        """The relation as an N x N bool matrix."""
        cover = np.zeros((self.size, self.size), dtype=bool)
        cover[np.repeat(np.arange(self.size), np.diff(self.indptr)), self.indices] = True
        return cover


# ---------------------------------------------------------------------------
# live Bowen pairs and their relations
# ---------------------------------------------------------------------------

def _live_pairs(spec: QuasiMetricSpec, orbits: OrbitTable, n_list: Sequence,
                op, eps_max: float) -> Iterator[tuple]:
    """Yield (n, chunks) over an ascending n schedule, which the caller has
    validated. chunks holds the live pairs x < y, those with
    op(D_n[x, y], D_n[y, x]) <= eps_max, one chunk per ROW_TILE x ROW_TILE
    block of the upper triangle in row-major block order. A chunk is
    (x, y, fwd, bwd): int32 ids sorted by (x, y) and the distances
    fwd = D_n[x, y], bwd = D_n[y, x]. For a symmetric rule bwd is the same
    array object as fwd. The list is updated in place for the next n: copy
    it to keep it past the next step."""
    size = orbits.images.shape[0]
    symmetric = is_symmetric(spec)
    chunks = []
    for rows in row_tiles(size):
        chunks += _tile_pairs(spec, orbits, n_list[0], rows, op, eps_max, symmetric)
    done = n_list[0]
    yield done, chunks
    for n in n_list[1:]:
        for i in range(done, n):
            pts = orbits.iterate_points(i)
            for k, chunk in enumerate(chunks):
                chunks[k] = _advance(spec, pts, chunk, op, eps_max)
        done = n
        yield n, chunks


def _tile_pairs(spec: QuasiMetricSpec, orbits: OrbitTable, steps: int,
                rows: slice, op, eps_max: float, symmetric: bool) -> list:
    """Live-pair chunks of the rows' blocks on and right of the diagonal,
    from orbit steps 0..steps-1 evaluated in both directions, or in one when
    the rule is ``symmetric``, whose chunks then alias bwd to fwd.

    Each block's D_n[x, y] and D_n[y, x] are filled from pairwise calls of
    at most PAIR_BLOCK entries (``pair_blocks``) into buffers that the row
    tile reuses; the diagonal block is the widest."""
    lo, height = rows.start, rows.stop - rows.start
    fbuf = np.empty((height, height))
    bbuf = fbuf if symmetric else np.empty((height, height))
    chunks = []
    for cols in row_tiles(orbits.images.shape[0], lo):
        width = cols.stop - cols.start
        fwd = fbuf[:, :width]
        bwd = fwd if symmetric else bbuf[:, :width]
        for r, c in pair_blocks(height, width):
            f = b = None
            for i in range(steps):
                pts = orbits.iterate_points(i)
                px, py = pts[rows][r], pts[cols][c]
                f = _max_into(f, pairwise(spec, px, py))  # D[x, y]
                if not symmetric:
                    b = _max_into(b, pairwise(spec, py, px))  # D[y, x]
            fwd[r, c] = f
            if not symmetric:
                bwd[r, c] = b.T
        live = _symmetrized(op, fwd, bwd) <= eps_max
        if cols.start == lo:
            live = np.triu(live, 1)  # the diagonal block: pairs x < y only
        x, y = np.nonzero(live)
        chunks.append((x.astype(np.int32) + lo, y.astype(np.int32) + cols.start,
                       *_kept(fwd, bwd, live)))
    return chunks


def _max_into(acc: Optional[np.ndarray], step: np.ndarray) -> np.ndarray:
    return step if acc is None else np.maximum(acc, step, out=acc)


def _symmetrized(op, fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """op(fwd, bwd), which is fwd itself when bwd is fwd: min and max of a
    value with itself are that value."""
    return fwd if bwd is fwd else op(fwd, bwd)


def _kept(fwd: np.ndarray, bwd: np.ndarray, live: np.ndarray) -> tuple:
    """(fwd[live], bwd[live]), the second the first when bwd is fwd."""
    f = fwd[live]
    return f, f if bwd is fwd else bwd[live]


def _advance(spec: QuasiMetricSpec, pts: np.ndarray, chunk: tuple, op,
             eps_max: float) -> tuple:
    """One more orbit step on a chunk's pairs, keeping those still live; a
    chunk whose bwd is its fwd (a symmetric rule) is evaluated one way and
    stays aliased."""
    x, y, fwd, bwd = chunk
    px, py = pts[x], pts[y]
    np.maximum(fwd, paired(spec, px, py), out=fwd)
    if bwd is not fwd:
        np.maximum(bwd, paired(spec, py, px), out=bwd)
    live = _symmetrized(op, fwd, bwd) <= eps_max
    return (x[live], y[live], *_kept(fwd, bwd, live))


def _relation_values(chunks: list, size: int, op, eps_max: float) -> tuple:
    """(indptr, indices, values): the relation op(D_n, D_n^T) <= eps_max in
    CSR form with each entry's value, the diagonal (value 0) included.

    Row r holds its entries left of the diagonal, then r, then those right of
    it. Chunks come in row-major block order, sorted by (x, y), so both sides
    of every row receive their columns in increasing order: a chunk's x rows
    already ascend, and its y rows are put in ascending order by a stable
    sort, which keeps each row's x columns ascending."""
    left = np.zeros(size, dtype=np.int64)
    right = np.zeros(size, dtype=np.int64)
    for x, y, fwd, bwd in chunks:
        close = _symmetrized(op, fwd, bwd) <= eps_max
        right += np.bincount(x[close], minlength=size)
        left += np.bincount(y[close], minlength=size)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(left + right + 1, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    values = np.empty(indptr[-1])
    diagonal = indptr[:-1] + left
    indices[diagonal] = np.arange(size)
    values[diagonal] = 0.0
    left_fill, right_fill = indptr[:-1].copy(), diagonal + 1
    for x, y, fwd, bwd in chunks:
        value = _symmetrized(op, fwd, bwd)
        close = value <= eps_max
        if not close.any():
            continue
        x, y, value = x[close], y[close], value[close]
        _append(right_fill, x, y, value, indices, values)
        # a chunk's y span is under ROW_TILE wide, so its offsets fit in
        # uint16, which numpy's stable argsort orders by radix sort
        order = np.argsort((y - y.min()).astype(np.uint16), kind="stable")
        _append(left_fill, y[order], x[order], value[order], indices, values)
    return indptr, indices, values


def _append(fill: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            vals: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """Write entries, whose rows ascend, at fill[row] onward in their given
    order within each row, and advance fill."""
    base = rows[0]
    counts = np.bincount(rows - base)
    first = np.cumsum(counts) - counts  # each row's first position in rows
    pos = fill[rows] + (np.arange(len(rows)) - first[rows - base])
    indices[pos] = cols
    values[pos] = vals
    fill[base:base + len(counts)] += counts


def _within(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
            eps: float) -> Relation:
    """The entries of a valued CSR relation at most eps."""
    close = values <= eps
    # no row is empty (each holds its diagonal), as reduceat needs
    counts = np.add.reduceat(close, indptr[:-1], dtype=np.int64)
    ptr = np.zeros_like(indptr)
    np.cumsum(counts, out=ptr[1:])
    return Relation(ptr, indices[close])


def bowen_matrix(spec: QuasiMetricSpec, orbits: OrbitTable, n: int) -> np.ndarray:
    """Full matrix of orbit-maximized distances: M[x, y] = max_{i<n} e(T^i x, T^i y).
    No pipeline path calls it; perfbench/tracing.py still wraps this name."""
    if not 1 <= n <= orbits.n_max:
        raise ValueError(f"n must be in 1..{orbits.n_max}, got {n}")
    dist = pairwise(spec, orbits.iterate_points(0), orbits.iterate_points(0))
    for i in range(1, n):
        pts = orbits.iterate_points(i)
        np.maximum(dist, pairwise(spec, pts, pts), out=dist)
    return dist


# ---------------------------------------------------------------------------
# greedy solvers (numpy, deterministic)
# ---------------------------------------------------------------------------

def greedy_cover(rel: Relation) -> list:
    """Repeatedly pick the point covering the most uncovered points; ties go to
    the lowest id. Always terminates: every point covers itself.

    Once no point covers two uncovered points, the uncovered points have
    pairwise disjoint rows, so the remaining picks are the lowest id of each
    uncovered point's row, in id order; they are taken in one step."""
    indptr, indices = rel.indptr, rel.indices
    gains = np.diff(indptr)
    uncovered = np.ones(rel.size, dtype=bool)
    picks = []
    while True:
        y = int(np.argmax(gains))
        if gains[y] < 2:
            break
        row = indices[indptr[y]:indptr[y + 1]]
        newly = row[uncovered[row]]
        uncovered[newly] = False
        picks.append(y)
        np.subtract.at(gains, np.concatenate(
            [indices[indptr[x]:indptr[x + 1]] for x in newly.tolist()]), 1)
    picks += np.sort(indices[indptr[:-1][uncovered]]).tolist()
    return picks


def greedy_separated(rel: Relation) -> list:
    """Insert points in id order, keeping pairwise separation. A point whose
    row holds only itself conflicts with nothing and is always kept, so the
    scan visits only the others."""
    indptr, indices = rel.indptr, rel.indices
    degree = np.diff(indptr)
    conflicted = np.zeros(rel.size, dtype=bool)
    picks = np.flatnonzero(degree == 1).tolist()
    for x in np.flatnonzero(degree > 1).tolist():
        if not conflicted[x]:
            picks.append(x)
            conflicted[indices[indptr[x]:indptr[x + 1]]] = True
    return sorted(picks)


# ---------------------------------------------------------------------------
# exact solvers (bitset branch and bound)
# ---------------------------------------------------------------------------

def _column_masks(cover: np.ndarray) -> list:
    """cover columns (equal to its rows) as python-int bitsets: mask[y] has
    bit x iff y covers x."""
    packed = np.packbits(cover, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# Pivots the packing simplex may take per cell. Every basic solution is
# feasible, so a cell that runs out still gets a valid (weaker) floor.
LP_PIVOT_BUDGET = 512
_LP_TOL = 1e-9
# The certified dual is summed in integers on the 2^-30 lattice.
_DUAL_SCALE = 1 << 30


def _packing_lp(cover: np.ndarray) -> np.ndarray:
    """A basic feasible solution of the fractional packing LP: maximise sum(y)
    subject to y >= 0 and, for every ball y' (column of the cover), the load
    sum_x cover[x, y'] y[x] <= 1. It is the dual of the dominating-set
    relaxation, so sum(y) bounds every cover from below.

    Dense primal simplex with Bland's rule (lowest-index entering column,
    ratio ties to the lowest-index basic variable), started at the feasible
    origin (b = 1, no phase 1) and cut after LP_PIVOT_BUDGET pivots."""
    n = cover.shape[0]
    tab = np.zeros((n + 1, 2 * n + 1))
    tab[:n, :n] = cover.T
    tab[:n, n:2 * n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :n] = -1.0  # reduced costs of the objective row
    basis = np.arange(n, 2 * n)
    for _ in range(LP_PIVOT_BUDGET):
        entering = np.flatnonzero(tab[n, :-1] < -_LP_TOL)
        if entering.size == 0:
            break
        j = entering[0]
        rows = np.flatnonzero(tab[:n, j] > _LP_TOL)
        if rows.size == 0:  # unbounded only through rounding: y <= 1 holds
            break
        ratios = tab[rows, -1] / tab[rows, j]
        ties = rows[ratios <= ratios.min() + _LP_TOL]
        r = ties[np.argmin(basis[ties])]
        tab[r] /= tab[r, j]
        pivot_col = tab[:, j].copy()
        pivot_col[r] = 0.0
        tab -= np.outer(pivot_col, tab[r])
        basis[r] = j
    y = np.zeros(n)
    structural = basis < n
    y[basis[structural]] = tab[:n, -1][structural]
    return y


def _certified_floor(cover: np.ndarray, y: np.ndarray) -> int:
    """A lower bound on every cover's size from any candidate dual y, proved
    in integers: y is clipped at 0, floored to the 2^-30 lattice (after
    scaling to entries <= 1, which keeps int64 products exact) and divided,
    rounding down, by its largest ball load when that exceeds 1. Every load
    is then <= 1 exactly, and every point lies in a ball of any cover, so
    sum(y) <= sum of the cover's ball loads <= its size: ceil(sum(y)) is
    returned."""
    y = np.where(np.isfinite(y) & (y > 0), y, 0.0)
    y = y / max(1.0, float(y.max()))
    yi = np.floor(y * _DUAL_SCALE).astype(np.int64)
    load = int((yi @ cover.astype(np.int64)).max())
    if load > _DUAL_SCALE:
        yi = yi * _DUAL_SCALE // load
    return -(-int(yi.sum()) // _DUAL_SCALE)


def exact_cover(rel: Relation) -> tuple:
    """Minimum dominating set of the cover graph.

    Branch and bound: a greedy solution provides the upper bound; a packing of
    points no two of which share a candidate coverer provides the lower bound.
    Branching fixes the uncovered point with the fewest candidate coverers and
    tries its coverers in order of decreasing fresh coverage; the incumbent
    changes only on strict improvement.

    The search stops as soon as the incumbent reaches a certified floor: the
    root packing bound, raised, when greedy exceeds it, by the certified
    packing-LP dual (``_packing_lp``, ``_certified_floor``). A valid floor only
    cuts the search after the first optimum it would keep, so the result is
    the unfloored search's.

    Returns (sorted point ids, nodes explored, root included).
    """
    cover = rel.dense()
    n = cover.shape[0]
    full = (1 << n) - 1
    covmask = _column_masks(cover)  # also the coverers of each point
    # points sharing a coverer with x (two hops), for the lower bound
    blocked = _column_masks((cover.astype(np.int32) @ cover) > 0)

    best = greedy_cover(rel)
    best_len = len(best)

    def lower_bound(uncov: int) -> int:
        lb = 0
        rem = uncov
        while rem:
            x = (rem & -rem).bit_length() - 1
            lb += 1
            rem &= ~blocked[x]
        return lb

    floor = lower_bound(full)
    if best_len > floor:
        floor = max(floor, _certified_floor(cover, _packing_lp(cover)))
    if best_len <= floor:
        return sorted(best), 1

    nodes = 0
    chosen: list = []
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    def descend(covered: int) -> None:
        nonlocal best, best_len, nodes
        nodes += 1
        if covered == full:
            if len(chosen) < best_len:
                best_len = len(chosen)
                best = list(chosen)
            return
        uncov = full & ~covered
        if len(chosen) + lower_bound(uncov) >= best_len:
            return
        # branch on the uncovered point with the fewest coverers
        bx, bcount = -1, n + 1
        m = uncov
        while m:
            x = (m & -m).bit_length() - 1
            c = covmask[x].bit_count()
            if c < bcount:
                bx, bcount = x, c
            m &= m - 1
        cands = []
        m = covmask[bx]
        while m:
            y = (m & -m).bit_length() - 1
            gain = (covmask[y] & uncov).bit_count()
            cands.append((-gain, y))
            m &= m - 1
        cands.sort()
        for _, y in cands:
            chosen.append(y)
            descend(covered | covmask[y])
            chosen.pop()
            if best_len <= floor:
                return

    descend(0)
    return sorted(best), nodes


def exact_separated(rel: Relation) -> tuple:
    """Maximum independent set of the cover graph.

    Branch and bound seeded with the greedy id-order set; pruning uses a greedy
    clique-cover bound on the remaining candidates. Returns (sorted ids, nodes).
    """
    n = rel.size
    adj = [m & ~(1 << x) for x, m in enumerate(_column_masks(rel.dense()))]

    best = greedy_separated(rel)
    best_len = len(best)
    nodes = 0
    chosen: list = []
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))

    def clique_cover_bound(pool: int) -> int:
        cliques = 0
        rem = pool
        while rem:
            v = (rem & -rem).bit_length() - 1
            rem &= ~(1 << v)
            clique = 1 << v
            common = adj[v] & rem
            while common:
                u = (common & -common).bit_length() - 1
                clique |= 1 << u
                rem &= ~(1 << u)
                common &= adj[u]
            cliques += 1
        return cliques

    def descend(pool: int) -> None:
        nonlocal best, best_len, nodes
        nodes += 1
        size = len(chosen)
        if pool == 0:
            if size > best_len:
                best_len = size
                best = list(chosen)
            return
        if size + clique_cover_bound(pool) <= best_len:
            return
        # pivot on the candidate with the most conflicts among candidates
        bv, bdeg = -1, -1
        m = pool
        while m:
            v = (m & -m).bit_length() - 1
            d = (adj[v] & pool).bit_count()
            if d > bdeg:
                bv, bdeg = v, d
            m &= m - 1
        chosen.append(bv)
        descend(pool & ~(adj[bv] | (1 << bv)))
        chosen.pop()
        descend(pool & ~(1 << bv))

    descend((1 << n) - 1)
    return sorted(best), nodes


# ---------------------------------------------------------------------------
# results and cell solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountResult:
    """A spanning or separated set found on one cover relation."""

    cardinality: int
    witness: tuple
    method: str  # exact_bnb | greedy
    optimal: bool
    nodes: int = 0  # branch-and-bound nodes explored, root included; 0 for greedy


def _solve(rel: Relation, separated: bool, exact_threshold: int) -> CountResult:
    """Minimal spanning set, or maximal separated set when ``separated``;
    exact when the relation has at most ``exact_threshold`` points, else greedy."""
    if rel.size <= exact_threshold:
        ids, nodes = exact_separated(rel) if separated else exact_cover(rel)
        return CountResult(len(ids), tuple(ids), "exact_bnb", True, nodes)
    ids = greedy_separated(rel) if separated else sorted(greedy_cover(rel))
    return CountResult(len(ids), tuple(ids), "greedy", False)


# ---------------------------------------------------------------------------
# count grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellCounts:
    """Solver results at one (n, eps) cell; quantities may be absent when a
    variant was not requested."""

    n: int
    eps: float
    r1: Optional[CountResult] = None
    s1: Optional[CountResult] = None
    r2: Optional[CountResult] = None
    s2: Optional[CountResult] = None

    def get(self, quantity: str):
        if quantity not in QUANTITIES:
            raise KeyError(quantity)
        return getattr(self, quantity)


@dataclass
class CountGrid:
    """All requested counts over the (n, eps) schedule, plus diagnostics."""

    cloud_size: int
    n_list: list
    eps_list: list
    variants: tuple
    cells: dict  # (n, eps) -> CellCounts
    diagnostics: list = field(default_factory=list)

    def cell(self, n: int, eps: float) -> CellCounts:
        return self.cells[(n, eps)]

    def counts(self, quantity: str) -> dict:
        out = {}
        for key, cell in self.cells.items():
            res = cell.get(quantity)
            if res is not None:
                out[key] = res.cardinality
        return out

    def all_exact(self) -> bool:
        for cell in self.cells.values():
            for q in QUANTITIES:
                res = cell.get(q)
                if res is not None and not res.optimal:
                    return False
        return True

    def to_rows(self) -> list:
        """Flat rows for CSV: n, epsilon, variant, quantity, cardinality, method, optimal."""
        variant_of = {q: v for v, pair in QUANTITY_PAIRS.items() for q in pair}
        rows = []
        for n in self.n_list:
            for eps in self.eps_list:
                cell = self.cells[(n, eps)]
                for q in QUANTITIES:
                    res = cell.get(q)
                    if res is None:
                        continue
                    rows.append({
                        "n": n,
                        "epsilon": eps,
                        "variant": variant_of[q],
                        "quantity": q,
                        "cardinality": res.cardinality,
                        "method": res.method,
                        "optimal": res.optimal,
                    })
        return rows

    def to_dict(self) -> dict:
        cells = []
        for n in self.n_list:
            for eps in self.eps_list:
                cell = self.cells[(n, eps)]
                entry = {"n": n, "epsilon": eps}
                for q in QUANTITIES:
                    res = cell.get(q)
                    if res is not None:
                        entry[q] = {**vars(res), "witness": list(res.witness)}
                cells.append(entry)
        return {
            "cloud_size": self.cloud_size,
            "n_list": list(self.n_list),
            "eps_list": list(self.eps_list),
            "variants": list(self.variants),
            "cells": cells,
            "diagnostics": list(self.diagnostics),
        }


def _relations(chunks: list, size: int, variant: str,
               eps_list: Sequence) -> Iterator[tuple]:
    """Yield (eps, Relation) of one variant at each eps, from one valued CSR
    relation built at the largest eps, whose own arrays are that eps's
    relation."""
    eps_max = max(eps_list)
    indptr, indices, values = _relation_values(chunks, size, SYMMETRIZE[variant], eps_max)
    for eps in eps_list:
        if eps == eps_max:
            yield eps, Relation(indptr, indices)
        else:
            yield eps, _within(indptr, indices, values, eps)


def _content_key(rel: Relation) -> tuple:
    """A key equal for relations with equal arrays. Two different relations
    share it only if their indptr and indices bytes both collide under the
    builtin 64-bit SipHash at once, which non-adversarial data does not do."""
    return (len(rel.indptr), len(rel.indices),
            hash(rel.indptr.tobytes()), hash(rel.indices.tobytes()))


def count_grid(spec: QuasiMetricSpec, orbits: OrbitTable,
               n_list: Sequence, eps_list: Sequence, *,
               exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
               variants: tuple = VARIANTS) -> CountGrid:
    """Solve every requested quantity over the (n, eps) schedule on the orbit
    table's cloud: exactly when it has at most ``exact_threshold`` points
    (0: always greedy), else greedily.

    D_n grows over the ascending n schedule on the pairs live at the
    largest eps, in the broader one_sided sense when that variant is asked
    for; each (n, variant) builds one CSR relation from them (one for both
    variants when the rule is symmetric by construction), and each
    (n, eps, variant) cell is solved in schedule order and merged by
    coordinates. Each distinct relation is solved once per call: a cell
    whose relation has the arrays of an earlier one (``_content_key``)
    reuses that cell's results, witness, method, optimal flag and nodes
    included.
    """
    n_list = [int(n) for n in n_list]
    eps_list = [float(e) for e in eps_list]
    if not n_list or not eps_list:
        raise ValueError("schedules must be nonempty")
    if sorted(set(n_list)) != n_list or n_list[0] < 1:
        raise ValueError("n_list must be strictly increasing from n >= 1")
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be > 0")
    if not all(a > b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    if n_list[-1] > orbits.n_max:
        raise ValueError(f"n_list exceeds orbit table n_max={orbits.n_max}")

    cells = {}
    size = orbits.images.shape[0]
    eps_max = max(eps_list)
    live_op = SYMMETRIZE["one_sided" if "one_sided" in variants else "two_sided"]
    # variant whose relation is built -> the variants that threshold it: a
    # symmetric rule's D_n is D_n^T, so all of them share the first's
    shared = {}
    symmetric = is_symmetric(spec)
    for variant in variants:
        shared.setdefault(variants[0] if symmetric else variant, []).append(variant)
    solved = {}  # _content_key -> (cover, separated) CountResults
    for n, chunks in _live_pairs(spec, orbits, n_list, live_op, eps_max):
        parts = {eps: {} for eps in eps_list}
        for built, users in shared.items():
            for eps, rel in _relations(chunks, size, built, eps_list):
                key = _content_key(rel)
                if key not in solved:
                    solved[key] = (_solve(rel, False, exact_threshold),
                                   _solve(rel, True, exact_threshold))
                for variant in users:
                    r, s = QUANTITY_PAIRS[variant]
                    parts[eps][r], parts[eps][s] = solved[key]
        for eps in eps_list:
            cells[(n, eps)] = CellCounts(n=n, eps=eps, **parts[eps])

    grid = CountGrid(cloud_size=size, n_list=n_list,
                     eps_list=eps_list, variants=tuple(variants), cells=cells)
    grid.diagnostics.extend(_monotonicity_diagnostics(grid))
    return grid


def _monotonicity_diagnostics(grid: CountGrid) -> list:
    """Counts must not increase as eps grows (at fixed n) and must not decrease
    as n grows (at fixed eps). Certain for exact cells; greedy violations are
    reported as informational."""
    notes = []
    for q in QUANTITIES:
        vals = grid.counts(q)
        if not vals:
            continue
        for n in grid.n_list:
            for hi, lo in zip(grid.eps_list, grid.eps_list[1:]):
                if vals[(n, hi)] > vals[(n, lo)]:
                    notes.append(f"{q} increased with eps at n={n}: "
                                 f"{vals[(n, hi)]} @eps={hi} > {vals[(n, lo)]} @eps={lo}")
        for eps in grid.eps_list:
            seq = [vals[(n, eps)] for n in grid.n_list]
            for a, b, n_a, n_b in zip(seq, seq[1:], grid.n_list, grid.n_list[1:]):
                if a > b:
                    notes.append(f"{q} decreased with n at eps={eps}: "
                                 f"{a} @n={n_a} > {b} @n={n_b}")
    return notes
