"""Minimal spanning and maximal separated cardinalities on threshold relations.

``count_grid`` is the one path from (spec, orbits, schedule) to counts. It
validates the schedule, grows the orbit-maximized matrix D_n[x, y] =
max_{i<n} e(T^i x, T^i y) once over the ascending n schedule, in row tiles;
each (n, variant) symmetrizes D_n once, in cache-sized blocks, and each eps
thresholds it:

``two_sided``  y covers x when max(D_n, D_n^T)[x, y] <= eps (closeness both ways)
``one_sided``  y covers x when min(D_n, D_n^T)[x, y] <= eps (closeness one way)

The max symmetrization gives the same two_sided relation; the entropy module
checks that per cell, after ``count_grid`` has validated the same schedule,
and reuses the two_sided counts.

Separation is the off-diagonal complement of cover for the matching pairing,
so a minimal spanning set is a minimum dominating set of the cover graph and a
maximal separated set is a maximum independent set of the same graph. Solvers
require a symmetric cover, as built here, and read its rows.

Both problems get a deterministic greedy solver and an exact branch-and-bound
solver (bitset based). Greedy covers never undershoot the optimum and greedy
separated sets never overshoot it; the exact solver is the oracle for both.
All tie-breaking is by lowest point id, so results are reproducible.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import OrbitTable
from .quasimetric import QuasiMetricSpec, pairwise, row_tiles, with_transpose

__all__ = [
    "VARIANTS",
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

DEFAULT_EXACT_THRESHOLD = 64

# Quantity codes used in serialized grids: r1/s1 pair with the two_sided
# relation, r2/s2 with the one_sided relation.
QUANTITIES = ("r1", "s1", "r2", "s2")
QUANTITY_PAIRS = {"two_sided": ("r1", "s1"), "one_sided": ("r2", "s2")}


def _bowen_stream(spec: QuasiMetricSpec, orbits: OrbitTable,
                  n_list: Sequence) -> Iterator[tuple]:
    """Yield (n, D_n) over an ascending n schedule, which the caller has
    validated. D_n is one preallocated matrix, filled and then max-accumulated
    in row tiles, so no full-size pairwise matrix is ever built; it is updated
    in place for the next n: copy it to keep it past the next step."""
    size = orbits.images.shape[0]
    dist = np.empty((size, size))
    done = 0
    for n in n_list:
        for i in range(done, n):
            pts = orbits.iterate_points(i)
            for rows in row_tiles(size):
                tile = pairwise(spec, pts[rows], pts)
                if i == 0:
                    dist[rows] = tile
                else:
                    np.maximum(dist[rows], tile, out=dist[rows])
        done = n
        yield n, dist


def bowen_matrix(spec: QuasiMetricSpec, orbits: OrbitTable, n: int) -> np.ndarray:
    """Full matrix of orbit-maximized distances: M[x, y] = max_{i<n} e(T^i x, T^i y).
    No pipeline path calls it; perfbench/tracing.py still wraps this name."""
    if not 1 <= n <= orbits.n_max:
        raise ValueError(f"n must be in 1..{orbits.n_max}, got {n}")
    return next(_bowen_stream(spec, orbits, [n]))[1]


def _covers(dist: np.ndarray, variant: str, eps_list: Sequence) -> Iterator:
    """Yield the cover relation of one variant at each eps from one
    symmetrized D_n, built block by block against its transpose. The cover
    is one bool buffer, overwritten at the next eps."""
    if variant == "two_sided":
        sym = with_transpose(np.maximum, dist)
    elif variant == "one_sided":
        sym = with_transpose(np.minimum, dist)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    cover = np.empty(sym.shape, dtype=bool)
    for eps in eps_list:
        yield np.less_equal(sym, eps, out=cover)


def _relations_identical(spec_a: QuasiMetricSpec, spec_b: QuasiMetricSpec,
                         orbits: OrbitTable, n_list: Sequence,
                         eps_list: Sequence) -> bool:
    """Whether two distance rules give the same two_sided relation at every
    (n, eps) cell of a schedule that ``count_grid`` has validated. Each rule
    runs its own Bowen stream."""
    streams = zip(_bowen_stream(spec_a, orbits, n_list),
                  _bowen_stream(spec_b, orbits, n_list))
    for (_, dist_a), (_, dist_b) in streams:
        pairs = zip(_covers(dist_a, "two_sided", eps_list),
                    _covers(dist_b, "two_sided", eps_list))
        if not all(np.array_equal(a, b) for a, b in pairs):
            return False
    return True


# ---------------------------------------------------------------------------
# greedy solvers (numpy, deterministic)
# ---------------------------------------------------------------------------

def greedy_cover(cover: np.ndarray) -> list:
    """Repeatedly pick the point covering the most uncovered points; ties go to
    the lowest id. Always terminates: every point covers itself."""
    n = cover.shape[0]
    uncovered = np.ones(n, dtype=bool)
    gains = cover.sum(axis=0).astype(np.int64)
    picks = []
    while uncovered.any():
        y = int(np.argmax(gains))
        newly = uncovered & cover[y]
        picks.append(y)
        uncovered &= ~cover[y]
        gains -= cover[newly, :].sum(axis=0, dtype=np.int64)
    return picks


def greedy_separated(cover: np.ndarray) -> list:
    """Insert points in id order, keeping pairwise separation."""
    n = cover.shape[0]
    conflicted = np.zeros(n, dtype=bool)
    picks = []
    for x in range(n):
        if not conflicted[x]:
            picks.append(x)
            conflicted |= cover[x]
    return picks


# ---------------------------------------------------------------------------
# exact solvers (bitset branch and bound)
# ---------------------------------------------------------------------------

def _column_masks(cover: np.ndarray) -> list:
    """cover columns (equal to its rows) as python-int bitsets: mask[y] has
    bit x iff y covers x."""
    packed = np.packbits(cover, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def exact_cover(cover: np.ndarray) -> tuple:
    """Minimum dominating set of the cover graph.

    Branch and bound: a greedy solution provides the upper bound; a packing of
    points no two of which share a candidate coverer provides the lower bound.
    Branching fixes the uncovered point with the fewest candidate coverers and
    tries its coverers in order of decreasing fresh coverage.

    Returns (sorted point ids, nodes explored).
    """
    n = cover.shape[0]
    full = (1 << n) - 1
    covmask = _column_masks(cover)  # also the coverers of each point

    # union of coverage reachable through any coverer of x, for the lower bound
    blocked = []
    for x in range(n):
        acc = 0
        m = covmask[x]
        while m:
            y = (m & -m).bit_length() - 1
            acc |= covmask[y]
            m &= m - 1
        blocked.append(acc)

    best = greedy_cover(cover)
    best_len = len(best)

    def lower_bound(uncov: int) -> int:
        lb = 0
        rem = uncov
        while rem:
            x = (rem & -rem).bit_length() - 1
            lb += 1
            rem &= ~blocked[x]
        return lb

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

    descend(0)
    return sorted(best), nodes


def exact_separated(cover: np.ndarray) -> tuple:
    """Maximum independent set of the cover graph.

    Branch and bound seeded with the greedy id-order set; pruning uses a greedy
    clique-cover bound on the remaining candidates. Returns (sorted ids, nodes).
    """
    n = cover.shape[0]
    adj = [m & ~(1 << x) for x, m in enumerate(_column_masks(cover))]

    best = greedy_separated(cover)
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
    nodes: int = 0


def _solve(cover: np.ndarray, separated: bool, exact_threshold: int) -> CountResult:
    """Minimal spanning set, or maximal separated set when ``separated``;
    exact when the cover has at most ``exact_threshold`` points, else greedy."""
    if cover.shape[0] <= exact_threshold:
        ids, nodes = exact_separated(cover) if separated else exact_cover(cover)
        return CountResult(len(ids), tuple(ids), "exact_bnb", True, nodes)
    ids = greedy_separated(cover) if separated else sorted(greedy_cover(cover))
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


def count_grid(spec: QuasiMetricSpec, orbits: OrbitTable,
               n_list: Sequence, eps_list: Sequence, *,
               exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
               variants: tuple = VARIANTS) -> CountGrid:
    """Solve every requested quantity over the (n, eps) schedule on the orbit
    table's cloud: exactly when it has at most ``exact_threshold`` points
    (0: always greedy), else greedily.

    D_n comes from one Bowen stream over the ascending n schedule; each
    (n, variant) symmetrizes it once and each (n, eps, variant) cell is solved
    in schedule order and merged by coordinates.
    """
    n_list = [int(n) for n in n_list]
    eps_list = [float(e) for e in eps_list]
    if not n_list or not eps_list:
        raise ValueError("schedules must be nonempty")
    if sorted(set(n_list)) != n_list or n_list[0] < 1:
        raise ValueError("n_list must be strictly increasing from n >= 1")
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be > 0")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    if n_list[-1] > orbits.n_max:
        raise ValueError(f"n_list exceeds orbit table n_max={orbits.n_max}")

    cells = {}
    for n, dist in _bowen_stream(spec, orbits, n_list):
        parts = {eps: {} for eps in eps_list}
        for variant in variants:
            r, s = QUANTITY_PAIRS[variant]
            for eps, cover in zip(eps_list, _covers(dist, variant, eps_list)):
                parts[eps][r] = _solve(cover, False, exact_threshold)
                parts[eps][s] = _solve(cover, True, exact_threshold)
        for eps in eps_list:
            cells[(n, eps)] = CellCounts(n=n, eps=eps, **parts[eps])

    grid = CountGrid(cloud_size=orbits.images.shape[0], n_list=n_list,
                     eps_list=eps_list, variants=tuple(variants), cells=cells)
    grid.diagnostics.extend(_monotonicity_diagnostics(grid))
    return grid


def _monotonicity_diagnostics(grid: CountGrid) -> list:
    """Counts must not increase as eps grows (at fixed n) and must not decrease
    as n grows (at fixed eps). Certain for exact cells; greedy violations are
    reported as informational."""
    notes = []
    eps_desc = sorted(grid.eps_list, reverse=True)
    for q in QUANTITIES:
        vals = grid.counts(q)
        if not vals:
            continue
        for n in grid.n_list:
            for hi, lo in zip(eps_desc, eps_desc[1:]):
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
