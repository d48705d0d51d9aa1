"""Independent oracles for the solver and count pipeline.

Everything here recomputes answers from first principles (exhaustive subset
enumeration, 1-D sweep arguments, direct per-pair definitions) without touching
the branch-and-bound or the vectorized distance matrices, so tests can compare
two routes that share no code. The exception is the last section: untiled,
full-matrix forms of the tiled N x N passes, which must agree with them bit for
bit.
"""
from __future__ import annotations

import numpy as np

from qme.quasimetric import pairwise, symmetrize_max


def brute_min_cover(cover: np.ndarray) -> int:
    """Exhaustive minimum cover cardinality; intended for n <= 16."""
    n = cover.shape[0]
    if n > 16:
        raise ValueError("brute force capped at 16 points")
    full = (1 << n) - 1
    colbits = []
    for y in range(n):
        m = 0
        for x in range(n):
            if cover[x, y]:
                m |= 1 << x
        colbits.append(m)
    best = n
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size >= best:
            continue
        got = 0
        m = mask
        while m:
            y = (m & -m).bit_length() - 1
            got |= colbits[y]
            m &= m - 1
        if got == full:
            best = size
    return best


def brute_max_separated(cover: np.ndarray) -> int:
    """Exhaustive maximum separated-set cardinality; intended for n <= 16."""
    n = cover.shape[0]
    if n > 16:
        raise ValueError("brute force capped at 16 points")
    adj = []
    for x in range(n):
        m = 0
        for y in range(n):
            if y != x and cover[x, y]:
                m |= 1 << y
        adj.append(m)
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        m = mask
        while m:
            x = (m & -m).bit_length() - 1
            if adj[x] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = size
    return best


def _contiguous_ranges(cover: np.ndarray):
    """Coverage range (lo, hi) per candidate; requires contiguous coverage."""
    n = cover.shape[0]
    ranges = []
    for y in range(n):
        idx = np.nonzero(cover[:, y])[0]
        lo, hi = int(idx[0]), int(idx[-1])
        if len(idx) != hi - lo + 1:
            raise ValueError("coverage is not contiguous; interval oracle inapplicable")
        ranges.append((lo, hi))
    return ranges


def interval_min_cover(cover: np.ndarray) -> int:
    """Exact minimum cover for relations whose coverage sets are contiguous
    index ranges (1-D threshold relations): classic left-to-right sweep picking
    the range that reaches farthest right."""
    n = cover.shape[0]
    ranges = _contiguous_ranges(cover)
    target = 0
    picks = 0
    while target < n:
        best_hi = -1
        for y in range(n):
            lo, hi = ranges[y]
            if lo <= target <= hi and hi > best_hi:
                best_hi = hi
        picks += 1
        target = best_hi + 1
    return picks


def interval_max_separated(cover: np.ndarray) -> int:
    """Exact maximum separated set for 1-D threshold relations (conflicts are
    contiguous in index order): first-fit sweep."""
    _contiguous_ranges(cover)  # validates applicability
    n = cover.shape[0]
    count = 0
    last = -1
    for x in range(n):
        if last < 0 or not cover[x, last]:
            count += 1
            last = x
    return count


def direct_orbit_distance(eval_fn, images: np.ndarray, x: int, y: int, n: int) -> float:
    """Orbit-maximized distance via a plain python loop over iterates."""
    return max(eval_fn(images[x, i], images[y, i]) for i in range(n))


def shift_first_fit_separated(blocks: np.ndarray, separated_fn) -> list:
    """Greedily build a separated set of symbol blocks in lexicographic order,
    checking pairs with a caller-supplied direct predicate. For relations where
    closeness is an equivalence (shared prefixes), first fit is maximum."""
    chosen: list = []
    for i in range(blocks.shape[0]):
        if all(separated_fn(i, j) for j in chosen):
            chosen.append(i)
    return chosen


# --- untiled references for the tiled N x N passes ---------------------------

def naive_bowen(spec, orbits, n: int) -> np.ndarray:
    """D_n from one full-matrix pairwise call and one maximum per orbit step."""
    pts = orbits.iterate_points(0)
    dist = pairwise(spec, pts, pts)
    for i in range(1, n):
        pts = orbits.iterate_points(i)
        dist = np.maximum(dist, pairwise(spec, pts, pts))
    return dist


def naive_symmetrized(dist: np.ndarray, variant: str) -> np.ndarray:
    """max(D, D^T) for two_sided, min(D, D^T) for one_sided, via a full transpose."""
    op = {"two_sided": np.maximum, "one_sided": np.minimum}[variant]
    return op(dist, dist.T)


def naive_snap(map_spec, cloud, n_max: int, qspec) -> tuple:
    """(images, snap error) of nearest snapping with one full distance matrix
    per orbit step; ties go to the lowest id."""
    pts = cloud.points
    sym = symmetrize_max(qspec)
    images = [pts]
    err = 0.0
    for _ in range(1, n_max):
        dist = pairwise(sym, map_spec.apply(images[-1]), pts)
        nearest = np.argmin(dist, axis=1)
        err = max(err, float(dist[np.arange(len(pts)), nearest].max()))
        images.append(pts[nearest])
    return np.stack(images, axis=1), err
