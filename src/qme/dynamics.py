"""Point clouds, map catalog and orbit tables.

A compact set is represented by a finite :class:`PointCloud`. Generated grids
snap their coordinates to the dyadic lattice (multiples of 2^-40) so that
coordinate differences, arc lengths and their sums are computed without any
floating-point rounding; the zero-tolerance relation and theorem checks
downstream rely on this.

Maps are small parametric families (:class:`MapSpec`); ``power`` composes a map
with itself, so iterating the composed map reproduces the base orbit exactly,
sample by sample.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .quasimetric import QuasiMetricSpec, block_floors, block_grid, pairwise, symmetrize_max

__all__ = [
    "PointCloud",
    "MapSpec",
    "OrbitTable",
    "grid1d",
    "circle_grid",
    "symbol_blocks",
    "custom_cloud",
    "index_cloud",
    "cloud_from_csv",
    "build_orbits",
    "iterate_map",
    "DYADIC_QUANTUM",
]

# Grid coordinates are rounded to this lattice so float arithmetic on them is
# exact (differences, sums of two distances and halvings introduce no rounding
# for values below ~8).
DYADIC_QUANTUM = 2.0 ** -40

_CLOUD_KINDS = {"grid1d", "circle_grid", "symbol_blocks", "custom", "indices"}

_MAP_KINDS = {"identity", "doubling", "tent", "logistic", "shift_left", "affine"}

_MAX_BLOCK_POINTS = 1 << 20


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.round(values / DYADIC_QUANTUM) * DYADIC_QUANTUM


@dataclass(frozen=True)
class PointCloud:
    """Finite indexed sample with real-vector coordinates (shape (N, d))."""

    points: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        # a copy, read-only below, so no caller's array aliases the cloud
        pts = np.array(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("cloud needs a nonempty (N, d) coordinate array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud coordinates must be finite")
        if self.kind not in _CLOUD_KINDS:
            raise ValueError(f"unknown cloud kind {self.kind!r}")
        # rows sorted lexicographically put equal rows side by side; float ==
        # (not np.unique, which imports numpy.ma) also takes 0.0 == -0.0
        rows = pts[np.lexsort(pts.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("duplicate coordinates in cloud; identity axiom "
                             "would be unverifiable")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def grid1d(lo: float, hi: float, count: int) -> PointCloud:
    """Uniform grid on [lo, hi], endpoints included, dyadic-quantized."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    pts = _quantize(np.linspace(lo, hi, count))
    return PointCloud(points=pts.reshape(-1, 1), kind="grid1d")


def circle_grid(count: int) -> PointCloud:
    """Uniform grid of count points on the unit circle [0, 1), dyadic-quantized."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = _quantize(np.arange(count, dtype=float) / count)
    return PointCloud(points=pts.reshape(-1, 1), kind="circle_grid")


def symbol_blocks(alphabet: int, length: int) -> PointCloud:
    """All alphabet^length symbol blocks as integer-valued coordinate vectors,
    in lexicographic order."""
    if alphabet < 2 or length < 1:
        raise ValueError("need alphabet >= 2 and length >= 1")
    total = alphabet ** length
    if total > _MAX_BLOCK_POINTS:
        raise ValueError(f"{total} blocks exceed the {_MAX_BLOCK_POINTS} cap")
    pts = np.array(list(itertools.product(range(alphabet), repeat=length)), dtype=float)
    return PointCloud(points=pts, kind="symbol_blocks")


def custom_cloud(points) -> PointCloud:
    return PointCloud(points=np.asarray(points, dtype=float), kind="custom")


def index_cloud(count: int) -> PointCloud:
    """Index-valued cloud 0..count-1 for matrix-backed distance rules."""
    if count < 1:
        raise ValueError("count must be >= 1")
    pts = np.arange(count, dtype=float).reshape(-1, 1)
    return PointCloud(points=pts, kind="indices")


def cloud_from_csv(path) -> PointCloud:
    pts = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    return PointCloud(points=pts, kind="custom")


@dataclass(frozen=True)
class MapSpec:
    """A map of the sample space; ``power`` applies the base map that many times."""

    kind: str
    slope: float = 2.0        # tent
    r: float = 4.0            # logistic
    a: float = 1.0            # affine scale
    b: float = 0.0            # affine offset
    power: int = 1
    # every built-in map is uniformly continuous on its documented domain:
    # a catalog assertion, not a verified property
    declared_uniformly_continuous: bool = True

    def __post_init__(self):
        if self.kind not in _MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if self.kind == "logistic" and not (0.0 < self.r <= 4.0):
            raise ValueError("logistic parameter r must lie in (0, 4]")
        if self.kind == "tent" and not (0.0 < self.slope <= 2.0):
            raise ValueError("tent slope must lie in (0, 2]")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Image coordinates of every point (vectorized, power-fold)."""
        out = np.asarray(points, dtype=float)
        for _ in range(self.power):
            out = self._apply_once(out)
        return out

    def _apply_once(self, pts: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind == "identity":
            return pts.copy()
        if kind == "shift_left":
            out = np.empty_like(pts)
            out[:, :-1] = pts[:, 1:]
            out[:, -1] = 0.0
            return out
        if pts.shape[1] != 1:
            raise ValueError(f"{kind} map is one-dimensional")
        x = pts[:, 0]
        if kind == "doubling":
            _require_unit_interval(x, "doubling")
            y = 2.0 * x
            return (y - np.floor(y)).reshape(-1, 1)
        if kind == "tent":
            _require_unit_interval(x, "tent")
            return (self.slope * np.minimum(x, 1.0 - x)).reshape(-1, 1)
        if kind == "logistic":
            _require_unit_interval(x, "logistic")
            return (self.r * x * (1.0 - x)).reshape(-1, 1)
        if kind == "affine":
            return (self.a * x + self.b).reshape(-1, 1)
        raise AssertionError(f"unhandled map kind {kind!r}")


def _require_unit_interval(x: np.ndarray, name: str) -> None:
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError(f"{name} map is undefined outside [0, 1]")


def iterate_map(map_spec: MapSpec, m: int) -> MapSpec:
    """The m-fold composition as a new map spec; m = 1 returns the map itself."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return map_spec
    return replace(map_spec, power=map_spec.power * m)


@dataclass(frozen=True)
class OrbitTable:
    """Precomputed images: ``images[x, i]`` holds the coordinates of T^i(x).

    ``snap_mode`` is ``exact`` (true images kept as real coordinates) or
    ``nearest`` (each image snapped to the nearest cloud point in the max
    symmetrization, with the worst snap error recorded).
    """

    images: np.ndarray  # (N, n_max, d); n_max is read off this shape
    snap_mode: str
    snap_error: float = 0.0

    @property
    def n_max(self) -> int:
        return self.images.shape[1]

    def iterate_points(self, i: int) -> np.ndarray:
        return self.images[:, i, :]


def build_orbits(map_spec: MapSpec, cloud: PointCloud, n_max: int,
                 snap_mode: str = "exact",
                 qspec: Optional[QuasiMetricSpec] = None) -> OrbitTable:
    """Tabulate T^i over the cloud for i = 0..n_max-1.

    ``nearest`` mode needs the run's distance rule to measure snap distances;
    it keeps every orbit on the cloud, for rules (matrix-backed) or maps that
    do not close over arbitrary coordinates. It snaps once per table: the
    map's image of every cloud point is snapped in one pass (``_snap``), and
    the snapped map is then an index map of the cloud that later steps follow
    by lookup. The map acts on each point alone, so T(pts[idx]) is
    T(pts)[idx] bit for bit and the table equals snapping every step's images
    afresh.

    The pass cuts the (image, point) table into the blocks of
    ``block_grid``: row blocks of images by column tiles of points, at most
    PAIR_BLOCK entries each (32 x 256). One ``block_floors`` call bounds
    every block in both directions: the snap distance max(e(x, y), e(y, x))
    is at least the larger of its two directions' floors. A NaN floor, which
    bounds nothing and is every floor of a rule without a floor formula,
    gets -inf. Each row block visits its tiles in increasing floor order,
    ties in column order, keeping a running minimum and argmin per image
    that start at (+inf, id 0); a tile's argmin replaces them when strictly
    closer, or equally close with a lower id. The block stops at the first
    tile whose floor exceeds the largest running minimum of its images.
    Every tile that holds an image's minimum has a floor at most that
    minimum, which is at most the block's running maximum at every moment,
    so it comes before the stop and is visited. So each image snaps to the
    lowest id among the points at its minimum distance, every distance is
    the value a full ``pairwise`` pass gives, and the snap error is
    unchanged. On sorted clouds, under maps that keep nearby points
    together, a block visits one or two tiles; a rule without a floor visits
    them all, in column order.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if snap_mode not in ("exact", "nearest"):
        raise ValueError(f"unknown snap mode {snap_mode!r}")
    if snap_mode == "nearest" and qspec is None:
        raise ValueError("nearest snapping needs a quasi-metric spec")
    pts = cloud.points
    n_pts, dim = pts.shape
    images = np.empty((n_pts, n_max, dim))
    images[:, 0, :] = pts
    snap_err = 0.0
    if snap_mode == "exact":
        for i in range(1, n_max):
            images[:, i, :] = map_spec.apply(images[:, i - 1, :])
    elif n_max > 1:
        # step 1 snaps every cloud point; later steps snap a subset of them
        step, snap_err = _snap(qspec, map_spec.apply(pts), pts)
        idx = np.arange(n_pts)
        for i in range(1, n_max):
            idx = step[idx]
            images[:, i, :] = pts[idx]
    images.setflags(write=False)
    return OrbitTable(images=images, snap_mode=snap_mode, snap_error=snap_err)


def _snap(qspec: QuasiMetricSpec, raw: np.ndarray, pts: np.ndarray) -> tuple:
    """(step, error): step[j] is the id of the cloud point nearest to the
    image raw[j] in the max symmetrization of ``qspec``, ties to the lowest
    id, and error is the largest of those snap distances; the pruned pass
    that ``build_orbits`` describes."""
    sym = symmetrize_max(qspec)
    row_blocks, col_tiles = block_grid(len(raw), len(pts))
    floors = np.maximum(*block_floors(qspec, raw, row_blocks, pts, col_tiles))
    floors[np.isnan(floors)] = -np.inf
    step = np.zeros(len(raw), dtype=np.intp)
    err = np.full(len(raw), np.inf)
    for r, row_floors in zip(row_blocks, floors):
        ids, best = step[r], err[r]  # views: updated in place
        for t in np.argsort(row_floors, kind="stable"):
            if row_floors[t] > best.max():
                break
            c = col_tiles[t]
            dist = pairwise(sym, raw[r], pts[c])
            near = np.argmin(dist, axis=1)
            low = dist[np.arange(len(near)), near]
            near += c.start
            closer = (low < best) | ((low == best) & (near < ids))
            ids[closer] = near[closer]
            best[closer] = low[closer]
    return step, float(err.max())
