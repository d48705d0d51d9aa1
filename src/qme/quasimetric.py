"""Quasi-metric distance rules: asymmetric distances that keep the triangle
inequality but may drop symmetry.

A distance rule is described by a :class:`QuasiMetricSpec` and evaluated
elementwise on paired points (:func:`paired`), which is the one set of
per-kind formulas, or as its broadcast over all pairs (:func:`pairwise`).
:func:`paired_both` gives both directions, e(a, b) and e(b, a), at once and
holds the hinge formula of ``weighted_asym``, which it evaluates in one pass
over each coordinate's difference; ``paired`` takes that kind's forward
direction from it.
:func:`paired_floor` bounds it from below over every block of a table of
blocks of pairs, in one call, and :func:`block_floors` gives the two
directions' tables over the blocks of two tilings. A rule without a floor
formula gets a table of NaN, which bounds nothing, so every caller takes
one path whatever the rule.
Axiom validation, the symmetry test and the two symmetrizations (mean and
max) also live here; orbit-maximized (Bowen) distances are built in
``covering``.

Built-in kinds
--------------
``asym_line``      forward difference on the real line, unit cost backwards:
                   e(x, y) = y - x when y >= x, else 1.
``euclidean``      ordinary symmetric distance (|x - y| in one dimension).
``circle_arc``     shortest arc length on the unit circle [0, 1).
``weighted_asym``  per-coordinate hinge distance
                   alpha * (y-x)^+ + beta * (x-y)^+, summed over coordinates.
``matrix``         explicit lookup table (square, nonnegative, zero diagonal);
                   operates on index-valued point clouds.
``block_prefix``   2^-(first disagreement index) on symbol blocks (symmetric).
``block_prefix_asym``  as ``block_prefix`` but disagreements where the first
                   differing symbol of x exceeds y's cost twice as much.

Derived kinds ``mean_of`` and ``max_of`` wrap a base rule; they are produced
by :func:`symmetrize_mean` and :func:`symmetrize_max`.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

__all__ = [
    "QuasiMetricSpec",
    "AxiomReport",
    "pairwise",
    "paired",
    "paired_both",
    "paired_floor",
    "block_floors",
    "is_symmetric",
    "check_axioms",
    "symmetrize_mean",
    "symmetrize_max",
    "load_matrix_csv",
]

_BASE_KINDS = {
    "asym_line",
    "euclidean",
    "circle_arc",
    "weighted_asym",
    "matrix",
    "block_prefix",
    "block_prefix_asym",
}
_DERIVED_KINDS = {"mean_of", "max_of"}
# kinds whose paired_floor is not NaN
_FLOOR_KINDS = {"asym_line", "euclidean", "circle_arc", "weighted_asym"}
# kinds whose formula gives e(x, y) == e(y, x) bit for bit: negation, abs,
# squaring, + and max are exact or commutative in IEEE arithmetic
_SYMMETRIC_KINDS = {"euclidean", "circle_arc", "block_prefix", "mean_of", "max_of"}

DEFAULT_SEED = 1234

# N x N passes work on cache-sized pieces. Covering keeps its live pairs in
# ROW_TILE x ROW_TILE blocks and evaluates e on slices of at most PAIR_BLOCK
# of them; each pairwise call of nearest snapping and check_axioms returns at
# most PAIR_BLOCK entries, at most ROW_TILE wide (32 x 256). Their 64 KB
# float64 temporaries stay in L2 and, below glibc's 128 KB mmap threshold,
# reuse heap pages instead of faulting fresh ones in. On a 2-core Xeon VM,
# snap_power (N = 2048, fresh processes, medians of 8) took 1.56 s at 8192
# entries, 1.55-1.58 s at 4096 and 16384 (25k minor faults), 1.68 s at 32768
# (87k) and 2.00 s in 256 x 256 blocks (169k). Covering stores offsets
# inside a block in one byte, so ROW_TILE must stay at most 256.
ROW_TILE = 256
PAIR_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class QuasiMetricSpec:
    """A named distance rule producing e(x, y) >= 0.

    Only the fields relevant to ``kind`` are used: ``alpha``/``beta`` for
    ``weighted_asym``, ``matrix`` for the lookup kind, ``base`` for the
    derived kinds.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 1.0
    matrix: Optional[np.ndarray] = None
    base: Optional["QuasiMetricSpec"] = None

    def __post_init__(self):
        if self.kind not in _BASE_KINDS | _DERIVED_KINDS:
            raise ValueError(f"unknown quasi-metric kind {self.kind!r}")
        if self.kind == "weighted_asym":
            # an infinite weight gives e(x, x) = inf * 0 = NaN
            if not (0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
                raise ValueError("weighted_asym needs finite alpha > 0 and beta > 0")
        if self.kind == "matrix":
            m = self.matrix
            if m is None:
                raise ValueError("matrix kind needs a matrix")
            m = np.array(m, dtype=float)  # a copy, made read-only below
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("distance matrix must be square")
            if not np.all(np.isfinite(m)) or np.any(m < 0.0):
                raise ValueError("distance matrix entries must be finite and >= 0")
            if np.any(np.diagonal(m) != 0.0):
                raise ValueError("distance matrix must have a zero diagonal")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        if self.kind in _DERIVED_KINDS and self.base is None:
            raise ValueError(f"{self.kind} needs a base spec")


def _as_points(a) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    return pts


def _cloud_points(cloud) -> np.ndarray:
    """A cloud's (N, d) coordinates: its ``points``, or an array of them in
    which, as in :class:`PointCloud`, a 1-D array holds N one-dimensional
    points."""
    pts = np.asarray(getattr(cloud, "points", cloud), dtype=float)
    return pts.reshape(-1, 1) if pts.ndim == 1 else pts


def _coords(a, b) -> tuple:
    """a and b as float arrays whose last axes, the coordinates, agree."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return a, b


def pairwise(spec: QuasiMetricSpec, a, b) -> np.ndarray:
    """Evaluate e on every pair: returns M with M[i, j] = e(a[i], b[j]).

    ``a`` and ``b`` are arrays of shape (n, d) and (m, d); for ``matrix`` specs
    the single coordinate is the point index into the lookup table. It is the
    broadcast of :func:`paired`, so each entry is that elementwise value.
    """
    A = _as_points(a)
    B = _as_points(b)
    return paired(spec, A[:, None, :], B[None, :, :])


def paired(spec: QuasiMetricSpec, a, b) -> np.ndarray:
    """Evaluate e elementwise: e(a[k], b[k]) over the broadcast of the leading
    axes of ``a`` and ``b``, whose last axis holds the coordinates (the point
    index for ``matrix`` specs)."""
    a, b = _coords(a, b)
    kind = spec.kind

    if kind in ("mean_of", "max_of"):
        fwd, bwd = paired_both(spec.base, a, b)
        return (fwd + bwd) / 2.0 if kind == "mean_of" else np.maximum(fwd, bwd)

    if kind == "asym_line":
        if a.shape[-1] != 1:
            raise ValueError("asym_line is one-dimensional")
        diff = b[..., 0] - a[..., 0]
        return np.where(diff >= 0.0, diff, 1.0)

    if kind == "euclidean":
        if a.shape[-1] == 1:
            return np.abs(b[..., 0] - a[..., 0])
        acc = 0.0
        for k in range(a.shape[-1]):
            d = b[..., k] - a[..., k]
            acc = acc + d * d
        return np.sqrt(acc)

    if kind == "circle_arc":
        if a.shape[-1] != 1:
            raise ValueError("circle_arc is one-dimensional")
        d = np.abs(b[..., 0] - a[..., 0])
        return np.minimum(d, 1.0 - d)

    if kind == "weighted_asym":
        return paired_both(spec, a, b)[0]

    if kind == "matrix":
        m = spec.matrix
        return m[_matrix_indices(a, m.shape[0]), _matrix_indices(b, m.shape[0])]

    if kind in ("block_prefix", "block_prefix_asym"):
        return _block_paired(a, b, asym=(kind == "block_prefix_asym"))

    raise AssertionError(f"unhandled kind {kind!r}")


def paired_both(spec: QuasiMetricSpec, a, b) -> tuple:
    """(e(a, b), e(b, a)) elementwise, as ``paired`` gives each, bit for bit
    apart from the payload and sign of a NaN.

    ``weighted_asym`` holds the hinge formula: each coordinate's d = b - a is
    taken once and both directions come from it in place, since a - b is -d
    exactly in IEEE arithmetic. With pos = max(d, 0) and neg = max(-d, 0),
    e(a, b) sums alpha * pos + beta * neg and e(b, a) alpha * neg + beta *
    pos; neither term is ever -0.0, as one of pos and neg is +0.0 or
    positive. Other kinds make two ``paired`` calls."""
    a, b = _coords(a, b)
    if spec.kind != "weighted_asym":
        return paired(spec, a, b), paired(spec, b, a)
    alpha, beta = spec.alpha, spec.beta
    for k in range(a.shape[-1]):
        # an array even for single points, so the passes below can write it
        d = np.asarray(b[..., k] - a[..., k])
        pos = np.maximum(d, 0.0)
        neg = np.maximum(np.negative(d, out=d), 0.0, out=d)
        f = alpha * pos
        f += beta * neg
        pos *= beta
        neg *= alpha
        neg += pos
        if k == 0:
            fwd, bwd = f, neg
        else:
            fwd += f
            bwd += neg
    return fwd, bwd


def paired_floor(spec: QuasiMetricSpec, rows: tuple, cols: tuple) -> np.ndarray:
    """Lower bounds, one per block of pairs, on every float value
    ``paired(spec, x, y)`` takes for x a point of the block's rows and y one
    of its columns; NaN values are not bounded, and a NaN bound bounds
    nothing. ``circle_arc``, ``euclidean``, ``asym_line`` and
    ``weighted_asym`` have a bound; ``matrix``, the ``block_prefix`` kinds
    and the derived kinds get NaN for every block.

    ``rows`` and ``cols`` are (lo, hi): the per-coordinate minima and maxima
    of the points of each block's two sides, arrays whose last axis holds
    the coordinates and whose leading axes broadcast to the blocks' shape, so
    one call gives a whole table of blocks (``tile_extremes`` gives the
    extremes of a list of tiles). The bound holds bit for bit, and each
    block's is the value a call on that block alone gives.
    Rounded subtraction is monotone, so each coordinate's b - a lies between
    lo = cols.lo - rows.hi and hi = cols.hi - rows.lo, as rounded. Every
    step of the real-coordinate formulas is rounded and monotone, so their
    value does not fall as any b - a moves away from 0, except that
    ``circle_arc``'s min(d, 1 - d) of d = |b - a| is at least its d at the
    least d and its 1 - d at the largest. The bound is therefore ``paired``
    on the differences in [lo, hi] nearest 0, and for ``circle_arc`` the
    least of that and ``paired`` on lo and on hi."""
    (row_lo, row_hi), (col_lo, col_hi) = rows, cols
    lo, hi = col_lo - row_hi, col_hi - row_lo
    near = np.minimum(np.maximum(lo, 0.0), hi)
    if spec.kind not in _FLOOR_KINDS:
        return np.full(near.shape[:-1], np.nan)
    diffs = np.stack([near, lo, hi]) if spec.kind == "circle_arc" else near[None]
    floor = paired(spec, np.zeros_like(diffs), diffs).min(axis=0)
    # asym_line reads a NaN difference as 1
    return np.where(np.isnan(near).any(axis=-1), np.nan, floor)


def block_floors(spec: QuasiMetricSpec, a: np.ndarray, a_tiles: list, b: np.ndarray,
                 b_tiles: list) -> tuple:
    """(fwd, bwd): the :func:`paired_floor` tables, (a tiles, b tiles), of
    e(x, y) and of e(y, x) over x in an a tile and y in a b tile, from the
    two tilings' ``tile_extremes``. The differences over a tile against
    itself span 0, so that block's floor is at most 0, or NaN."""
    a_lo, a_hi = tile_extremes(a, a_tiles)
    b_lo, b_hi = tile_extremes(b, b_tiles)
    rows, cols = (a_lo[:, None], a_hi[:, None]), (b_lo[None], b_hi[None])
    return paired_floor(spec, rows, cols), paired_floor(spec, cols, rows)


def is_symmetric(spec: QuasiMetricSpec) -> bool:
    """True when the rule is symmetric by construction, so that
    ``paired(spec, a, b)`` equals ``paired(spec, b, a)`` for every input:
    ``euclidean``, ``circle_arc``, ``block_prefix``, the two symmetrizations
    of any base, and a ``matrix`` equal to its transpose. Other rules may be
    symmetric on a given cloud; that is not looked for."""
    if spec.kind in _SYMMETRIC_KINDS:
        return True
    if spec.kind == "matrix":
        return bool(np.array_equal(spec.matrix, spec.matrix.T))
    return False


def row_tiles(n: int, start: int = 0) -> list:
    """Slices of at most ROW_TILE indices that cover start..n-1 in order."""
    return [slice(r, min(r + ROW_TILE, n)) for r in range(start, n, ROW_TILE)]


def block_grid(rows: int, cols: int) -> tuple:
    """(row slices, column slices) whose products cover a rows x cols array
    (cols > 0), each block at most ROW_TILE columns wide and PAIR_BLOCK
    entries."""
    width = min(cols, ROW_TILE, PAIR_BLOCK)
    height = PAIR_BLOCK // width
    return ([slice(r, min(r + height, rows)) for r in range(0, rows, height)],
            [slice(c, min(c + width, cols)) for c in range(0, cols, width)])


def tile_extremes(pts: np.ndarray, tiles: list) -> tuple:
    """(lo, hi): the per-coordinate minima and maxima of pts over each of
    ``tiles``, consecutive slices that cover pts in order, as (tiles, d)
    arrays; the sides ``paired_floor`` reads."""
    starts = [t.start for t in tiles]
    return np.minimum.reduceat(pts, starts, axis=0), np.maximum.reduceat(pts, starts, axis=0)


def _matrix_indices(pts: np.ndarray, size: int) -> np.ndarray:
    idx = pts[..., 0]
    ints = np.rint(idx).astype(int)
    if np.any(np.abs(idx - ints) > 0.0):
        raise ValueError("matrix spec expects integer index coordinates")
    if np.any(ints < 0) or np.any(ints >= size):
        raise IndexError(f"matrix index out of range 0..{size - 1}")
    return ints


def _block_paired(a: np.ndarray, b: np.ndarray, asym: bool) -> np.ndarray:
    # first index where the symbol sequences disagree; equal blocks get 0
    neq = a != b
    differs = neq.any(axis=-1)
    first = np.argmax(neq, axis=-1)
    out = np.where(differs, np.power(2.0, -first.astype(float)), 0.0)
    if asym:
        at_first = first[..., None]
        av = np.take_along_axis(a, at_first, axis=-1)[..., 0]  # a[k, first[k]]
        bv = np.take_along_axis(b, at_first, axis=-1)[..., 0]  # b[k, first[k]]
        out = out * np.where(differs & (av > bv), 2.0, 1.0)
    return out


def symmetrize_mean(spec: QuasiMetricSpec) -> QuasiMetricSpec:
    """Arithmetic-mean symmetrization: d(x, y) = (e(x, y) + e(y, x)) / 2."""
    return QuasiMetricSpec(kind="mean_of", base=spec)


def symmetrize_max(spec: QuasiMetricSpec) -> QuasiMetricSpec:
    """Max symmetrization: d(x, y) = max(e(x, y), e(y, x))."""
    return QuasiMetricSpec(kind="max_of", base=spec)


@dataclass
class AxiomReport:
    """Outcome of validating the three quasi-metric axioms on a sample."""

    nonnegativity_ok: bool
    identity_ok: bool
    triangle_ok: bool
    violations: list  # (x index, y index, z index, lhs, rhs)
    symmetric: bool
    max_asymmetry: float
    exhaustive: bool
    triples_checked: int

    @property
    def all_ok(self) -> bool:
        return self.nonnegativity_ok and self.identity_ok and self.triangle_ok


def check_axioms(spec: QuasiMetricSpec, cloud, triple_budget: int,
                 seed: int = DEFAULT_SEED) -> AxiomReport:
    """Validate nonnegativity, identity of indiscernibles and the triangle
    inequality on a point cloud.

    All |cloud|^3 ordered triples are checked when that count fits within
    ``triple_budget``; otherwise ``triple_budget`` triples are drawn, with
    replacement, from a generator seeded with ``seed`` so reports are
    reproducible. ``triples_checked`` counts the triples, and ``violations``
    lists each distinct violating triple once. Comparisons are exact; no
    tolerance is applied.

    Memory does not grow with N^2 or with the budget: e is evaluated in both
    directions, by one :func:`paired_both` call, on the :func:`block_grid`
    blocks of at most ``PAIR_BLOCK`` pairs on and right of the diagonal of
    each row tile, so each unordered pair is read once outside the diagonal
    sub-blocks.
    Triples, enumerated in order or drawn, are checked in slices of about
    ``PAIR_BLOCK`` by one loop of :func:`paired` calls.
    """
    if triple_budget < 1:
        raise ValueError("triple_budget must be >= 1")
    pts = _cloud_points(cloud)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cloud must be nonempty")

    nonneg = identity_ok = True
    max_asym = 0.0
    for tile in row_tiles(n):
        lo = tile.start
        for r, c in product(*block_grid(tile.stop - lo, n - lo)):
            if c.stop <= r.start:
                continue  # below the diagonal: read both ways from above it
            r, c = slice(lo + r.start, lo + r.stop), slice(lo + c.start, lo + c.stop)
            fwd, bwd = paired_both(spec, pts[r][:, None, :], pts[c][None, :, :])
            diag = np.arange(r.start, r.stop)[:, None] == np.arange(c.start, c.stop)
            for e in (fwd, bwd):
                nonneg = nonneg and bool(np.all(np.isfinite(e) & (e >= 0.0)))
                identity_ok = identity_ok and bool(np.all(np.where(diag, e == 0.0, e > 0.0)))
            # np.maximum, unlike max(), carries a NaN block maximum through
            max_asym = np.maximum(max_asym, np.max(np.abs(fwd - bwd)))

    violations = []
    exhaustive = n ** 3 <= triple_budget
    triples_checked = n ** 3 if exhaustive else triple_budget
    rng = np.random.default_rng(seed)
    # numpy's bounded draw restarts its 32-bit buffer at each call, so slices
    # of an even number of triples draw the integers of one budget x 3 draw
    step = PAIR_BLOCK + PAIR_BLOCK % 2
    for s in range(0, triples_checked, step):
        size = min(step, triples_checked - s)
        if exhaustive:  # triples s.. in (x, y, z) order
            xyz = np.unravel_index(np.arange(s, s + size), (n, n, n))
        else:
            xyz = rng.integers(0, n, size=(size, 3)).T
        x, y, z = (pts[i] for i in xyz)
        lhs = paired(spec, x, z)
        rhs = paired(spec, x, y) + paired(spec, y, z)
        for t in np.nonzero(lhs > rhs)[0].tolist():
            violations.append((*(int(i[t]) for i in xyz), float(lhs[t]), float(rhs[t])))

    max_asym = float(max_asym) if n > 1 else 0.0
    return AxiomReport(
        nonnegativity_ok=nonneg,
        identity_ok=identity_ok,
        triangle_ok=not violations,
        violations=sorted(set(violations)),
        symmetric=(max_asym == 0.0),
        max_asymmetry=max_asym,
        exhaustive=exhaustive,
        triples_checked=triples_checked,
    )


def load_matrix_csv(path) -> QuasiMetricSpec:
    """Read a matrix-backed rule from CSV with header line ``qmetric,v1,<n>``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.split(",")
        if len(parts) != 3 or parts[0] != "qmetric" or parts[1] != "v1":
            raise ValueError(f"bad matrix header {header!r}; expected 'qmetric,v1,<n>'")
        try:
            n = int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad matrix size in header {header!r}") from exc
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    m = np.asarray(rows, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"matrix body is {m.shape}, header says {n}x{n}")
    return QuasiMetricSpec(kind="matrix", matrix=m)
