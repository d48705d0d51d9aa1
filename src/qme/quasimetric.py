"""Quasi-metric distance rules: asymmetric distances that keep the triangle
inequality but may drop symmetry.

A distance rule is described by a :class:`QuasiMetricSpec` and evaluated either
pointwise (:func:`evaluate`) or as a full pairwise matrix (:func:`pairwise`).
Axiom validation, the two symmetrizations (mean and max), ball membership and
the dynamical (orbit-maximized) distance all live here.

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

Derived kinds ``mean_of``, ``max_of`` and ``scaled`` wrap a base rule; they are
produced by :func:`symmetrize_mean`, :func:`symmetrize_max` and :func:`scaled`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "QuasiMetricSpec",
    "AxiomReport",
    "BallSpec",
    "evaluate",
    "pairwise",
    "check_axioms",
    "symmetrize_mean",
    "symmetrize_max",
    "scaled",
    "ball_members",
    "bowen_distance",
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
_DERIVED_KINDS = {"mean_of", "max_of", "scaled"}

DEFAULT_SEED = 1234


@dataclass(frozen=True, eq=False)
class QuasiMetricSpec:
    """A named distance rule producing e(x, y) >= 0.

    Only the fields relevant to ``kind`` are used: ``alpha``/``beta`` for
    ``weighted_asym``, ``matrix`` for the lookup kind, ``base`` (and ``factor``)
    for the derived kinds.
    """

    kind: str
    alpha: float = 1.0
    beta: float = 1.0
    matrix: Optional[np.ndarray] = None
    base: Optional["QuasiMetricSpec"] = None
    factor: float = 1.0
    description: str = ""

    def __post_init__(self):
        if self.kind not in _BASE_KINDS | _DERIVED_KINDS:
            raise ValueError(f"unknown quasi-metric kind {self.kind!r}")
        if self.kind == "weighted_asym":
            if not (self.alpha > 0.0 and self.beta > 0.0):
                raise ValueError("weighted_asym needs alpha > 0 and beta > 0")
        if self.kind == "matrix":
            m = self.matrix
            if m is None:
                raise ValueError("matrix kind needs a matrix")
            m = np.asarray(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("distance matrix must be square")
            if not np.all(np.isfinite(m)) or np.any(m < 0.0):
                raise ValueError("distance matrix entries must be finite and >= 0")
            if np.any(np.diagonal(m) != 0.0):
                raise ValueError("distance matrix must have a zero diagonal")
            object.__setattr__(self, "matrix", m)
        if self.kind in _DERIVED_KINDS and self.base is None:
            raise ValueError(f"{self.kind} needs a base spec")
        if self.kind == "scaled" and not self.factor > 0.0:
            raise ValueError("scale factor must be > 0")


def _as_points(a) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    return pts


def pairwise(spec: QuasiMetricSpec, a, b) -> np.ndarray:
    """Evaluate e on every pair: returns M with M[i, j] = e(a[i], b[j]).

    ``a`` and ``b`` are arrays of shape (n, d) and (m, d); for ``matrix`` specs
    the single coordinate is the point index into the lookup table.
    """
    A = _as_points(a)
    B = _as_points(b)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    kind = spec.kind

    if kind == "mean_of":
        fwd = pairwise(spec.base, A, B)
        bwd = pairwise(spec.base, B, A)
        return (fwd + bwd.T) / 2.0
    if kind == "max_of":
        fwd = pairwise(spec.base, A, B)
        bwd = pairwise(spec.base, B, A)
        return np.maximum(fwd, bwd.T)
    if kind == "scaled":
        return spec.factor * pairwise(spec.base, A, B)

    if kind == "asym_line":
        if A.shape[1] != 1:
            raise ValueError("asym_line is one-dimensional")
        diff = B[:, 0][None, :] - A[:, 0][:, None]
        return np.where(diff >= 0.0, diff, 1.0)

    if kind == "euclidean":
        if A.shape[1] == 1:
            return np.abs(B[:, 0][None, :] - A[:, 0][:, None])
        acc = np.zeros((A.shape[0], B.shape[0]))
        for k in range(A.shape[1]):
            d = B[:, k][None, :] - A[:, k][:, None]
            acc += d * d
        return np.sqrt(acc)

    if kind == "circle_arc":
        if A.shape[1] != 1:
            raise ValueError("circle_arc is one-dimensional")
        d = np.abs(B[:, 0][None, :] - A[:, 0][:, None])
        return np.minimum(d, 1.0 - d)

    if kind == "weighted_asym":
        acc = np.zeros((A.shape[0], B.shape[0]))
        for k in range(A.shape[1]):
            d = B[:, k][None, :] - A[:, k][:, None]
            acc += spec.alpha * np.maximum(d, 0.0) + spec.beta * np.maximum(-d, 0.0)
        return acc

    if kind == "matrix":
        m = spec.matrix
        ia = _matrix_indices(A, m.shape[0])
        ib = _matrix_indices(B, m.shape[0])
        return m[ia[:, None], ib[None, :]]

    if kind in ("block_prefix", "block_prefix_asym"):
        return _block_pairwise(A, B, asym=(kind == "block_prefix_asym"))

    raise AssertionError(f"unhandled kind {kind!r}")


def _matrix_indices(pts: np.ndarray, size: int) -> np.ndarray:
    idx = pts[:, 0]
    ints = np.rint(idx).astype(int)
    if np.any(np.abs(idx - ints) > 0.0):
        raise ValueError("matrix spec expects integer index coordinates")
    if np.any(ints < 0) or np.any(ints >= size):
        raise IndexError(f"matrix index out of range 0..{size - 1}")
    return ints


def _block_pairwise(A: np.ndarray, B: np.ndarray, asym: bool) -> np.ndarray:
    # first index where the symbol sequences disagree; equal blocks get 0
    neq = A[:, None, :] != B[None, :, :]
    differs = neq.any(axis=2)
    first = np.argmax(neq, axis=2)
    out = np.where(differs, np.power(2.0, -first.astype(float)), 0.0)
    if asym:
        av = np.take_along_axis(A, first, axis=1)            # A[i, first[i, j]]
        bv = B[np.arange(B.shape[0])[None, :], first]        # B[j, first[i, j]]
        out = out * np.where(differs & (av > bv), 2.0, 1.0)
    return out


def evaluate(spec: QuasiMetricSpec, x, y) -> float:
    """Single evaluation e(x, y) for coordinate vectors x, y."""
    return float(pairwise(spec, _as_points(x), _as_points(y))[0, 0])


def symmetrize_mean(spec: QuasiMetricSpec) -> QuasiMetricSpec:
    """Arithmetic-mean symmetrization: d(x, y) = (e(x, y) + e(y, x)) / 2."""
    return QuasiMetricSpec(kind="mean_of", base=spec,
                           description=f"mean symmetrization of {spec.kind}")


def symmetrize_max(spec: QuasiMetricSpec) -> QuasiMetricSpec:
    """Max symmetrization: d(x, y) = max(e(x, y), e(y, x))."""
    return QuasiMetricSpec(kind="max_of", base=spec,
                           description=f"max symmetrization of {spec.kind}")


def scaled(spec: QuasiMetricSpec, factor: float) -> QuasiMetricSpec:
    """Rescaled rule c * e for c > 0 (distances and radii scale together)."""
    return QuasiMetricSpec(kind="scaled", base=spec, factor=factor,
                           description=f"{factor} * {spec.kind}")


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

    def to_dict(self) -> dict:
        return {
            "nonnegativity_ok": bool(self.nonnegativity_ok),
            "identity_ok": bool(self.identity_ok),
            "triangle_ok": bool(self.triangle_ok),
            "violations": [
                [int(x), int(y), int(z), float(l), float(r)]
                for (x, y, z, l, r) in self.violations
            ],
            "symmetric": bool(self.symmetric),
            "max_asymmetry": float(self.max_asymmetry),
            "exhaustive": bool(self.exhaustive),
            "triples_checked": int(self.triples_checked),
        }


def check_axioms(spec: QuasiMetricSpec, cloud, triple_budget: int,
                 seed: int = DEFAULT_SEED) -> AxiomReport:
    """Validate nonnegativity, identity of indiscernibles and the triangle
    inequality on a point cloud.

    All |cloud|^3 ordered triples are checked when that count fits within
    ``triple_budget``; otherwise ``triple_budget`` triples are drawn from a
    generator seeded with ``seed`` so reports are reproducible. Comparisons are
    exact; no tolerance is applied.
    """
    if triple_budget < 1:
        raise ValueError("triple_budget must be >= 1")
    pts = cloud.points if hasattr(cloud, "points") else _as_points(cloud)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cloud must be nonempty")
    D = pairwise(spec, pts, pts)

    nonneg = bool(np.all(np.isfinite(D)) and np.all(D >= 0.0))
    diag = np.diagonal(D)
    off = D[~np.eye(n, dtype=bool)]
    identity_ok = bool(np.all(diag == 0.0) and (off.size == 0 or np.all(off > 0.0)))

    violations = []
    exhaustive = n ** 3 <= triple_budget
    if exhaustive:
        triples_checked = n ** 3
        for y in range(n):
            rhs = D[:, y][:, None] + D[y, :][None, :]
            bad = D > rhs
            if bad.any():
                xs, zs = np.nonzero(bad)
                for x, z in zip(xs.tolist(), zs.tolist()):
                    violations.append((x, y, z, float(D[x, z]), float(rhs[x, z])))
    else:
        triples_checked = triple_budget
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(triple_budget, 3))
        lhs = D[idx[:, 0], idx[:, 2]]
        rhs = D[idx[:, 0], idx[:, 1]] + D[idx[:, 1], idx[:, 2]]
        bad = np.nonzero(lhs > rhs)[0]
        for t in bad.tolist():
            x, y, z = (int(idx[t, 0]), int(idx[t, 1]), int(idx[t, 2]))
            violations.append((x, y, z, float(lhs[t]), float(rhs[t])))

    violations.sort()
    max_asym = float(np.max(np.abs(D - D.T))) if n > 1 else 0.0
    return AxiomReport(
        nonnegativity_ok=nonneg,
        identity_ok=identity_ok,
        triangle_ok=not violations,
        violations=violations,
        symmetric=(max_asym == 0.0),
        max_asymmetry=max_asym,
        exhaustive=exhaustive,
        triples_checked=triples_checked,
    )


@dataclass(frozen=True)
class BallSpec:
    """Membership predicate for a ball around a cloud point.

    ``side`` is ``right`` (distance measured from the center: e(p, x)),
    ``left`` (toward the center: e(x, p)) or ``two_sided`` (both). Open balls
    compare with ``<``, closed balls with ``<=``.
    """

    center: int
    radius: float
    side: str = "two_sided"
    closed: bool = False

    def __post_init__(self):
        if self.side not in ("right", "left", "two_sided"):
            raise ValueError(f"unknown ball side {self.side!r}")
        if not self.radius > 0.0:
            raise ValueError("ball radius must be > 0")


def ball_members(spec: QuasiMetricSpec, cloud, ball: BallSpec) -> set:
    """Ids of cloud points inside the ball."""
    pts = cloud.points
    n = pts.shape[0]
    if not (0 <= ball.center < n):
        raise IndexError(f"unknown center id {ball.center}")
    center = pts[ball.center:ball.center + 1]
    from_center = pairwise(spec, center, pts)[0]   # e(p, x)
    to_center = pairwise(spec, pts, center)[:, 0]  # e(x, p)

    def inside(vals):
        return vals <= ball.radius if ball.closed else vals < ball.radius

    if ball.side == "right":
        mask = inside(from_center)
    elif ball.side == "left":
        mask = inside(to_center)
    else:
        mask = inside(from_center) & inside(to_center)
    return set(int(i) for i in np.nonzero(mask)[0])


def bowen_distance(spec: QuasiMetricSpec, orbits, x: int, y: int, n: int) -> float:
    """Orbit-maximized distance max_{0 <= i < n} e(T^i x, T^i y).

    Asymmetric in general; the n = 1 case reduces to the base rule.
    """
    if not 1 <= n <= orbits.n_max:
        raise ValueError(f"n must be in 1..{orbits.n_max}, got {n}")
    best = 0.0
    for i in range(n):
        v = evaluate(spec, orbits.images[x, i], orbits.images[y, i])
        if v > best:
            best = v
    return best


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
    return QuasiMetricSpec(kind="matrix", matrix=m, description=f"{n}x{n} matrix from {path}")
