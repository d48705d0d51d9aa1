"""Independent oracles for the solver and count pipeline.

Everything here recomputes answers from first principles (exhaustive subset
enumeration, 1-D sweep arguments, direct per-pair definitions) without touching
the branch-and-bound or the vectorized distance matrices, so tests can compare
two routes that share no code. Three parts are references that the pipeline
must match exactly: the dense greedy solvers, which the CSR solvers must follow
pick for pick (``csr`` turns a dense cover into the solvers' relation type);
the untiled, full-matrix forms of the tiled and live-pair passes, which must
agree with them bit for bit, among them ``dense_axioms``, the axiom check on
the full distance matrix; and the recursive branch and bound and outer-product
simplex (``recursive_exact_cover``, ``recursive_exact_separated``,
``reference_packing_lp``), which the explicit-stack solvers must match node
for node and dual bit for dual bit. ``evaluate``, the one-pair form
of ``pairwise``, ball membership (``BallSpec``, ``ball_members``) and the
one-call ``estimate_entropy`` live here because only tests need them, as
does ``column_masks``, a symmetric cover's rows as bitsets built straight from
the dense matrix.
``plain`` and ``write_csv`` are the two-pass CLI serializers (a plain tree of
dicts and lists for ``json.dumps``, and a CSV of dict rows) that the CLI's
one-pass writer must match byte for byte.
"""
from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from qme import covering
from qme.covering import DEFAULT_EXACT_THRESHOLD, Relation, count_grid
from qme.dynamics import MapSpec, PointCloud, build_orbits
from qme.entropy import EntropyEstimate, FitSettings, estimate_from_grid
from qme.quasimetric import (
    DEFAULT_SEED,
    AxiomReport,
    QuasiMetricSpec,
    _cloud_points,
    paired,
    pairwise,
    symmetrize_max,
)


def evaluate(spec, x, y) -> float:
    """Single evaluation e(x, y) for coordinate vectors x, y."""
    return float(pairwise(spec, x, y)[0, 0])


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


def csr(cover: np.ndarray) -> Relation:
    """The solvers' relation type for a dense bool cover matrix."""
    cover = np.asarray(cover, dtype=bool)
    counts = cover.sum(axis=1)
    indptr = np.zeros(cover.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return Relation(indptr, np.nonzero(cover)[1].astype(np.int32))


def dense_greedy_cover(cover: np.ndarray) -> list:
    """Reference greedy cover on a dense symmetric cover: repeatedly pick the
    point covering the most uncovered points; ties go to the lowest id."""
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


def dense_greedy_separated(cover: np.ndarray) -> list:
    """Reference greedy separated set on a dense cover: insert points in id
    order, keeping pairwise separation."""
    n = cover.shape[0]
    conflicted = np.zeros(n, dtype=bool)
    picks = []
    for x in range(n):
        if not conflicted[x]:
            picks.append(x)
            conflicted |= cover[x]
    return picks


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


def is_valid_cover(cover: np.ndarray, witness: Iterable) -> bool:
    ids = list(witness)
    if not ids:
        return cover.shape[0] == 0
    return bool(cover[:, ids].any(axis=1).all())


def is_separated_set(cover: np.ndarray, witness: Iterable) -> bool:
    ids = list(witness)
    sub = cover[np.ix_(ids, ids)].copy()
    np.fill_diagonal(sub, False)
    return not bool(sub.any())


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

def formula_pairwise(spec, a, b) -> np.ndarray:
    """Full distance matrix from per-kind two-dimensional formulas, written
    independently of the elementwise ``paired`` that ``pairwise`` broadcasts."""
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    kind = spec.kind
    if kind == "mean_of":
        return (formula_pairwise(spec.base, A, B)
                + formula_pairwise(spec.base, B, A).T) / 2.0
    if kind == "max_of":
        return np.maximum(formula_pairwise(spec.base, A, B),
                          formula_pairwise(spec.base, B, A).T)
    if kind == "asym_line":
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
        d = np.abs(B[:, 0][None, :] - A[:, 0][:, None])
        return np.minimum(d, 1.0 - d)
    if kind == "weighted_asym":
        acc = np.zeros((A.shape[0], B.shape[0]))
        for k in range(A.shape[1]):
            d = B[:, k][None, :] - A[:, k][:, None]
            acc += spec.alpha * np.maximum(d, 0.0) + spec.beta * np.maximum(-d, 0.0)
        return acc
    if kind == "matrix":
        ia = np.rint(A[:, 0]).astype(int)
        ib = np.rint(B[:, 0]).astype(int)
        return spec.matrix[ia[:, None], ib[None, :]]
    if kind in ("block_prefix", "block_prefix_asym"):
        neq = A[:, None, :] != B[None, :, :]
        differs = neq.any(axis=2)
        first = np.argmax(neq, axis=2)
        out = np.where(differs, np.power(2.0, -first.astype(float)), 0.0)
        if kind == "block_prefix_asym":
            av = np.take_along_axis(A, first, axis=1)            # A[i, first[i, j]]
            bv = B[np.arange(B.shape[0])[None, :], first]        # B[j, first[i, j]]
            out = out * np.where(differs & (av > bv), 2.0, 1.0)
        return out
    raise ValueError(f"unknown kind {kind!r}")


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


def relation(spec, orbits, n: int, eps: float, variant: str) -> np.ndarray:
    """Cover relation of one variant at one (n, eps) cell, untiled."""
    return naive_symmetrized(naive_bowen(spec, orbits, n), variant) <= eps


def block_floor(spec, rows: tuple, cols: tuple):
    """``quasimetric.paired_floor`` of one block, as a float, by the scalar
    formula it had before it took tables of blocks: ``paired`` at the
    differences in [cols.lo - rows.hi, cols.hi - rows.lo] nearest 0, and for
    ``circle_arc`` at both ends of that range too; NaN where a coordinate's
    nearest difference is NaN or the rule has no floor formula."""
    if spec.kind not in ("asym_line", "euclidean", "circle_arc", "weighted_asym"):
        return float("nan")
    (row_lo, row_hi), (col_lo, col_hi) = rows, cols
    lo, hi = col_lo - row_hi, col_hi - row_lo
    near = np.minimum(np.maximum(lo, 0.0), hi)
    if np.isnan(near).any():
        return float("nan")
    diffs = np.stack([near, lo, hi]) if spec.kind == "circle_arc" else near[None, :]
    return float(paired(spec, np.zeros_like(diffs), diffs).min())


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


def dense_axioms(spec, cloud, triple_budget: int, seed: int = DEFAULT_SEED) -> AxiomReport:
    """``check_axioms`` on the full N x N matrix D: the identity mask, the
    off-diagonal copy and max |D - D^T| over whole matrices, sampled triples
    gathered from D, and every violating draw kept, so a triple drawn twice
    is listed twice."""
    if triple_budget < 1:
        raise ValueError("triple_budget must be >= 1")
    pts = _cloud_points(cloud)
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


# --- recursive references for the explicit-stack exact solvers ---------------
# The branch and bound and packing simplex as first written: one python frame
# per search node, raising the recursion limit to fit, and numpy's outer
# product per pivot. ``covering``'s solvers must match them node for node and
# dual bit for dual bit, under any ``covering.LP_PIVOT_BUDGET``.

def reference_packing_lp(cover: np.ndarray) -> np.ndarray:
    """A basic feasible solution of the fractional packing LP: maximise sum(y)
    subject to y >= 0 and, for every ball y' (column of the cover), the load
    sum_x cover[x, y'] y[x] <= 1. It is the dual of the dominating-set
    relaxation, so sum(y) bounds every cover from below.

    Dense primal simplex with Bland's rule (lowest-index entering column,
    ratio ties to the lowest-index basic variable), started at the feasible
    origin (b = 1, no phase 1) and cut after covering.LP_PIVOT_BUDGET pivots."""
    n = cover.shape[0]
    tab = np.zeros((n + 1, 2 * n + 1))
    tab[:n, :n] = cover.T
    tab[:n, n:2 * n] = np.eye(n)
    tab[:n, -1] = 1.0
    tab[n, :n] = -1.0  # reduced costs of the objective row
    basis = np.arange(n, 2 * n)
    for _ in range(covering.LP_PIVOT_BUDGET):
        entering = np.flatnonzero(tab[n, :-1] < -covering._LP_TOL)
        if entering.size == 0:
            break
        j = entering[0]
        rows = np.flatnonzero(tab[:n, j] > covering._LP_TOL)
        if rows.size == 0:  # unbounded only through rounding: y <= 1 holds
            break
        ratios = tab[rows, -1] / tab[rows, j]
        ties = rows[ratios <= ratios.min() + covering._LP_TOL]
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


def column_masks(cover: np.ndarray, hops: int = 1) -> list:
    """cover columns (equal to its rows) as python-int bitsets: mask[y] has
    bit x iff y covers x or, at hops=2, iff x and y share a coverer, by the
    float32 product ``exact_cover`` takes."""
    if hops == 2:
        c = cover.astype(np.float32)
        cover = c @ c > 0
    return covering._ints(covering._pack(cover))


def recursive_exact_cover(rel: Relation) -> tuple:
    """Minimum dominating set of the cover graph.

    Branch and bound: a greedy solution provides the upper bound; a packing of
    points no two of which share a candidate coverer provides the lower bound.
    Branching fixes the uncovered point with the fewest candidate coverers and
    tries its coverers in order of decreasing fresh coverage; the incumbent
    changes only on strict improvement.

    The search stops as soon as the incumbent reaches a certified floor: the
    root packing bound, raised, when greedy exceeds it, by the certified
    packing-LP dual (``reference_packing_lp``, ``_certified_floor``). A valid
    floor only cuts the search after the first optimum it would keep, so the
    result is the unfloored search's.

    Returns (sorted point ids, nodes explored, root included).
    """
    cover = rel.dense()
    n = cover.shape[0]
    full = (1 << n) - 1
    covmask = column_masks(cover)  # also the coverers of each point
    # points sharing a coverer with x (two hops), for the lower bound
    blocked = column_masks((cover.astype(np.int32) @ cover) > 0)

    best = covering.greedy_cover(rel)
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
        floor = max(floor, covering._certified_floor(cover, reference_packing_lp(cover)))
    if best_len <= floor:
        return best, 1

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


def recursive_exact_separated(rel: Relation) -> tuple:
    """Maximum independent set of the cover graph.

    Branch and bound seeded with the greedy id-order set; pruning uses a greedy
    clique-cover bound on the remaining candidates. Returns (sorted ids, nodes).
    """
    n = rel.size
    adj = [m & ~(1 << x) for x, m in enumerate(column_masks(rel.dense()))]

    best = covering.greedy_separated(rel)
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


# --- one-call entropy estimate ----------------------------------------------

def estimate_entropy(map_spec: MapSpec, cloud: PointCloud, spec: QuasiMetricSpec,
                     variant: str, n_list: Sequence, eps_list: Sequence, *,
                     exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                     snap_mode: str = "exact",
                     fit: FitSettings = FitSettings()) -> EntropyEstimate:
    """Estimate the entropy of a map over a cloud for one variant.

    Builds the orbit table of the cloud, counts spanning/separated
    cardinalities over the schedule under the variant's distance rule, fits
    per-scale growth slopes under ``fit`` and extrapolates at the smallest
    scale.
    """
    orbits = build_orbits(map_spec, cloud, max(int(n) for n in n_list),
                          snap_mode=snap_mode, qspec=spec)
    grid = count_grid(spec, orbits, n_list, eps_list,
                      exact_threshold=exact_threshold, variants=(variant,))
    return estimate_from_grid(grid, variant, fit)


# --- two-pass output serializers ---------------------------------------------

def plain(result):
    """The JSON form of a result. A dataclass becomes the dict of its fields
    that are not None, with ``eps`` named ``"epsilon"``; a dict keyed by
    (n, eps) tuples becomes the list of its values in insertion order, and a
    float key becomes its repr; tuples and lists become lists. Every other
    value passes through unchanged."""
    if dataclasses.is_dataclass(result):
        return {("epsilon" if f.name == "eps" else f.name): plain(v)
                for f in dataclasses.fields(result)
                if (v := getattr(result, f.name)) is not None}
    if isinstance(result, dict):
        if result and isinstance(next(iter(result)), tuple):
            return [plain(v) for v in result.values()]
        return {(repr(k) if isinstance(k, float) else k): plain(v)
                for k, v in result.items()}
    if isinstance(result, (tuple, list)):
        if all(type(v) is int for v in result):  # a witness: no recursion per id
            return list(result)
        return [plain(v) for v in result]
    return result


def write_csv(path: str, header: list, rows: list) -> None:
    """A header line, then one line per row dict, its values in header order."""
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(row[col]) for col in header) + "\n")
