"""Minimal spanning and maximal separated cardinalities on threshold relations.

``count_grid`` is the one path from (spec, orbits, schedule) to counts. It
validates the schedule (n strictly increasing, eps strictly decreasing) and
grows the orbit-maximized distances D_n[x, y] = max_{i<n} e(T^i x, T^i y)
over the n schedule. Each (n, pairing) gives one symmetric relation per eps:

``two_sided``    y covers x when max(D_n, D_n^T)[x, y] <= eps (closeness both ways)
``one_sided``    y covers x when min(D_n, D_n^T)[x, y] <= eps (closeness one way)
``mean_metric``  y covers x when M_n[x, y] <= eps, M_n being the Bowen distance
                 of the mean symmetrization (``quasimetric.symmetrize_mean``)

D_n and M_n only grow with n, so a pair above the largest eps in every
requested pairing is never a cover edge again. Relations read only the tests
v <= eps, so a live pair keeps eps bins bin(v) = #{k : v <= eps_k}, in one
byte (two past 255 eps): the relation at eps_k is bin > k, the bin of a max
is the min of the bins, and every comparison is the float one, made once.
Live pairs are kept in chunks, one per ROW_TILE x ROW_TILE block of the upper
triangle: two one-byte offsets inside the block (ROW_TILE <= 256), then one
bin per channel, the channels being picked once per grid from its pairings:

    pairings                       channels      bytes per live pair
    any, on a shared rule          f             3
    two_sided                      max           3
    mean_metric                    mean          3
    one_sided (and two_sided)      f, b          4
    two_sided, mean_metric         max, mean     4
    one_sided, mean_metric (...)   f, b, mean    5

Every orbit step evaluates f = e(x, y), and b = e(y, x) unless f is the only
channel, on a chunk's pairs in slices of at most PAIR_BLOCK, both directions
from one pass (``quasimetric.paired_both``); lowers each channel's bins by
those of its step value, f, b, max(f, b) or (f + b) / 2.0 (bit for bit the
``mean_of`` value); and drops the pairs whose bins are all 0. two_sided reads
max, or min(bin f, bin b), and one_sided max(bin f, bin b). The blocks are
advanced one at a time, each starting as all its pairs unless its certified
floor exceeds eps_0: before the first orbit step, a block whose
``quasimetric.block_floors`` bounds on f and b give every channel a step value
above the largest eps starts empty, as step 0 would leave it. One
``block_floors`` call on the row tiles' step-0 extremes gives the f and b
floors of every (row tile, column tile) block; nearest snapping
(``dynamics.build_orbits``) reads its floors from the same routine. On sorted
clouds most far blocks are skipped. A rule without a floor formula, the
derived kinds among them, gets NaN floors, which exceed nothing, and takes the
same path. A shared rule is symmetric by construction
(``quasimetric.is_symmetric``), with a largest eps below 2^1023: D_n = D_n^T
bit for bit, and (v + v) / 2.0 = v unless v >= 2^1023, which exceeds every
eps. Each (n, eps) selects each pairing's relation from the chunks, as block
offsets.

Each distinct relation is built and solved once per grid. Block position and
offsets fix a selection's pairs, and so its relation, so a selection is keyed
by each chunk's count and a hash of its offsets before anything is built;
only a new key's relation is built, one row tile at a time, with columns in
the narrowest unsigned type that holds a point id. Expanding maps repeat
relations: on a doubling circle the relation at (n, 2^-k) depends only on
n + k, so of the 40 cells of n = 2..9 and eps = 2^-3..2^-7 only 12 relations
are distinct and built.

The max symmetrization's Bowen distance is max_i max(e(T^i x, T^i y),
e(T^i y, T^i x)) = max(D_n, D_n^T), so its relation is the two_sided one by
definition; ``ALIASES`` maps max_metric onto it for count_grid and the estimates.

Separation is the off-diagonal complement of cover for the matching pairing,
so a minimal spanning set is a minimum dominating set of the cover graph and a
maximal separated set is a maximum independent set of the same graph. The
solvers take a symmetric :class:`Relation`, as built here, and read its rows.

Both problems get a deterministic greedy solver and an exact branch-and-bound
solver (bitset based, searched depth first on an explicit stack in the
recursive form's visit order). Greedy covers never undershoot the optimum and
greedy separated sets never overshoot it; the exact solver is the oracle for
both. The greedy cover picks in passes: the lowest id at the largest gain,
then every point still at that gain that shares no uncovered point with a
lower id among them, the tie rule of parallel greedy maximal independent set
(Blelloch, Fineman and Shun 2012). The one-at-a-time greedy picks each such
point later, at the same gain, so the sorted covers are equal; on fine
relations a few dozen passes replace thousands of picks. A relation's dense
matrix and bitsets are built once, on first use, and shared by its two exact
solvers, whose incumbents are the greedy results computed from those bitsets:
the one-at-a-time cover from a max-heap of lazily refreshed gains, and the
id-order separated set. The exact cover search stops once its incumbent meets
a certified floor: the packing bound, or, where greedy exceeds that, the
ceiling of a packing-LP dual solved by a small numpy simplex and checked in
integer arithmetic. All tie-breaking is by lowest point id, so results are
reproducible.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .dynamics import OrbitTable
from .quasimetric import (PAIR_BLOCK, QuasiMetricSpec, block_floors, is_symmetric, paired,
                          paired_both, pairwise, row_tiles)

__all__ = [
    "VARIANTS",
    "PAIRINGS",
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

# Quantity codes used in serialized grids, by pairing: (spanning, separated).
QUANTITY_PAIRS = {"two_sided": ("r1", "s1"), "one_sided": ("r2", "s2"),
                  "mean_metric": ("r3", "s3")}
# every pairing count_grid solves, and the ones it solves by default
PAIRINGS = tuple(QUANTITY_PAIRS)
VARIANTS = PAIRINGS[:2]
QUANTITIES = tuple(q for pair in QUANTITY_PAIRS.values() for q in pair)
# entropy variant -> the pairing whose counts it reads (see the module docstring)
ALIASES = {"max_metric": "two_sided"}
ENTROPY_VARIANTS = PAIRINGS + tuple(ALIASES)
# pairing -> how it combines the eps bins of D_n and D_n^T: bins fall as
# values rise, so max(D_n, D_n^T) takes the min bin and min(...) the max
BIN_OP = {"two_sided": np.minimum, "one_sided": np.maximum}
# live-pair channel -> its step value from f = e(x, y) and b = e(y, x)
STEP = {"f": lambda f, b: f, "b": lambda f, b: b, "max": np.maximum,
        "mean": lambda f, b: (f + b) / 2.0}

DEFAULT_EXACT_THRESHOLD = 64


@dataclass(frozen=True, eq=False)
class Relation:
    """A symmetric cover relation in CSR form: row x lists, in increasing
    order, every y with x ~ y, x itself included.

    Its dense form and its bitsets are built on first use and kept, so the
    two exact solvers of one relation share one dense matrix and one pack."""

    indptr: np.ndarray   # int64, one more than the number of points
    indices: np.ndarray  # any integer type; count_grid's is the narrowest unsigned one

    @property
    def size(self) -> int:
        return len(self.indptr) - 1

    def dense(self) -> np.ndarray:
        """The relation as an N x N bool matrix, shared and read-only."""
        return self._dense

    @cached_property
    def _dense(self) -> np.ndarray:
        cover = np.zeros((self.size, self.size), dtype=bool)
        cover[np.repeat(np.arange(self.size), np.diff(self.indptr)), self.indices] = True
        cover.flags.writeable = False
        return cover

    @cached_property
    def _masks(self) -> list:
        """The rows (equal to the columns) as python-int bitsets."""
        return _ints(_pack(self._dense))


# ---------------------------------------------------------------------------
# live Bowen pairs and their relations
# ---------------------------------------------------------------------------

class _EpsBins:
    """bin(v) = #{k : v <= eps_k} for a strictly decreasing eps schedule, in
    the smallest unsigned integer type that holds its length K."""

    def __init__(self, eps_list: Sequence):
        self.eps = list(eps_list)
        self.top = len(self.eps)  # the bin of 0, every point's to itself
        self.dtype = np.min_scalar_type(self.top)

    def of(self, values: np.ndarray) -> np.ndarray:
        """One comparison pass per eps, stopping at the first eps no value
        is within: cheaper than np.searchsorted, whose branches mispredict
        on unsorted values, for the few eps a halving schedule spans."""
        bins = np.zeros(len(values), dtype=self.dtype)
        for eps in self.eps:
            close = values <= eps
            if not close.any():
                break
            bins += close
        return bins


def _blocks(size: int) -> list:
    """(rows, cols) slices of the ROW_TILE x ROW_TILE blocks on and right of
    the diagonal, in row-major block order: the blocks of the live-pair
    chunks, which store block offsets."""
    return [(rows, cols) for rows in row_tiles(size) for cols in row_tiles(size, rows.start)]


def _live_pairs(spec: QuasiMetricSpec, orbits: OrbitTable, n_list: Sequence,
                bins: _EpsBins, channels: tuple) -> Iterator[tuple]:
    """Yield (n, chunks) over an ascending n schedule, which the caller has
    validated. chunks holds the live pairs x < y, one chunk per block of
    ``_blocks`` in its order. A chunk is (xo, yo, *bins): uint8 offsets of x
    and y in their block's rows and columns, sorted by (xo, yo), then the
    eps bins of each of ``channels`` (see ``STEP``). The list is updated in
    place for the next n: copy it to keep it past the next step.

    Each n advances the blocks one at a time through the orbit steps since
    the previous n. A block starts as all its pairs unless its certified
    floor exceeds eps_0 (``_far_blocks``), so at most one block holds all
    its pairs at a time."""
    size = orbits.images.shape[0]
    blocks = _blocks(size)
    side = blocks[0][0].stop  # the widest block, the first
    if side > 256:
        raise ValueError(f"block offsets are uint8, so ROW_TILE must be <= 256, got {side}")
    far = _far_blocks(spec, orbits.iterate_points(0), channels, bins.eps[0])
    chunks = [None] * len(blocks)
    done = 0
    for n in n_list:
        for k, block in enumerate(blocks):
            chunk = chunks[k] or _first_chunk(k, far, block, bins, channels)
            for i in range(done, n):
                chunk = _advance(spec, orbits.iterate_points(i), chunk, block, bins, channels)
            chunks[k] = chunk
        done = n
        yield n, chunks


def _far_blocks(spec: QuasiMetricSpec, start: np.ndarray, channels: tuple,
                eps: float) -> np.ndarray:
    """far[k]: True when every channel's step value over block k of
    ``_blocks`` certainly exceeds ``eps`` at the orbit points ``start``: its
    STEP of the ``block_floors`` bounds of f and of b over the block does.
    Every STEP is monotone, so it bounds the channel's step values. A NaN
    floor exceeds nothing, and a diagonal block's floor is at most 0, so
    neither is far. The table's upper triangle, row by row, is the blocks
    in ``_blocks`` order."""
    tiles = row_tiles(start.shape[0])
    f, b = block_floors(spec, start, tiles, start, tiles)
    far = np.logical_and.reduce([STEP[channel](f, b) > eps for channel in channels])
    return far[np.triu_indices(len(tiles))]


def _first_chunk(k: int, far: np.ndarray, block: tuple, bins: _EpsBins,
                 channels: tuple) -> tuple:
    """The chunk block k starts as before orbit step 0: every pair x < y,
    with a bin array per channel, each pair at ``bins.top``, the bin of D_0 =
    0, or no pair where ``far[k]`` (``_far_blocks``) holds."""
    rows, cols = block
    height, width = rows.stop - rows.start, cols.stop - cols.start
    if far[k]:
        height = 0  # no pair: the block starts empty
    xo = np.repeat(np.arange(height, dtype=np.uint8), width)
    yo = np.tile(np.arange(width, dtype=np.uint8), height)
    if cols.start == rows.start:  # the diagonal block: pairs x < y only
        upper = xo < yo
        xo, yo = xo[upper], yo[upper]
    return xo, yo, *(np.full(len(xo), bins.top, dtype=bins.dtype) for _ in channels)


def _read(channels: tuple, pairing: str):
    """Where a pairing's bins are in a chunk of these channels: the index of
    its value's channel, else the BIN_OP of f and b, else f, a shared rule's."""
    value = {"two_sided": "max", "mean_metric": "mean"}.get(pairing)
    if value in channels:
        return channels.index(value)
    return BIN_OP[pairing] if "b" in channels else 0


def _advance(spec: QuasiMetricSpec, pts: np.ndarray, chunk: tuple, block: tuple,
             bins: _EpsBins, channels: tuple) -> tuple:
    """One more orbit step on a chunk's pairs, keeping those with some bin
    above 0. bin(max(a, b)) = min(bin(a), bin(b)), so lowering each
    channel's bins by its step value's keeps the running max. e is evaluated
    on slices of at most PAIR_BLOCK pairs, whose 64 KB float temporaries
    reuse heap pages."""
    xo, yo, *lows = chunk
    rows, cols = block
    prow, pcol = pts[rows], pts[cols]
    backward = channels != ("f",)
    for start in range(0, len(xo), PAIR_BLOCK):
        part = slice(start, start + PAIR_BLOCK)
        px, py = np.take(prow, xo[part], axis=0), np.take(pcol, yo[part], axis=0)
        f, b = paired_both(spec, px, py) if backward else (paired(spec, px, py), None)
        for channel, low in zip(channels, lows):
            np.minimum(low[part], bins.of(STEP[channel](f, b)), out=low[part])
    keep = lows[0] > 0
    for low in lows[1:]:
        keep |= low > 0
    if keep.all():
        return chunk
    return tuple(a[keep] for a in chunk)


def _selection(chunks: list, read, k: int) -> list:
    """The (xo, yo) offsets of each chunk's pairs whose bin in a pairing,
    read as ``_read`` gives, exceeds k: the pairs of its relation at eps_k.
    A chunk whose pairs are all in gives its own arrays, uncopied."""
    selection = []
    for chunk in chunks:
        xo, yo = chunk[0], chunk[1]
        if len(xo):
            held = read(chunk[2], chunk[3]) if callable(read) else chunk[2 + read]
            keep = held > k
            if not keep.all():
                xo, yo = xo[keep], yo[keep]
        selection.append((xo, yo))
    return selection


def _selection_key(selection: list) -> tuple:
    """A key equal for equal selections, and so for equal relations: in
    block order, each chunk's count and, when it has pairs, the builtin
    64-bit SipHash of its xo and yo bytes. Block position and offsets fix
    the pairs, so two different relations share it only if some hash pair
    collides, which non-adversarial data does not do."""
    key = []
    for xo, yo in selection:
        key.append(len(xo))
        if len(xo):
            key += hash(xo.tobytes()), hash(yo.tobytes())
    return tuple(key)


def _relation(selection: list, blocks: list, size: int) -> Relation:
    """The relation of a selection: its pairs in both directions, and the
    diagonal.

    It is built one row tile at a time into arrays allocated once from the
    selection's counts. A tile's entries, from its diagonal and its blocks'
    pairs (transposed where it is their column tile), go into one buffer
    sized for the largest tile as keys (row offset << w) | column: w is the
    bit width of the column type (unsigned, also for size 0), the key twice
    as wide. A pair x < y lies in one block, so the keys are distinct and one
    unstable sort puts them in row order, columns increasing; a column is its
    key's low half. A row ends where the next row's keys start, but the last
    at the tile's length, as its next key can wrap (256 << 8 in a u16)."""
    column = np.min_scalar_type(max(size - 1, 0))
    width = 8 * column.itemsize
    key = np.dtype(f"uint{2 * width}")
    # per row tile, the (row offsets, column offsets, column origin) of each part
    parts = {}
    for tile in row_tiles(size):
        diagonal = np.arange(tile.stop - tile.start, dtype=np.uint8)
        parts[tile.start] = [(diagonal, diagonal, tile.start)]
    for (xo, yo), (rows, cols) in zip(selection, blocks):
        if len(xo):
            parts[cols.start].append((yo, xo, rows.start))  # transposed
            parts[rows.start].append((xo, yo, cols.start))
    counts = [sum(len(r) for r, _, _ in part) for part in parts.values()]
    indptr = np.zeros(size + 1, dtype=np.int64)
    indices = np.empty(sum(counts), dtype=column)
    buffer = np.empty(max(counts, default=0), dtype=key)
    end = 0
    for tile, count in zip(row_tiles(size), counts):
        keys, at = buffer[:count], 0
        for rows, cols, origin in parts[tile.start]:
            part = keys[at:at + len(rows)]
            np.left_shift(rows, width, out=part, dtype=key)
            part += cols
            part += origin
            at += len(rows)
        keys.sort()
        start, end = end, end + count
        np.copyto(indices[start:end], keys, casting="unsafe")
        ptr = indptr[tile.start + 1:tile.stop + 1]
        ptr[:-1] = start + keys.searchsorted(np.arange(1, len(ptr), dtype=key) << width)
        ptr[-1] = end
    return Relation(indptr, indices)


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
    """The picks, sorted, of the greedy that repeatedly picks the point
    covering the most uncovered points, ties to the lowest id. Always
    terminates: every point covers itself. The empty relation gives [].

    Picks are made in passes. A pass first makes the greedy's next pick y, the
    lowest id at the largest gain g. The points whose gain is still g all have
    higher ids; over an id-ordered prefix of them whose rows hold at most N
    entries in all, the pass also picks each one that shares no uncovered
    point with a lower id among them, and covers their points at once. Such a
    point keeps gain g until the one-at-a-time greedy reaches it, and then
    covers the same points, so the passes make the same picks in another
    order.

    Once no point covers two uncovered points, the uncovered points have
    pairwise disjoint rows, so the remaining picks are the lowest id of each
    uncovered point's row; they are taken in one step."""
    indptr, indices = rel.indptr, rel.indices
    size = rel.size
    degree = np.diff(indptr)
    gains = degree.copy()
    uncovered = np.ones(size, dtype=bool)
    picks = []

    def rows(ids: np.ndarray) -> np.ndarray:
        """The rows of ids, concatenated in order, in one gather."""
        lens = degree[ids]
        ends = lens.cumsum()
        at = (indptr[ids] - ends + lens).repeat(lens)
        at += np.arange(ends[-1])
        return indices[at]

    while size:  # the empty relation has no picks
        y = int(gains.argmax())
        g = gains[y]
        if g < 2:
            break
        row = indices[indptr[y]:indptr[y + 1]]
        newly = row[uncovered[row]]
        uncovered[newly] = False
        picks.append(y)
        # y's rows are copied by slicing: on coarse relations they are long,
        # and rows()' int64 positions would move several times the bytes
        np.subtract.at(gains, np.concatenate(
            [indices[indptr[x]:indptr[x + 1]] for x in newly.tolist()]), 1)
        cands = (gains == g).nonzero()[0]
        if not len(cands):
            continue
        cands = cands[:degree[cands].cumsum().searchsorted(size, "right")]
        owned = rows(cands)
        owned = owned[uncovered[owned]].reshape(len(cands), g)
        rank = np.arange(len(cands))
        first = np.full(size, len(cands))
        np.minimum.at(first, owned, rank[:, None])
        keep = np.minimum.reduce(first[owned], axis=1) == rank
        picks += cands[keep].tolist()
        newly = owned[keep].ravel()
        uncovered[newly] = False
        np.subtract.at(gains, rows(newly), 1)
    picks += indices[indptr[:-1][uncovered]].tolist()
    return sorted(picks)


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

def _pack(cover: np.ndarray) -> np.ndarray:
    """cover rows packed into little-endian 64-bit words, N x ceil(N / 64)."""
    packed = np.packbits(cover, axis=1, bitorder="little")
    words = np.zeros((len(cover), -(-len(cover) // 64)), dtype="<u8")
    words.view(np.uint8)[:, :packed.shape[1]] = packed
    return words


def _ints(words: np.ndarray) -> list:
    """Packed rows as python ints, which numpy hands over word by word."""
    masks = words[:, 0].tolist() if words.size else []
    for k in range(1, words.shape[1]):
        masks = [m | w << 64 * k for m, w in zip(masks, words[:, k].tolist())]
    return masks


def _bit_greedy_cover(masks: list) -> list:
    """``greedy_cover``'s sorted picks from the relation's bitsets, by the
    one-at-a-time rule its passes equal: the lowest id at the largest gain
    while that gain is at least 2, then the lowest id of each uncovered
    point's row. Gains only fall, so a max-heap of possibly stale gains gives
    the next pick: a top entry whose gain is still current is it, and a stale
    one goes back with its current gain."""
    uncov = (1 << len(masks)) - 1
    heap = [(-m.bit_count(), y) for y, m in enumerate(masks)]
    heapq.heapify(heap)
    picks = []
    while heap:
        neg, y = heap[0]
        if neg > -2:
            break
        gain = (masks[y] & uncov).bit_count()
        if gain + neg:
            heapq.heapreplace(heap, (-gain, y))
        else:
            heapq.heappop(heap)
            picks.append(y)
            uncov &= ~masks[y]
    while uncov:
        x = uncov & -uncov
        uncov ^= x
        row = masks[x.bit_length() - 1]
        picks.append((row & -row).bit_length() - 1)
    return sorted(picks)


def _bit_greedy_separated(masks: list) -> list:
    """``greedy_separated`` from the relation's bitsets: id-order insertion,
    each kept point the lowest one no earlier kept point covers."""
    picks = []
    free = (1 << len(masks)) - 1
    while free:
        bit = free & -free
        x = bit.bit_length() - 1
        picks.append(x)
        free &= ~(masks[x] | bit)
    return picks


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
        cost = tab[n, :-1]
        j = int((cost < -_LP_TOL).argmax())
        if not cost[j] < -_LP_TOL:
            break
        col = tab[:n, j]
        rows = (col > _LP_TOL).nonzero()[0]
        if rows.size == 0:  # unbounded only through rounding: y <= 1 holds
            break
        ratios = tab[rows, -1] / col[rows]
        ties = rows[ratios <= ratios.min() + _LP_TOL]
        r = ties[np.argmin(basis[ties])]
        tab[r] /= tab[r, j]
        pivot_col = tab[:, j].copy()
        pivot_col[r] = 0.0
        tab -= pivot_col[:, None] * tab[r]  # np.outer's products
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

    Branch and bound: the greedy cover (``_bit_greedy_cover``, equal to
    ``greedy_cover``, on the relation's shared bitsets) provides the upper
    bound; a packing of points no two of which share a candidate coverer
    provides the lower bound. Branching fixes the uncovered point with the
    fewest candidate coverers and tries its coverers in order of decreasing
    fresh coverage; the incumbent changes only on strict improvement.

    The search stops as soon as the incumbent reaches a certified floor: the
    root packing bound, raised, when greedy exceeds it, by the certified
    packing-LP dual (``_packing_lp``, ``_certified_floor``). A valid floor only
    cuts the search after the first optimum it would keep, so the result is
    the unfloored search's.

    The search is depth first on an explicit stack, children pushed in
    reverse so they are popped in branching order: the nodes, count and
    witness of the recursive form, with no python frame per level.

    Returns (sorted point ids, nodes explored, root included).
    """
    cover = rel.dense()
    n = cover.shape[0]
    full = (1 << n) - 1
    bits = [1 << x for x in range(n)]
    # keyed by the point's bit: its coverers (cover is symmetric) and, for
    # the lower bound, the points sharing a coverer with it, from one float32
    # product, exact as each count is at most n < 2^24
    covmask = dict(zip(bits, rel._masks))
    c = cover.astype(np.float32)
    blocked = dict(zip(bits, _ints(_pack(c @ c > 0))))
    ncov = {bit: m.bit_count() for bit, m in covmask.items()}

    best = _bit_greedy_cover(rel._masks)
    best_len = len(best)

    def lower_bound(uncov: int) -> int:
        lb = 0
        while uncov:
            lb += 1
            uncov &= ~blocked[uncov & -uncov]
        return lb

    floor = lower_bound(full)
    if best_len > floor:
        floor = max(floor, _certified_floor(cover, _packing_lp(cover)))
    if best_len <= floor:
        return best, 1

    nodes = 0
    stack = [(0, ())]  # (covered, bits of the chosen coverers)
    while stack:
        covered, chosen = stack.pop()
        nodes += 1
        if covered == full:
            if len(chosen) < best_len:
                best_len, best = len(chosen), sorted(b.bit_length() - 1 for b in chosen)
                if best_len <= floor:
                    break
            continue
        uncov = full & ~covered
        if len(chosen) + lower_bound(uncov) >= best_len:
            continue
        # branch on the uncovered point with the fewest coverers
        bx, bcount = 0, n + 1
        m = uncov
        while m:
            x = m & -m
            if ncov[x] < bcount:
                bx, bcount = x, ncov[x]
            m ^= x
        cands = []
        m = covmask[bx]
        while m:
            y = m & -m
            cands.append(((covmask[y] & uncov).bit_count(), -y))
            m ^= y
        cands.sort()  # pushed in reverse: popped by decreasing gain, then id
        stack += [(covered | covmask[-neg], chosen + (-neg,)) for _, neg in cands]
    return best, nodes


def exact_separated(rel: Relation) -> tuple:
    """Maximum independent set of the cover graph.

    Branch and bound seeded with the greedy id-order set
    (``_bit_greedy_separated``, equal to ``greedy_separated``, on the
    relation's shared bitsets); pruning uses a greedy clique-cover bound on
    the remaining candidates. Depth first on an explicit stack in the
    recursive form's visit order, so the same nodes; neighbour bitsets are
    keyed by the point's bit. Returns (sorted ids, nodes).
    """
    n = rel.size
    nbr = {1 << x: m & ~(1 << x) for x, m in enumerate(rel._masks)}

    best = _bit_greedy_separated(rel._masks)
    best_len = len(best)

    def clique_cover_bound(rem: int) -> int:
        cliques = 0
        while rem:
            v = rem & -rem
            rem ^= v
            common = nbr[v] & rem
            while common:
                u = common & -common
                rem ^= u
                common &= nbr[u]
            cliques += 1
        return cliques

    nodes = 0
    stack = [((1 << n) - 1, ())]  # (pool, bits of the chosen points)
    while stack:
        pool, chosen = stack.pop()
        nodes += 1
        if pool == 0:
            if len(chosen) > best_len:
                best_len, best = len(chosen), sorted(b.bit_length() - 1 for b in chosen)
            continue
        if len(chosen) + clique_cover_bound(pool) <= best_len:
            continue
        # pivot on the candidate with the most conflicts among candidates
        bv, bdeg = 0, -1
        m = pool
        while m:
            v = m & -m
            d = (nbr[v] & pool).bit_count()
            if d > bdeg:
                bv, bdeg = v, d
            m ^= v
        # popped first: take bv and drop its neighbours; then leave bv out
        stack.append((pool & ~bv, chosen))
        stack.append((pool & ~(nbr[bv] | bv), chosen + (bv,)))
    return best, nodes


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
    ids = greedy_separated(rel) if separated else greedy_cover(rel)
    return CountResult(len(ids), tuple(ids), "greedy", False)


# ---------------------------------------------------------------------------
# count grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellCounts:
    """Solver results at one (n, eps) cell; quantities may be absent when a
    pairing was not requested."""

    n: int
    eps: float
    r1: Optional[CountResult] = None
    s1: Optional[CountResult] = None
    r2: Optional[CountResult] = None
    s2: Optional[CountResult] = None
    r3: Optional[CountResult] = None
    s3: Optional[CountResult] = None

    def get(self, quantity: str):
        if quantity not in QUANTITIES:
            raise KeyError(quantity)
        return getattr(self, quantity)


@dataclass
class CountGrid:
    """All requested counts over the (n, eps) schedule, plus diagnostics;
    ``variants`` lists the pairings whose quantities every cell holds."""

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
        return all(cell.get(q).optimal for cell in self.cells.values()
                   for v in self.variants for q in QUANTITY_PAIRS[v])


def count_grid(spec: QuasiMetricSpec, orbits: OrbitTable,
               n_list: Sequence, eps_list: Sequence, *,
               exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
               variants: tuple = VARIANTS) -> CountGrid:
    """Solve every requested quantity over the (n, eps) schedule on the orbit
    table's cloud: exactly when it has at most ``exact_threshold`` points
    (0: always greedy), else greedily.

    ``variants`` is a nonempty subset of ENTROPY_VARIANTS, each alias asking
    for its pairing; the grid holds the pairings in PAIRINGS order. D_n, and
    M_n when mean_metric is asked for, grow over the ascending n schedule on
    the pairs live at the largest eps in some requested pairing; each (n, eps)
    selects one relation from them per group of pairings that share it, and
    each (n, eps, pairing) cell is solved in schedule order. Each distinct
    relation is built and solved once per call, whatever its pairing: a cell
    whose selection of live pairs has the key of an earlier one
    (``_selection_key``) has that cell's relation, so it is not built and
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
    if not variants or any(v not in ENTROPY_VARIANTS for v in variants):
        raise ValueError(f"variants must be a nonempty subset of {ENTROPY_VARIANTS}, "
                         f"got {variants!r}")
    requested = {ALIASES.get(v, v) for v in variants}
    variants = tuple(p for p in PAIRINGS if p in requested)
    if n_list[-1] > orbits.n_max:
        raise ValueError(f"n_list exceeds orbit table n_max={orbits.n_max}")

    cells = {}
    size = orbits.images.shape[0]
    bins = _EpsBins(eps_list)
    # the live-pair channels (see the module docstring)
    if is_symmetric(spec) and eps_list[0] < 2.0 ** 1023:
        channels = ("f",)
    else:
        channels = (("f", "b") if "one_sided" in variants
                    else ("max",) if "two_sided" in variants else ())
        channels += ("mean",) if "mean_metric" in variants else ()
    groups = {}  # pairings that read the same bins share one selection
    for variant in variants:
        groups.setdefault(_read(channels, variant), []).append(variant)
    blocks = _blocks(size)
    solved = {}  # _selection_key -> (cover, separated) CountResults
    for n, chunks in _live_pairs(spec, orbits, n_list, bins, channels):
        for k, eps in enumerate(eps_list):
            part = {}
            for read, users in groups.items():
                selection = _selection(chunks, read, k)
                key = _selection_key(selection)
                if key not in solved:
                    rel = _relation(selection, blocks, size)
                    solved[key] = (_solve(rel, False, exact_threshold),
                                   _solve(rel, True, exact_threshold))
                    del rel  # freed before the next relation is built
                for variant in users:
                    r, s = QUANTITY_PAIRS[variant]
                    part[r], part[s] = solved[key]
                del selection  # and the selection before the next one is made
            cells[(n, eps)] = CellCounts(n=n, eps=eps, **part)

    grid = CountGrid(cloud_size=size, n_list=n_list,
                     eps_list=eps_list, variants=variants, cells=cells)
    grid.diagnostics.extend(_monotonicity_diagnostics(grid))
    return grid


def _monotonicity_diagnostics(grid: CountGrid) -> list:
    """Counts must not increase as eps grows (at fixed n) and must not decrease
    as n grows (at fixed eps). Certain for exact cells; greedy violations are
    reported as informational."""
    notes = []
    for q in [code for v in grid.variants for code in QUANTITY_PAIRS[v]]:
        vals = grid.counts(q)
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
