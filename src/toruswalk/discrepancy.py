"""Box discrepancy of a weighted point set against the uniform measure.

The exact path realizes the supremum over axis-parallel boxes as a max
over critical boxes (Dobkin, Eppstein & Mitchell): candidate face
coordinates are the atom coordinates (plus the cube boundary), the excess
branch evaluates closed boxes and the deficit branch open boxes, so
non-attained suprema are captured as limits without epsilon hacking.
Boxes never wrap around the torus.  A uniform-grid estimator provides an
independent lower oracle for larger inputs.

Both estimators run on one enumerator, `_blocks`: it bins the atoms once
into a summed-area table over the candidate faces, walks face pairs on the
first d-1 axes and packs the boxes' final-axis masses, as padded prefix
sums read off that table, strip after strip into blocks of one size for the
estimator's own final-axis reduction.  For the grid the table first has the
volume subtracted, in place, so a block reads mass minus volume directly.
A dyadic tree over the faces of axis d-2 skips the nodes of strips whose
bound, read and reduced as a strip is, misses the best value so far by
more than a rounding margin: values and witnesses are those of the full
enumeration.  Each estimator prices the worst case, every strip in blocks
of one left face each, against the budget before it enumerates anything;
the budget also bounds the table, (c+1)^d cells for c faces per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PER_CALL, ValidationError, require
from .walk import WeightedPointSet


@dataclass(frozen=True)
class Box:
    """Axis-parallel box [a_1,b_1) x ... x [a_d,b_d) inside [0,1)^d.

    Witness boxes reported by discrepancy_exact may be degenerate
    (a_i == b_i): they stand for the limit of shrinking closed boxes.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValidationError("box corner dimensions differ")
        for lo, hi in zip(self.a, self.b):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValidationError(f"box sides must satisfy 0 <= a <= b <= 1, got [{lo}, {hi}]")

    @property
    def d(self) -> int:
        return len(self.a)

    def volume(self) -> float:
        v = 1.0
        for lo, hi in zip(self.a, self.b):
            v *= hi - lo
        return v


@dataclass(frozen=True)
class DiscrepancyResult:
    value: float
    witness: Box
    direction: str  # "excess" | "deficit"
    exactness: str  # always "exact": discrepancy_grid returns a bare float


def box_mass(P: WeightedPointSet, B: Box, mode: str = "closure") -> float:
    """Weight of atoms in the closure [a,b] or the interior (a,b) of B."""
    if B.d != P.d:
        raise ValidationError(f"box dimension {B.d} != point-set dimension {P.d}")
    if mode not in ("closure", "interior"):
        raise ValidationError(f"unknown mode {mode!r}")
    a, b = np.array(B.a, dtype=float), np.array(B.b, dtype=float)
    if mode == "closure":
        inside = ((a <= P.points) & (P.points <= b)).all(axis=1)
    else:
        inside = ((a < P.points) & (P.points < b)).all(axis=1)
    return math.fsum(P.weights[inside].tolist())


# Element budget of one block (rows x final-axis faces): it bounds the
# enumerator's temporaries.  Smaller blocks leave much of a block's time to
# its few numpy calls: on a 2-core Xeon, grid(512) on 441 atoms takes about
# 0.19, 0.14 and 0.11 s at 2^13, 2^14 and 2^15 elements; 2^16 gains little.
_BLOCK = 1 << 15
# The budget charges blocks of at most this many elements that each hold one
# left face's boxes, the enumerator's before it packed them (see _elements).
_PRICED_BLOCK = 1 << 13
# The least margin by which a node's bound must miss the best value so far
# before _blocks skips the node's strips (see _blocks).
_MARGIN = 2.0**-40
# _blocks' tree of nodes: the most blocks of faces a side in its first level,
# the nodes a level whose widest strip it evaluates early, and the numpy calls
# charged to a block of bound rows and four times to a level's arithmetic.
_TOP, _EARLY, _BOUND_CALLS = 16, 4, 16


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of x (np.unique imports numpy.ma on first use)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _blocks(pts, wts, faces, rule, floor, minus_volume=False):
    """Yield (lo, hi, P, W, segments, best) for each block of boxes with faces from `faces`.

    An atom's index on an axis is that of the last face at or below it;
    under rule = (a, b, jmin) the face pair (i, j), j >= i + jmin, holds
    indices i + a .. j - b, so in the table S of atoms binned at index + 1
    and summed along every axis it holds S[j - b + 1] - S[i + a].  Each pair
    on axes 0..d-3 subtracts its axis out of S, leaving a slab T; lo and hi
    are those pairs' left and right faces.  The slab's rows T[j - b + 1] -
    T[i + a], one per strip (i, j) on axis d-2, are packed into blocks of at
    most _BLOCK elements of one reused buffer, one np.subtract per run of a
    left face's rows in a block: segments lists the runs as (r0, i, js), a
    range js, block rows r0, r0 + 1, ... standing for the pairs (i, js[0]),
    (i, js[1]), ....  P[r, t + 1] is row r's mass up to final-axis face t,
    W[r] its volume on axes 0..d-2.  Before it asks for the next block the
    caller writes into best[r] row r's value, the largest value of its
    boxes, and keeps floor, a one-element list, at its best value so far,
    which blocks of bound rows (segments None) do not raise; for a bound
    row any value at least its reduction as a strip row will do.  In d = 1
    the one block is the table, with no segments.

    A tree of nodes prunes the strips.  A node of size s holds the strips
    (i, j) with p s = i0 <= i <= i1, q s = j0 <= j <= j1 and q >= p; each
    lies in the outer strip (i0, j1), holds the inner one (i1, j0), of mass
    at most 0 if no pair, and is w_in = u_j0 - u_i1 to w_out = u_j1 - u_i0
    wide.  So a box's excess is at most the value of the bound row of the
    outer mass and width max(0, w_in), its deficit that of the inner mass
    and width w_out, its grid value the larger.  Rounding is monotone, so a
    bound row reduced more coarsely, to a value no smaller, still bounds
    every box of its node.  The first level has at most _TOP blocks of 2^m
    faces a side.  Each level yields its nodes' bound rows, evaluates the
    widest strips (i0, j1) of its _EARLY best nodes above floor[0], skips
    the nodes below floor[0] - margin and quarters the others, down to
    size 2; then the nodes left yield their strips not yet evaluated, in
    runs of a left face.  A level runs only while the charge covers what
    was spent, the level and the worst case of the live pairs (packed, the
    pairs cost 8-12 % less than it).  In d >= 3 a slab is skipped whole
    when its mass and its volume on axes 0..d-3, which bound its boxes'
    values, are below floor[0] - margin.

    The margin covers rounding.  The bounds hold exactly for the exact sums
    of the binned cells.  A box value and a bound row's value read at most
    2^d table entries each, each a sum over at most sum(shape) additions
    and so within sum(shape) * 2^-53 * M of its exact sum (M the total
    mass, the table's last entry); the two, a bound row's width or volume
    shift included, take at most 8 * 2^d + 8 d + 16 more roundings of
    numbers below 2 * max(1, M).  As sum(shape) >= 2 d, that is below
    max(2^13, 2^(d+5) * sum(shape)) * 2^-53 * max(1, M), which is margin =
    _MARGIN * max(1, M) * max(1, 2^d * sum(shape) / 256).

    minus_volume is for the half-open rule (0, 1, 1), under which slab row
    r stands for face u_r on axis d-2 on both sides of a pair: each slab
    row first loses its volume W * u_r * g_t below every final-axis face
    g_t, in place, so that P[r, t] is the mass below g_t minus the volume
    there (the last column stays a mass) and W is not yielded (None); a
    bound row gets back the volume of its own width less the other's."""
    a, b, jmin = rule
    g = faces[-1]
    shape = tuple(f.size + 1 for f in faces)
    cells = [np.searchsorted(f, pts[:, ax], side="right") for ax, f in enumerate(faces)]
    S = np.bincount(np.ravel_multi_index(cells, shape), wts, math.prod(shape)).reshape(shape)
    for ax in range(len(faces)):
        np.cumsum(S, axis=ax, out=S)
    if len(faces) == 1:
        if minus_volume:
            S[:-1] -= g
        yield (), (), S[None], None if minus_volume else np.ones(1), (), np.empty(1)
        return
    margin = _MARGIN * max(1.0, float(S.flat[-1])) * max(1.0, 2 ** len(faces) * sum(shape) / 256)

    def slabs(T, lo, hi, W):  # the face pairs on axes len(lo)..d-3, less the skipped slabs
        if len(lo) == len(faces) - 2:
            yield lo, hi, T, W
            return
        f = faces[len(lo)]
        for i in range(f.size):
            for j in range(i + jmin, f.size):
                w = W * (f[j] - f[i])
                if max(T[j - b + 1].flat[-1] - T[i + a].flat[-1], w) >= floor[0] - margin:
                    yield from slabs(T[j - b + 1] - T[i + a], lo + (i,), hi + (j,), w)

    u, c, cols, rows = faces[-2], faces[-2].size, shape[-1], max(1, _BLOCK // shape[-1])
    buf, (best, widths) = np.empty((rows, cols)), np.empty((2, rows))

    def pack(runs, lo, hi, T, W):  # the blocks of these runs of strips (i, js)
        n, segments = 0, []
        for i, js in runs:
            while js:
                k = min(rows - n, len(js))
                part, js = js[:k], js[k:]
                np.subtract(T[part.start - b + 1 : part.stop - b + 1], T[i + a], out=buf[n : n + k])
                np.subtract(u[part.start : part.stop], u[i], out=widths[n : n + k])
                segments.append((n, i, part))
                n += k
                if n == rows:
                    yield lo, hi, buf, None if minus_volume else W * widths, segments, best
                    n, segments = 0, []
        if n:
            yield lo, hi, buf[:n], None if minus_volume else W * widths[:n], segments, best[:n]

    def level(s, p, q):  # nodes (p, q): faces, what a skip saves, bound rows and their widths
        i0, j0 = p * s, q * s
        i1, j1 = np.minimum(i0 + s, c) - 1, np.minimum(j0 + s, c) - 1
        w_in, w_out, fp, fq = u[j0] - u[i1], u[j1] - u[i0], i1 - i0 + 1, j1 - j0 + 1
        saved = cols * np.where(p < q, fp * fq, fp * (fp + 1 - 2 * jmin) // 2) - 2 * PER_CALL * fp
        w_pos = np.maximum(w_in, 0.0)
        outer = (j1 - b + 1, i0 + a, w_pos, w_out - w_pos)  # rows, width, grid's volume shift
        inner = (j0 - b + 1, i1 + a, w_out, w_in - w_out)
        sides = [outer, inner] if minus_volume else [inner] if jmin else [outer]
        tops, lows, width, shift = map(np.concatenate, zip(*sides))
        return p, q, i0, j1, saved, tops, lows, shift if minus_volume else width

    def leaves(s, p, q, done):  # the nodes' face pairs as runs (i, js), less those done
        head = np.ones(p.size + 1, bool)  # [x]: node x starts a run (p, q), (p, q + 1), ...
        head[1:-1] = (p[1:] != p[:-1]) | (q[1:] != q[:-1] + 1)  # and [p.size] ends the last
        for x0, x1 in zip(heads := np.flatnonzero(head).tolist(), heads[1:]):
            j0, j1 = int(q[x0]) * s, min(int(q[x1 - 1]) * s + s, c)
            for i in range(int(p[x0]) * s, min(int(p[x0]) * s + s, c)):
                cuts = [max(j0, i + jmin) - 1, *sorted(j for d, j in done if d == i and j0 <= j < j1), j1]
                yield from ((i, range(x + 1, y)) for x, y in zip(cuts, cuts[1:]) if x + 1 < y)

    n = c * (c + 1 - 2 * jmin) // 2  # the pairs on axis d-2; their worst case, a run a left face
    worst = n * cols + PER_CALL * (8 * -(-n // rows) + 2 * min(n, c - 1 - (-n // rows)))
    top, charge = 1 << (-(-c // _TOP) - 1).bit_length(), _elements(faces[-2:], jmin)
    first = level(top, *np.triu_indices(-(-c // top)))

    for lo, hi, T, W in slabs(S, (), (), 1.0):  # T is S itself in d = 2, else a fresh slab
        if minus_volume:  # in row chunks, so no temporary holds more than _BLOCK elements
            V = T[:-1, :-1]  # the rows of faces u_r and the columns of faces g_t
            for r in range(0, u.size, rows):
                V[r : r + rows] -= np.multiply.outer(W * u[r : r + rows], g)
        s, (p, q, *nodes), done, spent, rest = top, first, set(), 0, worst  # down the tree
        while s > 1:
            i0, j1, saved, tops, lows, width = nodes
            calls = _BOUND_CALLS * (4 - (-tops.size // rows)) + 8 * -(-_EARLY // rows) + 4 * _EARLY
            plan = (tops.size + _EARLY) * cols + PER_CALL * calls
            if spent + plan + rest > charge:
                break
            spent, width, bound = spent + plan, W * width, np.empty(tops.size)
            for r in range(0, tops.size, rows):  # the bound rows
                P, k = buf[: tops.size - r], slice(r, r + rows)
                np.subtract(np.take(T, tops[k], axis=0, out=P, mode="clip"), T[lows[k]], out=P)
                if minus_volume:  # the volume of the row's own width, less the other's
                    P[:, :-1] += np.multiply.outer(width[k], g)
                yield lo, hi, P, None if minus_volume else width[k], None, best[: len(P)]
                bound[k] = best[: len(P)]
            bound = bound.reshape(-1, p.size).max(axis=0)
            # the _EARLY best nodes above the floor (np.sort: a first argsort adds 0.3 MB of RSS)
            few = (bound >= np.sort(bound)[-_EARLY:][0]) & (bound > floor[0]) & (j1 >= i0 + jmin)
            early = sorted({(int(i0[x]), int(j1[x])) for x in np.flatnonzero(few)[:_EARLY]} - done)
            done.update(early)
            yield from pack([(i, range(j, j + 1)) for i, j in early], lo, hi, T, W)
            cut = bound < floor[0] - margin
            if spent + rest - (saving := int(np.dot(cut, saved))) <= charge:
                p, q, rest = p[~cut], q[~cut], rest - saving
            if s == 2 or not p.size:
                break
            p, q = (2 * p[:, None] + [0, 0, 1, 1]).ravel(), (2 * q[:, None] + [0, 1, 0, 1]).ravel()
            s, live = s // 2, (q >= p) & (q * (s // 2) < c)
            order = np.lexsort((q[live], p[live]))
            p, q, *nodes = level(s, p[live][order], q[live][order])
        yield from pack(leaves(s, p, q, done), lo, hi, T, W)


def _elements(faces, jmin: int) -> int:
    """Element operations charged for _blocks over these faces, its worst
    case: the face pairs j >= i + jmin on axes 0..d-2 times the c + 1
    columns of the final axis, as if no strip were skipped, and 10 * PER_CALL
    (about 10 us of numpy calls) for each block of an enumerator that gives
    every left face on axis d-2 blocks of its own of at most _PRICED_BLOCK
    elements.  Packed at 8 calls a block and 2 a segment, _blocks' pairs
    cost less, and it spends the rest on bound rows only (see _blocks)."""
    width = faces[-1].size + 1
    pairs = [(f.size - jmin) * (f.size - jmin + 1) // 2 for f in faces[:-1]]
    blocks = 1
    if pairs:  # m right faces of one left face on axis d-2 make ceil(m / rows) blocks
        rows = max(1, _PRICED_BLOCK // width)
        q, s = divmod(faces[-2].size - jmin, rows)
        blocks = math.prod(pairs[:-1]) * (rows * q * (q + 1) // 2 + s * (q + 1))
    return math.prod(pairs) * width + 10 * PER_CALL * blocks


def _exact_branch(pts: np.ndarray, wts: np.ndarray, faces: list, excess: bool, start: float):
    """Max over candidate boxes of one branch, if above start; returns
    (value, lo, hi), or (start, None, None) when no box beats start.

    Excess boxes are closed with faces at atom coordinates, deficit boxes
    open with the cube boundary added; on the final axis the best interval
    of each row comes from one running-min sweep.  A bound row takes its
    largest top less its least bot instead, which no interval exceeds.
    _blocks yields early strips out of (i, j) order, so of the boxes
    attaining a block's best value, and of a block's best box and the best
    so far on a tie, the one whose strip comes first in (i, j) order wins:
    the witness is the first box of the full enumeration that attains the
    maximum.
    """
    jmin = 0 if excess else 1  # rule (0, 0, 0): i <= p <= j; rule (1, 1, 1): i < p < j
    u = faces[-1]
    floor, best, first = [start], (start, None, None), None
    for lo, hi, P, W, segments, rowbest in _blocks(pts, wts, faces, (jmin, jmin, jmin), floor):
        wu = W[:, None] * u
        c, below = P[:, 1:], P[:, :-1]  # mass up to and including face t, mass below it
        if excess:
            bot, top = below - wu, np.subtract(c, wu, out=wu)
        else:
            bot, top = wu - c, np.subtract(wu, below, out=wu)
        if segments is None:  # bound rows: at least every fl(top[t] - low[s]) below
            np.subtract(top[:, jmin:].max(axis=1), bot[:, : u.size - jmin].min(axis=1), out=rowbest)
            continue
        low = np.minimum.accumulate(bot, axis=1, out=bot)  # low[t] = min of bot[: t + 1]
        # interval [u_s, u_t] with s <= t - jmin: top[t] - bot[s]
        vals = np.subtract(top[:, jmin:], low[:, : u.size - jmin], out=top[:, jmin:])
        v = float(np.max(vals, axis=1, out=rowbest).max())
        if v < floor[0]:  # no box above the best so far
            continue
        rows = np.flatnonzero(rowbest == v).tolist()
        if segments:  # the runs give the rows' pairs on axis d-2: the first strip wins a tie
            pairs = {}
            for r in rows:
                r0, i, js = next(seg for seg in reversed(segments) if seg[0] <= r)
                pairs[lo + (i,), hi + (js[r - r0],)] = r
            (lo, hi), r = min(pairs.items())
        else:
            r = rows[0]
        if v == floor[0] and (first is None or (lo, hi) > first):
            continue  # a tie with the start or with an earlier strip
        t = int(np.argmax(vals[r]))
        s = int(np.argmax(low[r, : t + 1] == low[r, t]))  # first s where bot hit that min
        floor[0], first = v, (lo, hi)
        best = (
            floor[0],
            tuple(float(f[i]) for f, i in zip(faces, lo + (s,))),
            tuple(float(f[j]) for f, j in zip(faces, hi + (t + jmin,))),
        )
    return best


def discrepancy_exact(P: WeightedPointSet) -> DiscrepancyResult:
    """Supremum over axis-parallel boxes of |P(B) - vol(B)|, with witness.

    On branch ties the excess witness is reported.
    """
    d = P.d
    fallback = "--resolution (discrepancy_grid)"
    if d > 3:
        require(f"exact discrepancy in d={d} (supported for d <= 3)", math.inf, fallback)
    pts, wts = P.points, P.weights
    exc_faces = [_distinct(pts[:, ax]) for ax in range(d)]
    def_faces = [_distinct(np.concatenate((f, [0.0, 1.0]))) for f in exc_faces]
    cost = _elements(exc_faces, 0) + _elements(def_faces, 1)
    require(f"exact discrepancy of {len(wts)} atoms in d={d}", cost, fallback)

    exc = _exact_branch(pts, wts, exc_faces, excess=True, start=-math.inf)
    # only a deficit above the excess is reported
    def_ = _exact_branch(pts, wts, def_faces, excess=False, start=exc[0])
    (val, lo, hi), direction = (exc, "excess") if def_[1] is None else (def_, "deficit")
    return DiscrepancyResult(max(val, 0.0), Box(a=lo, b=hi), direction, exactness="exact")


def _grid_candidates(coords: np.ndarray, resolution: int) -> np.ndarray:
    """Grid indices adjacent to atom coordinates plus the cube boundary.

    The discrepancy over all grid boxes is attained with faces next to an
    atom or on the boundary; the extra +-1 margin absorbs float rounding
    in floor(x * resolution).
    """
    f = np.floor(coords * resolution).astype(np.int64)
    idx = np.concatenate([f - 1, f, f + 1, f + 2, [0, resolution]])
    return _distinct(np.clip(idx, 0, resolution))


def check_grid_resolution(resolution: int) -> None:
    """Raise ValidationError unless 2 <= resolution <= 2**53: past 2**53 the
    faces i / r of distinct i round together."""
    if not 2 <= resolution <= 2**53:
        raise ValidationError(f"grid resolution must be >= 2 and <= 2**53, got {resolution}")


def discrepancy_grid(P: WeightedPointSet, resolution: int) -> float:
    """Max of |P(B) - vol(B)| over boxes with corners on the uniform grid.

    Boxes are the half-open products [i_1/r, j_1/r) x ...; the result
    never exceeds discrepancy_exact and misses it by at most d*(2/r).
    """
    check_grid_resolution(resolution)
    pts, wts = P.points, P.weights
    faces = [_grid_candidates(pts[:, ax], resolution) / resolution for ax in range(P.d)]
    kind = f"grid({resolution}) discrepancy of {len(wts)} atoms in d={P.d}"
    require(kind, _elements(faces, 1), "a coarser --resolution")
    # [g_i, g_j) holds x when g_i <= x < g_j: index i <= p < j
    floor = [0.0]
    for _, _, F, _, segments, rowbest in _blocks(pts, wts, faces, (0, 1, 1), floor, True):
        F = F[:, :-1]  # mass below g_t minus the volume there, for each final-axis face g_t
        np.subtract(F.max(axis=1), F.min(axis=1), out=rowbest)
        if segments is not None:  # not bound rows
            floor[0] = max(floor[0], float(rowbest.max()))
    return floor[0]
