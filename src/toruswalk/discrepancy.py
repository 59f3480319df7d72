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
first d-1 axes and hands each block of boxes' final-axis masses, as a
padded prefix sum read off that table, to the estimator's own final-axis
reduction.  For the grid the table first has the volume subtracted, in
place, so a block reads mass minus volume directly.  Each estimator builds
its face arrays first and prices the elements and blocks `_blocks` would
yield over them against the budget before it enumerates anything; the
budget also bounds the table, which has (c+1)^d cells for c faces per axis.
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
    total = []
    for pt, w in P.atoms:
        if mode == "closure":
            inside = all(lo <= x <= hi for x, lo, hi in zip(pt, B.a, B.b))
        else:
            inside = all(lo < x < hi for x, lo, hi in zip(pt, B.a, B.b))
        if inside:
            total.append(w)
    return math.fsum(total)


# Element budget of one block (rows x final-axis faces): it bounds the
# enumerator's temporaries, which one block per left face would grow to c^2.
_BLOCK = 1 << 13


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of x (np.unique imports numpy.ma on first use)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _blocks(pts, wts, faces, rule, minus_volume=False):
    """Yield (lo, hi, P, W) for each block of boxes with faces from `faces`.

    An atom's index on an axis is that of the last face at or below it;
    under rule = (a, b, jmin) the face pair (i, j), j >= i + jmin, holds
    indices i + a .. j - b, so in the table S of atoms binned at index + 1
    and summed along every axis it holds S[j - b + 1] - S[i + a].  Each pair
    on axes 0..d-3 subtracts its axis out of S; a block fixes the left face
    lo[-1] on axis d-2, and its row r takes the right face hi[-1] + r.
    P[r, t + 1] is the row's mass up to final-axis face t, W[r] its volume
    on axes 0..d-2.

    minus_volume is for the half-open rule (0, 1, 1), under which slab row
    r stands for face u_r on axis d-2 on both sides of a pair: each slab
    row first loses its volume W * u_r * g_t below every final-axis face
    g_t, in place, so that P[r, t] is the mass below g_t minus the volume
    there (the last column stays a mass) and W is not yielded (None)."""
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
        yield (), (), S[None], None if minus_volume else np.ones(1)
        return

    def slabs(T, lo, hi, W):  # the face pairs on axes len(lo)..d-3
        if len(lo) == len(faces) - 2:
            yield lo, hi, T, W
            return
        f = faces[len(lo)]
        for i in range(f.size):
            for j in range(i + jmin, f.size):
                yield from slabs(T[j - b + 1] - T[i + a], lo + (i,), hi + (j,), W * (f[j] - f[i]))

    u, rows = faces[-2], max(1, _BLOCK // shape[-1])
    for lo, hi, T, W in slabs(S, (), (), 1.0):  # T is S itself in d = 2, else a fresh slab
        if minus_volume:  # in row chunks, so no temporary holds more than _BLOCK elements
            V = T[:-1, :-1]  # the rows of faces u_r and the columns of faces g_t
            for r in range(0, u.size, rows):
                V[r : r + rows] -= np.multiply.outer(W * u[r : r + rows], g)
        for i in range(u.size):
            for j0 in range(i + jmin, u.size, rows):
                n = min(rows, u.size - j0)
                P = T[j0 - b + 1 : j0 - b + 1 + n] - T[i + a]
                Wr = None if minus_volume else W * (u[j0 : j0 + n] - u[i])
                yield lo + (i,), hi + (j0,), P, Wr


def _elements(faces, jmin: int) -> int:
    """Element operations of _blocks over these faces: the face pairs
    j >= i + jmin on axes 0..d-2 times the c + 1 columns of the final axis,
    and 10 * PER_CALL (about 10 us of numpy calls) for each block."""
    width = faces[-1].size + 1
    pairs = [(f.size - jmin) * (f.size - jmin + 1) // 2 for f in faces[:-1]]
    blocks = 1
    if pairs:  # m right faces of one left face on axis d-2 make ceil(m / rows) blocks
        rows = max(1, _BLOCK // width)
        q, s = divmod(faces[-2].size - jmin, rows)
        blocks = math.prod(pairs[:-1]) * (rows * q * (q + 1) // 2 + s * (q + 1))
    return math.prod(pairs) * width + 10 * PER_CALL * blocks


def _exact_branch(pts: np.ndarray, wts: np.ndarray, faces: list, excess: bool):
    """Max over candidate boxes of one branch; returns (value, lo, hi).

    Excess boxes are closed with faces at atom coordinates, deficit boxes
    open with the cube boundary added; on the final axis the best interval
    of each row comes from one running-min sweep.
    """
    jmin = 0 if excess else 1  # rule (0, 0, 0): i <= p <= j; rule (1, 1, 1): i < p < j
    u = faces[-1]
    best = (-math.inf, None, None)
    for lo, hi, P, W in _blocks(pts, wts, faces, (jmin, jmin, jmin)):
        wu = W[:, None] * u
        c, below = P[:, 1:], P[:, :-1]  # mass up to and including face t, mass below it
        if excess:
            top, bot = c - wu, below - wu
        else:
            top, bot = wu - below, wu - c
        # interval [u_s, u_t] with s <= t - jmin: top[t] - bot[s]
        vals = top[:, jmin:] - np.minimum.accumulate(bot, axis=1)[:, : u.size - jmin]
        r, t = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[r, t] > best[0]:
            s = int(np.argmin(bot[r, : t + 1]))
            hi = hi[:-1] + (hi[-1] + r,) if hi else ()
            best = (
                float(vals[r, t]),
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
    pts = np.array([pt for pt, _ in P.atoms], dtype=float)
    wts = np.array([w for _, w in P.atoms], dtype=float)
    exc_faces = [_distinct(pts[:, ax]) for ax in range(d)]
    def_faces = [_distinct(np.concatenate((f, [0.0, 1.0]))) for f in exc_faces]
    cost = _elements(exc_faces, 0) + _elements(def_faces, 1)
    require(f"exact discrepancy of {len(P.atoms)} atoms in d={d}", cost, fallback)

    exc = _exact_branch(pts, wts, exc_faces, excess=True)
    def_ = _exact_branch(pts, wts, def_faces, excess=False)
    (val, lo, hi), direction = (exc, "excess") if exc[0] >= def_[0] else (def_, "deficit")
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
    pts = np.array([pt for pt, _ in P.atoms], dtype=float)
    wts = np.array([w for _, w in P.atoms], dtype=float)
    faces = [_grid_candidates(pts[:, ax], resolution) / resolution for ax in range(P.d)]
    kind = f"grid({resolution}) discrepancy of {len(P.atoms)} atoms in d={P.d}"
    require(kind, _elements(faces, 1), "a coarser --resolution")
    best = 0.0
    # [g_i, g_j) holds x when g_i <= x < g_j: index i <= p < j
    for _, _, F, _ in _blocks(pts, wts, faces, (0, 1, 1), minus_volume=True):
        F = F[:, :-1]  # mass below g_t minus the volume there, for each final-axis face g_t
        best = max(best, float((F.max(axis=1) - F.min(axis=1)).max()))
    return best
