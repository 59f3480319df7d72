"""Box discrepancy of a weighted point set against the uniform measure.

The exact path realizes the supremum over axis-parallel boxes as a max
over critical boxes (Dobkin, Eppstein & Mitchell): candidate face
coordinates are the atom coordinates (plus the cube boundary), the excess
branch evaluates closed boxes and the deficit branch open boxes, so
non-attained suprema are captured as limits without epsilon hacking.
Boxes never wrap around the torus.  A uniform-grid estimator provides an
independent lower oracle for larger inputs.

Both estimators run on one enumerator, `_blocks`: it walks face pairs on
the first d-1 axes and hands each block of boxes' final-axis masses, as a
padded prefix sum, to the estimator's own final-axis reduction.  Each
estimator builds its face arrays first and prices the elements `_blocks`
would yield over them against the budget before it enumerates anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require
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
    exactness: str  # "exact" | "grid(<resolution>)"


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
# enumerator's temporaries, where a dense c^d table would not fit a scan row.
_BLOCK = 1 << 13


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of x (np.unique imports numpy.ma on first use)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _blocks(pts, wts, faces, rule):
    """Yield (lo, hi, H, P, W) for each block of boxes with faces from `faces`.

    An atom's index on an axis is that of the last face at or below it;
    under rule = (a, b, jmin) the face pair (i, j), j >= i + jmin, holds
    indices i + a .. j - b.  Axes 0..d-3 take every pair; a block fixes the
    left face lo[-1] on axis d-2, and its row r takes the right face
    hi[-1] + r.  H[r, t + 1] is the row's mass at final-axis face t, P its
    padded prefix sum along the final axis, W[r] its volume on axes 0..d-2.
    """
    a, b, jmin = rule
    idx = np.column_stack(
        [np.searchsorted(f, pts[:, ax], side="right") - 1 for ax, f in enumerate(faces)]
    )
    cols, width = idx[:, -1] + 1, faces[-1].size + 1
    if len(faces) == 1:
        H = np.zeros((1, width))
        np.add.at(H[0], cols, wts)
        yield (), (), H, np.cumsum(H, axis=1), np.ones(1)
        return
    *outer, u = faces[:-1]
    pairs = [[(i, j) for i in range(f.size) for j in range(i + jmin, f.size)] for f in outer]
    rows = max(1, _BLOCK // width)
    for box in itertools.product(*pairs):
        m, W = np.ones(wts.size, dtype=bool), 1.0
        for ax, (i, j) in enumerate(box):
            m &= (idx[:, ax] >= i + a) & (idx[:, ax] <= j - b)
            W *= outer[ax][j] - outer[ax][i]
        q, col, w = idx[m, -2], cols[m], wts[m]
        lo, hi = tuple(i for i, _ in box), tuple(j for _, j in box)
        for i in range(u.size):
            held = q >= i + a
            enter, c, v = q[held] + b, col[held], w[held]  # in every box with j >= enter
            for j0 in range(i + jmin, u.size, rows):
                n = min(rows, u.size - j0)
                r = np.maximum(enter - j0, 0)
                k = r < n
                H = np.zeros((n, width))
                np.add.at(H, (r[k], c[k]), v[k])
                np.cumsum(H, axis=0, out=H)
                yield lo + (i,), hi + (j0,), H, np.cumsum(H, axis=1), W * (u[j0 : j0 + n] - u[i])


def _elements(faces, jmin: int) -> int:
    """Elements _blocks yields over these faces: the face pairs j >= i + jmin
    on axes 0..d-2 times the c + 1 columns of the final axis."""
    pairs = [(f.size - jmin) * (f.size - jmin + 1) // 2 for f in faces[:-1]]
    return math.prod(pairs) * (faces[-1].size + 1)


def _exact_branch(pts: np.ndarray, wts: np.ndarray, faces: list, excess: bool):
    """Max over candidate boxes of one branch; returns (value, lo, hi).

    Excess boxes are closed with faces at atom coordinates, deficit boxes
    open with the cube boundary added; on the final axis the best interval
    of each row comes from one running-min sweep.
    """
    jmin = 0 if excess else 1  # rule (0, 0, 0): i <= p <= j; rule (1, 1, 1): i < p < j
    u = faces[-1]
    best = (-math.inf, None, None)
    for lo, hi, H, P, W in _blocks(pts, wts, faces, (jmin, jmin, jmin)):
        wu = W[:, None] * u
        c, w = P[:, 1:], H[:, 1:]  # mass up to and including face t, mass at face t
        if excess:
            top, bot = c - wu, (c - w) - wu
        else:
            top, bot = wu - (c - w), wu - c
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
    if exc[0] >= def_[0]:
        val, lo, hi = exc
        direction = "excess"
    else:
        val, lo, hi = def_
        direction = "deficit"
    return DiscrepancyResult(
        value=max(val, 0.0),
        witness=Box(a=lo, b=hi),
        direction=direction,
        exactness="exact",
    )


def _grid_candidates(coords: np.ndarray, resolution: int) -> np.ndarray:
    """Grid indices adjacent to atom coordinates plus the cube boundary.

    The discrepancy over all grid boxes is attained with faces next to an
    atom or on the boundary; the extra +-1 margin absorbs float rounding
    in floor(x * resolution).
    """
    f = np.floor(coords * resolution).astype(np.int64)
    idx = np.concatenate([f - 1, f, f + 1, f + 2, [0, resolution]])
    return _distinct(np.clip(idx, 0, resolution))


def discrepancy_grid(P: WeightedPointSet, resolution: int) -> float:
    """Max of |P(B) - vol(B)| over boxes with corners on the uniform grid.

    Boxes are the half-open products [i_1/r, j_1/r) x ...; the result
    never exceeds discrepancy_exact and misses it by at most d*(2/r).
    """
    if resolution < 2:
        raise ValidationError("grid resolution must be >= 2")
    pts = np.array([pt for pt, _ in P.atoms], dtype=float)
    wts = np.array([w for _, w in P.atoms], dtype=float)
    faces = [_grid_candidates(pts[:, ax], resolution) / resolution for ax in range(P.d)]
    kind = f"grid({resolution}) discrepancy of {len(P.atoms)} atoms in d={P.d}"
    require(kind, _elements(faces, 1), "a coarser --resolution")
    g = faces[-1]
    best = 0.0
    # [g_i, g_j) holds x when g_i <= x < g_j: index i <= p < j
    for _, _, _, prefix, W in _blocks(pts, wts, faces, (0, 1, 1)):
        F = prefix[:, :-1] - W[:, None] * g  # mass below g_t minus the volume there
        best = max(best, float((F.max(axis=1) - F.min(axis=1)).max()))
    return best
