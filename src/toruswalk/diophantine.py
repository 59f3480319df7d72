"""Nearest-integer distances, pigeonhole frequency searches, and
empirical estimation of how badly a generator matrix is approximated by
rationals.

Both searches reduce the one pass over a box of integer vectors,
fourier._half_box, by its {Ah}_inf step (_sup_dist); an estimate is only
ever certified over the range that was actually scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat

import numpy as np

from . import errors, fourier
from .errors import InternalConsistencyError, ValidationError, require
from .fourier import _box_price
from .generators import GeneratorMatrix


def nearest_integer_distance(x) -> tuple[float, float]:
    """(sup, Euclidean) distance from a real vector to the nearest integer vector."""
    x = [float(v) for v in x]
    if any(not math.isfinite(v) for v in x):
        raise ValidationError("entries must be finite")
    dists = [abs(v - round(v)) for v in x]
    return max(dists), math.hypot(*dists)


def _sup_dist(X: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """{Ah}_inf of each vector of a block of fourier._half_box from its phases
    X, written into spare[0]: the largest distance of a phase to the nearest
    integer, over the generators.  h and -h give the same value bit for bit
    (negation is exact and rint symmetric), so a search over the half box
    meets the first of each pair in scan order."""
    dist = np.rint(X, out=spare)
    np.subtract(X, dist, out=dist)
    np.abs(dist, out=dist)
    return reduce(partial(np.maximum, out=dist[0]), dist)  # max over generators


def _dirichlet_radii(G: GeneratorMatrix, H):
    """The box radii dirichlet_search scans, 1, 2, 4, ... below H and then H,
    and their summed price, a pass over each box.  The largest inner radii
    are left out while that price is over the budget, so every H whose own
    box is within it is admitted."""
    radii, price = [], _box_price(G, H, G.d)
    while (r := 2 ** len(radii)) < H and price + _box_price(G, r, G.d) <= errors.BUDGET:
        radii.append(r)
        price += _box_price(G, r, G.d)
    return [*radii, H], price


def dirichlet_search(G: GeneratorMatrix, q: float) -> tuple:
    """First nonzero h with ||h||_inf <= H = floor(q^(n/d)) and {Ah}_inf < 1/q:
    of least sup norm, and of those the first in estimate_bad_constant's
    scan order, so the output is deterministic.

    Scans whole boxes of growing sup norm (_dirichlet_radii), their price
    checked before the first, and returns the first match of the first box
    that holds one: that box holds every vector of smaller norm too.
    Existence is guaranteed by the pigeonhole principle; a failed scan
    (possible only through float boundary effects) raises carrying the
    closest vector, the first of least norm among equally close ones.
    """
    if not 1.0 <= q < math.inf:
        raise ValidationError(f"q must be finite and >= 1, not {q}")
    try:
        H = math.floor(q ** (G.n / G.d))
    except OverflowError:  # q^(n/d) exceeds every float: an infinite box
        H = math.inf
    radii, price = _dirichlet_radii(G, H)
    require(f"Dirichlet search box for q={q}", price, "a smaller --q")
    A, target = G.as_array(), 1.0 / q
    best = (math.inf, H + 1, None)  # the last box's closest vector, for the error below
    for r in radii:
        hit_norm, hit = r + 1, None
        for X, norm, rows, spare in fourier._half_box(A, r):
            dist = _sup_dist(X, spare)
            key = np.where(dist < target, norm, r + 1)  # the sup norm of each match
            i = int(np.argmin(key))
            if key.flat[i] < hit_norm:
                hit_norm, hit = key.flat[i], tuple(rows([i])[0].tolist())
            if r == H and hit is None:  # least distance, then least norm
                i = int(np.argmin(np.where(dist == dist.min(), norm, r + 1)))
                if (dist.flat[i], norm.flat[i]) < best[:2]:
                    best = (float(dist.flat[i]), norm.flat[i], tuple(rows([i])[0].tolist()))
        if hit is not None:
            return hit
    raise InternalConsistencyError(
        f"no h with {{Ah}}_inf < 1/q found up to ||h||_inf = {H}; "
        f"best candidate {best[2]} at distance {best[0]}"
    )


@dataclass(frozen=True)
class BadApproxEstimate:
    """Exact minimum of {Ah}_inf * ||h||_inf^(d/n) over a finite search box.

    c_est = 0 signals an integer relation in range; the estimate says
    nothing about frequencies beyond certified_up_to.
    """

    c_est: float
    argmin_h: tuple
    hmax: int
    certified_up_to: int


def _scale_table(hmax: int, d: int, n: int) -> np.ndarray:
    """s^(d/n) for s = 0, ..., hmax by CPython's float power, whose bits
    numpy's does not always match; for d = n, pow(s, 1.0) is s itself."""
    if d == n:
        return np.arange(hmax + 1, dtype=float)
    return np.fromiter(map(pow, range(hmax + 1), repeat(d / n)), dtype=float, count=hmax + 1)


def estimate_bad_constant(G: GeneratorMatrix, hmax: int) -> BadApproxEstimate:
    """Scan 0 < ||h||_inf <= hmax for the minimum of {Ah}_inf * ||h||_inf^(d/n).

    The first minimum in scan order is kept; h and -h give the same value,
    so the half box that fourier._half_box walks has the first minimum of
    the whole box.  Time is proportional to the box size, memory to one
    block and the hmax + 1 entries of the scale table.
    """
    if hmax < 1:
        raise ValidationError("hmax must be >= 1")
    cost = _box_price(G, hmax, G.d, hmax + 1)  # one float power per sup norm
    require(f"search box of sup norm {hmax}", cost, "a smaller --hmax")
    scale = _scale_table(hmax, G.d, G.n)  # ||h||_inf^(d/n)
    best_val, best_h = math.inf, None
    for X, norm, rows, spare in fourier._half_box(G.as_array(), hmax):
        vals = _sup_dist(X, spare)
        # norms lie in 0..hmax, so "clip" never acts; it spares take a buffered copy
        vals *= np.take(scale, norm, out=X[0], mode="clip")
        i = int(np.argmin(vals))
        if vals.flat[i] < best_val:
            best_val, best_h = float(vals.flat[i]), tuple(rows([i])[0].tolist())
    return BadApproxEstimate(c_est=best_val, argmin_h=best_h, hmax=hmax, certified_up_to=hmax)
