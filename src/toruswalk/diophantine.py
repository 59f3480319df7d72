"""Nearest-integer distances, pigeonhole frequency searches, and
empirical estimation of how badly a generator matrix is approximated by
rationals.

Both searches reduce the one pass over a box of integer vectors,
fourier._half_box, by its {Ah}_inf step (_sup_dist).  In d >= 2 the pass
is windowed: of each nonzero prefix (h_1, ..., h_{d-1}) it yields only the
h_0 whose first-generator phase may lie close enough to an integer for the
vector to matter, so the searches evaluate a small part of the box; an
estimate is still certified over the whole range priced and searched.
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

    Searches boxes of growing sup norm (_dirichlet_radii), their price
    checked before the first, and returns the first match of the first box
    that holds one: that box holds every vector of smaller norm too.  A
    match's first-generator distance is below 1/q, so each box is searched
    through the pass windowed at reach 1/q, which yields every match.
    Existence is guaranteed by the pigeonhole principle; a failed search
    (possible only through float boundary effects) scans the last box in
    full and raises carrying the closest vector, the first of least norm
    among equally close ones.
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
    for r in radii:
        hit_norm, hit = r + 1, None
        for X, norm, rows, spare in fourier._half_box(A, r, lambda pnorm: target):
            key = np.where(_sup_dist(X, spare) < target, norm, r + 1)  # the sup norm of each match
            i = int(np.argmin(key))
            if key.flat[i] < hit_norm:
                hit_norm, hit = key.flat[i], tuple(rows([i])[0].tolist())
        if hit is not None:
            return hit
    best = (math.inf, H + 1, None)  # the last box's closest vector: least distance, then norm
    for X, norm, rows, spare in fourier._half_box(A, H):
        dist = _sup_dist(X, spare)
        i = int(np.argmin(np.where(dist == dist.min(), norm, H + 1)))
        if (dist.flat[i], norm.flat[i]) < best[:2]:
            best = (float(dist.flat[i]), norm.flat[i], tuple(rows([i])[0].tolist()))
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


# Relative slack of estimate_bad_constant's window for the rounding of
# dist * scale and of CPython's pow (see its docstring).
_MARGIN = 2.0**-40


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
    the whole box.  Memory is one block and the hmax + 1 entries of the
    scale table.  In d = 1 time is proportional to the box size.  In d >= 2
    the pass is windowed at the running minimum tau, read before each range
    of prefixes: a vector with a nonzero prefix of sup norm p can only beat
    tau if its first-generator distance is below about tau / p^(d/n), so
    only the h_0 in that window are evaluated, with the same float
    expressions as the full pass.  The pass stops at the first value 0.0,
    an integer relation, which no value can fall below.

    The margin.  The value is fl(dist * scale[m]), m = ||h||_inf >= p >= 1,
    dist >= the first-generator distance, and scale[m] CPython's pow(m,
    d/n), within 2u (u = 2^-53) of the exact power of the rounded exponent,
    which grows with m: scale[m] >= scale[p] (1 - 2u) / (1 + 2u).  A value
    below tau so needs a first-generator distance below tau (1 + 2u) /
    ((1 - u)(1 - 2u) scale[p]), and the reach tau (1 + _MARGIN) / scale[p],
    in floats, exceeds that: with _MARGIN = 2^-40, (1 + _MARGIN)(1 - u)^3 (1
    - 2u) > 1 + 2u.  Every vector the window leaves out has a value of at
    least tau and could not have replaced the first minimum.
    """
    if hmax < 1:
        raise ValidationError("hmax must be >= 1")
    cost = _box_price(G, hmax, G.d, hmax + 1)  # one float power per sup norm
    require(f"search box of sup norm {hmax}", cost, "a smaller --hmax")
    scale = _scale_table(hmax, G.d, G.n)  # ||h||_inf^(d/n)
    best_val, best_h = math.inf, None

    def reach(pnorm):  # read when the pass asks, so after every earlier block
        return best_val * (1.0 + _MARGIN) / scale[pnorm]

    for X, norm, rows, spare in fourier._half_box(G.as_array(), hmax, reach):
        vals = _sup_dist(X, spare)
        # norms lie in 0..hmax, so "clip" never acts; it spares take a buffered copy
        vals *= np.take(scale, norm, out=X[0], mode="clip")
        i = int(np.argmin(vals))
        if vals.flat[i] < best_val:
            best_val, best_h = float(vals.flat[i]), tuple(rows([i])[0].tolist())
            if best_val == 0.0:  # no later vector can beat the first zero in scan order
                break
    return BadApproxEstimate(c_est=best_val, argmin_h=best_h, hmax=hmax, certified_up_to=hmax)
