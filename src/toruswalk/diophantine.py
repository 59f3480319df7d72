"""Nearest-integer distances, pigeonhole frequency searches, and
empirical estimation of how badly a generator matrix is approximated by
rationals.

Both searches reduce one array pass, _search_blocks, over half of an
explicit box of integer vectors; an estimate is only ever certified over
the range that was actually scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat

import numpy as np

from . import errors, fourier
from .errors import PER_CALL, InternalConsistencyError, ValidationError, require
from .fourier import _digits
from .generators import GeneratorMatrix


def _search_cost(G: GeneratorMatrix, bound, calls=0):
    """Element operations of an array pass over the box of sup norm bound,
    n*d products per vector, that also makes `calls` Python-level calls."""
    return (2 * bound + 1) ** G.d * G.n * G.d + calls * PER_CALL


def nearest_integer_distance(x) -> tuple[float, float]:
    """(sup, Euclidean) distance from a real vector to the nearest integer vector."""
    x = [float(v) for v in x]
    if any(not math.isfinite(v) for v in x):
        raise ValidationError("entries must be finite")
    dists = [abs(v - round(v)) for v in x]
    return max(dists), math.hypot(*dists)


def _coord_values(s: int) -> np.ndarray:
    """Per-coordinate scan order 0, 1, -1, 2, -2, ..., s, -s."""
    values = np.zeros(2 * s + 1, dtype=np.int64)
    values[1::2] = np.arange(1, s + 1)
    values[2::2] = -values[1::2]
    return values


def _dirichlet_radii(G: GeneratorMatrix, H):
    """The box radii dirichlet_search scans, 1, 2, 4, ... below H and then H,
    and their summed price, a pass over each box.  The largest inner radii
    are left out while that price is over the budget, so every H whose own
    box is within it is admitted."""
    radii, price = [], _search_cost(G, H)
    while (r := 2 ** len(radii)) < H and price + _search_cost(G, r) <= errors.BUDGET:
        radii.append(r)
        price += _search_cost(G, r)
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
        for dist, norm, h_at, _ in _search_blocks(A, _coord_values(r)):
            key = np.where(dist < target, norm, r + 1)  # the sup norm of each match
            i = int(np.argmin(key))
            if key.flat[i] < hit_norm:
                hit_norm, hit = key.flat[i], h_at(i)
            if r == H and hit is None:  # least distance, then least norm
                i = int(np.argmin(np.where(dist == dist.min(), norm, r + 1)))
                if (dist.flat[i], norm.flat[i]) < best[:2]:
                    best = (float(dist.flat[i]), norm.flat[i], h_at(i))
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


def _half_box(values: np.ndarray, d: int, rows: int):
    """The half of the search box that the searches scan, in scan order:
    (prefix indices, h_0 values) pairs of at most `rows` prefixes, the index
    of a prefix (h_1, ..., h_{d-1}) having h_i as its digit of weight
    base^(i-1).  First the zero prefix with every h_0 > 0 (values[1::2]);
    then, for L = 1, ..., d-1, every prefix whose most significant nonzero
    digit, h_L, is odd (positive) with every h_0.  These are the vectors
    whose last nonzero coordinate is positive, one of each pair h, -h."""
    base = len(values)
    yield np.zeros(1, dtype=np.int64), values[1::2]
    for L in range(1, d):
        span = base ** (L - 1)  # prefixes of h_1, ..., h_{L-1}
        count = base // 2 * span  # times the hmax positive digits of h_L
        for start in range(0, count, rows):
            j, t = np.divmod(np.arange(start, min(start + rows, count)), span)
            yield (2 * j + 1) * span + t, values


def _vector(h0: np.ndarray, prefix: np.ndarray, i: int) -> tuple:
    """The vector at flat index i of a block of prefixes times h_0 values."""
    p, j = divmod(i, len(h0))
    return (int(h0[j]), *map(int, prefix[p]))


def _search_blocks(A: np.ndarray, values: np.ndarray):
    """{Ah}_inf and ||h||_inf over the half box (_half_box) of sup norm hmax,
    whose coordinate values are values = _coord_values(hmax).

    The scan order takes coordinate values 0, 1, -1, ..., hmax, -hmax with
    the first coordinate varying fastest.  h and -h give the same {Ah}_inf
    bit for bit (negation is exact and rint symmetric), and of the two the
    scan meets first the one whose last nonzero coordinate is positive: the
    half box holds that one.  Each block is a range of prefixes
    (h_1, ..., h_{d-1}) times a range of h_0 values, at most _BLOCK vectors,
    whose phases are summed from per-axis tables v * alpha_{.i} left to
    right as _phases sums them.  Yields, block by block in scan order,
    ({Ah}_inf, ||h||_inf, decode, spare): (prefixes, h_0 values) arrays, a
    function from a flat index into them to h, and a float array of their
    shape that the caller may overwrite.  The arrays are views of buffers
    sized to the box that the next block overwrites, so time is
    proportional to the box size and memory to one block.
    """
    n, d = A.shape
    base = len(values)
    tables = [A[:, i : i + 1] * values for i in range(1, d)]  # (n, base) each
    width = min(base, fourier._BLOCK)  # h_0 values per block
    rows = max(1, min(fourier._BLOCK // base, base ** (d - 1) // 2))  # prefixes per block
    phases, dists = np.empty((2, n, rows, width))
    norms = np.empty((rows, width), dtype=np.int64)
    for prefixes, h0s in _half_box(values, d, rows):
        digits = _digits(prefixes, base, d - 1)[:, ::-1]  # column i - 1 holds h_i
        prefix = values[digits]
        top = np.abs(prefix).max(axis=1, initial=0)  # sup norm of each prefix
        for lo in range(0, len(h0s), width):
            h0 = h0s[lo : lo + width]
            P, J = len(digits), len(h0)  # the block: P prefixes x J values of h_0
            X = np.multiply(A[:, :1, None], h0, out=phases[:, :P, :J])
            for table, col in zip(tables, digits.T):
                X += table[:, col, None]
            dist = np.rint(X, out=dists[:, :P, :J])
            np.subtract(X, dist, out=dist)
            np.abs(dist, out=dist)
            vals = reduce(partial(np.maximum, out=dist[0]), dist)  # max over generators
            norm = np.abs(h0, out=norms[:P, :J])
            np.maximum(norm, top[:, None], out=norm)
            yield vals, norm, partial(_vector, h0, prefix), X[0]


def _scale_table(hmax: int, d: int, n: int) -> np.ndarray:
    """s^(d/n) for s = 0, ..., hmax by CPython's float power, whose bits
    numpy's does not always match; for d = n, pow(s, 1.0) is s itself."""
    if d == n:
        return np.arange(hmax + 1, dtype=float)
    return np.fromiter(map(pow, range(hmax + 1), repeat(d / n)), dtype=float, count=hmax + 1)


def estimate_bad_constant(G: GeneratorMatrix, hmax: int) -> BadApproxEstimate:
    """Scan 0 < ||h||_inf <= hmax for the minimum of {Ah}_inf * ||h||_inf^(d/n).

    The first minimum in scan order is kept; h and -h give the same value,
    so the half box that _search_blocks walks has the first minimum of the
    whole box.  Time is proportional to the box size, memory to one block.
    """
    if hmax < 1:
        raise ValidationError("hmax must be >= 1")
    cost = _search_cost(G, hmax, hmax + 1)  # one float power per sup norm
    require(f"search box of sup norm {hmax}", cost, "a smaller --hmax")
    # the coordinate values go first: made after the scale table, they raise the
    # peak RSS of golden's hmax = 10^5 search by 0.35 MB (glibc's malloc)
    values = _coord_values(hmax)
    scale = _scale_table(hmax, G.d, G.n)  # ||h||_inf^(d/n)
    best_val, best_h = math.inf, None
    for vals, norm, h_at, spare in _search_blocks(G.as_array(), values):
        # norms lie in 0..hmax, so "clip" never acts; it spares take a buffered copy
        vals *= np.take(scale, norm, out=spare, mode="clip")
        i = int(np.argmin(vals))
        if vals.flat[i] < best_val:
            best_val, best_h = float(vals.flat[i]), h_at(i)
    return BadApproxEstimate(c_est=best_val, argmin_h=best_h, hmax=hmax, certified_up_to=hmax)
