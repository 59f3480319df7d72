"""Nearest-integer distances, pigeonhole frequency searches, and
empirical estimation of how badly a generator matrix is approximated by
rationals.

All searches are exhaustive over explicit boxes or shells; an estimate
is only ever certified over the range that was actually scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat

import numpy as np

from .errors import PER_CALL, InternalConsistencyError, ValidationError, require
from . import fourier
from .fourier import _digits, _phases, _row_max
from .generators import GeneratorMatrix


def _search_cost(G: GeneratorMatrix, bound, calls):
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


def _shell(d: int, s: int) -> np.ndarray:
    """Integer vectors with sup norm exactly s, in the scan order of
    estimate_bad_constant restricted to the shell: the first coordinate
    varies fastest, so the unit vector e_1 comes first in shell 1."""
    values = _coord_values(s)
    base = len(values)  # digits base-2 and base-1 hold +-s
    prefix = _digits(np.arange(base ** (d - 1)), base, d - 1)
    on = (prefix >= base - 2).any(axis=1)  # such a prefix takes every last digit
    width = np.where(on, base, 2)
    rows = np.repeat(np.arange(len(prefix)), width)
    last = np.arange(len(rows)) - np.repeat(np.cumsum(width) - width, width)
    last += np.where(on, 0, base - 2)[rows]
    return values[np.column_stack([prefix[rows], last])[:, ::-1]]


def _sup_distance(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """{Ah}_inf of each integer row h of H."""
    X = _phases(A, H)
    return _row_max(np.abs(X - np.rint(X)))


def dirichlet_search(G: GeneratorMatrix, q: float) -> tuple:
    """First nonzero h with ||h||_inf <= floor(q^(n/d)) and {Ah}_inf < 1/q.

    Scans shells of increasing sup norm in a fixed order, so the output
    is deterministic.  Existence is guaranteed by the pigeonhole
    principle; a failed scan (possible only through float boundary
    effects) raises carrying the best candidate found.
    """
    if not q >= 1.0:
        raise ValidationError("q must be >= 1")
    try:
        H = int(math.floor(q ** (G.n / G.d)))
    except OverflowError:  # q^(n/d) exceeds every float: an infinite box
        H = math.inf
    if H < 1:
        raise ValidationError(f"search bound floor(q^(n/d)) = {H} < 1")
    # each shell takes about 50 numpy calls on small arrays
    require(f"Dirichlet search box for q={q}", _search_cost(G, H, 50 * H), "a smaller --q")
    A = G.as_array()
    target = 1.0 / q
    best_h, best_dist = None, math.inf
    for s in range(1, H + 1):
        shell = _shell(G.d, s)
        dist = _sup_distance(A, shell)
        i = int(np.argmax(dist < target))
        if dist[i] < target:
            return tuple(int(v) for v in shell[i])
        i = int(np.argmin(dist))
        if dist[i] < best_dist:
            best_h, best_dist = tuple(int(v) for v in shell[i]), float(dist[i])
    raise InternalConsistencyError(
        f"no h with {{Ah}}_inf < 1/q found up to ||h||_inf = {H}; "
        f"best candidate {best_h} at distance {best_dist}"
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
    """The half of the search box that estimate_bad_constant scans, in scan
    order: (prefix indices, h_0 values) pairs of at most `rows` prefixes,
    the index of a prefix (h_1, ..., h_{d-1}) having h_i as its digit of
    weight base^(i-1).  First the zero prefix with every h_0 > 0
    (values[1::2]); then, for L = 1, ..., d-1, every prefix whose most
    significant nonzero digit, h_L, is odd (positive) with every h_0.  These
    are the vectors whose last nonzero coordinate is positive, one of each
    pair h, -h."""
    base = len(values)
    yield np.zeros(1, dtype=np.int64), values[1::2]
    for L in range(1, d):
        span = base ** (L - 1)  # prefixes of h_1, ..., h_{L-1}
        count = base // 2 * span  # times the hmax positive digits of h_L
        for start in range(0, count, rows):
            j, t = np.divmod(np.arange(start, min(start + rows, count)), span)
            yield (2 * j + 1) * span + t, values


def _scale_table(hmax: int, d: int, n: int) -> np.ndarray:
    """s^(d/n) for s = 0, ..., hmax by CPython's float power, whose bits
    numpy's does not always match; for d = n, pow(s, 1.0) is s itself."""
    if d == n:
        return np.arange(hmax + 1, dtype=float)
    return np.fromiter(map(pow, range(hmax + 1), repeat(d / n)), dtype=float, count=hmax + 1)


def estimate_bad_constant(G: GeneratorMatrix, hmax: int) -> BadApproxEstimate:
    """Scan 0 < ||h||_inf <= hmax for the minimum of {Ah}_inf * ||h||_inf^(d/n).

    The scan order takes coordinate values 0, 1, -1, ..., hmax, -hmax with
    the first coordinate varying fastest; the first minimum in that order is
    kept.  h and -h give the same value bit for bit (negation is exact and
    rint symmetric), and of the two the scan meets first the one whose last
    nonzero coordinate is positive, so only that half of the box is scanned
    (_half_box): its first minimum is the first minimum of the whole box.
    Each block is a range of prefixes (h_1, ..., h_{d-1}) times a range of
    h_0 values, at most _BLOCK vectors, whose phases are summed from
    per-axis tables v * alpha_{.i} left to right as _phases sums them.  Time
    is proportional to the box size, memory to one block.
    """
    if hmax < 1:
        raise ValidationError("hmax must be >= 1")
    cost = _search_cost(G, hmax, hmax + 1)  # one float power per sup norm
    require(f"search box of sup norm {hmax}", cost, "a smaller --hmax")
    values = _coord_values(hmax)
    A = G.as_array()
    n, d = A.shape
    base = len(values)
    scale = _scale_table(hmax, d, n)  # ||h||_inf^(d/n)
    tables = [A[:, i : i + 1] * values for i in range(1, d)]  # (n, base) each
    width = min(base, fourier._BLOCK)  # h_0 values per block
    rows = max(1, fourier._BLOCK // base)  # prefixes per block
    # every block is computed in these arrays, so no block allocates its own
    phases, dists = np.empty((2, n, rows, width))
    norms = np.empty((rows, width), dtype=np.int64)
    best_val, best_h = math.inf, None
    for prefixes, h0s in _half_box(values, d, rows):
        digits = _digits(prefixes, base, d - 1)[:, ::-1]  # column i - 1 holds h_i
        top = np.abs(values[digits]).max(axis=1, initial=0)  # sup norm of each prefix
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
            # norms lie in 0..hmax, so "clip" never acts; it spares take a buffered copy
            vals *= np.take(scale, norm, out=phases[0, :P, :J], mode="clip")
            i = int(np.argmin(vals))
            p, j = divmod(i, J)
            if vals[p, j] < best_val:
                best_val = float(vals[p, j])
                best_h = (int(h0[j]), *(int(v) for v in values[digits[p]]))
    return BadApproxEstimate(c_est=best_val, argmin_h=best_h, hmax=hmax, certified_up_to=hmax)
