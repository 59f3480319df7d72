"""Nearest-integer distances, pigeonhole frequency searches, and
empirical estimation of how badly a generator matrix is approximated by
rationals.

All searches are exhaustive over explicit boxes or shells; an estimate
is only ever certified over the range that was actually scanned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, ValidationError, check_box_size
from .generators import GeneratorMatrix

SEARCH_BOX_CAP = 4_000_000


def nearest_integer_distance(x) -> tuple[float, float]:
    """(sup, Euclidean) distance from a real vector to the nearest integer vector."""
    x = [float(v) for v in x]
    if any(not math.isfinite(v) for v in x):
        raise ValidationError("entries must be finite")
    dists = [abs(v - round(v)) for v in x]
    return max(dists), math.hypot(*dists)


def _coord_values(s: int):
    """Per-coordinate scan order 0, 1, -1, 2, -2, ..., s, -s."""
    yield 0
    for v in range(1, s + 1):
        yield v
        yield -v


def shell_vectors(d: int, s: int):
    """Integer vectors with sup norm exactly s, positive-before-negative
    order with the leading coordinate varying fastest (unit vector e_1
    comes first in shell 1)."""
    for h in itertools.product(_coord_values(s), repeat=d):
        if max(abs(v) for v in h) == s:
            yield h[::-1]


def _sup_dist_Ah(A: np.ndarray, h) -> float:
    x = A.dot(np.asarray(h, dtype=float))
    return float(np.max(np.abs(x - np.rint(x))))


def dirichlet_search(G: GeneratorMatrix, q: float) -> tuple:
    """First nonzero h with ||h||_inf <= floor(q^(n/d)) and {Ah}_inf < 1/q.

    Scans shells of increasing sup norm in a fixed order, so the output
    is deterministic.  Existence is guaranteed by the pigeonhole
    principle; a failed scan (possible only through float boundary
    effects) raises carrying the best candidate found.
    """
    if q < 1.0:
        raise ValidationError("q must be >= 1")
    H = int(math.floor(q ** (G.n / G.d)))
    if H < 1:
        raise ValidationError(f"search bound floor(q^(n/d)) = {H} < 1")
    A = G.as_array()
    target = 1.0 / q
    best_h, best_dist = None, math.inf
    for s in range(1, H + 1):
        for h in shell_vectors(G.d, s):
            dist = _sup_dist_Ah(A, h)
            if dist < target:
                return h
            if dist < best_dist:
                best_h, best_dist = h, dist
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


def estimate_bad_constant(
    G: GeneratorMatrix, hmax: int, box_cap: int = SEARCH_BOX_CAP
) -> BadApproxEstimate:
    """Scan 0 < ||h||_inf <= hmax for the minimum of {Ah}_inf * ||h||_inf^(d/n)."""
    if hmax < 1:
        raise ValidationError("hmax must be >= 1")
    check_box_size("search", hmax, G.d, box_cap)
    A = G.as_array()
    exponent = G.d / G.n

    if G.d == 1:
        hs = np.empty(2 * hmax, dtype=np.int64)
        hs[0::2] = np.arange(1, hmax + 1)
        hs[1::2] = -np.arange(1, hmax + 1)
        X = np.outer(hs.astype(float), A[:, 0])
        sup = np.max(np.abs(X - np.rint(X)), axis=1)
        vals = sup * np.abs(hs).astype(float) ** exponent
        idx = int(np.argmin(vals))
        return BadApproxEstimate(
            c_est=float(vals[idx]), argmin_h=(int(hs[idx]),), hmax=hmax, certified_up_to=hmax
        )

    hs = [h[::-1] for h in itertools.product(_coord_values(hmax), repeat=G.d) if any(h)]
    H = np.array(hs, dtype=float)
    X = H.dot(A.T)
    sup = np.max(np.abs(X - np.rint(X)), axis=1)
    norms = np.max(np.abs(H), axis=1)
    vals = sup * norms ** exponent
    idx = int(np.argmin(vals))
    return BadApproxEstimate(
        c_est=float(vals[idx]), argmin_h=hs[idx], hmax=hmax, certified_up_to=hmax
    )
