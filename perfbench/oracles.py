"""Reference computations the benchmark checks `toruswalk` against.

They share no code with the package: weights come from binomial
coefficients, discrepancies from prefix sums over every candidate box,
and the Fourier and Diophantine sums from whole-array numpy passes.
Each is vectorised so that it finishes in seconds at the workload sizes;
test_oracles.py checks them against the brute-force oracles of the
package's own test suite on tiny inputs.
"""

from __future__ import annotations

import math

import numpy as np

# Binomial terms below 2^-200 of the total are left out of the reference
# distributions.  Their total weight is far below every tolerance used.
_LOG_TINY = -200 * math.log(2.0)


def binomial_row(k: int):
    """j and C(k, j) / 2^k for every j whose weight is at least 2^-200.

    The window comes from log-binomials; inside it the coefficients are
    exact integers, C(k, j0) from math.comb and the rest by the exact
    ratio C(k, j+1) = C(k, j) (k - j) / (j + 1), checked against
    math.comb at the far end.  Each weight is one correctly rounded
    division of integers.
    """
    j = np.arange(k + 1)
    logw = (
        math.lgamma(k + 1)
        - np.array([math.lgamma(v + 1) for v in j])
        - np.array([math.lgamma(k - v + 1) for v in j])
        - k * math.log(2.0)
    )
    inside = np.flatnonzero(logw >= _LOG_TINY)
    j0, j1 = int(inside[0]), int(inside[-1])
    c = math.comb(k, j0)
    counts = [c]
    for v in range(j0, j1):
        c = c * (k - v) // (v + 1)
        counts.append(c)
    if counts[-1] != math.comb(k, j1):
        raise AssertionError(f"binomial recurrence disagrees with math.comb at k={k}, j={j1}")
    denom = 1 << k
    return np.arange(j0, j1 + 1), np.array([c / denom for c in counts])


def lattice_n1(k: int):
    """Net coefficients m = 2j - k and weights of the one-generator walk."""
    j, w = binomial_row(k)
    return (2 * j - k)[:, None], w


def lattice_n2(k: int):
    """Coefficients (m1, m2) and weights of the two-generator walk.

    weight(m1, m2) = C(k, (k+m1+m2)/2) C(k, (k+m1-m2)/2) / 4^k: with
    u = (k+m1+m2)/2 and v = (k+m1-m2)/2 the walk is a product of two
    independent binomials, the 2-D simple walk turned by 45 degrees.
    """
    j, b = binomial_row(k)
    u, v = np.meshgrid(j, j, indexing="ij")
    m = np.stack(((u + v - k).ravel(), (u - v).ravel()), axis=1)
    return m, np.outer(b, b).ravel()


def frac(x: np.ndarray) -> np.ndarray:
    f = x - np.floor(x)
    f[f >= 1.0] = 0.0
    return f


def project(m: np.ndarray, w: np.ndarray, A: np.ndarray):
    """Torus points frac(m . alpha) per coordinate, equal points merged.

    The coordinate is summed left to right over the generators, which
    for n <= 2 is the correctly rounded sum the package's fsum gives.
    """
    n, d = A.shape
    x = np.zeros((m.shape[0], d))
    for j in range(n):
        x = x + m[:, j : j + 1] * A[j][None, :]
    pts, inv = np.unique(frac(x), axis=0, return_inverse=True)
    wts = np.zeros(pts.shape[0])
    np.add.at(wts, inv.ravel(), w)
    return pts, wts


def disc_1d(x: np.ndarray, w: np.ndarray) -> float:
    """Exact sup over intervals of |P(I) - |I||: closed intervals with
    atom end points for the excess, open intervals with atom or cube
    end points for the deficit."""
    z = np.concatenate((x, [0.0, 1.0]))
    wz = np.concatenate((w, [0.0, 0.0]))
    z, inv = np.unique(z, return_inverse=True)
    wz = np.bincount(inv.ravel(), weights=wz, minlength=z.size)
    c = np.cumsum(wz)
    # closed [z_s, z_t], s <= t: (c_t - z_t) - (c_s - w_s - z_s)
    excess = np.max((c - z) - np.minimum.accumulate(c - wz - z))
    # open (z_s, z_t), s < t: (z_t - c_t + w_t) - (z_s - c_s)
    lo = np.minimum.accumulate(z - c)[:-1]
    deficit = np.max((z - c + wz)[1:] - lo)
    return float(max(excess, deficit, 0.0))


def disc_2d(pts: np.ndarray, w: np.ndarray) -> float:
    """Exact sup over boxes with faces at atom coordinates or the cube
    boundary: closed boxes for the excess, open boxes for the deficit.

    For each left x face every right x face and every y interval is
    searched at once, the y intervals by a running minimum over prefix
    sums.
    """
    ux, ix = np.unique(np.concatenate((pts[:, 0], [0.0, 1.0])), return_inverse=True)
    uy, iy = np.unique(np.concatenate((pts[:, 1], [0.0, 1.0])), return_inverse=True)
    W = np.zeros((ux.size, uy.size))
    np.add.at(W, (ix[:-2], iy[:-2]), w)
    best = 0.0
    for a in range(ux.size):
        # closed [ux_a, ux_b] x [uy_s, uy_t], a <= b, s <= t
        col = np.cumsum(W[a:], axis=0)
        width = (ux[a:] - ux[a])[:, None]
        c = np.cumsum(col, axis=1)
        hi = c - width * uy
        lo = np.minimum.accumulate(c - col - width * uy, axis=1)
        best = max(best, float(np.max(hi - lo)))
        # open (ux_a, ux_b) x (uy_s, uy_t), a < b, s < t
        if a + 1 < ux.size:
            col = np.vstack((np.zeros(uy.size), np.cumsum(W[a + 1 : -1], axis=0)))
            width = (ux[a + 1 :] - ux[a])[:, None]
            c = np.cumsum(col, axis=1)
            hi = (width * uy - c + col)[:, 1:]
            lo = np.minimum.accumulate(width * uy - c, axis=1)[:, :-1]
            best = max(best, float(np.max(hi - lo)))
    return best


def disc_grid(pts: np.ndarray, w: np.ndarray, r: int) -> float:
    """Max of |P(B) - vol(B)| over all half-open grid boxes, d = 1 or 2.

    Atoms are binned with lo <= x < hi against the grid points i/r, and
    box masses come from a prefix-sum table of the cell histogram.
    """
    d = pts.shape[1]
    edges = np.arange(r + 1) / r
    cells = [np.searchsorted(edges, pts[:, ax], side="right") - 1 for ax in range(d)]
    H = np.zeros((r,) * d)
    np.add.at(H, tuple(cells), w)
    P = H
    for ax in range(d):
        P = np.concatenate((np.zeros_like(P.take([0], axis=ax)), np.cumsum(P, axis=ax)), axis=ax)
    t = np.arange(r + 1) / r
    if d == 1:
        f = P - t
        return float(f.max() - f.min())
    if d != 2:
        raise ValueError("disc_grid supports d = 1 and d = 2")
    best = 0.0
    for i in range(r):
        # rows j > i: mass of [i/r, j/r) x [0, y) minus its volume
        f = (P[i + 1 :] - P[i]) - ((np.arange(i + 1, r + 1) - i) / r)[:, None] * t
        best = max(best, float(np.max(f.max(axis=1) - f.min(axis=1))))
    return best


def bad_constant(A: np.ndarray, hmax: int) -> float:
    """min over 0 < ||h||_inf <= hmax of {Ah}_inf * ||h||_inf^(d/n)."""
    n, d = A.shape
    if d == 1:
        h = np.concatenate((np.arange(1, hmax + 1), -np.arange(1, hmax + 1))).astype(float)
        x = h[:, None] * A[:, 0][None, :]
        return float(np.min(np.max(np.abs(x - np.rint(x)), axis=1) * np.abs(h) ** (d / n)))
    if d != 2:
        raise ValueError("bad_constant supports d = 1 and d = 2")
    h2 = np.arange(-hmax, hmax + 1, dtype=float)
    best = math.inf
    for h1 in range(-hmax, hmax + 1):
        x = h1 * A[:, 0][None, :] + h2[:, None] * A[:, 1][None, :]
        sup = np.max(np.abs(x - np.rint(x)), axis=1)
        norm = np.maximum(abs(h1), np.abs(h2))
        vals = sup * norm ** (d / n)
        if h1 == 0:
            vals = vals[norm > 0]
        best = min(best, float(np.min(vals)))
    return best


def freq_box(d: int, M: int) -> np.ndarray:
    """Every integer vector with 0 < ||h||_inf <= M, one per row."""
    grid = np.stack(np.meshgrid(*[np.arange(-M, M + 1)] * d, indexing="ij"), axis=-1)
    h = grid.reshape(-1, d)
    return h[np.any(h != 0, axis=1)]


def _dot(h: np.ndarray, A: np.ndarray) -> np.ndarray:
    """h . alpha_j for every row h and generator j, summed left to right."""
    x = np.zeros((h.shape[0], A.shape[0]))
    for i in range(A.shape[1]):
        x = x + h[:, i : i + 1] * A[:, i][None, :]
    return x


def _weight_R(h: np.ndarray) -> np.ndarray:
    return np.prod(np.maximum(1, np.abs(h)), axis=1).astype(float)


def etk(A: np.ndarray, k: int, M: int) -> float:
    """(3/2)^d (2/(M+1) + sum over 0 < ||h||_inf <= M of |qhat(h)|^k / R(h))."""
    n, d = A.shape
    h = freq_box(d, M)
    q = np.cos(2.0 * math.pi * _dot(h, A)).sum(axis=1) / n
    return 1.5 ** d * (2.0 / (M + 1) + math.fsum(np.abs(q) ** k / _weight_R(h)))


def cohort(A: np.ndarray, k: int, M: int) -> float:
    """sum over 0 < ||h||_inf <= M of exp(-(4k/n) {2Ah}^2) / R(h), with
    {.} the Euclidean distance to the nearest integer vector."""
    n, d = A.shape
    h = freq_box(d, M)
    x = 2.0 * _dot(h, A)
    euc2 = np.sum((x - np.rint(x)) ** 2, axis=1)
    return math.fsum(np.exp(-(4.0 * k / n) * euc2) / _weight_R(h))


def lower_bound(n: int, d: int, k: int) -> float:
    return k ** (-n / 2) / (math.pi ** d * 5.0 ** (n + 1) * d ** (n / 2))


def upper_bound(n: int, d: int, c_a: float, k: int) -> float:
    return 1.5 ** d * 20.0 * (n / (c_a * math.sqrt(2.0))) ** (n / d) * k ** (-n / (2 * d))


def dkw_radius(trials: int, delta: float) -> float:
    """eps with P(sup |F_emp - F| > eps) <= delta (DKW, Massart's constant)."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))
