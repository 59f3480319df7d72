"""Fourier coefficients of the step measure and the discrepancy bounds
they feed: a single-frequency lower bound and the Erdos-Turan-Koksma
upper bound.

Every pass over a frequency box goes through _half_box, which walks one of
each pair h, -h in a fixed order, in flat blocks of at most _BLOCK
vectors, windowed by the caller's reach: in d >= 2 it yields of each
nonzero prefix only the h_0 whose first-generator phase may lie within
reach of the half-integers (1/2)Z.  _box_terms checks and prices a box and
reduces each block with a term; the ETK sum, the cohort sum
(bounds.cohort_sum_S) and the best single-frequency bound supply their
term, their reduction and their reach, read only after the checks.  The
ETK sum and the best bound turn a floor on |qhat| into a reach
(_qhat_reach): |qhat| <= (n - 1 + |cos 2 pi x|) / n, x the phase of
generator 0.  The two searches of diophantine reduce the same pass at
their reach from the integers, whose window lies inside the one about
(1/2)Z.  Every term is the same at h and -h, bit for bit, so the sums are
twice the math.fsum of the half box, which does not depend on the order
or the block size.  The ETK and cohort sums skip every term that provably
underflows to +0.0, which math.fsum would ignore: the window leaves most
of them out, and a numpy screen on the phases drops the rest.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import repeat

import numpy as np

from .errors import PER_CALL, ValidationError, require
from .generators import GeneratorMatrix

TWO_PI = 2.0 * math.pi

# Vectors per block of a frequency box: bounds the memory of every box pass.
_BLOCK = 2**16

# exp and float power return +0.0 for a true value below e^-800, which lies
# far under 2^-1075 ~ e^-745.13, half the smallest subnormal: a term whose
# logarithm is provably below this is +0.0 and never computed.
_UNDERFLOW = -800.0


def _box_price(G: GeneratorMatrix, bound, per_phase, calls=0):
    """Element operations of a pass over the frequency box of sup norm bound
    that spends per_phase on each of the n phases of a vector (PER_CALL for a
    Python-level call such as math.cos, d for the products of h . alpha_j),
    plus `calls` Python-level calls."""
    return (2 * bound + 1) ** G.d * G.n * per_phase + calls * PER_CALL


def _pick(h0: np.ndarray, prefix: np.ndarray, idx) -> np.ndarray:
    """The vectors at indices idx of a block of single vectors (h0[i],
    prefix[i]), as int64 rows."""
    return np.column_stack((h0[idx], prefix[idx]))


def _half_box(A: np.ndarray, bound: int, reach):
    """The nonzero integer vectors h with ||h||_inf <= bound whose last
    nonzero coordinate is positive, one of each pair h, -h, in scan order
    (coordinate values 0, 1, -1, ..., bound, -bound, h_0 varying fastest),
    of which the pass yields those that may matter to the caller.

    reach is a function from the sup norms of an array of nonzero prefixes
    (h_1, ..., h_{d-1}) to the largest distance from the half-integers
    (1/2)Z that generator 0's phase of a vector with that prefix may have
    and still matter; it is called once per range of prefixes, after the
    caller has reduced every earlier block, so it may tighten as the
    caller's best value falls.  Every phase lies within 1/4 of (1/2)Z, so
    a reach of 1/4 or more yields every vector.

    Every block is flat: at most _BLOCK single vectors, in scan order.
    First the zero prefix with h_0 = 1, ..., bound, yielded in full, which
    is the whole box in d = 1; then, for L = 1, ..., d-1, the prefixes whose
    most significant nonzero coordinate, h_L, is positive, each with the
    h_0 whose generator-0 phase may lie within reach of (1/2)Z.  Yields,
    block by block, (X, norm, rows, spare): the phases h . alpha_j, shape
    (n, K), summed from per-axis tables v * alpha_{ji} left to right as
    _phases sums them; the sup norms, shape (K,); a function from indices
    into the block to the vectors (_pick); and a float array of X's shape.
    The arrays are views of buffers that the next block overwrites and
    that the caller may overwrite, so memory is one block.  The coordinate
    values and tables are built only for d >= 2, where the budget keeps
    them small.

    The window.  Generator 0's phase of h is x = (...((a + t_1) + t_2) ...
    + t_{d-1}) in floats, a = alpha_00 h_0 and t_i = alpha_0i h_i the
    products the phases are summed from, and its distance from (1/2)Z is
    half the distance of 2x from an integer.  Doubling is exact, so 2x is
    the same left-to-right sum of the doubled products 2a and 2t_i.  Let B
    be the sum of the t_i alone, summed the same way, and f and c the
    floats 2a mod 1 and -2B mod 1, each within u = 2^-53 of the exact
    fractional part (np.mod rounds once, perhaps to 1.0).  Every entry of
    A lies in [0, 1) and every |h_i| <= bound, so every partial sum of the
    doubled products is below 2 d bound, and each of the d - 1 additions of
    2x and the d - 2 of 2B is off by at most 2 u d bound: 2x lies within E
    = 2 (2d - 3) u d bound of the exact 2a + 2B.  So the distance of 2x
    from an integer, |2x - rint(2x)|, exact in floats, is at least the
    circle distance of f and c minus (E + 2u); and as f and c lie in [0, 1],
    that circle distance is |f + k - c| for some k in {-1, 0, 1}.  The pass
    sorts f once, lays the copies f - 1, f and f + 1 end to end, and takes
    for each prefix the copies in [c - w, c + w), w = 2 reach + eps, by one
    binary search per end.  For reach < 1, the copy f + k, w and the two
    ends (below 4 in magnitude) cost 4 more roundings, each at most 2u, and
    eps = (4 d^2 bound + 8) u > E + 2u + 8u, so a vector whose generator-0
    distance from (1/2)Z is at most reach has a copy strictly inside the
    window as computed.  For reach >= 1 the window holds [c - 1, c + 1),
    where every h_0 has a copy.  Any base consecutive copies stand for
    every h_0 once, so of a window holding more the first base are taken:
    none that may matter is left out, none twice.
    """
    n, d = A.shape
    base = 2 * bound + 1
    # the coordinate values 0, 1, -1, ..., bound, -bound of h_1, ..., h_{d-1}
    values = np.zeros(base if d > 1 else 0, dtype=np.int64)
    values[1::2] = np.arange(1, len(values) // 2 + 1)
    values[2::2] = -values[1::2]
    tables = [A[:, i : i + 1] * values for i in range(1, d)]  # (n, base) each
    size = min(_BLOCK, base**d // 2)  # vectors per block, at most the half box
    phases, spares = np.empty((2, n, size))
    norms = np.empty(size, dtype=np.int64)

    def block(h0, digits, pnorm):  # the vectors (h0[i], values[digits[i]])
        m = len(h0)
        X = np.multiply(A[:, :1], h0, out=phases[:, :m])
        for table, col in zip(tables, digits.T):
            X += table[:, col]
        norm = np.maximum(np.abs(h0, out=norms[:m]), pnorm, out=norms[:m])
        return X, norm, partial(_pick, h0, values[digits]), spares[:, :m]

    for lo in range(1, bound + 1, size):  # the zero prefix, in full
        h0 = np.arange(lo, min(lo + size, bound + 1))
        yield block(h0, np.zeros((len(h0), d - 1), dtype=np.int64), 0)
    if d == 1:
        return
    rows = max(1, min(_BLOCK // base, base ** (d - 1) // 2))  # prefixes per range
    eps = (4 * d * d * bound + 8) * 2.0**-53
    f = np.mod(2.0 * (A[0, 0] * values), 1.0)  # generator 0's 2a = 2 alpha_00 h_0, mod 1
    order = np.argsort(f, kind="stable")
    f, order = np.concatenate((f[order] - 1.0, f[order], f[order] + 1.0)), np.concatenate((order,) * 3)
    marks = np.zeros(rows * len(values), dtype=bool)  # the picked vectors of a range of prefixes
    for L in range(1, d):
        span = base ** (L - 1)  # prefixes of h_1, ..., h_{L-1}
        count = base // 2 * span  # times the bound positive (odd) digits of h_L
        for start in range(0, count, rows):
            # the digits of a range of prefixes; digit t has value values[t]
            j, t = np.divmod(np.arange(start, min(start + rows, count)), span)
            idx, digits = (2 * j + 1) * span + t, np.empty((len(j), d - 1), dtype=np.int64)
            for i in range(d - 1):  # column i: the digit of h_{i+1}, of weight base^i
                idx, digits[:, i] = np.divmod(idx, base)
            pnorm = np.abs(values[digits]).max(axis=1)
            B = reduce(np.add, (table[0, col] for table, col in zip(tables, digits.T)))
            c, w = np.mod(-2.0 * B, 1.0), 2.0 * reach(pnorm) + eps
            starts, stops = f.searchsorted(c - w), f.searchsorted(c + w)
            lens = np.minimum(stops - starts, base)
            ends = np.cumsum(lens)
            picked = order[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]
            marks[np.repeat(np.arange(len(lens)) * base, lens) + picked] = True
            keys = np.flatnonzero(marks)  # prefix index * base + h_0 index, in scan order
            marks[keys] = False
            for at in range(0, len(keys), size):
                p, t = np.divmod(keys[at : at + size], base)
                yield block(values[t], digits[p], pnorm[p])


def _fsum_rows(X: np.ndarray) -> np.ndarray:
    """math.fsum of each row (up to the sign of a zero sum).  One addition is
    already the correctly rounded sum of two terms."""
    if X.shape[1] == 1:
        return X[:, 0]
    if X.shape[1] == 2:
        return X[:, 0] + X[:, 1]
    return np.fromiter(map(math.fsum, X.tolist()), dtype=float, count=len(X))


def _phases(A: np.ndarray, H: np.ndarray, exact: bool = False) -> np.ndarray:
    """h . alpha_j for each integer-valued row h of H and each row alpha_j of A.

    The products are summed left to right with elementwise operations, never
    BLAS, whose rounding depends on the block size.  exact=True sums them
    with math.fsum, as qhat defines the phase; the two agree for d <= 2.
    """
    n, d = A.shape
    if exact and d > 2:
        products = H[:, None, :] * A[None, :, :]
        return _fsum_rows(products.reshape(-1, d)).reshape(len(H), n)
    X = H[:, :1] * A[:, 0]
    for i in range(1, d):
        X = X + H[:, i : i + 1] * A[:, i]
    return X


def _weight_rows(H: np.ndarray) -> np.ndarray:
    """weight_R of each row (a product over columns: a reduction along a
    short axis 1 is many times slower in numpy)."""
    return reduce(np.multiply, np.maximum(1, np.abs(H)).T).astype(float)


def _qhat_rows(A: np.ndarray, H: np.ndarray) -> np.ndarray:
    """qhat of each row of H, with math.cos and the fsum order of its definition."""
    return _mean_cos(TWO_PI * _phases(A, H, exact=True))


def _mean_cos(X: np.ndarray) -> np.ndarray:
    """math.fsum of math.cos over each row of X, divided by the row length."""
    cosines = np.fromiter(map(math.cos, X.ravel().tolist()), dtype=float, count=X.size)
    return _fsum_rows(cosines.reshape(X.shape)) / X.shape[1]


def _abs_pow(q: np.ndarray, k: int) -> np.ndarray:
    """|q|^k by CPython's float power, whose bits numpy's does not always match."""
    return np.fromiter(map(pow, np.abs(q).tolist(), repeat(k)), dtype=float, count=len(q))


def _check_k(k: int) -> None:
    """ValidationError unless 0 <= k and some float holds k (the bounds take
    k as a float)."""
    if k < 0:
        raise ValidationError("k must be >= 0")
    try:
        float(k)
    except OverflowError:
        raise ValidationError(f"k of {k.bit_length()} bits is too large for a float") from None


def _as_int(v) -> int:
    """v as an int, or ValidationError when v is not an integer (1.5, nan,
    inf, a string)."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v:
        raise ValidationError(f"frequency coordinates must be integers, got {v!r}")
    return i


def _check_h(G: GeneratorMatrix, h) -> tuple:
    h = tuple(map(_as_int, h))
    if len(h) != G.d:
        raise ValidationError(f"frequency vector has {len(h)} coordinates, expected {G.d}")
    return h


def qhat(G: GeneratorMatrix, h) -> float:
    """Fourier coefficient of the step measure: (1/n) sum_j cos(2 pi h.alpha_j).

    Real by the +-alpha symmetry; exactly 1 at h = 0.
    """
    h = _check_h(G, h)
    return float(_qhat_rows(G.as_array(), np.array([h], dtype=float))[0])


def weight_R(h) -> int:
    """Product over all coordinates of max(1, |h_i|)."""
    r = 1
    for v in h:
        r *= max(1, abs(_as_int(v)))
    return r


def single_h_lower_bound(G: GeneratorMatrix, k: int, h, r=None) -> float:
    """Lower bound on the discrepancy after k steps from one frequency.

    The single term at h of the spectral lower bound is itself a valid
    bound because every term in the full sum is nonnegative.  With the
    default smoothing radii r_i = 1/(4|h_i|) (1/(2 pi) on zero
    coordinates) the value simplifies to |qhat|^k / (pi^d R(h)).
    """
    h = _check_h(G, h)
    if all(v == 0 for v in h):
        raise ValidationError("h must be nonzero")
    _check_k(k)
    q = qhat(G, h)
    if r is None:
        return abs(q) ** k / (math.pi ** G.d * weight_R(h))
    r = tuple(float(v) for v in r)
    if len(r) != G.d:
        raise ValidationError(f"r has {len(r)} coordinates, expected {G.d}")
    if any(not (0.0 < v <= 0.5) for v in r):
        raise ValidationError("each r_i must lie in (0, 0.5]")
    prod = 1.0
    for hi, ri in zip(h, r):
        if hi != 0:
            prod *= math.sin(TWO_PI * hi * ri) ** 2 / (math.pi ** 2 * hi ** 2)
        else:
            prod *= 4.0 * ri ** 2
    return math.sqrt(q ** (2 * k) * prod)


def _box_terms(G: GeneratorMatrix, k: int, name: str, bound: int, kind: str, fallback: str, term, reach):
    """[term(A, X, rows, k) for each block (X, _, rows, _) of _half_box(A,
    bound, ...)]: the pass of the ETK sum, the cohort sum and the best bound.

    The bound (named `name` in the error) must be >= 1 and k valid; the
    box is priced against the budget, as "<kind> to <name>=<bound>" with
    the given fallback, before any block is built.  The pass's reach is
    reach(terms, pnorm), terms those of the blocks reduced so far: it is
    called only after these checks, once per range of prefixes.
    """
    if bound < 1:
        raise ValidationError(f"{name} must be >= 1")
    _check_k(k)
    require(f"{kind} to {name}={bound}", _box_price(G, bound, PER_CALL), fallback)
    A, terms = G.as_array(), []
    for X, _, rows, _ in _half_box(A, bound, lambda pnorm: reach(terms, pnorm)):
        terms.append(term(A, X, rows, k))
    return terms


def _qhat_reach(G: GeneratorMatrix, bound: int, log_floor):
    """The reach of _half_box over the box of sup norm bound that yields
    every vector whose |qhat|, as _qhat_rows computes it, may be at least
    the floor t = e^log_floor: asin(sqrt(s (2 - s))) / (2 pi), s = 1 -
    theta and theta the least |cos 2 pi x| that generator 0's phase x of
    such a vector may have, s rounded up and clipped to [0, 1].  log_floor
    may lie a few roundings (relative) above the log of the true floor.

    Proof.  qhat is (1/n) sum_j cos(2 pi phi_j), phi_j the math.fsum of the
    rounded products h_i alpha_ji, so |qhat| <= (n - 1 + |cos 2 pi phi_0|) /
    n, and as computed (math.fsum, then one division) within 3u more, u =
    2^-53.  The pass's phase x of generator 0 sums the same products left
    to right, with partial sums below d bound: |phi_0 - x| <= d^2 bound u.
    The argument fl(2 pi phi_0) is within 13 d bound u of 2 pi phi_0, and
    math.cos within 2u of the cosine of its argument, so math.cos(2 pi
    phi_0) is within (20 d^2 bound + 2) u of cos(2 pi x).  A computed |qhat|
    >= t so needs |cos 2 pi x| >= theta = 1 - n (1 - t) - (20 d^2 bound +
    3n + 2) u.  The gap n (1 - t) is taken through expm1, accurate as t
    tends to 1, and enlarged by 2^-20 of itself, which covers the
    roundings of log_floor (1 - e^l is concave in -l and 0 at 0, so a
    relative error of l moves it by as much of itself at most), of expm1
    and of the product; (32 d^2 bound + 8n) u covers the rest, so s is at
    least 1 - theta.  With delta = dist(x, (1/2)Z) in [0, 1/4], cos(2 pi
    delta) = |cos 2 pi x| >= theta; for theta >= 0, as sin increases on
    [0, pi/2], that is 2 pi delta <= asin(sqrt(1 - theta^2)), and 1 -
    theta^2 = (1 - theta)(1 + theta) <= s (2 - s), the form that stays well
    conditioned as theta tends to 1.  The factor 1 + 2^-20 covers the
    roundings of the square root, the arcsine (a few ulps) and the
    product; np.pi lies below pi.  For theta < 0, s is clipped to 1 and
    the reach is asin(1) / (2 pi) = 1/4, the whole box.  Only numpy
    arithmetic is used, never a libm call of Python's.
    """
    gap = G.n * -np.expm1(log_floor) * (1.0 + 2.0**-20) + (32 * G.d**2 * bound + 8 * G.n) * 2.0**-53
    s = np.minimum(np.maximum(gap, 0.0), 1.0)  # 1 - theta, rounded up
    return np.arcsin(np.sqrt(s * (2.0 - s))) / (2.0 * np.pi) * (1.0 + 2.0**-20)


def _best_terms(A: np.ndarray, X: np.ndarray, rows, k: int):
    """The largest default single-frequency bound |qhat|^k / (pi^d R(h)) of
    a block, and the lexicographically smallest h, of its vectors and their
    negations, that attains it."""
    H = rows(np.arange(X[0].size))
    vals = _abs_pow(_qhat_rows(A, H), k) / (math.pi ** A.shape[1] * _weight_rows(H))
    top = vals.max()
    return top, min(min(h, [-v for v in h]) for h in H[vals == top].tolist())


def _best_reach(G: GeneratorMatrix, k: int, hmax: int, terms, pnorm):
    """The reach of best_fourier_lower_bound's pass: every vector with a
    prefix of sup norm pnorm whose value may be positive and at least the
    running best b (a tie may still replace the best h), from the floor
    t = (b pi^d pnorm)^(1/k) on |qhat|, or e^(-800/k) while b < 2^-1000.

    Proof.  A positive value needs |qhat|^k > 0, so |qhat| >= e^(-800/k)
    as in etk_upper_bound.  For b >= 2^-1000 every value that may reach b,
    and its power |qhat|^k, are normal floats, each within 2u (u = 2^-53)
    of its exact expression.  A value fl(|qhat|^k / fl(pi^d R)) >= b so
    needs |qhat|^k >= b pi^d R (1 - (d + 8) u), and R(h) >= pnorm, the sup
    norm of its prefix, so |qhat| is at least the k-th root of b pi^d
    pnorm (1 - (d + 8) u).  The numpy logarithms of b, pi and pnorm are off
    by far less than 2^-20 in all, so the log of that root is at least
    (log b + d log pi + log pnorm - 2^-20) / k, the floor _qhat_reach is
    given.  A floor above 1 admits no vector, whatever the reach.  At k = 0
    (|qhat|^0 = 1) the reach is the whole box.
    """
    b = max(v for v, _ in terms)
    log_floor = np.log(b) + G.d * np.log(np.pi) + np.log(pnorm) - 2.0**-20 if b >= 2.0**-1000 else _UNDERFLOW
    return _qhat_reach(G, hmax, log_floor / k) if k else 0.25


def best_fourier_lower_bound(G: GeneratorMatrix, k: int, hmax: int):
    """Max of the default single-frequency bound over 0 < ||h||_inf <= hmax.

    Returns (value, h); ties go to the lexicographically smallest h.  The
    term is even, so that is the least of the tied vectors of the half box
    and their negations.  The pass is windowed at the running best
    (_best_reach): a vector left out has a value below it, or +0.0.  When
    every value is +0.0 every vector ties, and the least is (-hmax, ...,
    -hmax), the negation of the half box's (hmax, ..., hmax).
    """
    fallback, reach = "a smaller hmax", partial(_best_reach, G, k, hmax)
    blocks = _box_terms(G, k, "hmax", hmax, "best-bound box", fallback, _best_terms, reach)
    top = max(v for v, _ in blocks)
    return (float(top), tuple(min(h for v, h in blocks if v == top))) if top else (0.0, (-hmax,) * G.d)


def _etk_terms(A: np.ndarray, X: np.ndarray, rows, k: int) -> np.ndarray:
    """|qhat|^k / R(h), bit for bit, of each vector of a block whose term
    may not underflow to +0.0; math.fsum ignores the others.  The window of
    etk_upper_bound has left out most vectors whose term is +0.0.

    A screen in numpy on the block's phases X finds the vectors whose term
    is provably +0.0 and spares them math.cos and pow: |qhat| <= |mean of
    np.cos(2 pi X)| + 1e-9, so k log of that bound below _UNDERFLOW puts
    |qhat|^k under e^-800.  For d <= 2 the phases X are those of qhat.  For
    d >= 3 X sums the same rounded products left to right where qhat takes
    their math.fsum, so the two differ only by the d - 1 roundings of the
    partial sums.  Entries lie in [0, 1) and the budget, (2M+1)^d n 64 <=
    8e7, keeps d M and so every partial sum below 2^8, where a rounding is
    at most 2^-45: the phases, the cosines (up to 2 pi times that) and
    their means agree far closer than 1e-9.  A bound >= 1 (|qhat| = 1, or
    k = 0) is never screened.
    """
    bound = np.abs(reduce(np.add, np.cos(TWO_PI * X))) / A.shape[0] + 1e-9
    H = rows(np.flatnonzero(float(k) * np.log(bound) >= _UNDERFLOW))  # finite: bound >= 1e-9
    return _abs_pow(_qhat_rows(A, H), k) / _weight_rows(H)


def etk_upper_bound(G: GeneratorMatrix, k: int, M: int) -> float:
    """Erdos-Turan-Koksma bound:
    (3/2)^d (2/(M+1) + sum over 0 < ||h||_inf <= M of |qhat|^k / R(h)).

    Each term is computed as the definition has it (math.cos, math.fsum,
    CPython's float power), except those that provably underflow to +0.0;
    math.fsum ignores them, so the value is the same bit for bit.  The pass
    yields only the vectors whose |qhat| may reach e^(-800/k) (_qhat_reach:
    a power |qhat|^k below e^-800 is +0.0, the premise of _etk_terms), and
    a numpy screen on their phases drops most of the rest (_etk_terms).
    At the paper's M every term underflows.
    """
    fallback = "a smaller M (--etk-m, or --ca in a scan)"
    reach = lambda terms, pnorm: _qhat_reach(G, M, _UNDERFLOW / k if k else -math.inf)
    terms = _box_terms(G, k, "M", M, "ETK sum", fallback, _etk_terms, reach)
    return (1.5 ** G.d) * (2.0 / (M + 1) + 2.0 * math.fsum(np.concatenate(terms).tolist()))
