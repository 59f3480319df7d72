"""Exact and Monte Carlo step distributions of the torus walk.

The walk is tracked on the coefficient lattice Z^n: after k steps the
position is the mod-1 image of m @ A where m is the vector of net signed
choices per generator.  Counts are exact big integers over the common
denominator (2n)^k, from closed-form binomial rows: C(k, (k+m)/2) for one
generator; C(k, (k+m1+m2)/2) C(k, (k+m1-m2)/2) for two (the 2-D simple walk
turned by 45 degrees); for n >= 3 a sum over the number j of steps taken by
the first generator, C(k, j) L_1(j) (x) L_{n-1}(k-j).  Floats enter only when
projecting to the torus.  The law depends on n and k alone, so a
LatticeDistribution is the pair (k, n).  Equal rows -- torus points, the
points of a point-set file -- are merged by one sort (_merge); Monte Carlo
draws, integer rows, are counted by sorting one int64 key per trial (_tally).
A WeightedPointSet holds its points and weights as two numpy arrays, which
the discrepancy estimators read directly.

A weight needs only its 53 correctly rounded bits, and one that rounds to
0.0 cannot reach a point set.  So for one generator from k = 1087 no exact
count is built.  The centre count C(k, floor(k/2)) is bracketed by a
128-bit mantissa directly from Stirling's series for log Gamma (_centre);
every other count of the window, under 39 sqrt(k) rows, is that count times
a product of ratios j / (k - j + 1), taken for all rows at once as
double-doubles (about 106 bits) in one prefix scan with a proven relative
error bound, and each weight is rounded once where the bound decides it
(_dd_weights, _bracketed_weights).  So the whole projection is a few numpy
passes over the window; only the rows up to the first weight that rounds
to 0.0 get a torus point.  Where the bound leaves a row of the window
undecided, or the rows might not land on distinct points (_separated), the
projection falls back to exact work: one pass that builds every count, one
big integer at a time for n <= 2, at the price of every exact count.  This
is Ziv's strategy (ACM TOMS 1991): work at a little more than the output
precision, and fall back to exact work only when rounding cannot be
decided.  An undecided row is rare, about 3e-13 k of them expected per
walk, but past the k where the budget refuses every exact count such a
walk is refused too.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import PER_CALL, ValidationError, numeric_rows, require
from .fourier import _phases
from .generators import GeneratorMatrix

# A weight c / denominator rounds to 0.0 when it is at most 2^-1075, half the
# smallest subnormal float.
_ZERO_EXP = 1075

# Bits of the mantissa of the centre count's bracket (_centre): 53 for the
# weight plus enough guard bits that its error is far below the last bit.
_MANT = 128
# Bits beyond _MANT to which _centre computes the centre count.
_GUARD = 32
# B_2j / (2j (2j - 1)) for j = 1..8, the terms of Stirling's series for
# log Gamma, and B_18 / (18 * 17), which bounds its remainder.
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156), (-3617, 122400))
_STIRLING_REM = (43867, 244188)
# floor(pi 2^256)
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89
# Veltkamp's splitter 2^27 + 1: a * _SPLIT cuts a float's 53-bit mantissa
# into two halves of at most 26 bits each (_two_prod).
_SPLIT = 134217729.0
# u^2 for the unit roundoff u = 2^-53, the unit of the double-double error bounds.
_U2 = 2.0**-106
# At most this many elements, _exclusive_products multiplies one at a time on
# floats: there numpy's cost per call outweighs the work it vectorizes.
_SCAN_LEAF = 16

_MC_FALLBACK = "--method mc (simulate_walk)"


def _binomial_pairs(k: int):
    """C(k, j) for j = floor(k/2) down to 0, each twice (for j and k - j) but
    a centre j = k/2 once.  One big integer is held at a time."""
    j = k // 2
    c = math.comb(k, j)
    if k % 2 == 0:
        yield c
        c = c * j // (k - j + 1)  # C(k, j-1) = C(k, j) j / (k - j + 1)
        j -= 1
    while j >= 0:
        yield c
        yield c
        c = c * j // (k - j + 1)
        j -= 1


def _centre_out(k: int, rows: int) -> np.ndarray:
    """The first `rows` coefficient vectors of the one-generator walk from the
    centre outward, as an (N, 1) int64 array: m = 0, -2, 2, ... (k even) or
    -1, 1, -3, 3, ... (k odd), the order of _binomial_pairs and _dd_weights."""
    m = np.arange(k % 2, min(k, rows) + 1, 2)
    return np.column_stack([-m, m]).ravel()[1 - k % 2 : rows + 1 - k % 2, None]


def _rows(n: int, k: int):
    """Every coefficient vector of the k-step walk with n generators, and its
    count.

    Returns (rows, counts): rows is an (N, n) int64 array of the vectors;
    counts is an iterator over their counts in the same order, built as it is
    consumed, so for n <= 2 one count is held at a time.
    """
    if n == 1:
        return _centre_out(k, k + 1), _binomial_pairs(k)
    if n == 2:
        # counts(m1, m2) = C(k, u) C(k, v) with u = (k+m1+m2)/2, v = (k+m1-m2)/2,
        # which is b[p] b[q] for p = min(u, k-u), q = min(v, k-v) and the half row b
        b = [math.comb(k, j) for j in range(k // 2 + 1)]
        U, V = np.divmod(np.arange((k + 1) ** 2), k + 1)
        P, Q = np.minimum(U, k - U), np.minimum(V, k - V)
        counts = (b[p] * b[q] for p, q in zip(P.tolist(), Q.tolist()))
        return np.column_stack([U + V - k, U - V]), counts
    # n >= 3: split off the first generator, over a dense object array on [-k, k]^n
    total = np.zeros((2 * k + 1,) * n, dtype=object)
    for j in range(k + 1):
        rest, rest_counts = _rows(n - 1, k - j)
        rest_counts = np.fromiter(rest_counts, dtype=object, count=len(rest))
        at = tuple((rest + k).T)
        first, first_counts = _rows(1, j)
        cj = math.comb(k, j)
        for m1, c1 in zip(first[:, 0].tolist(), first_counts):
            total[(m1 + k, *at)] += cj * c1 * rest_counts
    rows = np.argwhere(total != 0)
    return rows - k, iter(total[tuple(rows.T)].tolist())


@dataclass(frozen=True)
class LatticeDistribution:
    """Exact law count(m) / (2n)^k of the net coefficient vector m in Z^n
    after k steps with n generators.  Constructing it checks the cost of the
    exact walk and its projection, so no work starts past the budget; the
    exact counts are priced again, on their own, where they are built."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("step count k must be >= 0")
        if self.n < 1:
            raise ValidationError("generator count n must be >= 1")
        cost = _walk_cost(self.n, self.k)
        require(f"exact walk (n={self.n}, k={self.k})", cost, _MC_FALLBACK)

    @property
    def denominator(self) -> int:
        return (2 * self.n) ** self.k

    @cached_property
    def counts(self) -> Mapping:
        """Read-only m tuple -> positive count, every count built on first
        lookup (priced by _count_cost first); project_to_torus brackets the
        counts instead where it can."""
        _require_counts(self.n, self.k)
        rows, counts = _rows(self.n, self.k)
        return MappingProxyType(dict(zip(map(tuple, rows.tolist()), counts)))


@dataclass(frozen=True, eq=False, init=False)
class WeightedPointSet:
    """Finite set of distinct torus points with probability weights.

    WeightedPointSet(d, atoms, provenance=...) takes the atoms as
    ((point tuple, weight), ...); WeightedPointSet(d, provenance=...,
    points=..., weights=...) takes the two arrays as they are, and `atoms`
    is then built from them on first read.  The arrays are read-only.
    """

    d: int
    points: np.ndarray  # (N, d) floats in [0, 1)
    weights: np.ndarray  # (N,) floats in (0, 1]
    provenance: str  # "exact" | "empirical"

    def __init__(self, d: int, atoms=None, *, provenance: str, points=None, weights=None):
        if atoms is not None:
            atoms = tuple(atoms)
            object.__setattr__(self, "atoms", atoms)
            points = np.array([pt for pt, _ in atoms], dtype=float).reshape(len(atoms), d)
            weights = np.array([w for _, w in atoms], dtype=float)
        elif points is None or weights is None:
            raise TypeError("WeightedPointSet needs atoms, or points and weights")
        points, weights = np.asarray(points, dtype=float), np.asarray(weights, dtype=float)
        points.flags.writeable = weights.flags.writeable = False
        for name, value in (("d", d), ("points", points), ("weights", weights), ("provenance", provenance)):
            object.__setattr__(self, name, value)

    @cached_property
    def atoms(self) -> tuple:
        """((point tuple in [0,1)^d, weight in (0,1]), ...), in array order."""
        return tuple(zip(map(tuple, self.points.tolist()), self.weights.tolist()))

    def total_weight(self) -> float:
        return math.fsum(self.weights.tolist())


def _count_cost(n: int, k: int) -> int:
    """Predicted element operations of building every exact count.

    Every reachable coefficient vector, sum_i C(n-1, i) C(k-i+n, n) of them
    (the coefficient of x^k in (1+x)^(n-1) / (1-x)^(n+1)), is a row of n
    coordinates with a big-integer count handled one call at a time.  For
    n = 1 the k+1 counts hold up to k(k+1)/64 words once looked up; for
    n >= 3 the split fills a dense table of (2k+1)^n cells.
    """
    rows = sum(math.comb(n - 1, i) * math.comb(k - i + n, n) for i in range(n))
    cost = PER_CALL * n * rows
    if n == 1:
        cost += k * (k + 1) // 64
    elif n >= 3:
        cost += (2 * k + 1) ** n
    return cost


def _require_counts(n: int, k: int) -> None:
    """Check the price of building every exact count against the budget."""
    require(f"exact counts of the walk (n={n}, k={k})", _count_cost(n, k), _MC_FALLBACK)


def _walk_cost(n: int, k: int) -> int:
    """Predicted element operations of the exact walk and its projection.

    For n >= 2 that is building the counts, _count_cost.  For n = 1 the
    projection reaches only the window of rows whose weight does not round
    to 0.0 (see project_to_torus), priced at PER_CALL per row.  The
    double-double pass over that window (_dd_weights, _round_rows,
    _bracketed_weights) takes about 60 numpy element operations per priced
    row, one value serving the rows m and -m, so fewer than that.  A row its
    bound cannot decide sends the walk to the exact counts, priced where
    they are built; that is rare (none in 2.7 million rows of 206 golden
    walks, k from 1087 to 4 10^6).
    This prices the rows whose count exceeds tau = 2^k / ((2k+1) 2^1075), a
    superset of that window, as a weight at most tau / 2^k < 2^-1075 rounds
    to 0.0.  By Hoeffding,
    C(k, j) / 2^k <= exp(-m^2 / (2k)) for m = 2j - k, so a count above
    tau has m^2 < 2k ln((2k+1) 2^1075): at most
    isqrt(2kL) + 1 rows for L = ceil(ln((2k+1) 2^1075)), about 39 sqrt(k)
    (38 978 rows at k = 10^6).  Exact counts, where the projection falls back
    to them, are priced by _count_cost where they are built.
    """
    if n >= 2:
        return _count_cost(n, k)
    ln_zero = math.ceil(math.log(2 * k + 1) + _ZERO_EXP * math.log(2))
    return PER_CALL * min(k + 1, math.isqrt(2 * k * ln_zero) + 1)


def exact_walk_distribution(G: GeneratorMatrix, k: int) -> LatticeDistribution:
    """The exact k-step law of the walk driven by G, LatticeDistribution(k, G.n)."""
    return LatticeDistribution(k=k, n=G.n)


def _merge(X):
    """The distinct rows of a 2-D array in sorted order, and the index of each
    row's distinct row; of equal rows (0.0 and -0.0) the stable sort keeps the first."""
    order = np.lexsort(X.T[::-1])
    X = X[order]
    starts = np.concatenate(([True], np.any(X[1:] != X[:-1], axis=1)))
    X = X[starts]  # the sorted copy is not held while the runs are numbered
    sorted_run = np.cumsum(starts)
    sorted_run -= 1
    run = np.empty_like(sorted_run)
    run[order] = sorted_run
    return X, run


def _tally(m):
    """The distinct rows of an (N, n) int64 array, N >= 1, in the sorted order
    of _merge, and the number of times each occurs.

    Each row is folded into one int64 key in mixed radix over its columns'
    observed ranges, column 0 the most significant, so the sorted keys order
    the rows as _merge does.  Where the product of the ranges reaches 2^63 a
    key would not fit, and the rows are merged by _merge instead.
    """
    # column by column: on a 10^5 x 2 array numpy's axis-0 min takes about
    # 5 ms, the two column mins 0.2 ms (2-core Xeon)
    lo = [int(column.min()) for column in m.T]
    spans = [int(column.max()) - low + 1 for column, low in zip(m.T, lo)]
    if math.prod(spans) >= 2**63:
        rows, run = _merge(m)
        return rows, np.bincount(run)
    key = m[:, 0] - lo[0]
    for j in range(1, len(spans)):
        key *= spans[j]
        key += m[:, j] - lo[j]
    key.sort()
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    counts = np.diff(starts, append=len(key))
    key = key[starts]
    rows = np.empty((len(key), len(spans)), dtype=np.int64)
    for j in range(len(spans) - 1, -1, -1):
        key, rows[:, j] = np.divmod(key, spans[j])
        rows[:, j] += lo[j]
    return rows, counts


def _runs(G: GeneratorMatrix, rows):
    """The torus points of the rows of an (N, n) int64 array, bit-identical
    points merged by _merge.

    Returns (points, run): the distinct points in sorted order and the run of
    each row.
    """
    X = _phases(G.as_array().T, rows, exact=True)
    X -= np.floor(X)
    X[X >= 1.0] = 0.0  # the guard of generators.frac
    return _merge(X)


def _exact_weights(run, counts, denominator: int):
    """The weight of each run from the integer count of every row.

    Counts are summed as integers within a run and divided by the
    denominator once, so each float weight carries a single rounding.  A
    run of one row divides its count as it arrives, so the counts need not
    be held together.
    """
    single = (np.bincount(run) == 1).tolist()
    weights = [0.0] * len(single)
    shared: dict = defaultdict(int)  # run -> summed count, for runs of several rows
    last = w = None
    for r, c in zip(run.tolist(), counts):
        if not single[r]:
            shared[r] += c
        elif c == last:  # +-m share one count, divided once
            weights[r] = w
        else:
            last, w = c, c / denominator
            weights[r] = w
    for r, c in shared.items():
        weights[r] = c / denominator
    return weights


def _exp_bracket(x: int, f: int):
    """(lo, hi) with lo <= exp(x / 2^f) 2^f <= hi, for |x| <= 2^(f-1).

    Each term x^i / i! 2^f of the Taylor series comes from the one before by
    one floor, off by less than one unit; as |x / 2^f| <= 1/2 shrinks the
    error it inherits, every term is within 2 units.  The sum stops at the
    first term that floors to 0, i, whose true value is below 2, so the
    terms from there on add up to less than 4.
    """
    total, term, i = 0, 1 << f, 0
    while term:
        total += term
        i += 1
        term = term * x // (i << f)
    return total - 2 * i - 4, total + 2 * i + 4


def _centre(k: int):
    """The bracket (m, e, t) of the centre count c = C(k, floor(k/2)):
    m 2^e <= c <= m 2^e / (1 - t 2^-(P-1)) for P = _MANT, with m of P bits
    and t at most 2.  k must be at least 1024: from there n >= 512 and the
    remainder of Stirling's series is below 2^-154 of c.

    Here c = 2^k w(n) with n = ceil(k/2), since for odd k
    C(2n-1, n-1) = C(2n, n) / 2, and w(n) = C(2n, n) / 4^n is
    exp(s) / sqrt(pi n) for s = S(2n) - 2 S(n).  Here Stirling's series
    log Gamma(x + 1) = (x + 1/2) log x - x + log(2 pi) / 2 + S(x) has
    S(x) = sum_{j=1..8} B_2j / (2j (2j-1) x^(2j-1)) + R(x), and for real
    x > 0 the remainder R(x) after the B_16 term lies between 0 and the
    first omitted term, B_18 / (306 x^17) (Whittaker & Watson, section
    12.33), so s lies within 2 B_18 / (306 n^17) of the sum of the eight
    terms.  In fixed point with f bits those terms take one floor each, exp
    one bracket (_exp_bracket), pi one of _PI's 256 bits and the square root
    one isqrt, each widening the bracket [lo, hi] of w 2^f by a few units.
    f = P + _GUARD + bits(n) leaves lo at least P + _GUARD bits, so cutting
    lo to P bits, m 2^s, dominates the width, and
    t = ceil((hi - m 2^s) 2^(P-1) / hi) is at most 2 at _MANT <= 128.  A
    larger _MANT only widens the bracket, through t.
    """
    P = _MANT
    n = (k + 1) // 2
    f = P + _GUARD + n.bit_length()
    # each term floors once, so s 2^f lies in [total, total + 8), widened by r
    total = sum((a * (1 - 4**j) << f) // (b * (2 * n) ** (2 * j - 1)) for j, (a, b) in enumerate(_STIRLING, 1))
    r = -((-2 * _STIRLING_REM[0] << f) // (_STIRLING_REM[1] * n**17))
    lo, hi = _exp_bracket(total - r, f)[0], _exp_bracket(total + 8 + r, f)[1]
    # w^2 2^(2f) = exp(s)^2 2^(2f) / (pi n), with pi in [_PI, _PI + 1] 2^-256
    lo = math.isqrt((lo * lo << 256) // ((_PI + 1) * n))
    hi = math.isqrt(-(-(hi * hi << 256) // (_PI * n))) + 1
    s = lo.bit_length() - P
    m = lo >> s
    return m, k - f + s, -(-((hi - (m << s)) << (P - 1)) // hi)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly, elementwise: Dekker's
    product (Numer. Math. 1971), exact while no partial product underflows."""
    p = a * b
    t = a * _SPLIT
    ah = t - (t - a)
    t = b * _SPLIT
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_times(x, y):
    """The product of two double-doubles, as a double-double: x = (hi, lo)
    stands for hi + lo, with |lo| <= ulp(hi) / 2, each part a float array or
    a float.

    Dekker's product: the two high parts by _two_prod, the two cross
    products added to its error term, one Fast2Sum; xl yl is left out.
    Against |xh yh| the error is at most u^2 for xl yl, u^2 for each cross
    product, 2u^2 (1 + u) for their sum and u^2 (3 + 4u + 2u^2) for adding
    the error term, so against |x y| >= (1 - u)^2 |xh yh| it is below 9u^2
    (u = 2^-53; Joldes, Muller & Popescu, ACM TOMS 2017, bound this
    algorithm more tightly).  That holds while nothing underflows, which
    the callers ensure by keeping every operand near 1.
    """
    (xh, xl), (yh, yl) = x, y
    ch, cl = _two_prod(xh, yh)
    cl += xh * yl + xl * yh
    zh = ch + cl
    return zh, cl - (zh - ch)


def _exclusive_products(x):
    """The exclusive prefix products of N double-doubles x = (hi, lo) (see
    _dd_times), as a (2, N) array: out[:, i] = x[0] ... x[i-1], and
    out[:, 0] = 1.

    Blelloch's work-efficient scan: multiply neighbours pairwise, scan the
    N/2 pair products (an odd last element rides along unpaired), then give
    each even position its pair's prefix and each odd one that prefix times
    the element before it.  That is under 2N products in about
    2 log2(N / _SCAN_LEAF) vectorized steps; the last _SCAN_LEAF or fewer
    pair products are scanned in order.  out[:, i] is a tree of products
    over x[0], ..., x[i-1] and copies of 1; a product with the exact 1 is
    exact, so it carries i - 1 rounded products.  Every product formed is of
    a run of consecutive elements.
    """
    hi, lo = x
    n = len(hi)
    if n <= _SCAN_LEAF:  # one product at a time, on floats
        out, acc = np.empty((2, n)), (1.0, 0.0)
        for i, factor in enumerate(zip(hi.tolist(), lo.tolist())):
            out[:, i] = acc
            acc = _dd_times(acc, factor)
        return out
    half = n // 2
    evens = hi[: 2 * half : 2], lo[: 2 * half : 2]
    pairs = _dd_times(evens, (hi[1::2], lo[1::2]))
    if n % 2:
        pairs = np.append(pairs[0], hi[-1]), np.append(pairs[1], lo[-1])
    above = _exclusive_products(pairs)
    out = np.empty((2, n))
    out[:, 0::2] = above
    out[:, 1::2] = _dd_times(above[:, :half], evens)
    return out


def _dd_weights(k: int, centre):
    """C(k, j) / 2^k for j = c, c - 1, ..., j_end (c = floor(k/2)) as
    double-doubles (hi, lo) (see _dd_times) times 2^x, with hi within a
    factor of 2 of 1, and a bound delta on the relative error of each, from
    the centre count's bracket (m, e, t) (_centre).

    The rows are the Hoeffding window that _walk_cost prices, |2j - k| < R,
    and the first row past it, whose weight rounds to 0.0 (see _walk_cost);
    at R = k + 1 the whole half row.  Row i is the product of the centre
    weight, as one double-double from the top 106 bits of m, and the ratios
    j / (k - j + 1) for j = c, ..., c - i + 1; _exclusive_products takes
    them all in one scan.  Factor i is first scaled by 2^(T[i] - T[i+1]),
    for T[i] the float sum of the log2 of the first i factors (none
    positive), rounded toward zero; so every run of consecutive scaled
    factors has a product within a factor of about 2 of 1, nothing in the
    scan comes near underflow, and the scan's value for row i is the row
    times 2^-T[i+1].  Powers of two scale exactly.

    The bound, with u = 2^-53.  A ratio a / b of integers below 2^53 is
    the double-double (qh, ql) with qh = fl(a / b): _two_prod gives
    qh b = p + perr exactly, a - p is exact (Sterbenz) and so is
    (a - p) - perr, the remainder a - qh b, which a float holds; only
    ql = fl((a - qh b) / b) rounds, by at most u ulp(qh) / 2 <= u^2 qh
    < 2u^2 a / b.  Row i takes i ratios and i rounded products
    (_exclusive_products), each within 9u^2 (_dd_times).  The top 106 bits
    of m lose less than 2^-105 of it, and m 2^e <= C(k, c) <=
    m 2^e / (1 - t 2^(1-P)) (P = _MANT), so the centre is off by less than
    gamma = 2^-105 + t 2^(1-P) and a factor 1 + 2^-50.  So row i is off by
    a factor within (1 + 2u^2)^i (1 + 9u^2)^i (1 + gamma) of 1, and
    delta = (11 i u^2 + gamma) (1 + 2^-40) covers that while 11 i u^2 and
    gamma stay below 2^-52 (i below 2^50, _MANT at least 56), together with
    the inversion from the computed row to the exact one and delta's own
    roundings.
    """
    c = k // 2
    R = _walk_cost(1, k) // PER_CALL  # the priced rows have |2j - k| < R
    # row j's count times j / (k - j + 1) is row j - 1's
    j = np.arange(c, max(0, (k - R) // 2), -1, dtype=float)
    b = k + 1 - j
    qh = j / b
    p, perr = _two_prod(qh, b)
    ql = ((j - p) - perr) / b
    m, e, t = centre
    s = max(0, m.bit_length() - 106)
    top = m >> s
    ch = float(top)  # rounded to nearest, so top - ch fits in 53 bits
    cl = float(top - int(ch))
    ch, ce = math.frexp(ch)
    # the factors: the centre weight's mantissa, each ratio, and a 1 that
    # pads the scan to one value per row
    hi = np.concatenate(([ch], qh, [1.0]))
    lo = np.concatenate(([math.ldexp(cl, -ce)], ql, [0.0]))
    T = np.concatenate(([0], np.cumsum(np.log2(hi)).astype(np.int64)))
    shift = T[:-1] - T[1:]
    hi, lo = _exclusive_products((np.ldexp(hi, shift), np.ldexp(lo, shift)))[:, 1:]
    gamma = 2.0**-105 + t * 2.0 ** (1 - _MANT)
    delta = np.arange(len(hi)) * (11 * _U2 * (1 + 2.0**-40)) + gamma * (1 + 2.0**-40)
    return hi, lo, T[1:-1] + (ce + s + e - k), delta


def _distance_to_integers(alpha: float, qmax: int):
    """min ||q alpha|| over 1 <= q <= qmax, exactly, as (numerator, b) with
    alpha = a / b in [0, 1) the float's own value.

    The minimum is |q_i alpha - p_i| for the last convergent p_i / q_i of
    alpha's continued fraction with q_i <= qmax, as |q alpha - p| >=
    |q_i alpha - p_i| for every 1 <= q < q_(i+1) (Lagrange; Khinchin,
    Continued Fractions, section 6).  A float has a finite expansion, whose
    last convergent is alpha itself."""
    a, b = alpha.as_integer_ratio()
    p0, q0, p, q = 1, 0, 0, 1  # convergents p_(i-1)/q_(i-1) and p_i/q_i, from 0/1
    x, y = b, a  # the next partial quotient is x // y
    best = min(a, b - a)  # ||alpha||
    while y:
        c, (x, y) = x // y, (y, x % y)
        p0, q0, p, q = p, q, c * p + p0, c * q + q0
        if q > qmax:
            break
        best = min(best, abs(q * a - p * b))
    return best, b


def _separated(G: GeneratorMatrix, k: int) -> bool:
    """Whether the k+1 rows of a one-generator walk are shown to land on
    pairwise distinct torus points, by one coordinate alpha of the generator.

    A point lies within (|m| + 1) 2^-53 of m alpha mod 1 (see
    project_to_torus), so rows m != m' with |m|, |m'| <= k share a point
    only if ||q alpha|| < (2k + 2) 2^-53 for q = |m - m'| <= 2k; the least
    ||q alpha|| over those q is _distance_to_integers(alpha, 2k).
    """
    for alpha in G.entries[0]:
        dist, b = _distance_to_integers(alpha, 2 * k)
        if dist << 53 >= (2 * k + 2) * b:
            return True
    return False


def _round_rows(hi, lo, x, delta):
    """Each row (hi + lo) 2^x, a double-double within a relative delta of a
    real number, rounded to the nearest float where delta decides it:
    (the floats, which rows are decided).

    A row in [2^(E-1), 2^E) lies on the grid of spacing 2^q,
    q = max(E - 53, -1074) (the 2^1074-scaled integers for subnormal
    floats), as y + yl units; r is the integer nearest to that, but for
    ties, and g = y + yl - r.  The float is r 2^q when |g| + delta y < 1/2,
    or 1/4 at y = 2^52, a power of two whose lower neighbour may be half as
    far; the factor 1 - 2^-40 on that bound covers the test's own roundings.
    """
    q = np.maximum(np.frexp(hi)[1] + x, -1021) - 53
    x = x - q
    y, yl = np.ldexp(hi, x), np.ldexp(lo, x)
    r = np.rint(y)
    g = y - r  # exact
    g += yl
    up = np.rint(g)  # -1, 0 or 1: where y is a half-integer, yl decides
    r += up
    g -= up  # exact
    half = np.where(y == 2.0**52, 0.25 * (1 - 2.0**-40), 0.5 * (1 - 2.0**-40))
    return np.ldexp(r, q), np.abs(g) + delta * y < half


def _bracketed_weights(G: GeneratorMatrix, k: int):
    """The torus points of the one-generator walk at k >= 1087 and the
    weight of each, or None; no exact count is built.

    _separated is the only certificate that every one of the k + 1 rows is a
    point of its own, so without it None is returned before any count is
    bracketed.  With it, a row's weight is its count over 2^k, rounded once.
    _dd_weights gives every row of the window as a double-double within a
    relative delta of it, and _round_rows rounds, in one vectorized pass,
    every row that delta decides: nearly all.  Counts fall away from the
    centre, so from the first row whose weight rounds to 0.0 every row
    outward has weight 0.0 too and is dropped, just as _pointset drops it
    from the exact counts; the window before that row gets torus points.
    A row before it that delta cannot decide returns None, and the exact
    counts decide every weight.  The pass ends one row past _walk_cost's
    window, which rounds to 0.0, so a pass with no such row short of j = 0
    would have left out rows, and returns None.  A window that lands on
    fewer points than rows also returns None.
    """
    if not _separated(G, k):
        return None
    window, decided = _round_rows(*_dd_weights(k, _centre(k)))
    zeros = np.flatnonzero(decided & (window == 0.0))
    end = int(zeros[0]) if len(zeros) else len(window)
    if not decided[:end].all():
        return None
    if end == len(window) <= k // 2:
        return None  # no cut row: the priced window missed rows that survive
    window = window[:end]
    rows = 2 * len(window) - 1 + k % 2  # the centre is one row for even k, two for odd k
    points, run = _runs(G, _centre_out(k, rows))
    if len(points) < rows:
        return None
    weights = np.empty(rows)
    weights[run] = np.repeat(window, 2)[1 - k % 2 :]
    return points, weights


def _pointset(G: GeneratorMatrix, points, weights, provenance: str) -> WeightedPointSet:
    """The point set of the points; points whose weight underflows to 0.0 are dropped."""
    weights = np.asarray(weights, dtype=float)
    survive = weights > 0.0
    return WeightedPointSet(G.d, provenance=provenance, points=points[survive], weights=weights[survive])


def project_to_torus(L: LatticeDistribution, G: GeneratorMatrix) -> WeightedPointSet:
    """Push the lattice distribution to [0,1)^d, merging bit-identical points.

    For one generator from k = 1087 no exact count is built: each weight
    C(k, j) / 2^k of the window about the centre is a double-double within
    a proven relative bound, below 2^-80 at every admitted k, of it
    (_dd_weights), from one numpy scan, and is rounded once where that
    bound decides it; only the rows before the first weight that rounds to
    0.0 get a torus point (see _bracketed_weights).  The exact fallback runs
    for n >= 2, for k < 1087, and where the window cannot decide: a weight
    the bound leaves undecided, a point shared by several rows, or a
    generator that _separated cannot show to keep its rows apart.  Below
    k = 1087 some weights are exact rounding ties, which no relative bound
    decides.  The fallback first checks the price of every exact
    count (_count_cost) against the budget, then builds every count in one
    pass, one big integer at a time for n <= 2, and sums each
    point's counts before one division (_exact_weights); weights that round
    to 0.0 are dropped.

    Positions: for one generator a point is frac(fl(m alpha)), and
    fl(m alpha) is off from m alpha by at most |m alpha| 2^-53, so by at most
    about |m| 2^-53 (1.1e-10 at |m| = 10^6); frac itself is exact except for
    -1 < fl(m alpha) < 0, where it adds at most 2^-54.  In general each
    coordinate sums n such products, off by at most about sum_j |m_j| 2^-53.
    Moving each atom by at most eps moves the box discrepancy D by at most
    2 d eps, since a box's mass changes only by atoms within eps of one of
    its 2d faces, which as many boxes eps larger or smaller exclude or take
    in.  The exception is a point within eps of an integer coordinate, which
    frac may put at either end of [0, 1): boxes do not wrap around the torus,
    so such a point can move D by up to its own weight.
    """
    if L.n != G.n:
        raise ValidationError(f"distribution has n={L.n} but matrix has n={G.n}")
    n, k = L.n, L.k
    if n == 1 and (2 * k + 1).bit_length() <= k - _ZERO_EXP:  # k >= 1087, tau > 0 (_walk_cost)
        found = _bracketed_weights(G, k)
        if found is not None:
            return _pointset(G, *found, "exact")
    _require_counts(n, k)
    rows, counts = _rows(n, k)
    points, run = _runs(G, rows)
    return _pointset(G, points, _exact_weights(run, counts, L.denominator), "exact")


# A Monte Carlo walk takes k in [0, MC_STEPS) and a key in [0, MC_KEYS):
# numpy's samplers take k as a C long, and a Philox key has 128 bits.
MC_STEPS, MC_KEYS = 2**63, 2**128


def check_trials(trials: int) -> None:
    """Raise ValidationError unless a Monte Carlo walk has at least one trial."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")


def simulate_walk(G: GeneratorMatrix, k: int, trials: int, seed: int) -> WeightedPointSet:
    """Empirical k-step distribution from independent seeded walks.

    The generators are taken in pairs (2i, 2i+1), and for odd n the last
    one alone.  Each trial draws the number of steps N of each pair (all k
    when n <= 2, else Multinomial(k, 2/n, ..., 2/n[, 1/n]) over the pairs),
    then two independent Binomial(N, 1/2) per pair, u and v, and one per
    lone generator, w.  Mapping a pair's four directions +-alpha_2i and
    +-alpha_2i+1 to the moves (+-1, +-1) and (+-1, -+1) of a pair of walks
    (s, t) is a bijection, so s = m_2i + m_2i+1 and t = m_2i - m_2i+1 are
    independent simple walks of N steps: s = 2u - N, t = 2v - N, and
    m_2i = u + v - N, m_2i+1 = u - v; a lone generator's m is 2w - N.  This
    is the law of the net coefficients of k i.i.d. uniform steps among the
    2n directions.  The draws come from a counter-based Philox stream keyed
    by the seed, which must lie in [0, 2^128); k must lie below 2^63, as
    numpy's samplers take it as a C long.  Time and memory grow with
    trials * n whatever k is, and are priced before the generator is
    built; the output depends only on (seed, trials, k), never on
    scheduling.

    Equal draws are counted by _tally: one int64 key per trial, sorted in
    place, or _merge's sort of the rows where their ranges multiply past
    2^63.  The rows come out in the same order either way.
    """
    if not 0 <= k < MC_STEPS:
        raise ValidationError("step count k must lie in [0, 2^63), numpy's sampler range")
    check_trials(trials)
    if not 0 <= seed < MC_KEYS:
        raise ValidationError(f"seed {seed} is outside [0, 2^128), the range of a Philox key")
    n = G.n
    # at most 2n draws per trial (n binomials, and for n >= 3 a multinomial
    # over ceil(n/2) pairs), then a sort of the trials x n coefficient rows.
    # _tally folds the rows into trials keys (trials * n operations) and
    # sorts those (trials * log2 trials), which this charge covers, as it
    # covers _merge's sort where the keys would not fit.
    cost = trials * 2 * n + trials * n * trials.bit_length()
    require(f"Monte Carlo walk of {trials} trials (n={n})", cost, "fewer --trials")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    if n <= 2:
        N = k  # one pair, or one lone generator, takes every step
        m = rng.binomial(k, 0.5, size=(trials, n))
    else:
        pvals = [2.0 / n] * (n // 2) + [1.0 / n] * (n % 2)
        N = np.repeat(rng.multinomial(k, pvals, size=trials), 2, axis=1)  # each pair's count twice
        m = rng.binomial(N[:, :n], 0.5)
        N = N[:, 0::2]
    # in place, columns 2i hold u (or a lone w) and columns 2i+1 hold v.
    # 2u may wrap past 2^63, but int64 arithmetic is exact mod 2^64 and each
    # result lies in [-N, N], so the wrap cancels.
    u, v = m[:, : n - 1 : 2], m[:, 1::2]
    np.subtract(u, v, out=v)  # m_2i+1 = u - v
    firsts = m[:, 0::2]
    firsts *= 2
    firsts -= N  # 2u - N, and a lone generator's 2w - N
    u -= v  # m_2i = (2u - N) - (u - v) = u + v - N
    del N, u, v, firsts  # not held through the projection
    rows, counts = _tally(m)  # trials per distinct coefficient vector
    del m
    points, run = _runs(G, rows)
    # each point's summed count is an integer below 2^53, exact in float64
    return _pointset(G, points, np.bincount(run, counts) / trials, "empirical")


def pointset_to_csv_text(P: WeightedPointSet) -> str:
    """One atom per line: d coordinates then weight, 17 significant digits."""
    lines = []
    for pt, w in zip(P.points.tolist(), P.weights.tolist()):
        lines.append(",".join("%.17g" % v for v in pt) + ",%.17g" % w)
    return "\n".join(lines) + "\n"


def _pointset_row_problem(row: list):
    """What is wrong with a point-set row of finite floats, or None."""
    if not all(0.0 <= x < 1.0 for x in row[:-1]):
        return "a coordinate outside [0, 1)"
    return "a negative weight" if row[-1] < 0.0 else None


def pointset_from_csv_text(text: str, provenance: str = "exact") -> WeightedPointSet:
    """Parse one atom per line: d coordinates in [0, 1), then a finite weight
    >= 0; the weights must sum to 1 within 1e-9, as a probability measure's
    do.  Equal points are merged, their weights added in file order."""
    rows = numeric_rows(text, "point-set", lambda line: line.split(","), 2, _pointset_row_problem)
    if not rows:
        raise ValidationError("empty point-set file")
    X = np.array(rows)
    total = math.fsum(X[:, -1].tolist())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"point-set weights sum to {total!r}, not 1")
    points, run = _merge(X[:, :-1])
    # bincount adds each point's weights in file order
    weights = np.bincount(run, X[:, -1])
    return WeightedPointSet(X.shape[1] - 1, provenance=provenance, points=points, weights=weights)
