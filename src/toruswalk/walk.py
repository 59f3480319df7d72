"""Exact and Monte Carlo step distributions of the torus walk.

The walk is tracked on the coefficient lattice Z^n: after k steps the
position is the mod-1 image of m @ A where m is the vector of net signed
choices per generator.  Counts are exact big integers over the common
denominator (2n)^k, from closed-form binomial rows: C(k, (k+m)/2) for one
generator; C(k, (k+m1+m2)/2) C(k, (k+m1-m2)/2) for two (the 2-D simple walk
turned by 45 degrees); for n >= 3 a sum over the number j of steps taken by
the first generator, C(k, j) L_1(j) (x) L_{n-1}(k-j).  Floats enter only when
projecting to the torus.  The law depends on n and k alone, so a
LatticeDistribution is the pair (k, n).  Equal rows -- Monte Carlo draws,
torus points, the points of a point-set file -- are merged by one sort (_merge).

A count whose weight rounds to 0.0 cannot reach a point set, so the
projection of an exact walk builds only the counts above a threshold: for
one generator, one big integer at a time, from the centre of the row
outward.  The big-integer work then follows the surviving atoms, about
sqrt(k) of them for n = 1, not the k + 1 counts.

A weight needs only its 53 correctly rounded bits, so for one generator
from k = 1087, where the threshold is positive, not even those counts are
built: each is bracketed by a 128-bit mantissa with a proven error bound,
and each weight is rounded once from its bracket.  Where a bracket cannot
decide the rounding or the threshold, the exact counts are built after all.
This is Ziv's strategy (ACM TOMS 1991): work at a little more than the
output precision, and fall back to exact work only when rounding cannot be
decided.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import PER_CALL, ValidationError, require
from .fourier import _phases
from .generators import GeneratorMatrix

# A weight c / denominator rounds to 0.0 when it is at most 2^-1075, half the
# smallest subnormal float.
_ZERO_EXP = 1075

# Bits of the mantissa that carries a binomial count in _brackets:
# 53 for the weight plus enough guard bits that rounding is decided at once.
_MANT = 128


def _binomial_pairs(k: int, tau: int):
    """C(k, j) for j = floor(k/2) down to 0, each twice (for j and k - j) but
    a centre j = k/2 once, stopping at the first count <= tau.  One big
    integer is held at a time."""
    j = k // 2
    c = math.comb(k, j)
    if k % 2 == 0:
        if c <= tau:
            return
        yield c
        c = c * j // (k - j + 1)  # C(k, j-1) = C(k, j) j / (k - j + 1)
        j -= 1
    while j >= 0 and c > tau:
        yield c
        yield c
        c = c * j // (k - j + 1)
        j -= 1


def _rows(n: int, k: int, tau: int = 0):
    """Every coefficient vector of the k-step walk with n generators, and the
    counts of those whose count exceeds tau.

    Returns (rows, counts): rows is an (N, n) int64 array holding the vectors
    whose count exceeds tau first; counts is an iterator over their counts in
    the same order, built as it is consumed.  Every count left out is <= tau.
    """
    if n == 1:
        # centre outward: m = 0, -2, 2, ... (k even) or -1, 1, -3, 3, ... (k odd)
        m = np.arange(k % 2, k + 1, 2)
        m = np.column_stack([-m, m]).ravel()[1 - k % 2 :]
        return m[:, None], _binomial_pairs(k, tau)
    if n == 2:
        # counts(m1, m2) = C(k, u) C(k, v) with u = (k+m1+m2)/2, v = (k+m1-m2)/2,
        # which is b[p] b[q] for p = min(u, k-u), q = min(v, k-v) and the
        # increasing half row b; b[p] b[q] > tau for q >= qlo[p]
        b = [math.comb(k, j) for j in range(k // 2 + 1)]
        qlo = np.array([bisect.bisect_right(b, tau // c) for c in b])
        U, V = np.divmod(np.arange((k + 1) ** 2), k + 1)
        P, Q = np.minimum(U, k - U), np.minimum(V, k - V)
        keep = Q >= qlo[P]
        order = np.argsort(~keep, kind="stable")
        U, V, P, Q = U[order], V[order], P[order], Q[order]
        kept = int(keep.sum())
        counts = (b[p] * b[q] for p, q in zip(P[:kept].tolist(), Q[:kept].tolist()))
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
    counts = total[tuple(rows.T)]
    order = np.argsort(counts <= tau, kind="stable")
    kept = int(np.count_nonzero(counts > tau))
    return rows[order] - k, iter(counts[order][:kept].tolist())


@dataclass(frozen=True)
class LatticeDistribution:
    """Exact law count(m) / (2n)^k of the net coefficient vector m in Z^n
    after k steps with n generators.  Constructing it checks the cost of the
    exact walk, so no count is ever built past the budget."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 0:
            raise ValidationError("step count k must be >= 0")
        if self.n < 1:
            raise ValidationError("generator count n must be >= 1")
        cost = _walk_cost(self.n, self.k)
        require(f"exact walk (n={self.n}, k={self.k})", cost, "--method mc (simulate_walk)")

    @property
    def denominator(self) -> int:
        return (2 * self.n) ** self.k

    @cached_property
    def counts(self) -> Mapping:
        """Read-only m tuple -> positive count, every count built on first
        lookup; project_to_torus builds only the counts that can survive."""
        rows, counts = _rows(self.n, self.k)
        return MappingProxyType(dict(zip(map(tuple, rows.tolist()), counts)))

    def check(self) -> None:
        """Assert the defining invariants; raises AssertionError on violation."""
        assert sum(self.counts.values()) == self.denominator
        for m, c in self.counts.items():
            s = sum(map(abs, m))
            assert c > 0 and s <= self.k and (s - self.k) % 2 == 0
            assert self.counts.get(tuple(-v for v in m)) == c


@dataclass(frozen=True)
class WeightedPointSet:
    """Finite set of distinct torus points with probability weights."""

    d: int
    atoms: tuple  # ((point tuple in [0,1)^d, weight in (0,1]), ...)
    provenance: str  # "exact" | "empirical"

    def total_weight(self) -> float:
        return math.fsum(w for _, w in self.atoms)


def _walk_cost(n: int, k: int) -> int:
    """Predicted element operations of the exact walk and its projection.

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


def _runs(G: GeneratorMatrix, rows):
    """The torus points of the rows of an (N, n) int64 array, bit-identical
    points merged by _merge.

    Returns (points, run, single): the distinct points in sorted order, the
    run of each row, and whether each run holds a single row.
    """
    X = _phases(G.as_array().T, rows, exact=True)
    X -= np.floor(X)
    X[X >= 1.0] = 0.0  # the guard of generators.frac
    points, run = _merge(X)
    return points, run, (np.bincount(run) == 1).tolist()


def _exact_weights(runs, counts, denominator: int, tau: int = 0):
    """The weight of each run from integer counts, or None.

    counts iterates over the counts of the first rows, and every row it does
    not reach has a count <= tau.  Counts are summed as integers within a run
    and divided by the denominator once, so each float weight carries a
    single rounding.

    The rows left out total T <= (N - reached) tau.  A point made only of
    them vanishes when T / denominator rounds to 0.0, and a point that
    merges them with reached rows keeps its weight when (c + T) / denominator
    rounds as c / denominator does; other points receive nothing from them.
    When either test fails the result would depend on the counts left out,
    and None is returned.
    """
    _, run, single = runs
    weights = [0.0] * len(single)
    shared: dict = defaultdict(int)  # run -> summed count, for runs of several rows
    last = w = None
    reached = 0
    for r, c in zip(run.tolist(), counts):
        reached += 1
        if not single[r]:
            shared[r] += c
        elif c == last:  # +-m share one count, divided once
            weights[r] = w
        else:
            last, w = c, c / denominator
            weights[r] = w
    tail = (len(run) - reached) * tau
    if tail:
        if tail / denominator != 0.0:
            return None
        mixed = np.zeros(len(single), dtype=bool)
        mixed[run[reached:]] = True
        if any(mixed[r] and (c + tail) / denominator != c / denominator for r, c in shared.items()):
            return None
    for r, c in shared.items():
        weights[r] = c / denominator
    return weights


def _times(m: int, e: int, t: int, a: int, b: int):
    """The bracket (m, e, t) of a count times a / b.

    The new mantissa is one floor of the exact quotient m a 2^s / b, with s
    chosen so that the quotient lies in (2^(_MANT-1), 2^(_MANT+1)); t counts
    the floors that dropped bits.
    """
    p = m * a
    s = _MANT + b.bit_length() - p.bit_length()
    q, r = divmod(p << s, b) if s >= 0 else divmod(p, b << -s)
    return q, e - s, t + (r != 0)


def _brackets(k: int):
    """Brackets of C(k, j) for j = floor(k/2) down to 0, one per j: (m, err, e)
    with the count in [m, m + err] 2^e.  No exact count is built: every
    integer held has at most a few hundred bits.

    Each count is carried as (m, e, t): a mantissa, an exponent and the
    number t of floors that dropped bits.  The recurrence
    C(k, j+1) = C(k, j) (k-j) / (j+1) runs up from C(k, 0) = 1 to the centre,
    eight steps per floor, then C(k, j-1) = C(k, j) j / (k-j+1) outward.
    Each floor leaves a quotient above 2^(P-1), P = _MANT, so it loses less
    than 2^-(P-1) of the value, and the count c >= m 2^e is at most
    m 2^e / (1 - t 2^-(P-1)).  Since m < 2^(P+1), c / 2^e exceeds
    m + m t / 2^(P-1) by less than one while 4 t^2 < 2^(P-1) - t, which holds
    for every t <= k + 1 at an admitted k (<= 69 534, where err / m < 2^-100).
    So err = ceil(m t / 2^(P-1)) + 1, and err = 0 while no bit was dropped.
    """
    m, e, t = 1, 0, 0
    for j in range(0, k // 2, 8):
        b = min(8, k // 2 - j)
        m, e, t = _times(m, e, t, math.perm(k - j, b), math.perm(j + b, b))
    for j in range(k // 2, -1, -1):
        yield m, -(-m * t >> (_MANT - 1)) + 1 if t else 0, e
        m, e, t = _times(m, e, t, j, k - j + 1)


def _bracketed_weights(runs, k: int, denominator: int, tau: int):
    """The weight of each run of the one-generator walk from the brackets of
    its counts (_brackets), or None; no exact count is built.

    Rows come in the order of _binomial_pairs.  A row whose whole bracket is
    <= tau ends the walk, as its exact count ends _binomial_pairs.  A
    single-row run takes m / 2^(k-e), correctly rounded by int / int;
    rounding is monotone, so that is c / denominator whenever
    (m + err) / 2^(k-e) rounds to the same float.  A bracket that straddles
    tau, a weight whose two ends round apart, or a reached row in a run of
    several rows (a rational generator) returns None, as does a tail of rows
    left out that _exact_weights would refuse.
    """
    _, run, single = runs
    run = run.tolist()
    weights = [0.0] * len(single)
    reached, width = 0, 1 + k % 2  # the centre is one row for even k, two for odd k
    for m, err, e in _brackets(k):
        bound = tau >> e if e >= 0 else tau << -e  # x 2^e <= tau iff x <= bound
        if m <= bound:
            if m + err <= bound:
                break
            return None
        scale = 1 << (k - e)
        w = m / scale
        if err and (m + err) / scale != w:
            return None
        for r in run[reached : reached + width]:
            if not single[r]:
                return None
            weights[r] = w
        reached, width = reached + width, 2
    if (len(run) - reached) * tau / denominator != 0.0:
        return None
    return weights


def _pointset(G: GeneratorMatrix, points, weights, provenance: str) -> WeightedPointSet:
    """The atoms of the points; atoms whose weight underflows to 0.0 are dropped."""
    weights = np.array(weights)
    survive = weights > 0.0
    atoms = tuple(zip(map(tuple, points[survive].tolist()), weights[survive].tolist()))
    return WeightedPointSet(d=G.d, atoms=atoms, provenance=provenance)


def project_to_torus(L: LatticeDistribution, G: GeneratorMatrix) -> WeightedPointSet:
    """Push the lattice distribution to [0,1)^d, merging bit-identical points.

    Only the counts above tau = denominator / ((2k+1)^n 2^1075) are built:
    the at most (2k+1)^n counts below it total at most 2^-1075 of the
    denominator.

    For one generator and tau > 0 (k >= 1087) not even those are built: each
    count C(k, j) lies in a bracket [m, m + err] 2^e with a _MANT-bit
    mantissa m and err / m < 2^-100 (see _brackets), and each weight is
    rounded once from its bracket (see _bracketed_weights).  The exact path
    runs for n >= 2, for tau = 0, and where a bracket cannot decide: a count
    whose bracket straddles tau, a weight whose two ends round apart, or a
    point shared by several rows.  It builds the exact counts above tau and,
    if leaving out the rest could move a weight (see _exact_weights), every
    count.  The torus points and their runs are computed once for the
    bracketed pass and the first exact pass.
    """
    if L.n != G.n:
        raise ValidationError(f"distribution has n={L.n} but matrix has n={G.n}")
    n, k, denominator = L.n, L.k, L.denominator
    tau = denominator // ((2 * k + 1) ** n << _ZERO_EXP)
    rows, built = _rows(n, k, tau)
    runs = _runs(G, rows)
    weights = _bracketed_weights(runs, k, denominator, tau) if n == 1 and tau else None
    if weights is None:
        weights = _exact_weights(runs, built, denominator, tau)
    if weights is None:
        rows, built = _rows(n, k)
        runs = _runs(G, rows)
        weights = _exact_weights(runs, built, denominator)
    return _pointset(G, runs[0], weights, "exact")


def simulate_walk(G: GeneratorMatrix, k: int, trials: int, seed: int) -> WeightedPointSet:
    """Empirical k-step distribution from independent seeded walks.

    Each trial draws its 2n per-direction step counts at once, from
    Multinomial(k, 1/(2n), ..., 1/(2n)) -- the law of the direction counts
    of k i.i.d. uniform steps -- on a counter-based Philox stream keyed by
    the seed, which must lie in [0, 2^128); k must lie below 2^63, as
    numpy's multinomial takes it as a C long.  Time and memory grow with
    trials * n whatever k is, and are priced before the generator is
    built; the output depends only on (seed, trials, k), never on
    scheduling.
    """
    if not 0 <= k < 2**63:
        raise ValidationError("step count k must lie in [0, 2^63), numpy's multinomial range")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed {seed} is outside [0, 2^128), the range of a Philox key")
    n = G.n
    # the trials x 2n draw matrix, then a sort of the trials x n coefficient rows
    cost = trials * 2 * n + trials * n * trials.bit_length()
    require(f"Monte Carlo walk of {trials} trials (n={n})", cost, "fewer --trials")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    # direction 2j is +alpha_j, 2j+1 is -alpha_j
    steps = rng.multinomial(k, [1.0 / (2 * n)] * (2 * n), size=trials)
    m = steps[:, 0::2] - steps[:, 1::2]
    del steps  # not held through the projection
    rows, run = _merge(m)
    del m
    counts = np.bincount(run)  # trials per distinct coefficient vector
    points, run, _ = _runs(G, rows)
    # each point's summed count is an integer below 2^53, exact in float64
    return _pointset(G, points, np.bincount(run, counts) / trials, "empirical")


def pointset_to_csv_text(P: WeightedPointSet) -> str:
    """One atom per line: d coordinates then weight, 17 significant digits."""
    lines = []
    for pt, w in P.atoms:
        lines.append(",".join("%.17g" % v for v in pt) + ",%.17g" % w)
    return "\n".join(lines) + "\n"


def pointset_from_csv_text(text: str, provenance: str = "exact") -> WeightedPointSet:
    """Parse one atom per line: d coordinates in [0, 1), then a finite weight
    >= 0; the weights must sum to 1 within 1e-9, as a probability measure's
    do.  Equal points are merged, their weights added in file order."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = [float(f) for f in line.split(",")]
        except ValueError:
            msg = f"point-set line {lineno} has a non-numeric field: {line!r}"
            raise ValidationError(msg) from None
        if len(fields) < 2:
            raise ValidationError(f"point-set line needs >= 2 fields: {line!r}")
        if rows and len(fields) != len(rows[0]):
            raise ValidationError("point-set lines have inconsistent dimensions")
        if not all(map(math.isfinite, fields)):
            problem = "a non-finite field"
        elif not all(0.0 <= x < 1.0 for x in fields[:-1]):
            problem = "a coordinate outside [0, 1)"
        elif fields[-1] < 0.0:
            problem = "a negative weight"
        else:
            rows.append(fields)
            continue
        raise ValidationError(f"point-set line {lineno} has {problem}: {line!r}")
    if not rows:
        raise ValidationError("empty point-set file")
    X = np.array(rows)
    total = math.fsum(X[:, -1].tolist())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"point-set weights sum to {total!r}, not 1")
    points, run = _merge(X[:, :-1])
    # bincount adds each point's weights in file order
    atoms = tuple(zip(map(tuple, points.tolist()), np.bincount(run, X[:, -1]).tolist()))
    return WeightedPointSet(d=X.shape[1] - 1, atoms=atoms, provenance=provenance)
