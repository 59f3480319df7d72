"""Fourier coefficients of the step measure and the discrepancy bounds
they feed: a single-frequency lower bound and the Erdos-Turan-Koksma
upper bound.

Every pass over a frequency box goes through _box_terms, which checks and
prices the box and returns one term per frequency; the ETK sum, the cohort
sum (bounds.cohort_sum_S) and the best single-frequency bound supply only
their term and their reduction.  Boxes are always iterated in a fixed
order, in blocks of at most _BLOCK rows, and summed with math.fsum so
results are deterministic bit for bit and do not depend on the block size.  Every term is the same
at h and -h, bit for bit, so the passes walk only the negative half of a
box and double its exact sum.  The ETK and cohort sums also skip every
term that provably underflows to +0.0, which math.fsum would ignore.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat

import numpy as np

from .errors import PER_CALL, ValidationError, require
from .generators import GeneratorMatrix

TWO_PI = 2.0 * math.pi

# Rows per block of a frequency box: bounds the memory of every box pass.
_BLOCK = 2**16

# exp and float power return +0.0 for a true value below e^-800, which lies
# far under 2^-1075 ~ e^-745.13, half the smallest subnormal: a term whose
# logarithm is provably below this is +0.0 and never computed.
_UNDERFLOW = -800.0


def _digits(idx: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-`base` digits of each index below base^width, most significant
    first, one row each."""
    out = np.empty((len(idx), width), dtype=np.int64)
    for j in range(width - 1, 0, -1):
        idx, out[:, j] = np.divmod(idx, base)
    if width:
        out[:, 0] = idx
    return out


def _box_pass_cost(G: GeneratorMatrix, bound: int) -> int:
    """Element operations of a pass over the frequency box of sup norm bound
    that makes a Python-level call (math.cos, float power) per phase."""
    return (2 * bound + 1) ** G.d * G.n * PER_CALL


def frequency_box(d: int, bound: int):
    """The lexicographically negative half of the integer vectors with sup
    norm <= bound (first nonzero coordinate negative), lexicographic order,
    as int64 arrays of at most _BLOCK rows.  Their negations are the other
    nonzero half."""
    base = 2 * bound + 1
    half = base ** d // 2  # index of the zero vector
    for start in range(0, half, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, half))
        yield _digits(idx, base, d) - bound


def _row_max(X: np.ndarray) -> np.ndarray:
    """Maximum of each row, taken over the columns: np.max(X, axis=1) is many
    times slower on the few columns these arrays have."""
    return reduce(np.maximum, X.T)


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


def _box_terms(G: GeneratorMatrix, k: int, name: str, bound: int, kind: str, fallback: str, term):
    """term(A, H, k) of every block H of frequency_box(G.d, bound), in box
    order, as one array: the one pass over a frequency box.

    The bound (named `name` in the error) must be >= 1 and k valid; the
    box is priced against the budget, as "<kind> to <name>=<bound>" with
    the given fallback, before any block is built.
    """
    if bound < 1:
        raise ValidationError(f"{name} must be >= 1")
    _check_k(k)
    require(f"{kind} to {name}={bound}", _box_pass_cost(G, bound), fallback)
    A = G.as_array()
    return np.concatenate([term(A, H, k) for H in frequency_box(G.d, bound)])


def _best_terms(A: np.ndarray, H: np.ndarray, k: int) -> np.ndarray:
    """The default single-frequency bound |qhat|^k / (pi^d R(h)) of each row of H."""
    return _abs_pow(_qhat_rows(A, H), k) / (math.pi ** A.shape[1] * _weight_rows(H))


def best_fourier_lower_bound(G: GeneratorMatrix, k: int, hmax: int):
    """Max of the default single-frequency bound over 0 < ||h||_inf <= hmax.

    Returns (value, h); ties go to the lexicographically smallest h, which
    lies in the negative half of the box that the scan walks.
    """
    vals = _box_terms(G, k, "hmax", hmax, "best-bound box", "a smaller hmax", _best_terms)
    i = int(np.argmax(vals))  # the first maximum in box order
    h = _digits(np.array([i]), 2 * hmax + 1, G.d)[0] - hmax
    return float(vals[i]), tuple(int(v) for v in h)


def _etk_terms(A: np.ndarray, H: np.ndarray, k: int) -> np.ndarray:
    """|qhat|^k / R(h) of each row of H, bit for bit, +0.0 where it underflows.

    A screen in numpy finds the rows whose term is provably +0.0 and spares
    them math.cos and pow: |qhat| <= |mean of np.cos| + 1e-9 (the cosines
    are taken of the same phases, and both cosines and both means agree far
    closer than 1e-9), so k log of that bound below _UNDERFLOW puts
    |qhat|^k under e^-800.  A bound >= 1 (|qhat| = 1, or k = 0) is never
    screened.
    """
    X = TWO_PI * _phases(A, H, exact=True)
    bound = np.abs(reduce(np.add, np.cos(X).T)) / A.shape[0] + 1e-9
    live = float(k) * np.log(bound) >= _UNDERFLOW  # finite: bound >= 1e-9
    terms = np.zeros(len(H))
    terms[live] = _abs_pow(_mean_cos(X[live]), k) / _weight_rows(H[live])
    return terms


def etk_upper_bound(G: GeneratorMatrix, k: int, M: int) -> float:
    """Erdos-Turan-Koksma bound:
    (3/2)^d (2/(M+1) + sum over 0 < ||h||_inf <= M of |qhat|^k / R(h)).

    Each term is computed as the definition has it (math.cos, math.fsum,
    CPython's float power), except those that a numpy screen proves to
    underflow to +0.0 (_etk_terms); math.fsum ignores them, so the value is
    the same bit for bit.  At the paper's M every term underflows.
    """
    fallback = "a smaller M (--etk-m, or --ca in a scan)"
    terms = _box_terms(G, k, "M", M, "ETK sum", fallback, _etk_terms)
    return (1.5 ** G.d) * (2.0 / (M + 1) + 2.0 * math.fsum(terms.tolist()))
