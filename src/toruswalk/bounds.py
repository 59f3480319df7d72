"""Closed-form discrepancy bounds for the torus walk and the bookkeeping
around them: the universal k^(-n/2) lower bound, the k^(-n/2d) upper
bound for badly approximable generators, the truncation index M it
relies on, the Gaussian-weighted frequency sum the M choice controls,
and a power-law fit for empirical decay rates.

The frequency sum reduces fourier's one windowed pass over the half box,
at the reach its underflow screen allows (_cohort_reach): a term whose
generator-0 phase lies far from the half-integers is +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ValidationError
from .fourier import _UNDERFLOW, _box_terms, _check_k, _weight_rows
from .generators import GeneratorMatrix


def _check_args(n: int, d: int, k: int, c_a: float | None = None) -> None:
    """ValidationError unless c_a (when given) is positive and finite, n, d
    and k are >= 1 and some float holds k; checked in that order."""
    if c_a is not None and not 0.0 < c_a < math.inf:
        raise ValidationError("approximation constant must be positive and finite")
    if n < 1 or d < 1 or k < 1:
        raise ValidationError("need n >= 1, d >= 1, k >= 1")
    _check_k(k)


def check_certification_range(hmax: int | None) -> None:
    """Raise ValidationError unless the range an approximation constant was
    certified over, when given, is >= 1."""
    if hmax is not None and hmax < 1:
        raise ValidationError(f"certification range must be >= 1, not {hmax}")


def theorem1_lower_bound(n: int, d: int, k: int) -> float:
    """Universal lower bound k^(-n/2) / (pi^d 5^(n+1) d^(n/2))."""
    _check_args(n, d, k)
    return k ** (-n / 2) / (math.pi ** d * 5.0 ** (n + 1) * d ** (n / 2))


def theorem2_upper_bound(n: int, d: int, c_a: float, k: int) -> float:
    """Upper bound (3/2)^d * 20 * (n / (c_a sqrt(2)))^(n/d) * k^(-n/(2d)).

    Valid when c_a is an approximation constant certifying the generator
    matrix badly approximable; c_a <= 0 means no such certificate, and a
    c_a that is not finite is refused.
    """
    _check_args(n, d, k, c_a)
    return (1.5 ** d) * 20.0 * (n / (c_a * math.sqrt(2.0))) ** (n / d) * k ** (-n / (2 * d))


def choose_M(n: int, d: int, c_a: float, k: int) -> int:
    """Truncation index M = floor((1/8) (2 k c_a^2 / n^2)^(n/2d)).

    Raises InfeasibleError when the value is below 1: k is too small for
    the upper-bound pipeline at this approximation constant.
    """
    _check_args(n, d, k, c_a)
    raw = (2.0 * k * c_a ** 2 / n ** 2) ** (n / (2 * d)) / 8.0
    if raw == math.inf:
        raise ValidationError(f"truncation index at k={k:.3g}, c_a={c_a} overflows a float")
    M = int(math.floor(raw))
    if M < 1:
        raise InfeasibleError(
            f"truncation index {raw:.6g} < 1: k={k} too small for c_a={c_a} (n={n}, d={d})"
        )
    return M


def _cohort_terms(A: np.ndarray, X: np.ndarray, rows, k: int) -> np.ndarray:
    """exp(-(4k/n) {2Ah}^2) / R(h) of each vector of a block of
    fourier._half_box, from its phases X, whose term may not underflow to
    +0.0; the same at h and -h, bit for bit.

    Vectors whose term is provably +0.0 skip math.hypot and math.exp: the
    hypot is at least the largest distance, and the rounded products that
    scale it are monotone, so the exponent is at most the same products
    taken of the largest distance.  Where those are below _UNDERFLOW, exp
    returns +0.0, which math.fsum would ignore.

    The products take c = 4k/n as 4 q, q = k/n, and multiply by 4 last.
    Scaling by 4 is exact, so each product rounds as it would with c, and
    none overflows, though c does above about k = 4.5e307 n: a zero
    distance then still gives exp(-0.0) / R(h).
    """
    Y = 2.0 * X
    dist = np.abs(Y - np.rint(Y)).reshape(len(A), -1)
    q = float(k) / A.shape[0]
    top = dist.max(axis=0)
    live = np.flatnonzero(~(-q * top * top < _UNDERFLOW / 4.0))  # a NaN exponent is kept, as it was
    euc = np.fromiter(map(math.hypot, *dist[:, live].tolist()), dtype=float)
    scaled = -q * euc * euc * 4.0
    return np.fromiter(map(math.exp, scaled.tolist()), dtype=float) / _weight_rows(rows(live))


def _cohort_reach(n: int, k: int) -> float:
    """The reach of cohort_sum_S's pass: 1/2 sqrt(800 n / (4k)), the
    largest distance from (1/2)Z of generator 0's phase x of a vector that
    _cohort_terms keeps.

    Proof.  The screen keeps a vector unless fl(fl(-q top) top) < -200, q =
    fl(k/n) and top the largest of the exact distances |2X_j -
    rint(2X_j)|; so a kept vector has 4 q top^2 <= 800 / (1 - u)^2, u =
    2^-53.  Doubling is exact, so top >= |2x - rint(2x)| = 2 dist(x,
    (1/2)Z), and dist(x, (1/2)Z) <= 1/2 sqrt(200 / q) / (1 - u), which the
    three roundings of the reach and its factor 1 + 2^-20 cover.  At k = 0
    every term is kept and the reach is 1/4, the whole box.
    """
    q = float(k) / n
    return 0.5 * math.sqrt(-_UNDERFLOW / 4.0 / q) * (1.0 + 2.0**-20) if q else 0.25


def cohort_sum_S(G: GeneratorMatrix, k: int, M: int) -> tuple[float, bool]:
    """Gaussian-weighted frequency sum
    S = sum over 0 < ||h||_inf <= M of exp(-(4k/n) {2Ah}^2) / R(h)
    with {.} the Euclidean nearest-integer distance, and the check
    S <= 0.5/(M+1) that the truncation analysis requires.

    This is the actual sum, not a chained over-estimate of it: each term
    is computed as the definition has it (math.hypot, math.exp), except
    those that provably underflow to +0.0, which math.fsum would ignore.
    The pass yields only the vectors whose term the numpy screen of
    _cohort_terms may keep (_cohort_reach), and the screen drops those
    that remain.  At the paper's M every term underflows.
    """
    fallback, reach = "a smaller --k or --ca", lambda terms, pnorm: _cohort_reach(G.n, k)
    terms = _box_terms(G, k, "M", M, "cohort sum", fallback, _cohort_terms, reach)
    s = 2.0 * math.fsum(np.concatenate(terms).tolist())
    return s, s <= 0.5 / (M + 1)


def fit_decay_exponent(series) -> float:
    """Least-squares slope of log D against log k for a (k, D) series."""
    pts = [(float(k), float(dv)) for k, dv in series]
    if len(pts) < 3:
        raise ValidationError("need at least 3 points to fit a decay exponent")
    ks = [k for k, _ in pts]
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("k values must be strictly increasing")
    if any(k <= 0 or dv <= 0 for k, dv in pts):
        raise ValidationError("k and D values must be positive")
    logk = np.log([k for k, _ in pts])
    logd = np.log([dv for _, dv in pts])
    slope, _ = np.polyfit(logk, logd, 1)
    return float(slope)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one (matrix, k) pair, serializable to JSON."""

    n: int
    d: int
    k: int
    lower: float
    upper: float | None = None
    c_a: float | None = None
    c_a_certified_up_to: int | None = None
    M: int | None = None
    s_value: float | None = None
    lemma_ok: bool | None = None


def bound_report(
    G: GeneratorMatrix,
    k: int,
    c_a: float | None = None,
    c_a_certified_up_to: int | None = None,
) -> BoundReport:
    """Evaluate every applicable bound for G at step count k."""
    check_certification_range(c_a_certified_up_to)
    n, d = G.n, G.d
    lower = theorem1_lower_bound(n, d, k)
    if c_a is None:
        return BoundReport(n=n, d=d, k=k, lower=lower)
    M = choose_M(n, d, c_a, k)
    s_value, lemma_ok = cohort_sum_S(G, k, M)
    return BoundReport(
        n=n,
        d=d,
        k=k,
        lower=lower,
        upper=theorem2_upper_bound(n, d, c_a, k),
        c_a=c_a,
        c_a_certified_up_to=c_a_certified_up_to,
        M=M,
        s_value=s_value,
        lemma_ok=lemma_ok,
    )
