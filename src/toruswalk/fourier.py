"""Fourier coefficients of the step measure and the discrepancy bounds
they feed: a single-frequency lower bound and the Erdos-Turan-Koksma
upper bound.

Frequency boxes are always iterated in a fixed lexicographic order and
summed with math.fsum so results are deterministic bit for bit.
"""

from __future__ import annotations

import itertools
import math

from .errors import ValidationError, check_box_size
from .generators import GeneratorMatrix

FREQ_BOX_CAP = 2_000_000

TWO_PI = 2.0 * math.pi


def _check_h(G: GeneratorMatrix, h) -> tuple:
    h = tuple(int(v) for v in h)
    if len(h) != G.d:
        raise ValidationError(f"frequency vector has {len(h)} coordinates, expected {G.d}")
    return h


def qhat(G: GeneratorMatrix, h) -> float:
    """Fourier coefficient of the step measure: (1/n) sum_j cos(2 pi h.alpha_j).

    Real by the +-alpha symmetry; exactly 1 at h = 0.
    """
    h = _check_h(G, h)
    return math.fsum(
        math.cos(TWO_PI * math.fsum(hi * a for hi, a in zip(h, row))) for row in G.entries
    ) / G.n


def weight_R(h) -> int:
    """Product over all coordinates of max(1, |h_i|)."""
    r = 1
    for v in h:
        r *= max(1, abs(int(v)))
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
    if k < 0:
        raise ValidationError("k must be >= 0")
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


def frequency_box(d: int, bound: int):
    """Nonzero integer vectors with sup norm <= bound, lexicographic order."""
    for h in itertools.product(range(-bound, bound + 1), repeat=d):
        if any(v != 0 for v in h):
            yield h


def best_fourier_lower_bound(G: GeneratorMatrix, k: int, hmax: int):
    """Max of the default single-frequency bound over 0 < ||h||_inf <= hmax.

    Returns (value, h); ties go to the lexicographically smallest h.
    """
    if hmax < 1:
        raise ValidationError("hmax must be >= 1")
    best_val, best_h = -math.inf, None
    for h in frequency_box(G.d, hmax):
        v = single_h_lower_bound(G, k, h)
        if v > best_val:
            best_val, best_h = v, h
    return best_val, best_h


def etk_upper_bound(
    G: GeneratorMatrix, k: int, M: int, box_cap: int = FREQ_BOX_CAP
) -> float:
    """Erdos-Turan-Koksma bound:
    (3/2)^d (2/(M+1) + sum over 0 < ||h||_inf <= M of |qhat|^k / R(h)).
    """
    if M < 1:
        raise ValidationError("M must be >= 1")
    if k < 0:
        raise ValidationError("k must be >= 0")
    check_box_size("frequency", M, G.d, box_cap)
    terms = [abs(qhat(G, h)) ** k / weight_R(h) for h in frequency_box(G.d, M)]
    return (1.5 ** G.d) * (2.0 / (M + 1) + math.fsum(terms))
