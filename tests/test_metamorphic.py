"""Metamorphic relations of the discrepancy at sizes no brute oracle reaches.

The brute oracles of conftest.py run on tens of atoms; the strip tree of
discrepancy._blocks prunes only at larger sizes.  There the law of the walk
and the box family give relations that need no oracle: sqrt_primes n=d=2
at k = 31, 32 and 63 (1024 to 4096 atoms), exact D with the budget lifted,
and grid(256) at k = 32.

Tolerances, none fitted.  _blocks states that a computed box value lies
within its margin, _MARGIN * max(1, M) * max(1, 2^d * sum(shape) / 256)
for total mass M and shape the face counts plus one, of the box's exact
value, and that the tree returns the full enumeration's value; so the
computed D lies within that margin of the exact supremum over the
estimator's boxes.  The deficit branch's faces, the atoms' coordinates and
0 and 1, are at least as many as the excess branch's, so their margin
covers both branches (_exact_margin).

- Permuting the generators permutes the two products of each phase
  fl(m_1 alpha_1j) + fl(m_2 alpha_2j), and float addition commutes: the
  points and weights are bit-identical arrays, and discrepancy_exact reads
  nothing else, so value, witness and direction are bit-identical too.
  The arrays are compared, which is the stronger check (it also sees a
  change of order), and no second D is computed.
- Swapping the coordinates of every atom maps boxes to boxes, so the
  exact supremum is the same; only the order of the summed-area table's
  sums changes.  Two computed values differ by at most the sum of their
  margins.  The grid's boxes, [i/r, j/r) on every axis, map to grid boxes
  too, with the same bound on the grid's own faces.
- Reflecting axis 0, x_0 -> 1 - x_0, maps the closed and open boxes in
  [0, 1]^2 to boxes of the same kind, so the exact supremum is the same for
  the exactly reflected set, if no atom lies at x_0 = 0 (none does at odd
  k: m_1 + m_2 is odd, so m = 0 is not reached and m . alpha_0 is not an
  integer).  fl(1 - x_0) is exact for x_0 >= 1/2 (Sterbenz) and otherwise
  lies in [1/2, 1], off by at most 2^-54.  Moving each atom by at most eps
  moves D by at most 2 d eps (see walk.project_to_torus), so the two
  computed values differ by at most the two margins plus 2 d 2^-54.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest

from toruswalk import discrepancy, errors
from toruswalk import (
    builtin_generators,
    discrepancy_exact,
    discrepancy_grid,
    exact_walk_distribution,
    load_generators,
    project_to_torus,
)
from toruswalk.walk import WeightedPointSet

SQRT_PRIMES = builtin_generators("sqrt_primes", 2, 2)


def _unbudgeted(estimator, *args):
    with mock.patch.object(errors, "BUDGET", math.inf):
        return estimator(*args)


def _walk(G, k):
    return project_to_torus(exact_walk_distribution(G, k), G)


@functools.cache
def _sqrt_primes(k):
    """The sqrt_primes n=d=2 point set at k and its exact discrepancy."""
    P = _walk(SQRT_PRIMES, k)
    return P, _unbudgeted(discrepancy_exact, P)


def _margin(P, faces):
    """_blocks' rounding margin on these faces for P's total mass."""
    size = sum(f.size + 1 for f in faces)
    return discrepancy._MARGIN * max(1.0, P.total_weight()) * max(1.0, 2**P.d * size / 256)


def _exact_margin(P):
    faces = [discrepancy._distinct(np.concatenate((P.points[:, ax], [0.0, 1.0]))) for ax in range(P.d)]
    return _margin(P, faces)


def _grid_margin(P, resolution):
    return _margin(P, [discrepancy._grid_candidates(P.points[:, ax], resolution) for ax in range(P.d)])


def _with_points(P, points):
    return WeightedPointSet(P.d, provenance=P.provenance, points=points, weights=P.weights)


@pytest.mark.parametrize("k", [31, 32, 63])
def test_generator_swap_is_bit_identical(k):
    P = _walk(SQRT_PRIMES, k)
    G = load_generators(SQRT_PRIMES.entries[::-1])
    Q = _walk(G, k)
    assert np.array_equal(Q.points, P.points) and np.array_equal(Q.weights, P.weights)


@pytest.mark.parametrize("k", [31, 32, 63])
def test_coordinate_swap_keeps_the_exact_value(k):
    P, res = _sqrt_primes(k)
    Q = _with_points(P, P.points[:, ::-1])
    swapped = _unbudgeted(discrepancy_exact, Q)
    assert abs(swapped.value - res.value) <= _exact_margin(P) + _exact_margin(Q)


@pytest.mark.parametrize("k", [31, 63])
def test_reflection_at_odd_k_keeps_the_exact_value(k):
    P, res = _sqrt_primes(k)
    assert P.points[:, 0].min() > 0.0
    points = P.points.copy()
    points[:, 0] = 1.0 - points[:, 0]
    assert points[:, 0].max() < 1.0
    Q = _with_points(P, points)
    reflected = _unbudgeted(discrepancy_exact, Q)
    assert abs(reflected.value - res.value) <= _exact_margin(P) + _exact_margin(Q) + 2 * P.d * 2.0**-54


def test_coordinate_swap_keeps_the_grid_value():
    P, _ = _sqrt_primes(32)
    Q = _with_points(P, P.points[:, ::-1])
    value, swapped = discrepancy_grid(P, 256), discrepancy_grid(Q, 256)
    assert abs(swapped - value) <= _grid_margin(P, 256) + _grid_margin(Q, 256)
