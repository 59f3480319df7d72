"""The benchmark's oracles against the brute-force oracles of tests/conftest.py.

    python3 -m pytest -q perfbench

Tiny inputs only; the oracles run at full size inside the benchmark.
"""

import importlib.util
import itertools
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "toruswalk_brute_oracles", os.path.join(ROOT, "tests", "conftest.py")
)
brute = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(brute)


def _arrays(P):
    return np.array([p for p, _ in P.atoms]), np.array([w for _, w in P.atoms])


def _on_grid(rng, n_atoms, d, r):
    """Weighted points, some of them exactly on grid lines i/r."""
    P = brute.random_point_set(rng, n_atoms, d)
    pts, w = _arrays(P)
    pts[::2] = rng.integers(0, r, size=pts[::2].shape) / r
    return pts, w


@pytest.mark.parametrize("k", range(0, 9))
def test_lattice_n1_matches_path_enumeration(k):
    m, w = oracles.lattice_n1(k)
    counts = brute.enumerate_walk_counts(1, k)
    assert {tuple(int(v) for v in row): wt for row, wt in zip(m, w)} == {
        mm: c / 2 ** k for mm, c in counts.items()
    }


@pytest.mark.parametrize("k", range(0, 6))
def test_lattice_n2_matches_path_enumeration(k):
    m, w = oracles.lattice_n2(k)
    got = {tuple(int(v) for v in row): wt for row, wt in zip(m, w)}
    want = {mm: c / 4 ** k for mm, c in brute.enumerate_walk_counts(2, k).items()}
    assert got.keys() == want.keys()
    for mm, wt in want.items():
        assert got[mm] == pytest.approx(wt, rel=1e-15)


def test_binomial_row_drops_only_negligible_terms():
    j, w = oracles.binomial_row(4096)
    edge = math.comb(4096, int(j[0]) - 1) / 2 ** 4096
    # tail terms shrink away from the centre, so each tail weighs <= j0 * edge
    assert 0 < j[0] == 4096 - j[-1] and edge < 2.0 ** -200 and j[0] * edge < 1e-50
    assert w[len(w) // 2] == math.comb(4096, int(j[len(w) // 2])) / 2 ** 4096


@pytest.mark.parametrize("seed", range(8))
def test_disc_1d_matches_candidate_boxes(seed):
    rng = np.random.default_rng(seed)
    pts, w = _on_grid(rng, 7, 1, 4)
    pts[0, 0] = 0.0
    P = brute.WeightedPointSet(d=1, atoms=tuple((tuple(p), x) for p, x in zip(pts, w)), provenance="exact")
    assert oracles.disc_1d(pts[:, 0], w) == pytest.approx(brute.brute_discrepancy_exact(P), abs=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_disc_2d_matches_candidate_boxes(seed):
    rng = np.random.default_rng(100 + seed)
    pts, w = _on_grid(rng, 5, 2, 3)
    P = brute.WeightedPointSet(d=2, atoms=tuple((tuple(p), x) for p, x in zip(pts, w)), provenance="exact")
    assert oracles.disc_2d(pts, w) == pytest.approx(brute.brute_discrepancy_exact(P), abs=1e-14)


@pytest.mark.parametrize("d,r", [(1, 8), (1, 5), (2, 4), (2, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_disc_grid_matches_every_grid_box(d, r, seed):
    rng = np.random.default_rng(200 + seed)
    pts, w = _on_grid(rng, 6, d, r)
    P = brute.WeightedPointSet(d=d, atoms=tuple((tuple(p), x) for p, x in zip(pts, w)), provenance="exact")
    assert oracles.disc_grid(pts, w, r) == pytest.approx(brute.brute_discrepancy_grid(P, r), abs=1e-14)


A2 = np.array([[0.41421356237309515, 0.7320508075688772], [0.2360679774997898, 0.6457513110645907]])
A1 = np.array([[0.41421356237309515], [0.7320508075688772]])


def _box(d, hmax):
    return [h for h in itertools.product(range(-hmax, hmax + 1), repeat=d) if any(h)]


@pytest.mark.parametrize("A", [A1, A2, np.array([[0.6180339887498949]])])
def test_bad_constant_matches_definition(A):
    n, d = A.shape
    want = min(
        max(abs(x - round(x)) for x in (sum(hi * a for hi, a in zip(h, row)) for row in A))
        * max(abs(v) for v in h) ** (d / n)
        for h in _box(d, 6)
    )
    assert oracles.bad_constant(A, 6) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("A", [A1, A2])
@pytest.mark.parametrize("k,M", [(3, 2), (40, 4)])
def test_fourier_sums_match_definition(A, k, M):
    n, d = A.shape
    R = [math.prod(max(1, abs(v)) for v in h) for h in _box(d, M)]
    q = [sum(math.cos(2 * math.pi * sum(hi * a for hi, a in zip(h, row))) for row in A) / n for h in _box(d, M)]
    etk = 1.5 ** d * (2.0 / (M + 1) + sum(abs(v) ** k / r for v, r in zip(q, R)))
    assert oracles.etk(A, k, M) == pytest.approx(etk, rel=1e-12)
    euc2 = [
        sum((x - round(x)) ** 2 for x in (2 * sum(hi * a for hi, a in zip(h, row)) for row in A))
        for h in _box(d, M)
    ]
    cohort = sum(math.exp(-(4.0 * k / n) * e) / r for e, r in zip(euc2, R))
    assert oracles.cohort(A, k, M) == pytest.approx(cohort, rel=1e-12)
