import math
import tracemalloc

import pytest

from conftest import enumerate_walk_counts
from toruswalk import walk
from toruswalk import (
    CapExceededError,
    LatticeDistribution,
    ValidationError,
    builtin_generators,
    exact_walk_distribution,
    load_generators,
    pointset_from_csv_text,
    pointset_to_csv_text,
    project_to_torus,
    qhat,
    simulate_walk,
)

GOLDEN = builtin_generators("golden", 1, 1)


def test_empty_walk():
    L = exact_walk_distribution(GOLDEN, 0)
    assert L.counts == {(0,): 1}
    assert L.denominator == 1


def test_two_steps_one_generator():
    L = exact_walk_distribution(GOLDEN, 2)
    assert L.counts == {(-2,): 1, (0,): 2, (2,): 1}
    assert L.denominator == 4


def test_one_step_two_generators():
    G = load_generators([[0.1, 0.2], [0.3, 0.4]])
    L = exact_walk_distribution(G, 1)
    assert L.counts == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
    assert L.denominator == 4


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_counts_match_path_enumeration(n, d, k):
    G = builtin_generators("random", n, d, seed=100 * n + d)
    L = exact_walk_distribution(G, k)
    assert L.counts == enumerate_walk_counts(n, k)
    L.check()


def test_state_cap_guard():
    G = load_generators([[0.1], [0.2], [0.3], [0.4], [0.5]])
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(G, 100)


def test_bit_cap_guard_refuses_before_counting():
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(GOLDEN, 10**6)


def test_bit_cap_guard_boundary(monkeypatch):
    # the guard compares the bound k(k+1) on the count bits with the cap,
    # and the cap admits k = 2^16
    assert 2**16 * (2**16 + 1) <= walk.WALK_BITS_CAP
    monkeypatch.setattr(walk, "WALK_BITS_CAP", 3 * 4)
    assert exact_walk_distribution(GOLDEN, 3).counts == enumerate_walk_counts(1, 3)
    monkeypatch.setattr(walk, "WALK_BITS_CAP", 3 * 4 - 1)
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(GOLDEN, 3)


def test_negative_k_rejected():
    with pytest.raises(ValidationError):
        exact_walk_distribution(GOLDEN, -1)


def test_projection_golden():
    L = exact_walk_distribution(GOLDEN, 2)
    P = project_to_torus(L, GOLDEN)
    weights = dict(P.atoms)
    alpha = GOLDEN.entries[0][0]
    two_alpha = 2 * alpha - math.floor(2 * alpha)
    assert weights[(two_alpha,)] == 0.25
    assert two_alpha == pytest.approx(0.23606797749979, abs=1e-13)
    assert weights[(0.0,)] == 0.5


def test_projection_merges_half():
    G = load_generators([[0.5]])
    P = project_to_torus(exact_walk_distribution(G, 2), G)
    assert P.atoms == (((0.0,), 1.0),)


def test_projection_third():
    G = load_generators([[1.0 / 3.0]])
    P = project_to_torus(exact_walk_distribution(G, 2), G)
    weights = {pt[0]: w for pt, w in P.atoms}
    assert len(weights) == 3
    expected = {0.0: 0.5, 1.0 / 3.0: 0.25, 2.0 / 3.0: 0.25}
    for x, w in expected.items():
        (match,) = [v for p, v in weights.items() if abs(p - x) < 1e-12]
        assert match == w


def test_projection_weight_normalization():
    for k in (1, 5, 20, 137):
        P = project_to_torus(exact_walk_distribution(GOLDEN, k), GOLDEN)
        assert P.total_weight() == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= pt[0] < 1.0 for pt, _ in P.atoms)


def test_simulate_no_steps():
    P = simulate_walk(GOLDEN, 0, trials=100, seed=7)
    assert P.atoms == (((0.0,), 1.0),)
    assert P.provenance == "empirical"


def test_simulate_forced_support():
    G = load_generators([[0.5]])
    P = simulate_walk(G, 1, trials=10**5, seed=1)
    assert P.atoms == (((0.5,), 1.0),)


def test_simulate_matches_exact_distribution():
    exact = dict(project_to_torus(exact_walk_distribution(GOLDEN, 4), GOLDEN).atoms)
    emp = dict(simulate_walk(GOLDEN, 4, trials=10**6, seed=3).atoms)
    assert set(emp) == set(exact)
    for pt, w in exact.items():
        assert emp[pt] == pytest.approx(w, abs=3e-3)


@pytest.mark.parametrize("n,k", [(2, 5), (3, 4)])
def test_simulate_matches_path_enumeration(n, k):
    # sqrt_primes with d = 1 projects distinct coefficient vectors to
    # distinct points, so each atom's weight is one coefficient vector's.
    G = builtin_generators("sqrt_primes", n, 1)
    counts = enumerate_walk_counts(n, k)
    L = LatticeDistribution(k=k, n=n, counts=counts, denominator=(2 * n) ** k)
    exact = dict(project_to_torus(L, G).atoms)
    assert len(exact) == len(counts)
    trials, delta = 10**6, 1e-9
    emp = dict(simulate_walk(G, k, trials=trials, seed=2024).atoms)
    assert set(emp) <= set(exact)
    # Hoeffding for each atom's frequency, union bound over the atoms
    radius = math.sqrt(math.log(2 * len(exact) / delta) / (2 * trials))
    for pt, w in exact.items():
        assert abs(emp.get(pt, 0.0) - w) <= radius


def test_simulate_memory_does_not_grow_with_k():
    peaks = []
    for k in (20, 20_000):
        tracemalloc.start()
        try:
            simulate_walk(GOLDEN, k, trials=1000, seed=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a trials x k draw matrix at k = 20 000 would be 160 MB
    assert peaks[1] < peaks[0] + 2**20


def test_simulate_deterministic():
    a = simulate_walk(GOLDEN, 6, trials=5000, seed=11)
    b = simulate_walk(GOLDEN, 6, trials=5000, seed=11)
    c = simulate_walk(GOLDEN, 6, trials=5000, seed=12)
    assert a.atoms == b.atoms
    assert a.atoms != c.atoms


def test_fourier_consistency_cross_module():
    G = builtin_generators("sqrt_primes", 1, 2)
    for k in (0, 1, 3, 7):
        P = project_to_torus(exact_walk_distribution(G, k), G)
        for h in [(1, 0), (0, 1), (2, -3), (5, 5), (-4, 1)]:
            lhs = math.fsum(
                w * math.cos(2 * math.pi * (h[0] * pt[0] + h[1] * pt[1]))
                for pt, w in P.atoms
            )
            assert lhs == pytest.approx(qhat(G, h) ** k, abs=1e-9)


def test_diagonal_walk_stays_on_diagonal():
    G = builtin_generators("diagonal:0.32", 1, 3)
    P = project_to_torus(exact_walk_distribution(G, 5), G)
    for pt, _ in P.atoms:
        assert pt[0] == pt[1] == pt[2]


def test_pointset_csv_round_trip():
    P = project_to_torus(exact_walk_distribution(GOLDEN, 9), GOLDEN)
    back = pointset_from_csv_text(pointset_to_csv_text(P))
    assert back.atoms == P.atoms
    assert back.d == P.d
