"""Acceptance suite: one test per numbered criterion.

Each test is an end-to-end check of a user-visible guarantee; a summary
line per criterion is printed at the end of the run (see conftest).
"""

import itertools
import json
import math

import numpy as np
import pytest

from toruswalk import (
    ScanConfig,
    builtin_generators,
    choose_M,
    cohort_sum_S,
    dirichlet_search,
    discrepancy_exact,
    discrepancy_grid,
    estimate_bad_constant,
    exact_walk_distribution,
    fit_decay_exponent,
    nearest_integer_distance,
    project_to_torus,
    qhat,
    run_scan,
    theorem1_lower_bound,
    theorem2_upper_bound,
)

from conftest import enumerate_walk_counts, random_point_set

GOLDEN = builtin_generators("golden", 1, 1)


def _fixture_distributions():
    """(G, L) pairs over small dimensions, step counts, and seeds."""
    for n, d in itertools.product((1, 2, 3), (1, 2)):
        for seed in (11, 22, 33):
            G = builtin_generators("random", n, d, seed=seed)
            for k in range(7):
                yield G, exact_walk_distribution(G, k)


def test_criterion_01_path_enumeration_oracle():
    # the lattice counts depend only on (n, k); still exercise every matrix
    oracle = {}
    for G, L in _fixture_distributions():
        key = (G.n, L.k)
        if key not in oracle:
            oracle[key] = enumerate_walk_counts(*key)
        assert L.counts == oracle[key]


def test_criterion_02_normalization_and_symmetry():
    for G, L in _fixture_distributions():
        assert sum(L.counts.values()) == (2 * G.n) ** L.k
        for m, c in L.counts.items():
            assert L.counts[tuple(-v for v in m)] == c


def _fourier_gap(G, k, hbound=5):
    P = project_to_torus(exact_walk_distribution(G, k), G)
    X = np.array([pt for pt, _ in P.atoms])
    w = np.array([wt for _, wt in P.atoms])
    worst = 0.0
    for h in itertools.product(range(-hbound, hbound + 1), repeat=G.d):
        emp = float(w.dot(np.cos(2 * math.pi * X.dot(np.array(h, dtype=float)))))
        worst = max(worst, abs(emp - qhat(G, h) ** k))
    return worst


def test_criterion_03_fourier_consistency():
    for k in range(1, 1001):
        assert _fourier_gap(GOLDEN, k) <= 1e-9
    SP12 = builtin_generators("sqrt_primes", 1, 2)
    for k in range(1, 13):
        assert _fourier_gap(SP12, k) <= 1e-9


def _walk_discrepancy(G, k):
    return discrepancy_exact(project_to_torus(exact_walk_distribution(G, k), G)).value


def test_criterion_04_lower_bound_never_violated():
    cases = [(GOLDEN, range(1, 31))]
    cases.append((builtin_generators("sqrt_primes", 1, 2), range(1, 9)))
    cases.append((builtin_generators("sqrt_primes", 2, 2), range(1, 9)))
    dims = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 2)]
    for seed, (n, d) in enumerate(dims):
        cases.append((builtin_generators("random", n, d, seed=100 + seed), range(1, 9)))
    for G, ks in cases:
        for k in ks:
            assert _walk_discrepancy(G, k) >= theorem1_lower_bound(G.n, G.d, k)


def test_criterion_05_upper_bound_with_certified_constant():
    est = estimate_bad_constant(GOLDEN, 10**5)
    # independent scan of h * {h alpha} over the same range
    h = np.arange(1, 10**5 + 1, dtype=float)
    x = h * GOLDEN.row(0)[0]
    oracle = float(np.min(np.abs(x - np.round(x)) * h))
    assert est.c_est == pytest.approx(oracle, abs=1e-12)
    assert est.c_est == pytest.approx(0.3819660113, abs=1e-9)
    assert est.argmin_h == (1,)
    c_a = 0.437  # valid for every frequency except h = +-1 (see ledger)
    for k in (100, 1000, 10000):
        assert _walk_discrepancy(GOLDEN, k) <= theorem2_upper_bound(1, 1, c_a, k)


def test_criterion_06_truncated_tail_sum_small():
    for k in (10**3, 10**4, 10**5):
        M = choose_M(1, 1, 0.437, k)
        s, ok = cohort_sum_S(GOLDEN, k, M)
        assert ok
        assert s <= 0.5 / (M + 1)


def test_criterion_07_pigeonhole_search_postconditions():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        q = float(rng.uniform(1.0, 10.0))
        G = builtin_generators("random", n, d, seed=int(rng.integers(0, 2**31)))
        h = dirichlet_search(G, q)
        assert 0 < max(abs(v) for v in h) <= int(math.floor(q ** (n / d)))
        sup, _ = nearest_integer_distance(G.as_array().dot(h))
        assert sup < 1.0 / q


def test_criterion_08_grid_estimator_sandwich():
    rng = np.random.Generator(np.random.PCG64(88))
    for case in range(20):
        d = 1 + case % 2
        P = random_point_set(rng, int(rng.integers(5, 201)), d)
        lo = discrepancy_grid(P, 512)
        exact = discrepancy_exact(P).value
        assert lo <= exact + 1e-12
        assert exact <= lo + d * (2.0 / 512) + 1e-12


def test_criterion_09_known_discrepancy_values():
    from toruswalk.walk import WeightedPointSet

    mass = WeightedPointSet(d=1, atoms=(((0.3,), 1.0),), provenance="exact")
    assert discrepancy_exact(mass).value == 1.0
    for m in (2, 4, 8):
        P = WeightedPointSet(
            d=1, atoms=tuple(((i / m,), 1.0 / m) for i in range(m)), provenance="exact"
        )
        assert discrepancy_exact(P).value == pytest.approx(1.0 / m, abs=1e-12)
    assert _walk_discrepancy(GOLDEN, 1) == pytest.approx(0.7639320225, abs=1e-9)


def test_criterion_10_decay_exponent_near_sqrt():
    pts = [(k, _walk_discrepancy(GOLDEN, k)) for k in (256, 512, 1024, 2048, 4096, 8192)]
    slope = fit_decay_exponent(pts)
    assert -0.6 <= slope <= -0.4


def test_criterion_11_rational_walk_does_not_equidistribute():
    G = builtin_generators("rational(3)", 1, 1)
    lattice = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
    worst_d = math.inf
    for k in range(1, 101):
        P = project_to_torus(exact_walk_distribution(G, k), G)
        for (x,), _ in P.atoms:
            assert min(abs(x - t) for t in lattice) <= 1e-9
        if k >= 10:
            worst_d = min(worst_d, discrepancy_exact(P).value)
    assert worst_d >= 0.3


def test_criterion_12_reports_reproducible(tmp_path):
    from toruswalk.scan import write_report

    cfg = ScanConfig(builtin="golden", k_schedule=[16, 64, 256, 1024], seed=5)
    paths = []
    for run in ("a", "b"):
        out = tmp_path / run
        write_report(run_scan(cfg), out)
        paths.append(out)
    a, b = paths
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    da = json.loads((a / "report.json").read_text())
    db = json.loads((b / "report.json").read_text())
    da.pop("generated_at")
    db.pop("generated_at")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
