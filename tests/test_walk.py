import math
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import enumerate_walk_counts, project_counts, random_point_set
from toruswalk import errors, walk
from toruswalk import (
    CapExceededError,
    LatticeDistribution,
    ValidationError,
    builtin_generators,
    discrepancy_exact,
    discrepancy_grid,
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


@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("k", [0, 1, 3, 5])
def test_counts_match_path_enumeration(n, d, k):
    G = builtin_generators("random", n, d, seed=100 * n + d)
    L = exact_walk_distribution(G, k)
    assert L.counts == enumerate_walk_counts(n, k)


@pytest.mark.parametrize("n,k", [(4, 4), (5, 3)])
def test_split_counts_match_path_enumeration(n, k):
    G = builtin_generators("random", n, 1, seed=n)
    assert exact_walk_distribution(G, k).counts == enumerate_walk_counts(n, k)


def test_counts_are_a_read_only_mapping():
    L = exact_walk_distribution(GOLDEN, 4)
    assert len(L.counts) == 5 and L.counts[(0,)] == 6 and (1,) not in L.counts
    with pytest.raises(TypeError):
        L.counts[(0,)] = 7


def _no_rows(*args):
    raise AssertionError("counts were built")


def test_state_cap_guard(monkeypatch):
    # n = 5, k = 2: 51 reachable rows of 5 coordinates at PER_CALL = 64 each,
    # plus the 5^5 cells of the dense split table
    G = load_generators([[0.1], [0.2], [0.3], [0.4], [0.5]])
    monkeypatch.setattr(errors, "BUDGET", 64 * 5 * 51 + 5**5)
    assert exact_walk_distribution(G, 2).counts == enumerate_walk_counts(5, 2)
    monkeypatch.setattr(errors, "BUDGET", 64 * 5 * 51 + 5**5 - 1)
    monkeypatch.setattr(walk, "_rows", _no_rows)
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(G, 2)
    monkeypatch.undo()
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(G, 100)


def test_bit_cap_guard_refuses_before_counting(monkeypatch):
    # the n = 1 walk is priced by its window of about 39 sqrt(k) rows; reading
    # every count is priced apart, at k(k+1)/64 words more
    monkeypatch.setattr(walk, "_rows", _no_rows)
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(GOLDEN, 10**10)
    L = exact_walk_distribution(GOLDEN, 10**6)  # admitted, nothing counted
    with pytest.raises(CapExceededError, match=r"exact counts of the walk \(n=1, k=1000000\)"):
        L.counts
    assert exact_walk_distribution(GOLDEN, 2**16).k == 2**16


def test_bit_cap_guard_boundary(monkeypatch):
    # n = 1, k = 8: the walk is 9 rows at PER_CALL = 64 each; its counts, which
    # both L.counts and the projection's exact fallback build, 8 * 9 // 64 = 1 word more
    monkeypatch.setattr(errors, "BUDGET", 64 * 9 + 1)
    assert exact_walk_distribution(GOLDEN, 8).counts == enumerate_walk_counts(1, 8)
    monkeypatch.setattr(errors, "BUDGET", 64 * 9)
    monkeypatch.setattr(walk, "_rows", _no_rows)
    L = exact_walk_distribution(GOLDEN, 8)
    with pytest.raises(CapExceededError, match="simulate_walk"):
        L.counts
    with pytest.raises(CapExceededError, match="simulate_walk"):
        project_to_torus(L, GOLDEN)
    monkeypatch.setattr(errors, "BUDGET", 64 * 9 - 1)
    with pytest.raises(CapExceededError, match="simulate_walk"):
        exact_walk_distribution(GOLDEN, 8)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: exact_walk_distribution(GOLDEN, -1), ValidationError, "step count k must be >= 0"),
        (lambda: project_to_torus(LatticeDistribution(k=2, n=2), GOLDEN), ValidationError,
         "distribution has n=2 but matrix has n=1"),
        (lambda: walk.WeightedPointSet(2, provenance="exact"), TypeError, "needs atoms, or points and weights"),
    ],
    ids=["negative-k", "projection-n-mismatch", "point-set-without-arrays"],
)
def test_invalid_walk_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_constructed_distribution_checks_its_cost(monkeypatch):
    # the budget is the type's own: no constructor builds a count past it
    monkeypatch.setattr(walk, "_rows", _no_rows)
    with pytest.raises(CapExceededError, match="simulate_walk"):
        LatticeDistribution(k=10**10, n=1)
    for k, n in [(-1, 1), (2, 0), (2, -1)]:
        with pytest.raises(ValidationError):
            LatticeDistribution(k=k, n=n)
    L = LatticeDistribution(k=2, n=2)
    assert L == exact_walk_distribution(load_generators([[0.1], [0.2]]), 2)
    assert L.denominator == 16


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


def _complete_atoms(G, k):
    """The projection of every count of the k-step walk, by the oracle."""
    L = exact_walk_distribution(G, k)
    return project_counts(G, dict(L.counts), L.denominator)


ONE_GENERATOR = ["golden", "sqrt_primes", "rational:3", "rational:7", "diagonal:0.32"]


# Weights 1/2^k round to 0.0 from k = 1075; from k = 1087 the counts are
# bracketed, up to the first whose weight rounds to 0.0.  _separated keeps
# golden's and sqrt_primes' rows apart; the rational and diagonal:0.32 walks
# take the exact fallback.
@pytest.mark.parametrize("family", ONE_GENERATOR)
@pytest.mark.parametrize("k", [1074, 1075, 1076, 1077, 1086, 1087, 1088, 2001, 4096, 4097, 8192, 8193])
def test_windowed_projection_matches_complete_n1(family, k):
    G = builtin_generators(family, 1, 1)
    assert project_to_torus(exact_walk_distribution(G, k), G).atoms == _complete_atoms(G, k)


# Weights 1/4^k round to 0.0 from k = 538; tau > 0 from k = 548.  Two
# generators take the exact fallback at every k, which builds every count.
@pytest.mark.parametrize(
    "family,d,k", [("sqrt_primes", 1, 538), ("sqrt_primes", 1, 548), ("rational:3", 2, 548), ("rational:7", 2, 548)]
)
def test_windowed_projection_matches_complete_n2(family, d, k):
    G = builtin_generators(family, 2, d)
    assert project_to_torus(exact_walk_distribution(G, k), G).atoms == _complete_atoms(G, k)


@pytest.mark.parametrize("family,d", [("sqrt_primes", 1), ("sqrt_primes", 2), ("rational:3", 2)])
@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_projection_matches_complete_n3(family, d, k):
    G = builtin_generators(family, 3, d)
    assert project_to_torus(exact_walk_distribution(G, k), G).atoms == _complete_atoms(G, k)


def _spy(monkeypatch, name):
    """The results of every call of walk.<name>, which still runs."""
    results = []
    real = getattr(walk, name)

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(walk, name, spy)
    return results


@pytest.mark.parametrize("family,d", [("golden", 1), ("sqrt_primes", 1), ("sqrt_primes", 2)])
@pytest.mark.parametrize("k", [1087, 1088, 2001, 4096, 4097, 8192, 8193])
def test_bracketed_projection_matches_complete(monkeypatch, family, d, k):
    G = builtin_generators(family, 1, d)
    expected = _complete_atoms(G, k)
    bracketed, exact = _spy(monkeypatch, "_bracketed_weights"), _spy(monkeypatch, "_exact_weights")
    assert project_to_torus(exact_walk_distribution(G, k), G).atoms == expected
    assert bracketed[0] is not None and exact == []


def test_each_k_about_the_window_start_takes_one_route(monkeypatch):
    # Near the cut the weights are subnormal dyadic numbers, and below
    # k = 1087 some are exact rounding ties that no relative bound decides:
    # from the first k whose last weight rounds to 0.0 to past the window's
    # start, the exact counts give every weight below k = 1087 and the
    # window alone from there, each the complete projection.
    exact = _spy(monkeypatch, "_exact_weights")
    for k in range(1075, 1201):
        exact.clear()
        atoms = project_to_torus(exact_walk_distribution(GOLDEN, k), GOLDEN).atoms
        assert atoms == _complete_atoms(GOLDEN, k), k
        assert (exact == []) == (k >= 1087), k


@pytest.mark.parametrize("mant", [56, 128])
@pytest.mark.parametrize("k", [1087, 1088, 2001, 4096, 4097, 2**15, 10**5 + 1, 10**6])
def test_centre_bracket_holds_the_centre_count(monkeypatch, mant, k):
    # mpmath at 600 bits stands in for C(k, floor(k/2)), which has up to k bits
    monkeypatch.setattr(walk, "_MANT", mant)
    m, e, t = walk._centre(k)
    assert m.bit_length() == mant
    # the width _centre states: t <= 2 units of 2^-(mant-1)
    assert 0 < t <= 2
    with mpmath.workprec(600):
        c = mpmath.binomial(k, k // 2)
        assert mpmath.ldexp(m, e) <= c <= mpmath.ldexp(m, e) / (1 - mpmath.ldexp(t, 1 - mant))


@pytest.mark.parametrize(
    "alpha", [0.0, 0.25, 0.5, 0.32, 1 / 3, 0.7, 1e-9, 1 - 2**-53, 0.6180339887498949, 0.41421356237309515]
)
def test_distance_to_integers_is_the_least_over_every_q(alpha):
    a, b = alpha.as_integer_ratio()
    for qmax in (1, 2, 3, 7, 25, 60, 400):
        least = min(min(q * a % b, b - q * a % b) for q in range(1, qmax + 1))
        assert walk._distance_to_integers(alpha, qmax) == (least, b)


def test_separation_holds_where_rows_cannot_meet():
    # golden: ||q alpha|| > 0.38 / q, far above (2k + 2) 2^-53 at k = 2^15; a
    # float 1/3 or 0.32 has ||3 alpha|| or ||25 alpha|| near 2^-53
    assert walk._separated(GOLDEN, 2**15)
    assert not walk._separated(GOLDEN, 10**8)
    for family in ("rational:3", "diagonal:0.32"):
        assert not walk._separated(builtin_generators(family, 1, 1), 2**11)
    # one coordinate is enough
    assert walk._separated(load_generators([[1 / 3, 0.6180339887498949]]), 2**15)


def _undecided(monkeypatch):
    """Widen every row's double-double bound past deciding any rounding, so
    the window decides no row."""
    real = walk._dd_weights

    def wide(k, centre):
        hi, lo, x, delta = real(k, centre)
        return hi, lo, x, np.ones_like(delta)

    monkeypatch.setattr(walk, "_dd_weights", wide)


# Rational generators: several rows share each point, so _separated fails.
# Golden and sqrt_primes with the double-double bound forced wide, at a 56-
# or 128-bit centre: a row the window cannot decide sends the whole walk to
# the exact counts, which give the same weights.
@pytest.mark.parametrize(
    "family,d,k,mant",
    [
        ("rational:3", 1, 2001, 128),
        ("rational:7", 1, 4097, 128),
        ("golden", 1, 4097, 56),
        ("sqrt_primes", 2, 4097, 56),
        *[(family, d, k, 128) for family, d in [("golden", 1), ("sqrt_primes", 2)] for k in (1087, 1088, 2001, 4097)],
    ],
)
def test_undecided_bracket_falls_back_to_exact_counts(monkeypatch, family, d, k, mant):
    G = builtin_generators(family, 1, d)
    expected = _complete_atoms(G, k)
    monkeypatch.setattr(walk, "_MANT", mant)
    _undecided(monkeypatch)
    bracketed, exact = _spy(monkeypatch, "_bracketed_weights"), _spy(monkeypatch, "_exact_weights")
    assert project_to_torus(exact_walk_distribution(G, k), G).atoms == expected
    assert bracketed == [None] and exact[0] is not None


@given(st.integers(1087, 40000))
@example(1087)
@example(1088)
@settings(max_examples=15, deadline=None)
def test_window_weights_are_the_correctly_rounded_counts(k):
    points, weights = walk._bracketed_weights(GOLDEN, k)
    window = weights[walk._runs(GOLDEN, walk._centre_out(k, len(weights)))[1]][k % 2 :: 2]
    # C(k, j) / 2^k correctly rounded (int / int), from the centre out to the
    # first weight that rounds to 0.0
    expected, j = [], k // 2
    c = math.comb(k, j)
    while j >= 0 and c / 2**k > 0.0:
        expected.append(c / 2**k)
        c = c * j // (k - j + 1)
        j -= 1
    assert window.tolist() == expected
    assert window[-1] < sys.float_info.min  # the subnormal tail is in the window


def test_rows_round_to_the_nearest_float_where_the_bound_decides():
    # double-doubles about every binade edge, subnormal ones and 0.0 among
    # them, against int / int of their exact values, which rounds correctly
    rng = np.random.default_rng(5)
    hi = np.concatenate([[1.0, 1.0, 0.5, 1.0, 1.5], rng.uniform(0.5, 2.0, 4000)])
    lo = np.concatenate([[-0.3, 0.3, -0.3, -0.2, 0.5], rng.uniform(-0.5, 0.5, 4000)])
    lo *= np.spacing(hi)
    lo[rng.random(len(lo)) < 0.3] = 0.0
    x = np.concatenate([[0, -1000, -1021, -1073, -1074], rng.integers(-1130, 2, 4000)])
    floats, decided = walk._round_rows(hi, lo, x, np.full(len(hi), 2.0**-80))
    assert decided.mean() > 0.99
    # below a power of two the float grid is twice as fine: 1 - 0.3 ulp(1)
    # rounds to 1 - 2^-53, which a bound of half a unit above would miss
    assert not decided[0]
    for h, l, e, f, ok in zip(hi.tolist(), lo.tolist(), x.tolist(), floats.tolist(), decided.tolist()):
        if ok:
            num, den = (Fraction(h) + Fraction(l)).as_integer_ratio()
            assert f == (num << e if e >= 0 else num) / (den if e >= 0 else den << -e)


@pytest.mark.parametrize("k", [1087, 4097, 2**15, 10**5 + 1])
def test_double_double_rows_lie_within_their_bound(k):
    hi, lo, x, delta = walk._dd_weights(k, walk._centre(k))
    assert np.all((0.5 < hi) & (hi < 2.0))  # scaled near 1: nothing underflows
    assert np.all(delta < 2.0**-80)
    sampled = {0, 1, 2, len(hi) // 2, len(hi) - 2, len(hi) - 1, *range(0, len(hi), 97)}
    j = k // 2
    count = math.comb(k, j)
    for i in range(len(hi)):
        if i in sampled:
            # |row - C(k, j) / 2^k| <= delta C(k, j) / 2^k in integers, as row 2^k = (a / b) 2^shift
            (a, b), shift = (Fraction(hi[i]) + Fraction(lo[i])).as_integer_ratio(), int(x[i]) + k
            dn, dd = Fraction(delta[i]).as_integer_ratio()
            assert abs((a << shift) - count * b) * dd <= dn * count * b
        count = count * j // (k - j + 1)
        j -= 1


def _no_window(*args):
    raise AssertionError("the window was walked")


# Without the separation certificate nothing keeps a left-out row off a
# window point, so no bracket is built: the exact counts decide every
# weight.
@pytest.mark.parametrize("k", [1100, 1200, 4096])
def test_unseparated_walk_falls_back_before_its_window(monkeypatch, k):
    expected = _complete_atoms(GOLDEN, k)
    monkeypatch.setattr(walk, "_separated", lambda G, k: False)
    for name in ("_centre", "_dd_weights"):
        monkeypatch.setattr(walk, name, _no_window)
    bracketed = _spy(monkeypatch, "_bracketed_weights")
    assert project_to_torus(exact_walk_distribution(GOLDEN, k), GOLDEN).atoms == expected
    assert bracketed == [None]


# rational:7's rows share seven torus points, so with the separation
# certificate forced the bracketed window still lands on fewer points than
# rows: that guard refuses it, and the exact counts decide every weight.
@pytest.mark.parametrize("k", [1087, 1088, 4097])
def test_window_on_shared_points_falls_back_to_exact_counts(monkeypatch, k):
    G = builtin_generators("rational:7", 1, 1)
    expected = _complete_atoms(G, k)
    monkeypatch.setattr(walk, "_separated", lambda G, k: True)
    bracketed = _spy(monkeypatch, "_bracketed_weights")
    assert project_to_torus(exact_walk_distribution(G, k), G).atoms == expected
    assert bracketed == [None]


@given(st.floats(0.0, 1.0, exclude_max=True), st.integers(1087, 6000))
@settings(max_examples=20, deadline=None)
def test_bracketed_atoms_equal_the_exact_fallback(alpha, k):
    G = load_generators([[alpha]])
    assume(walk._separated(G, k))
    L = exact_walk_distribution(G, k)
    with mock.patch.object(walk, "_bracketed_weights", lambda G, k: None):
        expected = project_to_torus(L, G).atoms
    found = walk._bracketed_weights(G, k)
    assert found is not None
    assert walk._pointset(G, *found, "exact").atoms == expected


def test_bracketed_projection_builds_no_exact_count(monkeypatch):
    k = 2**15
    L = exact_walk_distribution(GOLDEN, k)
    monkeypatch.setattr(walk, "_bracketed_weights", lambda G, k: None)
    expected = project_to_torus(L, GOLDEN).atoms  # from the exact counts
    monkeypatch.undo()
    built, combs = [], []
    pairs, comb = walk._binomial_pairs, math.comb

    def spy_pairs(*args):
        for c in pairs(*args):
            built.append(c)
            yield c

    def spy_comb(*args):
        combs.append(args)
        return comb(*args)

    monkeypatch.setattr(walk, "_binomial_pairs", spy_pairs)
    monkeypatch.setattr(math, "comb", spy_comb)
    atoms = project_to_torus(L, GOLDEN).atoms
    monkeypatch.undo()
    assert built == [] and combs == []
    assert atoms == expected


def test_projection_computes_phases_only_for_the_window(monkeypatch):
    phased, phases = [], walk._phases

    def spy(A, H, exact=False):
        phased.append(len(H))
        return phases(A, H, exact)

    monkeypatch.setattr(walk, "_phases", spy)
    atoms = len(project_to_torus(exact_walk_distribution(GOLDEN, 2**15), GOLDEN).weights)
    assert sum(phased) == atoms  # 6937 atoms of 32 769 vectors


def test_shared_run_sums_its_counts_before_one_division():
    # the vectors 0 and 2 both land on 0.  Over 2^1100, 3*2^25 - 1 alone rounds
    # to one subnormal unit and 2^25 to none, but their sum rounds to two.
    points, run = walk._runs(load_generators([[0.5]]), np.array([[0], [2]]))
    assert points.tolist() == [[0.0]]
    c, den = 3 * 2**25 - 1, 2**1100
    assert c / den + 2**25 / den != (c + 2**25) / den
    assert walk._exact_weights(run, iter([c, 2**25]), den) == [(c + 2**25) / den]


@pytest.mark.parametrize("family", ["golden", "rational:2", "rational:3"])
def test_projection_falls_back_to_every_count(monkeypatch, family):
    # a threshold 2^1000 times too high moves the gate and narrows the priced
    # window below the rows that survive: golden's pass finds no row that
    # rounds to 0.0, and the rational walks are not separated, so all three
    # build every exact count
    G = builtin_generators(family, 1, 1)
    expected = _complete_atoms(G, 1500)
    monkeypatch.setattr(walk, "_ZERO_EXP", 75)
    assert project_to_torus(exact_walk_distribution(G, 1500), G).atoms == expected


def test_projection_memory_follows_the_surviving_atoms():
    # every count at k = 2^16 would hold about 400 MB
    tracemalloc.start()
    try:
        P = project_to_torus(exact_walk_distribution(GOLDEN, 2**16), GOLDEN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(P.atoms) > 9000
    assert peak <= 32 * 2**20


def test_exact_fallback_holds_one_count_at_a_time():
    # rational:7 is not separated, so at k = 20 000 every count is built; all
    # of them together would hold about 50 MB
    G = builtin_generators("rational:7", 1, 1)
    L = exact_walk_distribution(G, 20_000)
    tracemalloc.start()
    try:
        P = project_to_torus(L, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(P.atoms) == 69 and P.total_weight() == pytest.approx(1.0)
    assert peak <= 8 * 2**20


def test_simulate_no_steps():
    for G in (GOLDEN, builtin_generators("sqrt_primes", 2, 2)):
        P = simulate_walk(G, 0, trials=100, seed=7)
        assert P.atoms == (((0.0,) * G.d, 1.0),)
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


# n = 1 and 2 draw only binomials, n = 4 two pairs, n = 3 and 5 pairs and a
# lone generator
@pytest.mark.parametrize("n,k", [(1, 7), (2, 5), (2, 6), (3, 4), (4, 4), (5, 4)])
def test_simulate_matches_path_enumeration(n, k):
    # sqrt_primes with d = 1 projects distinct coefficient vectors to
    # distinct points, so each atom's weight is one coefficient vector's.
    G = builtin_generators("sqrt_primes", n, 1)
    counts = enumerate_walk_counts(n, k)
    exact = dict(project_counts(G, counts, (2 * n) ** k))
    assert len(exact) == len(counts)
    trials, delta = 10**6 if n <= 3 else 5 * 10**5, 1e-9  # the budget's limit for n >= 4
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


def test_simulate_peak_memory(monkeypatch):
    # the draws are mapped to coefficients in place: up to _tally the walk
    # holds one trials x n int64 array (1.6 MB here), and a second would
    # pass the first bound; the whole walk peaks in _tally
    G = builtin_generators("sqrt_primes", 2, 1)
    draw_peaks, tally = [], walk._tally

    def spy(m):
        draw_peaks.append(tracemalloc.get_traced_memory()[1])
        return tally(m)

    monkeypatch.setattr(walk, "_tally", spy)
    tracemalloc.start()
    try:
        simulate_walk(G, 1024, trials=10**5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draw_peaks[0] <= 2.0e6
    assert peak <= 4.5e6


def _paired_draw(rng, n, k, trials):
    """The coefficient rows of simulate_walk's draw, mapped one trial at a
    time in Python integers: each pair (u, v) of Binomial(N, 1/2) draws
    gives (u + v - N, u - v), a lone draw w gives 2w - N."""
    if n <= 2:
        N = [[k]] * trials
        draws = rng.binomial(k, 0.5, size=(trials, n)).tolist()
    else:
        pair_counts = rng.multinomial(k, [2.0 / n] * (n // 2) + [1.0 / n] * (n % 2), size=trials)
        draws = rng.binomial(np.repeat(pair_counts, 2, axis=1)[:, :n], 0.5).tolist()
        N = pair_counts.tolist()
    rows = []
    for counts, x in zip(N, draws):
        m = []
        for i, c in enumerate(counts):
            uv = x[2 * i : 2 * i + 2]
            m += [uv[0] + uv[1] - c, uv[0] - uv[1]] if len(uv) == 2 else [2 * uv[0] - c]
        rows.append(tuple(m))
    return rows


@pytest.mark.parametrize(
    "n,d,k,trials",
    [(1, 1, 40, 5000), (2, 1, 40, 5000), (3, 2, 40, 5000), (4, 1, 2**40, 1000)],
    ids=["1-1", "2-1", "3-2", "4-1-past-the-key"],
)
def test_simulate_aggregates_each_distinct_draw(n, d, k, trials):
    # the same Philox calls, aggregated independently with a Counter
    G = builtin_generators("sqrt_primes", n, d)
    seed = 3
    rows = _paired_draw(np.random.Generator(np.random.Philox(key=seed)), n, k, trials)
    counts = Counter(rows)
    # at k = 2^40 the four columns' ranges multiply past 2^63: no int64 key fits
    spans = math.prod(max(column) - min(column) + 1 for column in zip(*rows))
    assert (spans >= 2**63) == (k == 2**40)
    P = simulate_walk(G, k, trials, seed)
    assert P.atoms == project_counts(G, counts, trials)
    assert P.d == d and P.provenance == "empirical"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simulate_coefficients_at_the_largest_k(monkeypatch, n):
    # 2u wraps past 2^63 for about half the draws here; every coefficient
    # row must still be that of a k-step walk
    k, seen, tally = 2**63 - 1, [], walk._tally

    def spy(m):
        seen.append(m.tolist())
        return tally(m)

    monkeypatch.setattr(walk, "_tally", spy)
    simulate_walk(builtin_generators("sqrt_primes", n, 1), k, trials=200, seed=5)
    assert len(seen[0]) == 200
    for row in seen[0]:
        assert sum(map(abs, row)) <= k and sum(row) % 2 == k % 2


@st.composite
def _integer_rows(draw):
    """Rows of n = 1..5 integers in [-k, k], often +-k, drawn from a small
    pool so that rows repeat; k up to 2^63 - 1, so the ranges of the
    columns can multiply past 2^63."""
    n = draw(st.integers(1, 5))
    k = draw(st.one_of(st.integers(1, 40), st.sampled_from([2**20, 2**31, 2**40, 2**62, 2**63 - 1])))
    entry = st.one_of(st.sampled_from([-k, 0, k]), st.integers(-k, k))
    pool = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@given(_integer_rows())
@settings(max_examples=300, deadline=None)
def test_tally_counts_each_distinct_row(rows):
    distinct, counts = walk._tally(np.array(rows, dtype=np.int64))
    assert distinct.dtype == np.int64
    assert list(zip(map(tuple, distinct.tolist()), counts.tolist())) == sorted(Counter(rows).items())


@pytest.mark.parametrize(
    "rows,merged",
    [
        ([[0], [2**63 - 2], [0]], False),  # a range of 2^63 - 1: the widest one key holds
        ([[0], [2**63 - 1], [0]], True),
        ([[-(2**63 - 1)], [2**63 - 1], [2**63 - 1]], True),
        ([[0, 0], [2**31 - 1, 2**32 - 2], [0, 0]], False),  # 2^31 (2^32 - 1) < 2^63
        ([[0, 0], [2**31 - 1, 2**32 - 1], [0, 0]], True),  # 2^31 2^32 = 2^63
        ([[5, -7, 3]] * 4 + [[5, -8, 3]], False),
    ],
)
def test_tally_merges_only_where_no_key_fits(monkeypatch, rows, merged):
    calls, merge = [], walk._merge

    def spy(X):
        calls.append(len(X))
        return merge(X)

    monkeypatch.setattr(walk, "_merge", spy)
    distinct, counts = walk._tally(np.array(rows, dtype=np.int64))
    assert bool(calls) == merged
    assert list(zip(map(tuple, distinct.tolist()), counts.tolist())) == sorted(Counter(map(tuple, rows)).items())


def test_simulate_deterministic():
    a = simulate_walk(GOLDEN, 6, trials=5000, seed=11)
    b = simulate_walk(GOLDEN, 6, trials=5000, seed=11)
    c = simulate_walk(GOLDEN, 6, trials=5000, seed=12)
    assert a.atoms == b.atoms
    assert a.atoms != c.atoms


def test_simulate_seed_range():
    # Philox keys are the integers in [0, 2^128)
    for seed in (0, 2**128 - 1):
        assert simulate_walk(GOLDEN, 2, trials=5, seed=seed).total_weight() == 1.0
    for seed in (-1, 2**128):
        with pytest.raises(ValidationError, match="outside"):
            simulate_walk(GOLDEN, 2, trials=5, seed=seed)


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


def test_point_set_from_atoms_matches_point_set_from_arrays():
    P = random_point_set(np.random.default_rng(5), 40, 2)
    Q = walk.WeightedPointSet(
        2, provenance="exact", points=np.array([pt for pt, _ in P.atoms]),
        weights=np.array([w for _, w in P.atoms]),
    )
    assert Q.atoms == P.atoms and Q.total_weight() == P.total_weight()
    assert discrepancy_exact(Q) == discrepancy_exact(P)
    assert discrepancy_grid(Q, 64) == discrepancy_grid(P, 64)
    assert not Q.points.flags.writeable and not P.weights.flags.writeable


def test_pointset_csv_round_trip():
    P = project_to_torus(exact_walk_distribution(GOLDEN, 9), GOLDEN)
    back = pointset_from_csv_text(pointset_to_csv_text(P))
    assert back.atoms == P.atoms
    assert back.d == P.d


def test_pointset_csv_merges_equal_points_in_file_order():
    # -0.0 and 0.0 are one point, spelled as it first appears; weights are
    # added in file order: (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3)
    P = pointset_from_csv_text("0.5,0.1\n-0.0,0.15\n0.5,0.2\n0.0,0.25\n0.5,0.3\n")
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    assert P.atoms == (((0.0,), 0.15 + 0.25), ((0.5,), (0.1 + 0.2) + 0.3))
    assert math.copysign(1.0, P.atoms[0][0][0]) == -1.0
