"""The array passes over frequency boxes against plain-Python loops over
the definitions (tests/conftest.py), at the default block size and with
blocks of one row and of a size that ends inside rows of the box."""

import builtins
import functools
import math
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from conftest import (
    _sup_dist_left_to_right,
    brute_bad_constant,
    brute_best_fourier,
    brute_cohort_sum,
    brute_dirichlet,
    brute_etk,
    brute_qhat,
    lex_box,
    scan_order_box,
)

from toruswalk import (
    CapExceededError,
    InternalConsistencyError,
    best_fourier_lower_bound,
    bounds,
    builtin_generators,
    cohort_sum_S,
    diophantine,
    dirichlet_search,
    estimate_bad_constant,
    etk_upper_bound,
    fourier,
    load_generators,
    nearest_integer_distance,
    qhat,
)


@pytest.fixture(params=[None, 1, 10], ids=["default-block", "block-1", "block-10"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(fourier, "_BLOCK", request.param)
    return request.param


# (family, n, d, seed): d = 1, 2, 3, with integer and fractional d/n
MATRICES = [
    ("golden", 1, 1, None),
    ("sqrt_primes", 2, 1, None),
    ("random", 3, 1, 2),  # minimum at h = 27; 27.0 ** (1/3) is 3.0 in CPython, not in numpy
    ("sqrt_primes", 2, 2, None),
    ("random", 1, 2, 4),
    ("sqrt_primes", 1, 3, None),
    ("random", 2, 3, 11),
    ("random", 3, 3, 5),
]


def _matrix(spec):
    family, n, d, seed = spec
    return builtin_generators(family, n, d, seed=seed)


def _ids(spec):
    return f"{spec[0]}-n{spec[1]}-d{spec[2]}"


# Box radius per d.  Below about 5 a BLAS dot product rounds every phase as
# the left-to-right sum does, so smaller boxes could not tell them apart.
RADIUS = {1: 40, 2: 10, 3: 4}


@pytest.mark.parametrize("spec", MATRICES, ids=_ids)
def test_search_matches_oracle_exactly(spec, block):
    G = _matrix(spec)
    hmax = RADIUS[G.d]
    est = estimate_bad_constant(G, hmax)
    assert (est.c_est, est.argmin_h) == brute_bad_constant(G, hmax)


@pytest.mark.parametrize("spec", MATRICES, ids=_ids)
def test_qhat_matches_oracle_exactly(spec):
    # a sum of many terms can hide a one-ulp change in one of them
    G = _matrix(spec)
    for h in lex_box(G.d, RADIUS[G.d]):
        assert qhat(G, h) == brute_qhat(G, h)


@pytest.mark.parametrize("spec", MATRICES, ids=_ids)
def test_etk_matches_oracle_exactly(spec, block):
    G = _matrix(spec)
    M = RADIUS[G.d]
    for k in (0, 3, 17):
        assert etk_upper_bound(G, k, M) == brute_etk(G, k, M)


@pytest.mark.parametrize("spec", MATRICES, ids=_ids)
def test_best_fourier_matches_oracle_exactly(spec, block):
    G = _matrix(spec)
    hmax = RADIUS[G.d]
    for k in (0, 2, 9, 101):
        assert best_fourier_lower_bound(G, k, hmax) == brute_best_fourier(G, k, hmax)


@pytest.mark.parametrize("spec", MATRICES, ids=_ids)
def test_cohort_matches_oracle(spec, block):
    G = _matrix(spec)
    M = RADIUS[G.d]
    for k in (1, 4, 30):
        s, ok = cohort_sum_S(G, k, M)
        expected = brute_cohort_sum(G, k, M)
        assert s == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert ok == (s <= 0.5 / (M + 1))


@pytest.mark.parametrize("spec", MATRICES, ids=_ids)
def test_dirichlet_matches_oracle(spec, block):
    # with blocks of 1 and 10 vectors a box's first match and a later, closer
    # candidate of larger norm fall in different blocks
    G = _matrix(spec)
    for q in (1.0, 2.5, 7.0, 11.0):
        assert dirichlet_search(G, q) == brute_dirichlet(G, q)


@pytest.mark.parametrize(
    "rows,seed,q,h",
    [
        ([[1 / 7]], None, 7.5, (7,)),  # every h < 7 is 1/7 or more from an integer
        (None, 2, 7.3, (-5, 1)),  # random n = d = 2
        (None, 48, 20.5, (5, 1, 1)),  # random n = 2, d = 3
    ],
    ids=["one-seventh", "random-n2-d2", "random-n2-d3"],
)
def test_dirichlet_match_past_the_last_inner_radius(rows, seed, q, h, block):
    # H = 7 is no power of two: the boxes have radius 1, 2, 4 and 7, and
    # the first match, of sup norm 5 or 7, lies only in the last
    G = load_generators(rows) if rows else builtin_generators("random", 2, len(h), seed=seed)
    assert diophantine._dirichlet_radii(G, 7)[0] == [1, 2, 4, 7]
    assert dirichlet_search(G, q) == h == brute_dirichlet(G, q)


# Matrices whose windows select: at these radii most nonzero prefixes take
# a few h_0 values.  "zero" and "half" make generator 0's h_0 phase the same
# for every h_0, or one of two; in "wrap" -B mod 1 = 0.0005 h_1 (+ 0.0003 h_2
# in d = 3, mod 1) lies near 0 = 1, so the windows cross it.
IRRATIONAL = [0.41421356237309515, 0.2360679774997898, 0.7320508075688772, 0.6457513110645907]
WINDOWED = {
    "sqrt_primes": ("sqrt_primes", 2, None),
    "random-n1": ("random", 1, 4),
    "random-n2": ("random", 2, 7),
    "random-n3": ("random", 3, 5),
    "rational:7": ("rational:7", 2, None),
    "zero": [[0.0, *IRRATIONAL[:2]], [0.0, *IRRATIONAL[2:]]],
    "half": [[0.5, *IRRATIONAL[:2]], [0.5, *IRRATIONAL[2:]]],
    "wrap": [[0.6180339887498949, 0.9995, 0.9997], [*IRRATIONAL[:2], 0.5]],
}
WINDOWED_RADIUS = {2: 100, 3: 25}
WINDOWED_CASES = [(name, 2) for name in WINDOWED] + [
    (name, 3) for name in ("sqrt_primes", "random-n3", "zero", "wrap")
]


def _windowed_matrix(name, d):
    spec = WINDOWED[name]
    if isinstance(spec, list):
        return load_generators([row[:d] for row in spec])
    family, n, seed = spec
    return builtin_generators(family, n, d, seed=seed)


@functools.cache
def _windowed_oracles(name, d):
    """(brute_bad_constant, q, brute_dirichlet) at the radius of d; q is
    the least whose box has that radius."""
    G, H = _windowed_matrix(name, d), WINDOWED_RADIUS[d]
    q = H ** (d / G.n)
    return brute_bad_constant(G, H), q, brute_dirichlet(G, q)


@pytest.mark.parametrize("name,d", WINDOWED_CASES, ids=[f"{c}-d{d}" for c, d in WINDOWED_CASES])
def test_windowed_searches_match_oracles(name, d, block):
    G = _windowed_matrix(name, d)
    est = estimate_bad_constant(G, WINDOWED_RADIUS[d])
    best, q, first = _windowed_oracles(name, d)
    assert (est.c_est, est.argmin_h) == best
    assert dirichlet_search(G, q) == first


@pytest.mark.parametrize("d,bound", [(2, 30), (3, 8)])
@pytest.mark.parametrize("name", ["sqrt_primes", "half", "wrap"])
@pytest.mark.parametrize("reach", [0.0, 0.004, 0.05, 0.45, 0.7])
def test_windowed_pass_yields_every_vector_within_reach(name, d, bound, reach, block):
    # the zero prefix whole; of the others every vector whose generator-0
    # distance is at most reach, and (the windows select) none much farther,
    # in scan order, bit for bit the phases of the full pass
    G = _windowed_matrix(name, d)
    A, first = G.as_array(), load_generators(G.entries[:1])
    order = [h for h in scan_order_box(d, bound) if [v for v in h if v][-1] > 0]
    got = []
    for X, norm, rows, spare in fourier._half_box(A, bound, lambda pnorm: reach):
        H = rows(np.arange(norm.size))
        assert norm.size <= fourier._BLOCK and spare.shape == X.shape
        assert X.reshape(G.n, -1).T.tolist() == fourier._phases(A, H).tolist()
        assert norm.ravel().tolist() == np.abs(H).max(axis=1).tolist()
        got.extend(map(tuple, H.tolist()))
    kept = set(got)
    assert len(kept) == len(got) and got == [h for h in order if h in kept]
    near = {h for h in order if not any(h[1:]) or _sup_dist_left_to_right(first, h) <= reach}
    assert near <= kept
    assert all(_sup_dist_left_to_right(first, h) <= reach + 1e-9 for h in kept - near)


def test_dirichlet_failure_names_the_first_closest_vector(monkeypatch, block):
    # 0.5 added to every distance leaves none below 1/q = 1/3; the error
    # then carries the closest vector of the last box, of least norm among
    # equal distances, first in scan order among equal norms
    G = builtin_generators("sqrt_primes", 2, 2)
    inner = diophantine._sup_dist

    def far(X, spare):
        return inner(X, spare) + 0.5

    monkeypatch.setattr(diophantine, "_sup_dist", far)
    key = {h: (_sup_dist_left_to_right(G, h) + 0.5, max(map(abs, h))) for h in scan_order_box(2, 3)}
    best = min(key, key=key.get)  # min keeps the first of equal keys
    with pytest.raises(InternalConsistencyError) as failed:
        dirichlet_search(G, 3.0)
    assert str(failed.value) == (
        "no h with {Ah}_inf < 1/q found up to ||h||_inf = 3; "
        f"best candidate {best} at distance {key[best][0]}"
    )


def test_golden_dirichlet_past_the_old_shell_price():
    # the per-shell search priced H = 40 000 shells at 1.28e8 and refused
    G = builtin_generators("golden", 1, 1)
    assert dirichlet_search(G, 4e4) == _first_d1_match(G, 4e4) == (28657,)
    assert nearest_integer_distance(G.as_array().dot((28657,)))[0] < 1.0 / 4e4


def test_sqrt_primes_n2_d1_dirichlet_past_the_old_shell_price():
    # H = 333^2 = 110 889: the per-shell search refused every H over 24 968
    G = builtin_generators("sqrt_primes", 2, 1)
    assert dirichlet_search(G, 333.0) == _first_d1_match(G, 333.0) == (20586,)


def _first_d1_match(G, q):
    """The least h in 1, ..., floor(q^n) with {h alpha}_inf < 1/q, by one
    numpy pass.  For d = 1 each phase is one product, bit-identical to the
    search's, and -h is exactly as close as h."""
    h = np.arange(1, math.floor(q**G.n) + 1)
    X = h[:, None] * G.as_array()[:, 0]
    close = np.abs(X - np.rint(X)).max(axis=1) < 1.0 / q
    assert close.any()
    return (int(h[np.argmax(close)]),)


@pytest.mark.parametrize("rows", [[[0.5, 0.25]], [[0.25], [0.5]], [[0.5, 0.25, 0.75]]])
def test_search_keeps_first_minimum_across_blocks(rows, block):
    # c_est = 0 is reached at many h; the first in scan order must win
    G = load_generators(rows)
    est = estimate_bad_constant(G, 4)
    assert est.c_est == 0.0
    assert (est.c_est, est.argmin_h) == brute_bad_constant(G, 4)


def _peak_memory(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_search_memory_is_one_block():
    # the whole box of (2*999+1)^2 - 1 = 3 996 000 vectors is never held
    G = builtin_generators("sqrt_primes", 2, 2)
    _, peak = _peak_memory(lambda: estimate_bad_constant(G, 999))
    assert peak <= 16 * 2**20


def test_search_evaluates_under_two_percent_of_the_half_box(monkeypatch):
    # hmax = 999: of the 1 998 000 vectors of the half box, the zero prefix
    # and the windows' few h_0 per prefix
    G = builtin_generators("sqrt_primes", 2, 2)
    inner, evaluated = fourier._half_box, []

    def counted(*args):
        for block in inner(*args):
            evaluated.append(block[0][0].size)
            yield block

    monkeypatch.setattr(fourier, "_half_box", counted)
    est = estimate_bad_constant(G, 999)
    assert (est.c_est, est.argmin_h) == (0.08567570188276363, (102, 195))
    assert 999 < sum(evaluated) < 0.02 * ((2 * 999 + 1) ** 2 - 1) // 2


def test_search_stops_at_its_first_zero(monkeypatch):
    # 7 alpha_0 is an integer vector for rational:7, so {Ah}_inf = 0 at
    # h = (7, 0), in the zero prefix's block, the first of the pass
    G = builtin_generators("rational:7", 2, 2)
    inner, blocks = fourier._half_box, []

    def decoded(*args):
        for block in inner(*args):
            blocks.append(block[2](np.arange(block[1].size)).tolist())
            yield block

    monkeypatch.setattr(fourier, "_half_box", decoded)
    est = estimate_bad_constant(G, 999)
    assert (est.c_est, est.argmin_h) == (0.0, (7, 0))
    assert [7, 0] in blocks[-1] and len(blocks) == 1  # no block after the hit's


def test_windowed_dirichlet_memory_is_one_block():
    # H = 2235, the largest n = d = 2 box the budget admits; no box of
    # radius up to 32 holds a match
    G = builtin_generators("sqrt_primes", 2, 2)
    assert diophantine._dirichlet_radii(G, 2235)[0][-2:] == [32, 2235]
    with pytest.raises(CapExceededError):
        dirichlet_search(G, 2236.0)
    h, peak = _peak_memory(lambda: dirichlet_search(G, 2235.0))
    assert max(map(abs, h)) > 32
    assert nearest_integer_distance(G.as_array().dot(h))[0] < 1 / 2235.0
    assert peak <= 16 * 2**20


def test_d3_search_memory_is_one_block():
    # hmax = 148, the largest the budget admits for n = 1, d = 3
    G = builtin_generators("sqrt_primes", 1, 3)
    with pytest.raises(CapExceededError):
        estimate_bad_constant(G, 149)
    est, peak = _peak_memory(lambda: estimate_bad_constant(G, 148))
    assert est.certified_up_to == 148 and est.c_est > 0.0
    assert peak <= 16 * 2**20


@pytest.mark.parametrize(
    "alpha,argmin_h",
    [
        # {17 alpha} * 17 is the minimum; h = 17 is scan index 33, in the
        # fourth chunk of 10 h_0 values
        (0.0588, (17,)),
        # h = 5 and h = -5 tie exactly at scan indices 9 and 10, on either
        # side of a chunk boundary: the first must win
        (0.201, (5,)),
    ],
    ids=["later-chunk", "tie-across-chunks"],
)
def test_d1_search_splits_the_h0_range(monkeypatch, alpha, argmin_h):
    monkeypatch.setattr(fourier, "_BLOCK", 10)
    G = load_generators([[alpha]])
    est = estimate_bad_constant(G, 40)  # 81 h_0 values, more than one block
    assert est.argmin_h == argmin_h
    assert (est.c_est, est.argmin_h) == brute_bad_constant(G, 40)


def test_d1_search_memory_holds_no_box_sized_table():
    # hmax = 10**6: the scale table (8 MB) is the only array that grows with hmax
    G = builtin_generators("golden", 1, 1)
    _, peak = _peak_memory(lambda: estimate_bad_constant(G, 10**6))
    assert peak <= 16 * 2**20


def test_d1_dirichlet_memory_holds_no_box_sized_array():
    # H = 10**6: every h < 999 983 lies 1/q or more from an integer, so all
    # boxes up to radius 10**6 are scanned, streamed block by block
    G = load_generators([[1 / 999983]])
    h, peak = _peak_memory(lambda: dirichlet_search(G, 1e6))
    assert h == (999983,)
    assert peak <= 8 * 2**20


def _half_box_vectors(d, hmax):
    """The vectors of fourier._half_box, in its order, and its block shapes
    (prefixes, h_0 values); checks each block's phases and sup norms
    against _phases and the decoded vectors."""
    A = builtin_generators("random", 2, d, seed=3).as_array()
    vectors, shapes = [], []
    for X, norm, rows, spare in fourier._half_box(A, hmax):
        H = rows(np.arange(norm.size))
        assert H.dtype == np.int64 and spare.shape == X.shape == (2, *norm.shape)
        assert X.reshape(2, -1).T.tolist() == fourier._phases(A, H).tolist()
        assert norm.ravel().tolist() == np.abs(H).max(axis=1).tolist()
        shapes.append(norm.shape)
        vectors.extend(map(tuple, H.tolist()))
    return vectors, shapes


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frequency_box_is_half_of_the_box(d, block):
    half, _ = _half_box_vectors(d, 3)
    kept = set(half)
    negated = {tuple(-v for v in h) for h in half}
    assert len(kept) == len(half) and not negated & kept
    assert negated | kept == set(lex_box(d, 3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_search_half_box_is_one_of_each_pair_in_scan_order(d, block):
    hmax = 3
    half, shapes = _half_box_vectors(d, hmax)
    assert max(P for P, _ in shapes) <= max(1, fourier._BLOCK // (2 * hmax + 1))
    assert max(P * J for P, J in shapes) <= fourier._BLOCK
    kept = set(half)
    # in scan order, each kept vector comes before its negation
    order = list(scan_order_box(d, hmax))
    assert half == [h for h in order if h in kept]
    position = {h: i for i, h in enumerate(order)}
    assert all(position[h] < position[tuple(-v for v in h)] for h in half)


@pytest.mark.parametrize(
    "spec,hmax,argmin_h",
    [
        (("diagonal:0.32", 1, 3, None), 4, (-1, 1, 0)),
        (("sqrt_primes", 2, 3, None), 5, (-4, 5, 0)),
        (("random", 1, 2, 4), 9, (-7, 9)),
        (("random", 2, 3, 11), 3, (-1, 1, 1)),
    ],
    ids=["diagonal", "sqrt_primes-n2-d3", "random-n1-d2", "random-n2-d3"],
)
def test_search_finds_minimisers_with_a_negative_coordinate(spec, hmax, argmin_h, block):
    # the mirrored vector (1, -1, 0), ... gives the same value but comes later
    G = _matrix(spec)
    est = estimate_bad_constant(G, hmax)
    assert est.argmin_h == argmin_h
    assert (est.c_est, est.argmin_h) == brute_bad_constant(G, hmax)


@pytest.mark.parametrize("d,n", [(1, 1), (2, 2), (1, 2), (3, 2)])
def test_scale_table_is_cpython_power(d, n):
    hmax = 10**5
    expected = np.fromiter(map(pow, range(hmax + 1), repeat(d / n)), dtype=float)
    assert diophantine._scale_table(hmax, d, n).tolist() == expected.tolist()


def _spy(monkeypatch, target, name):
    """Record the arguments of every call of target.name."""
    calls = []
    inner = getattr(target, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(target, name, spy, raising=False)
    return calls


def _spies(monkeypatch):
    # _abs_pow finds pow among fourier's globals before the builtins
    monkeypatch.setattr(fourier, "pow", builtins.pow, raising=False)
    return {
        name: _spy(monkeypatch, target, name)
        for target, name in [(fourier, "pow"), (math, "exp"), (math, "cos"), (math, "hypot")]
    }


def test_underflowing_terms_reach_no_libm_call(monkeypatch):
    G = builtin_generators("sqrt_primes", 2, 2)
    expected = (brute_etk(G, 10**6, 7), brute_cohort_sum(G, 10**6, 7))
    calls = _spies(monkeypatch)
    etk = etk_upper_bound(G, 10**6, 7)
    s, ok = cohort_sum_S(G, 10**6, 7)
    assert calls == {"pow": [], "exp": [], "cos": [], "hypot": []}
    assert (etk, s, ok) == (*expected, True)
    assert s == 0.0 and etk == 1.5**2 * (2.0 / 8)  # every term underflows


def test_rows_of_modulus_one_are_never_screened(monkeypatch):
    G = builtin_generators("rational:7", 2, 2)
    k, M = 10**6, 7
    half = [h for h in lex_box(2, M) if [v for v in h if v][-1] > 0]  # the half the passes walk
    ones = sum(abs(qhat(G, h)) == 1.0 for h in half)
    assert ones == 4  # (7, 0), (-7, 7), (0, 7), (7, 7)
    calls = _spies(monkeypatch)
    assert etk_upper_bound(G, k, M) == brute_etk(G, k, M)
    assert sum(q == 1.0 for q, _ in calls["pow"]) == ones
    assert cohort_sum_S(G, k, M)[0] == pytest.approx(brute_cohort_sum(G, k, M), rel=1e-12)
    assert sum(x == 0.0 for (x,) in calls["exp"]) >= ones


@pytest.mark.parametrize("spec", MATRICES + [("rational:7", 2, 2, None)], ids=_ids)
def test_screened_sums_equal_unscreened_sums_bit_for_bit(spec, monkeypatch):
    G = _matrix(spec)
    M = {1: 40, 2: 7, 3: 3}[G.d]
    cases = [(k, m) for k in (0, 1, 30, 10**3, 10**5, 10**7) for m in (1, M)]
    screened = [(etk_upper_bound(G, k, m), cohort_sum_S(G, k, m)) for k, m in cases]
    monkeypatch.setattr(fourier, "_UNDERFLOW", -math.inf)
    monkeypatch.setattr(bounds, "_UNDERFLOW", -math.inf)
    unscreened = [(etk_upper_bound(G, k, m), cohort_sum_S(G, k, m)) for k, m in cases]
    assert repr(screened) == repr(unscreened)


def test_libm_underflows_past_the_screen():
    # the screen drops a term whose logarithm is provably below _UNDERFLOW;
    # this platform's exp and pow must return +0.0 there
    cut = fourier._UNDERFLOW
    assert bounds._UNDERFLOW == cut
    for x in (cut, np.nextafter(cut, -math.inf), 2 * cut, -1e300):
        assert math.copysign(1.0, math.exp(x)) == 1.0 and math.exp(x) == 0.0
    for q in (0.5, 0.9, 0.999999, 1.0 - 2**-40):
        k = math.floor(cut / math.log(q)) + 1  # smallest k with k log q < cut
        assert k * math.log(q) < cut
        assert pow(q, k) == 0.0 and math.copysign(1.0, pow(q, k)) == 1.0
