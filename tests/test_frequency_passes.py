"""The array passes over frequency boxes against plain-Python loops over
the definitions (tests/conftest.py), at the default block size and with
blocks of one row and of a size that ends inside rows of the box."""

import tracemalloc

import numpy as np
import pytest
from conftest import (
    brute_bad_constant,
    brute_best_fourier,
    brute_cohort_sum,
    brute_dirichlet,
    brute_etk,
    brute_qhat,
    lex_box,
)

from toruswalk import (
    best_fourier_lower_bound,
    builtin_generators,
    cohort_sum_S,
    dirichlet_search,
    estimate_bad_constant,
    etk_upper_bound,
    fourier,
    load_generators,
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
def test_dirichlet_matches_oracle(spec):
    G = _matrix(spec)
    for q in (1.0, 2.5, 7.0, 11.0):
        assert dirichlet_search(G, q) == brute_dirichlet(G, q)


@pytest.mark.parametrize("rows", [[[0.5, 0.25]], [[0.25], [0.5]], [[0.5, 0.25, 0.75]]])
def test_search_keeps_first_minimum_across_blocks(rows, block):
    # c_est = 0 is reached at many h; the first in scan order must win
    G = load_generators(rows)
    est = estimate_bad_constant(G, 4)
    assert est.c_est == 0.0
    assert (est.c_est, est.argmin_h) == brute_bad_constant(G, 4)


def test_search_memory_is_one_block():
    # the whole box of (2*999+1)^2 - 1 = 3 996 000 vectors is never held
    G = builtin_generators("sqrt_primes", 2, 2)
    tracemalloc.start()
    try:
        estimate_bad_constant(G, 999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_frequency_box_is_half_of_the_box(d, block):
    half = [tuple(h) for H in fourier.frequency_box(d, 3) for h in H.tolist()]
    assert half == sorted(half)
    negated = {tuple(-v for v in h) for h in half}
    assert len(set(half)) == len(half) and not negated & set(half)
    assert negated | set(half) == set(lex_box(d, 3))
    assert all(H.dtype == np.int64 for H in fourier.frequency_box(d, 3))


def test_d1_search_memory_holds_no_box_sized_table():
    # hmax = 10**6: the 2 * 10**6 + 1 coordinate values (16 MB) and the scale
    # table (8 MB) are the only arrays that grow with hmax
    G = builtin_generators("golden", 1, 1)
    tracemalloc.start()
    try:
        estimate_bad_constant(G, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20
