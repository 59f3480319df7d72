import math

import mpmath
import numpy as np
import pytest
from conftest import brute_best_fourier, lex_box

from toruswalk import (
    CapExceededError,
    ValidationError,
    best_fourier_lower_bound,
    bounds,
    builtin_generators,
    discrepancy_exact,
    etk_upper_bound,
    exact_walk_distribution,
    fourier,
    load_generators,
    project_to_torus,
    qhat,
    single_h_lower_bound,
    weight_R,
)

GOLDEN = builtin_generators("golden", 1, 1)
HALF = load_generators([[0.5]])


class TestQhat:
    def test_half_at_one(self):
        assert qhat(HALF, (1,)) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_frequency_is_one(self):
        G = builtin_generators("random", 3, 2, seed=1)
        assert qhat(G, (0, 0)) == 1.0

    def test_golden_high_precision(self):
        # independent high-precision oracle for cos(2 pi alpha)
        alpha = mpmath.mpf("0.6180339887498949")
        expected = float(mpmath.cos(2 * mpmath.pi * alpha))
        assert qhat(GOLDEN, (1,)) == pytest.approx(expected, abs=1e-14)
        assert qhat(GOLDEN, (1,)) == pytest.approx(-0.737368, abs=1e-6)

    def test_evenness(self):
        # the frequency passes walk half a box and double it: this must be ==
        for d in (1, 2, 3):
            G = builtin_generators("random", 2, d, seed=9)
            for h in lex_box(d, 4):
                assert qhat(G, h) == qhat(G, tuple(-v for v in h))

    def test_cohort_term_evenness(self):
        for d in (1, 2, 3):
            A = builtin_generators("random", 2, d, seed=9).as_array()
            H = np.array(list(lex_box(d, 4)), dtype=np.int64)

            def terms(H, k):  # H as one block of len(H) vectors
                X = fourier._phases(A, H).T[:, None, :]
                return bounds._cohort_terms(A, X, H.__getitem__, k).tolist()

            for k in (1, 30):
                assert terms(-H, k) == terms(H, k)

    def test_bounded_by_one(self):
        G = builtin_generators("sqrt_primes", 2, 2)
        for h1 in range(-4, 5):
            for h2 in range(-4, 5):
                assert abs(qhat(G, (h1, h2))) <= 1.0 + 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            qhat(GOLDEN, (1, 2))

    @pytest.mark.parametrize("v", [1.5, 0.4, math.nan, math.inf, "x"], ids=str)
    def test_non_integer_coordinate_rejected(self, v):
        with pytest.raises(ValidationError, match="must be integers"):
            qhat(GOLDEN, (v,))
        with pytest.raises(ValidationError, match="must be integers"):
            single_h_lower_bound(GOLDEN, 3, (v,))
        with pytest.raises(ValidationError, match="must be integers"):
            weight_R((v,))

    def test_integral_float_coordinate_accepted(self):
        assert qhat(GOLDEN, (2.0,)) == qhat(GOLDEN, (2,))


class TestWeightR:
    @pytest.mark.parametrize(
        "h,expected", [((3, 0, -2), 6), ((0, 0), 1), ((1, 1, 1), 1), ((-5,), 5)]
    )
    def test_values(self, h, expected):
        assert weight_R(h) == expected


class TestSingleH:
    def test_no_steps(self):
        assert single_h_lower_bound(GOLDEN, 0, (1,)) == pytest.approx(
            1.0 / math.pi, abs=1e-12
        )

    def test_half_two_steps(self):
        v = single_h_lower_bound(HALF, 2, (1,))
        assert v == pytest.approx(1.0 / math.pi, abs=1e-12)
        P = project_to_torus(exact_walk_distribution(HALF, 2), HALF)
        assert discrepancy_exact(P).value >= v

    def test_golden_three_steps(self):
        v = single_h_lower_bound(GOLDEN, 3, (1,))
        assert v == pytest.approx(abs(qhat(GOLDEN, (1,))) ** 3 / math.pi, abs=1e-15)
        assert v == pytest.approx(0.1276158, abs=1e-6)

    @pytest.mark.parametrize("h", [(1,), (3,), (-2,), (0, 1), (2, 0), (0, -3)], ids=str)
    def test_explicit_r_matches_default_schedule(self, h):
        # r_i = 1/(4|h_i|), and 1/(2 pi) on a zero coordinate, reproduces the
        # closed form to within two rounding errors
        G = GOLDEN if len(h) == 1 else builtin_generators("sqrt_primes", 1, 2)
        r = tuple(1.0 / (4 * abs(v)) if v else 1.0 / (2 * math.pi) for v in h)
        assert single_h_lower_bound(G, 5, h, r) == pytest.approx(
            single_h_lower_bound(G, 5, h), rel=4e-16, abs=0.0
        )

    def test_zero_h_rejected(self):
        with pytest.raises(ValidationError):
            single_h_lower_bound(GOLDEN, 1, (0,))

    @pytest.mark.parametrize(
        "r,message", [((0.7,), "must lie in"), ((0.25, 0.25), "r has 2 coordinates, expected 1")]
    )
    def test_bad_r_rejected(self, r, message):
        with pytest.raises(ValidationError, match=message):
            single_h_lower_bound(GOLDEN, 1, (1,), r)

    def test_is_lower_bound_for_discrepancy(self):
        G = builtin_generators("sqrt_primes", 1, 2)
        for k in (1, 2, 4):
            P = project_to_torus(exact_walk_distribution(G, k), G)
            D = discrepancy_exact(P).value
            for h in [(1, 0), (0, 1), (1, 1), (2, -1)]:
                assert single_h_lower_bound(G, k, h) <= D + 1e-12


class TestBestLowerBound:
    def test_half_prefers_unit_frequency(self):
        v, h = best_fourier_lower_bound(HALF, 1, 2)
        assert v == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert h in ((-1,), (1,))

    def test_zero_steps_tie_break(self):
        v, h = best_fourier_lower_bound(GOLDEN, 0, 1)
        assert v == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert h == (-1,)

    def test_matches_exhaustive(self):
        expected = max(
            single_h_lower_bound(GOLDEN, 10, (h,)) for h in range(-8, 9) if h != 0
        )
        v, _ = best_fourier_lower_bound(GOLDEN, 10, 8)
        assert v == expected

    def test_monotone_in_hmax(self):
        G = builtin_generators("sqrt_primes", 1, 2)
        vals = [best_fourier_lower_bound(G, 6, hmax)[0] for hmax in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_box_cap(self, monkeypatch):
        from toruswalk import errors, fourier

        def no_pass(*args):
            raise AssertionError("the box was scanned")

        G = builtin_generators("sqrt_primes", 1, 2)
        # n = 1: the 9 * 9 frequencies of hmax = 4 at PER_CALL = 64 each
        monkeypatch.setattr(errors, "BUDGET", 9 * 9 * 64)
        assert best_fourier_lower_bound(G, 6, 4) == brute_best_fourier(G, 6, 4)
        monkeypatch.setattr(errors, "BUDGET", 9 * 9 * 64 - 1)
        assert best_fourier_lower_bound(G, 6, 3) == brute_best_fourier(G, 6, 3)
        monkeypatch.setattr(fourier, "_half_box", no_pass)
        with pytest.raises(CapExceededError, match="best-bound box.*smaller hmax"):
            best_fourier_lower_bound(G, 6, 4)


class TestEtk:
    def test_half_k3_m1(self):
        assert etk_upper_bound(HALF, 3, 1) == pytest.approx(4.5, abs=1e-12)

    def test_quarter_k1_m1(self):
        G = load_generators([[0.25]])
        assert etk_upper_bound(G, 1, 1) == pytest.approx(1.5, abs=1e-12)

    def test_upper_bounds_exact_discrepancy(self):
        P = project_to_torus(exact_walk_distribution(GOLDEN, 100), GOLDEN)
        D = discrepancy_exact(P).value
        for M in (1, 3, 7, 20):
            assert etk_upper_bound(GOLDEN, 100, M) >= D

    @pytest.mark.parametrize("k,M,message", [(1, 0, "M must be >= 1"), (-1, 1, "k must be >= 0")])
    def test_validation(self, k, M, message):
        with pytest.raises(ValidationError, match=message):
            etk_upper_bound(GOLDEN, k, M)
