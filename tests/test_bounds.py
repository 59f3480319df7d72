import json
import math

import mpmath
import pytest

from toruswalk import (
    InfeasibleError,
    ValidationError,
    bound_report,
    builtin_generators,
    choose_M,
    best_fourier_lower_bound,
    cohort_sum_S,
    etk_upper_bound,
    fit_decay_exponent,
    load_generators,
    single_h_lower_bound,
    theorem1_lower_bound,
    theorem2_upper_bound,
)
from toruswalk.errors import json_text

GOLDEN = builtin_generators("golden", 1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: theorem1_lower_bound(1, 1, k),
        lambda k: theorem2_upper_bound(1, 1, 0.4, k),
        lambda k: choose_M(1, 1, 0.4, k),
        lambda k: cohort_sum_S(GOLDEN, k, 3),
        lambda k: etk_upper_bound(GOLDEN, k, 3),
        lambda k: best_fourier_lower_bound(GOLDEN, k, 3),
        lambda k: single_h_lower_bound(GOLDEN, k, (1,)),
    ],
    ids=["theorem1", "theorem2", "choose_M", "cohort", "etk", "best-bound", "single-h"],
)
def test_k_beyond_every_float_is_refused(call):
    # 2^1024 is the first integer that no float holds
    with pytest.raises(ValidationError, match="k of 1025 bits is too large for a float"):
        call(2**1024)
    call(2**1000)


class TestLowerBoundFormula:
    def test_base_case(self):
        assert theorem1_lower_bound(1, 1, 1) == pytest.approx(1.0 / (25 * math.pi), abs=1e-10)
        assert theorem1_lower_bound(1, 1, 1) == pytest.approx(0.01273240, abs=1e-8)

    def test_sqrt_k_scaling(self):
        assert theorem1_lower_bound(1, 1, 100) == pytest.approx(0.001273240, abs=1e-9)

    def test_two_by_two(self):
        expected = 1.0 / (math.pi ** 2 * 125 * 2) * 0.1
        assert theorem1_lower_bound(2, 2, 10) == pytest.approx(expected, rel=1e-12)
        assert theorem1_lower_bound(2, 2, 10) == pytest.approx(4.0528e-5, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            theorem1_lower_bound(0, 1, 1)


class TestUpperBoundFormula:
    def test_substitution(self):
        # independent high-precision evaluation of the closed form
        expected = float(30 * (1 / (mpmath.mpf("0.44") * mpmath.sqrt(2))) * mpmath.mpf("0.01"))
        assert theorem2_upper_bound(1, 1, 0.44, 10000) == pytest.approx(expected, rel=1e-12)
        assert theorem2_upper_bound(1, 1, 0.44, 10000) == pytest.approx(0.482119, abs=1e-6)

    def test_vacuous_at_k1(self):
        assert theorem2_upper_bound(1, 1, 0.44, 1) == pytest.approx(48.2119, abs=1e-3)

    def test_one_by_two(self):
        expected = float(
            45 * (1 / (mpmath.mpf("0.3") * mpmath.sqrt(2))) ** mpmath.mpf("0.5") * 10 ** mpmath.mpf("-1.5")
        )
        assert theorem2_upper_bound(1, 2, 0.3, 10**6) == pytest.approx(expected, rel=1e-12)
        assert theorem2_upper_bound(1, 2, 0.3, 10**6) == pytest.approx(2.18471, abs=1e-4)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValidationError):
            theorem2_upper_bound(1, 1, 0.0, 100)

    @pytest.mark.parametrize("c_a", [math.nan, math.inf])
    def test_non_finite_constant_rejected(self, c_a):
        with pytest.raises(ValidationError, match="finite"):
            theorem2_upper_bound(1, 1, c_a, 100)
        with pytest.raises(ValidationError, match="finite"):
            choose_M(1, 1, c_a, 100)


class TestChooseM:
    def test_substitution(self):
        assert choose_M(1, 1, 0.44, 10000) == 7

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            choose_M(1, 1, 0.44, 10)

    def test_large_k_quarter_power(self):
        # floor((2e8 * 0.09)^(1/4) / 8) computed independently
        expected = int(mpmath.floor((2 * mpmath.mpf(10) ** 8 * mpmath.mpf("0.09")) ** mpmath.mpf("0.25") / 8))
        assert expected == 8
        assert choose_M(1, 2, 0.3, 10**8) == 8

    def test_bracketing(self):
        for k in (10**3, 10**4, 10**6):
            for c_a in (0.2, 0.437):
                M = choose_M(1, 1, c_a, k)
                raw = (2 * k * c_a**2) ** 0.5 / 8
                assert M <= raw < M + 1

    def test_monotone(self):
        ms_k = [choose_M(1, 1, 0.437, k) for k in (10**3, 10**4, 10**5, 10**6)]
        assert all(b >= a for a, b in zip(ms_k, ms_k[1:]))
        ms_c = [choose_M(1, 1, c, 10**5) for c in (0.1, 0.2, 0.3, 0.437)]
        assert all(b >= a for a, b in zip(ms_c, ms_c[1:]))


class TestCohortSum:
    def test_quarter_decays(self):
        G = load_generators([[0.25]])
        s, ok = cohort_sum_S(G, 50, 1)
        assert s == pytest.approx(2 * math.exp(-4 * 50 * 0.25), abs=1e-12)
        assert ok

    def test_golden_large_k(self):
        M = choose_M(1, 1, 0.437, 10**4)
        s, ok = cohort_sum_S(GOLDEN, 10**4, M)
        assert ok
        assert s <= 0.5 / (M + 1)

    def test_half_fails_expected(self):
        # 2*0.5*1 is an integer, so the h=1 terms do not decay at all
        G = load_generators([[0.5]])
        s, ok = cohort_sum_S(G, 100, 1)
        assert s == pytest.approx(2.0, abs=1e-12)
        assert not ok


class TestFitDecayExponent:
    def test_exact_power_law(self):
        assert fit_decay_exponent([(1, 1.0), (4, 0.5), (16, 0.25)]) == pytest.approx(
            -0.5, abs=1e-12
        )

    def test_constant_series(self):
        assert fit_decay_exponent([(1, 0.3), (10, 0.3), (100, 0.3)]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_decay_exponent([(1, 1.0), (2, 0.5)])
        with pytest.raises(ValidationError):
            fit_decay_exponent([(1, 1.0), (2, -0.5), (3, 0.2)])
        with pytest.raises(ValidationError):
            fit_decay_exponent([(1, 1.0), (1, 0.5), (3, 0.2)])


@pytest.mark.parametrize(
    "G",
    [load_generators([[0.5, 0.25]]), builtin_generators("sqrt_primes", 2, 2)],
    ids=["half-quarter", "sqrt_primes"],
)
def test_frequency_sums_hold_their_value_past_4e307(G):
    # 4k/n overflows a float above about 4.5e307 n, and k log|qhat| near
    # 1e308; the suite turns a RuntimeWarning of either into an error
    calls = cohort_sum_S, etk_upper_bound, best_fourier_lower_bound
    at = {k: [call(G, k, 3) for call in calls] for k in (4 * 10**307, 5 * 10**307, 10**308)}
    assert at[5 * 10**307] == at[10**308] == at[4 * 10**307]
    if G.n == 1:
        # a vector with {2Ah} = 0 adds 1/R(h) to S at every k: h_1 even
        assert at[10**308][0] == (8.333333333333334, False)


class TestBoundReport:
    def test_json_round_trip(self):
        rep = bound_report(GOLDEN, 10**4, c_a=0.437, c_a_certified_up_to=10**5)
        data = json.loads(json_text(rep))
        assert data["n"] == 1 and data["d"] == 1 and data["k"] == 10**4
        assert data["lower"] == pytest.approx(theorem1_lower_bound(1, 1, 10**4))
        assert data["upper"] == pytest.approx(theorem2_upper_bound(1, 1, 0.437, 10**4))
        assert data["M"] == choose_M(1, 1, 0.437, 10**4)
        assert data["lemma_ok"] is True
        assert data["c_a_certified_up_to"] == 10**5

    def test_without_constant(self):
        rep = bound_report(GOLDEN, 100)
        assert rep.upper is None and rep.M is None
