import math

import numpy as np
import pytest
from conftest import brute_dirichlet

from toruswalk import (
    CapExceededError,
    ValidationError,
    builtin_generators,
    dirichlet_search,
    estimate_bad_constant,
    load_generators,
    nearest_integer_distance,
)

GOLDEN = builtin_generators("golden", 1, 1)


class TestNearestIntegerDistance:
    def test_mixed_vector(self):
        sup, euc = nearest_integer_distance((0.75, 2.2))
        assert sup == pytest.approx(0.25, abs=1e-15)
        assert euc == pytest.approx(math.sqrt(0.0625 + 0.04), abs=1e-12)

    def test_integral_point(self):
        assert nearest_integer_distance((3.0,)) == (0.0, 0.0)

    def test_half_half(self):
        sup, euc = nearest_integer_distance((0.5, 0.5))
        assert sup == 0.5
        assert euc == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            nearest_integer_distance((float("nan"),))


class TestDirichletSearch:
    def test_half_q2(self):
        assert dirichlet_search(load_generators([[0.5]]), 2) == (2,)

    def test_q1_returns_first_unit_vector(self):
        G = builtin_generators("random", 2, 2, seed=3)
        assert dirichlet_search(G, 1) == (1, 0)

    def test_golden_q3(self):
        assert dirichlet_search(GOLDEN, 3) == (2,)

    def test_deterministic(self):
        G = builtin_generators("random", 2, 3, seed=17)
        assert dirichlet_search(G, 4.5) == dirichlet_search(G, 4.5)

    def test_postconditions_on_random_cases(self):
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(40):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            q = float(rng.uniform(1.0, 10.0))
            G = builtin_generators("random", n, d, seed=int(rng.integers(0, 2**31)))
            h = dirichlet_search(G, q)
            bound = int(math.floor(q ** (n / d)))
            assert 0 < max(abs(v) for v in h) <= bound
            sup, _ = nearest_integer_distance(G.as_array().dot(h))
            assert sup < 1.0 / q

    def test_q_below_one_rejected(self):
        with pytest.raises(ValidationError):
            dirichlet_search(GOLDEN, 0.5)
        with pytest.raises(ValidationError):
            dirichlet_search(GOLDEN, math.nan)

    @pytest.mark.parametrize("q", [math.inf, float("1e400")])
    def test_infinite_q_rejected(self, q):
        with pytest.raises(ValidationError, match="q must be finite"):
            dirichlet_search(builtin_generators("random", 2, 1, seed=1), q)

    def test_box_cap_refuses_before_scanning(self, monkeypatch):
        from toruswalk import diophantine, errors, fourier

        def no_scan(*args):
            raise AssertionError("a box was scanned")

        G = builtin_generators("random", 2, 1, seed=1)
        # bound floor(3^2) = 9: boxes of radius 1, 2, 4, 8 and 9 hold 3, 5,
        # 9, 17 and 19 vectors of n * d = 2 products each
        assert diophantine._dirichlet_radii(G, 9) == ([1, 2, 4, 8, 9], 106)
        # one operation short, the largest inner box is left out
        monkeypatch.setattr(errors, "BUDGET", 105)
        assert diophantine._dirichlet_radii(G, 9) == ([1, 2, 4, 9], 72)
        # every inner box is left out; the box of radius 9 alone is scanned
        monkeypatch.setattr(errors, "BUDGET", 19 * 2)
        assert diophantine._dirichlet_radii(G, 9) == ([9], 38)
        assert dirichlet_search(G, 3.0) == brute_dirichlet(G, 3.0)
        monkeypatch.setattr(errors, "BUDGET", 19 * 2 - 1)
        monkeypatch.setattr(fourier, "_half_box", no_scan)
        with pytest.raises(CapExceededError, match="Dirichlet search box.*smaller --q"):
            dirichlet_search(G, 3.0)
        monkeypatch.setattr(errors, "BUDGET", 10**300)
        with pytest.raises(CapExceededError, match=r"q=1e\+300 would cost over 1e308"):
            dirichlet_search(G, 1e300)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_admits_every_bound_the_shell_search_admitted(self, n, d):
        # the per-shell search priced the box of bound H and 50 calls for
        # each of its H shells; every H it admitted is still admitted, and
        # scanned up to its own box.  Prices only: no search runs.
        from toruswalk import diophantine, errors

        G = builtin_generators("random", n, d, seed=1)
        H = _largest(lambda h: (2 * h + 1) ** d * n * d + 50 * h * errors.PER_CALL <= errors.BUDGET)
        for bound in range(1, H + 1):
            radii, price = diophantine._dirichlet_radii(G, bound)
            assert radii[-1] == bound and price <= errors.BUDGET
        # the new limit is that of the box alone, (2H+1)^d * n * d
        edge = _largest(lambda h: (2 * h + 1) ** d * n * d <= errors.BUDGET)
        radii, price = diophantine._dirichlet_radii(G, edge)
        assert radii[-1] == edge and price <= errors.BUDGET
        assert diophantine._dirichlet_radii(G, edge + 1)[1] > errors.BUDGET
        if n == d == 1:
            assert (H, edge) == (24_984, 39_999_999)


def _largest(admitted) -> int:
    """The largest h >= 1 with admitted(h), for admitted true at 1 and
    monotone."""
    lo, hi = 1, 2
    while admitted(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


class TestEstimateBadConstant:
    def test_golden_small_range(self):
        est = estimate_bad_constant(GOLDEN, 8)
        # global minimum of |h| * {h alpha} sits at h = 1 for the golden ratio
        assert est.c_est == pytest.approx(0.3819660113, abs=1e-9)
        assert est.argmin_h == (1,)
        assert est.certified_up_to == 8

    def test_half_gives_zero(self):
        est = estimate_bad_constant(load_generators([[0.5]]), 4)
        assert est.c_est == 0.0
        assert est.argmin_h == (2,)

    def test_sqrt_primes_row_shell_one(self):
        G = builtin_generators("sqrt_primes", 1, 2)
        est = estimate_bad_constant(G, 1)
        A = G.as_array()
        expected = min(
            nearest_integer_distance(A.dot((h1, h2)))[0]
            for h1 in (-1, 0, 1)
            for h2 in (-1, 0, 1)
            if (h1, h2) != (0, 0)
        )
        assert est.c_est == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_hmax(self):
        G = builtin_generators("sqrt_primes", 1, 2)
        vals = [estimate_bad_constant(G, hmax).c_est for hmax in (1, 2, 4, 8, 16)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rational_hits_zero(self):
        # denominator 4 keeps the entries exactly representable
        G = builtin_generators("rational(4)", 1, 1)
        assert estimate_bad_constant(G, 4).c_est == 0.0
        assert estimate_bad_constant(G, 3).c_est > 0.0

    def test_cap(self):
        G = builtin_generators("random", 1, 3, seed=0)
        with pytest.raises(CapExceededError):
            estimate_bad_constant(G, 1000)

    @pytest.mark.parametrize("hmax", [0, -3])
    def test_hmax_below_one_rejected(self, hmax):
        with pytest.raises(ValidationError, match="hmax must be >= 1"):
            estimate_bad_constant(GOLDEN, hmax)
