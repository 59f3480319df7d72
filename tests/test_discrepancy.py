import tracemalloc

import numpy as np
import pytest

from conftest import brute_discrepancy_exact, brute_discrepancy_grid, random_point_set
from toruswalk import (
    Box,
    CapExceededError,
    ValidationError,
    box_mass,
    builtin_generators,
    discrepancy_exact,
    discrepancy_grid,
    exact_walk_distribution,
    project_to_torus,
)
from toruswalk import discrepancy as discrepancy_module
from toruswalk import errors
from toruswalk.walk import WeightedPointSet


def point_mass(x=0.0, d=1):
    return WeightedPointSet(d=d, atoms=(((x,) * d, 1.0),), provenance="exact")


def equal_atoms(coords, d=1):
    w = 1.0 / len(coords)
    return WeightedPointSet(
        d=d, atoms=tuple(((c,), w) for c in coords), provenance="exact"
    )


class TestBoxMass:
    def test_closure_includes_endpoints(self):
        assert box_mass(point_mass(0.0), Box((0.0,), (0.5,)), "closure") == 1.0

    def test_interior_excludes_endpoints(self):
        assert box_mass(point_mass(0.0), Box((0.25,), (0.75,)), "interior") == 0.0

    def test_two_atoms_closed(self):
        P = equal_atoms([0.382, 0.618])
        assert box_mass(P, Box((0.382,), (0.618,)), "closure") == 1.0
        assert box_mass(P, Box((0.382,), (0.618,)), "interior") == 0.0

    def test_bad_box_rejected(self):
        with pytest.raises(ValidationError):
            Box((0.5,), (0.2,))
        with pytest.raises(ValidationError):
            Box((-0.1,), (0.5,))
        with pytest.raises(ValidationError):
            box_mass(point_mass(), Box((0.0, 0.0), (1.0, 1.0)), "closure")


class TestExact:
    def test_point_mass_is_one(self):
        res = discrepancy_exact(point_mass(0.0))
        assert res.value == 1.0

    def test_golden_one_step(self):
        G = builtin_generators("golden", 1, 1)
        P = project_to_torus(exact_walk_distribution(G, 1), G)
        res = discrepancy_exact(P)
        assert res.value == pytest.approx(0.7639320225, abs=1e-9)
        assert res.direction == "excess"
        lo, hi = res.witness.a[0], res.witness.b[0]
        assert lo == pytest.approx(0.3819660113, abs=1e-9)
        assert hi == pytest.approx(0.6180339887, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_equally_spaced(self, m):
        P = equal_atoms([i / m for i in range(m)])
        assert discrepancy_exact(P).value == pytest.approx(1.0 / m, abs=1e-12)

    def test_four_spaced_value(self):
        P = equal_atoms([0.0, 0.25, 0.5, 0.75])
        assert discrepancy_exact(P).value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_brute_force_d1(self, trial):
        rng = np.random.Generator(np.random.PCG64(trial))
        P = random_point_set(rng, int(rng.integers(1, 15)), 1)
        assert discrepancy_exact(P).value == pytest.approx(
            brute_discrepancy_exact(P), abs=1e-12
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_brute_force_d2(self, trial):
        rng = np.random.Generator(np.random.PCG64(1000 + trial))
        P = random_point_set(rng, int(rng.integers(1, 10)), 2)
        assert discrepancy_exact(P).value == pytest.approx(
            brute_discrepancy_exact(P), abs=1e-12
        )

    @pytest.mark.parametrize("trial", range(3))
    def test_matches_brute_force_d3(self, trial):
        rng = np.random.Generator(np.random.PCG64(2000 + trial))
        P = random_point_set(rng, int(rng.integers(1, 7)), 3)
        assert discrepancy_exact(P).value == pytest.approx(
            brute_discrepancy_exact(P), abs=1e-12
        )

    def test_witness_evaluates_to_value(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for d, n_atoms in ((1, 12), (2, 12), (3, 8)):
            P = random_point_set(rng, n_atoms, d)
            res = discrepancy_exact(P)
            assert res.witness.d == d
            mode = "closure" if res.direction == "excess" else "interior"
            mass = box_mass(P, res.witness, mode)
            assert abs(mass - res.witness.volume()) == pytest.approx(res.value, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.Generator(np.random.PCG64(4))
        P = random_point_set(rng, 20, 2)
        shuffled = WeightedPointSet(
            d=2, atoms=tuple(reversed(P.atoms)), provenance="exact"
        )
        assert discrepancy_exact(P).value == discrepancy_exact(shuffled).value

    def test_caps(self):
        rng = np.random.Generator(np.random.PCG64(5))
        P = random_point_set(rng, 61, 3)
        with pytest.raises(CapExceededError, match="discrepancy_grid"):
            discrepancy_exact(P)
        P4 = random_point_set(rng, 3, 4).atoms
        with pytest.raises(CapExceededError, match="d <= 3.*discrepancy_grid"):
            discrepancy_exact(WeightedPointSet(d=4, atoms=P4, provenance="exact"))


class TestGrid:
    def test_point_mass_res4(self):
        assert discrepancy_grid(point_mass(0.0), 4) == pytest.approx(0.75, abs=1e-15)

    def test_res_validation(self):
        for resolution in (1, 2**53 + 1):
            with pytest.raises(ValidationError):
                discrepancy_grid(point_mass(0.0), resolution)

    def test_largest_resolution_keeps_faces_distinct(self):
        # past 2**53 the faces i / r of neighbouring indices round together
        P = WeightedPointSet(d=1, atoms=(((0.1,), 0.5), ((0.7,), 0.5)), provenance="exact")
        r = 2**53
        g, e = discrepancy_grid(P, r), discrepancy_exact(P).value
        assert e == pytest.approx(0.6, abs=1e-15)
        assert g <= e <= g + 2.0 / r

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_brute_force(self, trial):
        rng = np.random.Generator(np.random.PCG64(3000 + trial))
        d = int(rng.integers(1, 4))
        P = random_point_set(rng, int(rng.integers(1, 10)), d)
        res = int(rng.integers(2, 9 if d < 3 else 4))
        assert discrepancy_grid(P, res) == pytest.approx(
            brute_discrepancy_grid(P, res), abs=1e-12
        )

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize("d, k, res", [(1, 6, 32), (2, 4, 8), (3, 3, 4)])
    def test_dyadic_inputs_match_brute_force_exactly(self, d, k, res, one_row_blocks, monkeypatch):
        # weights over 4^k and faces i / 2^m: every mass, volume and
        # difference is a float without rounding, in any order of summing
        if one_row_blocks:
            monkeypatch.setattr(discrepancy_module, "_BLOCK", 1)
        G = builtin_generators("sqrt_primes", 2, d)
        P = project_to_torus(exact_walk_distribution(G, k), G)
        assert discrepancy_grid(P, res) == brute_discrepancy_grid(P, res)

    def test_grid_memory_stays_near_one_table(self):
        # the d = 2 table of (c + 1)^2 cells is built once and read in
        # place; a second table-sized array would pass 1.5 tables
        G = builtin_generators("sqrt_primes", 2, 2)
        P = project_to_torus(exact_walk_distribution(G, 20), G)
        pts = np.array([pt for pt, _ in P.atoms])
        sizes = [discrepancy_module._grid_candidates(pts[:, ax], 512).size for ax in range(2)]
        table_bytes = (sizes[0] + 1) * (sizes[1] + 1) * 8
        tracemalloc.start()
        try:
            discrepancy_grid(P, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table_bytes

    def test_golden_one_step_converges(self):
        G = builtin_generators("golden", 1, 1)
        P = project_to_torus(exact_walk_distribution(G, 1), G)
        g = discrepancy_grid(P, 512)
        assert abs(g - 0.7639320225) <= 2.0 / 512


class TestTiedCoordinates:
    """Walk point sets whose atoms share coordinates along an axis (or, on
    the diagonal, share their order on every axis); random sets never do.
    A one-row block budget also splits every row of boxes into blocks."""

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    @pytest.mark.parametrize(
        "family, n, d, k",
        [
            ("rational:5", 2, 2, 2),
            ("rational:5", 2, 2, 3),
            ("rational:3", 1, 3, 4),
            ("diagonal:0.32", 1, 3, 3),
            # weights over 6^k are not dyadic: summed-area differences round
            # differently from per-box sums
            ("rational:5", 3, 2, 3),
            ("rational:7", 3, 2, 3),
        ],
    )
    def test_matches_brute_force(self, family, n, d, k, one_row_blocks, monkeypatch):
        if one_row_blocks:
            monkeypatch.setattr(discrepancy_module, "_BLOCK", 1)
        G = builtin_generators(family, n, d)
        P = project_to_torus(exact_walk_distribution(G, k), G)
        assert discrepancy_exact(P).value == pytest.approx(
            brute_discrepancy_exact(P), abs=1e-12
        )
        res = 8 if d < 3 else 4
        assert discrepancy_grid(P, res) == pytest.approx(
            brute_discrepancy_grid(P, res), abs=1e-12
        )


class TestPricing:
    """The budget charges exactly the work the enumerator yields."""

    @pytest.mark.parametrize("block", [None, 1, 20])
    @pytest.mark.parametrize("rule", ["excess", "deficit", "grid"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_price_counts_the_yielded_elements_and_blocks(self, d, rule, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(discrepancy_module, "_BLOCK", block)
        rng = np.random.Generator(np.random.PCG64(5000 + d))
        P = random_point_set(rng, 7, d)
        pts = np.array([pt for pt, _ in P.atoms])
        wts = np.array([w for _, w in P.atoms])
        faces = [discrepancy_module._distinct(pts[:, ax]) for ax in range(d)]
        if rule == "deficit":
            faces = [discrepancy_module._distinct(np.concatenate((f, [0.0, 1.0]))) for f in faces]
        if rule == "grid":
            faces = [discrepancy_module._grid_candidates(pts[:, ax], 6) / 6 for ax in range(d)]
        triple = {"excess": (0, 0, 0), "deficit": (1, 1, 1), "grid": (0, 1, 1)}[rule]
        elements = blocks = 0
        for _, _, prefix, W in discrepancy_module._blocks(pts, wts, faces, triple):
            assert prefix.shape == (W.size, faces[-1].size + 1)
            elements, blocks = elements + prefix.size, blocks + 1
        assert blocks > 0
        charged = discrepancy_module._elements(faces, triple[2])
        assert charged == elements + 10 * errors.PER_CALL * blocks

    def test_many_small_blocks_are_refused_before_any(self, monkeypatch):
        # 50 atoms in d = 4 at grid(16): about 4.5e7 elements, under the
        # budget, but in about 3e5 blocks
        def no_blocks(*args):
            raise AssertionError("boxes were enumerated")

        monkeypatch.setattr(discrepancy_module, "_blocks", no_blocks)
        P = random_point_set(np.random.Generator(np.random.PCG64(0)), 50, 4)
        with pytest.raises(CapExceededError, match="grid.16. discrepancy of 50 atoms"):
            discrepancy_grid(P, 16)


class TestSandwich:
    @pytest.mark.parametrize("trial", range(8))
    def test_grid_below_exact_above_minus_slack(self, trial):
        rng = np.random.Generator(np.random.PCG64(4000 + trial))
        d = int(rng.integers(1, 3))
        P = random_point_set(rng, int(rng.integers(1, 30)), d)
        res = 128
        g = discrepancy_grid(P, res)
        e = discrepancy_exact(P).value
        assert g <= e + 1e-12
        assert e <= g + d * 2.0 / res + 1e-12
