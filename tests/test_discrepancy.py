import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Box((0.5,), (0.2,)), "0 <= a <= b <= 1"),
            (lambda: Box((-0.1,), (0.5,)), "0 <= a <= b <= 1"),
            (lambda: Box((0.0, 0.0), (1.0,)), "box corner dimensions differ"),
            (lambda: box_mass(point_mass(), Box((0.0, 0.0), (1.0, 1.0)), "closure"), "box dimension 2"),
            (lambda: box_mass(point_mass(), Box((0.0,), (1.0,)), "open"), "unknown mode 'open'"),
        ],
        ids=["reversed", "negative", "unequal-corners", "dimension-mismatch", "unknown-mode"],
    )
    def test_bad_box_rejected(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()


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


RULES = {  # rule triple and minus_volume of each estimator's _blocks call
    "excess": ((0, 0, 0), False),
    "deficit": ((1, 1, 1), False),
    "grid": ((0, 1, 1), True),
}


def _faces(P, rule, resolution=6):
    """The atoms and the face arrays an estimator hands _blocks."""
    pts = np.array([pt for pt, _ in P.atoms])
    faces = [discrepancy_module._distinct(pts[:, ax]) for ax in range(P.d)]
    if rule == "deficit":
        faces = [discrepancy_module._distinct(np.concatenate((f, [0.0, 1.0]))) for f in faces]
    if rule == "grid":
        grid = discrepancy_module._grid_candidates
        faces = [grid(pts[:, ax], resolution) / resolution for ax in range(P.d)]
    return pts, faces


def _blocks_of(P, rule, resolution=6):
    """Every block _blocks yields for P under one estimator's rule, with the
    pair (slab, i, j) of each row, none in a block of bound rows; the floor
    stays at -inf, so no node is skipped."""
    (pts, faces), (triple, minus_volume) = _faces(P, rule, resolution), RULES[rule]
    wts = np.array([w for _, w in P.atoms])
    blocks = []
    for lo, hi, prefix, _, segs, best in discrepancy_module._blocks(
        pts, wts, faces, triple, [-math.inf], minus_volume
    ):
        best[:] = 0.0
        pairs = [(lo, hi, i, js[r]) for _, i, js in segs or () for r in range(len(js))]
        blocks.append((lo, hi, prefix.copy(), segs, pairs))
    return faces, triple, blocks


def _unmetered(monkeypatch):
    """Lift the budget and _blocks' charge, so that even the smallest sets
    get bound rows at every level of nodes."""
    monkeypatch.setattr(errors, "BUDGET", math.inf)
    monkeypatch.setattr(discrepancy_module, "_elements", lambda faces, jmin: math.inf)


def _full_enumeration(monkeypatch):
    """Every strip in (i, j) order: no levels of nodes, nothing skipped."""
    monkeypatch.setattr(discrepancy_module, "_MARGIN", math.inf)
    monkeypatch.setattr(discrepancy_module, "_TOP", 10**9)


# sqrt_primes n = d = 2 at the k of the disc-d2 benchmark scan: value,
# witness corners and direction, as the enumerator gave them before it packed blocks
DISC_D2_EXACT = {
    4: (0.24240223412226286, (0.0, 0.0), (0.650281539872885, 0.7084973778708186)),
    6: (0.2053698927996687, (0.1715728752538097, 0.07179676972449123),
        (0.7060096298737257, 0.8419037337712223)),
    8: (0.1849688918231062, (0.1715728752538097, 0.07179676972449123),
        (0.7060096298737257, 0.8419037337712223)),
    10: (0.1672022452102575, (0.29399037012627427, 0.1580962662287777),
         (0.7060096298737257, 0.8419037337712223)),
}


def _disc_d2(k):
    G = builtin_generators("sqrt_primes", 2, 2)
    return project_to_torus(exact_walk_distribution(G, k), G)


class TestPackedBlocks:
    """Blocks pack the rows of consecutive left faces; a small _BLOCK splits
    a left face's rows across blocks, a large one packs many left faces."""

    @pytest.mark.parametrize("block", [1, 20, 1000, None])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_brute_force(self, d, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(discrepancy_module, "_BLOCK", block)
        for trial in range(3):
            rng = np.random.Generator(np.random.PCG64(7000 + 10 * d + trial))
            P = random_point_set(rng, 9 if d == 2 else 5, d)
            assert discrepancy_exact(P).value == pytest.approx(
                brute_discrepancy_exact(P), abs=1e-12
            )
            res = 6 if d == 2 else 3
            assert discrepancy_grid(P, res) == pytest.approx(
                brute_discrepancy_grid(P, res), abs=1e-12
            )

    @pytest.mark.parametrize("top", [1, 16])
    @pytest.mark.parametrize("rule", ["excess", "deficit", "grid"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_are_the_face_pairs_once(self, d, rule, top, monkeypatch):
        # 25 elements: 2 or 3 rows of at most 11 columns, so runs split and
        # share blocks; unmetered and unskipped, every slab yields bound rows
        # at each level (top = 1) or none (c <= 16 = top), and each face pair
        # once, early or in a run of its left face
        monkeypatch.setattr(discrepancy_module, "_BLOCK", 25)
        monkeypatch.setattr(discrepancy_module, "_TOP", top)
        _unmetered(monkeypatch)
        P = random_point_set(np.random.Generator(np.random.PCG64(7100 + d)), 8, d)
        faces, (a, b, jmin), blocks = _blocks_of(P, rule)
        u = faces[-2].size
        pairs, split, shared, last, bound_rows = {}, False, False, None, 0
        for lo, hi, prefix, segments, rows in blocks:
            if segments is None:
                bound_rows += prefix.shape[0]
                continue
            assert prefix.shape[0] == len(rows)
            assert [r0 for r0, _, _ in segments] == [
                sum(len(js) for _, _, js in segments[:m]) for m in range(len(segments))
            ]
            shared |= len({i for _, i, _ in segments}) > 1
            _, i, js = segments[0]  # a run split across blocks goes on where it stopped
            split |= last == (lo, hi, i, js[0] - js.step)
            _, i, js = segments[-1]
            last = (lo, hi, i, js[-1])
            pairs.setdefault((lo, hi), []).extend((i, j) for _, _, i, j in rows)
        assert split and shared
        assert (bound_rows > 0) == (top == 1)
        every = [(i, j) for i in range(u) for j in range(i + jmin, u)]
        for slab in pairs.values():
            assert sorted(slab) == every

    def test_disc_d2_outputs_are_pinned(self):
        for k, (value, lo, hi) in DISC_D2_EXACT.items():
            res = discrepancy_exact(_disc_d2(k))
            assert (res.value, res.witness.a, res.witness.b, res.direction) == (
                value, lo, hi, "excess"
            )
        assert discrepancy_grid(_disc_d2(20), 512) == 0.10942318922025152


def _rows_yielded(monkeypatch):
    """Wrap _blocks so that the returned list sums the rows it yields."""
    seen, blocks = [0], discrepancy_module._blocks

    def counted(*args, **kwargs):
        for block in blocks(*args, **kwargs):
            seen[0] += block[2].shape[0]
            yield block

    monkeypatch.setattr(discrepancy_module, "_blocks", counted)
    return seen


def _heavy_atom_set(d):
    # 0.9 of the mass on one atom with the largest coordinates: the winner is
    # the degenerate closed box on it, a strip of width 0 that comes last
    rng = np.random.Generator(np.random.PCG64(7200 + d))
    light = random_point_set(rng, 10 if d == 2 else 4, d).atoms
    atoms = tuple((pt, 0.1 * w) for pt, w in light) + (((0.97,) * d, 0.9),)
    return WeightedPointSet(d=d, atoms=atoms, provenance="exact")


def _tied_set():
    # excess 0.75 on the closed [0, 1/2]^2, deficit 0.75 on the open (0, 1)^2
    atoms = tuple(((x, y), 0.25) for x in (0.0, 0.5) for y in (0.0, 0.5))
    return WeightedPointSet(d=2, atoms=atoms, provenance="exact")


class TestStripBound:
    """Skipping the nodes whose bound misses the best value so far changes no
    value, witness or direction: each case is run with the skip, unmetered,
    with a first level of 1, 2, 4 and every node a side, and with the full
    enumeration, which skips nothing."""

    CASES = {
        "heavy atom d=2": (lambda: _heavy_atom_set(2), "excess"),
        "deficit wins": (
            lambda: random_point_set(np.random.Generator(np.random.PCG64(6001)), 8, 2), "deficit"
        ),
        "tie": (_tied_set, "excess"),
        "heavy atom d=3": (lambda: _heavy_atom_set(3), "excess"),
    }

    @pytest.mark.parametrize("block", [1, None])
    @pytest.mark.parametrize("case", list(CASES))
    def test_skip_keeps_value_and_witness(self, case, block, monkeypatch):
        make, direction = self.CASES[case]
        P = make()
        if block is not None:  # one-row blocks raise the floor after every row
            monkeypatch.setattr(discrepancy_module, "_BLOCK", block)
        rows, skipped = _rows_yielded(monkeypatch), False
        with monkeypatch.context() as m:
            _full_enumeration(m)
            rows[0] = 0
            ref, ref_grid = discrepancy_exact(P), discrepancy_grid(P, 4)
            all_rows = rows[0]
        _unmetered(monkeypatch)
        for top in (1, 2, 4, 10**6):
            monkeypatch.setattr(discrepancy_module, "_TOP", top)
            rows[0] = 0
            res, grid = discrepancy_exact(P), discrepancy_grid(P, 4)
            assert (res.value, res.witness) == (ref.value, ref.witness)
            assert res.direction == ref.direction == direction
            assert grid == ref_grid
            assert res.value == pytest.approx(brute_discrepancy_exact(P), abs=1e-12)
            assert grid == pytest.approx(brute_discrepancy_grid(P, 4), abs=1e-12)
            mode = "closure" if res.direction == "excess" else "interior"
            assert abs(box_mass(P, res.witness, mode) - res.witness.volume()) == pytest.approx(
                res.value, abs=1e-12
            )
            skipped |= rows[0] < all_rows
        assert skipped or case == "tie"  # the tie's bounds reach its value at every level


def _oracle_set(family, n, d, k):
    G = builtin_generators(family, n, d)
    return project_to_torus(exact_walk_distribution(G, k), G)


def _wall_set(x, seed):
    # a wall of 0.2 of the mass on the line x guards the empty region right
    # of it: the best deficit box starts at the wall, and the bound of a node
    # whose left faces straddle the wall is loose by the wall's mass
    rng = np.random.Generator(np.random.PCG64(seed))
    light = [(p, q) for p, q in rng.random((40, 2)).tolist() if not (p > x and q < 0.75)]
    wall = [(x, q) for q in np.linspace(0.05, 0.7, 6).tolist()]
    atoms = tuple((pt, 0.2 / 6) for pt in wall) + tuple((pt, 0.8 / len(light)) for pt in light)
    return WeightedPointSet(d=2, atoms=atoms, provenance="exact")


# (32 x, 32 y, 64 w): atoms in pairs p, 1 - p of equal weight, all dyadic,
# so a box and its mirror image have the same value exactly, and the best
# value is attained twice (by excess boxes in the first set, deficit boxes
# in the second)
_MIRRORED = (
    [
        (3, 23, 4), (5, 27, 16), (9, 21, 4), (11, 21, 4), (15, 29, 4),
        (17, 3, 4), (21, 11, 4), (23, 11, 4), (27, 5, 16), (29, 9, 4),
    ],
    [
        (1, 3, 4), (1, 11, 2), (3, 11, 16), (3, 25, 4), (5, 17, 4), (11, 29, 2),
        (21, 3, 2), (27, 15, 4), (29, 7, 4), (29, 21, 16), (31, 21, 2), (31, 29, 4),
    ],
)


def _mirrored_set(n):
    atoms = tuple(((x / 32, y / 32), w / 64) for x, y, w in _MIRRORED[n])
    return WeightedPointSet(d=2, atoms=atoms, provenance="exact")


class TestNodeBound:
    """The levels of nodes and their skip against the brute-force oracles and
    against the full enumeration in (i, j) order, unmetered, with a first
    level of 1, 2, 4 and every node a side."""

    SETS = {
        **{
            f"random d={d} #{trial}": (
                lambda d=d, trial=trial: random_point_set(
                    np.random.Generator(np.random.PCG64(7300 + 10 * d + trial)), {2: 12, 3: 5}[d], d
                ),
                None,
            )
            for d in (2, 3)
            for trial in range(3)
        },
        "tied rational:5 d=2": (lambda: _oracle_set("rational:5", 2, 2, 3), None),
        "tied rational:3 d=3": (lambda: _oracle_set("rational:3", 1, 3, 4), None),
        "tied diagonal d=3": (lambda: _oracle_set("diagonal:0.32", 1, 3, 3), None),
        "heavy atom d=2": (lambda: _heavy_atom_set(2), "excess"),
        "heavy atom d=3": (lambda: _heavy_atom_set(3), "excess"),
        "tie": (_tied_set, "excess"),
        "deficit wins": (
            lambda: random_point_set(np.random.Generator(np.random.PCG64(6001)), 8, 2), "deficit"
        ),
        **{
            f"wall at {x} #{seed}": (lambda x=x, seed=seed: _wall_set(x, seed), "deficit")
            for x, seed in ((0.3, 4), (0.35, 2), (0.5, 9))
        },
        "mirrored excess": (lambda: _mirrored_set(0), "excess"),
        "mirrored deficit": (lambda: _mirrored_set(1), "deficit"),
    }

    @pytest.mark.parametrize("top", [1, 2, 4, 10**6])
    @pytest.mark.parametrize("case", list(SETS))
    def test_matches_brute_force_and_the_full_enumeration(self, case, top, monkeypatch):
        make, direction = self.SETS[case]
        P = make()
        resolutions = (3, 5, 8) if P.d == 2 else (2, 3)
        with monkeypatch.context() as m:
            _full_enumeration(m)
            ref = discrepancy_exact(P)
            ref_grids = [discrepancy_grid(P, r) for r in resolutions]
        _unmetered(monkeypatch)
        monkeypatch.setattr(discrepancy_module, "_TOP", top)
        res = discrepancy_exact(P)
        assert (res.value, res.witness, res.direction) == (ref.value, ref.witness, ref.direction)
        brute = P.weights.size <= 16  # the walls' 45 atoms would take the oracle minutes
        if brute:
            assert res.value == pytest.approx(brute_discrepancy_exact(P), abs=1e-12)
        if direction is not None:
            assert res.direction == direction
        for r, ref_grid in zip(resolutions, ref_grids):
            grid = discrepancy_grid(P, r)
            assert grid == ref_grid
            if brute:
                assert grid == pytest.approx(brute_discrepancy_grid(P, r), abs=1e-12)

    def test_exact_on_the_disc_d2_set_yields_few_rows(self, monkeypatch):
        # sqrt_primes n = d = 2 at k = 10: 121 atoms, 121 faces a side for the
        # excess and 122 for the deficit (0 is an atom coordinate, 1 is not),
        # so 7 381 face pairs each; bound rows count as rows
        rows = _rows_yielded(monkeypatch)
        P = _disc_d2(10)
        assert discrepancy_exact(P).value == DISC_D2_EXACT[10][0]
        c = [_faces(P, rule)[1][0].size for rule in ("excess", "deficit")]
        pairs = sum(f * (f + 1 - 2 * jmin) // 2 for f, jmin in zip(c, (0, 1)))
        assert pairs == 14_762
        assert rows[0] <= 0.2 * pairs

    def test_grid_on_the_disc_d2_set_yields_few_rows(self, monkeypatch):
        # grid(512) on sqrt_primes n = d = 2 at k = 20: 513 faces a side
        rows = _rows_yielded(monkeypatch)
        P = _disc_d2(20)
        assert discrepancy_grid(P, 512) == 0.10942318922025152
        c = _faces(P, "grid", 512)[1][0].size
        assert c == 513
        assert rows[0] <= 0.1 * (c * (c - 1) // 2)

    def test_unbudgeted_exact_on_the_disc_d2_set(self, monkeypatch):
        # 441 atoms, priced over the budget; value and witness as the full enumeration gave them
        monkeypatch.setattr(errors, "BUDGET", math.inf)
        res = discrepancy_exact(_disc_d2(20))
        assert (res.value, res.witness.a, res.witness.b, res.direction) == (
            0.11141701616903568,
            (0.28741766050677864, 0.1580962662287777),
            (0.7125823394932214, 0.8419037337712223),
            "excess",
        )


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(2.0**-1000, 1.0)),
        min_size=1,
        max_size=16,
        unique_by=lambda atom: atom[:2],
    ),
    st.sampled_from([1, 2, 16]),
)
@settings(max_examples=60, deadline=None)
def test_tree_matches_the_full_enumeration_on_a_grid(atoms, top):
    # atoms on the 1/8 grid share coordinates, so boxes and strips tie;
    # weights from 2^-1000 to 1 put some atoms far below the rounding of others
    P = WeightedPointSet(d=2, atoms=tuple(((x / 8, y / 8), w) for x, y, w in atoms), provenance="exact")
    with pytest.MonkeyPatch.context() as m:
        _full_enumeration(m)
        ref = discrepancy_exact(P)
    with pytest.MonkeyPatch.context() as m:
        _unmetered(m)
        m.setattr(discrepancy_module, "_TOP", top)
        res = discrepancy_exact(P)
    assert (res.value, res.witness, res.direction) == (ref.value, ref.witness, ref.direction)
    assert res.value == pytest.approx(brute_discrepancy_exact(P), abs=1e-12)


class TestPricing:
    """The budget charges the enumerator's worst case before it starts."""

    @pytest.mark.parametrize("block", [None, 1, 20])
    @pytest.mark.parametrize("rule", ["excess", "deficit", "grid"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_price_covers_the_yielded_elements_and_calls(self, d, rule, block, monkeypatch):
        # unskipped, the blocks hold each face pair once, plus the bound rows
        # that the charge's slack pays for; at 8 numpy calls a block of face
        # pairs and 2 a segment, and _BOUND_CALLS a block of bound rows, they
        # stay within the charge.  Only 40 atoms in d = 2 and 18 in d = 3,
        # with the default blocks, leave slack enough for a level of nodes
        if block is not None:
            monkeypatch.setattr(discrepancy_module, "_BLOCK", block)
            monkeypatch.setattr(discrepancy_module, "_PRICED_BLOCK", block)
        monkeypatch.setattr(discrepancy_module, "_MARGIN", math.inf)
        atoms, resolution = {1: (7, 6), 2: (40, 64), 3: (18, 24)}[d]
        P = random_point_set(np.random.Generator(np.random.PCG64(5000 + d)), atoms, d)
        faces, (_, _, jmin), yielded = _blocks_of(P, rule, resolution)
        elements = sum(prefix.size for _, _, prefix, _, _ in yielded)
        assert all(prefix.shape[1] == faces[-1].size + 1 for _, _, prefix, _, _ in yielded)
        rows = [pair for *_, pairs in yielded for pair in pairs]
        assert len(set(rows)) == len(rows)
        pairs = [(f.size - jmin) * (f.size - jmin + 1) // 2 for f in faces[:-1]]
        assert len(rows) == (math.prod(pairs) if pairs else 0)  # d = 1: the table, no pairs
        calls = sum(
            discrepancy_module._BOUND_CALLS if segs is None else 8 + 2 * len(segs)
            for _, _, _, segs, _ in yielded
        )
        assert elements + errors.PER_CALL * calls <= discrepancy_module._elements(faces, jmin)
        assert any(segs is None for _, _, _, segs, _ in yielded) == (d > 1 and block is None)

    def test_disc_d2_prices_are_pinned(self):
        P = _disc_d2(20)
        assert discrepancy_module._elements(_faces(P, "grid", 512)[1], 1) == 73_259_392
        exact = sum(
            discrepancy_module._elements(_faces(P, rule)[1], jmin)
            for rule, jmin in (("excess", 0), ("deficit", 1))
        )
        assert exact == 93_452_985
        with pytest.raises(CapExceededError, match="would cost 9.35e[+]07"):
            discrepancy_exact(P)

    def test_many_small_blocks_are_refused_before_any(self, monkeypatch):
        # 50 atoms in d = 4 at grid(16): about 4.5e7 elements, under the
        # budget, but in about 3e5 blocks
        def no_blocks(*args, **kwargs):
            raise AssertionError("boxes were enumerated")

        monkeypatch.setattr(discrepancy_module, "_blocks", no_blocks)
        P = random_point_set(np.random.Generator(np.random.PCG64(0)), 50, 4)
        assert discrepancy_module._elements(_faces(P, "grid", 16)[1], 1) == 234_677_248
        refusal = "grid.16. discrepancy of 50 atoms in d=4 would cost 2.35e[+]08"
        with pytest.raises(CapExceededError, match=refusal):
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
