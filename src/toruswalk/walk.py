"""Exact and Monte Carlo step distributions of the torus walk.

The walk is tracked on the coefficient lattice Z^n: after k steps the
position is the mod-1 image of m @ A where m is the vector of net signed
choices per generator.  Counts are exact big integers over the common
denominator (2n)^k; floats enter only when projecting to the torus.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, ValidationError
from .generators import GeneratorMatrix, frac

# Reachable-state guard for the exact convolution, ~(2k+1)^n states.
WALK_STATE_CAP = 5_000_000
# Big-integer guard for the n = 1 binomial counts: the k+1 counts C(k, j)
# hold at most k bits each (about 0.72 k^2 in total), so k(k+1) bounds the
# total.  2^33 admits k <= 92 681; a golden walk plus projection at
# k = 2^16 peaks near 840 MB.
WALK_BITS_CAP = 2**33


@dataclass(frozen=True)
class LatticeDistribution:
    """Exact distribution of the net coefficient vector after k steps."""

    k: int
    n: int
    counts: dict  # m tuple in Z^n -> positive int
    denominator: int  # (2n)^k

    def check(self) -> None:
        """Assert the defining invariants; raises AssertionError on violation."""
        assert sum(self.counts.values()) == self.denominator
        for m, c in self.counts.items():
            assert c > 0
            s = sum(abs(v) for v in m)
            assert s <= self.k and (s - self.k) % 2 == 0
            neg = tuple(-v for v in m)
            assert self.counts.get(neg) == c


@dataclass(frozen=True)
class WeightedPointSet:
    """Finite set of distinct torus points with probability weights."""

    d: int
    atoms: tuple  # ((point tuple in [0,1)^d, weight in (0,1]), ...)
    provenance: str  # "exact" | "empirical"

    def total_weight(self) -> float:
        return math.fsum(w for _, w in self.atoms)


def exact_walk_distribution(G: GeneratorMatrix, k: int, state_cap: int = WALK_STATE_CAP) -> LatticeDistribution:
    """k-fold convolution of the single-step measure on Z^n, exact integers.

    For a single generator the counts are binomial and computed directly;
    otherwise a dynamic program adds +-e_j per step over the reachable box.
    Both caps are checked before any count is built.
    """
    if k < 0:
        raise ValidationError("step count k must be >= 0")
    n = G.n
    if (2 * k + 1) ** n > state_cap:
        raise CapExceededError(
            f"exact convolution needs up to {(2 * k + 1) ** n} states (cap {state_cap}); "
            "use simulate_walk instead"
        )
    if n == 1 and k * (k + 1) > WALK_BITS_CAP:
        raise CapExceededError(
            f"exact binomial counts need up to {k * (k + 1)} bits (cap {WALK_BITS_CAP}); "
            "use simulate_walk instead"
        )
    denom = (2 * n) ** k

    if n == 1:
        # counts(m) = C(k, (k+m)/2) for m = -k..k with m = k mod 2
        counts = {}
        c = 1
        for j in range(k + 1):
            counts[(2 * j - k,)] = c
            c = c * (k - j) // (j + 1)
        return LatticeDistribution(k=k, n=1, counts=counts, denominator=denom)

    counts = {(0,) * n: 1}
    for _ in range(k):
        nxt: dict = defaultdict(int)
        for m, c in counts.items():
            for j in range(n):
                for s in (1, -1):
                    mm = m[:j] + (m[j] + s,) + m[j + 1:]
                    nxt[mm] += c
        counts = dict(nxt)
    return LatticeDistribution(k=k, n=n, counts=counts, denominator=denom)


def _project_m(m, A_cols) -> tuple:
    """Torus image of a coefficient vector: frac of m . alpha per coordinate."""
    return tuple(frac(math.fsum(mi * a for mi, a in zip(m, col))) for col in A_cols)


def _projected(G: GeneratorMatrix, rows, counts, denominator: int, provenance: str) -> WeightedPointSet:
    """Push integer counts on coefficient vectors to [0,1)^d.

    Bit-identical points are merged as integers and divided by the
    denominator once, so each float weight carries a single rounding.
    Atoms whose weight underflows to 0.0 are dropped.
    """
    A_cols = [tuple(G.entries[j][i] for j in range(G.n)) for i in range(G.d)]
    merged: dict = defaultdict(int)
    for m, c in zip(rows, counts):
        merged[_project_m(m, A_cols)] += c
    atoms = []
    for pt in sorted(merged):
        w = merged[pt] / denominator
        if w > 0.0:
            atoms.append((pt, w))
    return WeightedPointSet(d=G.d, atoms=tuple(atoms), provenance=provenance)


def project_to_torus(L: LatticeDistribution, G: GeneratorMatrix) -> WeightedPointSet:
    """Push the lattice distribution to [0,1)^d, merging bit-identical points."""
    if L.n != G.n:
        raise ValidationError(f"distribution has n={L.n} but matrix has n={G.n}")
    return _projected(G, L.counts.keys(), L.counts.values(), L.denominator, "exact")


def simulate_walk(G: GeneratorMatrix, k: int, trials: int, seed: int) -> WeightedPointSet:
    """Empirical k-step distribution from independent seeded walks.

    Each trial draws its 2n per-direction step counts at once, from
    Multinomial(k, 1/(2n), ..., 1/(2n)) -- the law of the direction counts
    of k i.i.d. uniform steps -- on a counter-based Philox stream keyed by
    the seed.  Time and memory are O(trials * n) whatever k is, and the
    output depends only on (seed, trials, k), never on scheduling.
    """
    if k < 0:
        raise ValidationError("step count k must be >= 0")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    n, d = G.n, G.d
    if k == 0:
        return WeightedPointSet(d=d, atoms=(((0.0,) * d, 1.0),), provenance="empirical")

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    # direction 2j is +alpha_j, 2j+1 is -alpha_j
    steps = rng.multinomial(k, [1.0 / (2 * n)] * (2 * n), size=trials)
    m = steps[:, 0::2] - steps[:, 1::2]
    uniq, counts = np.unique(m, axis=0, return_counts=True)
    return _projected(G, uniq.tolist(), counts.tolist(), trials, "empirical")


def pointset_to_csv_text(P: WeightedPointSet) -> str:
    """One atom per line: d coordinates then weight, 17 significant digits."""
    lines = []
    for pt, w in P.atoms:
        lines.append(",".join("%.17g" % v for v in pt) + ",%.17g" % w)
    return "\n".join(lines) + "\n"


def pointset_from_csv_text(text: str, provenance: str = "exact") -> WeightedPointSet:
    atoms = []
    d = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [float(f) for f in line.split(",")]
        if len(fields) < 2:
            raise ValidationError(f"point-set line needs >= 2 fields: {line!r}")
        if d is None:
            d = len(fields) - 1
        elif len(fields) - 1 != d:
            raise ValidationError("point-set lines have inconsistent dimensions")
        atoms.append((tuple(fields[:-1]), fields[-1]))
    if not atoms:
        raise ValidationError("empty point-set file")
    merged: dict = defaultdict(float)
    for pt, w in atoms:
        merged[pt] += w
    return WeightedPointSet(
        d=d, atoms=tuple((pt, merged[pt]) for pt in sorted(merged)), provenance=provenance
    )
