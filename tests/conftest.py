"""Shared brute-force oracles for the test suite.

These deliberately re-derive results from definitions (full enumeration
of walk paths, of candidate boxes, of grid boxes) so the optimized
library paths are checked against independent code.
"""

import itertools
import math
import operator
import re
from collections import defaultdict

import numpy as np

from toruswalk.walk import WeightedPointSet

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion."""
    results = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, ()):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if m and (outcome != "passed" or rep.when == "call"):
                num, name = int(m.group(1)), m.group(2)
                if outcome != "passed" or num not in results:
                    results[num] = (name, outcome)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        name, outcome = results[num]
        word = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{word} criterion {num}: {name.replace('_', ' ')}")


def enumerate_walk_counts(n: int, k: int) -> dict:
    """Counts of net coefficient vectors over all (2n)^k signed choice sequences."""
    counts: dict = defaultdict(int)
    for seq in itertools.product(range(2 * n), repeat=k):
        m = [0] * n
        for v in seq:
            m[v // 2] += 1 if v % 2 == 0 else -1
        counts[tuple(m)] += 1
    return dict(counts)


def project_counts(G, counts: dict, denominator: int) -> tuple:
    """Atoms of a complete count dict pushed to the torus, one vector at a
    time: frac of math.fsum(m . column) per coordinate, bit-identical points
    merged in a dict, each merged count divided once, zero weights dropped."""
    columns = list(zip(*G.entries))
    merged: dict = defaultdict(int)
    for m, c in counts.items():
        pt = []
        for col in columns:
            x = math.fsum(map(operator.mul, m, col))
            f = x - math.floor(x)
            pt.append(0.0 if f >= 1.0 else f)
        merged[tuple(pt)] += c
    atoms = ((pt, merged[pt] / denominator) for pt in sorted(merged))
    return tuple((pt, w) for pt, w in atoms if w > 0.0)


def brute_discrepancy_exact(P: WeightedPointSet) -> float:
    """Max over all candidate boxes (atom coordinates plus the boundary),
    closed boxes for the excess direction and open boxes for the deficit."""
    d = P.d
    cands = [sorted({0.0, 1.0} | {pt[ax] for pt, _ in P.atoms}) for ax in range(d)]
    pairs = [list(itertools.combinations_with_replacement(c, 2)) for c in cands]
    best = 0.0
    for corners in itertools.product(*pairs):
        a = [c[0] for c in corners]
        b = [c[1] for c in corners]
        vol = 1.0
        for lo, hi in zip(a, b):
            vol *= hi - lo
        closed = sum(
            w for pt, w in P.atoms if all(lo <= x <= hi for x, lo, hi in zip(pt, a, b))
        )
        open_ = sum(
            w for pt, w in P.atoms if all(lo < x < hi for x, lo, hi in zip(pt, a, b))
        )
        best = max(best, closed - vol, vol - open_)
    return best


def brute_discrepancy_grid(P: WeightedPointSet, res: int) -> float:
    """Max of |P(B) - vol(B)| over every half-open box with grid corners."""
    d = P.d
    pairs = list(itertools.combinations(range(res + 1), 2))
    best = 0.0
    for corners in itertools.product(pairs, repeat=d):
        a = [c[0] / res for c in corners]
        b = [c[1] / res for c in corners]
        vol = 1.0
        for lo, hi in zip(a, b):
            vol *= hi - lo
        mass = sum(
            w for pt, w in P.atoms if all(lo <= x < hi for x, lo, hi in zip(pt, a, b))
        )
        best = max(best, abs(mass - vol))
    return best


def scan_order_box(d: int, hmax: int):
    """Nonzero integer vectors with sup norm <= hmax in the search's scan
    order: coordinate values 0, 1, -1, ..., hmax, -hmax, the first
    coordinate varying fastest."""
    values = [0] + [v for s in range(1, hmax + 1) for v in (s, -s)]
    for t in itertools.product(values, repeat=d):
        if any(t):
            yield t[::-1]


def lex_box(d: int, bound: int):
    """Nonzero integer vectors with sup norm <= bound, lexicographic order."""
    for h in itertools.product(range(-bound, bound + 1), repeat=d):
        if any(h):
            yield h


def _weight(h) -> int:
    r = 1
    for v in h:
        r *= max(1, abs(v))
    return r


def _sup_dist_left_to_right(G, h) -> float:
    """{Ah}_inf with each h . alpha_j summed left to right in CPython floats."""
    sup = 0.0
    for row in G.entries:
        x = h[0] * row[0]
        for hi, a in zip(h[1:], row[1:]):
            x = x + hi * a
        sup = max(sup, abs(x - round(x)))
    return sup


def brute_bad_constant(G, hmax: int):
    """(first minimum, its h) of {Ah}_inf * ||h||_inf^(d/n) in scan order."""
    best_val, best_h = math.inf, None
    for h in scan_order_box(G.d, hmax):
        val = _sup_dist_left_to_right(G, h) * float(max(abs(v) for v in h)) ** (G.d / G.n)
        if val < best_val:
            best_val, best_h = val, h
    return best_val, best_h


def brute_dirichlet(G, q: float):
    """First h in shell order (sup norm 1, 2, ..., scan order within a
    shell) with {Ah}_inf < 1/q."""
    bound = int(math.floor(q ** (G.n / G.d)))
    for s in range(1, bound + 1):
        for h in scan_order_box(G.d, s):
            if max(abs(v) for v in h) == s and _sup_dist_left_to_right(G, h) < 1.0 / q:
                return h
    return None


def brute_qhat(G, h) -> float:
    """(1/n) sum_j cos(2 pi h . alpha_j), each sum taken with math.fsum."""
    return math.fsum(
        math.cos(2.0 * math.pi * math.fsum(hi * a for hi, a in zip(h, row)))
        for row in G.entries
    ) / G.n


def brute_etk(G, k: int, M: int) -> float:
    terms = [abs(brute_qhat(G, h)) ** k / _weight(h) for h in lex_box(G.d, M)]
    return 1.5 ** G.d * (2.0 / (M + 1) + math.fsum(terms))


def brute_best_fourier(G, k: int, hmax: int):
    """(first maximum, its h) of |qhat|^k / (pi^d R(h)) in lexicographic order."""
    best_val, best_h = -math.inf, None
    for h in lex_box(G.d, hmax):
        val = abs(brute_qhat(G, h)) ** k / (math.pi ** G.d * _weight(h))
        if val > best_val:
            best_val, best_h = val, h
    return best_val, best_h


def brute_cohort_sum(G, k: int, M: int) -> float:
    """sum of exp(-(4k/n) {2Ah}^2) / R(h), {.} the Euclidean distance to the
    nearest integer vector, each h . alpha_j taken with math.fsum."""
    terms = []
    for h in lex_box(G.d, M):
        dists = []
        for row in G.entries:
            x = 2.0 * math.fsum(hi * a for hi, a in zip(h, row))
            dists.append(abs(x - round(x)))
        euc = math.hypot(*dists)
        terms.append(math.exp(-(4.0 * k / G.n) * euc * euc) / _weight(h))
    return math.fsum(terms)


def random_point_set(rng: np.random.Generator, n_atoms: int, d: int) -> WeightedPointSet:
    pts = rng.random((n_atoms, d))
    w = rng.random(n_atoms)
    w /= w.sum()
    return WeightedPointSet(
        d=d,
        atoms=tuple((tuple(p), float(wt)) for p, wt in zip(pts, w)),
        provenance="exact",
    )
