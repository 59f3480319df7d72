"""The four benchmark workloads as sequences of `toruswalk` CLI calls.

Each workload is a generator function of the seed.  It yields one argv
list per CLI call and receives that call's standard output back, so a
later call can use an earlier result (the approximation constant that
`badapprox` prints feeds the following `--ca`).  Every round of a
workload makes the same calls, CALLS[name] of them.

The make-up of each workload, and why it was chosen, is in README.md.
"""

from __future__ import annotations

import json
import math

WALK_HMAX = 100_000
WALK_SCHEDULE = "pow2:8..15"

DISC_SCHEDULE = "4,6,8,10,20"
DISC_RESOLUTION = 512

MC_SCHEDULE = "1024"
MC_TRIALS = 100_000

# (2*999+1)^2 = 3 996 001 vectors, just under SEARCH_BOX_CAP = 4 000 000.
BOUNDS_HMAX = 999
BOUNDS_KS = (1_000_000, 3_000_000, 10_000_000, 30_000_000, 100_000_000, 200_000_000)
# At every k above, and at the smallest k with M >= 1 as well, each term of
# the cohort and ETK sums underflows to 0, so those calls cannot show a
# fault in the sums.  A last call evaluates them where they are not small:
# k = 200 with c_a = 4 (a value passed to the sums, not a certified
# constant) gives M = 5, S about 0.26 of 0.5/(M+1) and an ETK frequency sum
# about 1 % of its 2/(M+1) term.
PROBE_K, PROBE_CA = 200, 4.0

SQRT_PRIMES_D2 = ["--builtin", "sqrt_primes", "--n", "2", "--d", "2"]


def scan_seed(seed: int) -> int:
    """The value passed to `scan --seed`; Philox keys must be non-negative."""
    return seed % 2**31


def truncation_index(n: int, d: int, c_a: float, k: int) -> int:
    """M = floor((1/8) (2 k c_a^2 / n^2)^(n/2d)), the paper's truncation index."""
    return int(math.floor((2.0 * k * c_a ** 2 / n ** 2) ** (n / (2 * d)) / 8.0))


def walk_d1(seed, out_dir):
    est = yield ["badapprox", "--builtin", "golden", "--hmax", str(WALK_HMAX)]
    c_a = json.loads(est)["c_est"]
    yield [
        "scan", "--builtin", "golden", "--method", "exact",
        "--k-schedule", WALK_SCHEDULE, "--ca", repr(c_a), "--hmax", str(WALK_HMAX),
        "--seed", str(scan_seed(seed)), "--out", out_dir, "--format", "json",
    ]


def disc_d2(seed, out_dir):
    yield [
        "scan", *SQRT_PRIMES_D2, "--method", "exact", "--k-schedule", DISC_SCHEDULE,
        "--resolution", str(DISC_RESOLUTION),
        "--seed", str(scan_seed(seed)), "--out", out_dir, "--format", "json",
    ]


def mc_d1(seed, out_dir):
    yield [
        "scan", "--builtin", "sqrt_primes", "--n", "2", "--d", "1", "--method", "mc",
        "--k-schedule", MC_SCHEDULE, "--trials", str(MC_TRIALS),
        "--seed", str(scan_seed(seed)), "--out", out_dir, "--format", "json",
    ]


def bounds_d2(seed, out_dir):
    est = yield ["badapprox", *SQRT_PRIMES_D2, "--hmax", str(BOUNDS_HMAX)]
    c_a = json.loads(est)["c_est"]
    for k in BOUNDS_KS:
        yield [
            "bounds", *SQRT_PRIMES_D2, "--k", str(k), "--ca", repr(c_a),
            "--ca-hmax", str(BOUNDS_HMAX), "--etk-m", str(truncation_index(2, 2, c_a, k)),
        ]
    yield [
        "bounds", *SQRT_PRIMES_D2, "--k", str(PROBE_K), "--ca", repr(PROBE_CA),
        "--etk-m", str(truncation_index(2, 2, PROBE_CA, PROBE_K)),
    ]


WORKLOADS = {
    "walk-d1": walk_d1,
    "disc-d2": disc_d2,
    "mc-d1": mc_d1,
    "bounds-d2": bounds_d2,
}

CALLS = {"walk-d1": 2, "disc-d2": 1, "mc-d1": 1, "bounds-d2": 2 + len(BOUNDS_KS)}
