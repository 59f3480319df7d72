"""Checks of each workload's CLI outputs against the reference oracles
and against properties the method must have.

Each check takes the calls of one round that succeeded ({"argv", "rc",
"out"}; a prefix of the workload's calls, all of them unless one failed)
and returns a list of failure messages.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles
import workloads

GOLDEN = np.array([[(1.0 + math.sqrt(5.0)) / 2.0 - 1.0]])
MC_DELTA = 1e-6  # chance that the DKW check fails on a correct program


def sqrt_primes(n: int, d: int) -> np.ndarray:
    """Rows (frac sqrt p) over the first n*d primes, row j taking d of them."""
    roots = [math.sqrt(p) for p in (2, 3, 5, 7)[: n * d]]
    return np.array([[r - math.floor(r) for r in roots[j * d : (j + 1) * d]] for j in range(n)])


def _close(a, b, rel, abs_=0.0) -> bool:
    return a is not None and abs(a - b) <= max(abs_, rel * abs(b))


def _json(call):
    return json.loads(call["out"])


def _disc_reference(lattice, A, row):
    pts, wts = oracles.project(*lattice, A)
    method = row["disc_method"]
    if method == "exact":
        return oracles.disc_1d(pts[:, 0], wts) if A.shape[1] == 1 else oracles.disc_2d(pts, wts)
    r = int(method[len("grid(") : -1])
    return oracles.disc_grid(pts, wts, r)


def _check_badapprox(call, A, hmax, fails):
    est = _json(call)
    ref = oracles.bad_constant(A, hmax)
    if not _close(est["c_est"], ref, 1e-8):
        fails.append(f"badapprox c_est {est['c_est']!r} != numpy {ref!r}")
    if est["certified_up_to"] != hmax:
        fails.append(f"badapprox certified_up_to {est['certified_up_to']} != {hmax}")
    return est["c_est"]


def _check_theorem_bounds(row, n, d, c_a, k, fails):
    if not _close(row["lower"], oracles.lower_bound(n, d, k), 1e-12):
        fails.append(f"k={k}: lower {row['lower']!r} != formula")
    if c_a is not None and not _close(row["upper"], oracles.upper_bound(n, d, c_a, k), 1e-12):
        fails.append(f"k={k}: upper {row['upper']!r} != formula")


def check_walk_d1(calls):
    fails = []
    if calls:
        c_a = _check_badapprox(calls[0], GOLDEN, workloads.WALK_HMAX, fails)
    if len(calls) < 2:
        return fails
    report = _json(calls[1])
    lo, hi = map(int, workloads.WALK_SCHEDULE[len("pow2:") :].split(".."))
    ks = [2 ** e for e in range(lo, hi + 1)]
    if [r["k"] for r in report["rows"]] != ks:
        return fails + [f"scan rows {[r['k'] for r in report['rows']]} != schedule {ks}"]
    for row in report["rows"]:
        k, D = row["k"], row["discrepancy"]
        ref = _disc_reference(oracles.lattice_n1(k), GOLDEN, row)
        if not _close(D, ref, 0.0, 1e-12):
            fails.append(f"k={k}: D {D!r} != oracle {ref!r}")
        _check_theorem_bounds(row, 1, 1, c_a, k, fails)
        M = workloads.truncation_index(1, 1, c_a, k)
        if row["M"] != M:
            fails.append(f"k={k}: M {row['M']} != {M}")
            continue
        etk = oracles.etk(GOLDEN, k, M)
        if not _close(row["etk"], etk, 1e-9):
            fails.append(f"k={k}: etk {row['etk']!r} != numpy {etk!r}")
        if not (row["lower"] <= D <= min(1.0, row["upper"]) and D <= row["etk"]):
            fails.append(f"k={k}: D={D!r} outside [lower, min(1, upper)] or above etk")
    slope = float(np.polyfit(np.log(ks), np.log([r["discrepancy"] for r in report["rows"]]), 1)[0])
    fitted = report["fitted_exponent"]
    if not _close(fitted, slope, 1e-9) or abs(fitted + 0.5) > 0.15:
        fails.append(f"fitted exponent {fitted!r} (least squares {slope!r}) not within 0.15 of -1/2")
    return fails


def check_disc_d2(calls):
    fails = []
    if not calls:
        return fails
    A = sqrt_primes(2, 2)
    report = _json(calls[0])
    ks = [int(k) for k in workloads.DISC_SCHEDULE.split(",")]
    if [r["k"] for r in report["rows"]] != ks:
        return [f"scan rows {[r['k'] for r in report['rows']]} != schedule {ks}"]
    for row in report["rows"]:
        k, D = row["k"], row["discrepancy"]
        ref = _disc_reference(oracles.lattice_n2(k), A, row)
        if not _close(D, ref, 0.0, 1e-12):
            fails.append(f"k={k}: {row['disc_method']} D {D!r} != oracle {ref!r}")
        _check_theorem_bounds(row, 2, 2, None, k, fails)
        slack = 0.0 if row["disc_method"] == "exact" else 2 * 2 / workloads.DISC_RESOLUTION
        if D + slack < row["lower"]:
            fails.append(f"k={k}: D + {slack} = {D + slack!r} below lower {row['lower']!r}")
    return fails


def check_mc_d1(calls):
    fails = []
    if not calls:
        return fails
    A = sqrt_primes(2, 1)
    report = _json(calls[0])
    ks = [int(k) for k in workloads.MC_SCHEDULE.split(",")]
    if [r["k"] for r in report["rows"]] != ks or report["trials"] != workloads.MC_TRIALS:
        return [f"scan rows {[r['k'] for r in report['rows']]} or trials {report['trials']} differ"]
    radius = 2 * oracles.dkw_radius(workloads.MC_TRIALS, MC_DELTA)
    for row in report["rows"]:
        k, D = row["k"], row["discrepancy"]
        if row["method"] != "mc":
            fails.append(f"k={k}: method {row['method']} is not mc")
        pts, wts = oracles.project(*oracles.lattice_n2(k), A)
        exact = oracles.disc_1d(pts[:, 0], wts)
        if abs(D - exact) > radius:
            fails.append(f"k={k}: |D_mc - D_exact| = {abs(D - exact)!r} > DKW radius {radius!r}")
        _check_theorem_bounds(row, 2, 1, None, k, fails)
        if exact < row["lower"]:
            fails.append(f"k={k}: exact D {exact!r} below lower {row['lower']!r}")
    return fails


def _check_sums(rep, A, M, fails):
    """s_value, etk and lemma_ok of one `bounds` call against numpy.

    Returns the reference cohort sum and ETK frequency sum (the ETK bound
    without its 2/(M+1) term, divided by (3/2)^d)."""
    k = rep["k"]
    s = oracles.cohort(A, k, M)
    if not _close(rep["s_value"], s, 1e-9, 1e-300):
        fails.append(f"k={k}: s_value {rep['s_value']!r} != numpy {s!r}")
    etk = oracles.etk(A, k, M)
    if not _close(rep["etk"], etk, 1e-9):
        fails.append(f"k={k}: etk {rep['etk']!r} != numpy {etk!r}")
    if rep["lemma_ok"] is not (s <= 0.5 / (M + 1)):
        fails.append(f"k={k}: lemma_ok {rep['lemma_ok']} with numpy S={s!r}, M={M}")
    return s, etk / 1.5 ** A.shape[1] - 2.0 / (M + 1)


def check_bounds_d2(calls):
    fails = []
    if not calls:
        return fails
    A = sqrt_primes(2, 2)
    c_a = _check_badapprox(calls[0], A, workloads.BOUNDS_HMAX, fails)
    n_ks = len(workloads.BOUNDS_KS)
    for call, k_planned in zip(calls[1 : 1 + n_ks], workloads.BOUNDS_KS):
        rep = _json(call)
        k, M = rep["k"], workloads.truncation_index(2, 2, c_a, rep["k"])
        if k != k_planned or rep["M"] != M or rep["etk_M"] != M:
            fails.append(f"k={k} (planned {k_planned}): M {rep['M']} / etk_M {rep['etk_M']} != {M}")
            continue
        _check_theorem_bounds(rep, 2, 2, c_a, k, fails)
        _check_sums(rep, A, M, fails)
        if rep["lemma_ok"] is not True:
            fails.append(f"k={k}: lemma_ok {rep['lemma_ok']} with S={rep['s_value']!r}, M={M}")
        if not rep["upper"] >= rep["lower"]:
            fails.append(f"k={k}: upper {rep['upper']!r} below lower {rep['lower']!r}")
    if len(calls) < 2 + n_ks:
        return fails
    # The probe: both sums well above the tolerances they are compared at.
    rep = _json(calls[1 + n_ks])
    k, M = workloads.PROBE_K, workloads.truncation_index(2, 2, workloads.PROBE_CA, workloads.PROBE_K)
    if rep["k"] != k or rep["M"] != M or rep["etk_M"] != M:
        return fails + [f"probe k={rep['k']}: M {rep['M']} / etk_M {rep['etk_M']} != {M}"]
    s, etk_sum = _check_sums(rep, A, M, fails)
    if not (s > 1e-3 * 0.5 / (M + 1) and etk_sum > 1e-3 * 2.0 / (M + 1)):
        fails.append(f"probe k={k}: reference sums S={s!r}, ETK sum={etk_sum!r} too small to test")
    return fails


CHECKS = {
    "walk-d1": check_walk_d1,
    "disc-d2": check_disc_d2,
    "mc-d1": check_mc_d1,
    "bounds-d2": check_bounds_d2,
}
