"""Benchmark of the toruswalk pipeline: walk, discrepancy, Monte Carlo
and bound certification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of the named workload (see workloads.py and README.md) for S
seconds, each round in a fresh interpreter (worker.py), then checks every
distinct output against the reference oracles (checks.py).  The last
line of standard output is one JSON object with `correct`, `attempted`
and `failed` (one operation per CLI call) and `metrics`: with --trace 0
the end-to-end metrics of BENCHMARK.json, medians over the rounds; with
--trace 1 its per-layer metrics, from traced rounds alternating with
untraced ones.  `--workload all` runs every workload in turn and prints
one such line for each.

Exit status: 0 when every check passes, 1 when a check fails, 2 when the
benchmark cannot run (no `src/toruswalk` beside this directory, or a
round that crashed).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUND_TIMEOUT_S = 150
# setup_s is the median of at least this many process starts: the rounds'
# own, one more after each round from a process that stops where the
# first call would start, and as many such processes at the end as are
# still missing.
SETUP_SAMPLES = 15
# numpy's OpenBLAS starts a thread pool on import; on a small shared machine
# how long that takes depends on the other CPUs' load, and it made up most
# of the run-to-run variation of setup_s.  The package does no BLAS work
# large enough to gain from threads, so the workers run with one BLAS thread.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")
_GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')


class BenchError(Exception):
    pass


def run_round(name, seed, mode):
    """One fresh worker process; setup_s runs from its spawn to its first call."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), mode,
           os.path.join(RUNS, f"out-{name}")]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: a round took more than {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name}: worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def check_rounds(name, rounds):
    """Check each distinct output of the calls that succeeded, once.

    A round stops at its first failed call, so these are a prefix of the
    workload's calls.
    """
    from checks import CHECKS

    seen, fails = set(), []
    for r in rounds:
        calls = [c for c in r["calls"] if c["rc"] == 0]
        key = json.dumps([(c["argv"], _GENERATED_AT.sub("", c["out"])) for c in calls])
        if key not in seen:
            seen.add(key)
            fails += CHECKS[name](calls)
    return fails


def metric_values(rounds, setups, trace):
    med = statistics.median
    if not trace:
        return {
            "wall_s": med(r["wall_s"] for r in rounds),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
        }
    plain = [r for r in rounds if "spans" not in r]
    traced = [r for r in rounds if "spans" in r]
    per_round = [layer_metrics(r["spans"], r["counts"], r["wall_s"]) for r in traced]
    values = {m: med(p[m] for p in per_round) for m in per_round[0]}
    values["trace.wall_s"] = med(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - med(r["wall_s"] for r in plain)
    return values


def run_workload(name, seed, seconds, trace, spec):
    rounds, setups = [], []
    t0 = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(name, seed, "traced" if traced else "plain"))
        setups.append(rounds[-1]["setup_s"])
        if not trace:
            setups.append(run_round(name, seed, "setup")["setup_s"])
        if time.monotonic() - t0 >= seconds and (not trace or len(rounds) >= 2):
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_round(name, seed, "setup")["setup_s"])
    fails = check_rounds(name, rounds)
    for msg in fails:
        print(f"CHECK FAILED [{name}]: {msg}", file=sys.stderr)
    values = metric_values(rounds, setups, trace)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": not fails,
        "attempted": sum(r["planned"] for r in rounds),
        "failed": sum(r["planned"] - sum(c["rc"] == 0 for c in r["calls"]) for r in rounds),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    with open(os.path.join(RUNS, f"result-{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if trace:
        with open(os.path.join(RUNS, f"spans-{name}-seed{seed}.json"), "w") as fh:
            json.dump([{"spans": r["spans"], "counts": r["counts"]} for r in rounds if "spans" in r], fh)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "toruswalk", "cli.py")):
        print(f"error: no toruswalk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(RUNS, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        except BenchError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
