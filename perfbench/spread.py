"""Steadiness of the end-to-end metrics: two sets of runs per workload.

    python3 perfbench/spread.py

Runs `run.py --trace 0` with --seconds from BENCHMARK.json on every
workload of BENCHMARK.json, first with seeds 1..10 (set 1), then with
seeds 11..20 (set 2).  For each workload and metric it prints each set's
median and spread (distance between the first and third quartile as a
share of the median) and the gap between the two medians as a share of
the smaller one, since either set may serve as the baseline.  It marks
a spread or a gap above the metric's bound, a spread (other than that of
setup_s) above a third of it, and a share of failed operations that
differs between the sets.  Results also go to
perfbench/_runs/spread.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    for s in range(2):
        runs = {w: [] for w in workloads}
        for w in workloads:
            for seed in range(s * RUNS + 1, (s + 1) * RUNS + 1):
                r = one_run(w, seed, spec["run_seconds"])
                runs[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{m}={v['value']:.4f}" for m, v in r["metrics"].items()), flush=True)
        sets.append(runs)
    os.makedirs(os.path.join(HERE, "_runs"), exist_ok=True)
    with open(os.path.join(HERE, "_runs", "spread.json"), "w") as fh:
        json.dump(sets, fh)

    ok = True
    print(f"\n{'workload':10} {'metric':12} {'median 1':>10} {'spread 1':>9} {'median 2':>10} "
          f"{'spread 2':>9} {'gap':>8} {'bound':>6}")
    for w in workloads:
        shares = [{r["failed"] / r["attempted"] for r in runs[w]} for runs in sets]
        if shares[0] != shares[1] or len(shares[0]) != 1:
            ok = False
            print(f"{w}: failed shares differ: {shares}  <-- FAIL")
        for m in spec["end_to_end"]:
            v1, v2 = ([r["metrics"][m["name"]]["value"] for r in runs[w]] for runs in sets)
            med1, med2 = statistics.median(v1), statistics.median(v2)
            gap = abs(med2 - med1) / min(med1, med2)
            bad = max(gap, spread(v1), spread(v2)) > m["bound"]
            ok = ok and not bad
            note = "  <-- FAIL" if bad else "  (spread above a third of the bound)" if (
                m["name"] != "setup_s" and max(spread(v1), spread(v2)) > m["bound"] / 3) else ""
            print(f"{w:10} {m['name']:12} {med1:10.4f} {spread(v1):9.3f} {med2:10.4f} {spread(v2):9.3f} "
                  f"{gap:8.3f} {m['bound']:6.2f}{note}")
    print("all within bounds" if ok else "NOT within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
