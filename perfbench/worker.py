"""One round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR

Imports `toruswalk` from the checkout's `src/`, runs the workload's CLI
calls in process through `toruswalk.cli.main`, and prints one JSON
object: the monotonic time of the first call, the wall time from the
first call to the end of the last, the process's peak RSS, each call's
exit code and standard output, and (MODE=traced) the layer spans.
MODE=setup stops where the first call would start and prints its time.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)  # this directory stays on the path after it

import toruswalk.cli  # noqa: E402

from workloads import CALLS, WORKLOADS  # noqa: E402


def main():
    name, seed, mode, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    if os.path.dirname(os.path.abspath(toruswalk.cli.__file__)) != os.path.join(SRC, "toruswalk"):
        sys.exit(f"toruswalk was imported from {toruswalk.cli.__file__}, not from {SRC}")
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer().install()

    calls = []
    plan = WORKLOADS[name](seed, out_dir)
    argv = next(plan)
    t_first = time.monotonic()
    if mode == "setup":
        sys.stdout.write(json.dumps({"t_first": t_first}) + "\n")
        return
    t0 = time.perf_counter()
    while True:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = toruswalk.cli.main(argv)
        except SystemExit as e:  # argparse rejecting the arguments
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # an escaped exception fails this call, as it would the CLI
            buf.write(traceback.format_exc())
            rc = 1
        calls.append({"argv": argv, "rc": rc, "out": buf.getvalue()})
        if rc != 0:
            break
        try:
            argv = plan.send(buf.getvalue())
        except StopIteration:
            break
    wall = time.perf_counter() - t0
    result = {
        "t_first": t_first,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "planned": CALLS[name],
        "calls": calls,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
