"""Command-line interface.

Subcommands: dist, disc, bounds, dirichlet, badapprox, scan.
Exit codes: 0 success, 2 validation error, 3 infeasible parameters or
resource cap, 4 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .bounds import bound_report
from .diophantine import dirichlet_search, estimate_bad_constant, nearest_integer_distance
from .discrepancy import discrepancy_exact, discrepancy_grid
from .errors import ToruswalkError, read_input_text
from .scan import (
    ScanConfig,
    parse_k_schedule,
    read_config,
    resolve_matrix,
    run_scan,
    write_report,
)
from .walk import (
    exact_walk_distribution,
    pointset_from_csv_text,
    pointset_to_csv_text,
    project_to_torus,
    simulate_walk,
)


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="matrix file (one row per line)")
    p.add_argument("--builtin", help="builtin family, e.g. golden, sqrt_primes, rational:3")
    p.add_argument("--n", type=int, default=1, help="generator count for --builtin")
    p.add_argument("--d", type=int, default=1, help="torus dimension for --builtin")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="toruswalk", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="dump the k-step distribution as a point-set CSV")
    _add_matrix_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, help="Monte Carlo trials (omit for exact)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("disc", help="discrepancy of a point-set CSV file")
    p.add_argument("points", help="point-set CSV: d coordinates then weight per line")
    p.add_argument("--resolution", type=int, help="use the grid estimator at this resolution")

    p = sub.add_parser("bounds", help="evaluate the closed-form and ETK bounds")
    _add_matrix_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ca", type=float, help="certified approximation constant")
    p.add_argument("--ca-hmax", type=int, help="range the constant was certified over")
    p.add_argument("--etk-m", type=int, help="evaluate the ETK bound at this M")

    p = sub.add_parser("dirichlet", help="pigeonhole search for a close frequency")
    _add_matrix_args(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("badapprox", help="estimate the approximation constant")
    _add_matrix_args(p)
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="full pipeline over a k schedule")
    _add_matrix_args(p)
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--k-schedule", help="comma list of k values, or pow2:a..b")
    p.add_argument("--method", choices=["auto", "exact", "mc"])
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--ca", type=float)
    p.add_argument("--hmax", type=int, dest="ca_hmax")
    p.add_argument("--out", help="output directory")
    p.add_argument("--svg", action="store_true", default=None)
    p.add_argument("--format", choices=["json", "csv"], help="also print this format to stdout")
    return ap


def _cmd_dist(args) -> int:
    G = resolve_matrix(args)[0]
    if args.trials:
        P = simulate_walk(G, args.k, trials=args.trials, seed=args.seed)
    else:
        P = project_to_torus(exact_walk_distribution(G, args.k), G)
    text = pointset_to_csv_text(P)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_disc(args) -> int:
    P = pointset_from_csv_text(read_input_text(args.points, "point-set file"))
    if args.resolution:
        out = {
            "value": discrepancy_grid(P, args.resolution),
            "exactness": f"grid({args.resolution})",
        }
    else:
        res = discrepancy_exact(P)
        out = {
            "value": res.value,
            "witness": {"a": list(res.witness.a), "b": list(res.witness.b)},
            "direction": res.direction,
            "exactness": res.exactness,
        }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_bounds(args) -> int:
    G = resolve_matrix(args)[0]
    report = bound_report(G, args.k, c_a=args.ca, c_a_certified_up_to=args.ca_hmax)
    out = report.to_dict()
    if args.etk_m:
        from .fourier import etk_upper_bound

        out["etk"] = etk_upper_bound(G, args.k, args.etk_m)
        out["etk_M"] = args.etk_m
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dirichlet(args) -> int:
    G = resolve_matrix(args)[0]
    h = dirichlet_search(G, args.q)
    A = G.as_array()
    sup, euc = nearest_integer_distance(A.dot(list(h)))
    print(
        json.dumps(
            {"h": list(h), "sup_distance": sup, "euclidean_distance": euc, "q": args.q},
            indent=2,
        )
    )
    return 0


def _cmd_badapprox(args) -> int:
    G = resolve_matrix(args)[0]
    est = estimate_bad_constant(G, args.hmax)
    out = dataclasses.asdict(est)
    out["argmin_h"] = list(out["argmin_h"])
    print(json.dumps(out, indent=2))
    return 0


def _cmd_scan(args) -> int:
    cfg = read_config(args.config) if args.config else ScanConfig()
    overrides = {
        "builtin": args.builtin,
        "matrix": args.matrix,
        "method": args.method,
        "trials": args.trials,
        "seed": args.seed,
        "resolution": args.resolution,
        "ca": args.ca,
        "ca_hmax": args.ca_hmax,
        "out": args.out,
        "svg": args.svg,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    if args.builtin is not None:
        cfg.n, cfg.d = args.n, args.d
    if args.k_schedule is not None:
        cfg.k_schedule = parse_k_schedule(args.k_schedule)
    report = run_scan(cfg)
    written = write_report(report, cfg.out, svg=cfg.svg)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        for path in written:
            print(f"wrote {path}")
        if report.fitted_exponent is not None:
            print(f"fitted decay exponent: {report.fitted_exponent:.4f}")
    return 0


_COMMANDS = {
    "dist": _cmd_dist,
    "disc": _cmd_disc,
    "bounds": _cmd_bounds,
    "dirichlet": _cmd_dirichlet,
    "badapprox": _cmd_badapprox,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ToruswalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
