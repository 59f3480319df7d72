"""Command-line interface.

Subcommands: dist, disc, bounds, dirichlet, badapprox, scan.
Exit codes: 0 success, 2 validation error, 3 infeasible parameters or a
computation over the cost budget, 4 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import __version__, fourier
from .bounds import bound_report
from .diophantine import dirichlet_search, estimate_bad_constant, nearest_integer_distance
from .discrepancy import discrepancy_exact, discrepancy_grid
from .errors import ToruswalkError, json_text, read_input_text, write_output_text
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
    # no defaults: an absent option is None and keeps ScanConfig's value
    p.add_argument("--matrix", help="matrix file (one row per line)")
    p.add_argument("--builtin", help="builtin family, e.g. golden, sqrt_primes, rational:3")
    p.add_argument("--n", type=int, help="generator count for --builtin")
    p.add_argument("--d", type=int, help="torus dimension for --builtin")
    p.add_argument("--seed", type=int)


def _dist_args(p: argparse.ArgumentParser) -> None:
    _add_matrix_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, help="Monte Carlo trials (omit for exact)")
    p.add_argument("--out", help="output file (default stdout)")


def _disc_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("points", help="point-set CSV: d coordinates then weight per line")
    p.add_argument("--resolution", type=int, help="use the grid estimator at this resolution")


def _bounds_args(p: argparse.ArgumentParser) -> None:
    _add_matrix_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ca", type=float, help="certified approximation constant")
    p.add_argument("--ca-hmax", type=int, help="range the constant was certified over")
    p.add_argument("--etk-m", type=int, help="evaluate the ETK bound at this M")


def _dirichlet_args(p: argparse.ArgumentParser) -> None:
    _add_matrix_args(p)
    p.add_argument("--q", type=float, required=True)


def _badapprox_args(p: argparse.ArgumentParser) -> None:
    _add_matrix_args(p)
    p.add_argument("--hmax", type=int, required=True)


def _scan_args(p: argparse.ArgumentParser) -> None:
    _add_matrix_args(p)
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--k-schedule", type=parse_k_schedule, help="comma list of k values, or pow2:a..b")
    p.add_argument("--method", choices=["auto", "exact", "mc"])
    p.add_argument("--trials", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--ca", type=float)
    p.add_argument("--hmax", type=int, dest="ca_hmax")
    p.add_argument("--out", help="output directory")
    p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--format", choices=["json", "csv"], help="also print this format to stdout")


@functools.cache
def _parser() -> tuple:
    """The CLI's one parser, with every subcommand registered by name and
    help; the subcommands' parsers by name; and the set of subcommands whose
    arguments are added."""
    ap = argparse.ArgumentParser(prog="toruswalk", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    return ap, {name: sub.add_parser(name, help=help_text) for name, (help_text, *_) in _SUBCOMMANDS.items()}, set()


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser, ready for argv (sys.argv[1:] when None).  One parser
    serves the process: every parse_args call returns a fresh namespace, and
    no command writes to the parser.

    A subcommand's arguments are added the first time argv names it, as the
    parser reads only that subcommand's.  The top level takes no option with
    a value, so the first argument that does not start with "-" is the
    subcommand; where argparse reads an earlier one ("-" or a negative
    number) as the subcommand instead, it refuses it as an invalid choice
    before any subcommand's arguments are read.  So the help texts and the
    error messages are those of the parser with every argument.
    """
    ap, subparsers, added = _parser()
    argv = sys.argv[1:] if argv is None else argv
    named = next((a for a in argv if not a.startswith("-")), None)
    if named in subparsers and named not in added:
        _SUBCOMMANDS[named][1](subparsers[named])
        added.add(named)
    return ap


def _config(args, base: ScanConfig | None = None) -> ScanConfig:
    """base (ScanConfig() when None) with each field whose flag was given set
    to the flag's value; an absent flag is None and keeps the base value."""
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(ScanConfig)}
    base = ScanConfig() if base is None else base
    return dataclasses.replace(base, **{key: v for key, v in given.items() if v is not None})


def _print_json(record) -> None:
    """Print a dict, or a dataclass as its dict, as indented JSON."""
    sys.stdout.write(json_text(record))


def _cmd_dist(args) -> int:
    cfg = _config(args)
    G = resolve_matrix(cfg)[0]
    # --trials, --k and --out are dist's own: ScanConfig's trials would pick Monte Carlo
    if args.trials is not None:
        P = simulate_walk(G, args.k, trials=args.trials, seed=cfg.seed)
    else:
        P = project_to_torus(exact_walk_distribution(G, args.k), G)
    text = pointset_to_csv_text(P)
    if args.out:
        write_output_text(args.out, text, "point-set file")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_disc(args) -> int:
    P = pointset_from_csv_text(read_input_text(args.points, "point-set file"))
    if args.resolution is not None:
        value = discrepancy_grid(P, args.resolution)
        _print_json({"value": value, "exactness": f"grid({args.resolution})"})
    else:
        _print_json(discrepancy_exact(P))
    return 0


def _cmd_bounds(args) -> int:
    G = resolve_matrix(_config(args))[0]
    out = dataclasses.asdict(bound_report(G, args.k, c_a=args.ca, c_a_certified_up_to=args.ca_hmax))
    if args.etk_m is not None:
        # looked up in fourier at call time, where a tracer may have wrapped it
        out["etk"] = fourier.etk_upper_bound(G, args.k, args.etk_m)
        out["etk_M"] = args.etk_m
    _print_json(out)
    return 0


def _cmd_dirichlet(args) -> int:
    G = resolve_matrix(_config(args))[0]
    h = dirichlet_search(G, args.q)
    sup, euc = nearest_integer_distance(fourier._phases(G.as_array(), np.array([h]))[0])
    _print_json({"h": list(h), "sup_distance": sup, "euclidean_distance": euc, "q": args.q})
    return 0


def _cmd_badapprox(args) -> int:
    G = resolve_matrix(_config(args))[0]
    _print_json(estimate_bad_constant(G, args.hmax))
    return 0


def _cmd_scan(args) -> int:
    cfg = _config(args, read_config(args.config) if args.config else None)
    report = run_scan(cfg)
    written = write_report(report, cfg.out, svg=cfg.svg)
    if args.format == "json":
        _print_json(report)
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        for path in written:
            print(f"wrote {path}")
        if report.fitted_exponent is not None:
            print(f"fitted decay exponent: {report.fitted_exponent:.4f}")
    return 0


# subcommand -> (help, the function that adds its arguments, its handler),
# in --help order
_SUBCOMMANDS = {
    "dist": ("dump the k-step distribution as a point-set CSV", _dist_args, _cmd_dist),
    "disc": ("discrepancy of a point-set CSV file", _disc_args, _cmd_disc),
    "bounds": ("evaluate the closed-form and ETK bounds", _bounds_args, _cmd_bounds),
    "dirichlet": ("pigeonhole search for a close frequency", _dirichlet_args, _cmd_dirichlet),
    "badapprox": ("estimate the approximation constant", _badapprox_args, _cmd_badapprox),
    "scan": ("full pipeline over a k schedule", _scan_args, _cmd_scan),
}


def main(argv=None) -> int:
    try:
        args = build_parser(argv).parse_args(argv)  # --k-schedule's parser raises ValidationError
        return _SUBCOMMANDS[args.command][2](args)
    except ToruswalkError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
