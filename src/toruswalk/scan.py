"""Scan orchestration: run the walk / discrepancy / bounds pipeline over
a schedule of step counts and emit reproducible JSON, CSV, and SVG
reports.

Configuration is a flat key=value text file; command-line flags override
file values.  Given the same configuration and seed, the CSV and JSON
outputs are byte-identical across runs (the JSON carries a generated_at
timestamp, which is the one excluded field).
"""

from __future__ import annotations

import csv
import datetime
import io
import math
import os
import typing
from dataclasses import astuple, dataclass, field, fields

from . import __version__
from .bounds import (
    check_certification_range,
    choose_M,
    fit_decay_exponent,
    theorem1_lower_bound,
    theorem2_upper_bound,
)
from .discrepancy import check_grid_resolution, discrepancy_exact, discrepancy_grid
from .errors import (
    CapExceededError,
    InternalConsistencyError,
    ValidationError,
    data_lines,
    json_text,
    read_input_text,
    write_output_text,
)
from .fourier import etk_upper_bound
from .generators import GeneratorMatrix, builtin_generators, read_matrix
from .svgplot import loglog_svg
from .walk import MC_KEYS, MC_STEPS, check_trials, exact_walk_distribution, project_to_torus, simulate_walk


@dataclass
class ScanConfig:
    builtin: str | None = None
    matrix: str | None = None
    n: int = 1
    d: int = 1
    k_schedule: list = field(default_factory=list)
    method: str = "auto"  # auto | exact | mc
    trials: int = 100_000
    seed: int = 0
    resolution: int = 512
    ca: float | None = None
    ca_hmax: int | None = None
    out: str = "."
    svg: bool = False


def parse_k_schedule(text: str) -> list:
    """Comma list of integers, or pow2:a..b for {2^a, ..., 2^b}."""
    text = text.strip()
    if text.startswith("pow2:"):
        lo, _, hi = text[5:].partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValidationError(f"bad pow2 schedule {text!r}") from None
        if hi < lo:
            raise ValidationError("pow2 schedule upper exponent below lower")
        if hi > 1023:
            raise ValidationError(f"pow2 schedule exponent {hi} above 1023: no float holds 2^{hi}")
        return [2 ** e for e in range(lo, hi + 1)]
    try:
        ks = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"bad k schedule {text!r}") from None
    return ks


def _parse_bool(text: str) -> bool:
    """1, true or yes, or 0, false or no, in any case."""
    value = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}.get(text.lower())
    if value is None:
        raise ValueError(f"expected 1, true, yes, 0, false or no, not {text!r}")
    return value


def _config_parser(annotation):
    """The parser of a config value for a ScanConfig field annotation: int,
    float and str themselves, list a k schedule, bool _parse_bool."""
    tp = next(t for t in typing.get_args(annotation) or (annotation,) if t is not type(None))
    return {list: parse_k_schedule, bool: _parse_bool}.get(tp, tp)


def parse_config_text(text: str) -> ScanConfig:
    parsers = {key: _config_parser(tp) for key, tp in typing.get_type_hints(ScanConfig).items()}
    cfg = ScanConfig()
    for lineno, line in data_lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key not in parsers:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, parsers[key](value))
        except ValueError as e:
            raise ValidationError(f"config line {lineno}: {e}") from None
    return cfg


def read_config(path) -> ScanConfig:
    return parse_config_text(read_input_text(path, "config file"))


def resolve_matrix(cfg: ScanConfig) -> tuple[GeneratorMatrix, str]:
    """Load the generator matrix named by a config, with a descriptor string."""
    if cfg.matrix is not None:
        return read_matrix(cfg.matrix), f"file:{os.path.basename(cfg.matrix)}"
    if cfg.builtin is not None:
        G = builtin_generators(cfg.builtin, cfg.n, cfg.d, seed=cfg.seed)
        return G, f"builtin:{cfg.builtin}:n={G.n}:d={G.d}"
    raise ValidationError("no generator source: set builtin or matrix (--builtin or --matrix)")


@dataclass
class ScanRow:
    k: int
    method: str  # exact | mc
    discrepancy: float
    disc_method: str  # exact | grid(<res>)
    lower: float
    upper: float | None = None
    etk: float | None = None
    M: int | None = None


@dataclass
class ScanReport:
    matrix: str
    n: int
    d: int
    seed: int
    method: str
    resolution: int
    trials: int
    ca: float | None
    ca_hmax: int | None
    rows: list
    fitted_exponent: float | None
    version: str
    generated_at: str

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(f.name for f in fields(ScanRow))
        for r in self.rows:  # floats to 17 significant digits; csv writes None as ""
            w.writerow("%.17g" % v if isinstance(v, float) else v for v in astuple(r))
        return buf.getvalue()


# The chance that a Monte Carlo row's slack fails to cover its sampling error.
_MC_DELTA = 1e-9


def _mc_slack(d: int, trials: int) -> float:
    """A bound, holding with probability at least 1 - _MC_DELTA, on how far
    any box's mass under the empirical law of the trials lies from its mass
    under the walk's law, and so on how far their discrepancies lie apart.

    d = 1: the DKW inequality with Massart's constant,
    P(sup_x |F_N(x) - F(x)| > e) <= 2 exp(-2 N e^2), and an interval's mass
    is a difference of two CDF values: 2 sqrt(ln(2 / delta) / (2 N)).
    d >= 2: the Vapnik-Chervonenkis inequality,
    P(sup_B |P_N(B) - P(B)| > e) <= 4 S(2N) exp(-N e^2 / 8), where boxes
    have VC dimension V = 2d and Sauer's lemma bounds the shatter
    coefficient S(m) by (e m / V)^V for m >= V (by 2^m always):
    sqrt(8 (ln(4 / delta) + ln S(2N)) / N).
    At N = 10^5 this is 0.0207 in d = 1 and 0.0745 in d = 2.
    """
    if d == 1:
        return 2.0 * math.sqrt(math.log(2.0 / _MC_DELTA) / (2.0 * trials))
    V, m = 2 * d, 2 * trials
    log_shatter = m * math.log(2.0) if m < V else V * math.log(math.e * m / V)
    return math.sqrt(8.0 * (math.log(4.0 / _MC_DELTA) + log_shatter) / trials)


def _row_for_k(G: GeneratorMatrix, cfg: ScanConfig, k: int) -> ScanRow:
    n, d = G.n, G.d
    # The bounds come first: an infeasible c_a (M < 1) or an oversize
    # frequency box then fails before the walk and discrepancy run.
    lower = theorem1_lower_bound(n, d, k)
    upper = etk = M = None
    if cfg.ca is not None:
        M = choose_M(n, d, cfg.ca, k)
        upper = theorem2_upper_bound(n, d, cfg.ca, k)
        etk = etk_upper_bound(G, k, M)

    # Each layer checks its cost before it starts.  auto falls back from the
    # exact walk, or its projection, to Monte Carlo, and every row from exact
    # to grid discrepancy, when the budget refuses.
    P = None
    if cfg.method != "mc":
        try:
            P = project_to_torus(exact_walk_distribution(G, k), G)
            method = "exact"
        except CapExceededError:
            if cfg.method == "exact":
                raise
    if P is None:
        P = simulate_walk(G, k, trials=cfg.trials, seed=cfg.seed + k)
        method = "mc"

    try:
        D, disc_method = discrepancy_exact(P).value, "exact"
    except CapExceededError:
        D, disc_method = discrepancy_grid(P, cfg.resolution), f"grid({cfg.resolution})"

    # A violated bound would falsify a theorem or reveal a bug.  Exact
    # rows are checked tight; grid/MC rows get the estimator's slack.
    slack = 0.0
    if disc_method != "exact":
        slack += d * 2.0 / cfg.resolution
    if method != "exact":
        slack += _mc_slack(d, cfg.trials)
    if D + slack < lower or (upper is not None and D - slack > min(1.0, upper)):
        raise InternalConsistencyError(
            f"bound violation at k={k}: lower={lower}, D={D}, upper={upper}"
        )
    return ScanRow(
        k=k, method=method, discrepancy=D, disc_method=disc_method,
        lower=lower, upper=upper, etk=etk, M=M,
    )


def run_scan(cfg: ScanConfig) -> ScanReport:
    if not cfg.k_schedule:
        raise ValidationError("empty k schedule")
    if any(k < 1 for k in cfg.k_schedule):
        raise ValidationError("k schedule entries must be >= 1")
    if cfg.method not in ("auto", "exact", "mc"):
        raise ValidationError(f"unknown method policy {cfg.method!r}")
    ks = sorted(cfg.k_schedule)
    repeated = sorted({a for a, b in zip(ks, ks[1:]) if a == b})
    if repeated:
        raise ValidationError(f"k schedule repeats k = {', '.join(map(str, repeated))}")
    check_grid_resolution(cfg.resolution)  # before any row: a row may fall back to the grid
    check_certification_range(cfg.ca_hmax)
    G, descriptor = resolve_matrix(cfg)
    # any row of auto or mc may run Monte Carlo, which takes k below 2^63 and
    # at least one trial, and keys the row by seed + k, which Philox needs in
    # [0, 2^128): the keys of the smallest and the largest k bracket them all
    if cfg.method != "exact":
        check_trials(cfg.trials)
        if ks[-1] >= MC_STEPS:
            raise ValidationError(
                f"k = {ks[-1]} is past 2^63 - 1, the largest step count of a Monte Carlo row"
                " (numpy's sampler range)"
            )
        for k in ks[0], ks[-1]:
            if not 0 <= cfg.seed + k < MC_KEYS:
                msg = f"seed {cfg.seed} puts the Monte Carlo key of k = {k}, seed + k = {cfg.seed + k}"
                raise ValidationError(f"{msg}, outside [0, 2^128)")
    rows = [_row_for_k(G, cfg, k) for k in ks]
    fitted = None
    if len(rows) >= 3:
        fitted = fit_decay_exponent([(r.k, r.discrepancy) for r in rows])
    return ScanReport(
        matrix=descriptor,
        n=G.n,
        d=G.d,
        seed=cfg.seed,
        method=cfg.method,
        resolution=cfg.resolution,
        trials=cfg.trials,
        ca=cfg.ca,
        ca_hmax=cfg.ca_hmax,
        rows=rows,
        fitted_exponent=fitted,
        version=__version__,
        generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )


def write_report(report: ScanReport, out_dir, svg: bool = False) -> list:
    """Write report.json and report.csv (and report.svg) under out_dir, which
    is made if missing.  A directory or file that cannot be made or written
    raises ValidationError naming its path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ValidationError(
            f"cannot create output directory {str(out_dir)!r}: {e.strerror}"
        ) from None
    texts = {"report.json": json_text(report), "report.csv": report.to_csv()}
    if svg:
        columns = ("D", "discrepancy"), ("lower", "lower"), ("upper", "upper"), ("etk", "etk")
        series = {name: [(r.k, getattr(r, column)) for r in report.rows] for name, column in columns}
        texts["report.svg"] = loglog_svg(series)
    written = [os.path.join(out_dir, name) for name in texts]
    for path, text in zip(written, texts.values()):
        write_output_text(path, text, "report file")
    return written
