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
import json
import os
from dataclasses import asdict, dataclass, field

from . import __version__
from .bounds import choose_M, fit_decay_exponent, theorem1_lower_bound, theorem2_upper_bound
from .discrepancy import EXACT_CAPS, discrepancy_exact, discrepancy_grid
from .errors import CapExceededError, InternalConsistencyError, ValidationError, read_input_text
from .fourier import etk_upper_bound
from .generators import GeneratorMatrix, builtin_generators, read_matrix
from .svgplot import loglog_svg
from .walk import exact_walk_distribution, project_to_torus, simulate_walk


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
        return [2 ** e for e in range(lo, hi + 1)]
    try:
        ks = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"bad k schedule {text!r}") from None
    return ks


_CONFIG_KEYS = {
    "builtin": str,
    "matrix": str,
    "n": int,
    "d": int,
    "k_schedule": parse_k_schedule,
    "method": str,
    "trials": int,
    "seed": int,
    "resolution": int,
    "ca": float,
    "ca_hmax": int,
    "out": str,
    "svg": lambda v: v.lower() in ("1", "true", "yes"),
}


def parse_config_text(text: str) -> ScanConfig:
    cfg = ScanConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"config line {lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _CONFIG_KEYS[key](value))
        except ValueError as e:
            raise ValidationError(f"config line {lineno}: {e}") from None
    return cfg


def read_config(path) -> ScanConfig:
    return parse_config_text(read_input_text(path, "config file"))


def resolve_matrix(cfg: ScanConfig) -> tuple[GeneratorMatrix, str]:
    """Load the generator matrix named by a config, with a descriptor string.

    The CLI passes its parsed arguments, which carry the same names.
    """
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

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["k", "method", "discrepancy", "disc_method", "lower", "upper", "etk", "M"])
        for r in self.rows:
            w.writerow(
                [
                    r.k,
                    r.method,
                    "%.17g" % r.discrepancy,
                    r.disc_method,
                    "%.17g" % r.lower,
                    "" if r.upper is None else "%.17g" % r.upper,
                    "" if r.etk is None else "%.17g" % r.etk,
                    "" if r.M is None else r.M,
                ]
            )
        return buf.getvalue()


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

    L = None
    if cfg.method != "mc":
        # exact_walk_distribution checks its caps before it counts; auto
        # falls back to Monte Carlo when one trips.
        try:
            L = exact_walk_distribution(G, k)
        except CapExceededError:
            if cfg.method == "exact":
                raise
    if L is not None:
        P = project_to_torus(L, G)
        method = "exact"
    else:
        P = simulate_walk(G, k, trials=cfg.trials, seed=cfg.seed + k)
        method = "mc"

    cap = EXACT_CAPS.get(d, 0)
    if len(P.atoms) <= cap:
        res = discrepancy_exact(P)
        D, disc_method = res.value, "exact"
    else:
        D, disc_method = discrepancy_grid(P, cfg.resolution), f"grid({cfg.resolution})"

    # A violated bound would falsify a theorem or reveal a bug.  Exact
    # rows are checked tight; grid/MC rows get the estimator's slack.
    slack = 0.0
    if disc_method != "exact":
        slack += d * 2.0 / cfg.resolution
    if method != "exact":
        slack += 5.0 / max(cfg.trials, 1) ** 0.5
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
    G, descriptor = resolve_matrix(cfg)
    rows = [_row_for_k(G, cfg, k) for k in sorted(cfg.k_schedule)]
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
    """Write report.json and report.csv (and report.svg) under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    written.append(json_path)
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    written.append(csv_path)
    if svg:
        series = {"D": [(r.k, r.discrepancy) for r in report.rows]}
        series["lower"] = [(r.k, r.lower) for r in report.rows]
        if any(r.upper is not None for r in report.rows):
            series["upper"] = [(r.k, r.upper) for r in report.rows if r.upper is not None]
        if any(r.etk is not None for r in report.rows):
            series["etk"] = [(r.k, r.etk) for r in report.rows if r.etk is not None]
        svg_path = os.path.join(out_dir, "report.svg")
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(loglog_svg(series))
        written.append(svg_path)
    return written
